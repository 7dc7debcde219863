"""File formats: CSV round trips, touchstone ingestion, config validation."""

import codecs
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from routercell import io, model, presets, runs
from routercell.calibration import ChannelSpectrum

from touchstone_fixture import spectrum_to_smatrix, write_touchstone

TWO_PI = 2.0 * math.pi
FREQS = np.linspace(6.14e9, 6.19e9, 37)


def sample_spectrum():
    rng = np.random.default_rng(1)
    traces = [
        rng.standard_normal(FREQS.size) + 1j * rng.standard_normal(FREQS.size)
        for _ in model.CHANNELS
    ]
    return ChannelSpectrum(FREQS, traces)


class TestCsvRoundTrip:
    def test_lossless_identity(self, tmp_path):
        spectrum = sample_spectrum()
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path)
        back = io.ingest_spectrum(path)
        assert np.array_equal(back.freqs, spectrum.freqs)
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.ingest_spectrum(tmp_path / "nope.csv")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def spectra(draw):
    """Finite four-channel spectra on strictly increasing grids."""
    freqs = draw(st.lists(FINITE, min_size=1, max_size=12, unique=True).map(sorted))
    traces = draw(arrays(complex, (len(model.CHANNELS), len(freqs)),
                         elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    return ChannelSpectrum(np.array(freqs), traces)


def assert_same_spectrum(back, spectrum):
    assert back.freqs.tobytes() == spectrum.freqs.tobytes()
    assert back.traces.tobytes() == spectrum.traces.tobytes()


class TestRoundTripProperties:
    @ROUND_TRIP_SETTINGS
    @given(spectra())
    def test_csv_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("csv") / "spec.csv"
        io.write_spectrum(spectrum, path)
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)

    @ROUND_TRIP_SETTINGS
    @given(spectra())
    def test_touchstone_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("s4p") / "spec.s4p"
        write_touchstone(path, spectrum.freqs, spectrum_to_smatrix(spectrum))
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)


SIGNED = st.sampled_from([0.0, -0.0]) | FINITE
RUN_IDS = st.sampled_from([None, "r", "20261018T030000-0123abcd"])
#: values whose texts differ only in sign, or that are not finite
SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def signed_spectra(draw):
    """Spectra whose values include signed zeros."""
    freqs = draw(st.lists(SIGNED, min_size=1, max_size=8, unique=True).map(sorted))
    traces = draw(arrays(complex, (len(model.CHANNELS), len(freqs)),
                         elements=st.builds(complex, SIGNED, SIGNED)))
    return ChannelSpectrum(np.array(freqs), traces)


def oracle_spectrum_bytes(spectrum, run_id):
    """``write_spectrum`` row by row through ``csv.writer``."""
    buf = StringIO(newline="")
    if run_id is not None:
        buf.write(f"# run: {run_id}\n")
    writer = csv.writer(buf)
    writer.writerow(["freq_hz", "channel", "re", "im"])
    for ch, trace in zip(model.CHANNELS, spectrum.traces):
        for f, v in zip(spectrum.freqs, trace):
            writer.writerow([repr(float(f)), ch, repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue().encode()


def oracle_columns_bytes(header, columns, run_id):
    """``write_columns`` row by row through ``csv.writer``."""
    buf = StringIO(newline="")
    if run_id is not None:
        buf.write(f"# run: {run_id}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])
    return buf.getvalue().encode()


def block_rows(header) -> int:
    """The rows of one write block of a table with ``header``."""
    return io._WRITE_FIELDS // len(header)


def wide_table(rng, repeats: bool, n: int = 4001):
    """A 12-column float table of ``4 n`` rows, many write blocks long.

    Its first column repeats each of ``n`` frequencies four times; the
    other eleven hold all-distinct values, or few values repeated, signed
    zeros among them.
    """
    header = ["freq_hz", *(f"v{k}" for k in range(11))]
    values = TestWriterBytes.long_values(rng, (11, 4 * n), repeats)
    values[:, ::97], values[:, 1::97] = 0.0, -0.0
    return header, [np.repeat(np.linspace(6.1e9, 6.2e9, n), 4), *values]


class TestWriterBytes:
    """The columnar writers produce exactly the bytes of a row-wise ``csv.writer``."""

    @ROUND_TRIP_SETTINGS
    @given(signed_spectra(), RUN_IDS)
    def test_write_spectrum_matches_csv_writer(self, tmp_path_factory, spectrum, run_id):
        path = tmp_path_factory.mktemp("csv") / "spec.csv"
        io.write_spectrum(spectrum, path, run_id=run_id)
        assert path.read_bytes() == oracle_spectrum_bytes(spectrum, run_id)

    @pytest.mark.parametrize("write", [
        lambda path, run_id: io.write_spectrum(sample_spectrum(), path, run_id=run_id),
        lambda path, run_id: io.write_columns(path, ["x"], [np.ones(2)], run_id),
    ], ids=["spectrum", "columns"])
    @pytest.mark.parametrize("run_id", ["a\nfreq_hz,channel,re,im", "x\u2028y"],
                             ids=["newline", "line-separator"])
    def test_unprintable_run_id_is_refused_before_writing(self, tmp_path, write, run_id):
        # a newline once ended the "# run:" comment and put a row of its own in the table
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"run id {re.escape(repr(run_id))} is not printable"):
            write(path, run_id)
        assert not path.exists()

    @pytest.mark.parametrize("header, columns, message", [
        # zip once cut every column to the shortest
        (["a", "b"], [np.ones(3), ["x", "y"]], "column 'b' has 2 values, column 'a' has 3"),
        # a missing column once wrote rows shorter than the header
        (["a", "b", "c"], [np.ones(3)], "header ['a', 'b', 'c'] names 3 columns, got 1"),
        (["a"], [np.ones(3), np.ones(3)], "header ['a'] names 1 columns, got 2"),
        # a 2-D array was once flattened
        (["a", "b"], [np.ones(6), np.ones((2, 3))], "column 'b' is a 2-D array; expected 1-D"),
        # names in an array were once written with repr, as 'AA', which no reader takes
        (["n", "x"], [np.array(["AA", "BB"]), np.array([1, 2])], "column 'n' is an array of <U2; "
                                                               "expected float64"),
        # a table without columns was once written with an empty header that no reader takes
        ([], [], "a table needs at least one column; the header names none"),
    ], ids=["unequal-lengths", "fewer-columns", "more-columns", "2-d", "non-float", "no-columns"])
    def test_malformed_table_is_refused_before_writing(self, tmp_path, header, columns, message):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            io.write_columns(path, header, columns, "r")
        assert not path.exists()

    def test_columns_from_strided_views(self, tmp_path):
        # the writer reads the caller's views as they are: the rows of a transposed array and
        # the real and imaginary parts of a (4, n) complex stack, distinct values and repeats
        rng = np.random.default_rng(10)
        n = block_rows(["a"] * 4) + 7
        table = np.column_stack([self.long_values(rng, 4 * n, repeats=False),
                                 self.long_values(rng, 4 * n, repeats=True)])
        stack = self.long_values(rng, (4, n), False) + 1j * self.long_values(rng, (4, n), True)
        table[::97, 0], table[1::97, 0] = 0.0, -0.0  # signed zeros among distinct values too
        stack.real[:, ::53], stack.real[:, 1::53] = 0.0, -0.0
        columns = [*table.T, stack.real.reshape(-1), stack.imag.reshape(-1)]
        assert not any(c.flags.c_contiguous for c in columns)
        assert all(np.shares_memory(c, table) for c in columns[:2])
        assert all(np.shares_memory(c, stack) for c in columns[2:])
        header = ["a", "b", "re", "im"]
        path = tmp_path / "table.csv"
        io.write_columns(path, header, columns, "r")
        assert path.read_bytes() == oracle_columns_bytes(header, columns, "r")


    @staticmethod
    def long_values(rng, shape, repeats: bool) -> np.ndarray:
        """All-distinct random values, or few values repeated, signed zeros among them."""
        if repeats:
            return rng.choice([0.0, -0.0, 1.5, -2.25e-7], size=shape)
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_spectrum_longer_than_a_write_block(self, tmp_path, repeats):
        rng = np.random.default_rng(7)
        n = block_rows(io._CSV_HEADER) // len(model.CHANNELS) + 5
        values = self.long_values(rng, (2, len(model.CHANNELS), n), repeats)
        spectrum = ChannelSpectrum(np.arange(n) * 1e5 + 6e9, values[0] + 1j * values[1])
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path, run_id="r")
        assert path.read_bytes() == oracle_spectrum_bytes(spectrum, "r")

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_wide_table_longer_than_a_write_block(self, tmp_path, repeats):
        # 12 columns take fewer rows a block than a spectrum's 4
        header, columns = wide_table(np.random.default_rng(8), repeats)
        path = tmp_path / "wide.csv"
        io.write_columns(path, header, columns, None)
        assert path.read_bytes() == oracle_columns_bytes(header, columns, None)

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_columns_longer_than_a_write_block(self, tmp_path, repeats):
        rng = np.random.default_rng(9)
        n = 2 * block_rows(["a", "name", "b"]) + 3
        values = self.long_values(rng, (2, n), repeats)
        values[1, rng.integers(0, n, 50)] = rng.choice(SPECIAL, 50)
        names = [f"n{k % 3}" for k in range(n)]
        columns = [values[0], names, values[1]]
        path = tmp_path / "table.csv"
        io.write_columns(path, ["a", "name", "b"], columns, "r")
        assert path.read_bytes() == oracle_columns_bytes(["a", "name", "b"], columns, "r")

    @ROUND_TRIP_SETTINGS
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(), min_size=n, max_size=n),
        st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n),
        st.lists(st.sampled_from(SPECIAL) | FINITE, min_size=n, max_size=n),
    )), st.integers(1, 12), RUN_IDS)
    def test_columns_match_csv_writer_across_blocks(self, tmp_path_factory, drawn, fields, run_id):
        # 1 to 4 rows a block; fewer fields than columns still write a row at a time
        columns = [np.array(values) for values in drawn]
        path = tmp_path_factory.mktemp("cols") / "table.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_WRITE_FIELDS", fields)
            io.write_columns(path, ["a", "b", "c"], columns, run_id)
        assert path.read_bytes() == oracle_columns_bytes(["a", "b", "c"], columns, run_id)


class TestCsvErrors:
    HEADER = "freq_hz,channel,re,im\n"

    def write(self, tmp_path, body, header=None):
        path = tmp_path / "bad.csv"
        path.write_text((self.HEADER if header is None else header) + body)
        return path

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "", header="frequency,ch,re,im\n")
        with pytest.raises(runs.ParseError, match="header"):
            io.ingest_spectrum(path)

    def test_duplicate_frequency_names_line(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (1e9, 1e9, 2e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(runs.ParseError, match="line 3"):
            io.ingest_spectrum(path)

    def test_non_monotone_frequency(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (2e9, 1e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(runs.ParseError, match="non-monotone"):
            io.ingest_spectrum(path)

    def test_channel_count_mismatch(self, tmp_path):
        rows = "1e9,AA,1.0,0.0\n2e9,AA,1.0,0.0\n1e9,BB,1.0,0.0\n"
        rows += "1e9,AB,1.0,0.0\n2e9,AB,1.0,0.0\n1e9,BA,1.0,0.0\n2e9,BA,1.0,0.0\n"
        path = self.write(tmp_path, rows)
        with pytest.raises(runs.ParseError, match="row counts"):
            io.ingest_spectrum(path)

    def test_channel_frequencies_must_agree(self, tmp_path):
        rows = "".join(f"{f},{ch},1.0,0.0\n" for ch in model.CHANNELS for f in ("1e9", "2e9"))
        path = self.write(tmp_path, rows.replace("2e9,BB", "3e9,BB"))
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert (str(info.value), info.value.line) == (
            "channel BB differs from channel AA in freq_hz (line 5)", 5)

    def test_unknown_channel_names_line(self, tmp_path):
        path = self.write(tmp_path, "1e9,XX,1.0,0.0\n")
        with pytest.raises(runs.ParseError, match="line 2"):
            io.ingest_spectrum(path)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + self.HEADER.encode())
        with pytest.raises(runs.ParseError, match="utf16.csv is not UTF-8"):
            io.ingest_spectrum(path)

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_undecodable_byte_is_named_by_file_offset_and_line(self, tmp_path, bom):
        # 24-byte LF rows: byte 20,004 is on line 834, in the decoder's third 8 KB chunk,
        # which once counted it from the chunk's start as position 3620
        freqs = 6e9 + 1e5 * np.arange(1250)
        path = tmp_path / "meas.csv"
        io.write_spectrum(ChannelSpectrum(freqs, np.ones((4, freqs.size), complex)), path)
        data = bytearray(bom + path.read_text().encode())
        assert len(data) == len(bom) + 22 + 5000 * 24
        offset = len(bom) + 20_004
        data[offset] = 0xFF
        path.write_bytes(data)
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert (str(info.value), info.value.line) == (
            f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position "
            f"{offset}: invalid start byte (line 834)", 834)

    def test_non_finite_rows_dropped_with_warning(self, tmp_path):
        rows = []
        for ch in model.CHANNELS:
            rows.append(f"1e9,{ch},1.0,0.0")
            rows.append(f"2e9,{ch},{'nan' if ch == 'BB' else '1.0'},0.0")
            rows.append(f"3e9,{ch},1.0,0.0")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            back = io.ingest_spectrum(path)
        assert back.freqs.size == 2
        assert np.array_equal(back.freqs, [1e9, 3e9])

    def test_extra_column_refused_at_the_header(self, tmp_path):
        # a spectrum is its grid and four traces: a column beyond them has no field to fill
        rows = "".join(f"1e9,{ch},1.0,0.0,0.1\n" for ch in model.CHANNELS)
        path = self.write(tmp_path, rows, header="freq_hz,channel,re,im,bias_ma\n")
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert str(info.value) == ("malformed header ['freq_hz', 'channel', 're', 'im', 'bias_ma']; "
                                   "expected ['freq_hz', 'channel', 're', 'im'] (line 1)")
        assert info.value.line == 1


def write_raw(path, fmt, freqs, traces):
    """Write a spectrum that may hold non-finite values, as CSV or s4p."""
    if fmt == "s4p":
        s = np.zeros((freqs.size, 4, 4), dtype=complex)
        s[:, model._CHANNEL_OUT, model._CHANNEL_IN] = traces.T
        write_touchstone(path, freqs, s)
        return
    io.write_columns(path, ["freq_hz", "channel", "re", "im"],
                     [np.tile(freqs, 4), [ch for ch in model.CHANNELS for _ in freqs],
                      traces.real.ravel(), traces.imag.ravel()])


class TestNonFinitePoints:
    @pytest.mark.parametrize("fmt, value", [("csv", math.nan), ("csv", math.inf), ("s4p", math.inf)])
    def test_non_finite_frequency_dropped_with_warning(self, tmp_path, fmt, value):
        freqs = np.array([1e9, value, 3e9])
        path = tmp_path / f"spec.{fmt}"
        write_raw(path, fmt, freqs, np.ones((4, 3), dtype=complex))
        with pytest.warns(UserWarning, match="dropped 1"):
            back = io.ingest_spectrum(path)
        assert np.array_equal(back.freqs, [1e9, 3e9])

    @pytest.mark.parametrize("fmt", ["csv", "s4p"])
    def test_no_finite_point_names_path(self, tmp_path, fmt):
        path = tmp_path / f"spec.{fmt}"
        traces = np.ones((4, 2), dtype=complex)
        traces[1] = math.nan
        write_raw(path, fmt, np.array([1e9, 2e9]), traces)
        with pytest.raises(runs.ParseError, match=f"spec.{fmt} holds no finite point"):
            io.ingest_spectrum(path)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def spoiled_spectra(draw):
    """(spectrum, freqs, traces): a drawn spectrum with some points made non-finite.

    A spoiled point has a non-finite frequency (all four channel rows) or a
    single non-finite real or imaginary part.
    """
    spectrum = draw(spectra())
    freqs, traces = spectrum.freqs.copy(), spectrum.traces.copy()
    for k in draw(st.sets(st.integers(0, len(freqs) - 1))):
        value = draw(NON_FINITE)
        where = draw(st.sampled_from(["freq", "re", "im"]))
        if where == "freq":
            freqs[k] = value
        else:
            c = draw(st.integers(0, len(model.CHANNELS) - 1))
            old = traces[c, k]
            traces[c, k] = complex(value, old.imag) if where == "re" else complex(old.real, value)
    return spectrum, freqs, traces


#: csv.reader's field size limit while the reader properties run: the reader lifts it, so a
#: drawn field longer than it is read like any other
SMALL_FIELD_LIMIT = 24
#: Fields a messy table holds: quoted ones (one spanning two lines, one unterminated, one
#: with a stray quote), a NUL, a bare CR, one longer than SMALL_FIELD_LIMIT, and numbers
#: that float() takes but numpy's reader does not (a digit separator, an Arabic-Indic digit)
MESSY_FIELDS = ['"', '"1e9"', '"q,uoted"', '"multi\nline"', 'a"b', "\0", "\r",
                "9" * (SMALL_FIELD_LIMIT + 1), "1_0", "\u0661"]


def csv_text_tables(header, names):
    """Bytes of a header plus random rows: name-grouped rows, shuffled or not, maybe a junk row.

    Half the tables hold numbers only in their value fields, so that they
    reach the checks behind the field parse; the others may hold
    :data:`MESSY_FIELDS`.
    """
    number = st.sampled_from(["0", "-0.0", " 1 ", "1e9", "2e9", "3", "0.25", "nan", "-inf", "1e400"])
    token = (number | st.sampled_from(["", "x", "#", *names]) | st.sampled_from(MESSY_FIELDS)
             | st.text(max_size=4))

    @st.composite
    def tables(draw):
        freqs = draw(st.lists(number | st.just(""), max_size=3))
        value = number if draw(st.booleans()) else token
        rows = [[f, name, *draw(st.lists(value, min_size=len(header) - 2,
                                         max_size=len(header) - 2))]
                for f in freqs for name in names]
        if draw(st.booleans()):
            rows = draw(st.permutations(rows))
        if draw(st.integers(0, 3)) == 0:
            rows.insert(draw(st.integers(0, len(rows))),
                        draw(st.lists(token, max_size=len(header) + 1)))
        return ("\n".join(",".join(row) for row in [header, *rows]) + "\n").encode()
    return tables()


@st.composite
def touchstone_texts(draw):
    """Bytes of an option line plus a few frames of random tokens, mostly numbers."""
    option = draw(st.sampled_from(["# HZ S RI R 50", "# GHZ S MA R 50", "# MHZ S DB R 50", "# X"]))
    number = st.sampled_from(["0", "-0.0", "1", "2", "1e9", "0.5", "nan", "inf", "-1e400", "400"])
    token = number if draw(st.booleans()) else number | st.sampled_from(["x", "!", "#"])
    size = 33 * draw(st.integers(1, 2)) + draw(st.sampled_from([0, 0, 0, 1]))
    text = option + "\n" + " ".join(draw(st.lists(token, min_size=size, max_size=size))) + "\n"
    return text.encode()


@st.composite
def csv_table_bytes(draw):
    """Bytes of a small table for :func:`read_xy`, plain in half the draws and messy in the other half.

    A plain table holds blank and ``#`` lines, rows with a field too many or
    too few, and lines ending in LF or CRLF, the last one maybe in nothing.
    A messy one may also hold :data:`MESSY_FIELDS`, lines ending in a bare
    CR and bytes that are not UTF-8.
    """
    plain = st.sampled_from(["0", "-0.0", "1e9", " 2.5", "nan", "x", "", "#", "# a", "1_0"])
    messy = draw(st.booleans())
    field = st.one_of(plain, plain, plain, st.sampled_from(MESSY_FIELDS)) if messy else plain
    header = draw(st.sampled_from([["x", "y"], ["x", "y", "z"], [" x ", "y"]] * 2
                                  + [["x", "y", "z", "z"], ["x"], ["y", "x"]]))
    width = len(header)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append("# " + ",".join(draw(st.lists(field, max_size=3))))
        else:
            n = width if kind == "row" else draw(st.integers(1, width + 2))
            lines.append(",".join(draw(st.lists(field, min_size=n, max_size=n))))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["# run: r", "", "#,#"])))
    ends = [draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * messy)) for _ in lines]
    ends[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if messy and draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def xy_table(columns, line):
    """The columns of an ``x,y`` table: ``x`` as floats, ``y`` as strings."""
    return io._floats(columns[0], line, "x"), [str(y) for y in columns[1]]


def read_xy(path):
    """``io._read_table`` on a table of a float column ``x`` and a name column ``y``."""
    return io._read_table(path, ["x", "y"], {"y": 8}, xy_table)


READERS = {
    "csv": io.ingest_spectrum,
    "s4p": io.ingest_spectrum,
    "table": read_xy,
}
TEXTS = {
    "csv": csv_text_tables(["freq_hz", "channel", "re", "im"], model.CHANNELS),
    "s4p": touchstone_texts(),
    "table": csv_table_bytes(),
}
#: The six errors ``_read_table`` raises, and the one :func:`xy_table` adds; the other
#: readers built on it add their own
TABLE_ERRORS = re.compile(
    r"\S+ is not UTF-8 text: .+"
    r"|\S+ is not a readable CSV table: .+ \(line \d+\)"
    r"|empty file \(line 1\)"
    r"|malformed header \[.*\]; expected \['x', 'y'\] \(line \d+\)"
    r"|\S+ holds no data rows after its header \(line \d+\)"
    r"|row has \d+ fields, expected \d+ \(line \d+\)"
    r"|malformed x value .+ \(line \d+\)", re.DOTALL)


def loads_or_raises_parse_error(reader, path):
    """Read ``path`` under a small field limit; a ``ParseError`` must name a line of the file.

    For the ``table`` reader the error must be one of :data:`TABLE_ERRORS`,
    and a table it returns must have a field of each column in each row.
    """
    n_lines = max(1, len(path.read_bytes().decode("utf-8", "replace").splitlines()))
    limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = READERS[reader](path)
    except runs.ParseError as exc:
        assert exc.line is None or 1 <= exc.line <= n_lines, (str(exc), n_lines)
        assert exc.line is None or str(exc).endswith(f" (line {exc.line})")
        assert reader != "table" or TABLE_ERRORS.fullmatch(str(exc)), str(exc)
        return
    finally:
        csv.field_size_limit(limit)
    if reader == "table":
        x, y = loaded
        assert 1 <= len(x) == len(y) < n_lines


class TestIngestionProperties:
    @ROUND_TRIP_SETTINGS
    @given(spoiled_spectra(), st.sampled_from(["csv", "s4p"]))
    def test_ingestion_keeps_exactly_the_finite_points(self, tmp_path_factory, drawn, fmt):
        spectrum, freqs, traces = drawn
        path = tmp_path_factory.mktemp(fmt) / f"spec.{fmt}"
        write_raw(path, fmt, freqs, traces)
        finite = np.isfinite(freqs) & np.all(np.isfinite(traces), axis=0)
        if not finite.any():
            with pytest.raises(runs.ParseError, match="no finite point"):
                io.ingest_spectrum(path)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = io.ingest_spectrum(path)
        dropped = [str(w.message) for w in caught if "dropped" in str(w.message)]
        n_bad = int((~finite).sum())
        assert dropped == ([f"dropped {n_bad} non-finite rows during ingestion"] if n_bad else [])
        expected = ChannelSpectrum(freqs[finite], traces[:, finite])
        assert_same_spectrum(back, expected)

    @ROUND_TRIP_SETTINGS
    @given(st.binary(max_size=300))
    @pytest.mark.parametrize("reader", READERS)
    def test_arbitrary_bytes_load_or_raise_parse_error(self, tmp_path_factory, reader, data):
        path = tmp_path_factory.mktemp(reader) / f"input.{reader}"
        path.write_bytes(data)
        loads_or_raises_parse_error(reader, path)

    @ROUND_TRIP_SETTINGS
    @given(st.data())
    @pytest.mark.parametrize("reader", READERS)
    def test_random_rows_load_or_raise_parse_error(self, tmp_path_factory, reader, data):
        path = tmp_path_factory.mktemp(reader) / f"input.{reader}"
        path.write_bytes(data.draw(TEXTS[reader]))
        loads_or_raises_parse_error(reader, path)


class TestReaderPaths:
    """:func:`read_xy` on one table of each messy kind: its ``x`` and ``y``, or its error and line."""

    @pytest.mark.parametrize("data, expected", [
        (b'x,y\n"1e9","q,uoted"\n', ([1e9], ["q,uoted"])),
        # a record spanning lines is numbered by its last line
        (b'x,y\nz,"multi\nline"\n', ("malformed x value 'z'", 3)),
        (b'x,y\n1,a"b\n', ([1.0], ['a"b'])),
        (b" x ,y\n1, 2 \n", ([1.0], [" 2 "])),
        (b"x,y\r1,2\r3,4", ([1.0, 3.0], ["2", "4"])),
        (b'x,y\r\n2,"a\rb"\r\n', ([2.0], ["a\rb"])),
        # an unterminated quote takes the rest of the file into one field
        (b'x,y\n1,2\n"3,4\n', ("row has 1 fields, expected 2", 3)),
        # numpy's parse has no field-size limit, so a table it reads may hold a field that
        # csv.reader refuses; the rescan of a refused table meets csv.reader's limit
        (b"x,y\n" + b"9" * (SMALL_FIELD_LIMIT + 1) + b",a\n", ([float("9" * 25)], ["a"])),
        (b"x,y\n" + b"9" * (SMALL_FIELD_LIMIT + 1) + b",a\n1\n",
         ("{path} is not a readable CSV table: field larger than field limit (24)", 2)),
        # after the header a # line is a data row
        (b"x,y\n1,2\n\n# c\n1\n", ("row has 1 fields, expected 2", 4)),
        (b"# run: r\n\ny,x\n1,2\n",
         ("malformed header ['y', 'x']; expected ['x', 'y']", 3)),
        (b"# only\n\n", ("empty file", 1)),
        (b"x,y\n1,\xff\n", ("{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                             "in position 6: invalid start byte", 2)),
        # refused on every Python version, though csv.reader takes a NUL from 3.11 on
        (b"x,y\n1,\0\n", ("{path} is not a readable CSV table: line contains NUL", 2)),
    ], ids=["quoted", "multi-line", "stray-quote", "padded-header", "bare-cr", "cr-in-quotes",
            "unterminated", "oversized", "oversized-refused", "ragged", "header", "empty", "not-utf-8", "nul"])
    def test_messy_table(self, tmp_path, data, expected):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
        try:
            outcome = read_xy(path)
            outcome = (outcome[0].tolist(), outcome[1])
        except runs.ParseError as exc:
            message, line = expected
            message = message.format(path=path)
            outcome = (str(exc), exc.line)
            expected = (message if line is None else f"{message} (line {line})", line)
        finally:
            assert csv.field_size_limit(limit) == SMALL_FIELD_LIMIT
        assert outcome == expected


def reference_table(path, header, text):
    """The reader's table rules written out with csv.reader alone: field columns and data lines.

    A file with a NUL byte is refused first, at the NUL's line.  Text is
    UTF-8, BOM optional, read a line at a time; undecodable text is named
    by its first bad byte's offset in the file and its line.  Blank records are skipped
    everywhere and ``#`` records only before the header; each data row has
    a field per column, and a field of a ``text`` column at most 63
    characters.
    """
    data = path.read_bytes()
    if b"\0" in data:
        raise runs.ParseError(f"{path} is not a readable CSV table: line contains NUL",
                              len(data[:data.index(b"\0") + 1].splitlines()))
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            records = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError:
        try:
            data.decode("utf-8")  # a BOM is UTF-8 too: positions count from the file's start
        except UnicodeDecodeError as exc:
            before = data[:exc.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise runs.ParseError(f"{path} is not UTF-8 text: {exc}", line) from None
    while records and records[0][1][0].startswith("#"):
        del records[0]
    if not records:
        raise runs.ParseError("empty file", 1)
    (header_line, found), *data = records
    found = [c.strip() for c in found]
    if found != header:
        raise runs.ParseError(f"malformed header {found!r}; expected {header}", header_line)
    if not data:
        raise runs.ParseError(f"{path} holds no data rows after its header", header_line)
    for line, row in data:
        if len(row) != len(header):
            raise runs.ParseError(f"row has {len(row)} fields, expected {len(header)}", line)
        for name, field in zip(header, row):
            if name in text and len(field) > 63:
                raise runs.ParseError(f"{name} field has {len(field)} characters, "
                                      "expected at most 63", line)
    lines, rows = zip(*data)
    return list(zip(*rows)), lines


def reference_build(header, text, build):
    """A reader that checks :func:`reference_table`'s field strings with ``build``, as the rescan does."""
    def read(path):
        columns, lines = reference_table(path, header, text)
        return build(columns, lines.__getitem__)
    return read


#: (the reader, its csv.reader reference, the bytes of every array a result holds)
READ_AGAINST_REFERENCE = {
    "csv": (io.ingest_spectrum,
            lambda path: ChannelSpectrum(*io._finite_points(
                path, *reference_build(io._CSV_HEADER, {"channel"}, io._spectrum_table)(path))),
            lambda spectrum: [spectrum.freqs.tobytes(), spectrum.traces.tobytes()]),
    "table": (read_xy, reference_build(["x", "y"], {"y"}, xy_table),
              lambda read: [read[0].tobytes(), read[1]]),
}


def outcome(read, arrays, path):
    """What reading ``path`` gives: the bytes of its arrays or its error, and every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("read", arrays(read(path)))
        except ValueError as exc:
            result = (type(exc).__name__, str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message)) for w in caught]


class TestReaderAgainstReference:
    """numpy's bulk parse reads what the csv.reader reference reads, bit for bit, and refuses the rest alike."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("reader", READ_AGAINST_REFERENCE)
    def test_reads_or_refuses_as_the_reference(self, tmp_path_factory, reader, data):
        path = tmp_path_factory.mktemp(reader) / f"input.{reader}"
        path.write_bytes(data.draw(TEXTS[reader]))
        read, reference, arrays = READ_AGAINST_REFERENCE[reader]
        assert outcome(read, arrays, path) == outcome(reference, arrays, path)


def numpy_number(text: str) -> float:
    """``text`` parsed by numpy's C reader as the one field of a one-line table."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty line reads as no data, with a warning
        values = np.loadtxt([text], dtype=float, delimiter=",", comments=None, ndmin=1)
    if len(values) != 1:
        raise ValueError(f"no number in {text!r}")
    return values[0]


class TestReaderRules:
    """Where numpy's reader takes or refuses other tables than csv.reader with float() did: one example each."""

    HEADER = "freq_hz,channel,re,im\n"

    def write(self, tmp_path, rows, header=None):
        path = tmp_path / "spec.csv"
        path.write_text("# run: r\n" + (self.HEADER if header is None else header)
                        + "".join(f"{row}\n" for row in rows), encoding="utf-8")
        return path

    def spectrum_rows(self, value="1.0"):
        return [f"{f},{ch},{value if (f, ch) == ('2e9', 'AB') else '1.0'},0.0"
                for ch in model.CHANNELS for f in ("1e9", "2e9")]

    @pytest.mark.parametrize("text", ["1", " 1 ", "-0.0", "1_0", "\u0661", "\uff11", "1e400", "-nan",
                                      "Infinity", "0x1p3", "1\u2003", "\u20031", "1 2", "", " ",
                                      "+.5", "5.", "1e", "1\x00", "nan(1)", "1\x1c", "\x1f1",
                                      "1\u2003", "\xa01", "1\x85", "1\u200b"])
    def test_number_syntax_is_numpys(self, text):
        try:
            expected = numpy_number(text)
        except ValueError:
            with pytest.raises(ValueError):
                io._number(text)
            return
        assert np.float64(io._number(text)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["digit-separator", "arabic-indic-digit"])
    def test_numbers_float_takes_but_numpy_does_not_are_malformed(self, tmp_path, value):
        # float() reads these as 10.0 and 1.0
        path = self.write(tmp_path, self.spectrum_rows(value))
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert (str(info.value), info.value.line) == (f"malformed re value {value!r} (line 8)", 8)

    def test_hash_row_after_the_header_is_a_data_row(self, tmp_path):
        # comments go before the header, where the writer puts its "# run:" line
        rows = self.spectrum_rows()
        path = self.write(tmp_path, rows[:2] + ["# a note"] + rows[2:])
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert (str(info.value), info.value.line) == ("row has 1 fields, expected 4 (line 5)", 5)

    def test_whitespace_only_line_is_a_one_field_row(self, tmp_path):
        # numpy's reader skips an empty line, not a line of spaces, as csv.reader does
        rows = self.spectrum_rows()
        path = self.write(tmp_path, rows[:2] + [" \t"] + rows[2:])
        with pytest.raises(runs.ParseError, match=r"^row has 1 fields, expected 4 \(line 5\)$"):
            io.ingest_spectrum(path)

    def test_field_beyond_csv_field_limit_is_read(self, tmp_path):
        # csv.reader refuses a field of more than 131072 characters; numpy's reader has no limit
        path = self.write(tmp_path, self.spectrum_rows("0.5" + "0" * 200_000))
        expected = np.ones((4, 2))
        expected[2, 1] = 0.5  # AB at 2e9
        assert np.array_equal(io.ingest_spectrum(path).traces.real, expected)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("name", ["AA\0", "A\0A"], ids=["ending-a-name", "inside-a-name"])
    def test_nul_is_refused_on_every_python_version(self, tmp_path, name, end):
        # numpy's strings drop a NUL that ends a field, and csv.reader takes one from 3.11 on
        rows = self.spectrum_rows()
        rows[0] = rows[0].replace("AA", name)
        path = tmp_path / "spec.csv"
        path.write_bytes(end.join(["# run: r", self.HEADER.strip(), *rows, ""]).encode())
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert (str(info.value), info.value.line) == (
            f"{path} is not a readable CSV table: line contains NUL (line 3)", 3)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["header-only", "blank-lines", "crlf-line"])
    @pytest.mark.parametrize("header, read", [
        ("freq_hz,channel,re,im\n", io.ingest_spectrum),
        ("x,y\n", read_xy),
    ], ids=["spectrum", "table"])
    def test_table_without_data_rows_names_its_header_line(self, tmp_path, header, read, body):
        # once "channel row counts differ: {'AA': 0, ...}"; numpy's warning on an empty
        # table never reaches the caller
        path = self.write(tmp_path, [], header=header + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(runs.ParseError) as info:
                read(path)
        assert (str(info.value), info.value.line) == (
            f"{path} holds no data rows after its header (line 2)", 2)
        assert caught == []

    def test_name_longer_than_its_room_is_read_whole(self, tmp_path):
        # the name column starts with room for 8 characters; a longer name is parsed again
        # with room for 64, not cut
        rows = self.spectrum_rows()
        padded = [row.replace(",AA,", ",    AA    ,") for row in rows]
        path = self.write(tmp_path, padded)
        assert_same_spectrum(io.ingest_spectrum(path), io.ingest_spectrum(self.write(tmp_path, rows)))
        # cut to its first 8 characters, this name would strip to AA
        path = self.write(tmp_path, [row.replace(",AA,", ",AA      X,") for row in rows])
        with pytest.raises(runs.ParseError, match=r"^unknown channel 'AA      X' \(line 3\)$"):
            io.ingest_spectrum(path)

    @pytest.mark.parametrize("name", ["B" * 5000, "BB" + " " * 62], ids=["long-name", "padded-name"])
    def test_text_field_of_64_characters_is_refused_at_its_line(self, tmp_path, name):
        # csv.reader and float() read these as an unknown channel and as BB
        rows = self.spectrum_rows()
        rows[3] = rows[3].replace(",BB,", f",{name},")
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(self.write(tmp_path, rows))
        assert (str(info.value), info.value.line) == (
            f"channel field has {len(name)} characters, expected at most 63 (line 6)", 6)

    def test_rescan_never_reads_a_table_numpy_refused(self, tmp_path, monkeypatch):
        # csv.reader only names the line of an error; a table it would read is still refused
        path = self.write(tmp_path, self.spectrum_rows())

        def refuse(*args):
            raise ValueError("the parse failed")

        monkeypatch.setattr(io, "_parse", refuse)
        with pytest.raises(runs.ParseError) as info:
            io.ingest_spectrum(path)
        assert str(info.value) == f"{path} is not a readable CSV table: the parse failed"


class TestReaderMemory:
    def test_spectrum_read_peaks_below_3_mb(self, tmp_path):
        # a 4,001-point spectrum is 16,004 rows: one structured array, no Python object per
        # row or field (csv.reader's rows and float() per field peaked at 8.2 MB)
        rng = np.random.default_rng(4)
        freqs = np.linspace(6.1e9, 6.2e9, 4001)
        traces = rng.standard_normal((4, freqs.size)) + 1j * rng.standard_normal((4, freqs.size))
        path = tmp_path / "meas.csv"
        io.write_spectrum(ChannelSpectrum(freqs, traces), path, run_id="0123456789abcdef")
        io.ingest_spectrum(path)  # imports and caches outside the traced read
        tracemalloc.start()
        try:
            back = io.ingest_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.traces.tobytes() == ChannelSpectrum(freqs, traces).traces.tobytes()
        assert peak < 3_000_000, f"peak {peak / 1e6:.2f} MB"

    def test_long_name_refusal_peaks_below_20_mb(self, tmp_path):
        # a name's room is capped: a 40,000-character name once had the whole table
        # parsed again into a column of that width, 16,004 x 4 x 262,144 bytes
        freqs = np.linspace(6.1e9, 6.2e9, 4001)
        path = tmp_path / "meas.csv"
        io.write_spectrum(ChannelSpectrum(freqs, np.ones((4, freqs.size), complex)), path)
        text = path.read_text().replace(",BB,", "," + "B" * 40_000 + ",", 1)
        path.write_text(text)
        line = text[:text.index("B" * 40_000)].count("\n") + 1
        tracemalloc.start()
        try:
            with pytest.raises(runs.ParseError) as info:
                io.ingest_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (str(info.value), info.value.line) == (
            f"channel field has 40000 characters, expected at most 63 (line {line})", line)
        assert peak < 20_000_000, f"peak {peak / 1e6:.2f} MB"


def traced_peak(write) -> int:
    """The peak of tracemalloc's traced memory during ``write()``, after one untraced call."""
    write()  # imports and caches outside the traced write
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """A write holds one small block of text and copies no float column whole."""

    FREQS = np.linspace(6.1e9, 6.2e9, 4001)

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_wide_table_write_peaks_below_0_3_mb(self, tmp_path, repeats):
        # 16,004 rows of 12 fields, a block of 170 rows at a time: 0.17 MB traced with distinct
        # values and 0.13 MB with repeats, under a bound of ~1.75x the larger (a per-column
        # np.unique once peaked at 1.2 and 2.4 MB)
        header, columns = wide_table(np.random.default_rng(2), repeats)
        path = tmp_path / "wide.csv"
        peak = traced_peak(lambda: io.write_columns(path, header, columns, "r"))
        assert path.read_bytes() == oracle_columns_bytes(header, columns, "r")
        assert peak < 300_000, f"peak {peak / 1e6:.2f} MB"

    def test_spectrum_write_peaks_below_1_mb(self, tmp_path):
        # 16,004 rows of 4 fields: 0.64 MB traced, under a bound of ~1.5x, most of it the 4,001
        # frequency texts and the two 16,004-entry lists of text fields (a per-column np.unique
        # once peaked at 1.5 MB)
        rng = np.random.default_rng(5)
        traces = rng.standard_normal((4, self.FREQS.size)) + 1j * rng.standard_normal((4, self.FREQS.size))
        spectrum = ChannelSpectrum(self.FREQS, traces)
        path = tmp_path / "meas.csv"
        peak = traced_peak(lambda: io.write_spectrum(spectrum, path, run_id="r"))
        assert path.read_bytes() == oracle_spectrum_bytes(spectrum, "r")
        assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"


POINT = " 0.5 0.0" * 16  # the 16 entries of one 4-port frame


class TestTouchstone:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        freqs = np.linspace(1e9, 2e9, 5)
        path = tmp_path / "cell.s4p"
        write_touchstone(path, freqs, s)
        freqs2, s2 = io.read_touchstone(path)
        assert np.array_equal(freqs2, freqs)
        assert np.array_equal(s2, s)

    def test_channel_port_map(self, tmp_path):
        # ports: 1=A-in, 2=A-out, 3=B-in, 4=B-out; channels are
        # output<-input entries of the matrix
        spectrum = sample_spectrum()
        s = spectrum_to_smatrix(spectrum)
        path = tmp_path / "cell.s4p"
        write_touchstone(path, spectrum.freqs, s)
        back = io.ingest_spectrum(path)
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

    def test_touchstone_and_cell_share_one_port_map(self):
        # channel XY runs from port X-in to port Y-out, ports in the order
        # (A-in, A-out, B-in, B-out); the cell matrix carries each channel there
        out, into = model._CHANNEL_OUT, model._CHANNEL_IN
        assert (out, into) == ([1, 3, 3, 1], [0, 2, 0, 2])
        assert model._SMATRIX_SLOTS.tolist() == [[0, 0, 3, 3], [0, 0, 3, 3], [2, 2, 1, 1], [2, 2, 1, 1]]
        cell = presets.STEADY_STATE_CELL
        s = model.cell_smatrix(cell.omega_ge, cell).entries
        t = model.cell_coefficients(cell.omega_ge, cell)
        assert np.array_equal(s[out, into], t)
        assert np.array_equal(np.diag(s), t[[0, 0, 1, 1]] - 1.0)  # reflections t_AA - 1, t_BB - 1

    def test_ma_format_and_units(self, tmp_path):
        path = tmp_path / "ma.s4p"
        entries = []
        for f_ghz in (1.0, 2.0):
            vals = " ".join("0.5 45.0" for _ in range(16))
            entries.append(f"{f_ghz} {vals}")
        path.write_text("# GHz S MA R 50\n" + "\n".join(entries) + "\n")
        freqs, s = io.read_touchstone(path)
        assert np.array_equal(freqs, [1e9, 2e9])
        assert s[0, 0, 0] == pytest.approx(0.5 * np.exp(1j * np.pi / 4))

    def test_malformed_data_raises(self, tmp_path):
        path = tmp_path / "bad.s4p"
        path.write_text("# HZ S RI R 50\n1e9 0.1 0.2 0.3\n")
        with pytest.raises(runs.ParseError):
            io.read_touchstone(path)

    @pytest.mark.parametrize("freqs", [(1e9, 1e9), (2e9, 1e9)], ids=["repeated", "decreasing"])
    def test_non_increasing_frequencies_rejected(self, tmp_path, freqs):
        path = tmp_path / "order.s4p"
        path.write_text("# HZ S RI R 50\n" + "".join(f"{f}{POINT}\n" for f in freqs))
        with pytest.raises(runs.ParseError, match="frequencies must be strictly increasing"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("kind", ["Y", "Z", "H", "G"])
    def test_non_s_parameters_rejected(self, tmp_path, kind):
        path = tmp_path / "other.s4p"
        path.write_text(f"! admittances\n# HZ {kind} RI R 50\n1e9" + " 0.5 0.0" * 16 + "\n")
        with pytest.raises(runs.ParseError, match=f"type {kind} in option line '# HZ {kind} RI R 50'.*line 2"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("option, token", [
        ("# HZ S RJ R 50", "'RJ'"),  # a misspelt value format, once read as MA
        ("# HZ S RI R 50 XX", "'XX'"),
    ], ids=["misspelt-format", "trailing-token"])
    def test_unknown_option_token_rejected(self, tmp_path, option, token):
        path = tmp_path / "opt.s4p"
        path.write_text(f"! ports 1-4\n{option}\n1e9" + " 0.5 90.0" * 16 + "\n")
        with pytest.raises(runs.ParseError, match=f"unknown touchstone option {token} "
                                                f"in option line '{option}'.*line 2"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("option, ref", [
        ("# HZ S RI R 75", "R 75"), ("# HZ S RI R", "R \\(none\\)"), ("# HZ S RI R ohm", "R OHM"),
    ], ids=["75-ohm", "missing", "not-a-number"])
    def test_reference_impedance_other_than_50_rejected(self, tmp_path, option, ref):
        path = tmp_path / "ref.s4p"
        path.write_text(f"{option}\n1e9" + " 0.5 0.0" * 16 + "\n")
        with pytest.raises(runs.ParseError, match=f"reference impedance {ref} in option line "
                                                f"'{option}'.*expected R 50.*line 1"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("option", ["# HZ S RI R 50.0", "# HZ S RI", "# hz s ri r 5e1"],
                             ids=["decimal", "default", "exponent"])
    def test_fifty_ohm_reference_accepted(self, tmp_path, option):
        path = tmp_path / "ok.s4p"
        path.write_text(f"{option}\n1e9" + " 0.5 0.0" * 16 + "\n")
        freqs, s = io.read_touchstone(path)
        assert np.array_equal(freqs, [1e9]) and np.all(s == 0.5)

    @pytest.mark.parametrize("lines, bad", [
        (["# HZ S RI R 50", "# GHZ S MA R 50", "1" + POINT], 2),
        (["# GHZ S MA R 50", "# HZ S RI R 50", "1e9" + POINT], 2),
        (["# HZ S RI R 50", "1e9" + POINT, "# GHZ S MA R 50", "2" + POINT], 3),
        (["# GHZ S MA R 50", "1" + POINT, "# HZ S RI R 50", "2e9" + POINT], 3),
        (["1e9" + POINT, "# HZ S RI R 50"], 2),
    ], ids=["hz-then-ghz", "ghz-then-hz", "hz-data-ghz", "ghz-data-hz", "data-first"])
    def test_option_line_must_be_single_and_first(self, tmp_path, lines, bad):
        # a later option line once rescaled every point, before it or after
        path = tmp_path / "twice.s4p"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(runs.ParseError, match=f"option line '{lines[bad - 1]}' must be the "
                                                f"only one and precede the data.*line {bad}"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("name, touchstone", [("cell.S4P", True), ("cell.s4p.csv", False)])
    def test_suffix_picks_the_reader(self, tmp_path, name, touchstone):
        spectrum = sample_spectrum()
        path = tmp_path / name
        if touchstone:
            write_touchstone(path, spectrum.freqs, spectrum_to_smatrix(spectrum))
        else:
            io.write_spectrum(spectrum, path)
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.s4p"
        path.write_bytes(b"\xff\xfe# HZ S RI R 50\n")
        with pytest.raises(runs.ParseError, match="utf16.s4p is not UTF-8"):
            io.ingest_spectrum(path)


def with_bom(path: Path) -> Path:
    """A copy of ``path`` that starts with a UTF-8 byte-order mark, as ``utf-8-sig`` writes."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


class TestByteOrderMark:
    @pytest.mark.parametrize("edit", [
        lambda text: text,
        lambda text: "# note\n" + text,
        lambda text: text.replace("freq_hz", '"freq_hz"', 1),  # a quoted header name
    ], ids=["plain", "comment-first", "quoted"])
    def test_spectrum(self, tmp_path, edit):
        path = tmp_path / "spec.csv"
        io.write_spectrum(sample_spectrum(), path)
        path.write_text(edit(path.read_text()))
        assert_same_spectrum(io.ingest_spectrum(with_bom(path)), io.ingest_spectrum(path))

    def test_touchstone(self, tmp_path):
        spectrum = sample_spectrum()
        path = tmp_path / "cell.s4p"
        write_touchstone(path, spectrum.freqs, spectrum_to_smatrix(spectrum))
        assert_same_spectrum(io.ingest_spectrum(with_bom(path)), io.ingest_spectrum(path))

    def test_config(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_a_hz = 2.0e6\n\n[run]\nout = work\n")
        assert runs.load_config(with_bom(path)) == runs.load_config(path)


def quote_all(path: Path) -> Path:
    """A copy of a CSV table with every field quoted, as some spreadsheet exports write it."""
    copy = path.with_name("quoted-" + path.name)
    with path.open(newline="") as src, copy.open("w", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
    return copy


class TestQuotedExport:
    def test_spectrum(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.choice([0.0, -0.0, 1.5, -2.25e-7], size=(2, len(model.CHANNELS), FREQS.size))
        spectrum = ChannelSpectrum(FREQS, values[0] + 1j * values[1])
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path)
        quoted = quote_all(path)
        assert quoted.read_text().startswith('"freq_hz","channel","re","im"\n')
        back = io.ingest_spectrum(quoted)
        assert_same_spectrum(back, io.ingest_spectrum(path))
        assert back.traces.tobytes() == spectrum.traces.tobytes()


def mostly(usual, other):
    """``usual`` three times in four, else ``other``."""
    return st.one_of(usual, usual, usual, other)


@st.composite
def config_texts(draw):
    """INI text of random sections and ``key = value`` lines, mostly schema names and types."""
    lines = []
    sections = mostly(st.sampled_from([*runs.CONFIG_SCHEMA, "DEFAULT"]), st.text(max_size=8))
    for section in draw(st.lists(sections, max_size=3, unique=True)):
        schema = runs.CONFIG_SCHEMA.get(section, {"key": 0.0})
        lines.append(f"[{section}]")
        keys = mostly(st.sampled_from(sorted(schema)), st.text(max_size=8))
        for key in draw(st.lists(keys, max_size=4, unique=True)):
            default = schema.get(key, 0.0)
            typed = (st.text(max_size=12) if isinstance(default, str)
                     else st.integers().map(str) if isinstance(default, int)
                     else st.floats().map(repr))
            lines.append(f"{key} = {draw(mostly(typed, st.text(max_size=12)))}")
    return "\n".join(lines).encode()


@st.composite
def config_values(draw):
    """A value for every :data:`~routercell.runs.CONFIG_SCHEMA` key, drawn by its default's type.

    Floats are finite; strings are one line with no surrounding whitespace.
    """
    line = st.text(st.characters(exclude_characters="\r\n")).filter(lambda s: s == s.strip())
    typed = {str: line, int: st.integers(), float: FINITE}
    return {section: {key: draw(typed[type(default)]) for key, default in values.items()}
            for section, values in runs.CONFIG_SCHEMA.items()}


class TestConfig:
    def test_defaults_build_valid_models(self):
        config = runs.load_config(None)
        cell = presets.cell_params_from_config(config)
        assert cell.gamma_a == pytest.approx(TWO_PI * 1.82e6)
        flux = presets.flux_model_from_config(config)
        assert flux.curvature == pytest.approx(-TWO_PI * 352e6)

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_a_hz = 2.0e6\n\n[run]\nseed = 42\n")
        config = runs.load_config(path)
        assert config["model"]["gamma_a_hz"] == 2.0e6
        assert config["model"]["gamma_b_hz"] == 2.31e6
        assert config["run"]["seed"] == 42

    def test_unknown_key_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_c_hz = 1e6\n")
        with pytest.raises(runs.ConfigError, match="gamma_c_hz"):
            runs.load_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(runs.ConfigError, match="mystery"):
            runs.load_config(path)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(runs.ConfigError, match="cannot read config file .*missing.ini"):
            runs.load_config(tmp_path / "missing.ini")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbogus = 1\n",  # once loaded with no error
        "[DEFAULT]\nsigma = 0.5\n[noise]\n",  # once set sigma = 0.5
        "[DEFAULT]\nbogus = 1\n[model]\ngamma_a_hz = 1e6\n",  # once blamed [model]
    ], ids=["alone", "copied-into-noise", "blamed-on-model"])
    def test_default_section_is_fatal(self, tmp_path, text):
        path = tmp_path / "conf.ini"
        path.write_text(text)
        with pytest.raises(runs.ConfigError, match=r"unknown config section \[DEFAULT\]"):
            runs.load_config(path)

    def test_utf8_comment_loads_under_c_locale(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("# Kopplung \u03b3a\n[model]\ngamma_a_hz = 2.0e6\n", encoding="utf-8")
        src = str(Path(runs.__file__).resolve().parents[1])
        # under the C locale Python turns UTF-8 mode on by itself; off, the locale is ASCII
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=src)
        code = ("import sys; from routercell import runs; "
                "print(runs.load_config(sys.argv[1])['model']['gamma_a_hz'])")
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "2000000.0\n"

    @pytest.mark.parametrize("value", ["/tmp/run_100%", "100%%", "%(seed)s"])
    def test_percent_is_taken_literally(self, tmp_path, value):
        path = tmp_path / "conf.ini"
        path.write_text(f"[run]\nout = {value}\n")
        assert runs.load_config(path)["run"]["out"] == value

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(config_values())
    def test_written_values_load_back(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("config") / "conf.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(
            f"{key} = {value if isinstance(value, str) else repr(value)}\n"
            for key, value in values.items()) for section, values in config.items()),
            encoding="utf-8")
        assert runs.load_config(path) == config

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[grid]\nn_points = many\n")
        with pytest.raises(runs.ConfigError, match="integer"):
            runs.load_config(path)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(mostly(config_texts(), st.binary()))
    def test_any_bytes_load_or_raise_config_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("config") / "conf.ini"
        path.write_bytes(data)
        try:
            config = runs.load_config(path)
        except runs.ConfigError:
            return
        assert config.keys() == runs.CONFIG_SCHEMA.keys()
        for section, values in config.items():
            assert values.keys() == runs.CONFIG_SCHEMA[section].keys()
            for key, value in values.items():
                assert type(value) is type(runs.CONFIG_SCHEMA[section][key])


class TestRunRecord:
    def test_save_and_load(self, tmp_path):
        record = runs.RunRecord(
            run_id="20260101T000000-abcd1234", subcommand="simulate",
            tool_version=runs.TOOL_VERSION, seed=7, config={"run": {"seed": 7}},
            input_digests={}, outputs=["spectrum.csv"],
        )
        runs.save_run_record(record, tmp_path)
        back = runs.RunRecord(**json.loads((tmp_path / "run.json").read_text()))
        assert back == record

    def test_tool_version_is_the_project_version(self):
        tomllib = pytest.importorskip("tomllib")
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == runs.TOOL_VERSION

    def test_run_id_depends_on_config_and_seed(self):
        base = runs.load_config(None)
        a = runs.new_run_id(base, 1, "simulate", []).split("-")[1]
        b = runs.new_run_id(base, 2, "simulate", []).split("-")[1]
        c = runs.new_run_id(base, 1, "synth", []).split("-")[1]
        d = runs.new_run_id(base, 1, "simulate", ["0123abcd"]).split("-")[1]
        assert len({a, b, c, d}) == 4

    def test_file_digest_changes_with_content(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("one")
        d1 = runs.file_digest(p)
        p.write_text("two")
        assert runs.file_digest(p) != d1
