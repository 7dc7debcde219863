"""File formats: CSV round trips, touchstone ingestion, config validation."""

import csv
import json
import math
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from routercell import io, model, network
from routercell.calibration import ChannelSpectrum

TWO_PI = 2.0 * math.pi
FREQS = np.linspace(6.14e9, 6.19e9, 37)


def sample_spectrum(**meta):
    rng = np.random.default_rng(1)
    traces = [
        rng.standard_normal(FREQS.size) + 1j * rng.standard_normal(FREQS.size)
        for _ in model.CHANNELS
    ]
    return ChannelSpectrum(FREQS, traces, **meta)


class TestCsvRoundTrip:
    def test_lossless_identity(self, tmp_path):
        spectrum = sample_spectrum()
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path)
        back = io.ingest_spectrum(path)
        assert np.array_equal(back.freqs, spectrum.freqs)
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

    def test_metadata_round_trip(self, tmp_path):
        spectrum = sample_spectrum(bias_ma=0.25, power_dbm=-140.0, temp_k=0.01)
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path, run_id="test-run")
        back = io.ingest_spectrum(path)
        assert back.bias_ma == 0.25
        assert back.power_dbm == -140.0
        assert back.temp_k == 0.01
        assert path.read_text().startswith("# run: test-run\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.ingest_spectrum(tmp_path / "nope.csv")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def spectra(draw, with_meta=True):
    """Finite four-channel spectra on strictly increasing grids, metadata optional."""
    freqs = draw(st.lists(FINITE, min_size=1, max_size=12, unique=True).map(sorted))
    traces = draw(arrays(complex, (len(model.CHANNELS), len(freqs)),
                         elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    meta = {}
    if with_meta:
        meta = {key: draw(st.none() | FINITE) for key in ("bias_ma", "power_dbm", "temp_k")}
    return ChannelSpectrum(np.array(freqs), traces, **meta)


def assert_same_spectrum(back, spectrum):
    assert back.freqs.tobytes() == spectrum.freqs.tobytes()
    assert back.traces.tobytes() == spectrum.traces.tobytes()
    for key in ("bias_ma", "power_dbm", "temp_k"):
        assert getattr(back, key) == getattr(spectrum, key)


class TestRoundTripProperties:
    @ROUND_TRIP_SETTINGS
    @given(spectra())
    def test_csv_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("csv") / "spec.csv"
        io.write_spectrum(spectrum, path)
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)

    @ROUND_TRIP_SETTINGS
    @given(spectra(with_meta=False))
    def test_touchstone_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("s4p") / "spec.s4p"
        io.write_touchstone(path, spectrum.freqs, io.spectrum_to_smatrix(spectrum))
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)


SIGNED = st.sampled_from([0.0, -0.0]) | FINITE
RUN_IDS = st.sampled_from([None, "r", "20261018T030000-0123abcd"])


@st.composite
def signed_spectra(draw):
    """Spectra whose values and metadata include signed zeros."""
    freqs = draw(st.lists(SIGNED, min_size=1, max_size=8, unique=True).map(sorted))
    traces = draw(arrays(complex, (len(model.CHANNELS), len(freqs)),
                         elements=st.builds(complex, SIGNED, SIGNED)))
    meta = {key: draw(st.none() | SIGNED) for key in ("bias_ma", "power_dbm", "temp_k")}
    return ChannelSpectrum(np.array(freqs), traces, **meta)


@st.composite
def line_models(draw):
    """(lines, freqs): frequency-independent, or per-frequency with some constant lines."""
    n = draw(st.none() | st.integers(1, 6))
    entries = st.builds(complex, SIGNED, SIGNED)
    shapes = [(2, 2)] * 4
    if n is not None:
        # per-frequency data in at least one line
        shapes = [(n, 2, 2)] + [draw(st.sampled_from([(n, 2, 2), (2, 2)])) for _ in range(3)]
        shapes = draw(st.permutations(shapes))
    matrices = [draw(arrays(complex, shape, elements=entries)) for shape in shapes]
    if n is None:
        return network.LineModel(*matrices, isolation=draw(entries)), None
    isolation = draw(entries | arrays(complex, (n,), elements=entries))
    freqs = np.array(draw(st.lists(SIGNED, min_size=n, max_size=n)))
    return network.LineModel(*matrices, isolation=isolation), freqs


def oracle_spectrum_bytes(spectrum, run_id):
    """``write_spectrum`` row by row through ``csv.writer``."""
    buf = StringIO(newline="")
    if run_id is not None:
        buf.write(f"# run: {run_id}\n")
    writer = csv.writer(buf)
    meta = [spectrum.bias_ma, spectrum.power_dbm, spectrum.temp_k]
    include_meta = any(v is not None for v in meta)
    writer.writerow(["freq_hz", "channel", "re", "im"]
                    + (["bias_ma", "power_dbm", "temp_k"] if include_meta else []))
    meta = ["" if v is None else repr(v) for v in meta]
    for ch, trace in zip(model.CHANNELS, spectrum.traces):
        for f, v in zip(spectrum.freqs, trace):
            row = [repr(float(f)), ch, repr(float(v.real)), repr(float(v.imag))]
            writer.writerow(row + (meta if include_meta else []))
    return buf.getvalue().encode()


def oracle_line_model_bytes(lines, freqs, run_id):
    """``write_line_model`` point by point through ``LineModel.at`` and ``csv.writer``."""
    buf = StringIO(newline="")
    if run_id is not None:
        buf.write(f"# run: {run_id}\n")
    writer = csv.writer(buf)
    writer.writerow(["freq_hz", "element", "s11_re", "s11_im", "s12_re", "s12_im",
                     "s21_re", "s21_im", "s22_re", "s22_im", "iso_re", "iso_im"])
    n = 1 if freqs is None else len(freqs)
    iso = np.broadcast_to(np.asarray(lines.isolation, dtype=complex), (n,))
    for i in range(n):
        point = lines if freqs is None else lines.at(i)
        for name, m in zip(("in_a", "out_a", "in_b", "out_b"), point.matrices):
            row = ["" if freqs is None else repr(float(freqs[i])), name]
            for v in (*m.ravel(), iso[i]):
                row += [repr(float(v.real)), repr(float(v.imag))]
            writer.writerow(row)
    return buf.getvalue().encode()


class TestWriterBytes:
    """The columnar writers produce exactly the bytes of a row-wise ``csv.writer``."""

    @ROUND_TRIP_SETTINGS
    @given(signed_spectra(), RUN_IDS)
    def test_write_spectrum_matches_csv_writer(self, tmp_path_factory, spectrum, run_id):
        path = tmp_path_factory.mktemp("csv") / "spec.csv"
        io.write_spectrum(spectrum, path, run_id=run_id)
        assert path.read_bytes() == oracle_spectrum_bytes(spectrum, run_id)

    @ROUND_TRIP_SETTINGS
    @given(line_models(), RUN_IDS)
    def test_write_line_model_matches_csv_writer(self, tmp_path_factory, drawn, run_id):
        lines, freqs = drawn
        path = tmp_path_factory.mktemp("lines") / "lines.csv"
        io.write_line_model(lines, path, freqs=freqs, run_id=run_id)
        assert path.read_bytes() == oracle_line_model_bytes(lines, freqs, run_id)

    @pytest.mark.parametrize("write", [
        lambda path, run_id: io.write_spectrum(sample_spectrum(), path, run_id=run_id),
        lambda path, run_id: io.write_line_model(network.ideal_lines(), path, run_id=run_id),
        lambda path, run_id: io.write_columns(path, ["x"], [np.ones(2)], run_id),
    ], ids=["spectrum", "line-model", "columns"])
    @pytest.mark.parametrize("run_id", ["a\nfreq_hz,channel,re,im", "x\u2028y"],
                             ids=["newline", "line-separator"])
    def test_unprintable_run_id_is_refused_before_writing(self, tmp_path, write, run_id):
        # a newline once ended the "# run:" comment and put a row of its own in the table
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"run id {re.escape(repr(run_id))} is not printable"):
            write(path, run_id)
        assert not path.exists()


class TestCsvErrors:
    HEADER = "freq_hz,channel,re,im\n"

    def write(self, tmp_path, body, header=None):
        path = tmp_path / "bad.csv"
        path.write_text((self.HEADER if header is None else header) + body)
        return path

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "", header="frequency,ch,re,im\n")
        with pytest.raises(io.ParseError, match="header"):
            io.ingest_spectrum(path)

    def test_duplicate_frequency_names_line(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (1e9, 1e9, 2e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="line 3"):
            io.ingest_spectrum(path)

    def test_non_monotone_frequency(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (2e9, 1e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="non-monotone"):
            io.ingest_spectrum(path)

    def test_channel_count_mismatch(self, tmp_path):
        rows = "1e9,AA,1.0,0.0\n2e9,AA,1.0,0.0\n1e9,BB,1.0,0.0\n"
        rows += "1e9,AB,1.0,0.0\n2e9,AB,1.0,0.0\n1e9,BA,1.0,0.0\n2e9,BA,1.0,0.0\n"
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="row counts"):
            io.ingest_spectrum(path)

    def test_unknown_channel_names_line(self, tmp_path):
        path = self.write(tmp_path, "1e9,XX,1.0,0.0\n")
        with pytest.raises(io.ParseError, match="line 2"):
            io.ingest_spectrum(path)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + self.HEADER.encode())
        with pytest.raises(io.ParseError, match="utf16.csv is not UTF-8"):
            io.ingest_spectrum(path)

    def test_non_finite_rows_dropped_with_warning(self, tmp_path):
        rows = []
        for ch in model.CHANNELS:
            rows.append(f"1e9,{ch},1.0,0.0")
            rows.append(f"2e9,{ch},{'nan' if ch == 'BB' else '1.0'},0.0")
            rows.append(f"3e9,{ch},1.0,0.0")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            back = io.ingest_spectrum(path)
        assert len(back) == 2
        assert np.array_equal(back.freqs, [1e9, 3e9])

    @pytest.mark.parametrize("fields, line", [
        (["0.1", "0.2", "0.3", "0.4"], 3),
        (["", "0.25", "", "-0.25"], 5),
        (["0.0", "-0.0", "0.0", "0.0"], 3),  # a sign is a different value
    ], ids=["all-differ", "empty-skipped", "signed-zero"])
    def test_disagreeing_metadata_names_column_and_line(self, tmp_path, fields, line):
        rows = "".join(f"1e9,{ch},1.0,0.0,{v}\n" for ch, v in zip(model.CHANNELS, fields))
        path = self.write(tmp_path, rows, header="freq_hz,channel,re,im,bias_ma\n")
        with pytest.raises(io.ParseError, match=f"bias_ma value '{fields[line - 2]}' "
                                                f"differs.*line {line}"):
            io.ingest_spectrum(path)

    def test_agreeing_metadata_spellings_load(self, tmp_path):
        rows = "".join(f"1e9,{ch},1.0,0.0,{v}\n"
                       for ch, v in zip(model.CHANNELS, ["", "0.1", " 1e-1", "0.10"]))
        path = self.write(tmp_path, rows, header="freq_hz,channel,re,im,bias_ma\n")
        assert io.ingest_spectrum(path).bias_ma == 0.1


def write_raw(path, fmt, freqs, traces, meta=None):
    """Write a spectrum that may hold non-finite values, as CSV or s4p."""
    if fmt == "s4p":
        s = np.zeros((freqs.size, 4, 4), dtype=complex)
        s[:, io._TOUCHSTONE_OUT, io._TOUCHSTONE_IN] = traces.T
        io.write_touchstone(path, freqs, s)
        return
    meta = meta or {}
    rows = traces.size
    io.write_columns(
        path, ["freq_hz", "channel", "re", "im", *meta],
        [np.tile(freqs, 4), [ch for ch in model.CHANNELS for _ in freqs],
         traces.real, traces.imag, *(["" if v is None else repr(v)] * rows for v in meta.values())])


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
        with pytest.raises(io.ParseError, match=f"spec.{fmt} holds no finite point"):
            io.ingest_spectrum(path)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def spoiled_spectra(draw, with_meta=True):
    """(spectrum, freqs, traces): a drawn spectrum with some points made non-finite.

    A spoiled point has a non-finite frequency (all four channel rows) or a
    single non-finite real or imaginary part.
    """
    spectrum = draw(spectra(with_meta))
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


def csv_text_tables(header, names):
    """Text of a header plus random rows: name-grouped rows, shuffled or not, maybe a junk row.

    Half the tables hold numbers only in their value fields, so that they
    reach the checks behind the field parse.
    """
    number = st.sampled_from(["0", "-0.0", " 1 ", "1e9", "2e9", "3", "0.25", "nan", "-inf", "1e400"])
    token = number | st.sampled_from(["", "x", "#", '"', *names]) | st.text(max_size=4)

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
        return "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    return tables()


@st.composite
def touchstone_texts(draw):
    """Text of an option line plus a few frames of random tokens, mostly numbers."""
    option = draw(st.sampled_from(["# HZ S RI R 50", "# GHZ S MA R 50", "# MHZ S DB R 50", "# X"]))
    number = st.sampled_from(["0", "-0.0", "1", "2", "1e9", "0.5", "nan", "inf", "-1e400", "400"])
    token = number if draw(st.booleans()) else number | st.sampled_from(["x", "!", "#"])
    size = 33 * draw(st.integers(1, 2)) + draw(st.sampled_from([0, 0, 0, 1]))
    return option + "\n" + " ".join(draw(st.lists(token, min_size=size, max_size=size))) + "\n"


READERS = {
    "csv": io.ingest_spectrum,
    "s4p": io.ingest_spectrum,
    "lines": io.read_line_model,
}
TEXTS = {
    "csv": csv_text_tables(["freq_hz", "channel", "re", "im", "bias_ma"], model.CHANNELS),
    "s4p": touchstone_texts(),
    "lines": csv_text_tables(io._LINE_HEADER, io._LINE_ELEMENTS),
}


def loads_or_raises_parse_error(reader, path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            READERS[reader](path)
        except io.ParseError:
            pass


class TestIngestionProperties:
    @ROUND_TRIP_SETTINGS
    @given(spoiled_spectra(), st.sampled_from(["csv", "s4p"]))
    def test_ingestion_keeps_exactly_the_finite_points(self, tmp_path_factory, drawn, fmt):
        spectrum, freqs, traces = drawn
        meta = {} if fmt == "s4p" else {key: getattr(spectrum, key)
                                       for key in ("bias_ma", "power_dbm", "temp_k")}
        path = tmp_path_factory.mktemp(fmt) / f"spec.{fmt}"
        write_raw(path, fmt, freqs, traces, meta)
        finite = np.isfinite(freqs) & np.all(np.isfinite(traces), axis=0)
        if not finite.any():
            with pytest.raises(io.ParseError, match="no finite point"):
                io.ingest_spectrum(path)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = io.ingest_spectrum(path)
        dropped = [str(w.message) for w in caught if "dropped" in str(w.message)]
        n_bad = int((~finite).sum())
        assert dropped == ([f"dropped {n_bad} non-finite rows during ingestion"] if n_bad else [])
        expected = ChannelSpectrum(freqs[finite], traces[:, finite], **meta)
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
        path.write_text(data.draw(TEXTS[reader]), encoding="utf-8")
        loads_or_raises_parse_error(reader, path)


POINT = " 0.5 0.0" * 16  # the 16 entries of one 4-port frame


class TestTouchstone:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        freqs = np.linspace(1e9, 2e9, 5)
        path = tmp_path / "cell.s4p"
        io.write_touchstone(path, freqs, s)
        freqs2, s2 = io.read_touchstone(path)
        assert np.array_equal(freqs2, freqs)
        assert np.array_equal(s2, s)

    def test_channel_port_map(self, tmp_path):
        # ports: 1=A-in, 2=A-out, 3=B-in, 4=B-out; channels are
        # output<-input entries of the matrix
        spectrum = sample_spectrum()
        s = io.spectrum_to_smatrix(spectrum)
        path = tmp_path / "cell.s4p"
        io.write_touchstone(path, spectrum.freqs, s)
        back = io.ingest_spectrum(path)
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

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
        with pytest.raises(io.ParseError):
            io.read_touchstone(path)

    @pytest.mark.parametrize("freqs", [(1e9, 1e9), (2e9, 1e9)], ids=["repeated", "decreasing"])
    def test_non_increasing_frequencies_rejected(self, tmp_path, freqs):
        path = tmp_path / "order.s4p"
        path.write_text("# HZ S RI R 50\n" + "".join(f"{f}{POINT}\n" for f in freqs))
        with pytest.raises(io.ParseError, match="frequencies must be strictly increasing"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("kind", ["Y", "Z", "H", "G"])
    def test_non_s_parameters_rejected(self, tmp_path, kind):
        path = tmp_path / "other.s4p"
        path.write_text(f"! admittances\n# HZ {kind} RI R 50\n1e9" + " 0.5 0.0" * 16 + "\n")
        with pytest.raises(io.ParseError, match=f"type {kind} in option line '# HZ {kind} RI R 50'.*line 2"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("option, token", [
        ("# HZ S RJ R 50", "'RJ'"),  # a misspelt value format, once read as MA
        ("# HZ S RI R 50 XX", "'XX'"),
    ], ids=["misspelt-format", "trailing-token"])
    def test_unknown_option_token_rejected(self, tmp_path, option, token):
        path = tmp_path / "opt.s4p"
        path.write_text(f"! ports 1-4\n{option}\n1e9" + " 0.5 90.0" * 16 + "\n")
        with pytest.raises(io.ParseError, match=f"unknown touchstone option {token} "
                                                f"in option line '{option}'.*line 2"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("option, ref", [
        ("# HZ S RI R 75", "R 75"), ("# HZ S RI R", "R \\(none\\)"), ("# HZ S RI R ohm", "R OHM"),
    ], ids=["75-ohm", "missing", "not-a-number"])
    def test_reference_impedance_other_than_50_rejected(self, tmp_path, option, ref):
        path = tmp_path / "ref.s4p"
        path.write_text(f"{option}\n1e9" + " 0.5 0.0" * 16 + "\n")
        with pytest.raises(io.ParseError, match=f"reference impedance {ref} in option line "
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
        with pytest.raises(io.ParseError, match=f"option line '{lines[bad - 1]}' must be the "
                                                f"only one and precede the data.*line {bad}"):
            io.read_touchstone(path)

    @pytest.mark.parametrize("name, touchstone", [("cell.S4P", True), ("cell.s4p.csv", False)])
    def test_suffix_picks_the_reader(self, tmp_path, name, touchstone):
        spectrum = sample_spectrum()
        path = tmp_path / name
        if touchstone:
            io.write_touchstone(path, spectrum.freqs, io.spectrum_to_smatrix(spectrum))
        else:
            io.write_spectrum(spectrum, path)
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.s4p"
        path.write_bytes(b"\xff\xfe# HZ S RI R 50\n")
        with pytest.raises(io.ParseError, match="utf16.s4p is not UTF-8"):
            io.ingest_spectrum(path)


def mostly(usual, other):
    """``usual`` three times in four, else ``other``."""
    return st.one_of(usual, usual, usual, other)


@st.composite
def config_texts(draw):
    """INI text of random sections and ``key = value`` lines, mostly schema names and types."""
    lines = []
    sections = mostly(st.sampled_from([*io.CONFIG_SCHEMA, "DEFAULT"]), st.text(max_size=8))
    for section in draw(st.lists(sections, max_size=3, unique=True)):
        schema = io.CONFIG_SCHEMA.get(section, {"key": 0.0})
        lines.append(f"[{section}]")
        keys = mostly(st.sampled_from(sorted(schema)), st.text(max_size=8))
        for key in draw(st.lists(keys, max_size=4, unique=True)):
            default = schema.get(key, 0.0)
            typed = (st.text(max_size=12) if isinstance(default, str)
                     else st.integers().map(str) if isinstance(default, int)
                     else st.floats().map(repr))
            lines.append(f"{key} = {draw(mostly(typed, st.text(max_size=12)))}")
    return "\n".join(lines).encode()


class TestConfig:
    def test_defaults_build_valid_models(self):
        config = io.load_config(None)
        cell = io.cell_params_from_config(config)
        assert cell.gamma_a == pytest.approx(TWO_PI * 1.82e6)
        flux = io.flux_model_from_config(config)
        assert flux.curvature == pytest.approx(-TWO_PI * 352e6)

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_a_hz = 2.0e6\n\n[run]\nseed = 42\n")
        config = io.load_config(path)
        assert config["model"]["gamma_a_hz"] == 2.0e6
        assert config["model"]["gamma_b_hz"] == 2.31e6
        assert config["run"]["seed"] == 42

    def test_unknown_key_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_c_hz = 1e6\n")
        with pytest.raises(io.ConfigError, match="gamma_c_hz"):
            io.load_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(io.ConfigError, match="mystery"):
            io.load_config(path)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(io.ConfigError, match="cannot read config file .*missing.ini"):
            io.load_config(tmp_path / "missing.ini")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbogus = 1\n",  # once loaded with no error
        "[DEFAULT]\nsigma = 0.5\n[noise]\n",  # once set sigma = 0.5
        "[DEFAULT]\nbogus = 1\n[model]\ngamma_a_hz = 1e6\n",  # once blamed [model]
    ], ids=["alone", "copied-into-noise", "blamed-on-model"])
    def test_default_section_is_fatal(self, tmp_path, text):
        path = tmp_path / "conf.ini"
        path.write_text(text)
        with pytest.raises(io.ConfigError, match=r"unknown config section \[DEFAULT\]"):
            io.load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[grid]\nn_points = many\n")
        with pytest.raises(io.ConfigError, match="integer"):
            io.load_config(path)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(mostly(config_texts(), st.binary()))
    def test_any_bytes_load_or_raise_config_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("config") / "conf.ini"
        path.write_bytes(data)
        try:
            config = io.load_config(path)
        except io.ConfigError:
            return
        assert config.keys() == io.CONFIG_SCHEMA.keys()
        for section, values in config.items():
            assert values.keys() == io.CONFIG_SCHEMA[section].keys()
            for key, value in values.items():
                assert type(value) is type(io.CONFIG_SCHEMA[section][key])


class TestRunRecord:
    def test_save_and_load(self, tmp_path):
        record = io.RunRecord(
            run_id="20260101T000000-abcd1234", subcommand="simulate",
            tool_version=io.TOOL_VERSION, seed=7, config={"run": {"seed": 7}},
            input_digests={}, outputs=["spectrum.csv"],
        )
        io.save_run_record(record, tmp_path)
        back = io.RunRecord(**json.loads((tmp_path / "run.json").read_text()))
        assert back == record

    def test_tool_version_is_the_project_version(self):
        tomllib = pytest.importorskip("tomllib")
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == io.TOOL_VERSION

    def test_run_id_depends_on_config_and_seed(self):
        base = io.load_config(None)
        a = io.new_run_id(base, 1, "simulate").split("-")[1]
        b = io.new_run_id(base, 2, "simulate").split("-")[1]
        c = io.new_run_id(base, 1, "synth").split("-")[1]
        assert a != b and a != c

    def test_file_digest_changes_with_content(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("one")
        d1 = io.file_digest(p)
        p.write_text("two")
        assert io.file_digest(p) != d1


class TestLineModelFile:
    def test_constant_lines_round_trip(self, tmp_path):
        from routercell import synth
        lines = synth.gen_lines(synth.LineSpec(jitter_db=0.7), seed=6)
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path)
        back, freqs = io.read_line_model(path)
        assert freqs is None
        for a, b in zip(back.matrices, lines.matrices):
            assert np.array_equal(a, b)
        assert back.isolation == lines.isolation

    def test_per_frequency_lines_round_trip(self, tmp_path):
        from routercell import synth
        freqs = np.linspace(6.1e9, 6.2e9, 9)
        lines = synth.gen_lines(synth.LineSpec(ripple_db=0.4), seed=7, freqs=freqs)
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path, freqs=freqs)
        back, freqs2 = io.read_line_model(path)
        assert np.array_equal(freqs2, freqs)
        assert back.n_points == 9
        for a, b in zip(back.matrices, lines.matrices):
            assert np.array_equal(np.broadcast_to(a, b.shape), np.broadcast_to(b, a.shape))

    @ROUND_TRIP_SETTINGS
    @given(line_models())
    def test_line_model_round_trip_is_exact(self, tmp_path_factory, drawn):
        lines, freqs = drawn
        path = tmp_path_factory.mktemp("lines") / "lines.csv"
        io.write_line_model(lines, path, freqs=freqs)
        back, freqs_back = io.read_line_model(path)
        if freqs is None:
            assert freqs_back is None
        else:
            assert freqs_back.tobytes() == freqs.tobytes()
        n = 1 if freqs is None else len(freqs)
        for a, b in zip(back.matrices + (back.isolation,), lines.matrices + (lines.isolation,)):
            shape = (n, 2, 2) if np.ndim(b) >= 2 else (n,)
            a = np.broadcast_to(np.asarray(a, dtype=complex), shape)
            assert a.tobytes() == np.broadcast_to(np.asarray(b, dtype=complex), shape).tobytes()

    def test_malformed_element_rejected(self, tmp_path):
        path = tmp_path / "lines.csv"
        header = ",".join(["freq_hz", "element"] + [f"s{i}{j}_{p}" for i in (1, 2)
                          for j in (1, 2) for p in ("re", "im")] + ["iso_re", "iso_im"])
        path.write_text(header + "\n" + ",bogus" + ",0.0" * 10 + "\n")
        with pytest.raises(io.ParseError, match="bogus"):
            io.read_line_model(path)

    def write_per_frequency(self, tmp_path):
        from routercell import synth
        freqs = np.linspace(6.1e9, 6.2e9, 3)
        lines = synth.gen_lines(synth.LineSpec(ripple_db=0.4), seed=7, freqs=freqs)
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path, freqs=freqs)
        return path, path.read_text().splitlines()

    def rewrite(self, path, rows, line, column, value):
        fields = rows[line - 1].split(",")
        fields[column] = value
        rows[line - 1] = ",".join(fields)
        path.write_text("\n".join(rows) + "\n")

    def test_element_frequencies_must_agree(self, tmp_path):
        path, rows = self.write_per_frequency(tmp_path)
        self.rewrite(path, rows, 3, 0, "7e9")  # out_a of the first point
        with pytest.raises(io.ParseError, match="out_a differs from element in_a in freq_hz.*line 3"):
            io.read_line_model(path)

    def test_isolation_must_agree_within_a_point(self, tmp_path):
        path, rows = self.write_per_frequency(tmp_path)
        self.rewrite(path, rows, 8, 11, "0.5")  # iso_im of in_b at the second point
        with pytest.raises(io.ParseError, match="in_b differs from element in_a in iso_im.*line 8"):
            io.read_line_model(path)

    @pytest.mark.parametrize("column, value", [(2, "nan"), (11, "inf"), (0, "nan")],
                             ids=["s11-nan", "iso-inf", "freq-nan"])
    def test_non_finite_value_names_line(self, tmp_path, column, value):
        path, rows = self.write_per_frequency(tmp_path)
        for line in range(6, 10):  # all rows of the second point
            self.rewrite(path, rows, line, column, value)
        with pytest.raises(io.ParseError, match="non-finite.*line 6"):
            io.read_line_model(path)

    def test_non_finite_value_is_refused_before_writing(self, tmp_path):
        # what the reader refuses must not be constructed or written
        e = network.ideal_lines().s_in_a
        with pytest.raises(ValueError, match="isolation must be finite"):
            network.LineModel(e, e, e, e, isolation=math.nan)
        lines = network.LineModel(*(np.stack([e, e]),) * 4)
        with pytest.raises(ValueError, match="frequencies must be finite"):
            io.write_line_model(lines, tmp_path / "lines.csv", freqs=[1.0, math.inf])

    @pytest.mark.parametrize("freqs", [None, [1.0, 2.0, 3.0]], ids=["none", "too-long"])
    def test_per_frequency_lines_need_matching_freqs(self, tmp_path, freqs):
        e = network.ideal_lines().s_in_a
        lines = network.LineModel(*(np.stack([e, e]),) * 4)
        with pytest.raises(ValueError, match="per-frequency lines need a matching freqs array"):
            io.write_line_model(lines, tmp_path / "lines.csv", freqs=freqs)
        assert not (tmp_path / "lines.csv").exists()

    def test_blank_frequencies_with_several_points_rejected(self, tmp_path):
        # read as one constant model, the second point per element would be lost
        path, rows = self.write_per_frequency(tmp_path)
        for line in range(2, len(rows) + 1):
            self.rewrite(path, rows, line, 0, "")
        with pytest.raises(io.ParseError, match="per-frequency line model is missing frequency"):
            io.read_line_model(path)

    def test_per_frequency_isolation_round_trips(self, tmp_path):
        e = network.ideal_lines().s_in_a
        lines = network.LineModel(e, e, e, e, isolation=np.array([0.1, 0.2j, -0.3]))
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path, freqs=[1.0, 2.0, 3.0])
        back, freqs = io.read_line_model(path)
        assert np.array_equal(freqs, [1.0, 2.0, 3.0])
        assert np.array_equal(back.isolation, lines.isolation)

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfefreq_hz,element\n")
        with pytest.raises(io.ParseError, match="utf16.csv is not UTF-8"):
            io.read_line_model(path)
