"""Spectrum file formats.

The canonical spectrum format is long-form CSV with exactly the header
``freq_hz,channel,re,im``; write/read round-trips are lossless at full
float precision.
Four-port touchstone files (``.s4p``) are supported for ingestion with
the port map 1 = A-in, 2 = A-out, 3 = B-in, 4 = B-out.  Text inputs are
UTF-8 and may start with a byte-order mark.

CSV tables share one writer, :func:`write_columns`, and spectra are read
by one columnar reader, :func:`_read_table`.  The writer's memory is
bounded: beyond the caller's columns it holds the text of one block of
``_WRITE_FIELDS`` fields, whatever the number of columns, and keeps no
copy of a float column.  The reader parses a whole table with numpy's C
reader into one structured array, float64 value columns and string name
columns.  Numbers take ``float()``'s syntax in ASCII, without ``_``
separators; a name holds fewer than 64 characters, whitespace included.
Only an error needs a line number, and only then does ``csv.reader``
rescan the file to name it.  Every malformed spectrum file, whatever its
bytes, raises :class:`~routercell.runs.ParseError`.
The INI configuration lives in :mod:`routercell.runs`, and
:mod:`routercell.presets` turns its sections into model objects.
"""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .calibration import ChannelSpectrum
from .model import _CHANNEL_IN, _CHANNEL_OUT, CHANNELS
from .runs import ParseError

__all__ = [
    "ingest_spectrum",
    "write_spectrum",
    "write_columns",
    "read_touchstone",
]

_CSV_HEADER = ["freq_hz", "channel", "re", "im"]


# ---------------------------------------------------------------------------
# CSV spectrum format


#: Fields per ``write`` call: a block of this many fields, whatever the number of columns, is
#: all the text a write holds
_WRITE_FIELDS = 2048


def write_columns(path, header: list[str], columns, run_id: str | None = None) -> None:
    """Write a CSV table column by column, byte for byte as ``csv.writer`` would.

    Each column is a 1-D float64 array, written as the ``repr`` of every
    value (which round-trips float64 exactly), or a sequence of field
    strings; there is one per header name, at least one, and all have the
    same length.  Rows end in CRLF.  No field needs quoting: each is a
    float ``repr``, a name or empty.  A ``run_id`` must be printable, so
    that it stays on its one ``# run:`` comment line.  A table that breaks
    these rules is refused with ValueError before the file is opened.

    The text is built and written ``_WRITE_FIELDS`` fields at a time from
    slices of the caller's columns, strided views too, so a write holds
    little beyond its columns: one block's values and text.
    """
    if run_id is not None and not run_id.isprintable():
        raise ValueError(f"run id {run_id!r} is not printable")
    if not header:
        raise ValueError("a table needs at least one column; the header names none")
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"header {header} names {len(header)} columns, got {len(columns)}")
    for name, column in zip(header, columns):
        if isinstance(column, np.ndarray) and column.ndim != 1:
            raise ValueError(f"column {name!r} is a {column.ndim}-D array; expected 1-D")
        if isinstance(column, np.ndarray) and column.dtype != np.float64:
            raise ValueError(f"column {name!r} is an array of {column.dtype}; expected float64")
        if len(column) != len(columns[0]):
            raise ValueError(f"column {name!r} has {len(column)} values, "
                             f"column {header[0]!r} has {len(columns[0])}")
    rows = max(1, _WRITE_FIELDS // len(header))
    with Path(path).open("w", newline="") as fh:
        if run_id is not None:
            fh.write(f"# run: {run_id}\n")
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), rows):
            block = [map(repr, c[i:i + rows].tolist()) if isinstance(c, np.ndarray) else c[i:i + rows]
                     for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_spectrum(spectrum: ChannelSpectrum, path, run_id: str | None = None) -> None:
    """Write a spectrum as long-form CSV (lossless float precision).

    The frequency column repeats the grid once per channel, so each
    frequency's text is formatted once and written four times.
    """
    columns = [
        list(map(repr, spectrum.freqs.tolist())) * len(CHANNELS),
        [ch for ch in CHANNELS for _ in spectrum.freqs],
        spectrum.traces.real.reshape(-1),  # views of the (4, n) traces, channel-major like the file
        spectrum.traces.imag.reshape(-1),
    ]
    write_columns(path, _CSV_HEADER, columns, run_id)


@contextmanager
def _text_file(path: Path, **kwargs):
    """Open a UTF-8 file, BOM optional; undecodable bytes raise ParseError naming the file,
    the first bad byte's offset in it, and its line."""
    with path.open(encoding="utf-8-sig", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # exc counts from the start of the decoder's chunk; a decode of the whole file,
            # whose BOM is UTF-8 too, counts from the start of the file
            data, line = path.read_bytes(), None
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc, line = whole, len(data[:whole.start + 1].splitlines())
            raise ParseError(f"{path} is not UTF-8 text: {exc}", line) from None


#: Room for the text of a name: a field this long or longer is refused
_TEXT_ROOM = 64


@contextmanager
def _table_file(path: Path):
    """Open a CSV table: the text file and csv.reader's non-blank records of it.

    Each record is ``(line number, fields)``, numbered by its last line; a
    csv.Error raises ParseError.
    """
    def records(reader):
        try:
            yield from ((reader.line_num, row) for row in reader if row)
        except csv.Error as exc:
            raise ParseError(f"{path} is not a readable CSV table: {exc}", reader.line_num) from None

    with _text_file(path, newline="") as fh:
        yield fh, records(csv.reader(fh))


def _header(records, header: list[str]) -> int:
    """Take a table's ``#`` records and header from ``records``; returns the header's line."""
    for line, row in records:
        if not row[0].startswith("#"):
            found = [c.strip() for c in row]
            if found != header:
                raise ParseError(f"malformed header {found!r}; expected {header}", line)
            return line
    raise ParseError("empty file", 1)


def _parse(path: Path, header: list[str], text: dict[str, int]) -> list[np.ndarray]:
    """numpy's C reader's parse of a CSV table, one array per column.

    Columns are float64, or strings for the ``text`` columns, which start
    with room for the given number of characters.  A field that fills its
    room may have been cut short, so the table is parsed again with room
    for ``_TEXT_ROOM``; a field that fills that too refuses the table.
    Every line after the header is a data row or blank.  A table that is
    not one raises ValueError, which the caller answers with a rescan.
    """
    for room in (text, dict.fromkeys(text, _TEXT_ROOM)):
        with _table_file(path) as (fh, records):
            _header(records, header)
            with warnings.catch_warnings():
                # loadtxt warns on a table without data rows, which the rescan refuses by name
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, [(name, f"U{room[name]}" if name in room else float)
                                        for name in header],
                                   delimiter=",", quotechar='"', comments=None, ndmin=1)
        if not len(table):
            raise ValueError("no data rows")
        if all(np.char.str_len(table[name]).max() < width for name, width in room.items()):
            return [table[name] for name in header]
    raise ValueError(f"a text field has {_TEXT_ROOM} characters or more")


def _scan(path: Path, header: list[str], text: dict[str, int]) -> tuple[list, tuple[int, ...]]:
    """csv.reader's reading of a CSV table: its field columns and each data row's line number.

    The rules are :func:`_parse`'s: blank and ``#`` records before the
    header are skipped, and after it blank ones only.  Each data row has
    one field per column, and each field of a ``text`` column fewer than
    ``_TEXT_ROOM`` characters.
    """
    with _table_file(path) as (_, records):
        numbered = iter(list(records))
    header_line = _header(numbered, header)
    numbered = list(numbered)
    if not numbered:
        raise ParseError(f"{path} holds no data rows after its header", header_line)
    lines, rows = zip(*numbered)
    texts = [(k, name) for k, name in enumerate(header) if name in text]
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise ParseError(f"row has {len(row)} fields, expected {len(header)}", line)
        for k, name in texts:
            if len(row[k]) >= _TEXT_ROOM:
                raise ParseError(f"{name} field has {len(row[k])} characters, "
                                 f"expected at most {_TEXT_ROOM - 1}", line)
    return list(zip(*rows)), lines


def _read_table(path, header: list[str], text: dict[str, int], build):
    """Read a CSV table with ``header`` and return ``build(columns, line)``.

    numpy's C reader parses the whole table at once (:func:`_parse`), and
    ``build`` checks its columns, where ``line(i)`` is the file line of data
    row ``i`` for an error to name.  If either refuses the table, csv.reader
    rescans it (:func:`_scan`) and ``build`` runs again on its field strings,
    to raise the same error with its line.  The rescan never reads a table
    numpy's reader refused.  A file with a NUL byte is refused first, as a
    string column would drop a NUL that ends its field.
    """
    path = Path(path)
    data = path.read_bytes()
    if (nul := data.find(b"\0")) >= 0:
        raise ParseError(f"{path} is not a readable CSV table: line contains NUL",
                         len(data[:nul + 1].splitlines()))
    del data  # as large as the file: not held through the parse
    try:
        return build(_parse(path, header, text), lambda i: None)
    except ValueError as exc:
        refusal = exc
    columns, lines = _scan(path, header, text)
    build(columns, lines.__getitem__)
    raise ParseError(f"{path} is not a readable CSV table: {refusal}")


def _number(text: str) -> float:
    """A number in the syntax of numpy's reader: ``float()``'s in ASCII, without ``_`` separators.

    Like numpy's, and unlike ``float()``, it strips every character that
    ``str.isspace`` takes, the ASCII separators U+001C to U+001F too.
    """
    number = text.strip()
    if "_" in number or not number.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(number)


def _floats(column, line, what: str) -> np.ndarray:
    """A column as float64: numpy's parse as it is, field strings by :func:`_number`.

    A malformed field raises ParseError naming its line.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return column
    try:
        return np.fromiter(map(_number, column), float, len(column))
    except ValueError:
        for i, text in enumerate(column):
            try:
                _number(text)
            except ValueError:
                raise ParseError(f"malformed {what} value {text!r}", line(i)) from None


def _by_channel(names, freqs: np.ndarray, line) -> np.ndarray:
    """Split spectrum rows by channel: ``index[k]`` lists, in file order, the rows of ``CHANNELS[k]``.

    Names are matched with surrounding whitespace stripped.  Every channel
    needs the same number of rows and, point by point, the same frequency
    (NaN equals NaN).
    """
    names = np.char.strip(names)
    idx = np.full(len(names), -1)
    for k, name in enumerate(CHANNELS):
        idx[names == name] = k
    if np.any(idx < 0):
        i = int(np.argmax(idx < 0))
        raise ParseError(f"unknown channel {str(names[i])!r}", line(i))
    counts = np.bincount(idx, minlength=len(CHANNELS))
    if counts.min() != counts.max():
        raise ParseError(f"channel row counts differ: {dict(zip(CHANNELS, counts.tolist()))}")
    index = np.argsort(idx, kind="stable").reshape(len(CHANNELS), -1)
    grids = freqs[index]
    differs = (grids != grids[0]) & ~(np.isnan(grids) & np.isnan(grids[0]))
    if np.any(differs):
        k, i = np.argwhere(differs)[0]
        raise ParseError(f"channel {CHANNELS[k]} differs from channel {CHANNELS[0]} in freq_hz",
                         line(index[k, i]))
    return index


def _spectrum_table(columns, line) -> tuple[np.ndarray, np.ndarray]:
    """The grid and (4, n) traces of a spectrum table's columns."""
    freqs = _floats(columns[0], line, "frequency")
    index = _by_channel(columns[1], freqs, line)
    grid = freqs[index[0]]
    finite = np.flatnonzero(np.isfinite(grid))
    diffs = np.diff(grid[finite])
    for bad, what in ((diffs == 0, "duplicate"), (diffs < 0, "non-monotone")):
        if np.any(bad):
            raise ParseError(f"{what} frequency", line(index[0, finite[np.argmax(bad) + 1]]))
    re_im = np.column_stack([_floats(c, line, name) for c, name in zip(columns[2:], _CSV_HEADER[2:])])
    # a view keeps signed zeros, which re + 1j * im would drop
    return grid, re_im[index].view(complex)[..., 0]


def _ingest_csv(path) -> ChannelSpectrum:
    grid, traces = _read_table(path, _CSV_HEADER, {"channel": 8}, _spectrum_table)
    return ChannelSpectrum(*_finite_points(path, grid, traces))


def _finite_points(path, freqs: np.ndarray, traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop, with a warning, the points with a non-finite frequency or value; none left is a ParseError."""
    finite = np.isfinite(freqs) & np.all(np.isfinite(traces), axis=0)
    if not np.any(finite):
        raise ParseError(f"{path} holds no finite point")
    dropped = int((~finite).sum())
    if dropped:
        warnings.warn(f"dropped {dropped} non-finite rows during ingestion", stacklevel=4)
    return freqs[finite], traces[:, finite]


# ---------------------------------------------------------------------------
# touchstone (.s4p)

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}


def read_touchstone(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a 4-port touchstone file; returns (freqs_hz, s) with s (n, 4, 4).

    Supports RI, MA and DB value formats and the standard frequency-unit
    multipliers.  The one option line comes before the data and may name
    only S-parameters and the 50-ohm reference ``R 50``; any other token,
    or a second or late option line, raises :class:`ParseError`.  Matrix entries are row-major
    per frequency point.
    """
    path = Path(path)
    unit = 1e9
    fmt = "MA"
    numbers: list[float] = []
    option_line = None
    with _text_file(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                if option_line is not None or numbers:
                    raise ParseError(f"touchstone option line {line!r} must be the only one "
                                     "and precede the data", lineno)
                option_line = lineno
                tokens = iter(line[1:].upper().split())
                for tok in tokens:
                    if tok in _FREQ_UNITS:
                        unit = _FREQ_UNITS[tok]
                    elif tok in ("RI", "MA", "DB"):
                        fmt = tok
                    elif tok in ("Y", "Z", "H", "G"):
                        raise ParseError(f"touchstone parameter type {tok} in option line "
                                         f"{line!r} is not supported; expected S", lineno)
                    elif tok == "R":
                        ref = next(tokens, "")
                        try:
                            ok = float(ref) == 50.0
                        except ValueError:
                            ok = False
                        if not ok:
                            raise ParseError(f"touchstone reference impedance R {ref or '(none)'} "
                                             f"in option line {line!r} is not supported; "
                                             "expected R 50", lineno)
                    elif tok != "S":
                        raise ParseError(f"unknown touchstone option {tok!r} in option line "
                                         f"{line!r}", lineno)
                continue
            try:
                numbers.extend(float(tok) for tok in line.split())
            except ValueError:
                raise ParseError("malformed touchstone data", lineno) from None
    if option_line is None:
        raise ParseError("missing touchstone option line (#)")
    frame = 1 + 32  # frequency + 16 complex entries
    if not numbers or len(numbers) % frame:
        raise ParseError(f"touchstone data size {len(numbers)} is not a whole number of 4-port frames")
    data = np.asarray(numbers).reshape(-1, frame)
    freqs = data[:, 0] * unit
    if np.any(np.diff(freqs[np.isfinite(freqs)]) <= 0):
        raise ParseError("touchstone frequencies must be strictly increasing")
    pairs = data[:, 1:].reshape(-1, 16, 2)
    if fmt == "RI":
        # a view keeps signed zeros, which re + 1j * im would drop
        values = np.ascontiguousarray(pairs).view(complex)[..., 0]
    else:
        mag = pairs[..., 0] if fmt == "MA" else 10.0 ** (pairs[..., 0] / 20.0)
        values = mag * np.exp(1j * np.deg2rad(pairs[..., 1]))
    return freqs, values.reshape(-1, 4, 4)


def _ingest_touchstone(path) -> ChannelSpectrum:
    freqs, s = read_touchstone(path)
    return ChannelSpectrum(*_finite_points(path, freqs, s[:, _CHANNEL_OUT, _CHANNEL_IN].T))


def ingest_spectrum(path) -> ChannelSpectrum:
    """Load a four-channel spectrum: touchstone if the name ends in ``.s4p``, else CSV.

    The suffix is matched without regard to case.  Points with a
    non-finite frequency or value are dropped with a warning reporting the
    count.  Every other problem raises :class:`ParseError`, with the
    offending line number where there is one: undecodable text, a bad
    header or field, non-monotone or duplicate frequencies, channel
    mismatches, or no finite point at all.
    """
    if Path(path).suffix.lower() == ".s4p":
        return _ingest_touchstone(path)
    return _ingest_csv(path)
