"""File formats, configuration and run persistence.

The canonical spectrum format is long-form CSV with header
``freq_hz,channel,re,im`` plus optional ``bias_ma,power_dbm,temp_k``
columns; write/read round-trips are lossless at full float precision.
Four-port touchstone files (``.s4p``) are supported for ingestion with
the port map 1 = A-in, 2 = A-out, 3 = B-in, 4 = B-out.

CSV tables (spectra, line models) share one writer, :func:`write_columns`,
and one columnar reader.  Every malformed spectrum or line-model file,
whatever its bytes, raises :class:`ParseError`.

Configuration files are flat ``key = value`` INI sections, one section
per concern.  Frequencies and rates are linear Hz in files and on the
command line.  They become the angular units used internally through
:func:`hz_to_angular` where a section is read: in the ``*_from_config``
helpers here for ``[model]`` and ``[flux]``, and in ``cli`` for
``[fluxnoise]``, ``[thermal]`` and ``[dressed]``.  Unknown sections or
keys, ``[DEFAULT]`` among them, are hard errors rather than silently
ignored.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from itertools import repeat
from pathlib import Path

import numpy as np

from .calibration import ChannelSpectrum
from .model import CHANNELS, CellParams, FluxModel
from .network import LineModel

__all__ = [
    "ParseError",
    "ConfigError",
    "RunRecord",
    "TOOL_VERSION",
    "ingest_spectrum",
    "write_spectrum",
    "write_columns",
    "read_touchstone",
    "write_touchstone",
    "spectrum_to_smatrix",
    "write_line_model",
    "read_line_model",
    "load_config",
    "cell_params_from_config",
    "flux_model_from_config",
    "hz_to_angular",
    "angular_to_hz",
    "new_run_id",
    "file_digest",
    "save_run_record",
]

TOOL_VERSION = "0.2.0"

TWO_PI = 2.0 * np.pi

_CSV_HEADER = ["freq_hz", "channel", "re", "im"]
_CSV_META = ["bias_ma", "power_dbm", "temp_k"]

#: Touchstone port indices (0-based) of the channels in CHANNELS order.
_TOUCHSTONE_OUT = [1, 3, 3, 1]
_TOUCHSTONE_IN = [0, 2, 0, 2]


class ParseError(ValueError):
    """Input file violates the expected format (carries a line number)."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class ConfigError(ValueError):
    """Configuration contains unknown or malformed entries."""


def hz_to_angular(value):
    """Linear Hz -> angular rad/s, the single conversion point for IO."""
    return TWO_PI * np.asarray(value, dtype=float)


def angular_to_hz(value):
    return np.asarray(value, dtype=float) / TWO_PI


# ---------------------------------------------------------------------------
# CSV spectrum format


def write_columns(path, header: list[str], columns, run_id: str | None = None) -> None:
    """Write a CSV table column by column, byte for byte as ``csv.writer`` would.

    Each column is a float array, written as the ``repr`` of every value
    (which round-trips float64 exactly), or a sequence of field strings.
    Rows end in CRLF.  No field needs quoting: each is a float ``repr``, a
    name or empty.  A ``run_id`` must be printable, so that it stays on
    its one ``# run:`` comment line.
    """
    if run_id is not None and not run_id.isprintable():
        raise ValueError(f"run id {run_id!r} is not printable")
    fields = (map(repr, c.ravel().tolist()) if isinstance(c, np.ndarray) else c
              for c in columns)
    rows = map(",".join, zip(*fields))
    with Path(path).open("w", newline="") as fh:
        if run_id is not None:
            fh.write(f"# run: {run_id}\n")
        fh.write("\r\n".join([",".join(header), *rows]) + "\r\n")


def write_spectrum(spectrum: ChannelSpectrum, path, run_id: str | None = None) -> None:
    """Write a spectrum as long-form CSV (lossless float precision)."""
    meta = (spectrum.bias_ma, spectrum.power_dbm, spectrum.temp_k)
    include_meta = any(v is not None for v in meta)
    columns = [
        list(map(repr, spectrum.freqs.tolist())) * len(CHANNELS),
        [ch for ch in CHANNELS for _ in spectrum.freqs],
        spectrum.traces.real,
        spectrum.traces.imag,
    ]
    if include_meta:
        columns += [repeat("" if v is None else repr(v)) for v in meta]
    write_columns(path, _CSV_HEADER + (_CSV_META if include_meta else []), columns, run_id)


@contextmanager
def _text_file(path: Path, **kwargs):
    """Open a file for reading as UTF-8; undecodable bytes raise ParseError naming it."""
    with path.open(encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _read_table(path, required: list[str], optional=()) -> tuple[list[str], list, tuple[int, ...]]:
    """Read a CSV table: its header, its field columns and each data row's line number.

    Blank and ``#`` rows are skipped.  The header is ``required`` plus distinct
    ``optional`` names, and every row has one field per column.
    """
    with _text_file(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            table = [(reader.line_num, row) for row in reader if row and not row[0].startswith("#")]
        except csv.Error as exc:
            raise ParseError(f"{path} is not a readable CSV table: {exc}", reader.line_num) from None
    if not table:
        raise ParseError("empty file", 1)
    lines, rows = zip(*table)
    header = [c.strip() for c in rows[0]]
    extra = header[len(required):]
    if header[:len(required)] != required or set(extra) - set(optional) or len(set(extra)) < len(extra):
        raise ParseError(f"malformed header {header!r}; expected {required} "
                         f"+ optional {list(optional)}", lines[0])
    for row, line in zip(rows[1:], lines[1:]):
        if len(row) != len(header):
            raise ParseError(f"row has {len(row)} fields, expected {len(header)}", line)
    return header, list(zip(*rows[1:])) or [()] * len(header), lines[1:]


def _floats(column, lines, what: str) -> np.ndarray:
    """Parse a column of fields as floats; a malformed field raises ParseError naming its line."""
    try:
        return np.fromiter(map(float, column), float, len(column))
    except ValueError:
        for text, line in zip(column, lines):
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed {what} value {text!r}", line) from None


def _group(names, shared: dict[str, np.ndarray], lines, known, kind: str) -> np.ndarray:
    """Split table rows by name: ``index[k]`` lists, in file order, the rows named ``known[k]``.

    Every name needs the same number of rows and, point by point, the same
    value in each ``shared`` column, such as the frequency (NaN equals NaN).
    """
    codes = {name: k for k, name in enumerate(known)}
    idx = np.array([codes.get(name.strip(), -1) for name in names], dtype=int)
    if np.any(idx < 0):
        i = int(np.argmax(idx < 0))
        raise ParseError(f"unknown {kind} {names[i].strip()!r}", lines[i])
    counts = np.bincount(idx, minlength=len(known))
    if counts.min() != counts.max() or counts[0] == 0:
        raise ParseError(f"{kind} row counts differ: {dict(zip(known, counts.tolist()))}")
    index = np.argsort(idx, kind="stable").reshape(len(known), -1)
    for column, values in shared.items():
        grids = values[index]
        differs = (grids != grids[0]) & ~(np.isnan(grids) & np.isnan(grids[0]))
        if np.any(differs):
            k, i = np.argwhere(differs)[0]
            raise ParseError(f"{kind} {known[k]} differs from {kind} {known[0]} in {column}",
                             lines[index[k, i]])
    return index


def _ingest_csv(path) -> ChannelSpectrum:
    header, columns, lines = _read_table(path, _CSV_HEADER, _CSV_META)
    freqs = _floats(columns[0], lines, "frequency")
    index = _group(columns[1], {"freq_hz": freqs}, lines, CHANNELS, "channel")
    grid = freqs[index[0]]
    finite = np.flatnonzero(np.isfinite(grid))
    diffs = np.diff(grid[finite])
    for bad, what in ((diffs == 0, "duplicate"), (diffs < 0, "non-monotone")):
        if np.any(bad):
            raise ParseError(f"{what} frequency", lines[index[0, finite[np.argmax(bad) + 1]]])
    re_im = np.column_stack([_floats(c, lines, name) for c, name in zip(columns[2:4], header[2:4])])
    # a view keeps signed zeros, which re + 1j * im would drop
    traces = re_im[index].view(complex)[..., 0]
    meta = {}
    for name, column in zip(header[4:], columns[4:]):
        filled = [(text, line) for text, line in zip(column, lines) if text.strip()]
        if filled:  # the non-empty fields must parse and agree bit for bit
            texts, where = zip(*filled)
            values = _floats(texts, where, name)
            differs = values.view(np.int64) != values.view(np.int64)[0]
            if np.any(differs):
                i = int(np.argmax(differs))
                raise ParseError(f"{name} value {texts[i]!r} differs from the first, "
                                 f"{texts[0]!r}", where[i])
            meta[name] = float(values[0])
    # meta holds only _CSV_META columns, which are ChannelSpectrum fields
    return ChannelSpectrum(*_finite_points(path, grid, traces), **meta)


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
    only S-parameters and the 50-ohm reference ``R 50`` that
    :func:`write_touchstone` writes; any other token, or a second or late
    option line, raises :class:`ParseError`.  Matrix entries are row-major
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


def write_touchstone(path, freqs, smatrix) -> None:
    """Write a 4-port touchstone file in RI format (fixture support)."""
    freqs = np.asarray(freqs, dtype=float)
    s = np.asarray(smatrix, dtype=complex)
    if s.shape != (freqs.size, 4, 4):
        raise ValueError("smatrix must have shape (n, 4, 4)")
    with Path(path).open("w") as fh:
        fh.write("! 4-port S-parameters, ports: 1=A-in 2=A-out 3=B-in 4=B-out\n")
        fh.write("# HZ S RI R 50\n")
        for f, mat in zip(freqs, s):
            for row in range(4):
                head = repr(float(f)) if row == 0 else ""
                entries = " ".join(
                    f"{float(mat[row, col].real)!r} {float(mat[row, col].imag)!r}"
                    for col in range(4)
                )
                fh.write(f"{head} {entries}\n".lstrip())


def spectrum_to_smatrix(spectrum: ChannelSpectrum) -> np.ndarray:
    """Embed the four channels into (n, 4, 4) matrices at their port slots."""
    s = np.zeros((len(spectrum), 4, 4), dtype=complex)
    s[:, _TOUCHSTONE_OUT, _TOUCHSTONE_IN] = spectrum.traces.T
    return s


def _ingest_touchstone(path) -> ChannelSpectrum:
    freqs, s = read_touchstone(path)
    return ChannelSpectrum(*_finite_points(path, freqs, s[:, _TOUCHSTONE_OUT, _TOUCHSTONE_IN].T))


def ingest_spectrum(path) -> ChannelSpectrum:
    """Load a four-channel spectrum: touchstone if the name ends in ``.s4p``, else CSV.

    The suffix is matched without regard to case.  Points with a
    non-finite frequency or value are dropped with a warning reporting the
    count.  Every other problem raises :class:`ParseError`, with the
    offending line number where there is one: undecodable text, a bad
    header or field, non-monotone or duplicate frequencies, channel
    mismatches, metadata fields that disagree, or no finite point at all.
    """
    if Path(path).suffix.lower() == ".s4p":
        return _ingest_touchstone(path)
    return _ingest_csv(path)


# ---------------------------------------------------------------------------
# network-description file (the four measurement two-ports + isolation)

_LINE_ELEMENTS = ("in_a", "out_a", "in_b", "out_b")
_LINE_HEADER = ["freq_hz", "element", "s11_re", "s11_im", "s12_re", "s12_im",
                "s21_re", "s21_im", "s22_re", "s22_im", "iso_re", "iso_im"]


def write_line_model(lines: LineModel, path, freqs=None,
                     run_id: str | None = None) -> None:
    """Write a network description: the four two-ports and the isolation.

    One row per (frequency point, element).  Frequency-independent lines
    are written as a single point with an empty ``freq_hz`` field;
    per-frequency lines require finite ``freqs`` of matching length.
    """
    n = lines.n_points
    if n is not None:
        if freqs is None or len(freqs) != n:
            raise ValueError("per-frequency lines need a matching freqs array")
        freqs = np.asarray(freqs, dtype=float)
        if not np.all(np.isfinite(freqs)):
            raise ValueError("line-model frequencies must be finite")
        freq_col = np.repeat(freqs, len(_LINE_ELEMENTS))
    else:
        n = 1
        freq_col = [""] * len(_LINE_ELEMENTS)
    # (4n, 4) complex rows of s11, s12, s21, s22, point-major like the file
    blocks = np.stack([np.broadcast_to(m, (n, 2, 2)) for m in lines.matrices], axis=1)
    values = np.ascontiguousarray(blocks.reshape(4 * n, 4)).view(float)
    iso = np.repeat(np.broadcast_to(np.asarray(lines.isolation, dtype=complex), (n,)),
                    len(_LINE_ELEMENTS))
    columns = [freq_col, _LINE_ELEMENTS * n, *values.T, iso.real, iso.imag]
    write_columns(path, _LINE_HEADER, columns, run_id)


def read_line_model(path) -> tuple[LineModel, np.ndarray | None]:
    """Read a network-description file; returns (lines, freqs or None).

    Points may come in any order, but every element must list the same
    points with the same isolation, and every value must be finite.
    """
    header, columns, lines = _read_table(path, _LINE_HEADER)
    constant = not any(map(str.strip, columns[0]))
    freqs = np.full(len(lines), math.nan) if constant else _floats(columns[0], lines, "frequency")
    values = np.column_stack([_floats(c, lines, name) for c, name in zip(columns[2:], header[2:])])
    shared = {"freq_hz": freqs, "iso_re": values[:, 8], "iso_im": values[:, 9]}
    index = _group(columns[1], shared, lines, _LINE_ELEMENTS, "element")
    if constant and index.shape[1] > 1:
        raise ParseError("per-frequency line model is missing frequency values")
    finite = np.all(np.isfinite(values), axis=1) & (constant | np.isfinite(freqs))
    if not np.all(finite):
        raise ParseError("non-finite line-model value", lines[np.argmin(finite)])
    # (element, point, [s11, s12, s21, s22, iso]); a view keeps signed zeros
    entries = values[index].view(complex)
    matrices, iso = entries[..., :4].reshape(len(_LINE_ELEMENTS), -1, 2, 2), entries[0, :, 4]
    if constant:
        return LineModel(*matrices[:, 0], isolation=complex(iso[0])), None
    return LineModel(*matrices, isolation=iso), freqs[index[0]]


# ---------------------------------------------------------------------------
# configuration

#: Allowed keys per section; values are defaults (None means required
#: only when the consuming subcommand runs).
CONFIG_SCHEMA: dict[str, dict[str, float | int | str]] = {
    "model": {
        "gamma_a_hz": 1.82e6,
        "gamma_b_hz": 2.31e6,
        "f_ge_hz": 6.163e9,
        "f_ef_hz": 6.015e9,
        "phi_a_rad": 0.0,
        "phi_b_rad": 0.0,
        "gamma_phi_hz": 0.0,
        "gamma_bath_hz": 0.0,
    },
    "flux": {
        "curvature_hz_per_ma2": -352e6,
        "linear_hz_per_ma": 0.0,
        "sweet_spot_f_hz": 6.163e9,
    },
    "grid": {
        "f_start_hz": 6.138e9,
        "f_stop_hz": 6.188e9,
        "n_points": 401,
        "bias_start_ma": -0.55,
        "bias_stop_ma": 0.55,
        "n_bias": 23,
        "temp_start_k": 0.02,
        "temp_stop_k": 0.4,
        "n_temp": 20,
        "navg_min": 1e-2,
        "navg_max": 1e4,
        "n_navg": 25,
        "nphot_min": 0.0,
        "nphot_max": 200.0,
        "n_nphot": 41,
    },
    "lines": {
        "transmission_db": -3.0,
        "jitter_db": 1.0,
        "reflection_bound": 0.05,
        "isolation_db": -20.0,
        "ripple_db": 0.0,
        "ripple_periods": 3.0,
    },
    "noise": {"sigma": 0.0},
    "fluxnoise": {"s_i_a2_per_hz": 3e-19, "gamma_phi0_hz": 0.2e6},
    "thermal": {"gamma1_zero_hz": 0.26e6, "gamma_phi_zero_hz": 10.38e6},
    "saturation": {"c": 1.0, "d": 1.0},
    "dressed": {"lambda_red_hz": 0.81e6, "lambda_blue_hz": 0.39e6},
    "run": {"seed": 0, "out": "."},
}


def load_config(path=None) -> dict[str, dict]:
    """Defaults overlaid with an optional INI file; unknown keys are fatal."""
    config = {section: dict(values) for section, values in CONFIG_SCHEMA.items()}
    if path is None:
        return config
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():
        # configparser would copy these keys into every section
        raise ConfigError(f"unknown config section [{parser.default_section}] in {path}")
    for section, items in sections.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            default = CONFIG_SCHEMA[section][key]
            try:
                if isinstance(default, str):
                    config[section][key] = raw
                elif isinstance(default, int):
                    config[section][key] = int(raw)
                else:
                    value = float(raw)
                    if not math.isfinite(value):
                        raise ValueError(raw)
                    config[section][key] = value
            except ValueError:
                kind = "an integer" if isinstance(default, int) else "a finite number"
                raise ConfigError(
                    f"key {key!r} in [{section}] of {path} must be {kind}, got {raw!r}"
                ) from None
    return config


def cell_params_from_config(config: dict[str, dict]) -> CellParams:
    """Build cell parameters from the [model] section (Hz -> rad/s here)."""
    m = config["model"]
    return CellParams(
        gamma_a=float(hz_to_angular(m["gamma_a_hz"])),
        gamma_b=float(hz_to_angular(m["gamma_b_hz"])),
        omega_ge=float(hz_to_angular(m["f_ge_hz"])),
        omega_ef=float(hz_to_angular(m["f_ef_hz"])),
        phi_a=float(m["phi_a_rad"]),
        phi_b=float(m["phi_b_rad"]),
        gamma_phi=float(hz_to_angular(m["gamma_phi_hz"])),
        gamma_bath=float(hz_to_angular(m["gamma_bath_hz"])),
    )


def flux_model_from_config(config: dict[str, dict]) -> FluxModel:
    fx = config["flux"]
    return FluxModel(
        curvature=float(hz_to_angular(fx["curvature_hz_per_ma2"])),
        linear=float(hz_to_angular(fx["linear_hz_per_ma"])),
        sweet_spot_omega=float(hz_to_angular(fx["sweet_spot_f_hz"])),
    )


# ---------------------------------------------------------------------------
# run records


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one pipeline run; serialized as runs/<id>/run.json."""

    run_id: str
    subcommand: str
    tool_version: str
    seed: int | None
    config: dict
    input_digests: dict[str, str]
    outputs: list[str]


def new_run_id(config: dict, seed: int | None, subcommand: str) -> str:
    """Timestamped run id with a short hash of (subcommand, config, seed)."""
    digest = hashlib.sha256(
        json.dumps([subcommand, config, seed], sort_keys=True, default=str).encode()
    ).hexdigest()[:8]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{digest}"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_run_record(record: RunRecord, run_dir) -> Path:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "run.json"
    with path.open("w") as fh:
        json.dump(asdict(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
