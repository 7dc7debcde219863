"""File formats, configuration and run persistence.

The canonical spectrum format is long-form CSV with header
``freq_hz,channel,re,im`` plus optional ``bias_ma,power_dbm,temp_k``
columns; write/read round-trips are lossless at full float precision.
Four-port touchstone files are supported for ingestion with the port map
1 = A-in, 2 = A-out, 3 = B-in, 4 = B-out.

Configuration files are flat ``key = value`` INI sections, one section
per concern.  Frequencies and rates are linear Hz in files and on the
command line; the conversion to the angular units used internally
happens exactly once, in the ``*_from_config`` helpers here.  Unknown
sections or keys are hard errors rather than silently ignored.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, asdict
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
    "read_touchstone",
    "write_touchstone",
    "spectrum_to_smatrix",
    "write_line_model",
    "read_line_model",
    "load_config",
    "default_config",
    "cell_params_from_config",
    "flux_model_from_config",
    "hz_to_angular",
    "angular_to_hz",
    "new_run_id",
    "file_digest",
    "save_run_record",
    "load_run_record",
]

TOOL_VERSION = "0.1.0"

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


def write_spectrum(spectrum: ChannelSpectrum, path, run_id: str | None = None) -> None:
    """Write a spectrum as long-form CSV (lossless float precision)."""
    path = Path(path)
    include_meta = any(
        v is not None for v in (spectrum.bias_ma, spectrum.power_dbm, spectrum.temp_k)
    )
    header = _CSV_HEADER + (_CSV_META if include_meta else [])
    with path.open("w", newline="") as fh:
        if run_id is not None:
            fh.write(f"# run: {run_id}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        meta = [
            "" if spectrum.bias_ma is None else repr(spectrum.bias_ma),
            "" if spectrum.power_dbm is None else repr(spectrum.power_dbm),
            "" if spectrum.temp_k is None else repr(spectrum.temp_k),
        ]
        for ch, trace in zip(CHANNELS, spectrum.traces):
            for f, v in zip(spectrum.freqs, trace):
                row = [repr(float(f)), ch, repr(float(v.real)), repr(float(v.imag))]
                if include_meta:
                    row += meta
                writer.writerow(row)


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"malformed {what} value {text!r}", line) from None


def _ingest_csv(path: Path) -> ChannelSpectrum:
    rows: list[list[tuple[float, complex, int]]] = [[] for _ in CHANNELS]
    meta: dict[str, float] = {}
    with path.open(newline="") as fh:
        lineno = 0
        header: list[str] | None = None
        for raw in csv.reader(fh):
            lineno += 1
            if not raw or raw[0].startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in raw]
                if header[:4] != _CSV_HEADER:
                    raise ParseError(
                        f"malformed header {header!r}; expected {_CSV_HEADER} "
                        f"(+ optional {_CSV_META})", lineno)
                extra = header[4:]
                if any(c not in _CSV_META for c in extra):
                    raise ParseError(f"unknown columns {extra!r}", lineno)
                continue
            if len(raw) != len(header):
                raise ParseError(f"row has {len(raw)} fields, expected {len(header)}", lineno)
            ch = raw[1].strip()
            if ch not in CHANNELS:
                raise ParseError(f"unknown channel {ch!r}", lineno)
            f = _parse_float(raw[0], "frequency", lineno)
            re = _parse_float(raw[2], "re", lineno)
            im = _parse_float(raw[3], "im", lineno)
            rows[CHANNELS.index(ch)].append((f, complex(re, im), lineno))
            for name, cell in zip(header[4:], raw[4:]):
                if cell.strip():
                    meta.setdefault(name, _parse_float(cell, name, lineno))
    if header is None:
        raise ParseError("empty file", 1)

    lengths = dict(zip(CHANNELS, map(len, rows)))
    if len(set(lengths.values())) != 1 or 0 in lengths.values():
        raise ParseError(f"channel row counts differ: {lengths}")
    grid = np.array([[r[0] for r in chrows] for chrows in rows])
    for ch, fs, chrows in zip(CHANNELS, grid, rows):
        diffs = np.diff(fs)
        if np.any(diffs == 0):
            bad = int(np.flatnonzero(diffs == 0)[0]) + 1
            raise ParseError(f"duplicate frequency row for channel {ch}", chrows[bad][2])
        if np.any(diffs < 0):
            bad = int(np.flatnonzero(diffs < 0)[0]) + 1
            raise ParseError(f"non-monotone frequency for channel {ch}", chrows[bad][2])
        if not np.array_equal(grid[0], fs):
            raise ParseError(f"channel {ch} frequency grid differs from channel AA")
    traces = np.array([[r[1] for r in chrows] for chrows in rows])
    # meta holds only _CSV_META columns, which are ChannelSpectrum fields
    return ChannelSpectrum(*_finite_points(grid[0], traces), **meta)


def _finite_points(freqs: np.ndarray, traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop, with a warning, the points where the grid or any channel is non-finite."""
    finite = np.isfinite(freqs) & np.all(np.isfinite(traces), axis=0)
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
    multipliers.  Matrix entries are row-major per frequency point.
    """
    path = Path(path)
    unit = 1e9
    fmt = "MA"
    numbers: list[float] = []
    option_line = None
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                option_line = lineno
                tokens = line[1:].upper().split()
                for i, tok in enumerate(tokens):
                    if tok in _FREQ_UNITS:
                        unit = _FREQ_UNITS[tok]
                    elif tok in ("RI", "MA", "DB"):
                        fmt = tok
                    elif tok == "S":
                        continue
                    elif tok == "R":
                        break
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
    if np.any(np.diff(freqs) <= 0):
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


def _ingest_touchstone(path: Path) -> ChannelSpectrum:
    freqs, s = read_touchstone(path)
    return ChannelSpectrum(*_finite_points(freqs, s[:, _TOUCHSTONE_OUT, _TOUCHSTONE_IN].T))


def ingest_spectrum(path, fmt: str = "csv") -> ChannelSpectrum:
    """Load a four-channel spectrum from CSV or touchstone.

    Non-finite rows are dropped with a warning reporting the count;
    structural problems (bad header, non-monotone or duplicate
    frequencies, channel mismatches) raise :class:`ParseError` with the
    offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt == "csv":
        return _ingest_csv(path)
    if fmt in ("s4p", "touchstone-s4p"):
        return _ingest_touchstone(path)
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 's4p'")


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
    per-frequency lines require ``freqs`` of matching length.
    """
    n = lines.n_points
    if n is not None:
        if freqs is None or len(freqs) != n:
            raise ValueError("per-frequency lines need a matching freqs array")
        freq_col = [repr(float(f)) for f in freqs]
    else:
        n = 1
        freq_col = [""]
    with Path(path).open("w", newline="") as fh:
        if run_id is not None:
            fh.write(f"# run: {run_id}\n")
        writer = csv.writer(fh)
        writer.writerow(_LINE_HEADER)
        iso = np.broadcast_to(np.asarray(lines.isolation, dtype=complex), (n,))
        for i in range(n):
            point = lines.at(i) if lines.n_points is not None else lines
            for name, m in zip(_LINE_ELEMENTS, point.matrices):
                row = [freq_col[i], name]
                for r in range(2):
                    for c in range(2):
                        row += [repr(float(m[r, c].real)), repr(float(m[r, c].imag))]
                row += [repr(float(iso[i].real)), repr(float(iso[i].imag))]
                writer.writerow(row)


def read_line_model(path) -> tuple[LineModel, np.ndarray | None]:
    """Read a network-description file; returns (lines, freqs or None)."""
    blocks: dict[str, list] = {name: [] for name in _LINE_ELEMENTS}
    freqs: list[float] = []
    isolation: list[complex] = []
    with Path(path).open(newline="") as fh:
        lineno = 0
        header = None
        for raw in csv.reader(fh):
            lineno += 1
            if not raw or raw[0].startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in raw]
                if header != _LINE_HEADER:
                    raise ParseError(f"malformed line-model header {header!r}", lineno)
                continue
            if len(raw) != len(_LINE_HEADER):
                raise ParseError("line-model row has wrong field count", lineno)
            name = raw[1].strip()
            if name not in _LINE_ELEMENTS:
                raise ParseError(f"unknown line element {name!r}", lineno)
            vals = [_parse_float(v, "entry", lineno) for v in raw[2:]]
            m = np.array([[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                          [complex(vals[4], vals[5]), complex(vals[6], vals[7])]])
            blocks[name].append(m)
            if name == _LINE_ELEMENTS[0]:
                freqs.append(_parse_float(raw[0], "frequency", lineno)
                             if raw[0].strip() else math.nan)
                isolation.append(complex(vals[8], vals[9]))
    counts = {name: len(v) for name, v in blocks.items()}
    if len(set(counts.values())) != 1 or 0 in counts.values():
        raise ParseError(f"line-model element counts differ: {counts}")
    stacks = {name: np.array(v) for name, v in blocks.items()}
    iso = np.asarray(isolation)
    if len(freqs) == 1:
        lines = LineModel(*(s[0] for s in stacks.values()), isolation=complex(iso[0]))
        return lines, None
    if any(math.isnan(f) for f in freqs):
        raise ParseError("per-frequency line model is missing frequency values")
    lines = LineModel(*stacks.values(), isolation=iso)
    return lines, np.asarray(freqs)


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
    "run": {"seed": 0, "out": ".", "format": "csv"},
}


def default_config() -> dict[str, dict]:
    return {section: dict(values) for section, values in CONFIG_SCHEMA.items()}


def load_config(path=None) -> dict[str, dict]:
    """Defaults overlaid with an optional INI file; unknown keys are fatal."""
    config = default_config()
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
                    config[section][key] = float(raw)
            except ValueError:
                kind = "an integer" if isinstance(default, int) else "a number"
                raise ConfigError(
                    f"key {key!r} in [{section}] must be {kind}, got {raw!r}"
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


def load_run_record(path) -> RunRecord:
    with Path(path).open() as fh:
        data = json.load(fh)
    return RunRecord(**data)
