"""Configuration, run records and the package's typed input errors.

This module imports only the standard library, so a CLI step that needs
nothing else, such as ``report``, starts without numpy.  ``configparser``
and ``hashlib`` are imported where they are used, so that importing
:mod:`routercell.presets`, which reads :data:`CONFIG_SCHEMA`, loads neither.

Configuration files are flat ``key = value`` INI sections, one section
per concern, in linear Hz; :data:`CONFIG_SCHEMA` lists every allowed key
with its default.  Unknown sections or keys, ``[DEFAULT]`` among them,
are hard errors rather than silently ignored.  Each CLI run is recorded
as ``runs/<id>/run.json``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

__all__ = [
    "ParseError",
    "ConfigError",
    "CONFIG_SCHEMA",
    "load_config",
    "TOOL_VERSION",
    "RunRecord",
    "new_run_id",
    "file_digest",
    "save_run_record",
]

TOOL_VERSION = "0.2.0"


class ParseError(ValueError):
    """Input file violates the expected format (carries a line number)."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class ConfigError(ValueError):
    """Configuration contains unknown or malformed entries."""


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
    """Defaults overlaid with an optional INI file; unknown keys are fatal.

    The file is UTF-8, maybe after a byte-order mark; a ``%`` is literal.
    """
    import configparser

    config = {section: dict(values) for section, values in CONFIG_SCHEMA.items()}
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8-sig")
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


def new_run_id(config: dict, seed: int | None, subcommand: str, inputs: list[str]) -> str:
    """Timestamped run id with a short hash of (subcommand, config, seed, inputs).

    ``inputs`` names what the run reads, such as the digest of each input
    file, so that runs over different inputs get different ids.
    """
    import hashlib

    digest = hashlib.sha256(
        json.dumps([subcommand, config, seed, inputs], sort_keys=True, default=str).encode()
    ).hexdigest()[:8]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{digest}"


def file_digest(path) -> str:
    import hashlib

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
