"""Command-line surface: pipeline subcommands over the library.

Every run writes its outputs under ``<out>/runs/<run-id>/`` together with
a ``run.json`` record (config snapshot, input digests, output list, tool
version).  Output tables are plain CSV ready for external plotting; no
figures are rendered here.

Settings resolve with precedence config < environment < flag.  The
recognized environment variables are ``ROUTERCELL_CONFIG``,
``ROUTERCELL_SEED``, ``ROUTERCELL_OUT`` and ``ROUTERCELL_FORMAT``.
Re-running with ``--run-id`` pinned to a recorded id reproduces the
output files byte for byte for the same tool version and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import calibration, estimation, io, model, synth
from .io import RunRecord, TOOL_VERSION

SUBCOMMANDS = (
    "simulate", "synth", "calibrate", "fit",
    "sweep-bias", "sweep-temp", "sweep-power", "dressed", "report",
)

_ENV_PREFIX = "ROUTERCELL_"


def _write_json(path: Path, payload: dict, run_id: str) -> None:
    payload = {"run": run_id, **payload}
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _freq_grid(config: dict) -> np.ndarray:
    g = config["grid"]
    return np.linspace(g["f_start_hz"], g["f_stop_hz"], int(g["n_points"]))


def _cell_truth_payload(cell: model.CellParams, seed: int | None) -> dict:
    return {
        "truth": {
            "gamma_a_hz": float(io.angular_to_hz(cell.gamma_a)),
            "gamma_b_hz": float(io.angular_to_hz(cell.gamma_b)),
            "f_ge_hz": float(io.angular_to_hz(cell.omega_ge)),
            "phi_a_rad": cell.phi_a,
            "phi_b_rad": cell.phi_b,
            "gamma_phi_hz": float(io.angular_to_hz(cell.gamma_phi)),
            "gamma_bath_hz": float(io.angular_to_hz(cell.gamma_bath)),
        },
        "seed": seed,
    }


def _report_payload(report: estimation.FitReport) -> dict:
    payload = asdict(report)
    payload["flags"] = list(report.flags)
    return payload


# ---------------------------------------------------------------------------
# subcommand pipelines (each returns the list of files it wrote)


def _cmd_simulate(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    freqs = _freq_grid(config)
    coeffs = model.cell_coefficients(io.hz_to_angular(freqs), cell)
    spectrum = calibration.ChannelSpectrum(freqs, coeffs)
    spectrum_path = run_dir / "spectrum.csv"
    io.write_spectrum(spectrum, spectrum_path, run_id=run_id)
    values = spectrum.traces.ravel()
    # scalar abs and log10: the vectorised ones can round the last bit differently
    mags = [abs(v) for v in values]
    columns = [
        np.tile(freqs, len(model.CHANNELS)),
        [ch for ch in model.CHANNELS for _ in freqs],
        np.array(mags),
        np.array([20.0 * math.log10(max(m, 1e-300)) for m in mags]),
        np.angle(values),
    ]
    mag_path = run_dir / "magphase.csv"
    io.write_columns(mag_path, ["freq_hz", "channel", "mag", "mag_db", "phase_rad"],
                     columns, run_id)
    return [spectrum_path, mag_path]


def _cmd_synth(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    campaign = synth.CampaignConfig(
        cell=cell, lines=synth.LineSpec(**config["lines"]), freqs=_freq_grid(config),
        noise_sigma=config["noise"]["sigma"], seed=seed,
    )
    result = synth.gen_spectrum(campaign)
    meas_path = run_dir / "meas.csv"
    hd_path = run_dir / "hd.csv"
    truth_path = run_dir / "truth.json"
    lines_path = run_dir / "lines.csv"
    io.write_spectrum(result.meas, meas_path, run_id=run_id)
    io.write_spectrum(result.hd, hd_path, run_id=run_id)
    _write_json(truth_path, _cell_truth_payload(result.truth, seed), run_id)
    freqs = campaign.freqs if result.lines.n_points is not None else None
    io.write_line_model(result.lines, lines_path, freqs=freqs, run_id=run_id)
    return [meas_path, hd_path, truth_path, lines_path]


def _cmd_calibrate(config, inputs, run_dir, seed, fmt, run_id):
    if len(inputs) != 2:
        raise ValueError("calibrate needs two inputs: <meas> <hd>")
    meas = io.ingest_spectrum(inputs[0], fmt)
    hd = io.ingest_spectrum(inputs[1], fmt)
    calibrated = calibration.calibrate_responses(meas, hd)
    out = run_dir / "calibrated.csv"
    io.write_spectrum(calibrated, out, run_id=run_id)
    return [out]


def _cmd_fit(config, inputs, run_dir, seed, fmt, run_id):
    if len(inputs) != 1:
        raise ValueError("fit needs one input: <calibrated spectrum>")
    calibrated = io.ingest_spectrum(inputs[0], fmt)
    init = estimation.initial_guess_from_spectrum(calibrated)
    report = estimation.fit_four_channel(calibrated, init, seed=seed)
    payload = _report_payload(report)
    payload["params_hz"] = {
        "gamma_a_hz": float(io.angular_to_hz(report.value("gamma_a"))),
        "gamma_b_hz": float(io.angular_to_hz(report.value("gamma_b"))),
        "f_ge_hz": float(io.angular_to_hz(report.value("omega_ge"))),
    }
    out = run_dir / "fit.json"
    _write_json(out, payload, run_id)
    return [out]


def _cmd_sweep_bias(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    flux = io.flux_model_from_config(config)
    fn = config["fluxnoise"]
    s_i = fn["s_i_a2_per_hz"]
    gphi0 = float(io.hz_to_angular(fn["gamma_phi0_hz"]))
    g = config["grid"]
    biases = np.linspace(g["bias_start_ma"], g["bias_stop_ma"], int(g["n_bias"]))
    freqs = _freq_grid(config)
    omega = io.hz_to_angular(freqs)

    e_map = np.empty((biases.size, freqs.size), dtype=complex)
    e_res = np.empty(biases.size)
    w_ges = np.empty(biases.size)
    gamma_phi_true = np.empty(biases.size)
    for i, ib in enumerate(biases):
        w_ges[i] = w_ge = model.omega_ge_of_bias(float(ib), flux)
        slope = float(flux.slope(float(ib))) * 1e3  # rad/s per A
        gamma_phi = math.pi * slope**2 * s_i + gphi0
        gamma_phi_true[i] = gamma_phi
        p = replace(cell, omega_ge=w_ge, gamma_phi=gamma_phi)
        e_map[i] = model.efficiency(omega - w_ge, p)
        e_res[i] = model.efficiency(0.0, p).real

    poly = estimation.fit_E_polynomial(e_res, biases, seed=seed)
    recon = np.array([
        estimation.gamma_phi_from_E(float(v), cell.gamma_a, cell.gamma_b)
        for v in np.minimum(e_res, 1.0)
    ])
    noise_fit = estimation.fit_flux_noise(recon, biases, flux, seed=seed)

    tables = {
        "efficiency_map.csv": (
            ["bias_ma", "freq_hz", "re_e", "im_e", "abs_e"],
            # scalar abs: the vectorised np.abs can round the last bit differently
            [np.repeat(biases, freqs.size), np.tile(freqs, biases.size),
             e_map.real, e_map.imag, np.array([abs(v) for v in e_map.ravel()])]),
        "resonant_efficiency.csv": (
            ["bias_ma", "e_res", "f_ge_hz"], [biases, e_res, io.angular_to_hz(w_ges)]),
        "gamma_phi_vs_bias.csv": (
            ["bias_ma", "gamma_phi_true_hz", "gamma_phi_recon_hz"],
            [biases, io.angular_to_hz(gamma_phi_true), io.angular_to_hz(recon)]),
    }
    written = []
    for name, (header, columns) in tables.items():
        path = run_dir / name
        io.write_columns(path, header, columns, run_id)
        written.append(path)
    fit_path = run_dir / "bias_fit.json"
    _write_json(fit_path, {
        "e_polynomial": _report_payload(poly),
        "flux_noise": _report_payload(noise_fit),
        "flux_noise_hz": {
            "s_i_a2_per_hz": noise_fit.value("s_i"),
            "gamma_phi0_hz": float(io.angular_to_hz(noise_fit.value("gamma_phi_0"))),
        },
    }, run_id)
    written.append(fit_path)
    return written


def _cmd_sweep_temp(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    th = config["thermal"]
    tc = model.ThermalCoefficients(
        gamma1_zero=float(io.hz_to_angular(th["gamma1_zero_hz"])),
        gamma_phi_zero_per_photon=float(io.hz_to_angular(th["gamma_phi_zero_hz"])),
    )
    g = config["grid"]
    temps = np.linspace(g["temp_start_k"], g["temp_stop_k"], int(g["n_temp"]))
    n_th = model.n_thermal(temps, cell.omega_ge)
    e = model.efficiency_thermal(n_th, cell.gamma_a, cell.gamma_b, tc)
    sigma = config["noise"]["sigma"]
    if sigma > 0:
        rng = np.random.default_rng(synth.derive_seed(seed, "sweep-temp"))
        e = e + sigma * rng.standard_normal(e.shape)
    fit = estimation.fit_thermal(e, temps, cell.gamma_a, cell.gamma_b,
                                 cell.omega_ge, seed=seed)
    table = run_dir / "thermal.csv"
    io.write_columns(table, ["temp_k", "n_th", "e_res"], [temps, n_th, e], run_id)
    fit_path = run_dir / "thermal_fit.json"
    _write_json(fit_path, {
        "fit": _report_payload(fit),
        "fit_hz": {
            "gamma1_zero_hz": float(io.angular_to_hz(fit.value("gamma1_zero"))),
            "gamma_phi_zero_hz": float(io.angular_to_hz(fit.value("gamma_phi_zero"))),
        },
    }, run_id)
    return [table, fit_path]


def _cmd_sweep_power(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    sat = config["saturation"]
    g = config["grid"]
    n_avg = np.geomspace(g["navg_min"], g["navg_max"], int(g["n_navg"]))
    # weak drive: the linear cell response on resonance; strong drive: the saturated cell
    low = model.cell_coefficients(cell.omega_ge, cell)
    high = synth.hd_cell_coefficients().real
    sigma = config["noise"]["sigma"]
    curves = []
    fits = {}
    for ch, a, weak in zip(model.CHANNELS, high, low):
        # scalar abs: the vectorised np.abs can round the last bit differently
        params = model.SaturationParams(a=a, b=a - abs(weak), c=sat["c"], d=sat["d"])
        mags = model.saturation_curve(n_avg, params)
        if sigma > 0:
            rng = np.random.default_rng(synth.derive_seed(seed, "sweep-power", ch))
            mags = mags + sigma * rng.standard_normal(mags.shape)
        curves.append(mags)
        fits[ch] = _report_payload(estimation.fit_saturation(mags, n_avg, seed=seed))
    table = run_dir / "saturation.csv"
    io.write_columns(table, ["n_avg", "channel", "magnitude"], [
        np.tile(n_avg, len(model.CHANNELS)),
        [ch for ch in model.CHANNELS for _ in n_avg],
        np.array(curves),
    ], run_id)
    fit_path = run_dir / "saturation_fit.json"
    _write_json(fit_path, {"fits": fits}, run_id)
    return [table, fit_path]


def _cmd_dressed(config, inputs, run_dir, seed, fmt, run_id):
    cell = io.cell_params_from_config(config)
    dr = config["dressed"]
    dm = model.DressedModel(
        lambda_red=float(io.hz_to_angular(dr["lambda_red_hz"])),
        lambda_blue=float(io.hz_to_angular(dr["lambda_blue_hz"])),
        omega_ge=cell.omega_ge,
        omega_ef=cell.omega_ef if cell.omega_ef is not None else cell.omega_ge,
    )
    g = config["grid"]
    photons = np.linspace(g["nphot_min"], g["nphot_max"], int(g["n_nphot"]))
    lines = model.dressed_lines(cell.omega_ge, photons, dm)
    freqs = [io.angular_to_hz(w)
             for w in (lines.ge_red, lines.ge_blue, lines.ef_red, lines.ef_blue)]
    table = run_dir / "dressed_lines.csv"
    io.write_columns(table, ["n_photons", "f_ge_red_hz", "f_ge_blue_hz",
                             "f_ef_red_hz", "f_ef_blue_hz"], [photons, *freqs], run_id)
    return [table]


def _cmd_report(config, inputs, run_dir, seed, fmt, run_id):
    if len(inputs) != 1:
        raise ValueError("report needs one input: <fit run directory or fit.json>")
    target = Path(inputs[0])
    fit_file = target / "fit.json" if target.is_dir() else target

    def mhz(x):
        return x / (2.0 * math.pi * 1e6)

    try:
        with fit_file.open() as fh:
            payload = json.load(fh)
        params = payload["params"]
        sigma = payload["sigma"]
        lines = [
            f"basic-cell fit summary (run: {run_id})",
            f"  source: {fit_file}",
            f"  converged: {payload['converged']} after {payload['n_iter']} evaluations",
            f"  residual norm: {payload['residual_norm']:.3e}",
            f"  gamma_a  = 2pi * {mhz(params['gamma_a']):.4f} +/- {mhz(sigma['gamma_a']):.4f} MHz",
            f"  gamma_b  = 2pi * {mhz(params['gamma_b']):.4f} +/- {mhz(sigma['gamma_b']):.4f} MHz",
            f"  f_ge     = {params['omega_ge'] / (2.0 * math.pi * 1e9):.6f} "
            f"+/- {sigma['omega_ge'] / (2.0 * math.pi * 1e9):.2e} GHz",
            f"  phi_a    = {params['phi_a'] / math.pi:+.4f} pi +/- {sigma['phi_a'] / math.pi:.4f} pi",
            f"  phi_b    = {params['phi_b'] / math.pi:+.4f} pi +/- {sigma['phi_b'] / math.pi:.4f} pi",
        ]
        if payload.get("flags"):
            lines.append(f"  flags: {', '.join(payload['flags'])}")
    except KeyError as exc:
        raise io.ParseError(f"fit file {fit_file} lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        # invalid JSON or UTF-8 (ValueError), a non-object or wrong-typed entry (TypeError)
        raise io.ParseError(f"fit file {fit_file} is malformed: {exc}") from None
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out = run_dir / "report.txt"
    out.write_text(text)
    return [out]


_PIPELINES = {
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "calibrate": _cmd_calibrate,
    "fit": _cmd_fit,
    "sweep-bias": _cmd_sweep_bias,
    "sweep-temp": _cmd_sweep_temp,
    "sweep-power": _cmd_sweep_power,
    "dressed": _cmd_dressed,
    "report": _cmd_report,
}


def run_command(subcommand: str, config, inputs=(), out_dir=".",
                seed: int | None = None, fmt: str = "csv",
                run_id: str | None = None) -> RunRecord:
    """Execute one pipeline subcommand and persist its run record.

    ``config`` may be a loaded configuration dict or a path to an INI
    file.  Outputs land in ``<out_dir>/runs/<run_id>/``; the returned
    record carries the config snapshot, input digests and output paths.
    """
    if subcommand not in _PIPELINES:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if not isinstance(config, dict):
        config = io.load_config(config)
    if seed is None:
        seed = int(config["run"]["seed"])
    if run_id is None:
        run_id = io.new_run_id(config, seed, subcommand)
    run_dir = Path(out_dir) / "runs" / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = [str(p) for p in inputs]
    outputs = _PIPELINES[subcommand](config, inputs, run_dir, seed, fmt, run_id)
    record = RunRecord(
        run_id=run_id,
        subcommand=subcommand,
        tool_version=TOOL_VERSION,
        seed=seed,
        config=config,
        input_digests={p: io.file_digest(p) for p in inputs if Path(p).is_file()},
        outputs=[str(p) for p in outputs],
    )
    save_path = io.save_run_record(record, run_dir)
    print(f"run {run_id}: wrote {len(outputs)} outputs under {run_dir}")
    for p in outputs + [save_path]:
        print(f"  {p}")
    return record


def _resolve(flag_value, env_name: str, config_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(_ENV_PREFIX + env_name)
    if env is not None:
        return env
    return config_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routercell",
        description="Model, calibrate and fit a two-waveguide router basic cell.",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="campaign seed (unsigned integer)")
    parser.add_argument("--out", help="output directory (default '.')")
    parser.add_argument("--format", choices=["csv", "s4p"], dest="fmt",
                        help="spectrum input format")
    parser.add_argument("--run-id", help="pin the run id (reproduces a recorded run)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("inputs", nargs="*", help="input files for this pipeline")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = _resolve(args.config, "CONFIG", None)
        config = io.load_config(config_path)
        seed = _resolve(args.seed, "SEED", config["run"]["seed"])
        out_dir = _resolve(args.out, "OUT", config["run"]["out"])
        fmt = _resolve(args.fmt, "FORMAT", config["run"]["format"])
        run_command(args.subcommand, config, args.inputs, out_dir=out_dir,
                    seed=int(seed), fmt=fmt, run_id=args.run_id)
    except (ValueError, RuntimeError, OSError) as exc:
        # covers ConfigError/ParseError/CalibrationError (ValueError),
        # FitError/CircleFitError/network errors (RuntimeError) and
        # unreadable inputs such as a missing file or a directory (OSError)
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
