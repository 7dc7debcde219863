"""Command-line surface: pipeline subcommands over the library.

Each subcommand is a pure pipeline step that returns its outputs by file
name and writes nothing.  :func:`run_command` alone checks the input
count, the seed and the run id, writes every output under
``<out>/runs/<run-id>/`` and adds a ``run.json`` record (config
snapshot, input digests, output list, tool version).  Output tables are
plain CSV ready for external plotting; no figures are rendered here.

``--seed`` and ``--out`` override the config's ``[run] seed`` and
``[run] out``.  A spectrum input is read as touchstone when its name
ends in ``.s4p`` and as CSV otherwise, so one run may mix the two.
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
from .network import LineModel


def _freq_grid(config: dict) -> np.ndarray:
    g = config["grid"]
    return np.linspace(g["f_start_hz"], g["f_stop_hz"], int(g["n_points"]))


# ---------------------------------------------------------------------------
# subcommand pipelines: each returns {file name: artefact} and writes nothing


def _cmd_simulate(config, inputs, seed, run_id):
    cell = io.cell_params_from_config(config)
    freqs = _freq_grid(config)
    coeffs = model.cell_coefficients(io.hz_to_angular(freqs), cell)
    spectrum = calibration.ChannelSpectrum(freqs, coeffs)
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
    return {
        "spectrum.csv": spectrum,
        "magphase.csv": (["freq_hz", "channel", "mag", "mag_db", "phase_rad"], columns),
    }


def _cmd_synth(config, inputs, seed, run_id):
    cell = io.cell_params_from_config(config)
    campaign = synth.CampaignConfig(
        cell=cell, lines=synth.LineSpec(**config["lines"]), freqs=_freq_grid(config),
        noise_sigma=config["noise"]["sigma"], seed=seed,
    )
    result = synth.gen_spectrum(campaign)
    truth = result.truth
    freqs = campaign.freqs if result.lines.n_points is not None else None
    return {
        "meas.csv": result.meas,
        "hd.csv": result.hd,
        "truth.json": {"seed": seed, "truth": {
            "gamma_a_hz": float(io.angular_to_hz(truth.gamma_a)),
            "gamma_b_hz": float(io.angular_to_hz(truth.gamma_b)),
            "f_ge_hz": float(io.angular_to_hz(truth.omega_ge)),
            "phi_a_rad": truth.phi_a,
            "phi_b_rad": truth.phi_b,
            "gamma_phi_hz": float(io.angular_to_hz(truth.gamma_phi)),
            "gamma_bath_hz": float(io.angular_to_hz(truth.gamma_bath)),
        }},
        "lines.csv": (result.lines, freqs),
    }


def _cmd_calibrate(config, inputs, seed, run_id):
    meas, hd = (io.ingest_spectrum(path) for path in inputs)
    return {"calibrated.csv": calibration.calibrate_responses(meas, hd)}


def _cmd_fit(config, inputs, seed, run_id):
    calibrated = io.ingest_spectrum(inputs[0])
    init = estimation.initial_guess_from_spectrum(calibrated)
    report = estimation.fit_four_channel(calibrated, init, seed=seed)
    return {"fit.json": {**asdict(report), "params_hz": {
        "gamma_a_hz": float(io.angular_to_hz(report.value("gamma_a"))),
        "gamma_b_hz": float(io.angular_to_hz(report.value("gamma_b"))),
        "f_ge_hz": float(io.angular_to_hz(report.value("omega_ge"))),
    }}}


def _cmd_sweep_bias(config, inputs, seed, run_id):
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

    return {
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
        "bias_fit.json": {
            "e_polynomial": asdict(poly),
            "flux_noise": asdict(noise_fit),
            "flux_noise_hz": {
                "s_i_a2_per_hz": noise_fit.value("s_i"),
                "gamma_phi0_hz": float(io.angular_to_hz(noise_fit.value("gamma_phi_0"))),
            },
        },
    }


def _cmd_sweep_temp(config, inputs, seed, run_id):
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
    return {
        "thermal.csv": (["temp_k", "n_th", "e_res"], [temps, n_th, e]),
        "thermal_fit.json": {
            "fit": asdict(fit),
            "fit_hz": {
                "gamma1_zero_hz": float(io.angular_to_hz(fit.value("gamma1_zero"))),
                "gamma_phi_zero_hz": float(io.angular_to_hz(fit.value("gamma_phi_zero"))),
            },
        },
    }


def _cmd_sweep_power(config, inputs, seed, run_id):
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
        fits[ch] = asdict(estimation.fit_saturation(mags, n_avg, seed=seed))
    return {
        "saturation.csv": (["n_avg", "channel", "magnitude"], [
            np.tile(n_avg, len(model.CHANNELS)),
            [ch for ch in model.CHANNELS for _ in n_avg],
            np.array(curves),
        ]),
        "saturation_fit.json": {"fits": fits},
    }


def _cmd_dressed(config, inputs, seed, run_id):
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
    return {"dressed_lines.csv": (["n_photons", "f_ge_red_hz", "f_ge_blue_hz",
                                   "f_ef_red_hz", "f_ef_blue_hz"], [photons, *freqs])}


def _cmd_report(config, inputs, seed, run_id):
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
    return {"report.txt": text}


#: Each subcommand's step and the names of the inputs it takes, in order.
_PIPELINES = {
    "simulate": (_cmd_simulate, ()),
    "synth": (_cmd_synth, ()),
    "calibrate": (_cmd_calibrate, ("meas", "hd")),
    "fit": (_cmd_fit, ("calibrated",)),
    "sweep-bias": (_cmd_sweep_bias, ()),
    "sweep-temp": (_cmd_sweep_temp, ()),
    "sweep-power": (_cmd_sweep_power, ()),
    "dressed": (_cmd_dressed, ()),
    "report": (_cmd_report, ("fit-run-dir|fit.json",)),
}

SUBCOMMANDS = tuple(_PIPELINES)


def _usage(subcommand: str) -> str:
    """The inputs a subcommand takes, e.g. ``two inputs <meas> <hd>``."""
    names = _PIPELINES[subcommand][1]
    return " ".join([("no inputs", "one input", "two inputs")[len(names)],
                     *(f"<{name}>" for name in names)])


def _write(path: Path, artefact, run_id: str) -> None:
    """Write one pipeline output, choosing the writer by the artefact's kind."""
    if isinstance(artefact, calibration.ChannelSpectrum):
        io.write_spectrum(artefact, path, run_id=run_id)
    elif isinstance(artefact, dict):
        path.write_text(json.dumps({"run": run_id, **artefact}, indent=2, sort_keys=True) + "\n")
    elif isinstance(artefact, str):
        path.write_text(artefact)
    elif isinstance(artefact[0], LineModel):
        io.write_line_model(artefact[0], path, freqs=artefact[1], run_id=run_id)
    else:
        io.write_columns(path, *artefact, run_id)


def run_command(subcommand: str, config, inputs=(), out_dir=None,
                seed: int | None = None, run_id: str | None = None) -> RunRecord:
    """Execute one pipeline subcommand and persist its run record.

    ``config`` may be a loaded configuration dict or a path to an INI
    file; ``out_dir`` and ``seed`` default to its ``[run] out`` and
    ``[run] seed``.  Outputs land in ``<out_dir>/runs/<run_id>/``; the
    returned record carries the config snapshot, input digests and output
    paths.  A given ``run_id`` must be one directory name: not empty, not
    ``.`` or ``..``, free of path separators, and printable, so that it
    fits on the one ``# run:`` comment line of every table it stamps.
    """
    if run_id is not None and (run_id in ("", ".", "..") or not run_id.isprintable()
                               or any(sep and sep in run_id for sep in ("/", os.sep, os.altsep))):
        raise ValueError(f"run id {run_id!r} is not a single directory name")
    if subcommand not in _PIPELINES:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    step, names = _PIPELINES[subcommand]
    inputs = [str(p) for p in inputs]
    if len(inputs) != len(names):
        raise ValueError(f"{subcommand} takes {_usage(subcommand)}, got {len(inputs)}")
    if not isinstance(config, dict):
        config = io.load_config(config)
    if seed is None:
        seed = int(config["run"]["seed"])
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; the campaign seed is unsigned")
    if out_dir is None:
        out_dir = config["run"]["out"]
    if run_id is None:
        run_id = io.new_run_id(config, seed, subcommand)
    artefacts = step(config, inputs, seed, run_id)
    run_dir = Path(out_dir) / "runs" / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, artefact in artefacts.items():
        _write(run_dir / name, artefact, run_id)
    record = RunRecord(
        run_id=run_id,
        subcommand=subcommand,
        tool_version=TOOL_VERSION,
        seed=seed,
        config=config,
        input_digests={p: io.file_digest(p) for p in inputs if Path(p).is_file()},
        outputs=[str(run_dir / name) for name in artefacts],
    )
    save_path = io.save_run_record(record, run_dir)
    print(f"run {run_id}: wrote {len(artefacts)} outputs under {run_dir}")
    for p in [*record.outputs, save_path]:
        print(f"  {p}")
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routercell",
        description="Model, calibrate and fit a two-waveguide router basic cell.",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="unsigned campaign seed (default: [run] seed, 0)")
    parser.add_argument("--out", help="output directory (default: [run] out, '.')")
    parser.add_argument("--run-id", help="pin the run id (reproduces a recorded run)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline ({_usage(name)})")
        p.add_argument("inputs", nargs="*", help=_usage(name))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run_command(args.subcommand, io.load_config(args.config), args.inputs,
                    out_dir=args.out, seed=args.seed, run_id=args.run_id)
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
