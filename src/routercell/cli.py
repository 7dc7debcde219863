"""Command-line surface: pipeline subcommands over the library.

Each subcommand is a pure pipeline step that returns its outputs by file
name and writes nothing.  :func:`run_command` alone checks the input
count, the seed and the run id, writes every output under
``<out>/runs/<run-id>/`` and adds a ``run.json`` record (config
snapshot, input digests, output list, tool version).  Output tables are
plain CSV ready for external plotting; no figures are rendered here.
Each step imports numpy and the library layers it uses inside itself, so
``report`` runs on the standard library alone.

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

from . import runs

TWO_PI = 2.0 * math.pi


def _freq_grid(config: dict):
    import numpy as np

    g = config["grid"]
    return np.linspace(g["f_start_hz"], g["f_stop_hz"], int(g["n_points"]))


def _add_real_noise(values, config: dict, seed: int, *keys):
    """``values`` plus real Gaussian noise of ``[noise] sigma`` (>= 0), seeded by ``seed, keys``."""
    import numpy as np

    from . import synth

    sigma = config["noise"]["sigma"]
    if sigma < 0:
        raise ValueError(f"[noise] sigma must be >= 0, got {sigma!r}")
    if sigma == 0:
        return values
    rng = np.random.default_rng(synth.derive_seed(seed, *keys))
    return values + sigma * rng.standard_normal(values.shape)


# ---------------------------------------------------------------------------
# subcommand pipelines: each returns {file name: artefact} and writes nothing


def _cmd_simulate(config, inputs, seed, run_id):
    import numpy as np

    from . import calibration, model, presets

    cell = presets.cell_params_from_config(config)
    freqs = _freq_grid(config)
    coeffs = model.cell_coefficients(TWO_PI * freqs, cell)
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
    from . import presets, synth

    cell = presets.cell_params_from_config(config)
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
            "gamma_a_hz": truth.gamma_a / TWO_PI,
            "gamma_b_hz": truth.gamma_b / TWO_PI,
            "f_ge_hz": truth.omega_ge / TWO_PI,
            "phi_a_rad": truth.phi_a,
            "phi_b_rad": truth.phi_b,
            "gamma_phi_hz": truth.gamma_phi / TWO_PI,
            "gamma_bath_hz": truth.gamma_bath / TWO_PI,
        }},
        "lines.csv": (result.lines, freqs),
    }


def _cmd_calibrate(config, inputs, seed, run_id):
    from . import calibration, io

    meas, hd = (io.ingest_spectrum(path) for path in inputs)
    return {"calibrated.csv": calibration.calibrate_responses(meas, hd)}


def _cmd_fit(config, inputs, seed, run_id):
    from . import estimation, io

    calibrated = io.ingest_spectrum(inputs[0])
    init = estimation.initial_guess_from_spectrum(calibrated)
    report = estimation.fit_four_channel(calibrated, init, seed=seed)
    return {"fit.json": {**asdict(report), "params_hz": {
        "gamma_a_hz": report.value("gamma_a") / TWO_PI,
        "gamma_b_hz": report.value("gamma_b") / TWO_PI,
        "f_ge_hz": report.value("omega_ge") / TWO_PI,
    }}}


def _cmd_sweep_bias(config, inputs, seed, run_id):
    import numpy as np

    from . import estimation, model, presets

    cell = presets.cell_params_from_config(config)
    flux = presets.flux_model_from_config(config)
    s_i, gphi0 = presets.flux_noise_from_config(config)
    g = config["grid"]
    biases = np.linspace(g["bias_start_ma"], g["bias_stop_ma"], int(g["n_bias"]))
    freqs = _freq_grid(config)
    omega = TWO_PI * freqs

    w_ges = model.omega_ge_of_bias(biases, flux)
    gamma_phi_true = model.gamma_phi_of_bias(biases, flux, s_i, gphi0)
    cells = [replace(cell, omega_ge=w, gamma_phi=r) for w, r in zip(w_ges, gamma_phi_true)]
    e_map = np.array([model.efficiency(omega - p.omega_ge, p) for p in cells])
    e_res = np.array([model.efficiency(0.0, p).real for p in cells])

    poly = estimation.fit_E_polynomial(e_res, biases, seed=seed)
    recon = estimation.gamma_phi_from_E(e_res, cell.gamma_a, cell.gamma_b)
    noise_fit = estimation.fit_flux_noise(recon, biases, flux, seed=seed)

    return {
        "efficiency_map.csv": (
            ["bias_ma", "freq_hz", "re_e", "im_e", "abs_e"],
            # scalar abs: the vectorised np.abs can round the last bit differently
            [np.repeat(biases, freqs.size), np.tile(freqs, biases.size),
             e_map.real.ravel(), e_map.imag.ravel(), np.array([abs(v) for v in e_map.ravel()])]),
        "resonant_efficiency.csv": (
            ["bias_ma", "e_res", "f_ge_hz"], [biases, e_res, w_ges / TWO_PI]),
        "gamma_phi_vs_bias.csv": (
            ["bias_ma", "gamma_phi_true_hz", "gamma_phi_recon_hz"],
            [biases, gamma_phi_true / TWO_PI, recon / TWO_PI]),
        "bias_fit.json": {
            "e_polynomial": asdict(poly),
            "flux_noise": asdict(noise_fit),
            "flux_noise_hz": {
                "s_i_a2_per_hz": noise_fit.value("s_i"),
                "gamma_phi0_hz": noise_fit.value("gamma_phi_0") / TWO_PI,
            },
        },
    }


def _cmd_sweep_temp(config, inputs, seed, run_id):
    import numpy as np

    from . import estimation, model, presets

    cell = presets.cell_params_from_config(config)
    tc = presets.thermal_coefficients_from_config(config)
    g = config["grid"]
    temps = np.linspace(g["temp_start_k"], g["temp_stop_k"], int(g["n_temp"]))
    n_th = model.n_thermal(temps, cell.omega_ge)
    e = model.efficiency_thermal(n_th, cell.gamma_a, cell.gamma_b, tc)
    e = _add_real_noise(e, config, seed, "sweep-temp")
    fit = estimation.fit_thermal(e, temps, cell.gamma_a, cell.gamma_b,
                                 cell.omega_ge, seed=seed)
    return {
        "thermal.csv": (["temp_k", "n_th", "e_res"], [temps, n_th, e]),
        "thermal_fit.json": {
            "fit": asdict(fit),
            "fit_hz": {
                "gamma1_zero_hz": fit.value("gamma1_zero") / TWO_PI,
                "gamma_phi_zero_hz": fit.value("gamma_phi_zero") / TWO_PI,
            },
        },
    }


def _cmd_sweep_power(config, inputs, seed, run_id):
    import numpy as np

    from . import estimation, model, presets, synth

    cell = presets.cell_params_from_config(config)
    sat = config["saturation"]
    g = config["grid"]
    n_avg = np.geomspace(g["navg_min"], g["navg_max"], int(g["n_navg"]))
    # weak drive: the linear cell response on resonance; strong drive: the saturated cell
    low = model.cell_coefficients(cell.omega_ge, cell)
    high = synth.hd_cell_coefficients().real
    curves = []
    fits = {}
    for ch, a, weak in zip(model.CHANNELS, high, low):
        # scalar abs: the vectorised np.abs can round the last bit differently
        params = model.SaturationParams(a=a, b=a - abs(weak), c=sat["c"], d=sat["d"])
        mags = model.saturation_curve(n_avg, params)
        mags = _add_real_noise(mags, config, seed, "sweep-power", ch)
        curves.append(mags)
        fits[ch] = asdict(estimation.fit_saturation(mags, n_avg, seed=seed))
    return {
        "saturation.csv": (["n_avg", "channel", "magnitude"], [
            np.tile(n_avg, len(model.CHANNELS)),
            [ch for ch in model.CHANNELS for _ in n_avg],
            np.concatenate(curves),
        ]),
        "saturation_fit.json": {"fits": fits},
    }


def _cmd_dressed(config, inputs, seed, run_id):
    import numpy as np

    from . import model, presets

    dm = presets.dressed_model_from_config(config)
    g = config["grid"]
    photons = np.linspace(g["nphot_min"], g["nphot_max"], int(g["n_nphot"]))
    lines = model.dressed_lines(dm.omega_ge, photons, dm)
    freqs = [w / TWO_PI for w in (lines.ge_red, lines.ge_blue, lines.ef_red, lines.ef_blue)]
    return {"dressed_lines.csv": (["n_photons", "f_ge_red_hz", "f_ge_blue_hz",
                                   "f_ef_red_hz", "f_ef_blue_hz"], [photons, *freqs])}


def _cmd_report(config, inputs, seed, run_id):
    target = Path(inputs[0])
    fit_file = target / "fit.json" if target.is_dir() else target

    def mhz(x):
        return x / (TWO_PI * 1e6)

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
            f"  f_ge     = {params['omega_ge'] / (TWO_PI * 1e9):.6f} "
            f"+/- {sigma['omega_ge'] / (TWO_PI * 1e9):.2e} GHz",
            f"  phi_a    = {params['phi_a'] / math.pi:+.4f} pi +/- {sigma['phi_a'] / math.pi:.4f} pi",
            f"  phi_b    = {params['phi_b'] / math.pi:+.4f} pi +/- {sigma['phi_b'] / math.pi:.4f} pi",
        ]
        if payload.get("flags"):
            lines.append(f"  flags: {', '.join(payload['flags'])}")
    except KeyError as exc:
        raise runs.ParseError(f"fit file {fit_file} lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        # invalid JSON or UTF-8 (ValueError), a non-object or wrong-typed entry (TypeError)
        raise runs.ParseError(f"fit file {fit_file} is malformed: {exc}") from None
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
    if isinstance(artefact, dict):
        path.write_text(json.dumps({"run": run_id, **artefact}, indent=2, sort_keys=True) + "\n")
    elif isinstance(artefact, str):
        path.write_text(artefact)
    else:  # a table: only its writers need numpy
        from . import io
        from .calibration import ChannelSpectrum
        from .network import LineModel

        if isinstance(artefact, ChannelSpectrum):
            io.write_spectrum(artefact, path, run_id=run_id)
        elif isinstance(artefact[0], LineModel):
            io.write_line_model(artefact[0], path, freqs=artefact[1], run_id=run_id)
        else:
            io.write_columns(path, *artefact, run_id)


def run_command(subcommand: str, config, inputs=(), out_dir=None,
                seed: int | None = None, run_id: str | None = None) -> runs.RunRecord:
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
        config = runs.load_config(config)
    if seed is None:
        seed = int(config["run"]["seed"])
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; the campaign seed is unsigned")
    if out_dir is None:
        out_dir = config["run"]["out"]
    digests = {p: runs.file_digest(p) for p in inputs if Path(p).is_file()}
    if run_id is None:
        # a non-file input, such as a fit run directory, is known by its path
        run_id = runs.new_run_id(config, seed, subcommand, [digests.get(p, p) for p in inputs])
    artefacts = step(config, inputs, seed, run_id)
    run_dir = Path(out_dir) / "runs" / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, artefact in artefacts.items():
        _write(run_dir / name, artefact, run_id)
    record = runs.RunRecord(
        run_id=run_id,
        subcommand=subcommand,
        tool_version=runs.TOOL_VERSION,
        seed=seed,
        config=config,
        input_digests=digests,
        outputs=[str(run_dir / name) for name in artefacts],
    )
    save_path = runs.save_run_record(record, run_dir)
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
    # numpy reads this when a step first imports it; a count the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        run_command(args.subcommand, runs.load_config(args.config), args.inputs,
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
