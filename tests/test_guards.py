"""Typed-error guards: each input check raises its own exception type and message.

One row per guard that the rest of the suite never reaches, driven through
the public API where a call reaches it; warnings and flags that are not
exceptions follow the table.
"""

import json
import math

import numpy as np
import pytest

from routercell import _lsq, calibration, cli, estimation, model, network, synth

TWO_PI = 2.0 * math.pi
W_GE = TWO_PI * 6.163e9
FREQS = np.linspace(6.138e9, 6.188e9, 41)
CELL = model.CellParams(TWO_PI * 1.82e6, TWO_PI * 2.31e6, W_GE)
EYE = np.eye(2)


def clean_spectrum(traces=None):
    if traces is None:
        traces = model.cell_coefficients(TWO_PI * FREQS, CELL)
    return calibration.ChannelSpectrum(FREQS, traces)


def solve_from_non_finite_start():
    """The solver on residuals that are NaN from the start.

    No public call is known to reach it: the fits refuse non-finite samples,
    and ``CellParams`` now refuses the couplings whose sum overflowed, the
    route this row once took.
    """
    return _lsq.least_squares(lambda x: (np.full(3, np.nan), np.ones((3, 1))), [1.0])


def lines_with(s_in_a):
    return network.LineModel(s_in_a, EYE, EYE, EYE)


GUARDS = {
    "lsq-start-not-finite": (solve_from_non_finite_start,
                             ValueError, "residuals are not finite at the initial point"),
    "spectrum-empty-grid": (lambda: calibration.ChannelSpectrum(np.array([]), np.zeros((4, 0))),
                            ValueError, "freqs must be a nonempty 1-D array"),
    "spectrum-grid-not-finite": (lambda: calibration.ChannelSpectrum([1.0, np.inf], np.ones((4, 2))),
                                 ValueError, "freqs must be finite"),
    "circle-fit-few-samples": (lambda: calibration.circle_fit(np.ones(4), FREQS[:4]),
                               calibration.CircleFitError, "need at least 5 samples"),
    "efficiency-trace-floor": (lambda: estimation.efficiency_trace(clean_spectrum(np.zeros((4, 41)))),
                               estimation.FitError, "through channels below division floor at 41 points"),
    "gamma-phi-couplings": (lambda: estimation.gamma_phi_from_E(0.5, 0.0, 1.0),
                            ValueError, "couplings must be > 0"),
    "flux-noise-few-points": (lambda: estimation.fit_flux_noise(
                                  [1.0, 2.0], [0.0, 1.0], model.FluxModel(-1e9, W_GE)),
                              estimation.FitError, "need at least 3 bias points"),
    "t1-few-points": (lambda: estimation.fit_T1([0.9, 0.5, 0.3, 0.2], [0.0, 1.0, 2.0, 3.0]),
                      estimation.FitError, "need at least 5 delay points"),
    "rabi-few-points": (lambda: estimation.fit_rabi_decay(np.zeros(7), np.arange(7.0)),
                        estimation.FitError, "need at least 8 duration points"),
    "pca-one-setting": (lambda: estimation.pca_populations({0.0: np.ones(3)}, 0.0),
                        ValueError, "need at least 2 distinct settings"),
    "thermal-negative": (lambda: model.ThermalCoefficients(-1.0, 0.0),
                         ValueError, "thermal rate coefficients must be >= 0"),
    "dressed-coupling": (lambda: model.DressedModel(0.0, 1.0, W_GE, W_GE),
                         ValueError, "dressed coupling strengths must be > 0"),
    "resonant-efficiency-couplings": (lambda: model.resonant_efficiency(0.0, 1.0, 0.0),
                                      ValueError, "couplings must be > 0"),
    "efficiency-thermal-n-th": (lambda: model.efficiency_thermal(
                                    -1.0, 1.0, 1.0, model.ThermalCoefficients(0.0, 0.0)),
                                ValueError, "n_th must be >= 0"),
    "saturation-n-avg": (lambda: model.saturation_curve(-1.0, model.SaturationParams(1.0, 1.0, 1.0, 1.0)),
                         ValueError, "n_avg must be >= 0"),
    "dressed-photons": (lambda: model.dressed_lines(W_GE, -1.0, model.DressedModel(1.0, 1.0, W_GE, W_GE)),
                        ValueError, "n_photons must be >= 0"),
    "line-shape": (lambda: lines_with(np.eye(3)),
                   ValueError, "s_in_a must have shape (2, 2) or (n, 2, 2)"),
    "line-not-finite": (lambda: lines_with(np.full((2, 2), np.nan)),
                        ValueError, "s_in_a entries must be finite"),
    "neumann-order": (lambda: network.compose_neumann(
                          model.cell_smatrix(W_GE, CELL), network.ideal_lines(), -1),
                      ValueError, "order must be >= 0"),
    "cell-smatrix-omega-nan": (lambda: model.cell_smatrix(np.nan, CELL),
                               ValueError, "omega must be finite"),
    "cell-smatrix-omega-inf": (lambda: model.cell_smatrix(np.inf, CELL),
                               ValueError, "omega must be finite"),
    "line-spec-ripple": (lambda: synth.LineSpec(ripple_db=-1.0),
                         ValueError, "ripple_db must be >= 0"),
    "campaign-noise": (lambda: synth.CampaignConfig(CELL, synth.LineSpec(), FREQS, noise_sigma=-1.0),
                       ValueError, "noise_sigma must be >= 0"),
    "iq-sigma": (lambda: synth.gen_iq_shots([0.0], [0.0], 0j, 1 + 0j, sigma=-1.0, seed=0),
                 ValueError, "sigma must be >= 0"),
    "iq-channel": (lambda: synth.gen_iq_shots([0.0], [0.0], 0j, 1 + 0j, 0.1, 0, channel="sideways"),
                   ValueError, "channel must be 'through' or 'cross'"),
    "iq-settings": (lambda: synth.gen_iq_shots([0.0, 1.0], [0.0], 0j, 1 + 0j, 0.1, 0),
                    ValueError, "p_truth must match the settings list"),
    "cli-subcommand": (lambda: cli.run_command("bogus", None),
                       ValueError, "unknown subcommand 'bogus'"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def circle_past_the_span():
    """A resonance circle whose centre frequency sits just above the grid, one sample kicked."""
    kappa = 0.1 * (FREQS[-1] - FREQS[0])
    theta = 2.0 * np.arctan(2.0 * (FREQS - FREQS[-1] - 0.01 * kappa) / kappa)
    theta[0] -= 0.2  # past a half turn, so the trace passes the coverage check
    return calibration.circle_fit(0.5 + 0.5 * np.exp(1j * theta), FREQS)


T = np.linspace(0.0, 1e-6, 16)

WARNINGS = {
    "circle-outside-span": (circle_past_the_span, "fitted resonance lies outside the scanned span"),
    "t1-short-span": (lambda: estimation.fit_T1(0.9 * np.exp(-T / 5e-6), T),
                      "delay span is below twice the fitted T1"),
    "rabi-few-periods": (lambda: estimation.fit_rabi_decay(np.sin(np.pi * T / 2e-6) ** 2, T),
                         "fewer than 3 oscillation periods sampled"),
}


@pytest.mark.parametrize("call, message", WARNINGS.values(), ids=WARNINGS.keys())
def test_guard_warns(call, message):
    with pytest.warns(UserWarning, match=message):
        call()


def test_near_collinear_design_flagged_ill_conditioned():
    ib = 1000.0 + np.linspace(-1e-2, 1e-2, 7)
    report = estimation.fit_E_polynomial(0.5 + 0.01 * (ib - 1000.0), ib)
    assert "ill-conditioned" in report.flags


def test_line_beyond_unit_norm_is_not_passive():
    assert not lines_with(2.0 * EYE).is_passive()
    assert lines_with(EYE).is_passive()


def test_report_lists_fit_flags(tmp_path):
    names = ("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b")
    fit = {"params": dict.fromkeys(names, 1.0), "sigma": dict.fromkeys(names, 0.1),
           "converged": True, "n_iter": 3, "residual_norm": 0.0,
           "flags": ["ill-conditioned", "unidentifiable:phi_b"]}
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(fit))
    record = cli.run_command("report", None, [path], out_dir=tmp_path, run_id="flags")
    text = (tmp_path / "runs" / record.run_id / "report.txt").read_text()
    assert "  flags: ill-conditioned, unidentifiable:phi_b\n" in text
