"""Typed-error guards: each input check raises its own exception type and message.

One row per guard that the rest of the suite never reaches, driven through
the public API where a call reaches it; warnings and flags that are not
exceptions follow the table.
"""

import dataclasses
import json
import math
from unittest import mock

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


def circle_fit_from_non_finite_start():
    """``circle_fit`` when the solver refuses its start as not finite.

    No public call is known to reach it: the samples are finite and in units
    of the largest, and no trace is known whose Levy start has residuals
    that are not finite.  So the solver is handed
    :func:`solve_from_non_finite_start`'s problem instead of the resonance.
    """
    with mock.patch.object(calibration, "least_squares", lambda *_: solve_from_non_finite_start()):
        return calibration.circle_fit(clean_spectrum().channel("AA"), FREQS)


def lines_with(a_in):
    return network.LineModel([a_in, EYE, EYE, EYE])


GUARDS = {
    "lsq-start-not-finite": (solve_from_non_finite_start,
                             ValueError, "residuals are not finite at the initial point"),
    "spectrum-empty-grid": (lambda: calibration.ChannelSpectrum(np.array([]), np.zeros((4, 0))),
                            ValueError, "strictly increasing 1-D grid of 1 or more points"),
    "spectrum-unknown-channel": (lambda: clean_spectrum().channel("XY"),
                                 ValueError, "unknown channel 'XY'; the channels are AA, BB, AB, BA"),
    "spectrum-grid-not-finite": (lambda: calibration.ChannelSpectrum([1.0, np.inf], np.ones((4, 2))),
                                 ValueError, "freqs must be a finite, strictly increasing 1-D grid"),
    "circle-fit-few-samples": (lambda: calibration.circle_fit(np.ones(4), FREQS[:4]),
                               calibration.CircleFitError, "need at least 5 samples"),
    # a real trace gives Levy's solve a real pole: a line, not a circle, in the complex plane
    "circle-fit-real-pole": (lambda: calibration.circle_fit(np.linspace(-1, 1, 41) ** 2 + 0j, FREQS),
                             calibration.CircleFitError, "lies on the real axis"),
    # a subnormal unit: the scaled samples would overflow, and LAPACK stalls on infinities
    "circle-fit-subnormal-unit": (lambda: calibration.circle_fit(1e-320 * clean_spectrum().channel("AA"),
                                                                 FREQS),
                                  calibration.CircleFitError,
                                  "samples in units of the largest magnitude 9.91e-321 are not finite"),
    "circle-fit-start-not-finite": (circle_fit_from_non_finite_start, calibration.CircleFitError,
                                    "no resonance fit from the start: residuals are not finite"),
    "loss-budget-width-nan": (lambda: calibration.loss_budget(
                                  dataclasses.replace(CIRCLE, kappa_loaded=math.nan), CIRCLE, 1.0, 1.0),
                              ValueError, "fit_aa.kappa_loaded must be finite and > 0, got nan"),
    "loss-budget-width-negative": (lambda: calibration.loss_budget(
                                       CIRCLE, dataclasses.replace(CIRCLE, kappa_loaded=-5.0), 1.0, 1.0),
                                   ValueError, "fit_bb.kappa_loaded must be finite and > 0, got -5.0"),
    "efficiency-trace-floor": (lambda: estimation.efficiency_trace(clean_spectrum(np.zeros((4, 41)))),
                               estimation.FitError, "through channels below division floor at 41 points"),
    "gamma-phi-couplings": (lambda: estimation.gamma_phi_from_E(0.5, 0.0, 1.0),
                            ValueError, "couplings must be > 0"),
    "coupling-limited-t1-couplings": (lambda: estimation.coupling_limited_t1(0.0, 0.0),
                                      ValueError, "couplings must be > 0"),
    # two distinct biases for three coefficients
    "e-polynomial-rank": (lambda: estimation.fit_E_polynomial([0.9, 0.9, 0.8, 0.8], [0, 0, 1, 1]),
                          estimation.FitError, "rank-deficient design matrix"),
    # a bias-independent slope: its column is parallel to the intercept's
    "flux-noise-rank": (lambda: estimation.fit_flux_noise(
                            [1.0, 2.0, 3.0], [0.0, 1.0, 2.0], model.FluxModel(0.0, W_GE, linear=1e6)),
                        estimation.FitError, "rank-deficient design matrix"),
    "pca-one-setting": (lambda: estimation.pca_populations({0.0: np.ones(3)}, 0.0),
                        ValueError, "need at least 2 distinct settings"),
    "thermal-negative": (lambda: model.ThermalCoefficients(-1.0, 0.0),
                         ValueError, "thermal rate coefficients must be >= 0"),
    "dressed-coupling": (lambda: model.DressedModel(0.0, 1.0, W_GE, W_GE),
                         ValueError, "dressed coupling strengths must be > 0"),
    "resonant-efficiency-couplings": (lambda: model.resonant_efficiency(0.0, 1.0, 0.0),
                                      ValueError, "couplings must be > 0"),
    "resonant-efficiency-rate": (lambda: model.resonant_efficiency(1.0, 1.0, -0.5),
                                 ValueError, "rate must be >= 0"),
    "coherence-rate-n-th": (lambda: model.ThermalCoefficients(1.0, 1.0).coherence_rate([0.0, -1.0]),
                            ValueError, "n_th must be >= 0"),
    "efficiency-thermal-n-th": (lambda: model.efficiency_thermal(
                                    -1.0, 1.0, 1.0, model.ThermalCoefficients(0.0, 0.0)),
                                ValueError, "n_th must be >= 0"),
    "saturation-n-avg": (lambda: model.saturation_curve(-1.0, model.SaturationParams(1.0, 1.0, 1.0, 1.0)),
                         ValueError, "n_avg must be >= 0"),
    "dressed-photons": (lambda: model.dressed_lines(W_GE, -1.0, model.DressedModel(1.0, 1.0, W_GE, W_GE)),
                        ValueError, "n_photons must be >= 0"),
    "line-shape": (lambda: network.LineModel([EYE, EYE, EYE]),
                   ValueError, "two_ports must have shape (4, 2, 2) or (4, n, 2, 2)"),
    "line-not-finite": (lambda: lines_with(np.full((2, 2), np.nan)),
                        ValueError, "A-in line entries must be finite"),
    "neumann-order": (lambda: network.compose_neumann(
                          model.cell_smatrix(W_GE, CELL), network.ideal_lines(), -1),
                      ValueError, "order must be >= 0"),
    "cell-smatrix-omega-nan": (lambda: model.cell_smatrix(np.nan, CELL),
                               ValueError, "omega must be finite"),
    "cell-smatrix-omega-inf": (lambda: model.cell_smatrix(np.inf, CELL),
                               ValueError, "omega must be finite"),
    # numpy 1.24 converts a one-element array with float(), numpy 2 refuses it with a bare TypeError
    "cell-smatrix-omega-array": (lambda: model.cell_smatrix(np.array([W_GE]), CELL),
                                 ValueError, "omega must be a scalar, got shape (1,)"),
    "line-spec-ripple": (lambda: synth.LineSpec(ripple_db=-1.0),
                         ValueError, "ripple_db must be >= 0"),
    "campaign-noise": (lambda: synth.CampaignConfig(CELL, synth.LineSpec(), FREQS, noise_sigma=-1.0),
                       ValueError, "noise_sigma must be >= 0"),
    "iq-sigma": (lambda: synth.gen_iq_shots([0.0], [0.0], 0j, 1 + 0j, sigma=-1.0, seed=0),
                 ValueError, "sigma must be >= 0"),
    "iq-settings": (lambda: synth.gen_iq_shots([0.0, 1.0], [0.0], 0j, 1 + 0j, 0.1, 0),
                    ValueError, "p_truth must match the settings list"),
    "iq-repeated-setting": (lambda: synth.gen_iq_shots(
                                [0.0, 0.5, 0.5], [0.0, 0.3, 0.7], 0j, 1 + 0j, 0.1, 0),
                            ValueError, "settings must be distinct"),
    "iq-population-nan": (lambda: synth.gen_iq_shots([0.0, 1.0, 2.0], [0.0, np.nan, 2.0], 0j, 1 + 0j,
                                                     0.1, 0),
                          ValueError, "p_truth must lie in [0, 1]; population 1 is nan"),
    "iq-population-above-one": (lambda: synth.gen_iq_shots([0.0, 1.0], [0.0, 1.7], 0j, 1 + 0j, 0.1, 0),
                                ValueError, "p_truth must lie in [0, 1]; population 1 is 1.7"),
    "iq-seed-float": (lambda: synth.gen_iq_shots([0.0], [0.0], 0j, 1 + 0j, 0.1, seed=2.0),
                      ValueError, "seed and keys must be non-negative integers, got 2.0"),
    "spectrum-seed-fraction": (lambda: synth.gen_spectrum(
                                   synth.CampaignConfig(CELL, synth.LineSpec(), FREQS, seed=1.5)),
                               ValueError, "seed and keys must be non-negative integers, got 1.5"),
    "lines-seed-negative": (lambda: synth.gen_lines(synth.LineSpec(), seed=-1),
                            ValueError, "seed and keys must be non-negative integers, got -1"),
    "seed-key-negative": (lambda: synth.derive_seed(0, "iq", -1),
                          ValueError, "seed and keys must be non-negative integers, got -1"),
    "cli-subcommand": (lambda: cli.run_command("bogus", None),
                       ValueError, "unknown subcommand 'bogus'"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


#: A valid instance of each parameter object, and the float fields it must refuse non-finite.
PARAMETER_OBJECTS = {
    "LineSpec": (synth.LineSpec(), ("transmission_db", "jitter_db", "reflection_bound",
                                    "isolation_db", "ripple_db", "ripple_periods")),
    "ThermalCoefficients": (model.ThermalCoefficients(1.0, 1.0), ("gamma1_zero", "gamma_phi_zero")),
    "SaturationParams": (model.SaturationParams(1.0, 0.5, 1.0, 1.0), ("a", "b", "c", "d")),
    "DressedModel": (model.DressedModel(1.0, 1.0, W_GE, W_GE),
                     ("lambda_red", "lambda_blue", "omega_ge", "omega_ef")),
    "CampaignConfig": (synth.CampaignConfig(CELL, synth.LineSpec(), FREQS), ("noise_sigma",)),
}
NON_FINITE_FIELDS = [(valid, field) for valid, fields in PARAMETER_OBJECTS.values() for field in fields]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("valid, field", NON_FINITE_FIELDS,
                         ids=[f"{type(v).__name__}.{f}" for v, f in NON_FINITE_FIELDS])
def test_parameter_object_refuses_a_non_finite_field(valid, field, bad):
    dataclasses.replace(valid)  # the unchanged instance builds
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        dataclasses.replace(valid, **{field: bad})


SATURATION = model.SaturationParams(1.0, 1.0, 1.0, 1.0)
DRESSED = model.DressedModel(1.0, 1.0, W_GE, W_GE)
CIRCLE = calibration.CircleFitResult(W_GE, 1e7, 0.5, 1.0 + 0j)

#: Sign guards that NaN must fail: a test written ``x < 0`` lets it through.
NAN_GUARDS = {
    "n-thermal-temperature": (lambda: model.n_thermal(math.nan, W_GE), "temperature must be > 0"),
    "n-thermal-omega": (lambda: model.n_thermal(0.02, [W_GE, math.nan]), "omega must be > 0"),
    "photons-in-pulse": (lambda: model.photons_in_pulse(math.nan, 50.0, 1e-6, W_GE),
                         "photons_in_pulse requires nonnegative amplitude"),
    "saturation-curve": (lambda: model.saturation_curve([1.0, math.nan], SATURATION),
                         "n_avg must be >= 0"),
    "dressed-lines": (lambda: model.dressed_lines(W_GE, math.nan, DRESSED), "n_photons must be >= 0"),
    "efficiency-thermal": (lambda: model.efficiency_thermal(
                               math.nan, 1.0, 1.0, model.ThermalCoefficients(0.0, 0.0)),
                           "n_th must be >= 0"),
    "iq-sigma": (lambda: synth.gen_iq_shots([0.0], [0.0], 0j, 1 + 0j, sigma=math.nan, seed=0),
                 "sigma must be >= 0"),
    "resonant-efficiency": (lambda: model.resonant_efficiency(math.nan, 1.0, 0.0), "couplings must be > 0"),
    "resonant-efficiency-rate": (lambda: model.resonant_efficiency(1.0, 1.0, math.nan), "rate must be >= 0"),
    "coherence-rate": (lambda: model.ThermalCoefficients(1.0, 1.0).coherence_rate(math.nan),
                       "n_th must be >= 0"),
    "gamma-phi-from-e": (lambda: estimation.gamma_phi_from_E(0.5, 1.0, math.nan), "couplings must be > 0"),
    "rate-budget": (lambda: estimation.rate_budget(1.0, 1.0, math.nan, 1.0), "couplings must be > 0"),
    "loss-budget": (lambda: calibration.loss_budget(CIRCLE, CIRCLE, math.nan, 1.0),
                    "couplings must be > 0"),
}


@pytest.mark.parametrize("call, message", NAN_GUARDS.values(), ids=NAN_GUARDS.keys())
def test_nan_fails_the_sign_guard(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


#: Each record that holds arrays, built twice from equal arguments.
ARRAY_RECORDS = {
    "PortMatrix": lambda: network.PortMatrix(np.eye(4)),
    "LineModel": lambda: network.LineModel(np.broadcast_to(EYE, (4, 3, 2, 2)), isolation=np.zeros(3)),
    "ChannelSpectrum": clean_spectrum,
    "CampaignConfig": lambda: synth.CampaignConfig(CELL, synth.LineSpec(), FREQS),
    "SynthSpectrum": lambda: synth.gen_spectrum(synth.CampaignConfig(CELL, synth.LineSpec(), FREQS)),
    "PopulationTrace": lambda: estimation.PopulationTrace(T, np.zeros(T.size)),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_record_compares_by_identity(build):
    # a field-wise == on equal arrays would raise "truth value ... is ambiguous"
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


#: Each array a record holds: a fresh array for the caller, and the record's copy built from it.
RECORD_COPIES = {
    "PortMatrix": (lambda: np.eye(4, dtype=complex), lambda a: network.PortMatrix(a).entries),
    "LineModel-stack": (lambda: np.array(np.broadcast_to(EYE, (4, 3, 2, 2)), dtype=complex),
                        lambda a: network.LineModel(a).two_ports),
    "LineModel-isolation": (lambda: np.zeros(3, dtype=complex), lambda a: network.LineModel(
                                np.broadcast_to(EYE, (4, 3, 2, 2)), isolation=a).isolation),
    "ChannelSpectrum-freqs": (FREQS.copy, lambda a: calibration.ChannelSpectrum(a, np.ones((4, 41))).freqs),
    "ChannelSpectrum-traces": (lambda: np.ones((4, 41), dtype=complex),
                               lambda a: calibration.ChannelSpectrum(FREQS, a).traces),
    "CampaignConfig-freqs": (FREQS.copy, lambda a: synth.CampaignConfig(CELL, synth.LineSpec(), a).freqs),
}


@pytest.mark.parametrize("make, hold", RECORD_COPIES.values(), ids=RECORD_COPIES.keys())
def test_array_record_holds_a_read_only_copy(make, hold):
    given = make()
    held = hold(given)
    kept = held.copy()
    given[(0,) * given.ndim] = np.nan  # the caller's later write does not reach the record
    assert np.array_equal(held, kept)
    with pytest.raises(ValueError, match="read-only"):
        held[(0,) * held.ndim] = 0.0


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
