"""No silent wrong answers: the in-process round trip over its configurations.

Each run of ``gen_spectrum -> calibrate_responses -> initial_guess_from_spectrum
-> fit_four_channel`` must end in one of three ways: a typed error, a fit that
says it is unsure (``converged=False`` or a flag), or couplings within
``K_SIGMA`` of their reported standard errors of the truth.  This is ROADMAP
item 16's contract; the coherence rate stays 0 until item 5 fits it.
"""

import math

import numpy as np
import pytest

from routercell import calibration, estimation, model, network, synth

TWO_PI = 2.0 * math.pi
F_GE = 6.163e9
CELL = model.CellParams(TWO_PI * 1.82e6, TWO_PI * 2.31e6, TWO_PI * F_GE,
                        phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)
FREQS = np.linspace(F_GE - 25e6, F_GE + 25e6, 401)
K_SIGMA = 5.0
TYPED_ERRORS = (ValueError, calibration.CalibrationError, estimation.FitError)


def silent_misses(isolation_db: float, sigma: float, seeds) -> list[tuple[int, dict]]:
    """Seeds whose fit converged unflagged with a coupling beyond ``K_SIGMA``, with their |z|.

    The lines are acceptance 04's apart from the isolation.
    """
    lines = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0, reflection_bound=0.05,
                           isolation_db=isolation_db)
    misses = []
    for seed in seeds:
        config = synth.CampaignConfig(cell=CELL, lines=lines, freqs=FREQS,
                                      noise_sigma=sigma, seed=seed)
        try:
            out = synth.gen_spectrum(config)
            calibrated = calibration.calibrate_responses(out.meas, out.hd)
            init = estimation.initial_guess_from_spectrum(calibrated)
            report = estimation.fit_four_channel(calibrated, init, seed=seed)
        except TYPED_ERRORS:
            continue
        if not report.converged or report.flags:
            continue
        z = {name: abs(report.value(name) - getattr(out.truth, name)) / report.sigma[name]
             for name in ("gamma_a", "gamma_b")}
        if not all(v <= K_SIGMA for v in z.values()):  # a NaN sigma is a miss too
            misses.append((seed, z))
    return misses


def test_acceptance_04_lines_keep_the_contract():
    assert silent_misses(-20.0, 1e-3, range(10)) == []


@pytest.mark.parametrize("isolation_db, sigma", [(-40.0, 0.01), (-30.0, 0.02), (-60.0, 0.01)],
                         ids=["-40dB-0.01", "-30dB-0.02", "-60dB-0.01"])
def test_good_isolation_and_low_signal_keep_the_contract(isolation_db, sigma):
    # ROADMAP item 14's cases: a cross scale set by the HD leakage alone missed on all 10 seeds
    assert silent_misses(isolation_db, sigma, range(10)) == []


def test_poor_isolation_and_high_noise_keep_the_contract():
    # the calibration once split the cross product between AB and BA by a
    # per-point line ratio fitted from the leakage; at -20 dB and sigma = 0.05
    # that ratio was noisy enough for 7 of these 30 seeds to miss unflagged
    # (seed 2 by |z| 7.4).  The fit of the line-free product has no ratio
    assert silent_misses(-20.0, 0.05, range(30)) == []


@pytest.mark.parametrize("delay", [200e-9, 1e-6, 5e-6], ids=["200ns", "1us", "5us"])
def test_line_delay_cancels_in_the_cross_product(delay):
    # tens of metres of coax turn the lines' phase across the band: at 41
    # points over +-25 MHz, 200 ns turns each path by pi/2 per step and the
    # product of the two through lines by pi, past what a root followed from
    # point to point can track.  Every path of the measurement and of the
    # reference is delayed alike, so the lines still cancel in the product
    freqs = np.linspace(F_GE - 25e6, F_GE + 25e6, 41)
    lines = synth.gen_lines(synth.LineSpec(jitter_db=1.0), seed=2, freqs=freqs)
    turn = np.exp(-2j * np.pi * freqs * delay)

    def delayed(coeffs):
        return calibration.ChannelSpectrum(freqs, network.simplified_forward(coeffs, lines) * turn)

    truth = model.cell_coefficients(TWO_PI * freqs, CELL)
    calibrated = calibration.calibrate_responses(
        delayed(truth), delayed(synth.hd_cell_coefficients(freqs.size)))
    assert np.max(np.abs(calibrated.traces - truth)) < 1e-10
    report = estimation.fit_four_channel(
        calibrated, estimation.initial_guess_from_spectrum(calibrated))
    assert report.converged
    for name in ("gamma_a", "gamma_b"):
        assert report.value(name) == pytest.approx(getattr(CELL, name), rel=1e-9)
