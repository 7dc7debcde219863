"""Phase conditioning, HD normalization, circle fits and the loss budget."""

import math
import warnings

import numpy as np
import pytest

from routercell import calibration, model, network, synth

TWO_PI = 2.0 * math.pi
GA = TWO_PI * 1.82e6
GB = TWO_PI * 2.31e6
F_GE = 6.163e9
CELL = model.CellParams(GA, GB, TWO_PI * F_GE)


def spectrum_from_model(cell, freqs, lines=None):
    coeffs = model.cell_coefficients(TWO_PI * freqs, cell)
    if lines is not None:
        coeffs = network.simplified_forward(coeffs, lines)
    return calibration.ChannelSpectrum(freqs, coeffs)


class TestChannelSpectrum:
    FREQS = np.linspace(6.1e9, 6.2e9, 11)

    def test_validates_grid_and_channels(self):
        traces = [np.ones(11, dtype=complex) for _ in model.CHANNELS]
        calibration.ChannelSpectrum(self.FREQS, traces)  # fine
        with pytest.raises(ValueError):
            calibration.ChannelSpectrum(self.FREQS[::-1], traces)
        bad = [np.ones(10, dtype=complex)] + traces[1:]
        with pytest.raises(ValueError):
            calibration.ChannelSpectrum(self.FREQS, bad)
        bad = traces[:1] + [np.full(11, np.nan + 0j)] + traces[2:]
        with pytest.raises(ValueError):
            calibration.ChannelSpectrum(self.FREQS, bad)
        stacked = np.ones((4, 11), dtype=complex)
        stacked[3, 5] = np.inf
        with pytest.raises(ValueError, match="channel BA"):
            calibration.ChannelSpectrum(self.FREQS, stacked)
        with pytest.raises(ValueError, match="4 channels"):
            calibration.ChannelSpectrum(self.FREQS, stacked[:3])


class TestUnwrapHalvedPhase:
    def test_constant_phase(self):
        trace = np.full(64, 0.7 * np.exp(0.3j))
        out = calibration._unwrap_halved_phase(trace)
        np.testing.assert_allclose(out, out[0])

    def test_removes_pi_jump_from_halved_wrap(self):
        theta = np.linspace(0.0, 4.0 * np.pi, 400)
        wrapped = np.angle(np.exp(1j * theta))  # 2pi-wrapped copy
        trace = np.exp(1j * wrapped / 2.0)      # halving makes pi jumps
        out = calibration._unwrap_halved_phase(trace)
        assert np.max(np.abs(np.diff(out))) < np.pi / 2
        # recovers theta/2 up to a constant multiple of pi
        diff = out - theta / 2.0
        np.testing.assert_allclose(diff, diff[0], atol=1e-12)
        assert abs(diff[0] / np.pi - round(diff[0] / np.pi)) < 1e-12

    def test_wrapped_linear_phase_stays_linear(self):
        theta = np.linspace(0.0, 12.0 * np.pi, 600)
        trace = np.exp(1j * theta)
        out = calibration._unwrap_halved_phase(trace)
        np.testing.assert_allclose(np.diff(out), np.diff(theta), atol=1e-9)
        diff = out - theta
        np.testing.assert_allclose(diff, diff[0], atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibration._unwrap_halved_phase(np.array([]))

    def test_step_bound_at_eight_points_per_linewidth(self):
        # model trace sampled at 8 points per loaded linewidth: adjacent
        # phase samples never jump by pi/2 or more
        fwhm = (GA + GB) / np.pi  # Hz
        freqs = np.arange(F_GE - 12 * fwhm, F_GE + 12 * fwhm, fwhm / 8.0)
        trace = model.cell_coefficients(TWO_PI * freqs, CELL)[2]
        out = calibration._unwrap_halved_phase(trace)
        assert np.max(np.abs(np.diff(out))) < np.pi / 2


class TestCalibrateResponses:
    FREQS = np.linspace(F_GE - 25e6, F_GE + 25e6, 401)

    def make_pair(self, cell=CELL, seed=2, **line_kwargs):
        line_spec = synth.LineSpec(jitter_db=1.0, **line_kwargs)
        lines = synth.gen_lines(line_spec, seed=seed, freqs=self.FREQS)
        meas = spectrum_from_model(cell, self.FREQS, lines)
        hd_coeffs = network.simplified_forward(
            synth.hd_cell_coefficients(self.FREQS.size), lines)
        hd = calibration.ChannelSpectrum(self.FREQS, hd_coeffs)
        return meas, hd

    def test_round_trip_recovers_cell_coefficients(self):
        cell = model.CellParams(GA, GB, TWO_PI * F_GE,
                                phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)
        meas, hd = self.make_pair(cell, ripple_db=0.3)
        calibrated = calibration.calibrate_responses(meas, hd)
        truth = dict(zip(model.CHANNELS, model.cell_coefficients(TWO_PI * self.FREQS, cell)))
        for ch in model.CHANNELS:
            assert np.max(np.abs(calibrated.channel(ch) - truth[ch])) < 1e-10

    def test_no_response_normalizes_to_unity_and_zero(self):
        _, hd = self.make_pair()
        calibrated = calibration.calibrate_responses(hd, hd)
        np.testing.assert_allclose(calibrated.channel("AA"), 1.0, atol=1e-12)
        np.testing.assert_allclose(calibrated.channel("BB"), 1.0, atol=1e-12)
        np.testing.assert_allclose(calibrated.channel("AB"), 0.0, atol=1e-12)
        np.testing.assert_allclose(calibrated.channel("BA"), 0.0, atol=1e-12)

    def test_calibrated_dip_depth_matches_couplings(self):
        meas, hd = self.make_pair()
        calibrated = calibration.calibrate_responses(meas, hd)
        dip = np.min(np.abs(calibrated.channel("AA")))
        assert dip == pytest.approx(1.0 - GA / (GA + GB), abs=1e-9)

    def test_mismatched_grids_are_resampled(self):
        meas, hd = self.make_pair()
        coarse = calibration.resample(hd, np.linspace(self.FREQS[0], self.FREQS[-1], 801))
        calibrated = calibration.calibrate_responses(meas, coarse)
        truth = dict(zip(model.CHANNELS, model.cell_coefficients(TWO_PI * self.FREQS, CELL)))
        assert np.max(np.abs(calibrated.channel("AA") - truth["AA"])) < 1e-6

    def test_reference_grid_shifted_by_less_than_a_step_is_resampled(self):
        # a 50 ns cable delay turns the phase by 0.013 rad over a 40 kHz
        # shift (a third of the 125 kHz step), which a point-by-point
        # division would leave in the calibrated trace
        lines = synth.gen_lines(synth.LineSpec(jitter_db=1.0), seed=2)

        def delayed(coeffs, freqs):
            return network.simplified_forward(coeffs, lines) * np.exp(-2j * np.pi * freqs * 50e-9)

        meas = calibration.ChannelSpectrum(
            self.FREQS, delayed(model.cell_coefficients(TWO_PI * self.FREQS, CELL), self.FREQS))
        shifted = self.FREQS + 40e3
        hd = calibration.ChannelSpectrum(
            shifted, delayed(synth.hd_cell_coefficients(shifted.size), shifted))
        with pytest.warns(UserWarning, match="outside the source grid"):
            calibrated = calibration.calibrate_responses(meas, hd)
        truth = model.cell_coefficients(TWO_PI * self.FREQS, CELL)[0]
        # the first point lies below the shifted grid, where interpolation clamps
        assert np.max(np.abs(calibrated.channel("AA") - truth)[1:-1]) < 1e-3

    def test_reference_grid_not_covering_the_measurement_warns(self):
        # the 40 kHz shift above leaves the first measured point below the
        # reference grid, where resampling can only clamp
        meas, hd = self.make_pair()
        shifted = calibration.ChannelSpectrum(self.FREQS + 40e3, hd.traces)
        with pytest.warns(UserWarning, match=r"^1 of 401 points lie outside the source grid"):
            calibration.calibrate_responses(meas, shifted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibration.resample(hd, np.linspace(self.FREQS[0], self.FREQS[-1], 801))

    def test_degenerate_reference_lists_frequencies(self):
        meas, hd = self.make_pair()
        broken = hd.traces.copy()
        broken[model.CHANNELS.index("AB"), 5] = 0.0
        hd_bad = calibration.ChannelSpectrum(self.FREQS, broken)
        with pytest.raises(calibration.CalibrationError, match="AB") as err:
            calibration.calibrate_responses(meas, hd_bad)
        assert f"{self.FREQS[5]:.6g}" in str(err.value)


class TestCircleFit:
    def test_perfect_circle_center_and_radius(self):
        angles = np.linspace(0.1, 2 * np.pi, 256, endpoint=False)
        center, radius = 0.4 - 0.2j, 0.31
        trace = center + radius * np.exp(1j * angles)
        freqs = np.linspace(6.0e9, 6.1e9, angles.size)
        fit = calibration.circle_fit(trace, freqs)
        assert fit.center == pytest.approx(center, abs=1e-10)
        assert fit.radius == pytest.approx(radius, abs=1e-10)

    def test_linewidth_of_lossless_model_trace(self):
        freqs = np.linspace(F_GE - 40e6, F_GE + 40e6, 2001)
        trace = model.cell_coefficients(TWO_PI * freqs, CELL)[0]
        fit = calibration.circle_fit(trace, freqs)
        assert fit.kappa_loaded == pytest.approx(2 * (GA + GB), rel=5e-3)
        assert fit.omega_res == pytest.approx(TWO_PI * F_GE, abs=TWO_PI * 1e3)
        assert fit.diameter == pytest.approx(GA / (GA + GB), rel=1e-6)
        assert fit.background == pytest.approx(1.0 + 0j, abs=1e-6)

    @pytest.mark.parametrize("channel,target_mhz", [("AA", 9.33), ("BB", 8.48)])
    def test_reference_loaded_widths_from_injected_loss(self, channel, target_mhz):
        kappa_i = TWO_PI * target_mhz * 1e6 - 2 * (GA + GB)
        cell = model.CellParams(GA, GB, TWO_PI * F_GE, gamma_phi=kappa_i / 2)
        freqs = np.linspace(F_GE - 60e6, F_GE + 60e6, 3001)
        trace = model.cell_coefficients(TWO_PI * freqs, cell)[model.CHANNELS.index(channel)]
        fit = calibration.circle_fit(trace, freqs)
        assert fit.kappa_loaded == pytest.approx(TWO_PI * target_mhz * 1e6, rel=5e-3)

    def test_invariant_under_complex_rescaling(self):
        freqs = np.linspace(F_GE - 30e6, F_GE + 30e6, 1001)
        trace = model.cell_coefficients(TWO_PI * freqs, CELL)[0]
        base = calibration.circle_fit(trace, freqs).kappa_loaded
        scaled = calibration.circle_fit(trace * (2.3 * np.exp(0.8j)), freqs).kappa_loaded
        assert abs(scaled - base) / base < 1e-3

    def test_collinear_points_rejected(self):
        freqs = np.linspace(6.0e9, 6.1e9, 64)
        trace = np.linspace(0, 1, 64) + 1j * np.linspace(0, 2, 64)
        with pytest.raises(calibration.CircleFitError, match="collinear"):
            calibration.circle_fit(trace, freqs)

    def test_insufficient_arc_rejected(self):
        # a sliver of arc well away from resonance
        angles = np.linspace(0.0, 0.4, 64)
        trace = 1.0 + 0.3 * np.exp(1j * angles)
        freqs = np.linspace(6.0e9, 6.01e9, 64)
        with pytest.raises(calibration.CircleFitError, match="circle"):
            calibration.circle_fit(trace, freqs)


class TestLossBudget:
    @staticmethod
    def fit_like(kappa_mhz):
        return calibration.CircleFitResult(
            omega_res=TWO_PI * F_GE, kappa_loaded=TWO_PI * kappa_mhz * 1e6,
            diameter=0.5, background=1.0 + 0j)

    def test_reference_values(self):
        budget = calibration.loss_budget(self.fit_like(9.33), self.fit_like(8.48), GA, GB)
        assert budget.kappa_l_mean == pytest.approx(TWO_PI * 8.905e6, rel=1e-12)
        assert budget.kappa_l_unc == pytest.approx(TWO_PI * 0.8905e6, rel=1e-12)
        assert budget.kappa_i == pytest.approx(TWO_PI * 0.645e6, rel=1e-9)

    def test_mean_loaded_rate_yields_reference_loss(self):
        budget = calibration.loss_budget(self.fit_like(8.9), self.fit_like(8.9), GA, GB)
        assert budget.kappa_i == pytest.approx(TWO_PI * 0.64e6, rel=1e-9)

    def test_lossless_budget_returns_zero(self):
        k = (2 * (GA + GB)) / TWO_PI / 1e6
        budget = calibration.loss_budget(self.fit_like(k), self.fit_like(k), GA, GB)
        assert budget.kappa_i == pytest.approx(0.0, abs=1e-6)

    def test_scaling_linearity(self):
        b1 = calibration.loss_budget(self.fit_like(9.33), self.fit_like(8.48), GA, GB)
        s = 3.0
        b2 = calibration.loss_budget(self.fit_like(9.33 * s), self.fit_like(8.48 * s),
                                     GA * s, GB * s)
        assert b2.kappa_i == pytest.approx(s * b1.kappa_i, rel=1e-12)

    def test_overcoupled_inconsistency_warns(self):
        with pytest.warns(UserWarning, match="inconsistent"):
            calibration.loss_budget(self.fit_like(4.0), self.fit_like(4.0), GA, GB)
