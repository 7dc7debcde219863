"""HD normalization, the root of the cross product, circle fits and the loss budget."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from routercell import _lsq, calibration, model, network, presets, synth

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
        with pytest.raises(ValueError, match=r"traces must have shape \(4, 11\), got \(3, 11\)"):
            calibration.ChannelSpectrum(self.FREQS, stacked[:3])

    @pytest.mark.parametrize("rows, named", [((3,), "BA"), ((2, 3), "AB"), ((0, 3), "AA")])
    def test_stacked_traces_name_the_first_non_finite_channel(self, rows, named):
        stacked = np.ones((4, 11), dtype=complex)
        stacked[list(rows), 7] = np.nan
        with pytest.raises(ValueError, match=f"channel {named} contains non-finite"):
            calibration.ChannelSpectrum(self.FREQS, stacked)

    def test_ragged_rows_raise_the_length_message(self):
        rows = [np.ones(11), np.ones(11), np.ones(10), np.ones(11)]
        with pytest.raises(ValueError):  # numpy's own message: the rows make no stack
            calibration.ChannelSpectrum(self.FREQS, rows)
        with pytest.raises(ValueError, match=r"traces must have shape \(4, 11\), got \(4, 12\)"):
            calibration.ChannelSpectrum(self.FREQS, np.ones((4, 12)))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_stored_traces_are_a_copy(self, dtype):
        stacked = np.arange(44, dtype=dtype).reshape(4, 11)
        spectrum = calibration.ChannelSpectrum(self.FREQS, stacked)
        stacked[1, 2] = -1.0
        assert spectrum.traces.dtype == complex
        assert spectrum.traces[1, 2] == 13.0

    def test_holds_read_only_copies(self):
        freqs, traces = self.FREQS.copy(), np.ones((11, 4), dtype=complex).T
        spectrum = calibration.ChannelSpectrum(freqs, traces)
        freqs[3] = freqs[1]
        traces[0, 0] = np.nan
        assert np.all(np.diff(spectrum.freqs) > 0) and np.isfinite(spectrum.traces).all()
        # C order whatever the input's: the fits' sums round by memory layout
        assert spectrum.traces.flags.c_contiguous
        for field in (spectrum.freqs, spectrum.traces, spectrum.channel("AB")):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0


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

    @pytest.mark.parametrize("phases, line_kwargs, seed", [
        ((0.0, 0.0), {}, 2), ((-0.06 * math.pi, 0.05 * math.pi), {"ripple_db": 0.3}, 2),
        ((0.3, -0.4), {"isolation_db": -20.0}, 7),
        ((1.2, 1.0), {}, 2)])  # Re t_c < 0 over part of the band: the principal root fails there
    def test_cross_rows_are_one_root_of_the_line_free_product(self, phases, line_kwargs, seed):
        # P = (m_AB - h_AB)(m_BA - h_BA) / (h_AA h_BB), each line crossed once by
        # the two paths; both rows hold its root, signed at each point by the dips
        cell = model.CellParams(GA, GB, TWO_PI * F_GE, phi_a=phases[0], phi_b=phases[1])
        meas, hd = self.make_pair(cell, seed, **line_kwargs)
        aa, bb, ab, ba = calibration.calibrate_responses(meas, hd).traces
        assert ab.tobytes() == ba.tobytes()
        d_ab, d_ba = meas.traces[2:] - hd.traces[2:]
        product = d_ab * d_ba / (hd.traces[0] * hd.traces[1])
        np.testing.assert_allclose(ab * ba, product, rtol=1e-12, atol=0)
        assert np.all((ab * np.conj(2.0 - aa - bb)).real >= 0)

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

    def test_reference_error_names_the_first_channel_below_the_floor(self):
        meas, hd = self.make_pair()
        broken = hd.traces.copy()
        broken[model.CHANNELS.index("BA"), :3] = 0.0
        broken[model.CHANNELS.index("AB"), 10:17] = 1e-9
        with pytest.raises(calibration.CalibrationError,
                           match=r"reference AB below floor 1e-08 at 7 frequencies: .* \(\+2 more\) Hz"):
            calibration.calibrate_responses(meas, calibration.ChannelSpectrum(self.FREQS, broken))


PHASE = st.floats(min_value=-0.45 * math.pi, max_value=0.45 * math.pi)
RATE_MHZ = st.floats(min_value=0.3, max_value=5.0)


@st.composite
def cells(draw):
    """Cells with any allowed coupling phases, dephasing and bath loss."""
    ga, gb, gphi, gbath = (TWO_PI * 1e6 * draw(rate) for rate in
                           (RATE_MHZ, RATE_MHZ, st.floats(0.0, 2.0), st.floats(0.0, 1.0)))
    return model.CellParams(ga, gb, TWO_PI * F_GE, phi_a=draw(PHASE), phi_b=draw(PHASE),
                            gamma_phi=gphi, gamma_bath=gbath)


#: Passive lines without reflections, where ``simplified_forward`` is exact.
REFLECTIONLESS_LINES = st.builds(
    synth.LineSpec, transmission_db=st.floats(-20.0, -1.0), jitter_db=st.floats(0.0, 3.0),
    reflection_bound=st.just(0.0), isolation_db=st.floats(-50.0, -15.0),
    ripple_db=st.floats(0.0, 0.5))


class TestCalibrationProperties:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(cells(), st.integers(5, 80), st.floats(8.0, 30.0), st.floats(-0.3, 0.3),
           REFLECTIONLESS_LINES, st.integers(0, 2**32 - 1))
    # five points: the largest cross sample lies off resonance, where its
    # phase is near +-90 degrees and a peak anchor picked the wrong sign
    @example(model.CellParams(TWO_PI * 1e6, TWO_PI * 1e6, TWO_PI * F_GE, phi_b=1.0), 5, 9.0,
             0.25, synth.LineSpec(transmission_db=-1.0, reflection_bound=0.0,
                                  isolation_db=-15.0), 0)
    def test_undoes_random_passive_reflectionless_lines(self, cell, n_points, half_widths,
                                                        offset, line_spec, line_seed):
        # a coarse grid of n_points over +-half_widths loaded linewidths,
        # its centre shifted by offset half spans
        half = half_widths * (cell.gamma_sum + cell.coherence_rate) / TWO_PI
        centre = F_GE + offset * half
        freqs = np.linspace(centre - half, centre + half, n_points)
        lines = synth.gen_lines(line_spec, seed=line_seed, freqs=freqs)
        truth = model.cell_coefficients(TWO_PI * freqs, cell)
        meas = calibration.ChannelSpectrum(freqs, network.simplified_forward(truth, lines))
        hd = calibration.ChannelSpectrum(
            freqs, network.simplified_forward(synth.hd_cell_coefficients(n_points), lines))
        calibrated = calibration.calibrate_responses(meas, hd)
        assert np.max(np.abs(calibrated.traces - truth)) < 1e-10


class TestCircleFit:
    def test_perfect_circle_center_and_radius(self):
        # a resonance: the phase about the centre turns by 2 atan(2 (f - f0) / kappa)
        freqs = np.linspace(6.0e9, 6.1e9, 256)
        angles = 0.1 + 2.0 * np.arctan(2.0 * (freqs - 6.04e9) / 7e6)
        center, radius = 0.4 - 0.2j, 0.31
        trace = center + radius * np.exp(1j * angles)
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

    FREQS = np.linspace(F_GE - 30e6, F_GE + 30e6, 401)

    def model_trace(self):
        return model.cell_coefficients(TWO_PI * self.FREQS, CELL)[0]

    def test_descending_grid_fits_the_same_resonance_without_warning(self):
        trace = self.model_trace()
        ascending = calibration.circle_fit(trace, self.FREQS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            descending = calibration.circle_fit(trace[::-1], self.FREQS[::-1])
        assert descending.omega_res == pytest.approx(ascending.omega_res, rel=1e-12)
        assert descending.kappa_loaded == pytest.approx(ascending.kappa_loaded, rel=1e-8)

    def test_clockwise_trace_fits_the_same_resonance(self):
        # the conjugate trace circles the other way: its pole lies above the real axis
        trace = self.model_trace()
        counter = calibration.circle_fit(trace, self.FREQS)
        clockwise = calibration.circle_fit(np.conj(trace), self.FREQS)
        assert clockwise.omega_res == pytest.approx(counter.omega_res, rel=1e-12)
        assert clockwise.kappa_loaded == pytest.approx(counter.kappa_loaded, rel=1e-8)
        assert clockwise.background == pytest.approx(np.conj(counter.background), abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e-14, 1e-12, 1e13, 1e307])
    def test_fits_the_same_resonance_at_any_scale(self, scale):
        # Levy's rank test is relative to the largest column: the fit runs in units of |t|max
        trace = self.model_trace()
        base = calibration.circle_fit(trace, self.FREQS)
        fit = calibration.circle_fit(scale * trace, self.FREQS)
        assert fit.omega_res == pytest.approx(base.omega_res, rel=1e-12)
        assert fit.kappa_loaded == pytest.approx(base.kappa_loaded, rel=1e-10)
        assert fit.radius / scale == pytest.approx(base.radius, rel=1e-10)
        assert abs(fit.center / scale - base.center) < 1e-10 * base.radius
        assert abs(fit.background / scale - base.background) < 1e-10 * base.radius

    def test_non_finite_sample_rejected_before_the_solvers(self, capfd):
        trace = self.model_trace()
        trace[17] = np.nan
        with pytest.raises(calibration.CircleFitError, match="sample 17 is not finite"):
            calibration.circle_fit(trace, self.FREQS)
        assert capfd.readouterr().err == ""  # LAPACK prints nothing: no SVD was attempted

    def test_non_finite_frequency_rejected(self):
        freqs = self.FREQS.copy()
        freqs[-1] = np.inf
        with pytest.raises(calibration.CircleFitError, match="frequency 400 is not finite"):
            calibration.circle_fit(self.model_trace(), freqs)

    def test_one_frequency_per_sample(self):
        with pytest.raises(calibration.CircleFitError, match="400 frequencies for 401 samples"):
            calibration.circle_fit(self.model_trace(), self.FREQS[:-1])

    def test_two_dimensional_trace_rejected(self):
        traces = model.cell_coefficients(TWO_PI * self.FREQS, CELL)[:2]
        with pytest.raises(calibration.CircleFitError, match=r"1-D, got shape \(2, 401\)"):
            calibration.circle_fit(traces, self.FREQS)

    def test_non_monotonic_grid_rejected(self):
        freqs = self.FREQS.copy()
        freqs[[10, 11]] = freqs[[11, 10]]
        with pytest.raises(calibration.CircleFitError, match="strictly monotonic"):
            calibration.circle_fit(self.model_trace(), freqs)

    def test_unconverged_fit_raises(self, monkeypatch):
        # a fit cut off by the evaluation cap has no resonance to report; on a
        # noiseless trace Levy's start is exact and the fit ends in 2 evaluations
        monkeypatch.setattr(_lsq, "MAX_NFEV", 2)
        noise = 1e-2 * np.random.default_rng(3).standard_normal((2, self.FREQS.size))
        with pytest.raises(calibration.CircleFitError,
                           match="resonance fit did not converge in 2 evaluations"):
            calibration.circle_fit(self.model_trace() + noise[0] + 1j * noise[1], self.FREQS)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(11, 401), st.floats(0.0, 1.0), st.floats(0.1, 0.9), st.booleans(),
           st.booleans(), st.floats(0.1, 10.0), st.floats(-math.pi, math.pi), st.floats(0.05, 2.0),
           st.floats(-math.pi, math.pi), st.floats(1e6, 1e9))
    def test_noiseless_resonance_comes_back(self, n, width, position, clockwise, descending,
                                            bg_size, bg_phase, diameter, d_phase, span):
        # 5 or more points per FWHM, FWHM at most span / 2 (log-uniform in between),
        # the resonance in the central 80 % of the span
        narrowest = 5.0 / (n - 1)
        kappa = span * narrowest * (0.5 / narrowest) ** width
        freqs = np.linspace(F_GE - span / 2, F_GE + span / 2, n)
        f_res = freqs[0] + position * span
        background = bg_size * np.exp(1j * bg_phase)
        d = diameter * bg_size * np.exp(1j * d_phase)  # resonance point minus background
        sense = -1.0 if clockwise else 1.0
        trace = background + d / (1.0 + 2j * sense * (freqs - f_res) / kappa)
        if descending:
            freqs, trace = freqs[::-1], trace[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = calibration.circle_fit(trace, freqs)
        radius = abs(d) / 2
        assert abs(fit.omega_res / TWO_PI - f_res) < 1e-9 * kappa
        assert fit.kappa_loaded == pytest.approx(TWO_PI * kappa, rel=1e-9)
        assert fit.radius == pytest.approx(radius, rel=1e-9)
        assert abs(fit.center - (background + d / 2)) < 1e-9 * radius
        assert abs(fit.background - background) < 1e-9 * radius

    @pytest.mark.parametrize("channel, bounds", [("AA", (3.9e-4, 4.4e-3, 2.1e-2)),
                                                 ("BB", (3.01e-4, 3.3e-3, 1.4e-2))])
    def test_loaded_width_accuracy_under_noise(self, channel, bounds):
        # relative rms error of kappa_loaded over 300 seeds at complex noise sigma (rms
        # |noise| = sigma); each bound is the rms, rounded up, that the earlier algebraic
        # circle plus arctangent phase fit reached on the same draws
        cell = presets.STEADY_STATE_CELL
        f_ge = cell.omega_ge / TWO_PI
        freqs = np.linspace(f_ge - 25e6, f_ge + 25e6, 401)
        trace = model.cell_coefficients(TWO_PI * freqs, cell)[model.CHANNELS.index(channel)]
        kappa = 2.0 * (cell.gamma_sum + cell.coherence_rate)
        for sigma, bound in zip((1e-3, 1e-2, 3e-2), bounds):
            errors = []
            for seed in range(300):
                noise = np.random.default_rng(seed).standard_normal((2, freqs.size))
                noisy = trace + sigma / math.sqrt(2) * (noise[0] + 1j * noise[1])
                errors.append(calibration.circle_fit(noisy, freqs).kappa_loaded / kappa - 1.0)
            assert math.sqrt(np.mean(np.square(errors))) < bound
            assert abs(np.median(errors)) < 0.2 * bound  # the earlier fit's reached 0.8 bound


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
