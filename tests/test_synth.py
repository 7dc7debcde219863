"""Generators: determinism, level budgets, noise scaling, IQ clouds."""

import math

import numpy as np
import pytest

from routercell import calibration, estimation, model, synth

TWO_PI = 2.0 * math.pi
CELL = model.CellParams(TWO_PI * 1.82e6, TWO_PI * 2.31e6, TWO_PI * 6.163e9,
                        phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)
FREQS = np.linspace(6.163e9 - 25e6, 6.163e9 + 25e6, 401)


def campaign(sigma=1e-3, seed=0, **line_kwargs):
    return synth.CampaignConfig(
        cell=CELL, lines=synth.LineSpec(jitter_db=1.0, **line_kwargs),
        freqs=FREQS, noise_sigma=sigma, seed=seed,
    )


class TestDeriveSeed:
    def test_stable_and_key_sensitive(self):
        assert synth.derive_seed(7, "lines") == synth.derive_seed(7, "lines")
        assert synth.derive_seed(7, "lines") != synth.derive_seed(8, "lines")
        assert synth.derive_seed(7, "lines") != synth.derive_seed(7, "noise")
        assert synth.derive_seed(7, 0) != synth.derive_seed(7, 1)


class TestGenLines:
    def test_deterministic(self):
        a = synth.gen_lines(synth.LineSpec(), seed=5)
        b = synth.gen_lines(synth.LineSpec(), seed=5)
        for ma, mb in zip(a.matrices, b.matrices):
            assert np.array_equal(ma, mb)
        assert a.isolation == b.isolation
        c = synth.gen_lines(synth.LineSpec(), seed=6)
        assert not np.array_equal(a.s_in_a, c.s_in_a)

    def test_passive(self):
        for seed in range(10):
            lines = synth.gen_lines(synth.LineSpec(reflection_bound=0.2,
                                                   transmission_db=-0.2), seed=seed)
            assert lines.is_passive()

    def test_zero_reflection_bound_gives_pure_attenuators(self):
        lines = synth.gen_lines(synth.LineSpec(reflection_bound=0.0), seed=2)
        for m in lines.matrices:
            assert m[0, 0] == 0.0 and m[1, 1] == 0.0
            assert abs(m[1, 0]) == pytest.approx(10 ** (-3.0 / 20), rel=1e-12)

    def test_through_level_asymmetry_matches_jitter(self):
        lines = synth.gen_lines(synth.LineSpec(jitter_db=1.0), seed=3)
        level_a = abs(lines.s_in_a[1, 0] * lines.s_out_a[1, 0])
        level_b = abs(lines.s_in_b[1, 0] * lines.s_out_b[1, 0])
        assert 20 * np.log10(level_a / level_b) == pytest.approx(1.0, abs=1e-9)

    def test_ripple_produces_per_frequency_lines(self):
        line_spec = synth.LineSpec(ripple_db=0.5, ripple_periods=2.0)
        lines = synth.gen_lines(line_spec, seed=4, freqs=FREQS)
        assert lines.n_points == FREQS.size
        t = np.abs(lines.s_in_a[:, 1, 0])
        swing_db = 20 * np.log10(t.max() / t.min())
        assert swing_db == pytest.approx(1.0, abs=0.05)
        assert lines.is_passive()

    def test_line_spec_validation(self):
        with pytest.raises(ValueError):
            synth.LineSpec(reflection_bound=0.3)
        with pytest.raises(ValueError):
            synth.LineSpec(isolation_db=-3.0)


class TestCampaignConfig:
    @pytest.mark.parametrize("freqs", [[1e9, np.nan, 3e9], [1e9, 2e9, np.inf]],
                             ids=["nan", "inf"])
    def test_non_finite_grid_refused(self, freqs):
        # a monotonicity test alone passes both: NaN compares false with 0,
        # and a last point at inf follows the one before by a step of +inf
        with pytest.raises(ValueError, match="freqs must be a finite"):
            synth.CampaignConfig(cell=CELL, lines=synth.LineSpec(), freqs=freqs)


class TestGenSpectrum:
    def test_bit_identical_for_same_config(self):
        a = synth.gen_spectrum(campaign(seed=9))
        b = synth.gen_spectrum(campaign(seed=9))
        for ch in model.CHANNELS:
            assert np.array_equal(a.meas.channel(ch), b.meas.channel(ch))
            assert np.array_equal(a.hd.channel(ch), b.hd.channel(ch))

    def test_noise_free_matches_forward_model(self):
        out = synth.gen_spectrum(campaign(sigma=0.0, seed=1))
        from routercell.network import simplified_forward
        coeffs = model.cell_coefficients(TWO_PI * FREQS, CELL)
        clean = dict(zip(model.CHANNELS, simplified_forward(coeffs, out.lines)))
        for ch in model.CHANNELS:
            np.testing.assert_array_equal(out.meas.channel(ch), clean[ch])

    def test_reference_level_budget(self):
        # -15 dB per line section -> -30 dB through floor; with -20 dB
        # isolation the cross floor sits at -50 dB.  Reference levels are
        # means over a wide band where the emitter tails are negligible.
        wide = np.linspace(6.163e9 - 500e6, 6.163e9 + 500e6, 2001)
        cfg = synth.CampaignConfig(
            cell=CELL,
            lines=synth.LineSpec(transmission_db=-15.0, isolation_db=-20.0,
                                 reflection_bound=0.0, jitter_db=0.0),
            freqs=wide, noise_sigma=0.0, seed=12,
        )
        out = synth.gen_spectrum(cfg)
        off = np.abs(wide - 6.163e9) > 50e6
        through_db = 20 * np.log10(np.mean(np.abs(out.meas.channel("AA")[off])))
        cross_db = 20 * np.log10(np.mean(np.abs(out.meas.channel("AB")[off])))
        assert through_db == pytest.approx(-30.0, abs=0.2)
        assert cross_db == pytest.approx(-50.0, abs=0.5)

    def test_truth_travels_with_data(self):
        out = synth.gen_spectrum(campaign(seed=2))
        assert out.truth == CELL

    def test_full_pipeline_recovers_truth(self):
        out = synth.gen_spectrum(campaign(sigma=1e-3, seed=21))
        calibrated = calibration.calibrate_responses(out.meas, out.hd)
        init = estimation.initial_guess_from_spectrum(calibrated)
        report = estimation.fit_four_channel(calibrated, init, seed=21)
        assert report.value("gamma_a") == pytest.approx(CELL.gamma_a, rel=0.01)
        assert report.value("gamma_b") == pytest.approx(CELL.gamma_b, rel=0.01)

    def test_error_scales_linearly_with_noise(self):
        sigmas = [1e-4, 1e-3, 1e-2]
        rms = []
        for sigma in sigmas:
            devs = []
            for seed in range(8):
                out = synth.gen_spectrum(campaign(sigma=sigma, seed=seed))
                calibrated = calibration.calibrate_responses(out.meas, out.hd)
                report = estimation.fit_four_channel(calibrated, CELL, seed=seed)
                devs.append((report.value("gamma_a") - CELL.gamma_a) / CELL.gamma_a)
            rms.append(float(np.sqrt(np.mean(np.square(devs)))))
        for lo, hi in zip(rms, rms[1:]):
            assert 3.0 < hi / lo < 30.0


class TestGenIqShots:
    Z_G = 0.2 - 0.4j
    Z_E = -0.7 + 0.5j

    def test_zero_noise_collapses_to_mixture_mean(self):
        clouds = synth.gen_iq_shots([0.0, 1.0], [0.0, 0.4], self.Z_G, self.Z_E,
                                    sigma=0.0, seed=3)
        mean = 0.4 * self.Z_E + 0.6 * self.Z_G
        assert np.all(clouds[1.0] == mean)

    def test_dc_offset_ratio_between_channels(self):
        dc = 0.08 + 0.01j
        kw = dict(z_g=0.0j, z_e=0.0j, sigma=0.0, seed=1, dc_offset=dc)
        through = synth.gen_iq_shots([0.0], [0.0], channel="through", **kw)
        cross = synth.gen_iq_shots([0.0], [0.0], channel="cross", **kw)
        ratio = np.mean(through[0.0]) / np.mean(cross[0.0])
        assert ratio == pytest.approx(10.0, rel=1e-12)

    def test_population_round_trip_within_bound(self):
        amps = np.linspace(0, 2.0, 21)
        p_true = np.sin(np.pi * amps / 2.0) ** 2
        p_true[0] = 0.0
        clouds = synth.gen_iq_shots(amps, p_true, self.Z_G, self.Z_E,
                                    sigma=0.05 * abs(self.Z_E - self.Z_G),
                                    seed=5, dc_offset=0.03 + 0.05j)
        trace = estimation.pca_populations(clouds, 0.0)
        truth = dict(zip(amps, p_true))
        assert max(abs(p - truth[t]) for t, p in zip(trace.times, trace.p)) <= 0.15

    def test_deterministic(self):
        a = synth.gen_iq_shots([0.0, 1.0], [0.0, 1.0], self.Z_G, self.Z_E, 0.1, seed=8)
        b = synth.gen_iq_shots([0.0, 1.0], [0.0, 1.0], self.Z_G, self.Z_E, 0.1, seed=8)
        assert np.array_equal(a[1.0], b[1.0])
