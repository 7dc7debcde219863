"""Parameter fits: recovery, uncertainties, identifiability, fixed points."""

import ast
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from routercell import _lsq, calibration, estimation, model, synth

TWO_PI = 2.0 * math.pi
GA = TWO_PI * 1.82e6
GB = TWO_PI * 2.31e6
F_GE = 6.163e9
W_GE = TWO_PI * F_GE
FREQS = np.linspace(F_GE - 25e6, F_GE + 25e6, 401)
TRUTH = model.CellParams(GA, GB, W_GE, phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)
FLUX = model.FluxModel(curvature=-TWO_PI * 352e6, sweet_spot_omega=W_GE)


def clean_spectrum(cell=TRUTH, freqs=FREQS):
    coeffs = model.cell_coefficients(TWO_PI * freqs, cell)
    return calibration.ChannelSpectrum(freqs, coeffs)


def noisy_spectrum(sigma, seed, cell=TRUTH, freqs=FREQS):
    rng = np.random.default_rng(seed)
    traces = []
    for row in model.cell_coefficients(TWO_PI * freqs, cell):
        noise = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        traces.append(row + sigma * noise / np.sqrt(2.0))
    return calibration.ChannelSpectrum(freqs, traces)


def central_difference_jacobian(fun, x, rel_step=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1e-30)
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((fun(up) - fun(down)) / (2.0 * h))
    return np.column_stack(cols)


class TestFinishReport:
    NAMES = ("a", "b", "c", "dead")

    def solved(self, scale=1.0):
        rng = np.random.default_rng(5)
        jac = np.column_stack([rng.standard_normal((20, 3)), np.zeros(20)])
        units = np.array([1.0, scale, 1.0, 1.0])
        return SimpleNamespace(x=np.array([1.0, 2.0, 3.0, 4.0]) / units,
                               fun=0.01 * rng.standard_normal(20), jac=jac * units,
                               nfev=1, success=True)

    def test_flags_and_uncertainties_do_not_depend_on_parameter_units(self):
        # b re-expressed in a unit 1e15 times smaller: its column shrinks by
        # 1e15 and its value and uncertainty grow by 1e15
        base = estimation._finish_report(self.NAMES, self.solved())
        small = estimation._finish_report(self.NAMES, self.solved(scale=1e-15))
        assert base.flags == small.flags == ("unidentifiable:dead",)
        assert small.sigma["b"] == pytest.approx(1e15 * base.sigma["b"], rel=1e-12)
        for name in ("a", "c"):
            assert small.sigma[name] == pytest.approx(base.sigma[name], rel=1e-12)
        assert small.sigma["dead"] == math.inf

    @pytest.mark.parametrize("fit", ["E_polynomial", "flux_noise"])
    def test_linear_uncertainties_are_the_column_scaled_closed_form(self, fit):
        ib = np.linspace(-0.55, 0.55, 23)
        rng = np.random.default_rng(9)
        if fit == "E_polynomial":
            design = np.column_stack([ib**2, ib, np.ones_like(ib)])
            target = -1.29 * ib**2 + 0.82 + 0.01 * rng.standard_normal(ib.size)
            report = estimation.fit_E_polynomial(target, ib)
        else:
            design = np.column_stack([np.pi * (FLUX.slope(ib) * 1e3) ** 2, np.ones_like(ib)])
            target = design @ [3e-19, TWO_PI * 0.2e6] * (1 + 0.01 * rng.standard_normal(ib.size))
            report = estimation.fit_flux_noise(target, ib, FLUX)
        norms = np.linalg.norm(design, axis=0)
        scaled = design / norms
        sol = np.linalg.lstsq(scaled, target, rcond=None)[0] / norms
        residuals = design @ sol - target
        s2 = residuals @ residuals / (ib.size - design.shape[1])
        sigma = np.sqrt(np.diag(s2 * np.linalg.inv(scaled.T @ scaled))) / norms
        np.testing.assert_allclose(list(report.sigma.values()), sigma, rtol=1e-12)
        assert report.flags == ()


class TestFourChannelFit:
    def test_noiseless_recovery_from_perturbed_start(self):
        init = model.CellParams(1.3 * GA, 0.8 * GB, W_GE + TWO_PI * 2e6)
        report = estimation.fit_four_channel(clean_spectrum(), init)
        assert report.converged
        assert report.value("gamma_a") == pytest.approx(GA, rel=1e-3)
        assert report.value("gamma_b") == pytest.approx(GB, rel=1e-3)
        assert report.value("omega_ge") == pytest.approx(W_GE, rel=1e-9)
        assert report.value("phi_a") == pytest.approx(TRUTH.phi_a, abs=1e-3 * math.pi)
        assert report.value("phi_b") == pytest.approx(TRUTH.phi_b, abs=1e-3 * math.pi)

    def test_start_at_truth_converges_immediately(self):
        report = estimation.fit_four_channel(clean_spectrum(), TRUTH)
        assert report.converged
        assert report.residual_norm < 1e-10
        assert report.n_iter <= 3
        assert report.value("gamma_a") == pytest.approx(GA, rel=1e-12)

    def test_monte_carlo_three_sigma_coverage(self):
        freqs = np.linspace(F_GE - 25e6, F_GE + 25e6, 201)
        hits = 0
        trials = 100
        truth_vec = {"gamma_a": GA, "gamma_b": GB, "omega_ge": W_GE,
                     "phi_a": TRUTH.phi_a, "phi_b": TRUTH.phi_b}
        for seed in range(trials):
            data = noisy_spectrum(0.01, seed, freqs=freqs)
            report = estimation.fit_four_channel(data, TRUTH, seed=seed)
            ok = all(
                abs(report.value(k) - truth_vec[k]) <= 3.0 * report.sigma[k]
                for k in truth_vec
            )
            hits += ok
        assert hits >= 95

    def test_deterministic(self):
        data = noisy_spectrum(0.01, 4)
        r1 = estimation.fit_four_channel(data, TRUTH, seed=4)
        r2 = estimation.fit_four_channel(data, TRUTH, seed=4)
        assert r1 == r2

    def test_analytic_jacobian_matches_central_differences(self):
        omega = TWO_PI * FREQS
        rng = np.random.default_rng(8)
        for _ in range(3):
            x = np.array([
                GA * rng.uniform(0.5, 1.5), GB * rng.uniform(0.5, 1.5),
                W_GE + TWO_PI * rng.uniform(-3e6, 3e6),
                rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
            ])
            def residual(v):
                return estimation._real_rows(model.cell_response(omega, *v))
            _, jac = model.cell_response(omega, *x, jacobian=True)
            analytic = estimation._real_rows(jac).T
            numeric = central_difference_jacobian(residual, x)
            scale = np.linalg.norm(numeric, axis=0)
            err = np.linalg.norm(analytic - numeric, axis=0) / scale
            assert np.all(err < 1e-5)

    def test_initial_guess_lands_near_truth(self):
        init = estimation.initial_guess_from_spectrum(clean_spectrum())
        assert init.gamma_a == pytest.approx(GA, rel=0.3)
        assert init.gamma_b == pytest.approx(GB, rel=0.3)
        assert init.omega_ge == pytest.approx(W_GE, abs=TWO_PI * 0.5e6)


class TestSolver:
    """The package's least-squares solver against scipy's on the same problems."""

    #: Relative agreement asked of params, sigmas and circle-fit results.
    SCIPY_REL = 1e-7

    @staticmethod
    def scipy_trf_references(monkeypatch) -> list:
        """Have every four-channel fit also solved by scipy's TRF; its reports land in the list."""
        from scipy.optimize import least_squares as scipy_least_squares

        references = []

        def both(fun, x0, **kwargs):
            ref = scipy_least_squares(fun, x0, method="trf", gtol=None, **kwargs)
            references.append(estimation._finish_report(estimation._FOUR_CHANNEL_NAMES, ref))
            return _lsq.least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(estimation, "least_squares", both)
        return references

    def test_four_channel_fits_agree_with_scipy_trf(self, monkeypatch):
        references = self.scipy_trf_references(monkeypatch)
        line_spec = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                                   reflection_bound=0.05, isolation_db=-20.0)
        for seed in range(20):  # the first acceptance-04 campaigns
            campaign = synth.CampaignConfig(cell=TRUTH, lines=line_spec, freqs=FREQS,
                                            noise_sigma=1e-3, seed=seed)
            out = synth.gen_spectrum(campaign)
            calibrated = calibration.calibrate_responses(out.meas, out.hd)
            init = estimation.initial_guess_from_spectrum(calibrated)
            report = estimation.fit_four_channel(calibrated, init)
            ref = references[-1]
            assert report.converged and ref.converged
            for name in estimation._FOUR_CHANNEL_NAMES:
                assert report.params[name] == pytest.approx(ref.params[name], rel=self.SCIPY_REL)
                assert report.sigma[name] == pytest.approx(ref.sigma[name], rel=self.SCIPY_REL)

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(estimation, "MAX_ITER", 3)
        init = model.CellParams(1.3 * GA, 0.8 * GB, W_GE + TWO_PI * 2e6)
        report = estimation.fit_four_channel(clean_spectrum(), init)
        assert not report.converged
        assert report.n_iter == 3
        assert all(math.isfinite(v) for v in report.params.values())

    @pytest.mark.parametrize("phi_a", [0.55 * math.pi, 0.7 * math.pi, -0.8 * math.pi],
                             ids=["0.55pi", "0.7pi", "-0.8pi"])
    def test_optimum_beyond_a_bound_ends_on_the_bound(self, monkeypatch, phi_a):
        # phi_a lies outside the fit's box |phi| < pi/2; the other four parameters
        # must still reach scipy's bounded optimum (seen: within 8e-7 relative)
        references = self.scipy_trf_references(monkeypatch)
        coeffs = model.cell_response(TWO_PI * FREQS, GA, GB, W_GE, phi_a, TRUTH.phi_b)
        report = estimation.fit_four_channel(calibration.ChannelSpectrum(FREQS, coeffs), TRUTH)
        assert report.converged
        assert report.params["phi_a"] == math.copysign(math.pi / 2 - 1e-6, phi_a)
        assert all(math.isfinite(v) for v in [*report.params.values(), report.residual_norm])
        for name in estimation._FOUR_CHANNEL_NAMES:
            assert report.params[name] == pytest.approx(references[0].params[name], rel=1e-5)

    def test_time_domain_fits_reach_the_optimum(self, monkeypatch):
        # the forward-difference step follows x_scale, so a time of ~20 ns is
        # differenced on its own scale; the reference uses accurate central
        # differences and tight tolerances
        from scipy.optimize import least_squares as scipy_least_squares

        pairs = []

        def both(fun, x0, **kwargs):
            ours = _lsq.least_squares(fun, x0, **kwargs)
            ref = scipy_least_squares(fun, x0, jac="3-point", diff_step=1e-6, xtol=1e-15,
                                      ftol=1e-15, gtol=1e-15, bounds=kwargs["bounds"],
                                      x_scale=kwargs["x_scale"], max_nfev=2000)
            pairs.append((ours.x, ref.x, np.asarray(kwargs["x_scale"])))
            return ours

        monkeypatch.setattr(estimation, "least_squares", both)
        rng = np.random.default_rng(9)
        t = np.linspace(0, 80e-9, 31)
        estimation.fit_T1(0.7 * np.exp(-t / 21e-9) + 0.01 * rng.standard_normal(t.size), t)
        rng = np.random.default_rng(37)
        t = np.linspace(0, 200e-9, 201)
        estimation.fit_rabi_decay(
            TestTimeDomain().rabi_truth(t) + 0.01 * rng.standard_normal(t.size), t)
        for ours, ref, scale in pairs:
            assert np.all(np.abs(ours - ref) <= 1e-6 * np.maximum(np.abs(ref), scale))

    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_circle_fit_agrees_with_minpack(self, monkeypatch, sigma):
        from scipy.optimize import least_squares as scipy_least_squares

        freqs = np.linspace(F_GE - 30e6, F_GE + 30e6, 401)
        rng = np.random.default_rng(3)
        trace = model.cell_coefficients(TWO_PI * freqs, TRUTH)[0]
        trace = trace + sigma * (rng.standard_normal(freqs.size)
                                 + 1j * rng.standard_normal(freqs.size))
        fit = calibration.circle_fit(trace, freqs)
        monkeypatch.setattr(calibration, "least_squares", lambda fun, x0, **kwargs:
                            scipy_least_squares(fun, x0, method="lm", **kwargs))
        ref = calibration.circle_fit(trace, freqs)
        assert fit.kappa_loaded == pytest.approx(ref.kappa_loaded, rel=self.SCIPY_REL)
        assert fit.omega_res == pytest.approx(ref.omega_res, rel=self.SCIPY_REL)
        assert fit.background == pytest.approx(ref.background, rel=self.SCIPY_REL)


class TestFiniteDifferenceResiduals:
    """The difference-quotient Jacobians the bounded fits rely on are sane:
    a forward-difference estimate agrees with central differences to 1e-5
    at interior points, so the optimizer sees an accurate local model."""

    @staticmethod
    def forward_difference_jacobian(fun, x):
        x = np.asarray(x, dtype=float)
        f0 = fun(x)
        cols = []
        for i in range(x.size):
            h = math.sqrt(np.finfo(float).eps) * max(abs(x[i]), 1e-30)
            up = x.copy()
            up[i] += h
            cols.append((fun(up) - f0) / h)
        return np.column_stack(cols)

    def check(self, fun, x):
        forward = self.forward_difference_jacobian(fun, x)
        central = central_difference_jacobian(fun, x)
        scale = np.linalg.norm(central, axis=0)
        err = np.linalg.norm(forward - central, axis=0) / scale
        assert np.all(err < 1e-5)

    def test_thermal_residual(self):
        temps = np.linspace(0.02, 0.4, 15)
        n_th = model.n_thermal(temps, W_GE)
        data = model.efficiency_thermal(
            n_th, GA, GB, model.ThermalCoefficients(TWO_PI * 0.3e6, TWO_PI * 9e6))

        def residual(x):
            rate = n_th * (x[0] + x[1]) + 0.5 * x[0]
            return model.resonant_efficiency(GA, GB, rate) - data

        self.check(residual, [TWO_PI * 0.4e6, TWO_PI * 8e6])

    def test_saturation_residual(self):
        n = np.geomspace(1e-2, 1e3, 15)
        data = model.saturation_curve(n, model.SaturationParams(1.0, 0.4, 1.0, 2.0))

        def residual(x):
            return x[0] - x[1] / (1.0 + n**x[2] / x[3]) - data

        self.check(residual, [0.9, 0.5, 1.2, 1.7])


class TestEfficiencyTrace:
    def make_raw(self, isolation):
        lines = synth.gen_lines(
            synth.LineSpec(jitter_db=1.0, isolation_db=-20.0), seed=3)
        lines = replace(lines, isolation=isolation)
        coeffs = model.cell_coefficients(TWO_PI * FREQS, TRUTH)
        from routercell.network import simplified_forward
        return calibration.ChannelSpectrum(FREQS, simplified_forward(coeffs, lines))

    def test_line_factors_cancel_without_isolation(self):
        raw = self.make_raw(isolation=0.0)
        e = estimation.efficiency_trace(raw)
        ref = model.efficiency(TWO_PI * FREQS - W_GE, TRUTH)
        np.testing.assert_allclose(e, ref, atol=1e-12)

    def test_isolation_correction_terms(self):
        iso = 0.1 * np.exp(0.9j)
        raw = self.make_raw(isolation=iso)
        e = estimation.efficiency_trace(raw)
        coeffs = dict(zip(model.CHANNELS, model.cell_coefficients(TWO_PI * FREQS, TRUTH)))
        denom = coeffs["AA"] * coeffs["BB"]
        correction = iso * (coeffs["AB"] + coeffs["BA"]) / denom + iso**2 / denom
        ref = model.efficiency(TWO_PI * FREQS - W_GE, TRUTH)
        np.testing.assert_allclose(e - ref, correction, atol=1e-12)
        bound = (abs(iso) * (np.abs(coeffs["AB"]) + np.abs(coeffs["BA"]))
                 + abs(iso) ** 2) / np.abs(denom)
        assert np.all(np.abs(e - ref) <= bound + 1e-12)

    def test_calibrated_traces_give_the_model_efficiency(self):
        # calibrate_responses subtracts the high-drive cross traces, so the
        # ratio of its channels cancels the isolation with every line factor:
        # 1.6e-15 relative over 30 seeds, against up to 48 % at resonance on
        # the raw traces
        cell = replace(TRUTH, gamma_phi=TWO_PI * 0.3e6)
        spec = synth.LineSpec(isolation_db=-20.0, ripple_db=0.3, reflection_bound=0.0)
        ref = model.efficiency(TWO_PI * FREQS - W_GE, cell)
        raw_errors = []
        for seed in range(30):
            pair = synth.gen_spectrum(synth.CampaignConfig(cell, spec, FREQS, seed=seed))
            calibrated = calibration.calibrate_responses(pair.meas, pair.hd)
            np.testing.assert_allclose(estimation.efficiency_trace(calibrated), ref, rtol=1e-12)
            raw_errors.append(abs(estimation.efficiency_trace(pair.meas)[200] / ref[200] - 1))
        assert min(raw_errors) > 0.3

    def test_sweet_spot_resonant_value(self):
        # the fitted bias polynomial pins E(0) at 0.82, matching the rate
        # implied by the resonant-form inversion
        gphi = estimation.gamma_phi_from_E(0.82, GA, GB)
        cell = model.CellParams(GA, GB, W_GE, gamma_phi=gphi)
        assert model.efficiency(0.0, cell).real == pytest.approx(0.82, abs=1e-12)


class TestEPolynomial:
    def test_exact_recovery_of_reference_coefficients(self):
        ib = np.linspace(-0.55, 0.55, 12)
        e = -1.29 * ib**2 - 0.025 * ib + 0.82
        report = estimation.fit_E_polynomial(e, ib)
        assert report.value("c2") == pytest.approx(-1.29, abs=1e-12)
        assert report.value("c1") == pytest.approx(-0.025, abs=1e-12)
        assert report.value("c0") == pytest.approx(0.82, abs=1e-12)

    def test_constant_trace(self):
        ib = np.linspace(-0.5, 0.5, 7)
        report = estimation.fit_E_polynomial(np.full(7, 0.63), ib)
        assert report.value("c2") == pytest.approx(0.0, abs=1e-12)
        assert report.value("c1") == pytest.approx(0.0, abs=1e-12)
        assert report.value("c0") == pytest.approx(0.63, abs=1e-12)

    def test_coefficient_errors_scale_with_noise(self):
        ib = np.linspace(-0.55, 0.55, 23)
        truth = -1.29 * ib**2 - 0.025 * ib + 0.82
        errs = []
        for sigma in (0.003, 0.03):
            devs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                rep = estimation.fit_E_polynomial(truth + sigma * rng.standard_normal(ib.size), ib)
                devs.append(rep.value("c0") - 0.82)
            errs.append(np.sqrt(np.mean(np.square(devs))))
        assert 4.0 < errs[1] / errs[0] < 25.0

    def test_too_few_points(self):
        with pytest.raises(estimation.FitError):
            estimation.fit_E_polynomial([0.8, 0.7], [0.0, 0.1])


class TestGammaPhiFromE:
    def test_unity_gives_zero(self):
        assert estimation.gamma_phi_from_E(1.0, GA, GB) == 0.0

    def test_strong_dephasing_quarter_point(self):
        g = TWO_PI * 2e6
        assert estimation.gamma_phi_from_E(0.25, g, g) == pytest.approx(g, rel=1e-12)

    def test_reference_inversion(self):
        gphi = estimation.gamma_phi_from_E(0.82, GA, GB)
        assert gphi == pytest.approx(TWO_PI * 0.2125e6, rel=1e-3)

    def test_identity_with_forward_efficiency(self):
        for gphi in np.linspace(0.0, 5 * GB, 29):
            e = model.resonant_efficiency(GA, GB, gphi)
            back = estimation.gamma_phi_from_E(e, GA, GB)
            assert back == pytest.approx(gphi, rel=1e-9, abs=1e-3)

    def test_clamps_above_one_and_rejects_non_positive(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert estimation.gamma_phi_from_E(1.02, GA, GB) == 0.0
        with pytest.raises(ValueError):
            estimation.gamma_phi_from_E(0.0, GA, GB)

    @staticmethod
    def scalar_inversion(e, gamma_a, gamma_b):
        """The one-value inversion as each caller once looped it, clamping first."""
        e = min(float(e), 1.0)
        qa = 1.0 / (gamma_a * gamma_b)
        qb = 1.0 / gamma_a + 1.0 / gamma_b
        disc = qb * qb - 4.0 * qa * (1.0 - 1.0 / e)
        return float((-qb + math.sqrt(disc)) / (2.0 * qa))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.5), min_size=1, max_size=40))
    @example([0.05, 0.25, 0.82, 1.0, 1.0 + 2**-52, 1.02])
    def test_array_matches_per_point_scalar_inversion_bit_for_bit(self, values):
        e = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = estimation.gamma_phi_from_E(e, GA, GB)
            column = estimation.gamma_phi_from_E(e.reshape(-1, 1), GA, GB)
            scalars = [estimation.gamma_phi_from_E(v, GA, GB) for v in values]
        expected = np.array([self.scalar_inversion(v, GA, GB) for v in values])
        assert out.shape == e.shape and column.shape == (e.size, 1)
        assert out.tobytes() == column.tobytes() == expected.tobytes()
        assert np.array(scalars).tobytes() == expected.tobytes()
        assert all(type(v) is np.float64 for v in scalars)

    def test_one_warning_counts_the_clamped_values(self):
        e = np.array([0.5, 1.01, 0.9, 1.0, 1.2, 1.0 + 2**-52])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = estimation.gamma_phi_from_E(e, GA, GB)
        assert [str(w.message) for w in caught] == ["3 of 6 efficiencies above 1 clamped to 1"]
        assert caught[0].category is UserWarning
        assert np.all(out[[1, 4, 5]] == out[3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimation.gamma_phi_from_E(e[e <= 1.0], GA, GB)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.3])
    def test_first_invalid_value_is_named(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            estimation.gamma_phi_from_E(np.array([0.5, 1.2, bad, -7.0]), GA, GB)

    def test_no_caller_clamps_or_loops(self):
        # the inversion owns the E > 1 clamp; callers pass whole sweeps
        root = Path(__file__).resolve().parents[1]
        calls = 0
        for path in [*root.glob("src/routercell/*.py"), *root.glob("demos/*.py")]:
            tree = ast.parse(path.read_text())
            loops = [n for n in ast.walk(tree) if isinstance(
                n, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp))]
            in_loop = {id(n) for loop in loops for n in ast.walk(loop)}
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                        "gamma_phi_from_E")):
                    continue
                calls += 1
                where = f"{path.name}:{node.lineno}"
                assert id(node) not in in_loop, f"per-point call at {where}"
                args = " ".join(ast.unparse(a) for a in node.args)
                assert not re.search(r"\b(min|minimum|clip)\(", args), f"pre-clamp at {where}"
        assert calls == 3  # sweep-bias, fit_thermal and demo 04


class TestFluxNoise:
    S_I = 3e-19
    GPHI0 = TWO_PI * 0.2e6

    def synth_gamma_phi(self, ib):
        slopes = FLUX.slope(ib) * 1e3
        return np.pi * slopes**2 * self.S_I + self.GPHI0

    def test_exact_recovery(self):
        ib = np.linspace(-0.55, 0.55, 15)
        report = estimation.fit_flux_noise(self.synth_gamma_phi(ib), ib, FLUX)
        assert report.value("s_i") == pytest.approx(self.S_I, rel=1e-9)
        assert report.value("gamma_phi_0") == pytest.approx(self.GPHI0, rel=1e-9)

    def test_zero_noise_density_gives_flat_dephasing(self):
        ib = np.linspace(-0.5, 0.5, 9)
        report = estimation.fit_flux_noise(np.full(9, self.GPHI0), ib, FLUX)
        assert report.value("s_i") == pytest.approx(0.0, abs=1e-30)
        assert report.value("gamma_phi_0") == pytest.approx(self.GPHI0, rel=1e-12)

    def test_slope_contribution_scales_with_curvature_squared(self):
        ib = 0.4
        double = model.FluxModel(curvature=2 * FLUX.curvature, sweet_spot_omega=W_GE)
        base = np.pi * (FLUX.slope(ib) * 1e3) ** 2 * self.S_I
        boosted = np.pi * (double.slope(ib) * 1e3) ** 2 * self.S_I
        assert boosted == pytest.approx(4.0 * base, rel=1e-12)

    def test_sweet_spot_only_data_rejected(self):
        flat = model.FluxModel(curvature=-1e-30, sweet_spot_omega=W_GE)
        zero = model.FluxModel(curvature=-0.0, sweet_spot_omega=W_GE)
        with pytest.raises(estimation.FitError):
            estimation.fit_flux_noise([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], zero)
        del flat


class TestThermalFit:
    G1 = TWO_PI * 0.26e6
    GPHI = TWO_PI * 10.38e6
    GA_T = TWO_PI * 1.81e6
    GB_T = TWO_PI * 2.32e6
    TEMPS = np.linspace(0.02, 0.40, 24)

    def synth_e(self):
        tc = model.ThermalCoefficients(self.G1, self.GPHI)
        n = model.n_thermal(self.TEMPS, W_GE)
        return model.efficiency_thermal(n, self.GA_T, self.GB_T, tc)

    def test_noiseless_recovery(self):
        report = estimation.fit_thermal(self.synth_e(), self.TEMPS,
                                        self.GA_T, self.GB_T, W_GE)
        assert report.converged
        assert report.value("gamma1_zero") == pytest.approx(self.G1, rel=0.01)
        assert report.value("gamma_phi_zero") == pytest.approx(self.GPHI, rel=0.01)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(17)
        e = self.synth_e() + 0.01 * rng.standard_normal(self.TEMPS.size)
        report = estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)
        assert report.value("gamma1_zero") == pytest.approx(self.G1, rel=0.10)
        assert report.value("gamma_phi_zero") == pytest.approx(self.GPHI, rel=0.10)

    def test_dephasing_dominates(self):
        report = estimation.fit_thermal(self.synth_e(), self.TEMPS,
                                        self.GA_T, self.GB_T, W_GE)
        assert report.value("gamma_phi_zero") > 10 * report.value("gamma1_zero")

    def test_efficiency_above_one_warns_once(self):
        e = self.synth_e()
        e[:2] = [1.003, 1.001]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)
        assert [str(w.message) for w in caught] == ["2 of 24 efficiencies above 1 clamped to 1"]

    @pytest.mark.parametrize("n_temp", [0, 1, 2])
    def test_fewer_than_three_temperatures_refused(self, n_temp):
        with pytest.raises(estimation.FitError, match="at least 3 temperatures"):
            estimation.fit_thermal(self.synth_e()[:n_temp], self.TEMPS[:n_temp],
                                   self.GA_T, self.GB_T, W_GE)

    @pytest.mark.parametrize("n_e", [23, 25])
    def test_one_efficiency_per_temperature(self, n_e):
        e = np.resize(self.synth_e(), n_e)
        with pytest.raises(ValueError, match=f"{n_e} efficiencies for 24 temperatures"):
            estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)

    def test_non_positive_temperature_refused(self):
        with pytest.raises(ValueError, match="temperature"):
            estimation.fit_thermal(self.synth_e()[:3], [0.02, 0.0, 0.04],
                                   self.GA_T, self.GB_T, W_GE)

    def test_efficiencies_at_or_below_zero_still_fit(self):
        # sigma = 0.05 pushes two high-temperature efficiencies (E ~ 0.03) below 0
        rng = np.random.default_rng(5)
        e = self.synth_e() + 0.05 * rng.standard_normal(self.TEMPS.size)
        assert np.count_nonzero(e <= 0) == 2
        report = estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)
        assert report.converged and report.flags == ()
        for name, truth in (("gamma1_zero", self.G1), ("gamma_phi_zero", self.GPHI)):
            assert abs(report.value(name) - truth) < 3 * report.sigma[name]

    @pytest.mark.parametrize("n_valid", [0, 1])
    def test_fewer_than_two_positive_efficiencies_refused(self, n_valid):
        e = np.full(self.TEMPS.size, -0.01)
        e[:n_valid] = 0.5
        with pytest.raises(estimation.FitError, match="rank-deficient"):
            estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)

    def test_frozen_occupation_flags_dephasing_coefficient(self):
        # at negligible occupation only gamma1_zero shapes the data
        temps = np.linspace(0.004, 0.006, 8)
        tc = model.ThermalCoefficients(self.G1, self.GPHI)
        e = model.efficiency_thermal(model.n_thermal(temps, W_GE),
                                     self.GA_T, self.GB_T, tc)
        report = estimation.fit_thermal(e, temps, self.GA_T, self.GB_T, W_GE)
        assert any("gamma_phi_zero" in f for f in report.flags)


class TestSaturationFit:
    N = np.geomspace(1e-2, 1e4, 41)

    def test_unit_exponent_recovery(self):
        truth = model.SaturationParams(a=1.0, b=0.44, c=1.0, d=2.0)
        rng = np.random.default_rng(23)
        y = model.saturation_curve(self.N, truth) + 0.005 * rng.standard_normal(self.N.size)
        report = estimation.fit_saturation(y, self.N)
        assert report.value("c") == pytest.approx(1.0, abs=0.05)
        assert report.value("a") == pytest.approx(1.0, abs=0.02)

    def test_flat_response_flags_shape_parameters(self):
        y = np.full(self.N.size, 0.97)
        report = estimation.fit_saturation(y, self.N)
        assert report.value("a") == pytest.approx(0.97, abs=1e-6)
        assert abs(report.value("b")) < 1e-6
        assert any("c" in f or "d" in f for f in report.flags)

    def test_asymptotes_through_and_cross(self):
        through = model.SaturationParams(a=1.0, b=GA / (GA + GB), c=1.0, d=3.0)
        cross = model.SaturationParams(a=0.0, b=-math.sqrt(GA * GB) / (GA + GB), c=1.0, d=3.0)
        rep_t = estimation.fit_saturation(model.saturation_curve(self.N, through), self.N)
        rep_x = estimation.fit_saturation(model.saturation_curve(self.N, cross), self.N)
        assert rep_t.value("a") == pytest.approx(1.0, abs=1e-6)
        assert rep_x.value("a") == pytest.approx(0.0, abs=1e-6)

    def test_requires_two_decades(self):
        with pytest.raises(estimation.FitError):
            estimation.fit_saturation([1, 2, 3, 4], [1.0, 2.0, 4.0, 8.0])


class TestTimeDomain:
    T1 = 20.5e-9
    T_R = 25e-9
    T_PI = 24e-9

    def test_t1_recovery(self):
        t = np.linspace(0, 100e-9, 41)
        rng = np.random.default_rng(31)
        p = 0.72 * np.exp(-t / self.T1) + 1.6e-3 + 0.01 * rng.standard_normal(t.size)
        report = estimation.fit_T1(p, t)
        assert report.value("t1") == pytest.approx(self.T1, abs=2e-9)
        assert report.value("p0") == pytest.approx(0.72, abs=0.05)

    def test_t1_noiseless_exact(self):
        t = np.linspace(0, 100e-9, 41)
        p = 0.72 * np.exp(-t / self.T1) + 1.6e-3
        report = estimation.fit_T1(p, t)
        assert report.value("t1") == pytest.approx(self.T1, rel=1e-6)
        assert report.value("p_inf") == pytest.approx(1.6e-3, abs=1e-6)

    def test_t1_unidentifiable_with_zero_amplitude(self):
        t = np.linspace(0, 100e-9, 21)
        report = estimation.fit_T1(np.full(21, 0.3), t)
        assert "unidentifiable:t1" in report.flags

    def rabi_truth(self, t, t_r=None):
        t_r = self.T_R if t_r is None else t_r
        return (1.2 * np.sin(np.pi * t / (2 * self.T_PI)) ** 2 - 0.5) * np.exp(-t / t_r) + 0.5

    def test_rabi_recovery(self):
        t = np.linspace(0, 200e-9, 201)
        rng = np.random.default_rng(37)
        p = self.rabi_truth(t) + 0.01 * rng.standard_normal(t.size)
        report = estimation.fit_rabi_decay(p, t)
        assert report.value("t_r") == pytest.approx(self.T_R, abs=2e-9)
        assert report.value("t_pi") == pytest.approx(self.T_PI, abs=1.2e-9)
        assert report.value("p_max") == pytest.approx(1.2, rel=0.05)
        assert report.value("p_inf") == pytest.approx(0.5, abs=0.03)

    def test_rabi_limits(self):
        t = np.linspace(0, 200e-9, 201)
        report = estimation.fit_rabi_decay(self.rabi_truth(t), t)
        p_max, t_pi = report.value("p_max"), report.value("t_pi")
        p_inf, t_r = report.value("p_inf"), report.value("t_r")
        # long-time limit returns to the residual population
        model_late = (p_max * np.sin(np.pi * 1e-3 / (2 * t_pi)) ** 2 - p_inf) \
            * np.exp(-1e-3 / t_r) + p_inf
        assert model_late == pytest.approx(p_inf, abs=1e-6)
        # without decay the pi point reaches the full amplitude
        assert p_max * np.sin(np.pi * t_pi / (2 * t_pi)) ** 2 == pytest.approx(p_max)


class TestRateBudget:
    def test_reference_central_values(self):
        budget = estimation.rate_budget(20.5e-9, 25e-9, GA, GB,
                                        t1_unc_s=2e-9, t_r_unc_s=2e-9)
        assert budget.gamma_phi / TWO_PI == pytest.approx(1.09e6, abs=0.01e6)
        lo, hi = budget.gamma_phi_range
        assert lo <= budget.gamma_phi <= hi
        assert hi / TWO_PI == pytest.approx(3.23e6, abs=0.05e6)

    def test_coupling_limited_decay_zeroes_bath(self):
        t1 = estimation.coupling_limited_t1(GA, GB)
        budget = estimation.rate_budget(t1, 25e-9, GA, GB)
        assert budget.gamma_bath == pytest.approx(0.0, abs=1e-3)

    def test_coupling_limited_prediction(self):
        assert estimation.coupling_limited_t1(GA, GB) * 1e9 == pytest.approx(19.3, abs=0.05)

    def test_pi_amplitude_consistency(self):
        amp_ratio, coupling_ratio = estimation.pi_amplitude_consistency(1.32, 1.0, GA, GB)
        assert amp_ratio == pytest.approx(1.32)
        assert coupling_ratio == pytest.approx(1.27, abs=0.005)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(0.5, 5.0), st.floats(0.5, 5.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_budget_inverts_the_steady_state_pole(self, ga_mhz, gb_mhz, gphi_mhz, gbath_mhz):
        # T1 and T_R built from the cell's rates give those rates back, and
        # the Rabi-decay Gamma2 is the model pole's total width
        cell = model.CellParams(TWO_PI * ga_mhz * 1e6, TWO_PI * gb_mhz * 1e6, W_GE,
                                gamma_phi=TWO_PI * gphi_mhz * 1e6,
                                gamma_bath=TWO_PI * gbath_mhz * 1e6)
        t1 = 1.0 / (2 * cell.gamma_a + 2 * cell.gamma_b + cell.gamma_bath)
        gamma_1 = 1.0 / t1
        gamma_2 = gamma_1 / 2 + cell.gamma_phi
        with warnings.catch_warnings():
            # at gamma_bath = 0 rounding can put T1 a hair above the coupling limit
            warnings.simplefilter("ignore", UserWarning)
            budget = estimation.rate_budget(t1, 2.0 / (gamma_1 + gamma_2),
                                            cell.gamma_a, cell.gamma_b)
        assert budget.gamma_bath == pytest.approx(cell.gamma_bath, abs=1e-12 * gamma_1)
        assert budget.gamma_phi == pytest.approx(cell.gamma_phi, abs=1e-12 * gamma_1)
        assert gamma_2 == pytest.approx(cell.gamma_sum + cell.coherence_rate, rel=1e-15)

    def test_invalid_times(self):
        with pytest.raises(ValueError):
            estimation.rate_budget(-1e-9, 25e-9, GA, GB)
        with pytest.raises(ValueError):
            estimation.rate_budget(20e-9, 25e-9, GA, GB, t1_unc_s=30e-9)


class TestPcaPopulations:
    Z_G = 0.3 + 0.1j
    Z_E = -0.5 + 0.8j

    def test_half_mixture_interpolates(self):
        clouds = {
            0.0: np.full(8, self.Z_G),
            1.0: np.full(8, self.Z_E),
            0.5: np.full(8, (self.Z_G + self.Z_E) / 2),
        }
        trace = estimation.pca_populations(clouds, 0.0)
        by_key = dict(zip(trace.times, trace.p))
        assert by_key[0.0] == pytest.approx(0.0, abs=1e-12)
        assert by_key[0.5] == pytest.approx(0.5, abs=1e-12)
        assert by_key[1.0] == pytest.approx(1.0, abs=1e-12)

    def make_sweep(self, seed=11):
        amps = np.linspace(0, 2.0, 25)
        p_true = np.sin(np.pi * amps / 2.0) ** 2 * 0.97
        p_true[0] = 0.0
        sigma = 0.05 * abs(self.Z_E - self.Z_G)
        clouds = synth.gen_iq_shots(amps, p_true, self.Z_G, self.Z_E,
                                    sigma=sigma, seed=seed, dc_offset=0.05 + 0.02j)
        return clouds, dict(zip(amps, p_true))

    def test_noisy_sweep_within_worst_case_bound(self):
        clouds, truth = self.make_sweep()
        trace = estimation.pca_populations(clouds, 0.0)
        errs = [abs(p - truth[t]) for t, p in zip(trace.times, trace.p)]
        assert max(errs) <= 0.15

    def test_rotation_and_scale_invariance(self):
        clouds, _ = self.make_sweep()
        base = estimation.pca_populations(clouds, 0.0)
        transformed = {k: v * 3.7 * np.exp(1.234j) for k, v in clouds.items()}
        out = estimation.pca_populations(transformed, 0.0)
        np.testing.assert_allclose(out.p, base.p, atol=1e-10)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
        st.lists(st.floats(-0.05, 0.05), min_size=13, max_size=13),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    )
    @example([1.0, -0.5], [0.0] * 13, 1.0)  # the most negative mean sets the scale
    def test_populations_lie_in_the_slack_band(self, excursions, jitter, axis):
        # the ground setting plus means along a random axis, jittered off it
        assume(max(map(abs, excursions)) > 1e-3)
        depths = [0.0] + excursions
        clouds = {float(k): np.array([self.Z_G + axis * (q + 1j * j)])
                  for k, (q, j) in enumerate(zip(depths, jitter))}
        p = estimation.pca_populations(clouds, 0.0).p
        slack = estimation.POPULATION_SLACK
        assert -slack * (1.0 + 1e-12) <= p.min() and p.max() <= 1.0
        assert p.max() == 1.0 or p.min() == pytest.approx(-slack, rel=1e-12)

    def test_degenerate_clouds_rejected(self):
        clouds = {0.0: np.full(8, 1 + 1j), 1.0: np.full(8, 1 + 1j)}
        with pytest.raises(ValueError, match="degenerate"):
            estimation.pca_populations(clouds, 0.0)

    def test_missing_zero_drive_rejected(self):
        with pytest.raises(ValueError):
            estimation.pca_populations({1.0: np.ones(4)}, 0.0)


class TestFixedPointProperty:
    """Re-fitting each model on its own noiseless output reproduces it."""

    def test_four_channel(self):
        report = estimation.fit_four_channel(
            noisy_spectrum(0.02, 5), TRUTH, seed=5)
        regen = model.CellParams(
            report.value("gamma_a"), report.value("gamma_b"), report.value("omega_ge"),
            phi_a=report.value("phi_a"), phi_b=report.value("phi_b"))
        again = estimation.fit_four_channel(clean_spectrum(regen), regen)
        for k in report.params:
            assert again.value(k) == pytest.approx(report.value(k), rel=1e-3, abs=1e-12)

    def test_saturation(self):
        n = np.geomspace(1e-2, 1e4, 31)
        rng = np.random.default_rng(3)
        y = model.saturation_curve(n, model.SaturationParams(1.0, 0.4, 1.1, 2.0))
        first = estimation.fit_saturation(y + 0.01 * rng.standard_normal(n.size), n)
        resynth = model.saturation_curve(n, model.SaturationParams(**first.params))
        second = estimation.fit_saturation(resynth, n)
        for k in ("a", "b", "c", "d"):
            assert second.value(k) == pytest.approx(first.value(k), rel=1e-3)

    def test_t1(self):
        t = np.linspace(0, 80e-9, 31)
        rng = np.random.default_rng(9)
        p = 0.7 * np.exp(-t / 21e-9) + 0.01 * rng.standard_normal(t.size)
        first = estimation.fit_T1(p, t)
        resynth = first.value("p0") * np.exp(-t / first.value("t1")) + first.value("p_inf")
        second = estimation.fit_T1(resynth, t)
        assert second.value("t1") == pytest.approx(first.value("t1"), rel=1e-3)
