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


def split(fun):
    """``fun(x) -> (residuals, Jacobian)`` as scipy's separate ``fun`` and ``jac``."""
    return (lambda x: fun(x)[0]), (lambda x: fun(x)[1])


def captured_problem(monkeypatch, module, fit, *args):
    """The residual and Jacobian that ``fit(*args)`` hands to ``module``'s solver."""
    seen, solve = {}, module.least_squares

    def capture(fun, x0, **kwargs):
        seen.update(fun=fun)
        return solve(fun, x0, **kwargs)

    monkeypatch.setattr(module, "least_squares", capture)
    fit(*args)
    return split(seen["fun"])


def jacobian_error(fun, jac, x):
    """Per-column relative distance of ``jac(x)`` from central differences."""
    central = central_difference_jacobian(fun, x)
    return np.linalg.norm(jac(x) - central, axis=0) / np.linalg.norm(central, axis=0)


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

    @pytest.mark.parametrize("sigma", [0.0, 1e-9, 1e-3])
    def test_a_residual_at_rounding_level_reports_no_uncertainty(self, sigma):
        # sigma = 0 once reported uncertainties scaled by a residual of rounding noise
        init = model.CellParams(1.3 * GA, 0.8 * GB, W_GE + TWO_PI * 2e6)
        report = estimation.fit_four_channel(noisy_spectrum(sigma, 3), init)
        noiseless = sigma == 0
        assert report.converged
        assert report.flags == (("noiseless",) if noiseless else ())
        assert all(math.isinf(v) == noiseless for v in report.sigma.values())
        assert report.value("gamma_a") == pytest.approx(GA, rel=1e-3)

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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(0.3e6, 10e6), st.floats(-1.0, 1.0), st.floats(-15e6, 15e6),
           st.floats(-0.4 * math.pi, 0.4 * math.pi), st.floats(-0.4 * math.pi, 0.4 * math.pi),
           st.floats(0.0, 1e6), st.sampled_from([41, 101, 401]))
    def test_initial_guess_is_exact_on_noiseless_cells(self, ga_hz, log_ratio, detuning_hz,
                                                       phi_a, phi_b, gamma_phi_hz, n):
        # seen over 3000 random cells and every corner of these ranges: couplings
        # within 1.3e-14 relative, phases within 4e-15 rad, omega_ge to the last bit
        ga = TWO_PI * ga_hz
        truth = model.CellParams(ga, ga * 10.0**log_ratio, W_GE + TWO_PI * detuning_hz,
                                 phi_a, phi_b, gamma_phi=TWO_PI * gamma_phi_hz)
        freqs = np.linspace(F_GE - 25e6, F_GE + 25e6, n)
        init = estimation.initial_guess_from_spectrum(clean_spectrum(truth, freqs))
        assert init.gamma_a == pytest.approx(truth.gamma_a, rel=1e-12)
        assert init.gamma_b == pytest.approx(truth.gamma_b, rel=1e-12)
        assert abs(init.omega_ge - truth.omega_ge) <= 2.0 * np.spacing(truth.omega_ge)
        assert init.phi_a == pytest.approx(phi_a, abs=1e-12)
        assert init.phi_b == pytest.approx(phi_b, abs=1e-12)
        assert init.coherence_rate == 0.0  # the fit holds it at the start

    def test_initial_guess_at_acceptance_04_noise(self):
        # seeds 0-29, seen: couplings off by a median 0.033 % (worst 0.151 %),
        # omega_ge by at most 2 pi * 5.4 kHz, the phases by at most 6.1e-4 pi
        errors = []
        for seed in range(30):
            init = TestSolver.acceptance_04(seed)[1]
            errors.append([abs(init.gamma_a / GA - 1), abs(init.gamma_b / GB - 1),
                           abs(init.omega_ge - W_GE) / TWO_PI,
                           abs(init.phi_a - TRUTH.phi_a) / math.pi,
                           abs(init.phi_b - TRUTH.phi_b) / math.pi])
        errors = np.array(errors)
        assert np.median(errors[:, :2]) < 5e-4
        assert errors[:, :2].max() < 2e-3
        assert errors[:, 2].max() < 8e3
        assert errors[:, 3:].max() < 1e-3

    @pytest.mark.parametrize("traces", [
        [np.ones(401), np.ones(401), np.zeros(401), np.zeros(401)],
        [np.full(401, 0.5), np.full(401, 0.5), np.full(401, 0.1), np.full(401, 0.1)],
        [model.cell_coefficients(TWO_PI * FREQS, TRUTH)[0], np.ones(401),
         np.zeros(401), np.zeros(401)],
    ], ids=["ideal-flat", "constant", "flat-BB"])
    def test_initial_guess_without_resonance_raises(self, traces):
        with pytest.raises(estimation.FitError):
            estimation.initial_guess_from_spectrum(calibration.ChannelSpectrum(FREQS, traces))


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
            residual, jac = split(fun)
            ref = scipy_least_squares(residual, x0, jac=jac, method="trf", xtol=_lsq.TOL,
                                      ftol=_lsq.TOL, gtol=None, max_nfev=_lsq.MAX_NFEV,
                                      **kwargs)
            references.append(estimation._finish_report(estimation._FOUR_CHANNEL_NAMES, ref))
            return _lsq.least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(estimation, "least_squares", both)
        return references

    @staticmethod
    def acceptance_04(seed):
        """The calibrated spectrum and starting point of one acceptance-04 campaign."""
        line_spec = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                                   reflection_bound=0.05, isolation_db=-20.0)
        campaign = synth.CampaignConfig(cell=TRUTH, lines=line_spec, freqs=FREQS,
                                        noise_sigma=1e-3, seed=seed)
        out = synth.gen_spectrum(campaign)
        calibrated = calibration.calibrate_responses(out.meas, out.hd)
        return calibrated, estimation.initial_guess_from_spectrum(calibrated)

    def test_four_channel_fits_agree_with_scipy_trf(self, monkeypatch):
        references = self.scipy_trf_references(monkeypatch)
        for seed in range(20):  # the first acceptance-04 campaigns
            report = estimation.fit_four_channel(*self.acceptance_04(seed))
            ref = references[-1]
            assert report.converged and ref.converged
            for name in estimation._FOUR_CHANNEL_NAMES:
                assert report.params[name] == pytest.approx(ref.params[name], rel=self.SCIPY_REL)
                assert report.sigma[name] == pytest.approx(ref.sigma[name], rel=self.SCIPY_REL)

    def test_fun_is_called_nfev_times_and_jac_comes_with_x(self, monkeypatch):
        # from this start campaign 5 takes 6 evaluations and its last trial is
        # rejected, so the Jacobian returned must be the one kept from the accepted point
        calls, results = [], []

        def spy(fun, x0, **kwargs):
            def recorded(x):
                calls.append((x.copy(), *fun(x)))
                return calls[-1][1:]

            results.append(_lsq.least_squares(recorded, x0, **kwargs))
            return results[-1]

        monkeypatch.setattr(estimation, "least_squares", spy)
        start = model.CellParams(1.3 * GA, 0.8 * GB, W_GE + TWO_PI * 2e6)
        estimation.fit_four_channel(self.acceptance_04(5)[0], start)
        (result,) = results
        assert result.success and len(calls) == result.nfev == 6
        assert calls[-1][0].tobytes() != result.x.tobytes()
        [(_, f, jac)] = [c for c in calls if c[0].tobytes() == result.x.tobytes()]
        assert result.fun.tobytes() == f.tobytes()
        assert result.jac.tobytes() == jac.tobytes()

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(_lsq, "MAX_NFEV", 3)
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
        # times of ~20 ns sit next to populations of ~1; the reference uses
        # accurate central differences and tight tolerances, and each
        # parameter is compared on the larger of its value and its scale
        from scipy.optimize import least_squares as scipy_least_squares

        scales = {3: [0.7, 27e-9, 0.1],  # p0, t1, p_inf
                  4: [1.2, 24e-9, 0.1, 67e-9]}  # p_max, t_pi, p_inf, t_r
        pairs = []

        def both(fun, x0, **kwargs):
            ours = _lsq.least_squares(fun, x0, **kwargs)
            scale = np.array(scales[len(x0)])
            ref = scipy_least_squares(split(fun)[0], x0, jac="3-point", diff_step=1e-6, xtol=1e-15,
                                      ftol=1e-15, gtol=1e-15, bounds=kwargs["bounds"],
                                      x_scale=scale, max_nfev=2000)
            pairs.append((ours.x, ref.x, scale))
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

        def minpack(fun, x0):
            residual, jac = split(fun)
            return scipy_least_squares(residual, x0, jac=jac, method="lm", xtol=1e-12,
                                       ftol=1e-12)

        monkeypatch.setattr(calibration, "least_squares", minpack)
        ref = calibration.circle_fit(trace, freqs)
        assert fit.kappa_loaded == pytest.approx(ref.kappa_loaded, rel=self.SCIPY_REL)
        assert fit.omega_res == pytest.approx(ref.omega_res, rel=self.SCIPY_REL)
        assert fit.background == pytest.approx(ref.background, rel=self.SCIPY_REL)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["kappa>0", "kappa<0"])
    @pytest.mark.parametrize("u0", [0.25, 0.25 + 0.37 / 200], ids=["on-grid", "off-grid"])
    def test_circle_fit_jacobian_matches_central_differences(self, monkeypatch, sign, u0):
        # x = (Re p, Im p, Re a, Im a, Re b, Im b) of t = a + b / (u - p) on u in [-1, 1];
        # the sign of Im p is the sense of rotation, |Im p| the half width in u
        freqs = np.linspace(F_GE - 30e6, F_GE + 30e6, 401)  # u steps of 1/200
        fun, jac = captured_problem(monkeypatch, calibration, calibration.circle_fit,
                                    model.cell_coefficients(TWO_PI * freqs, TRUTH)[0], freqs)
        x = np.array([u0, sign * (GA + GB) / TWO_PI / 30e6, 0.9, 0.1, 0.05, -0.02])
        assert np.all(jacobian_error(fun, jac, x) < 1e-6)

    def test_t1_does_not_depend_on_the_time_unit(self):
        # the solver scales by the Jacobian's column norms, not by a scale
        # written for delays in seconds
        t = np.linspace(0, 80e-9, 31)
        p = 0.7 * np.exp(-t / 21e-9) + 0.01 * np.random.default_rng(9).standard_normal(t.size)
        seconds, nanoseconds = estimation.fit_T1(p, t), estimation.fit_T1(p, 1e9 * t)
        assert 1e9 * seconds.value("t1") == pytest.approx(nanoseconds.value("t1"), rel=1e-12)

    def test_circle_fit_does_not_depend_on_the_frequency_unit(self):
        freqs = np.linspace(F_GE - 30e6, F_GE + 30e6, 401)
        rng = np.random.default_rng(3)
        trace = model.cell_coefficients(TWO_PI * freqs, TRUTH)[0] + 1e-2 * (
            rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
        hz, ghz = calibration.circle_fit(trace, freqs), calibration.circle_fit(trace, freqs / 1e9)
        assert hz.kappa_loaded == pytest.approx(1e9 * ghz.kappa_loaded, rel=1e-12)
        assert hz.omega_res == pytest.approx(1e9 * ghz.omega_res, rel=1e-12)

    DECAY_T = np.linspace(0.0, 3.0, 40)
    DECAY_Y = (0.7 * np.exp(-2.0 * DECAY_T) + 0.1
               + 1e-3 * np.random.default_rng(4).standard_normal(DECAY_T.size))

    def decay(self, x):
        """Residuals and Jacobian of ``x0 exp(-x1 t) + x2`` against a noisy decay."""
        e = np.exp(-x[1] * self.DECAY_T)
        return (x[0] * e + x[2] - self.DECAY_Y,
                np.column_stack([e, -x[0] * self.DECAY_T * e, np.ones_like(e)]))

    def test_inactive_bounds_change_no_bit(self):
        # bounds the optimum and every step stay clear of leave each variable
        # free, so the bounded solve is the unbounded one, bit for bit
        free = _lsq.least_squares(self.decay, [1.0, 1.0, 0.0])
        boxed = _lsq.least_squares(self.decay, [1.0, 1.0, 0.0],
                                   ([-5.0, 0.01, -5.0], [5.0, 50.0, 5.0]))
        assert free.success and free.nfev > 3
        assert boxed.x.tobytes() == free.x.tobytes()
        assert boxed.fun.tobytes() == free.fun.tobytes()
        assert boxed.nfev == free.nfev

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.floats(0.3, 3.0), st.floats(0.3, 4.0), st.floats(-0.5, 0.5), st.integers(0, 2**16))
    def test_infinite_and_idle_bounds_take_the_same_steps(self, amp, rate, offset, seed):
        # the solver tests its bounds once: an infinite box, defaulted or given,
        # holds and clips nothing, so it skips both; a finite box that no trial
        # reaches runs both and must change no bit
        t = self.DECAY_T
        y = amp * np.exp(-rate * t) + offset + 1e-3 * np.random.default_rng(seed).standard_normal(t.size)

        def solve(*bounds):
            trials = []

            def fun(x):
                trials.append(x.tobytes())
                e = np.exp(-x[1] * t)
                return x[0] * e + x[2] - y, np.column_stack([e, -x[0] * t * e, np.ones_like(e)])

            result = _lsq.least_squares(fun, [1.0, 1.0, 0.0], *bounds)
            return result, trials

        free, trials = solve()
        reached = np.abs(np.frombuffer(b"".join(trials)).reshape(-1, 3)).max()
        assert free.success and reached < 1e3
        for bounds in [(-np.inf, np.inf), ([-np.inf] * 3, [np.inf] * 3), (-1e3, 1e3),
                       ([-1e3, -np.inf, -1e3], [np.inf, 1e3, 1e3])]:
            other, other_trials = solve(bounds)
            assert other_trials == trials
            assert other.x.tobytes() == free.x.tobytes() and other.nfev == free.nfev

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.integers(0, 2), st.integers(-8, 8), st.booleans())
    def test_steps_do_not_depend_on_a_variable_unit(self, i, k, boxed):
        # variable i in a unit 10^k times smaller: its value and bounds grow by
        # 10^k and its Jacobian column shrinks by 10^k.  Both problems end on the
        # cost rule; the next test covers one that ends on the step rule.
        # Seen over every i, k and box: x within 2.3e-16 relative.
        unit = np.ones(3)
        unit[i] = 10.0**k
        bounds = ([-5.0, 0.01, -5.0], [5.0, 50.0, 5.0]) if boxed else ([-np.inf] * 3, [np.inf] * 3)

        def rescaled(x):
            f, jac = self.decay(x / unit)
            return f, jac / unit

        base = _lsq.least_squares(self.decay, [1.0, 1.0, 0.0], bounds)
        other = _lsq.least_squares(rescaled, np.array([1.0, 1.0, 0.0]) * unit,
                                   tuple(np.array(b) * unit for b in bounds))
        assert (other.nfev, other.success) == (base.nfev, base.success) == (6, True)
        np.testing.assert_allclose(other.x / unit, base.x, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_step_rule_does_not_depend_on_a_held_variable_unit(self, k):
        # x0 is held on its lower bound 0.8 and the fit ends on the step rule.
        # With x0 in a unit 10^k times smaller, a rule on the raw step,
        # |dx| < TOL (TOL + |x|), let the large x0 set |x| and stopped after
        # 10, 9, 8 and 6 evaluations with x off by up to 7.7e-4 relative; the
        # scaled step s = dx / scale does not see the unit
        unit = np.array([10.0**k, 1.0, 1.0])
        bounds = (np.array([0.8, 0.01, -5.0]), np.array([5.0, 50.0, 5.0]))

        def rescaled(x):
            f, jac = self.decay(x / unit)
            return f, jac / unit

        base = _lsq.least_squares(self.decay, [1.0, 1.0, 0.0], bounds)
        other = _lsq.least_squares(rescaled, np.array([1.0, 1.0, 0.0]) * unit,
                                   tuple(b * unit for b in bounds))
        assert base.x[0] == 0.8
        assert (other.nfev, other.success) == (base.nfev, base.success) == (11, True)
        np.testing.assert_allclose(other.x / unit, base.x, rtol=1e-12, atol=0.0)

    def test_zero_column_and_held_variable(self):
        # x2 moves no residual (scale 1, step 0); the first step clips x0 onto
        # its lower bound, where the gradient holds it.  nfev and x as the
        # solver gave them before it formed its normal equations Gram-first.
        def fun(x):
            f, jac = self.decay([x[0], x[1], 0.1])
            jac[:, 2] = 0.0
            return f, jac

        result = _lsq.least_squares(fun, [1.0, 1.0, 0.5], ([0.8, 0.01, -5.0], [5.0, 50.0, 5.0]))
        assert result.success and result.nfev == 9
        assert result.x[0] == 0.8 and result.x[2] == 0.5
        assert result.x[1] == pytest.approx(2.2942194858163867, rel=1e-12)


class TestAnalyticJacobians:
    """The Jacobians the time-domain, saturation and four-channel fits hand to
    the solver agree with central differences at and away from the data's
    optimum."""

    T = np.linspace(0, 200e-9, 201)
    N = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 30)])  # an n = 0 row

    def problem(self, monkeypatch, fit):
        if fit == "T1":
            p = 0.7 * np.exp(-self.T / 21e-9) + 0.01
            return captured_problem(monkeypatch, estimation, estimation.fit_T1, p, self.T)
        if fit == "rabi":
            p = TestTimeDomain().rabi_truth(self.T)
            return captured_problem(monkeypatch, estimation, estimation.fit_rabi_decay,
                                    p, self.T)
        if fit == "four_channel":  # the cross row is the weighted product t_AB t_BA
            return captured_problem(monkeypatch, estimation, estimation.fit_four_channel,
                                    noisy_spectrum(0.01, 3), TRUTH)
        y = model.saturation_curve(self.N, model.SaturationParams(1.0, 0.44, 1.0, 2.0))
        return captured_problem(monkeypatch, estimation, estimation.fit_saturation, y, self.N)

    @pytest.mark.parametrize("fit,x", [
        ("T1", [0.7, 21e-9, 0.01]), ("T1", [0.3, 60e-9, -0.05]),
        ("rabi", [1.2, 24e-9, 0.5, 25e-9]), ("rabi", [0.8, 31e-9, 0.3, 70e-9]),
        ("saturation", [1.0, 0.44, 1.0, 2.0]), ("saturation", [0.9, -0.5, 1.7, 30.0]),
        ("four_channel", [GA, GB, W_GE, TRUTH.phi_a, TRUTH.phi_b]),
        ("four_channel", [1.3 * GA, 0.8 * GB, W_GE + TWO_PI * 2e6, 0.2, -0.3]),
    ], ids=["T1-truth", "T1-away", "rabi-truth", "rabi-away", "sat-truth", "sat-away",
            "four-channel-truth", "four-channel-away"])
    def test_matches_central_differences(self, monkeypatch, fit, x):
        fun, jac = self.problem(monkeypatch, fit)
        # omega_ge's difference step, 1e-6 of 39 Grad/s, is 3e-3 of the linewidth:
        # its truncation error reaches 3e-6, as in the cell kernel's own test
        tol = 1e-5 if fit == "four_channel" else 1e-6
        assert np.all(jacobian_error(fun, jac, np.array(x)) < tol)

    def test_zero_photon_row_does_not_move_the_exponent(self, monkeypatch):
        # n**c is 0 for every c > 0; its log is taken of 1, not of 0, so the
        # row adds 0 and raises no warning (warnings are errors here)
        _, jac = self.problem(monkeypatch, "saturation")
        column = jac(np.array([1.0, 0.44, 1.3, 2.0]))[:, 2]
        assert column[0] == 0.0 and np.all(column[1:] != 0.0)


class TestPairedSamples:
    """Fits of paired samples refuse unpaired or non-finite ones by name."""

    FITS = {
        "saturation": (estimation.fit_saturation, np.geomspace(1e-2, 1e4, 9),
                       "magnitudes for {} photon numbers"),
        "E_polynomial": (estimation.fit_E_polynomial, np.linspace(-0.5, 0.5, 9),
                         "efficiencies for {} bias points"),
        "flux_noise": (lambda y, x: estimation.fit_flux_noise(y, x, FLUX),
                       np.linspace(-0.5, 0.5, 9), "rates for {} bias points"),
        "thermal": (lambda y, x: estimation.fit_thermal(y, x, GA, GB, W_GE),
                    np.linspace(0.02, 0.4, 9), "efficiencies for {} temperatures"),
    }

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("n_y", [8, 10])
    def test_unpaired_lengths_refused(self, fit, n_y):
        call, x, what = self.FITS[fit]
        with pytest.raises(ValueError, match=f"{n_y} {what.format(9)}"):
            call(np.full(n_y, 0.5), x)

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("column", ["y", "x"])
    def test_non_finite_sample_named(self, fit, column):
        call, x, _ = self.FITS[fit]
        y, x = np.linspace(0.3, 0.6, x.size), x.copy()
        (y if column == "y" else x)[[3, 6]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="sample 3 is not finite"):
            call(y, x)

    @staticmethod
    def sweep(fit):
        """The fit and a noiseless sweep ``(y, x)`` for it, in ascending ``x``."""
        if fit == "T1":
            t = np.linspace(0, 100e-9, 41)
            return estimation.fit_T1, 0.72 * np.exp(-t / 20.5e-9) + 1.6e-3, t
        if fit == "rabi":
            t = np.linspace(0, 200e-9, 201)
            return estimation.fit_rabi_decay, TestTimeDomain().rabi_truth(t), t
        if fit == "saturation":
            n = TestSaturationFit.N
            return estimation.fit_saturation, model.saturation_curve(
                n, model.SaturationParams(1.0, 0.44, 1.0, 2.0)), n
        thermal = TestThermalFit()
        return (lambda y, x: estimation.fit_thermal(y, x, thermal.GA_T, thermal.GB_T, W_GE),
                thermal.synth_e(), thermal.TEMPS)

    @pytest.mark.parametrize("fit", ["T1", "rabi", "saturation", "thermal"])
    def test_shuffled_sweep_fits_as_the_sorted_one(self, fit):
        # sweeps are often taken in random order to decorrelate drift; the
        # starting values read the sweep's first and last samples as its ends
        call, y, x = self.sweep(fit)
        y = y + 0.01 * np.random.default_rng(41).standard_normal(x.size)
        order = np.random.default_rng(5).permutation(x.size)
        assert repr(call(y[order], x[order])) == repr(call(y, x))


class TestAdmission:
    """The six sweep fits admit paired samples by one rule: enough of them, over a span."""

    FITS = {
        "E_polynomial": (estimation.fit_E_polynomial, 3, "bias points"),
        "flux_noise": (lambda y, x: estimation.fit_flux_noise(y, x, FLUX), 3, "bias points"),
        "thermal": (lambda y, x: estimation.fit_thermal(y, x, GA, GB, W_GE), 3, "temperatures"),
        "saturation": (estimation.fit_saturation, 4, "photon numbers"),
        "T1": (estimation.fit_T1, 5, "delays"),
        "rabi": (estimation.fit_rabi_decay, 8, "durations"),
    }

    @pytest.mark.parametrize("fit", FITS)
    def test_one_sample_too_few_refused(self, fit):
        # every count short of the least, down to none: one sample too few is the edge
        call, least, noun = self.FITS[fit]
        for n in range(least):
            with pytest.raises(estimation.FitError, match=f"^need at least {least} {noun}, got {n}$"):
                call(np.full(n, 0.5), np.linspace(0.1, 100.0, n))

    @pytest.mark.parametrize("fit", FITS)
    def test_sweep_without_span_refused(self, fit):
        call, least, noun = self.FITS[fit]
        with pytest.raises(estimation.FitError,
                           match=f"^all {least + 1} {noun} are the same; the sweep has no span$"):
            call(np.full(least + 1, 0.5), np.full(least + 1, 0.1))


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
        # slopes ~1e-30 off the sweet spot: without the check the rank test passes
        # and s_i comes out near -8e52, unflagged
        with pytest.raises(estimation.FitError, match="sweet-spot"):
            estimation.fit_flux_noise([1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], flat)


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
        with pytest.raises(estimation.FitError,
                           match=f"need at least 2 efficiencies above 0, got {n_valid}"):
            estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE)

    @pytest.mark.parametrize("x", [[0.26e6, 10.38e6], [1.3e6, 2.0e6], [0.01e6, 0.05e6]],
                             ids=["truth", "away", "near-bound"])
    def test_jacobian_matches_central_differences(self, monkeypatch, x):
        fun, jac = captured_problem(monkeypatch, estimation, estimation.fit_thermal,
                                    self.synth_e(), self.TEMPS, self.GA_T, self.GB_T, W_GE)
        assert np.all(jacobian_error(fun, jac, TWO_PI * np.array(x)) < 1e-6)

    def test_uncertainties_do_not_depend_on_a_nudged_start(self, monkeypatch):
        # starts 7e-15 apart stop at slightly different points; with forward
        # differences the sigmas then moved ~3e-8 relative, here they agree
        rng = np.random.default_rng(0)
        e = self.synth_e() + 1e-3 * rng.standard_normal(self.TEMPS.size)
        solve, reports = estimation.least_squares, []
        for nudge in (0.0, 7e-15, -7e-15, 2e-14):
            monkeypatch.setattr(estimation, "least_squares", lambda fun, x0, **kwargs:
                                solve(fun, np.asarray(x0) * (1.0 + nudge), **kwargs))
            reports.append(estimation.fit_thermal(e, self.TEMPS, self.GA_T, self.GB_T, W_GE))
        for report in reports[1:]:
            for name, sigma in reports[0].sigma.items():
                assert report.sigma[name] == pytest.approx(sigma, rel=1e-12)

    def test_frozen_occupation_flags_dephasing_coefficient(self):
        # at negligible occupation only gamma1_zero shapes the data
        temps = np.linspace(0.004, 0.006, 8)
        tc = model.ThermalCoefficients(self.G1, self.GPHI)
        e = model.efficiency_thermal(model.n_thermal(temps, W_GE),
                                     self.GA_T, self.GB_T, tc)
        report = estimation.fit_thermal(e, temps, self.GA_T, self.GB_T, W_GE)
        assert any("gamma_phi_zero" in f for f in report.flags)

    def test_dephasing_column_vanishes_only_where_the_rate_rounds_it_away(self, monkeypatch):
        # gamma1_zero / 2 = 1.5 * 2**20 has a half ulp of eps * gamma1_zero / 6, so
        # a thermal term of 0.2 eps * gamma1_zero still moves the rate at the
        # hottest point, while every colder one is lost in its rounding
        temps = np.linspace(0.004, 0.006, 8)
        n = model.n_thermal(temps, W_GE)
        tc = model.ThermalCoefficients(self.G1, self.GPHI)
        e = model.efficiency_thermal(n, self.GA_T, self.GB_T, tc)
        _, jac = captured_problem(monkeypatch, estimation, estimation.fit_thermal,
                                  e, temps, self.GA_T, self.GB_T, W_GE)
        g1 = 3.0 * 2.0 ** 20
        x = np.array([g1, 0.2 * np.finfo(float).eps * g1 / n[-1] - g1])
        rate = model.ThermalCoefficients(*x).coherence_rate(n)
        assert rate[-1] != 0.5 * g1 and np.all(rate[:-1] == 0.5 * g1)
        column = jac(x)[:, 1]
        assert column[-1] != 0.0 and np.all(column[:-1] == 0.0)


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
        # p0 = 0 leaves the t1 column exactly zero: one flag
        assert report.flags.count("unidentifiable:t1") == 1

    def test_t1_small_amplitude_is_identifiable(self):
        # identifiability does not depend on the populations' scale: a clean
        # 5e-7 decay fixes T1 as well as a large one
        t = np.linspace(0, 100e-9, 41)
        report = estimation.fit_T1(5e-7 * np.exp(-t / 20e-9) + 0.3, t)
        assert report.flags == ()
        assert report.value("t1") == pytest.approx(20e-9, rel=1e-8)
        assert report.sigma["t1"] < 1e-6 * 20e-9

    @pytest.mark.parametrize("fit,what", [(estimation.fit_T1, "delays"),
                                          (estimation.fit_rabi_decay, "durations")],
                             ids=["T1", "rabi"])
    def test_one_population_per_time(self, fit, what):
        t = np.linspace(0, 100e-9, 41)
        with pytest.raises(ValueError, match=f"40 populations for 41 {what}"):
            fit(np.full(40, 0.3), t)

    @pytest.mark.parametrize("fit", [estimation.fit_T1, estimation.fit_rabi_decay],
                             ids=["T1", "rabi"])
    @pytest.mark.parametrize("column", ["population", "time"])
    def test_non_finite_sample_named(self, fit, column):
        t = np.linspace(0, 100e-9, 41)
        p = 0.72 * np.exp(-t / self.T1)
        (p if column == "population" else t)[[7, 30]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="sample 7 is not finite"):
            fit(p, t)

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

    @pytest.mark.parametrize("field", ["t1_s", "t_r_s", "t1_unc_s", "t_r_unc_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_time_or_uncertainty_refused(self, field, value):
        # a NaN T1 would otherwise give gamma_phi = gamma_bath = 0
        args = dict(t1_s=20.5e-9, t_r_s=25e-9, t1_unc_s=2e-9, t_r_unc_s=2e-9)
        args[field] = value
        with pytest.raises(ValueError, match="finite"):
            estimation.rate_budget(gamma_a=GA, gamma_b=GB, **args)

    @pytest.mark.parametrize("field", ["t1_unc_s", "t_r_unc_s"])
    def test_negative_uncertainty_refused(self, field):
        # t1_unc_s = -1e-9 would otherwise reverse gamma_bath_range
        with pytest.raises(ValueError, match="uncertainties must be >= 0"):
            estimation.rate_budget(20.5e-9, 25e-9, GA, GB, **{field: -1e-9})


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

    @pytest.mark.parametrize("cloud", [np.array([], dtype=complex),
                                       np.array([1.0, np.nan + 1j]),
                                       np.array([np.inf, 1j])],
                             ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_cloud_named(self, cloud):
        clouds = {0.0: np.full(8, self.Z_G), 0.5: cloud, 1.0: np.full(8, self.Z_E)}
        with pytest.raises(ValueError, match="cloud of setting 0.5 is empty or not finite"):
            estimation.pca_populations(clouds, 0.0)


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
