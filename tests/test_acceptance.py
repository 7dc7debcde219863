"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria combine closed-form identities at the reference device
parameters with oracle round trips through the synthetic-campaign
generators.  Tolerances are pinned here and not loosened elsewhere.
"""

import math
import time

import numpy as np
import pytest

from routercell import calibration, estimation, model, network, synth

TWO_PI = 2.0 * math.pi
GA = TWO_PI * 1.82e6
GB = TWO_PI * 2.31e6
F_GE = 6.163e9
W_GE = TWO_PI * F_GE
CELL = model.CellParams(GA, GB, W_GE, phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)


def passed(number, message):
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def test_criterion_01_resonant_identities():
    start = time.perf_counter()
    lossless = model.CellParams(GA, GB, W_GE)
    coeffs = model.cell_coefficients(W_GE, lossless)
    through = abs(coeffs[0])
    cross = abs(coeffs[2])
    assert through == pytest.approx(1.0 - GA / (GA + GB), abs=1e-6)
    assert cross == pytest.approx(math.sqrt(GA * GB) / (GA + GB), abs=1e-6)
    assert round(through, 4) == 0.5593
    assert round(cross, 4) == 0.4965
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"|t_AA|={through:.6f}, |t_AB|={cross:.6f} ({elapsed:.3f}s)")


def test_criterion_02_unitarity_suite():
    start = time.perf_counter()
    lossless = model.CellParams(GA, GB, W_GE)
    worst = 0.0
    for omega in W_GE + np.linspace(-10 * (GA + GB), 10 * (GA + GB), 1001):
        s = model.cell_smatrix(omega, lossless).entries
        worst = max(worst, float(np.max(np.abs(s.conj().T @ s - np.eye(4)))))
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(2, f"max |S^H S - I| = {worst:.2e} over 1001 points ({elapsed:.3f}s)")


def test_criterion_03_network_composition_oracle():
    start = time.perf_counter()
    cell = model.cell_smatrix(W_GE + TWO_PI * 2e6, CELL)
    exact = network.compose_exact(cell, network.ideal_lines())
    ideal_err = float(np.max(np.abs(exact.s_meas.entries - cell.entries)))
    assert ideal_err < 1e-12

    rng = np.random.default_rng(30)
    def two_port(r):
        return np.array([
            [r * np.exp(1j * rng.uniform(-np.pi, np.pi)),
             0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi))],
            [0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi)),
             r * np.exp(1j * rng.uniform(-np.pi, np.pi))],
        ])
    reflective = network.LineModel([two_port(0.1) for _ in range(4)])
    errs = [network.compose_neumann(cell, reflective, k).truncation_error
            for k in range(1, 6)]
    assert all(b < a for a, b in zip(errs, errs[1:]))

    clean = network.LineModel([two_port(0.0) for _ in range(4)])
    first_order = network.compose_neumann(cell, clean, order=1)
    assert first_order.truncation_error < 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(3, f"ideal-line error {ideal_err:.1e}; series decay "
              f"{errs[0]:.1e}->{errs[-1]:.1e} ({elapsed:.3f}s)")


def test_criterion_04_calibration_round_trip():
    start = time.perf_counter()
    freqs = np.linspace(F_GE - 25e6, F_GE + 25e6, 401)
    line_spec = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                               reflection_bound=0.05, isolation_db=-20.0)
    hits = 0
    for seed in range(100):
        campaign = synth.CampaignConfig(cell=CELL, lines=line_spec, freqs=freqs,
                                        noise_sigma=1e-3, seed=seed)
        out = synth.gen_spectrum(campaign)
        calibrated = calibration.calibrate_responses(out.meas, out.hd)
        init = estimation.initial_guess_from_spectrum(calibrated)
        report = estimation.fit_four_channel(calibrated, init, seed=seed)
        ok = (
            report.converged
            and abs(report.value("gamma_a") - GA) / GA < 0.01
            and abs(report.value("gamma_b") - GB) / GB < 0.01
            and abs(report.value("omega_ge") - W_GE) < TWO_PI * 10e3
            and abs(report.value("phi_a") - CELL.phi_a) < 0.01 * math.pi
            and abs(report.value("phi_b") - CELL.phi_b) < 0.01 * math.pi
        )
        hits += ok
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 120.0
    passed(4, f"{hits}/100 seeds recovered all parameters ({elapsed:.1f}s)")


def test_criterion_05_loss_budget_and_circle_fits():
    freqs = np.linspace(F_GE - 60e6, F_GE + 60e6, 3001)
    fits = {}
    for channel, target_mhz in (("AA", 9.33), ("BB", 8.48)):
        width_gap = TWO_PI * target_mhz * 1e6 - 2 * (GA + GB)
        lossy = model.CellParams(GA, GB, W_GE, gamma_phi=width_gap / 2)
        trace = model.cell_coefficients(TWO_PI * freqs, lossy)[model.CHANNELS.index(channel)]
        fits[channel] = calibration.circle_fit(trace, freqs)
        err = abs(fits[channel].kappa_loaded - TWO_PI * target_mhz * 1e6)
        assert err / (TWO_PI * target_mhz * 1e6) < 0.005

    mean_fit = calibration.CircleFitResult(
        omega_res=W_GE, kappa_loaded=TWO_PI * 8.9e6, diameter=0.5, background=1 + 0j)
    budget = calibration.loss_budget(mean_fit, mean_fit, GA, GB)
    assert budget.kappa_i == pytest.approx(TWO_PI * 0.64e6, abs=TWO_PI * 0.01e6)

    fitted_budget = calibration.loss_budget(fits["AA"], fits["BB"], GA, GB)
    assert fitted_budget.kappa_i == pytest.approx(TWO_PI * 0.64e6, abs=TWO_PI * 0.01e6)
    passed(5, f"kappa_L fits {fits['AA'].kappa_loaded / TWO_PI / 1e6:.3f} / "
              f"{fits['BB'].kappa_loaded / TWO_PI / 1e6:.3f} MHz, "
              f"kappa_i = 2pi*{fitted_budget.kappa_i / TWO_PI / 1e6:.3f} MHz")


def test_criterion_06_dephasing_chain():
    gphi = estimation.gamma_phi_from_E(0.82, GA, GB)
    assert gphi == pytest.approx(TWO_PI * 0.213e6, abs=TWO_PI * 0.01e6)

    flux = model.FluxModel(curvature=-TWO_PI * 352e6, sweet_spot_omega=W_GE)
    s_i, gphi0 = 3e-19, TWO_PI * 0.2e6
    ib = np.linspace(-0.55, 0.55, 23)
    slopes = flux.slope(ib) * 1e3
    synth_gphi = np.pi * slopes**2 * s_i + gphi0
    report = estimation.fit_flux_noise(synth_gphi, ib, flux)
    assert report.value("s_i") == pytest.approx(s_i, rel=0.02)
    assert report.value("gamma_phi_0") == pytest.approx(gphi0, rel=0.02)
    passed(6, f"gamma_phi(E=0.82) = 2pi*{gphi / TWO_PI / 1e6:.4f} MHz; "
              f"S_I = {report.value('s_i'):.2e} A^2/Hz")


def test_criterion_07_thermal_fit():
    g1, gphi = TWO_PI * 0.26e6, TWO_PI * 10.38e6
    ga_t, gb_t = TWO_PI * 1.81e6, TWO_PI * 2.32e6
    tc = model.ThermalCoefficients(g1, gphi)
    temps = np.linspace(0.02, 0.40, 24)
    n_th = model.n_thermal(temps, W_GE)
    e = model.efficiency_thermal(n_th, ga_t, gb_t, tc)

    assert model.efficiency_thermal(0.0, ga_t, gb_t, tc) == pytest.approx(0.884, abs=1e-3)

    clean = estimation.fit_thermal(e, temps, ga_t, gb_t, W_GE)
    assert clean.value("gamma1_zero") == pytest.approx(g1, rel=0.01)
    assert clean.value("gamma_phi_zero") == pytest.approx(gphi, rel=0.01)

    rng = np.random.default_rng(70)
    noisy = estimation.fit_thermal(e + 0.01 * rng.standard_normal(e.size),
                                   temps, ga_t, gb_t, W_GE)
    assert noisy.value("gamma1_zero") == pytest.approx(g1, rel=0.10)
    assert noisy.value("gamma_phi_zero") == pytest.approx(gphi, rel=0.10)
    passed(7, f"recovered gamma1_0 = 2pi*{clean.value('gamma1_zero') / TWO_PI / 1e6:.3f} MHz, "
              f"gamma_phi_0 = 2pi*{clean.value('gamma_phi_zero') / TWO_PI / 1e6:.2f} MHz")


def test_criterion_08_time_domain_fits():
    t1_true, t_r_true, t_pi_true = 20.5e-9, 25e-9, 24e-9
    rng = np.random.default_rng(80)

    delays = np.linspace(0, 100e-9, 41)
    p_relax = 0.72 * np.exp(-delays / t1_true) + 1.6e-3 \
        + 0.01 * rng.standard_normal(delays.size)
    t1_fit = estimation.fit_T1(p_relax, delays)
    assert t1_fit.value("t1") == pytest.approx(t1_true, abs=2e-9)

    times = np.linspace(0, 200e-9, 201)
    p_rabi = (1.2 * np.sin(np.pi * times / (2 * t_pi_true)) ** 2 - 0.5) \
        * np.exp(-times / t_r_true) + 0.5 + 0.01 * rng.standard_normal(times.size)
    rabi_fit = estimation.fit_rabi_decay(p_rabi, times)
    assert rabi_fit.value("t_r") == pytest.approx(t_r_true, abs=2e-9)
    assert rabi_fit.value("t_pi") == pytest.approx(t_pi_true, abs=2e-9)

    budget = estimation.rate_budget(t1_fit.value("t1"), rabi_fit.value("t_r"),
                                    GA, GB, t1_unc_s=2e-9, t_r_unc_s=2e-9)
    central_mhz = budget.gamma_phi / TWO_PI / 1e6
    assert TWO_PI * 0.94e6 <= budget.gamma_phi <= TWO_PI * 3.2e6

    t1_coupling = estimation.coupling_limited_t1(GA, GB)
    assert t1_coupling * 1e9 == pytest.approx(19.3, abs=0.05)
    passed(8, f"T1 = {t1_fit.value('t1') * 1e9:.1f} ns, T_R = {rabi_fit.value('t_r') * 1e9:.1f} ns, "
              f"gamma_phi = 2pi*{central_mhz:.2f} MHz, coupling-limited T1 = "
              f"{t1_coupling * 1e9:.2f} ns")


def test_criterion_09_pca_population_decomposition():
    z_g, z_e = 0.3 + 0.1j, -0.5 + 0.8j
    amps = np.linspace(0, 2.0, 25)
    p_true = np.sin(np.pi * amps / 2.0) ** 2
    p_true[0] = 0.0
    clouds = synth.gen_iq_shots(amps, p_true, z_g, z_e,
                                sigma=0.05 * abs(z_e - z_g), seed=90,
                                dc_offset=0.05 + 0.02j)
    trace = estimation.pca_populations(clouds, 0.0)
    truth = dict(zip(amps, p_true))
    worst = max(abs(p - truth[t]) for t, p in zip(trace.times, trace.p))
    assert worst <= 0.15

    transformed = {k: v * 2.9 * np.exp(0.77j) for k, v in clouds.items()}
    other = estimation.pca_populations(transformed, 0.0)
    drift = float(np.max(np.abs(other.p - trace.p)))
    assert drift < 1e-10
    passed(9, f"max population error {worst:.3f}; rotation/scale drift {drift:.1e}")


def test_criterion_10_saturation():
    n = np.geomspace(1e-2, 1e4, 41)
    through = model.SaturationParams(a=1.0, b=GA / (GA + GB), c=1.0, d=2.0)
    cross = model.SaturationParams(a=0.0, b=-math.sqrt(GA * GB) / (GA + GB), c=1.0, d=2.0)
    rng = np.random.default_rng(100)
    y = model.saturation_curve(n, through) + 0.005 * rng.standard_normal(n.size)
    fit = estimation.fit_saturation(y, n)
    assert fit.value("c") == pytest.approx(1.0, abs=0.05)

    fit_t = estimation.fit_saturation(model.saturation_curve(n, through), n)
    fit_x = estimation.fit_saturation(model.saturation_curve(n, cross), n)
    assert fit_t.value("a") == pytest.approx(1.0, abs=1e-6)
    assert fit_x.value("a") == pytest.approx(0.0, abs=1e-6)
    passed(10, f"c = {fit.value('c'):.3f}; through asymptote {fit_t.value('a'):.4f}, "
               f"cross asymptote {fit_x.value('a'):.2e}")


def test_criterion_11_dressed_lines():
    dm = model.DressedModel(lambda_red=TWO_PI * 0.81e6, lambda_blue=TWO_PI * 0.39e6,
                            omega_ge=W_GE, omega_ef=TWO_PI * 6.015e9)
    lines = model.dressed_lines(W_GE, 100.0, dm)
    red_shift = lines.ge_red - W_GE
    blue_shift = lines.ge_blue - W_GE
    assert red_shift == pytest.approx(-TWO_PI * 8.1e6, rel=1e-9)
    assert blue_shift == pytest.approx(TWO_PI * 3.9e6, rel=1e-9)
    assert lines.ef_red - dm.omega_ef == pytest.approx(red_shift, rel=1e-12)
    passed(11, f"red shift = 2pi*{red_shift / TWO_PI / 1e6:.3f} MHz, "
               f"blue shift = 2pi*{blue_shift / TWO_PI / 1e6:.3f} MHz")
