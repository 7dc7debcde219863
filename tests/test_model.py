"""Closed-form model: resonant values, unitarity, flux/thermal/dressed extensions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routercell import model

TWO_PI = 2.0 * math.pi
GA = TWO_PI * 1.82e6
GB = TWO_PI * 2.31e6
W_GE = TWO_PI * 6.163e9


def make_cell(**kwargs):
    defaults = dict(gamma_a=GA, gamma_b=GB, omega_ge=W_GE)
    defaults.update(kwargs)
    return model.CellParams(**defaults)


class TestCellParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_cell(gamma_a=0.0)
        with pytest.raises(ValueError):
            make_cell(gamma_b=-1.0)
        with pytest.raises(ValueError):
            make_cell(phi_a=math.pi / 2)
        with pytest.raises(ValueError):
            make_cell(gamma_phi=-1.0)
        with pytest.raises(ValueError):
            make_cell(omega_ge=math.inf)

    def test_coherence_rate_combines_dephasing_and_bath(self):
        p = make_cell(gamma_phi=3.0, gamma_bath=4.0)
        assert p.coherence_rate == 5.0


class TestThrough:
    def test_symmetric_couplings_halve_transmission(self):
        p = model.CellParams(gamma_a=GA, gamma_b=GA, omega_ge=W_GE)
        assert model.cell_coefficients(W_GE, p)[0] == pytest.approx(0.5 + 0j, abs=1e-12)

    def test_resonant_value_with_reference_couplings(self):
        t = model.cell_coefficients(W_GE, make_cell())[0]
        assert t == pytest.approx(1.0 - GA / (GA + GB), abs=1e-12)
        assert round(abs(t), 4) == 0.5593

    def test_detuned_by_one_total_width(self):
        t = model.cell_coefficients(W_GE + GA + GB, make_cell())[0]
        assert t.real == pytest.approx(0.7797, abs=1e-4)
        assert t.imag == pytest.approx(-0.2203, abs=1e-4)
        assert abs(t) == pytest.approx(0.810, abs=1e-3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            model.cell_coefficients(math.nan, make_cell())


class TestCross:
    def test_symmetric_perfect_splitter(self):
        p = model.CellParams(gamma_a=GA, gamma_b=GA, omega_ge=W_GE)
        assert abs(model.cell_coefficients(W_GE, p)[2]) == pytest.approx(0.5, abs=1e-12)

    def test_resonant_magnitude(self):
        t = model.cell_coefficients(W_GE, make_cell())[2]
        assert abs(t) == pytest.approx(math.sqrt(GA * GB) / (GA + GB), abs=1e-12)
        assert round(abs(t), 4) == 0.4965

    def test_strong_dephasing_kills_transfer(self):
        p = make_cell(gamma_phi=1e6 * (GA + GB))
        assert abs(model.cell_coefficients(W_GE, p)[2]) < 1e-5

    def test_reciprocity_exact(self):
        p = make_cell(phi_a=0.2, phi_b=-0.3, gamma_phi=1e5)
        omega = W_GE + np.linspace(-5 * (GA + GB), 5 * (GA + GB), 41)
        _, _, ab, ba = model.cell_coefficients(omega, p)
        assert np.array_equal(ab, ba)

    def test_resonant_extremum(self):
        p = make_cell()
        omega = W_GE + np.linspace(-6 * (GA + GB), 6 * (GA + GB), 1201)
        through, _, cross, _ = np.abs(model.cell_coefficients(omega, p))
        assert np.argmin(through) == 600
        assert np.argmax(cross) == 600


class TestSMatrix:
    def test_unitary_when_lossless(self):
        p = make_cell()
        span = 10 * (GA + GB)
        for omega in W_GE + np.linspace(-span, span, 1001):
            s = model.cell_smatrix(omega, p).entries
            err = np.max(np.abs(s.conj().T @ s - np.eye(4)))
            assert err < 1e-10

    def test_resonant_reflection_half(self):
        p = model.CellParams(gamma_a=GA, gamma_b=GA, omega_ge=W_GE)
        s = model.cell_smatrix(W_GE, p).entries
        assert abs(s[0, 0]) == pytest.approx(0.5, abs=1e-12)
        assert abs(s[2, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_row_flux_conservation(self):
        p = make_cell()
        for omega in W_GE + np.linspace(-3 * (GA + GB), 3 * (GA + GB), 17):
            t, _, x, _ = model.cell_coefficients(omega, p)
            r = model.cell_smatrix(omega, p).entries[0, 0]
            assert abs(t) ** 2 + abs(r) ** 2 + 2 * abs(x) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_dephased_matrix_contracts_the_coupled_mode(self):
        # the emitter couples to a single port combination; the three dark
        # combinations scatter losslessly, so exactly one singular value
        # drops below 1 while the rest stay pinned at 1
        p = make_cell(gamma_phi=0.3 * GA)
        for omega in W_GE + np.linspace(-2 * (GA + GB), 2 * (GA + GB), 9):
            sv = np.linalg.svd(model.cell_smatrix(omega, p).entries, compute_uv=False)
            assert np.all(sv <= 1.0 + 1e-12)
            assert sv.min() < 1.0 - 1e-3
            assert np.sum(sv > 1.0 - 1e-9) == 3


class TestEfficiency:
    def test_ideal_transfer(self):
        assert model.efficiency(0.0, make_cell()) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_strongly_dephased_quarter(self):
        p = model.CellParams(gamma_a=GA, gamma_b=GA, omega_ge=W_GE, gamma_phi=GA)
        assert model.efficiency(0.0, p).real == pytest.approx(0.25, abs=1e-12)

    def test_matches_four_coefficient_ratio(self):
        p = make_cell(phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi, gamma_phi=0.1 * GA)
        for delta in np.linspace(-4 * (GA + GB), 4 * (GA + GB), 23):
            omega = W_GE + delta
            aa, bb, ab, ba = model.cell_coefficients(omega, p)
            ratio = (ab * ba) / (aa * bb)
            assert model.efficiency(delta, p) == pytest.approx(ratio, abs=1e-12)

    def test_resonant_form_matches_general_expression(self):
        for gphi in np.linspace(0.0, 3 * GB, 13):
            p = make_cell(gamma_phi=gphi)
            closed = model.resonant_efficiency(GA, GB, gphi)
            e = model.efficiency(0.0, p)
            assert e.real == pytest.approx(closed, abs=1e-12)
            assert abs(e.imag) < 1e-12

    def test_strictly_decreasing_in_dephasing(self):
        rates = np.linspace(0.0, 5 * GB, 40)
        values = model.resonant_efficiency(GA, GB, rates)
        assert np.all(np.diff(values) < 0)

    def test_dephasing_implied_by_measured_value(self):
        # E = 0.82 with the reference couplings implies gamma_phi near 2pi*0.213 MHz
        target = model.resonant_efficiency(GA, GB, TWO_PI * 0.2125e6)
        assert target == pytest.approx(0.82, abs=2e-3)



def test_scalar_inputs_give_numpy_scalars():
    # np.float64 and np.complex128 subclass float and complex
    cell = make_cell()
    flux = model.FluxModel(curvature=-TWO_PI * 352e6, sweet_spot_omega=W_GE)
    reals = [model.resonant_efficiency(GA, GB, 0.1 * GA), model.omega_ge_of_bias(0.5, flux),
             model.n_thermal(0.05, W_GE), model.photons_in_pulse(1e-6, 50.0, 2e-6, W_GE),
             model.saturation_curve(1.0, model.SaturationParams(1.0, 0.4, 1.0, 2.0))]
    assert all(type(v) is np.float64 for v in reals)
    assert type(model.efficiency(0.0, cell)) is np.complex128
    assert model.cell_coefficients(W_GE, cell).shape == (4,)


RATES = st.floats(min_value=TWO_PI * 1e4, max_value=TWO_PI * 1e8)
DECAY_RATES = st.floats(min_value=0.0, max_value=TWO_PI * 1e8)
PHASES = st.floats(min_value=-1.4, max_value=1.4)


@st.composite
def cells(draw, lossless=False):
    """Valid cell parameters; lossless cells have real couplings and no decay."""
    coupling = dict(gamma_a=draw(RATES), gamma_b=draw(RATES),
                    omega_ge=TWO_PI * draw(st.floats(min_value=4e9, max_value=8e9)))
    if lossless:
        return model.CellParams(**coupling)
    return model.CellParams(**coupling, phi_a=draw(PHASES), phi_b=draw(PHASES),
                            gamma_phi=draw(DECAY_RATES), gamma_bath=draw(DECAY_RATES))


def kernel_args(p):
    return (p.gamma_a, p.gamma_b, p.omega_ge, p.phi_a, p.phi_b, p.coherence_rate)


def sweep(p, n=33):
    """Probe grid of +-8 loaded linewidths around the resonance."""
    width = p.gamma_sum + p.coherence_rate
    return p.omega_ge + width * np.linspace(-8.0, 8.0, n)


KERNEL_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


class TestCellResponseKernel:
    @KERNEL_SETTINGS
    @given(cells())
    def test_jacobian_matches_central_differences(self, p):
        omega = sweep(p)
        x = np.array(kernel_args(p)[:5])
        width = p.gamma_sum + p.coherence_rate
        steps = 1e-4 * np.array([p.gamma_a, p.gamma_b, width, 1.0, 1.0])
        _, jac = model.cell_response(omega, *x, p.coherence_rate, jacobian=True)
        assert jac.shape == (5, 4, omega.size)
        for k, h in enumerate(steps):
            up, down = x.copy(), x.copy()
            up[k] += h
            down[k] -= h
            numeric = (model.cell_response(omega, *up, p.coherence_rate)
                       - model.cell_response(omega, *down, p.coherence_rate)) / (2.0 * h)
            err = np.linalg.norm(jac[k] - numeric) / np.linalg.norm(numeric)
            assert err < 1e-5

    @KERNEL_SETTINGS
    @given(cells())
    def test_rows_are_the_channel_functions_and_smatrix_entries(self, p):
        omega = sweep(p, 9)
        rows = model.cell_response(omega, *kernel_args(p))
        assert rows.shape == (4, omega.size)
        assert np.array_equal(rows, model.cell_coefficients(omega, p))
        for i, w in enumerate(omega):
            aa, bb, ab, _ = rows[:, i]
            expected = np.array([[aa - 1, aa, ab, ab], [aa, aa - 1, ab, ab],
                                 [ab, ab, bb - 1, bb], [ab, ab, bb, bb - 1]])
            s = model.cell_smatrix(w, p).entries
            assert np.max(np.abs(s - expected)) < 1e-14

    @KERNEL_SETTINGS
    @given(cells())
    def test_efficiency_is_the_four_channel_ratio(self, p):
        omega = sweep(p)
        aa, bb, ab, ba = model.cell_response(omega, *kernel_args(p))
        ratio = ab * ba / (aa * bb)
        np.testing.assert_allclose(model.efficiency(omega - p.omega_ge, p), ratio,
                                   rtol=1e-12, atol=0)

    @KERNEL_SETTINGS
    @given(cells(lossless=True))
    def test_lossless_smatrix_is_unitary(self, p):
        for w in sweep(p, 17):
            s = model.cell_smatrix(w, p).entries
            assert np.max(np.abs(s.conj().T @ s - np.eye(4))) < 1e-12


class TestFlux:
    FLUX = model.FluxModel(curvature=-TWO_PI * 352e6, sweet_spot_omega=W_GE)

    def test_sweet_spot(self):
        assert model.omega_ge_of_bias(0.0, self.FLUX) == pytest.approx(W_GE)

    def test_polynomial_evaluation(self):
        w = model.omega_ge_of_bias(0.5, self.FLUX)
        assert w / TWO_PI == pytest.approx(6.075e9, rel=1e-6)

    def test_flat_without_curvature(self):
        flat = model.FluxModel(curvature=0.0, sweet_spot_omega=W_GE)
        ib = np.linspace(-1, 1, 7)
        assert np.all(model.omega_ge_of_bias(ib, flat) == W_GE)

    def test_positive_curvature_rejected(self):
        with pytest.raises(ValueError):
            model.FluxModel(curvature=1.0, sweet_spot_omega=W_GE)


class TestThermal:
    def test_frozen_bath(self):
        assert model.n_thermal(1e-9, W_GE) == pytest.approx(0.0, abs=1e-12)

    def test_reference_occupations(self):
        assert model.n_thermal(0.060, W_GE) == pytest.approx(0.0073, abs=2e-4)
        assert model.n_thermal(0.100, W_GE) == pytest.approx(0.0548, abs=2e-4)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            model.n_thermal(0.0, W_GE)
        with pytest.raises(ValueError):
            model.n_thermal(0.05, -1.0)

    def test_efficiency_at_zero_occupation(self):
        tc = model.ThermalCoefficients(TWO_PI * 0.26e6, TWO_PI * 10.38e6)
        e = model.efficiency_thermal(0.0, TWO_PI * 1.81e6, TWO_PI * 2.32e6, tc)
        assert e == pytest.approx(0.884, abs=1e-3)

    def test_lossless_coefficients_give_unity(self):
        tc = model.ThermalCoefficients(0.0, 0.0)
        n = np.linspace(0, 1, 9)
        np.testing.assert_allclose(model.efficiency_thermal(n, GA, GB, tc), 1.0)

    def test_monotone_decreasing_in_occupation(self):
        tc = model.ThermalCoefficients(TWO_PI * 0.26e6, TWO_PI * 10.38e6)
        e = model.efficiency_thermal(np.linspace(0, 1, 50), GA, GB, tc)
        assert np.all(np.diff(e) < 0)


class TestPhotonNumber:
    def test_zero_amplitude(self):
        assert model.photons_in_pulse(0.0, 50.0, 2e-6, W_GE) == 0.0

    def test_reference_pulse(self):
        n = model.photons_in_pulse(1e-6, 50.0, 2e-6, W_GE)
        assert n == pytest.approx(4.9e3, rel=2e-3)

    def test_quadratic_in_amplitude(self):
        n1 = model.photons_in_pulse(1e-6, 50.0, 2e-6, W_GE)
        n2 = model.photons_in_pulse(2e-6, 50.0, 2e-6, W_GE)
        assert n2 == pytest.approx(4.0 * n1, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            model.photons_in_pulse(1e-6, 0.0, 2e-6, W_GE)
        with pytest.raises(ValueError):
            model.photons_in_pulse(1e-6, 50.0, -1.0, W_GE)


class TestSaturation:
    PARAMS = model.SaturationParams(a=1.0, b=0.44, c=1.0, d=2.5)

    def test_low_power_asymptote(self):
        assert model.saturation_curve(0.0, self.PARAMS) == pytest.approx(0.56)

    def test_high_power_asymptote(self):
        assert model.saturation_curve(1e12, self.PARAMS) == pytest.approx(1.0, abs=1e-9)

    def test_half_saturation_point(self):
        v = model.saturation_curve(self.PARAMS.d, self.PARAMS)
        assert v == pytest.approx(self.PARAMS.a - self.PARAMS.b / 2, abs=1e-12)

    def test_invariants(self):
        with pytest.raises(ValueError):
            model.SaturationParams(a=1.0, b=0.1, c=1.0, d=0.0)
        with pytest.raises(ValueError):
            model.SaturationParams(a=1.0, b=0.1, c=-1.0, d=1.0)


class TestDressed:
    MODEL = model.DressedModel(
        lambda_red=TWO_PI * 0.81e6, lambda_blue=TWO_PI * 0.39e6,
        omega_ge=W_GE, omega_ef=TWO_PI * 6.015e9,
    )

    def test_no_dressing(self):
        lines = model.dressed_lines(W_GE, 0.0, self.MODEL)
        assert lines.ge_red == pytest.approx(W_GE)
        assert lines.ge_blue == pytest.approx(W_GE)
        assert lines.ef_red == pytest.approx(self.MODEL.omega_ef)

    def test_resonant_shifts_scale_with_sqrt_n(self):
        lines = model.dressed_lines(W_GE, 100.0, self.MODEL)
        assert (lines.ge_red - W_GE) / TWO_PI == pytest.approx(-8.1e6, rel=1e-9)
        assert (lines.ge_blue - W_GE) / TWO_PI == pytest.approx(3.9e6, rel=1e-9)

    def test_even_in_detuning_and_monotone_in_n(self):
        up = model.dressed_lines(W_GE + 5e6, 10.0, self.MODEL)
        down = model.dressed_lines(W_GE - 5e6, 10.0, self.MODEL)
        assert up.ge_red == pytest.approx(down.ge_red, rel=1e-12)
        n = np.linspace(0, 50, 25)
        lines = model.dressed_lines(W_GE + 5e6, n, self.MODEL)
        assert np.all(np.diff(lines.ge_red) < 0)
        assert np.all(np.diff(lines.ge_blue) > 0)
