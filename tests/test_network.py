"""Network composition: diagonal line blocks, exact vs series de-embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routercell import model, network, synth

TWO_PI = 2.0 * math.pi
CELL = model.CellParams(gamma_a=TWO_PI * 1.82e6, gamma_b=TWO_PI * 2.31e6,
                        omega_ge=TWO_PI * 6.163e9)

# channel -> (output port, input port), 0-based, order (A-in, A-out, B-in, B-out)
PORTS = {"AA": (1, 0), "BB": (3, 2), "AB": (3, 0), "BA": (1, 2)}


def two_port(t21, t12=None, r11=0.0, r22=0.0):
    t12 = t21 if t12 is None else t12
    return np.array([[r11, t12], [t21, r22]], dtype=complex)


def random_lines(rng, reflection=0.03, isolation=0.0):
    def mk():
        return two_port(
            t21=0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            t12=0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            r11=rng.uniform(0, reflection) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            r22=rng.uniform(0, reflection) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
        )
    return network.LineModel(mk(), mk(), mk(), mk(), isolation=isolation)


class TestPortMatrix:
    def test_requires_square_finite(self):
        with pytest.raises(ValueError):
            network.PortMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            network.PortMatrix(np.array([[np.nan, 0], [0, 0]]))

    def test_passivity_check(self):
        assert network.PortMatrix(0.5 * np.eye(3)).is_passive()
        assert not network.PortMatrix(1.5 * np.eye(3)).is_passive()


# wave order: (a1A, a2A, a1GA, a2GA, a1B, a2B, a1GB, a2GB) maps to
# externals (a1A, a2GA, a1B, a2GB) then internals (a2A, a1GA, a2B, a1GB)
PERMUTATION = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
], dtype=float)


def permuted_blocks(lines):
    """Reference 4x4 line blocks: corners of the permuted 8x8 block diagonal."""
    full = np.zeros((8, 8), dtype=complex)
    for k, mat in enumerate(lines.matrices):
        full[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = mat
    comp = PERMUTATION @ full @ PERMUTATION.T
    return comp[:4, :4], comp[:4, 4:], comp[4:, :4], comp[4:, 4:]


def reference_compose(cell, lines):
    """``S11 + S12 S (I - S22 S)^-1 S21`` on the full 4x4 reference blocks."""
    s11, s12, s21, s22 = permuted_blocks(lines)
    return s11 + s12 @ cell @ np.linalg.solve(np.eye(4) - s22 @ cell, s21)


class TestLineModel:
    E = two_port(1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"s_out_b": np.stack([E] * 3)}, "s_out_b has 3 frequency points but s_in_a has 5"),
        ({"isolation": np.zeros(7)}, "isolation has 7 frequency points but s_in_a has 5"),
    ], ids=["matrix", "isolation"])
    def test_per_frequency_lengths_must_agree(self, kwargs, message):
        five = np.stack([self.E] * 5)
        elements = {"s_in_a": five, "s_out_a": self.E, "s_in_b": five, "s_out_b": self.E,
                    **kwargs}
        with pytest.raises(ValueError, match=message):
            network.LineModel(**elements)

    def test_isolation_must_be_scalar_or_one_dimensional(self):
        with pytest.raises(ValueError, match="isolation must be a scalar or a length-n array"):
            network.LineModel(self.E, self.E, self.E, self.E, isolation=np.zeros((2, 2)))

    def test_per_frequency_isolation_sets_the_point_count(self):
        lines = network.LineModel(self.E, self.E, self.E, self.E, isolation=np.zeros(3))
        assert lines.n_points == 3


class TestComplementaryBlocks:
    def test_ideal_lines(self):
        s11, s12, s21, s22 = network.complementary_blocks(network.ideal_lines())
        assert np.allclose(s11, 0.0)
        assert np.allclose(s22, 0.0)
        assert np.allclose(s12, 1.0)
        assert np.allclose(s21, 1.0)

    def test_uniform_reflection_fills_s11_diagonal(self):
        r = 0.07 - 0.02j
        m = two_port(t21=0.9, r11=r, r22=r)
        s11, *_ = network.complementary_blocks(network.LineModel(m, m, m, m))
        assert np.allclose(s11, r)

    def test_slots_match_permuted_block_product(self):
        rng = np.random.default_rng(42)
        lines = random_lines(rng, reflection=0.05)
        blocks = network.complementary_blocks(lines)
        for diag, ref in zip(blocks, permuted_blocks(lines)):
            assert diag.shape == (4,)
            assert np.array_equal(np.diag(diag), ref)
        s11, s12, s21, s22 = blocks
        # asymmetric transmissions land in distinct diagonal slots
        assert s21[0] == lines.s_in_a[1, 0]
        assert s21[1] == lines.s_out_a[0, 1]
        assert s12[1] == lines.s_out_a[1, 0]

    def test_rejects_per_frequency_lines(self):
        m = np.repeat(two_port(0.9)[None], 3, axis=0)
        lines = network.LineModel(m, m, m, m)
        with pytest.raises(ValueError):
            network.complementary_blocks(lines)


class TestComposeExact:
    def test_ideal_lines_reproduce_cell(self):
        s = model.cell_smatrix(CELL.omega_ge + 2e6 * TWO_PI, CELL)
        out = network.compose_exact(s, network.ideal_lines())
        assert np.max(np.abs(out.s_meas.entries - s.entries)) < 1e-12
        assert out.truncation_error == 0.0

    def test_attenuators_square_the_through_path(self):
        tau = 0.4
        cell = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        m = two_port(t21=tau)
        out = network.compose_exact(cell, network.LineModel(m, m, m, m))
        i_out, i_in = PORTS["AA"]
        assert out.s_meas.entries[i_out, i_in] == pytest.approx(tau**2, abs=1e-12)

    def test_zero_cell_gives_zero_response(self):
        out = network.compose_exact(np.zeros((4, 4)), network.ideal_lines())
        assert np.max(np.abs(out.s_meas.entries)) < 1e-11

    def test_singular_internal_system_raises(self):
        # fully reflective internal ports against an identity cell
        m = np.array([[0, 0], [0, 1]], dtype=complex)  # port-2 full reflection
        g = np.array([[1, 0], [0, 0]], dtype=complex)  # port-1 full reflection
        lines = network.LineModel(m, g, m, g)
        with pytest.raises(network.SingularNetworkError):
            network.compose_exact(np.eye(4), lines)


class TestComposeNeumann:
    def test_order_zero_is_direct_line_response(self):
        rng = np.random.default_rng(1)
        lines = random_lines(rng, reflection=0.1)
        s = model.cell_smatrix(CELL.omega_ge, CELL)
        out = network.compose_neumann(s, lines, order=0)
        s11, *_ = network.complementary_blocks(lines)
        assert np.allclose(out.s_meas.entries, np.diag(s11))

    def test_reflectionless_first_order_equals_exact(self):
        m = two_port(t21=0.8 * np.exp(0.3j), t12=0.7)
        lines = network.LineModel(m, m, m, m)
        s = model.cell_smatrix(CELL.omega_ge + TWO_PI * 1e6, CELL)
        out = network.compose_neumann(s, lines, order=1)
        assert out.truncation_error < 1e-14

    def test_geometric_error_decay(self):
        rng = np.random.default_rng(3)
        lines = random_lines(rng, reflection=0.1)
        s = model.cell_smatrix(CELL.omega_ge + TWO_PI * 3e6, CELL)
        *_, s22 = network.complementary_blocks(lines)
        radius = np.max(np.abs(np.linalg.eigvals(s.entries * s22)))
        errs = [network.compose_neumann(s, lines, order=k).truncation_error
                for k in range(1, 6)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios < 2.5 * radius)
        assert np.all(ratios > radius / 2.5)

    def test_divergent_series_raises(self):
        full = np.array([[1, 0], [0, 1]], dtype=complex)  # total reflectors
        lines = network.LineModel(full, full, full, full)
        with pytest.raises(network.DivergenceError):
            network.compose_neumann(np.eye(4), lines, order=2)

    def test_converges_to_exact(self):
        rng = np.random.default_rng(7)
        lines = random_lines(rng, reflection=0.08)
        s = model.cell_smatrix(CELL.omega_ge, CELL)
        out = network.compose_neumann(s, lines, order=40)
        assert out.truncation_error < 1e-14


PHASE = st.floats(min_value=-np.pi, max_value=np.pi)


@st.composite
def passive_lines(draw):
    """Four two-ports with transmissions up to 0.8 and reflections up to 0.2.

    The 2-norm is at most the largest transmission plus the largest
    reflection, so every line is passive.
    """
    def entry(lo, hi):
        return draw(st.floats(min_value=lo, max_value=hi)) * np.exp(1j * draw(PHASE))

    mats = [two_port(t21=entry(0.3, 0.8), t12=entry(0.3, 0.8),
                     r11=entry(0.0, 0.2), r22=entry(0.0, 0.2)) for _ in range(4)]
    return network.LineModel(*mats)


@st.composite
def cell_matrices(draw):
    """Cell S-matrices of valid cells, probed within 8 loaded linewidths."""
    rate = st.floats(min_value=TWO_PI * 1e4, max_value=TWO_PI * 1e8)
    phase = st.floats(min_value=-1.4, max_value=1.4)
    p = model.CellParams(
        gamma_a=draw(rate), gamma_b=draw(rate),
        omega_ge=TWO_PI * draw(st.floats(min_value=4e9, max_value=8e9)),
        phi_a=draw(phase), phi_b=draw(phase),
        gamma_phi=draw(st.floats(min_value=0.0, max_value=TWO_PI * 1e8)),
        gamma_bath=draw(st.floats(min_value=0.0, max_value=TWO_PI * 1e8)),
    )
    detuning = draw(st.floats(min_value=-8.0, max_value=8.0))
    return model.cell_smatrix(p.omega_ge + detuning * (p.gamma_sum + p.coherence_rate), p)


COMPOSE_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


class TestCompositionProperties:
    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines())
    def test_exact_matches_permuted_reference(self, cell, lines):
        assert lines.is_passive()
        out = network.compose_exact(cell, lines)
        ref = reference_compose(cell.entries, lines)
        assert np.max(np.abs(out.s_meas.entries - ref)) < 1e-12

    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines())
    def test_truncation_error_is_the_distance_from_exact(self, cell, lines):
        exact = network.compose_exact(cell, lines).s_meas.entries
        for k in range(6):
            out = network.compose_neumann(cell, lines, order=k)
            measured = np.max(np.abs(out.s_meas.entries - exact))
            assert abs(out.truncation_error - measured) < 1e-12

    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines())
    def test_order_zero_is_s11(self, cell, lines):
        s11, *_ = permuted_blocks(lines)
        out = network.compose_neumann(cell, lines, order=0)
        assert np.array_equal(out.s_meas.entries, s11)

    @pytest.mark.parametrize("compose", [
        network.compose_exact,
        lambda cell, lines: network.compose_neumann(cell, lines, order=2),
    ])
    def test_rejects_non_four_port_cell(self, compose):
        with pytest.raises(ValueError, match="4-port"):
            compose(network.PortMatrix(np.eye(3)), network.ideal_lines())


class TestSimplifiedForward:
    def test_ideal_lines_identity(self):
        coeffs = model.cell_coefficients(CELL.omega_ge + TWO_PI * 1e6, CELL)
        meas = network.simplified_forward(coeffs, network.ideal_lines())
        for ch in range(len(model.CHANNELS)):
            assert meas[ch] == pytest.approx(coeffs[ch], abs=1e-15)

    def test_high_drive_reference_forms(self):
        iso = 0.1 * np.exp(0.4j)
        rng = np.random.default_rng(5)
        lines = random_lines(rng, reflection=0.0, isolation=iso)
        hd = dict(zip(model.CHANNELS, network.simplified_forward(synth.hd_cell_coefficients(), lines)))
        sa, ga_, sb, gb_ = (m[1, 0] for m in lines.matrices)
        assert hd["AA"] == pytest.approx(sa * ga_, abs=1e-15)
        assert hd["AB"] == pytest.approx(sa * iso * gb_, abs=1e-15)
        assert hd["BA"] == pytest.approx(sb * iso * ga_, abs=1e-15)

    @staticmethod
    def _worst_deviation(reflection, seeds=range(8)):
        # worst deviation from the exact composition, normalized to the
        # through-channel line level (0.9 * 0.9)
        worst = 0.0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            lines = random_lines(rng, reflection=reflection)
            for df in np.linspace(-6e6, 6e6, 5):
                omega = CELL.omega_ge + TWO_PI * df
                coeffs = model.cell_coefficients(omega, CELL)
                approx = dict(zip(model.CHANNELS, network.simplified_forward(coeffs, lines)))
                exact = network.compose_exact(model.cell_smatrix(omega, CELL), lines)
                for ch, (i_out, i_in) in PORTS.items():
                    ref = exact.s_meas.entries[i_out, i_in]
                    worst = max(worst, abs(approx[ch] - ref) / 0.81)
        return worst

    def test_agrees_with_exact_composition_at_small_reflections(self):
        # deviation is first order in the reflection bound: within 1 % of
        # the through level for reflections <= 0.01 and growing linearly
        err_small = self._worst_deviation(0.01)
        err_large = self._worst_deviation(0.03)
        assert err_small < 0.01
        assert err_large < 0.05
        assert 1.5 < err_large / err_small < 6.0

    def test_global_phase_covariance(self):
        rng = np.random.default_rng(13)
        lines = random_lines(rng, reflection=0.02, isolation=0.05)
        theta = 0.7
        rotated = network.LineModel(
            *(m * np.array([[1, np.exp(1j * theta)], [np.exp(1j * theta), 1]])
              for m in lines.matrices),
            isolation=lines.isolation,
        )
        coeffs = model.cell_coefficients(CELL.omega_ge, CELL)
        base = network.simplified_forward(coeffs, lines)
        rot = network.simplified_forward(coeffs, rotated)
        assert rot[0] == pytest.approx(base[0] * np.exp(2j * theta), abs=1e-14)
        hd_base = network.simplified_forward(synth.hd_cell_coefficients(), lines)
        hd_rot = network.simplified_forward(synth.hd_cell_coefficients(), rotated)
        i_base = network.isolation_from_hd(hd_base)
        i_rot = network.isolation_from_hd(hd_rot)
        assert abs(i_rot) == pytest.approx(abs(i_base), abs=1e-14)


class TestIsolationRecovery:
    @pytest.mark.parametrize("mag", [0.1, 0.03])
    def test_round_trip_through_forward_model(self, mag):
        rng = np.random.default_rng(21)
        injected = mag * np.exp(1j * rng.uniform(-np.pi, np.pi))
        lines = random_lines(rng, reflection=0.0, isolation=injected)
        hd = network.simplified_forward(synth.hd_cell_coefficients(), lines)
        recovered = network.isolation_from_hd(hd)
        assert abs(recovered - injected) < 1e-10 or abs(recovered + injected) < 1e-10
        assert abs(abs(recovered) - mag) < 1e-12

    def test_per_point_traces_give_one_value_per_point(self):
        rng = np.random.default_rng(22)
        injected = 0.05 * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        lines = random_lines(rng, reflection=0.0, isolation=injected)
        hd = network.simplified_forward(synth.hd_cell_coefficients(injected.size), lines)
        recovered = network.isolation_from_hd(hd)
        assert recovered.shape == injected.shape
        # the principal root fixes the sign of each point separately
        assert np.all(np.minimum(abs(recovered - injected), abs(recovered + injected)) < 1e-10)
        single = [network.isolation_from_hd(hd[:, i]) for i in range(injected.size)]
        assert all(isinstance(v, complex) for v in single)
        # vectorised and scalar complex division may round differently
        np.testing.assert_allclose(recovered, single, rtol=1e-14, atol=0)

    def test_zero_isolation(self):
        lines = network.ideal_lines(isolation=0.0)
        hd = network.simplified_forward(synth.hd_cell_coefficients(), lines)
        assert network.isolation_from_hd(hd) == 0.0

    def test_zero_through_reference_rejected(self):
        with pytest.raises(ValueError):
            network.isolation_from_hd([0.0, 1.0, 0.1, 0.1])
