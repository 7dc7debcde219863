"""Network composition: diagonal line blocks, exact vs series de-embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routercell import model, network, synth
from routercell.presets import STEADY_STATE_CELL

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
    return network.LineModel([mk(), mk(), mk(), mk()], isolation=isolation)


class TestPortMatrix:
    def test_requires_square_finite(self):
        # square and four ports: the one cell type of the compositions
        for shape in [(2, 3), (3, 3), (5, 5), (4,), (1, 4, 4)]:
            with pytest.raises(ValueError, match="must be a 4-port"):
                network.PortMatrix(np.zeros(shape))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="entries must be finite"):
                network.PortMatrix(np.where(np.eye(4) > 0, bad, 0.0))

    def test_entries_whose_squares_overflow_are_finite(self):
        # their sum of squares overflows, so the elementwise check decides, without a warning
        entries = np.full((4, 4), complex(1e200, -1e200))
        assert np.array_equal(network.PortMatrix(entries).entries, entries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                     complex(1e200, math.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "inf-beside-large"])
    def test_one_non_finite_entry_is_refused(self, bad):
        entries = np.eye(4, dtype=complex)
        entries[2, 1] = bad
        with pytest.raises(ValueError, match="^4-port matrix entries must be finite$"):
            network.PortMatrix(entries)

    def test_copies_a_callers_array(self):
        a = np.eye(4, dtype=complex)
        cell = network.PortMatrix(a)
        assert not np.shares_memory(cell.entries, a) and not cell.entries.flags.writeable
        a[0, 0] = 7.0
        assert np.array_equal(cell.entries, np.eye(4))

    def test_package_built_matrices_are_read_only_and_own_their_memory(self):
        lines = random_lines(np.random.default_rng(11), reflection=0.05, isolation=1e-3)
        cell = model.cell_smatrix(CELL.omega_ge + 1e6, CELL)
        inputs = (cell.entries, lines.two_ports, *lines._blocks, lines._scaling)
        built = [cell, network.compose_exact(cell, lines).s_meas,
                 *(network.compose_neumann(cell, lines, order).s_meas for order in (0, 1, 3))]
        for m in built:
            assert not m.entries.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m.entries[0, 0] = 0.0
        for m in built[1:]:
            assert not any(np.shares_memory(m.entries, a) for a in inputs)


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


#: Finite real or imaginary parts of line entries.
ENTRY = st.floats(min_value=-2.0, max_value=2.0)
#: The through cell: each input port passes everything to its output port.
THROUGH = network.PortMatrix(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))

#: Both compositions, the series at order 2.
BOTH_COMPOSITIONS = (network.compose_exact,
                     lambda cell, lines: network.compose_neumann(cell, lines, order=2))
COMPOSITIONS = pytest.mark.parametrize("compose", BOTH_COMPOSITIONS, ids=["exact", "series"])


class TestLineModel:
    E = two_port(1.0)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 2), (4, 2, 3), (4, 3, 1, 2, 2), (2, 4, 2, 2)])
    def test_stack_must_hold_four_two_ports(self, shape):
        with pytest.raises(ValueError, match=r"two_ports must have shape \(4, 2, 2\) or \(4, n, 2, 2\)"):
            network.LineModel(np.zeros(shape))

    @pytest.mark.parametrize("n", [None, 3], ids=["constant", "per-frequency"])
    @pytest.mark.parametrize("k, port", enumerate(["A-in", "A-out", "B-in", "B-out"]))
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_names_its_line(self, n, k, port, bad):
        stack = np.broadcast_to(self.E, (4, 2, 2) if n is None else (4, n, 2, 2)).copy()
        stack.reshape(4, -1)[k, -1] = bad  # the last entry of line k alone
        with pytest.raises(ValueError, match=f"^{port} line entries must be finite$"):
            network.LineModel(stack)

    # the four lines are one array: lines of unequal point counts, or a constant
    # line beside per-frequency ones, cannot be stacked at all (numpy refuses
    # the ragged list), and an isolation array must have the stack's point count
    @pytest.mark.parametrize("kwargs, message", [
        ({"two_ports": [np.stack([E] * 5)] * 3 + [np.stack([E] * 3)]}, "sequence"),
        ({"two_ports": [np.stack([E] * 5), E] * 2}, "sequence"),
        ({"two_ports": [np.stack([E] * 5)] * 4, "isolation": np.zeros(7)},
         "isolation must be a scalar or one value per frequency point"),
    ], ids=["matrix", "mixed", "isolation"])
    def test_per_frequency_lengths_must_agree(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            network.LineModel(**kwargs)

    def test_isolation_must_be_scalar_or_one_dimensional(self):
        stack = np.stack([self.E] * 4)
        with pytest.raises(ValueError, match="isolation must be a scalar or one value per frequency point"):
            network.LineModel(stack, isolation=np.zeros((2, 2)))

    def test_per_frequency_isolation_needs_per_frequency_lines(self):
        # the lines set the point count; frequency-independent lines take a scalar isolation only
        for n in (1, 3):
            with pytest.raises(ValueError, match="isolation must be a scalar or one value per frequency point"):
                network.LineModel(np.stack([self.E] * 4), isolation=np.zeros(n))
            lines = network.LineModel(np.broadcast_to(self.E, (4, n, 2, 2)), isolation=np.zeros(n))
            assert lines.two_ports.shape == (4, n, 2, 2)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_slice_equals_a_validated_model_of_its_entries(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        def entries(shape):
            parts = data.draw(st.lists(ENTRY, min_size=2 * math.prod(shape),
                                       max_size=2 * math.prod(shape)))
            return (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(shape)
        stack = entries((4, n, 2, 2))
        per_frequency = data.draw(st.booleans())
        iso = entries((n,)) if per_frequency else complex(*data.draw(st.tuples(ENTRY, ENTRY)))
        lines = network.LineModel(stack, isolation=iso)
        i = data.draw(st.integers(min_value=0, max_value=n - 1))

        point = lines.at(i)
        built = network.LineModel(stack[:, i], isolation=complex(iso[i]) if per_frequency else iso)
        assert point.two_ports.dtype == complex and point.two_ports.shape == (4, 2, 2)
        assert np.array_equal(point.two_ports, built.two_ports)
        assert type(point.isolation) is complex
        assert point.isolation == built.isolation
        for got, want in zip(point._blocks, built._blocks):
            assert np.array_equal(got, want)
        assert built.at(i) is built  # frequency-independent lines hold at every point

    def test_slice_is_not_validated_again(self, monkeypatch):
        lines = network.LineModel(np.broadcast_to(self.E, (4, 3, 2, 2)), isolation=np.zeros(3))

        def refuse(self):
            raise AssertionError("LineModel.at validated its slice again")

        monkeypatch.setattr(network.LineModel, "__post_init__", refuse)
        point = lines.at(1)
        assert point.two_ports.base is lines.two_ports
        assert point.two_ports.shape == (4, 2, 2)

    def test_matrices_and_slices_are_views_of_the_held_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 6, 2, 2)) + 1j * rng.standard_normal((4, 6, 2, 2))
        lines = network.LineModel(stack, isolation=np.full(6, 1e-2))
        held = lines.two_ports
        assert held.shape == (4, 6, 2, 2) and held.dtype == complex
        assert not np.shares_memory(held, stack)
        assert lines.matrices[0].shape == (6, 2, 2)
        assert all(m.base is held for m in lines.matrices)
        for i in (0, 5):
            point = lines.at(i)
            assert point.two_ports.base is held
            assert all(m.base is held for m in point.matrices)
            assert np.array_equal(point.two_ports, stack[:, i])

    def test_slices_share_one_stack_built_once(self):
        rng = np.random.default_rng(7)
        per_point = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        lines = network.LineModel([per_point, np.broadcast_to(two_port(0.9, r11=0.1), (5, 2, 2)),
                                   per_point[::-1], np.broadcast_to(two_port(0.8, r22=0.2j), (5, 2, 2))],
                                  isolation=np.full(5, 1e-2))
        diagonals = lines._blocks
        assert lines._blocks is diagonals  # kept after the first use
        base = diagonals[0].base
        assert all(d.base is base and d.shape == (5, 4) for d in diagonals)
        assert base.shape == (5, 4, 2, 2) and not base.flags.writeable
        assert not np.shares_memory(base, lines.two_ports)
        scaling = lines._scaling
        assert lines._scaling is scaling
        assert scaling.shape == (5, 4, 4) and not scaling.flags.writeable
        assert not np.shares_memory(scaling, base)
        _, s12, s21, _ = diagonals
        for i in range(5):
            point = lines.at(i)
            for got, d in zip(point._blocks, diagonals):
                assert got.base is base and np.shares_memory(got, d)
                assert np.array_equal(got, d[i])
            assert point._scaling.base is scaling and point._scaling.shape == (4, 4)
            assert np.array_equal(point._scaling, s12[i][:, None] * s21[i])
        assert lines._blocks is diagonals and lines._scaling is scaling

    def test_block_product_is_built_once_per_line_model(self, monkeypatch):
        stack = random_lines(np.random.default_rng(2)).two_ports
        lines = network.LineModel(np.broadcast_to(stack[:, None], (4, 6, 2, 2)))
        built = []
        build = network.LineModel._scaling.func

        def counted(model):
            built.append(1)
            return build(model)

        monkeypatch.setattr(network.LineModel._scaling, "func", counted)
        for i in range(6):
            network.compose_exact(THROUGH, lines.at(i))
            network.compose_neumann(THROUGH, lines.at(i), order=2)
        assert built == [1]

    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((4, 4, 2, 2)) + 1j * rng.standard_normal((4, 4, 2, 2))
        iso = np.full(4, 1e-3 + 0j)
        lines = network.LineModel(stack, isolation=iso)
        kept = lines.two_ports.copy()
        before = [d.copy() for d in (*lines.at(2)._blocks, lines.at(2)._scaling)]
        for m in (lines.two_ports, *lines.matrices, lines.at(2).two_ports, lines.isolation,
                  *lines.at(2)._blocks, lines._scaling, lines.at(2)._scaling):
            with pytest.raises(ValueError, match="read-only"):
                m[...] = 0.0
        stack[...] = 7.0
        iso[...] = 7.0
        assert np.array_equal(lines.two_ports, kept)
        assert np.all(lines.isolation == 1e-3)
        for got, want in zip((*lines.at(2)._blocks, lines.at(2)._scaling), before):
            assert np.array_equal(got, want)


class TestComplementaryBlocks:
    """The line-block diagonals the compositions read, ``LineModel._blocks``."""

    def test_ideal_lines(self):
        s11, s12, s21, s22 = network.ideal_lines()._blocks
        assert np.allclose(s11, 0.0)
        assert np.allclose(s22, 0.0)
        assert np.allclose(s12, 1.0)
        assert np.allclose(s21, 1.0)

    def test_uniform_reflection_fills_s11_diagonal(self):
        r = 0.07 - 0.02j
        m = two_port(t21=0.9, r11=r, r22=r)
        s11, *_ = network.LineModel([m, m, m, m])._blocks
        assert np.allclose(s11, r)

    def test_slots_match_permuted_block_product(self):
        rng = np.random.default_rng(42)
        lines = random_lines(rng, reflection=0.05)
        blocks = lines._blocks
        for diag, ref in zip(blocks, permuted_blocks(lines)):
            assert diag.shape == (4,)
            assert np.array_equal(np.diag(diag), ref)
        s11, s12, s21, s22 = blocks
        # asymmetric transmissions land in distinct diagonal slots
        in_a, out_a, *_ = lines.matrices
        assert s21[0] == in_a[1, 0]
        assert s21[1] == out_a[0, 1]
        assert s12[1] == out_a[1, 0]

    def test_rejects_per_frequency_lines(self):
        m = np.repeat(two_port(0.9)[None], 3, axis=0)
        lines = network.LineModel([m, m, m, m])
        for compose in BOTH_COMPOSITIONS:
            with pytest.raises(ValueError, match="single-frequency lines; use LineModel.at"):
                compose(THROUGH, lines)

    @pytest.mark.parametrize("isolation", [0.1j, np.zeros(3)], ids=["lines", "isolation"])
    def test_rejects_per_frequency_lines_after_slicing(self, isolation):
        m = np.repeat(two_port(0.9)[None], 3, axis=0)
        lines = network.LineModel([m, m, m, m], isolation=isolation)
        network.compose_exact(THROUGH, lines.at(1))  # builds and keeps the stack
        for compose in BOTH_COMPOSITIONS:
            with pytest.raises(ValueError, match="single-frequency"):
                compose(THROUGH, lines)


class TestComposeExact:
    def test_ideal_lines_reproduce_cell(self):
        s = model.cell_smatrix(CELL.omega_ge + 2e6 * TWO_PI, CELL)
        out = network.compose_exact(s, network.ideal_lines())
        assert np.max(np.abs(out.s_meas.entries - s.entries)) < 1e-12
        assert out.truncation_error == 0.0

    def test_attenuators_square_the_through_path(self):
        tau = 0.4
        m = two_port(t21=tau)
        out = network.compose_exact(THROUGH, network.LineModel([m, m, m, m]))
        i_out, i_in = PORTS["AA"]
        assert out.s_meas.entries[i_out, i_in] == pytest.approx(tau**2, abs=1e-12)

    def test_zero_cell_gives_zero_response(self):
        out = network.compose_exact(network.PortMatrix(np.zeros((4, 4))), network.ideal_lines())
        assert np.max(np.abs(out.s_meas.entries)) < 1e-11

    def test_singular_internal_system_raises(self):
        # fully reflective internal ports against an identity cell
        m = np.array([[0, 0], [0, 1]], dtype=complex)  # port-2 full reflection
        g = np.array([[1, 0], [0, 0]], dtype=complex)  # port-1 full reflection
        lines = network.LineModel([m, g, m, g])
        with pytest.raises(network.SingularNetworkError):
            network.compose_exact(network.PortMatrix(np.eye(4)), lines)


class TestComposeNeumann:
    def test_order_zero_is_direct_line_response(self):
        rng = np.random.default_rng(1)
        lines = random_lines(rng, reflection=0.1)
        s = model.cell_smatrix(CELL.omega_ge, CELL)
        out = network.compose_neumann(s, lines, order=0)
        s11, *_ = lines._blocks
        assert np.allclose(out.s_meas.entries, np.diag(s11))

    def test_reflectionless_first_order_equals_exact(self):
        m = two_port(t21=0.8 * np.exp(0.3j), t12=0.7)
        lines = network.LineModel([m, m, m, m])
        s = model.cell_smatrix(CELL.omega_ge + TWO_PI * 1e6, CELL)
        out = network.compose_neumann(s, lines, order=1)
        assert out.truncation_error < 1e-14

    def test_geometric_error_decay(self):
        rng = np.random.default_rng(3)
        lines = random_lines(rng, reflection=0.1)
        s = model.cell_smatrix(CELL.omega_ge + TWO_PI * 3e6, CELL)
        *_, s22 = lines._blocks
        radius = np.max(np.abs(np.linalg.eigvals(s.entries * s22)))
        errs = [network.compose_neumann(s, lines, order=k).truncation_error
                for k in range(1, 6)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios < 2.5 * radius)
        assert np.all(ratios > radius / 2.5)

    def test_divergent_series_raises(self):
        full = np.array([[1, 0], [0, 1]], dtype=complex)  # total reflectors
        lines = network.LineModel([full, full, full, full])
        with pytest.raises(network.DivergenceError):
            network.compose_neumann(network.PortMatrix(np.eye(4)), lines, order=2)

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
    return network.LineModel(mats)


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


@st.composite
def reflective_lines(draw):
    """Four two-ports with transmissions up to 0.8 and reflections up to 0.95.

    Not all passive.  Against a cell from :func:`cell_matrices` the row
    sum of ``|S22 S|`` often exceeds 1/2, so these draws exercise the
    SVD behind :func:`network.compose_exact`'s singularity check.
    """
    def entry(lo, hi):
        return draw(st.floats(min_value=lo, max_value=hi)) * np.exp(1j * draw(PHASE))

    mats = [two_port(t21=entry(0.3, 0.8), t12=entry(0.3, 0.8),
                     r11=entry(0.0, 0.95), r22=entry(0.0, 0.95)) for _ in range(4)]
    return network.LineModel(mats)


UNIT = st.sampled_from([1.0, 1j, -1.0, -1j])


@st.composite
def reflector_networks(draw):
    """A through cell with unit-phase transmissions between lines whose
    internal ports reflect 1/2 or 1 with a unit phase.

    The eigenvalues of ``S S22`` are then exactly ``±sqrt(r r' t^2)``, so
    some draws have spectral radius 1 and an exactly singular ``I - S22 S``,
    others a radius of 1/sqrt(2) under a row sum of 1, and others 1/2.
    """
    cell = np.zeros((4, 4), dtype=complex)
    cell[0, 1] = cell[1, 0] = draw(UNIT)
    cell[2, 3] = cell[3, 2] = draw(UNIT)
    internal = [draw(st.sampled_from([0.5, 1.0])) * draw(UNIT) for _ in range(4)]
    # input lines face the cell with port 2, output lines with port 1
    mats = [two_port(0.5, r22=r) if k % 2 == 0 else two_port(0.5, r11=r)
            for k, r in enumerate(internal)]
    return network.PortMatrix(cell), network.LineModel(mats)


COMPOSE_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
#: Cells and lines on both sides of each composition's row-sum bound.
EITHER_SIDE_OF_THE_BOUND = st.one_of(st.tuples(cell_matrices(), reflective_lines()),
                                     reflector_networks())


class TestCompositionProperties:
    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines())
    def test_exact_matches_permuted_reference(self, cell, lines):
        assert np.all(np.linalg.norm(lines.two_ports, 2, axis=(1, 2)) <= 1.0 + 1e-9)
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
    def test_series_keeps_order_terms(self, cell, lines):
        s = cell.entries
        s11, s12, s21, s22 = permuted_blocks(lines)
        x = s @ s22
        for k in range(6):
            kept = sum((np.linalg.matrix_power(x, j) for j in range(k)), np.zeros((4, 4)))
            ref = s11 + s12 @ kept @ s @ s21
            out = network.compose_neumann(cell, lines, order=k).s_meas.entries
            assert np.max(np.abs(out - ref)) < 1e-12

    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines())
    def test_order_zero_is_s11(self, cell, lines):
        s11, *_ = permuted_blocks(lines)
        out = network.compose_neumann(cell, lines, order=0)
        assert np.array_equal(out.s_meas.entries, s11)

    @COMPOSE_SETTINGS
    @given(EITHER_SIDE_OF_THE_BOUND)
    def test_exact_raises_exactly_when_ill_conditioned(self, net):
        cell, lines = net
        s = cell.entries
        *_, s22 = permuted_blocks(lines)
        cond = np.linalg.cond(np.eye(4) - s22 @ s)
        if not np.isfinite(cond) or cond > 1e14:
            with pytest.raises(network.SingularNetworkError):
                network.compose_exact(cell, lines)
            return
        out = network.compose_exact(cell, lines).s_meas.entries
        ref = reference_compose(s, lines)
        # both solve the same I - S22 S; only the products around the solve round differently
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @COMPOSE_SETTINGS
    @given(EITHER_SIDE_OF_THE_BOUND)
    def test_series_diverges_exactly_when_the_spectral_radius_reaches_one(self, net):
        cell, lines = net
        s = cell.entries
        *_, s22 = permuted_blocks(lines)
        radius = np.max(np.abs(np.linalg.eigvals(s @ s22)))
        try:
            out = network.compose_neumann(cell, lines, order=3)
        except network.DivergenceError:
            # at an eigenvalue of exactly 1, eigvals may round the radius just below 1
            assert radius >= 1.0 - 1e-12
            return
        assert radius < 1.0
        cond = np.linalg.cond(np.eye(4) - s22 @ s)
        if cond <= 1e14:
            ref = reference_compose(s, lines)
            measured = np.max(np.abs(out.s_meas.entries - ref))
            # the series sums through I - S S22, the reference through I - S22 S
            tol = 1e-14 * cond * max(1.0, np.max(np.abs(ref)))
            assert abs(out.truncation_error - measured) <= tol

    def test_nilpotent_loop_composes_past_both_row_sum_bounds(self):
        # S S22 and S22 S are strictly upper triangular with row sum 2: both
        # bounds fail, the spectral radius is 0, and the series ends after two terms
        s = np.zeros((4, 4), dtype=complex)
        s[0, 1] = s[2, 3] = 2.0
        cell = network.PortMatrix(s)
        lines = network.LineModel([two_port(0.5, r22=1.0), two_port(0.5, r11=1.0),
                                   two_port(0.5, r22=1.0), two_port(0.5, r11=1.0)])
        *_, s22 = lines._blocks
        assert np.abs(s22[:, None] * s).sum(axis=1).max() == 2.0
        assert np.abs(s * s22).sum(axis=1).max() == 2.0
        exact = network.compose_exact(cell, lines).s_meas.entries
        assert np.max(np.abs(exact - reference_compose(s, lines))) < 1e-15
        series = network.compose_neumann(cell, lines, order=2)
        assert series.truncation_error == 0.0
        assert np.array_equal(series.s_meas.entries, exact)

    def test_series_at_unit_spectral_radius_raises(self):
        # eigenvalues of S S22 are exactly +-1 on the B block; eigvals rounds
        # the radius below 1, and the singular I - S S22 is what reports it
        lines = network.LineModel([two_port(0.5), two_port(0.5, r11=0.5),
                                   two_port(0.5, r22=1j), two_port(0.5, r11=-1j)])
        with pytest.raises(network.DivergenceError):
            network.compose_neumann(THROUGH, lines, order=2)
        with pytest.raises(network.SingularNetworkError):
            network.compose_exact(THROUGH, lines)

    def test_matched_lines_skip_the_svd_and_the_eigenvalues(self, monkeypatch):
        # reflections up to 0.1 keep both row sums below their bounds, so
        # neither check needs a factorisation of its own
        def unused(*args, **kwargs):
            raise AssertionError("the row-sum bound should have settled the check")

        lines = random_lines(np.random.default_rng(11), reflection=0.1)
        monkeypatch.setattr(np.linalg, "cond", unused)
        monkeypatch.setattr(np.linalg, "eigvals", unused)
        for df in np.linspace(-6e6, 6e6, 7):
            cell = model.cell_smatrix(CELL.omega_ge + TWO_PI * df, CELL)
            network.compose_exact(cell, lines)
            network.compose_neumann(cell, lines, order=3)

    @COMPOSITIONS
    def test_port_matrix_cell_is_not_checked_again(self, monkeypatch, compose):
        # a PortMatrix was checked finite when it was built; a raw array is refused
        isfinite = np.isfinite
        checked = []

        def spy(a, *args, **kwargs):
            checked.append(a)
            return isfinite(a, *args, **kwargs)

        cell = model.cell_smatrix(CELL.omega_ge, CELL)
        lines = random_lines(np.random.default_rng(5))
        monkeypatch.setattr(np, "isfinite", spy)
        compose(cell, lines)
        assert not any(a is cell.entries for a in checked)
        with pytest.raises(TypeError, match="cell must be a PortMatrix, got ndarray"):
            compose(cell.entries.copy(), lines)

    @COMPOSITIONS
    @pytest.mark.parametrize("cell", [
        np.eye(3),
        np.where(np.eye(4) > 0, np.nan, 0.0),
        np.where(np.eye(4) > 0, np.inf, 0.0),
    ], ids=["three-port", "nan", "inf"])
    def test_rejects_non_four_port_cell(self, compose, cell):
        # no PortMatrix holds such a cell, and the compositions take nothing else
        with pytest.raises(ValueError, match="4-port"):
            network.PortMatrix(cell)
        with pytest.raises(TypeError, match="cell must be a PortMatrix"):
            compose(cell, network.ideal_lines())


def parent_exact(cell, lines):
    """:func:`network.compose_exact`'s arithmetic as one function: solve, scale in place, add S11."""
    s = cell.entries
    s11, _, _, s22 = lines._blocks
    m = np.linalg.solve((np.eye(4) - s22[:, None] * s).T, s.T).T
    m *= lines._scaling
    m.flat[::5] += s11
    return m


def count_solves(monkeypatch):
    """The list that each later ``np.linalg.solve`` call appends ``"solve"`` to."""
    solve = np.linalg.solve
    calls = []

    def counted(*args, **kwargs):
        calls.append("solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestKeptResolvent:
    """Both compositions share the resolvent of the last pair; no call reads another pair's."""

    @staticmethod
    def check(kind, cell, lines, order=3):
        ref = reference_compose(cell.entries, lines)
        if kind == "exact":
            out = network.compose_exact(cell, lines).s_meas.entries
            assert np.max(np.abs(out - ref)) < 1e-12
            assert np.array_equal(out, parent_exact(cell, lines))
        else:
            out = network.compose_neumann(cell, lines, order)
            measured = np.max(np.abs(out.s_meas.entries - ref))
            assert abs(out.truncation_error - measured) < 1e-12

    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines(), cell_matrices(), passive_lines(),
           st.integers(min_value=0, max_value=5))
    def test_interleaved_pairs_read_their_own_resolvent(self, cell_a, lines_a, cell_b, lines_b,
                                                         order):
        pairs = {"A": (cell_a, lines_a), "B": (cell_b, lines_b)}
        # exact then series on one pair, series then exact on the other, and
        # each pair again after the other one, with either composition
        for name, kind in [("A", "exact"), ("A", "series"), ("B", "series"), ("B", "exact"),
                           ("A", "series"), ("B", "exact"), ("A", "exact"), ("B", "series")]:
            self.check(kind, *pairs[name], order)

    @COMPOSE_SETTINGS
    @given(cell_matrices(), passive_lines(), passive_lines())
    def test_one_cell_under_two_line_models(self, cell, lines_a, lines_b):
        for lines, kind in [(lines_a, "exact"), (lines_b, "series"), (lines_b, "exact"),
                            (lines_a, "series"), (lines_a, "exact")]:
            self.check(kind, cell, lines)

    def test_cells_with_equal_entries_are_two_keys(self, monkeypatch):
        entries = model.cell_smatrix(CELL.omega_ge, CELL).entries
        first, second = network.PortMatrix(entries), network.PortMatrix(entries)
        lines = random_lines(np.random.default_rng(3), reflection=0.1)
        calls = count_solves(monkeypatch)
        exact = network.compose_exact(first, lines)
        series = network.compose_neumann(second, lines, order=3)
        # the key is the object, not its entries: the second cell solves its own
        assert calls == ["solve", "solve"]
        assert np.array_equal(network.compose_exact(second, lines).s_meas.entries,
                              exact.s_meas.entries)
        assert series.truncation_error == network.compose_neumann(first, lines, 3).truncation_error
        assert calls == ["solve", "solve", "solve"]

    def test_a_refused_pair_keeps_nothing(self):
        # the singular pair of test_series_at_unit_spectral_radius_raises
        singular = network.LineModel([two_port(0.5), two_port(0.5, r11=0.5),
                                      two_port(0.5, r22=1j), two_port(0.5, r11=-1j)])
        cell = model.cell_smatrix(CELL.omega_ge + TWO_PI * 1e6, CELL)
        lines = random_lines(np.random.default_rng(4), reflection=0.1)
        self.check("exact", cell, lines)
        for _ in range(2):
            with pytest.raises(network.SingularNetworkError):
                network.compose_exact(THROUGH, singular)
            with pytest.raises(network.DivergenceError):
                network.compose_neumann(THROUGH, singular, order=2)
        good = model.cell_smatrix(CELL.omega_ge - TWO_PI * 1e6, CELL)
        for kind in ("series", "exact"):
            self.check(kind, good, lines)
        self.check("series", cell, lines)

    def test_a_kept_resolvent_does_not_skip_the_series_check(self):
        # S S22 = S has eigenvalues +-2: I - S22 S is well conditioned, so the
        # exact composition keeps a resolvent that the divergent series must not use
        s = np.zeros((4, 4), dtype=complex)
        s[0, 1] = s[1, 0] = s[2, 3] = s[3, 2] = 2.0
        cell = network.PortMatrix(s)
        lines = network.LineModel([two_port(0.5, r22=1.0), two_port(0.5, r11=1.0),
                                   two_port(0.5, r22=1.0), two_port(0.5, r11=1.0)])
        self.check("exact", cell, lines)
        with pytest.raises(network.DivergenceError, match="spectral radius 2.0"):
            network.compose_neumann(cell, lines, order=3)


class TestDeembedSweep:
    """Per-frequency lines of the de-embedding benchmark, composed one point at a time."""

    SPEC = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                          reflection_bound=0.2, ripple_db=0.5)
    FREQS = np.linspace(6.138e9, 6.188e9, 401)

    def sweep(self, seed):
        lines = synth.gen_lines(self.SPEC, seed, self.FREQS)
        assert lines.two_ports.shape == (4, len(self.FREQS), 2, 2)
        for i, f in enumerate(self.FREQS):
            yield model.cell_smatrix(TWO_PI * f, STEADY_STATE_CELL), lines.at(i)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_compositions_match_the_reference(self, seed):
        for cell, point in self.sweep(seed):
            exact = network.compose_exact(cell, point).s_meas.entries
            assert np.max(np.abs(exact - reference_compose(cell.entries, point))) < 1e-12
            series = network.compose_neumann(cell, point, order=3)
            measured = np.max(np.abs(series.s_meas.entries - exact))
            assert abs(series.truncation_error - measured) < 1e-12

    def test_each_composition_makes_one_solve(self, monkeypatch):
        # each point makes one solve: the series reuses the exact composition's,
        # and the series on a pair of its own makes its own
        def unused(*args, **kwargs):
            raise AssertionError("the row-sum bound should have settled the check")

        points = list(self.sweep(0))
        alone = list(self.sweep(0))
        calls = count_solves(monkeypatch)
        monkeypatch.setattr(np.linalg, "cond", unused)
        monkeypatch.setattr(np.linalg, "eigvals", unused)
        for (cell, point), (other, other_point) in zip(points, alone):
            calls.clear()
            network.compose_exact(cell, point)
            network.compose_neumann(cell, point, order=3)
            assert calls == ["solve"]
            calls.clear()
            network.compose_neumann(other, other_point, order=3)
            assert calls == ["solve"]


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
        sa, ga_, sb, gb_ = lines.two_ports[:, 1, 0]
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
            lines.two_ports * np.array([[1, np.exp(1j * theta)], [np.exp(1j * theta), 1]]),
            isolation=lines.isolation,
        )
        coeffs = model.cell_coefficients(CELL.omega_ge, CELL)
        base = network.simplified_forward(coeffs, lines)
        rot = network.simplified_forward(coeffs, rotated)
        assert rot[0] == pytest.approx(base[0] * np.exp(2j * theta), abs=1e-14)
