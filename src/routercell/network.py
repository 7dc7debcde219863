"""Multiport scattering algebra for a cell embedded between measurement lines.

The measured response of the four-port cell is not the cell itself: each
waveguide port sits behind a two-port input or output line (attenuators,
connectors, cable runs).  This module composes the cell S-matrix with the
four line matrices into the effective S-matrix seen by the instrument,
either exactly (block elimination of the internal waves, one linear solve
``S12 S (I - S22 S)^-1 S21`` with no inverse of the cell) or as a truncated
multiple-reflection series, and provides the simplified scalar forward map
used when line reflections are negligible.  The compositions take the
cell as a :class:`PortMatrix`, checked once when built, and nothing else.

That one solve gives the resolvent ``S (I - S22 S)^-1``: the exact
composition scales it, and the series measures its truncation error
against it.  The resolvent of the last (cell, lines) pair solved is kept,
keyed by the identity of the two objects, whose arrays are read-only; so
a pair composed both ways, or the series at several orders, costs one
solve per pair.

Each composition first checks that it is defined: the exact one that
``I - S22 S`` is not singular (condition number at most 1e14), the series
that the spectral radius of ``S S22`` is below 1.  On well-matched lines a
row-sum bound settles both checks without a factorisation: with ``q`` the
largest row sum of ``|S22 S|``, ``cond_2(I - S22 S) <= 4 (1 + q) / (1 - q)``,
and the largest row sum of ``|S S22|`` is at least its spectral radius.
The SVD or the eigenvalues run only when a bound cannot settle its check,
so the bounds save work without changing when either composition raises.

Port order of every 4x4 matrix is (A-in, A-out, B-in, B-out).  Two-port
line matrices are oriented so port 1 faces the instrument for input lines
and the cell for output lines; the ``S21`` entry (row 2, column 1) is
therefore always the transmission in the propagation direction.  A
:class:`LineModel` holds the four lines as one read-only array in port
order, ``(4, 2, 2)`` or ``(4, n, 2, 2)``.  Port k of the cell meets only
line k, so the line blocks ``S11`` (external to external), ``S12``,
``S21`` and ``S22`` (internal to internal) are diagonal.  On first use a
line model builds one stack of the lines, output lines flipped, whose
views are those diagonals, and the product ``s12[j] s21[k]`` by which
``S12 M S21`` scales entry ``(j, k)`` of a 4x4 ``M``: 16 complex values
per point each, ~100 kB each at n = 401.  The slices from
:meth:`LineModel.at` share both.  A ``PortMatrix`` copies a caller's
array; the 4x4s the package builds (the cell, both compositions) are
built once and wrapped read-only without a second copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PortMatrix",
    "LineModel",
    "CompositionResult",
    "SingularNetworkError",
    "DivergenceError",
    "compose_exact",
    "compose_neumann",
    "simplified_forward",
    "ideal_lines",
]

_EYE = np.eye(4)
#: Port order of every 4x4 matrix, of a touchstone file and of ``LineModel.two_ports``.
_PORTS = ("A-in", "A-out", "B-in", "B-out")


class SingularNetworkError(RuntimeError):
    """Raised when the internal-wave elimination hits a singular system."""

    def __init__(self, message: str, condition_number: float = np.inf):
        super().__init__(f"{message} (condition number {condition_number:.3e})")
        self.condition_number = condition_number


class DivergenceError(RuntimeError):
    """Raised when the reflection series cannot converge."""


@dataclass(frozen=True, eq=False)
class PortMatrix:
    """Complex 4x4 scattering matrix in port order, checked 4x4 and finite when built.

    The entries are held as a read-only copy, like ``LineModel``'s arrays;
    the package wraps the 4x4s it builds itself read-only without copying.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(np.array(self.entries, dtype=complex)))


def _checked(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only once it is checked 4x4 and finite."""
    if m.shape != (4, 4):
        raise ValueError(f"port matrix must be a 4-port, shape (4, 4), got shape {m.shape}")
    # the sum of squares is finite only if every entry is; where it is not, perhaps only
    # from overflow (entries near 1e154), the elementwise check decides
    if not math.isfinite(np.vdot(m, m).real) and not np.isfinite(m).all():
        raise ValueError("4-port matrix entries must be finite")
    m.flags.writeable = False
    return m


def _built(m: np.ndarray) -> PortMatrix:
    """A ``PortMatrix`` of a complex 4x4 the package has just built: checked, not copied."""
    cell = object.__new__(PortMatrix)
    object.__setattr__(cell, "entries", _checked(m))
    return cell


@dataclass(frozen=True, eq=False)
class LineModel:
    """Two-port models of the four measurement lines plus stray coupling.

    ``two_ports`` stacks the four line matrices in port order, shape
    (4, 2, 2) for frequency-independent lines or (4, n, 2, 2) per
    frequency; ``isolation`` is the residual direct wave amplitude between
    the two waveguides bypassing the cell, a scalar or length-n array.

    The arrays are stored as read-only copies of the ones passed in, so a
    later change to the caller's arrays does not reach the model, and
    writing into the model's arrays raises ``ValueError``.
    """

    two_ports: np.ndarray
    isolation: complex | np.ndarray = 0.0

    def __post_init__(self):
        m = np.array(self.two_ports, dtype=complex)
        if m.ndim not in (3, 4) or m.shape[0] != 4 or m.shape[-2:] != (2, 2):
            raise ValueError("two_ports must have shape (4, 2, 2) or (4, n, 2, 2)")
        finite = np.isfinite(m).reshape(4, -1).all(axis=1)
        if not finite.all():
            raise ValueError(f"{_PORTS[np.argmin(finite)]} line entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "two_ports", m)
        if not np.isfinite(self.isolation).all():
            raise ValueError("isolation must be finite")
        if np.ndim(self.isolation):
            if np.shape(self.isolation) != m.shape[1:-2]:
                raise ValueError("isolation must be a scalar or one value per frequency point")
            iso = np.array(self.isolation, dtype=complex)
            iso.flags.writeable = False
            object.__setattr__(self, "isolation", iso)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(self.two_ports)

    @property
    def n_points(self) -> int | None:
        """Number of frequency points, or None for frequency-independent lines."""
        return self.two_ports.shape[1] if self.two_ports.ndim == 4 else None

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, ...]:
        """Diagonals ``(s11, s12, s21, s22)`` of the four 4x4 line blocks.

        Index 1 is the external wave (facing the instrument), index 2 the
        internal wave (facing the cell); entry k of each diagonal belongs
        to line k in port order.  Input lines face the instrument with
        port 1, so block ``sij`` reads ``m[i, j]`` (0-based); output lines
        face it with port 2, so it reads ``m[1 - i, 1 - j]``.  Each
        diagonal is ``(4,)`` or ``(n, 4)``, a view of one read-only
        ``(..., 4, 2, 2)`` stack of the lines, output lines flipped, built
        on first use: 16 complex values per point.
        """
        ia, oa, ib, ob = self.two_ports
        stack = np.stack((ia, oa[..., ::-1, ::-1], ib, ob[..., ::-1, ::-1]), axis=-3)
        stack.flags.writeable = False
        return stack[..., 0, 0], stack[..., 0, 1], stack[..., 1, 0], stack[..., 1, 1]

    @cached_property
    def _scaling(self) -> np.ndarray:
        """``S12 M S21`` scales entry ``(j, k)`` of a 4x4 ``M`` by ``s12[j] s21[k]``.

        The read-only ``(4, 4)`` or ``(n, 4, 4)`` product of the diagonals,
        built on first use: 16 complex values per point, ~100 kB at n = 401.
        """
        _, s12, s21, _ = self._blocks
        # slicing builds it too, so a product that overflows is left inf here
        # for the composition that meets it to refuse as non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            product = s12[..., :, None] * s21[..., None, :]
        product.flags.writeable = False
        return product

    def at(self, i: int) -> "LineModel":
        """Single-frequency slice; frequency-independent lines are returned as they are.

        The slice holds views of this model's validated read-only arrays,
        row ``i`` of its line-block diagonals and of their product: nothing
        is validated or built again.
        """
        if self.two_ports.ndim == 3:
            return self
        iso = self.isolation
        line = object.__new__(LineModel)
        object.__setattr__(line, "two_ports", self.two_ports[:, i])
        object.__setattr__(line, "isolation", complex(iso[i]) if np.ndim(iso) else iso)
        s11, s12, s21, s22 = self._blocks
        object.__setattr__(line, "_blocks", (s11[i], s12[i], s21[i], s22[i]))
        object.__setattr__(line, "_scaling", self._scaling[i])
        return line


@dataclass(frozen=True)
class CompositionResult:
    """Effective measured S-matrix with composition diagnostics."""

    s_meas: PortMatrix
    truncation_error: float


def ideal_lines() -> LineModel:
    """Reflectionless unit-transmission lines without isolation (identity de-embedding)."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return LineModel(np.broadcast_to(swap, (4, 2, 2)))


def _operands(cell: PortMatrix, lines: LineModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cell entries, ``s11``, ``s22`` and the block product; refuses any other cell type and per-frequency lines."""
    if not isinstance(cell, PortMatrix):
        raise TypeError(f"cell must be a PortMatrix, got {type(cell).__name__}")
    s11, _, _, s22 = lines._blocks
    if s11.ndim != 1:
        raise ValueError("the compositions take single-frequency lines; use LineModel.at")
    return cell.entries, s11, s22, lines._scaling


def compose_exact(cell: PortMatrix, lines: LineModel) -> CompositionResult:
    """Measured S-matrix with the internal waves eliminated exactly.

    Returns ``s_meas = S11 + S12 S (I - S22 S)^-1 S21`` where S is the cell
    matrix and the Sij are the complementary line blocks.  The blocks are
    diagonal, so they only scale the rows and columns of ``S (I - S22
    S)^-1 = [solve((I - S22 S)^T, S^T)]^T``: one solve on the system that
    the check below has just passed, or none when the last composition
    took the same cell and lines objects and kept its resolvent; the
    entries are the same either way.  The cell is never inverted, so a
    singular cell is an ordinary input; a singular ``I - S22 S``
    (condition number above 1e14, or not finite) raises
    :class:`SingularNetworkError`.  The SVD behind that condition number
    runs only when ``q``, the largest row sum of ``|S22 S|``, is at least
    1/2: ``cond_2(I - S22 S) <= 4 (1 + q) / (1 - q)``, at most 12 below
    that, so the bound never changes whether the composition raises.
    """
    s, s11, s22, scaling = _operands(cell, lines)
    x = s22[:, None] * s
    core = _EYE - x
    if not np.abs(x).sum(axis=1).max() < 0.5:
        cond = np.linalg.cond(core)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularNetworkError("internal-wave system is singular", cond)
    s_meas = _resolvent(cell, lines, core) * scaling
    s_meas.flat[::5] += s11
    return CompositionResult(_built(s_meas), 0.0)


def compose_neumann(cell: PortMatrix, lines: LineModel, order: int) -> CompositionResult:
    """Measured S-matrix from the truncated multiple-reflection series.

    ``order`` counts the retained series terms: order 0 keeps only the
    direct line response S11, order 1 adds the single cell passage
    ``S12 S S21``, and each further order adds one internal round trip
    through ``S S22``.  With ``x = S S22`` the kept terms ``(I + x + ... +
    x^(order-1)) S`` are summed by Horner's rule, ``S + x (S + x (S +
    ...))``.  The truncation error is the maximum entry magnitude of the
    difference from the summed series ``S12 (I - S S22)^-1 S S21 = S12 S
    (I - S22 S)^-1 S21``, the exact composition: it takes that resolvent
    from :func:`compose_exact`'s solve, or reuses it when the last
    composition took the same cell and lines objects, after its own check
    has passed.

    :class:`DivergenceError` is raised when the spectral radius of ``S
    S22`` is at least 1, or ``I - S S22`` is exactly singular.  The
    largest row sum of ``|S S22|`` bounds that radius, so the eigenvalues
    are computed only when it is at least 1; the bound never changes
    whether the series raises.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    s, s11, s22, scaling = _operands(cell, lines)
    x = s * s22
    if not np.abs(x).sum(axis=1).max() < 1.0:
        radius = float(np.max(np.abs(np.linalg.eigvals(x))))
        if radius >= 1.0:
            raise DivergenceError(
                f"reflection series diverges: spectral radius {radius:.6f} >= 1"
            )
    kept = s if order else np.zeros((4, 4), dtype=complex)
    for _ in range(order - 1):
        kept = s + x @ kept
    s_meas = scaling * kept
    s_meas.flat[::5] += s11
    # the summed series; radius < 1 keeps I - S22 S invertible (S22 S and x
    # share their eigenvalues), bar a radius of exactly 1 that eigvals
    # rounded below 1
    try:
        dropped = _resolvent(cell, lines) - kept
    except np.linalg.LinAlgError:
        raise DivergenceError("reflection series diverges: I - S S22 is singular") from None
    # scaling the left operand as in s_meas: numpy's complex product can
    # differ in the last bit with the operands swapped
    np.multiply(scaling, dropped, out=dropped)
    return CompositionResult(_built(s_meas), float(np.abs(dropped).max()))


#: The last pair :func:`_resolvent` solved, ``(cell, lines, resolvent)``.
_last_solved: tuple = (None, None, None)


def _resolvent(cell: PortMatrix, lines: LineModel, core: np.ndarray | None = None) -> np.ndarray:
    """``S (I - S22 S)^-1`` of a pair, by the exact composition's transposed solve.

    ``core`` is ``I - S22 S`` when the caller has built it for its check.
    The last pair solved is kept, keyed by the identity of its cell and its
    lines, so the next composition of that same pair solves nothing.  That
    is sound because a ``PortMatrix`` and a ``LineModel`` hold read-only
    arrays: the same two objects always give the same resolvent.  The slot
    holds both objects, so no later pair can take their ids, and keeps
    them alive: for a slice from :meth:`LineModel.at`, that is its
    parent's arrays, ~300 kB for a 401-point line model.  The resolvent is
    read-only and never returned to a caller of the compositions.  A solve
    that raises stores nothing.  The slot is replaced by one assignment of
    a tuple, so a reader in another thread sees one whole pair.
    """
    global _last_solved
    last_cell, last_lines, y = _last_solved
    if cell is last_cell and lines is last_lines:
        return y
    s = cell.entries
    if core is None:
        core = _EYE - lines._blocks[3][:, None] * s
    y = np.linalg.solve(core.T, s.T).T
    y.flags.writeable = False
    _last_solved = cell, lines, y
    return y


def simplified_forward(cell_coeffs, lines: LineModel) -> np.ndarray:
    """Measured four-channel coefficients with line reflections neglected.

    ``cell_coeffs`` and the result stack the channels AA, BB, AB, BA.
    Through channels pick up the product of the input and output line
    transmissions; cross channels additionally carry the stray isolation
    wave added to the cell coefficient.  Valid when the line reflections
    are small (the truncated series keeps only the direct passage).
    """
    sa, ga, sb, gb = lines.two_ports[..., 1, 0]
    aa, bb, ab, ba = np.asarray(cell_coeffs)
    iso = np.asarray(lines.isolation)
    return np.array([sa * aa * ga, sb * bb * gb, sa * (ab + iso) * gb, sb * (ba + iso) * ga])
