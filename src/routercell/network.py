"""Multiport scattering algebra for a cell embedded between measurement lines.

The measured response of the four-port cell is not the cell itself: each
waveguide port sits behind a two-port input or output line (attenuators,
connectors, cable runs).  This module composes the cell S-matrix with the
four line matrices into the effective S-matrix seen by the instrument,
either exactly (block elimination of the internal waves, one linear solve
``S12 S (I - S22 S)^-1 S21`` with no inverse of the cell) or as a truncated
multiple-reflection series, and provides the simplified scalar forward map
used when line reflections are negligible.

Port order of every 4x4 matrix is (A-in, A-out, B-in, B-out).  Two-port
line matrices are oriented so port 1 faces the instrument for input lines
and the cell for output lines; the ``S21`` entry (row 2, column 1) is
therefore always the transmission in the propagation direction.  Port k
of the cell meets only line k, so the line blocks ``S11`` (external to
external), ``S12``, ``S21`` and ``S22`` (internal to internal) are all
diagonal and are held as their length-4 diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PortMatrix",
    "LineModel",
    "CompositionResult",
    "SingularNetworkError",
    "DivergenceError",
    "complementary_blocks",
    "compose_exact",
    "compose_neumann",
    "simplified_forward",
    "isolation_from_hd",
    "ideal_lines",
]

#: Rounding allowance on the unit singular-value bound of a passive network.
PASSIVE_TOL = 1e-9


class SingularNetworkError(RuntimeError):
    """Raised when the internal-wave elimination hits a singular system."""

    def __init__(self, message: str, condition_number: float = np.inf):
        super().__init__(f"{message} (condition number {condition_number:.3e})")
        self.condition_number = condition_number


class DivergenceError(RuntimeError):
    """Raised when the reflection series cannot converge."""


@dataclass(frozen=True)
class PortMatrix:
    """Square complex scattering matrix with a fixed port count."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"port matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("port matrix entries must be finite")
        object.__setattr__(self, "entries", m)

    def is_passive(self) -> bool:
        """True if the largest singular value does not exceed 1 + PASSIVE_TOL."""
        return bool(np.linalg.norm(self.entries, 2) <= 1.0 + PASSIVE_TOL)


@dataclass(frozen=True)
class LineModel:
    """Two-port models of the four measurement lines plus stray coupling.

    Each line matrix has shape (2, 2) for frequency-independent lines or
    (n, 2, 2) for per-frequency data; ``isolation`` is the residual direct
    wave amplitude between the two waveguides bypassing the cell (a scalar,
    or length-n array for per-frequency lines).  Every per-frequency
    element must have the same n.
    """

    s_in_a: np.ndarray
    s_out_a: np.ndarray
    s_in_b: np.ndarray
    s_out_b: np.ndarray
    isolation: complex | np.ndarray = 0.0

    def __post_init__(self):
        lengths = {}  # per-frequency elements and their point counts
        for name in ("s_in_a", "s_out_a", "s_in_b", "s_out_b"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape[-2:] != (2, 2) or m.ndim not in (2, 3):
                raise ValueError(f"{name} must have shape (2, 2) or (n, 2, 2)")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, m)
            if m.ndim == 3:
                lengths[name] = len(m)
        finite = np.isfinite(self.isolation)
        if not finite.all():
            raise ValueError("isolation must be finite")
        if finite.ndim > 1:
            raise ValueError("isolation must be a scalar or a length-n array")
        if finite.ndim == 1:
            lengths["isolation"] = len(finite)
            object.__setattr__(self, "isolation", np.asarray(self.isolation, dtype=complex))
        first = next(iter(lengths), None)
        for name, n in lengths.items():
            if n != lengths[first]:
                raise ValueError(f"{name} has {n} frequency points "
                                 f"but {first} has {lengths[first]}")

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return (self.s_in_a, self.s_out_a, self.s_in_b, self.s_out_b)

    @property
    def n_points(self) -> int | None:
        """Number of frequency points, or None for frequency-independent lines."""
        for m in self.matrices:
            if m.ndim == 3:
                return m.shape[0]
        iso = self.isolation
        return len(iso) if isinstance(iso, np.ndarray) and iso.ndim == 1 else None

    def at(self, i: int) -> "LineModel":
        """Single-frequency slice of per-frequency line data."""
        iso = self.isolation
        if np.ndim(iso) > 0:
            iso = complex(np.asarray(iso)[i])
        picked = (m[i] if m.ndim == 3 else m for m in self.matrices)
        return LineModel(*picked, isolation=iso)

    def is_passive(self) -> bool:
        for m in self.matrices:
            stack = m.reshape(-1, 2, 2)
            if np.any(np.linalg.norm(stack, 2, axis=(1, 2)) > 1.0 + PASSIVE_TOL):
                return False
        return True


@dataclass(frozen=True)
class CompositionResult:
    """Effective measured S-matrix with composition diagnostics."""

    s_meas: PortMatrix
    truncation_error: float


def ideal_lines(isolation: complex = 0.0) -> LineModel:
    """Reflectionless unit-transmission lines (identity de-embedding)."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return LineModel(swap, swap, swap, swap, isolation=isolation)


def complementary_blocks(lines: LineModel) -> tuple[np.ndarray, ...]:
    """Diagonals ``(s11, s12, s21, s22)`` of the four 4x4 line blocks.

    Index 1 is the external wave (facing the instrument), index 2 the
    internal wave (facing the cell); entry k of each diagonal belongs to
    line k in port order.  Input lines face the instrument with port 1,
    so block ``sij`` reads ``m[i, j]`` (0-based); output lines face it with
    port 2, so it reads ``m[1 - i, 1 - j]``.
    """
    if lines.n_points is not None:
        raise ValueError("complementary_blocks expects single-frequency lines; use LineModel.at")
    ia, oa, ib, ob = lines.matrices
    return tuple(
        np.array([ia[i, j], oa[1 - i, 1 - j], ib[i, j], ob[1 - i, 1 - j]])
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
    )


def _cell_matrix(cell) -> np.ndarray:
    """The 4x4 cell matrix of a PortMatrix or array."""
    s = np.asarray(getattr(cell, "entries", cell), dtype=complex)
    if s.shape != (4, 4):
        raise ValueError("cell must be a 4-port matrix")
    return s


def compose_exact(cell, lines: LineModel) -> CompositionResult:
    """Measured S-matrix with the internal waves eliminated exactly.

    Returns ``s_meas = S11 + S12 S (I - S22 S)^-1 S21`` where S is the cell
    matrix and the Sij are the complementary line blocks.  The cell is
    never inverted, so a singular cell is an ordinary input; a singular
    ``I - S22 S`` (condition number above 1e14) raises
    :class:`SingularNetworkError`.
    """
    s = _cell_matrix(cell)
    s11, s12, s21, s22 = complementary_blocks(lines)
    core = np.eye(4) - s22[:, None] * s
    cond = np.linalg.cond(core)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularNetworkError("internal-wave system is singular", cond)
    s_meas = np.diag(s11) + s12[:, None] * (s @ np.linalg.solve(core, np.diag(s21)))
    return CompositionResult(PortMatrix(s_meas), 0.0)


def compose_neumann(cell, lines: LineModel, order: int) -> CompositionResult:
    """Measured S-matrix from the truncated multiple-reflection series.

    ``order`` counts the retained series terms: order 0 keeps only the
    direct line response S11, order 1 adds the single cell passage
    ``S12 S S21``, and each further order adds one internal round trip
    through ``S S22``.  The truncation error is the maximum entry
    magnitude of the difference from the summed series ``S12 (I - S
    S22)^-1 S S21``, which equals the exact composition.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    s = _cell_matrix(cell)
    s11, s12, s21, s22 = complementary_blocks(lines)
    x = s * s22
    radius = float(np.max(np.abs(np.linalg.eigvals(x))))
    if radius >= 1.0:
        raise DivergenceError(
            f"reflection series diverges: spectral radius {radius:.6f} >= 1"
        )
    partial = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for _ in range(order):
        partial = partial + term
        term = x @ term
    # S12 M S21 with diagonal blocks scales entry (i, j) of M by s12[i] s21[j]
    outer = s12[:, None] * s21
    kept = partial @ s
    s_meas = np.diag(s11) + outer * kept
    # the summed series; radius < 1 keeps I - x invertible
    summed = np.linalg.solve(np.eye(4) - x, s)
    err = float(np.max(np.abs(outer * (summed - kept))))
    return CompositionResult(PortMatrix(s_meas), err)


def simplified_forward(cell_coeffs, lines: LineModel) -> np.ndarray:
    """Measured four-channel coefficients with line reflections neglected.

    ``cell_coeffs`` and the result stack the channels AA, BB, AB, BA.
    Through channels pick up the product of the input and output line
    transmissions; cross channels additionally carry the stray isolation
    wave added to the cell coefficient.  Valid when the line reflections
    are small (the truncated series keeps only the direct passage).
    """
    sa, ga, sb, gb = (m[..., 1, 0] for m in lines.matrices)
    aa, bb, ab, ba = np.asarray(cell_coeffs)
    iso = np.asarray(lines.isolation)
    return np.array([sa * aa * ga, sb * bb * gb, sa * (ab + iso) * gb, sb * (ba + iso) * ga])


def isolation_from_hd(hd):
    """Stray coupling amplitude recovered from high-drive reference traces.

    ``hd`` stacks the channels AA, BB, AB, BA.  With the emitter
    saturated, the cross references are pure isolation leakage through
    the lines, so ``sqrt((AB * BA) / (AA * BB))`` cancels every line
    factor (principal square-root branch).  Shape ``(4,)`` traces give
    one complex value, ``(4, n)`` traces one per point.
    """
    aa, bb, ab, ba = np.asarray(hd)
    if np.any(np.abs(aa) == 0) or np.any(np.abs(bb) == 0):
        raise ValueError("through high-drive references must be nonzero")
    return np.sqrt((ab * ba) / (aa * bb))
