"""Turn raw measured four-channel spectra into calibrated cell responses.

The measured traces mix the cell response with the input/output line
transfer functions and the residual waveguide-to-waveguide isolation.
A high-drive (HD) reference set -- taken with the emitter saturated, so
the through channels carry only the lines and the cross channels only the
isolation leakage -- lets the line factors be divided out exactly:

* through:  ``t = t_meas / t_hd``
* cross:    ``t_AB = t_BA = sqrt(P)`` with the line-free product ``P =
  (t_meas,AB - t_hd,AB)(t_meas,BA - t_hd,BA) / (t_hd,AA t_hd,BB)``: the
  two cross paths cross each line once, so the lines cancel in ``P``

The root's sign is fixed at each point by the through dips.  Linewidths
are extracted from calibrated through traces by a fit of the one-pole
resonance, started by Levy's linear solve, and the loaded widths feed a
loss budget separating coupling from intrinsic loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._lsq import least_squares
from .model import CHANNELS, _check_couplings

__all__ = [
    "ChannelSpectrum",
    "CircleFitResult",
    "LossBudget",
    "CalibrationError",
    "CircleFitError",
    "resample",
    "calibrate_responses",
    "circle_fit",
    "loss_budget",
]

#: Reference traces with magnitude below this floor cannot be divided out.
REFERENCE_FLOOR = 1e-8


class CalibrationError(ValueError):
    """Raised when reference data cannot support the normalization."""


class CircleFitError(RuntimeError):
    """Raised when a trace does not describe a usable resonance circle."""


def _grid(freqs, min_points: int) -> np.ndarray:
    """``freqs`` as a read-only float copy: 1-D, finite, strictly increasing, ``min_points`` or more."""
    f = np.array(freqs, dtype=float)
    if f.ndim != 1 or f.size < min_points or not np.isfinite(f).all() or np.any(np.diff(f) <= 0):
        raise ValueError(f"freqs must be a finite, strictly increasing 1-D grid "
                         f"of {min_points} or more points")
    f.flags.writeable = False
    return f


@dataclass(frozen=True, eq=False)
class ChannelSpectrum:
    """Frequency grid with the four complex transmission channels.

    ``freqs`` (Hz) is a finite, strictly increasing grid of 1 or more points;
    ``traces`` the finite complex ``(4, n)`` stack of the channels in
    :data:`CHANNELS` order (``AA``, ``BB``, ``AB``, ``BA``).  Both are held as
    read-only copies.
    """

    freqs: np.ndarray
    traces: np.ndarray

    def __post_init__(self):
        freqs = _grid(self.freqs, 1)
        traces = np.array(self.traces, dtype=complex, order="C")
        if traces.shape != (len(CHANNELS), freqs.size):
            raise ValueError(f"traces must have shape ({len(CHANNELS)}, {freqs.size}), got {traces.shape}")
        finite = np.isfinite(traces).all(axis=1)
        if not finite.all():
            raise ValueError(f"channel {CHANNELS[int(np.argmin(finite))]} contains non-finite samples")
        traces.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "traces", traces)

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}; the channels are {', '.join(CHANNELS)}")
        return self.traces[CHANNELS.index(name)]


@dataclass(frozen=True)
class CircleFitResult:
    """Resonance parameters extracted from one complex trace.

    ``omega_res`` and ``kappa_loaded`` are angular (rad/s); ``kappa_loaded``
    follows the full-width-at-half-maximum convention.  ``diameter`` is the
    circle diameter in the complex plane and ``background`` the off-resonant
    point diametrically opposite the resonance.
    """

    omega_res: float
    kappa_loaded: float
    diameter: float
    background: complex
    center: complex = 0.0 + 0.0j
    radius: float = 0.0


@dataclass(frozen=True)
class LossBudget:
    """Decomposition of the mean loaded linewidth into coupling and loss.

    All rates angular (rad/s).  ``kappa_l_unc`` is the 10 % band assigned
    to the mean of the two loaded widths; ``kappa_i`` is what remains after
    subtracting twice each coupling rate.
    """

    kappa_l_aa: float
    kappa_l_bb: float
    kappa_l_mean: float
    kappa_l_unc: float
    kappa_i: float


def resample(spectrum: ChannelSpectrum, freqs) -> ChannelSpectrum:
    """Complex linear interpolation of all channels onto a new grid (Hz).

    Points of ``freqs`` outside the span of ``spectrum.freqs`` cannot be
    interpolated: they take the value at the nearer end of the span
    (``np.interp`` clamps), and a ``UserWarning`` gives their count.
    """
    freqs = np.asarray(freqs, dtype=float)
    outside = int(np.count_nonzero((freqs < spectrum.freqs[0]) | (freqs > spectrum.freqs[-1])))
    if outside:
        warnings.warn(
            f"{outside} of {freqs.size} points lie outside the source grid "
            f"[{spectrum.freqs[0]:.9g}, {spectrum.freqs[-1]:.9g}] Hz and take its end values",
            stacklevel=2,
        )
    traces = np.array([
        np.interp(freqs, spectrum.freqs, tr.real) + 1j * np.interp(freqs, spectrum.freqs, tr.imag)
        for tr in spectrum.traces
    ])
    return ChannelSpectrum(freqs, traces)


def _check_reference(hd: ChannelSpectrum) -> None:
    low = np.abs(hd.traces) < REFERENCE_FLOOR
    if low.any():
        row = int(np.argmax(low.any(axis=1)))  # the first channel below the floor
        bad = np.flatnonzero(low[row])
        freqs = ", ".join(f"{hd.freqs[i]:.6g}" for i in bad[:5])
        more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
        raise CalibrationError(
            f"high-drive reference {CHANNELS[row]} below floor {REFERENCE_FLOOR:g} at "
            f"{bad.size} frequencies: {freqs}{more} Hz"
        )


def calibrate_responses(meas: ChannelSpectrum, hd: ChannelSpectrum) -> ChannelSpectrum:
    """Divide out the measurement lines using a high-drive reference.

    Through channels are normalized by their HD references.  The cross
    channels keep only their product, which the lines leave: ``P = (m_AB -
    h_AB)(m_BA - h_BA) / (h_AA h_BB)`` (``m`` the measured, ``h`` the HD
    traces) equals ``t_AB t_BA`` exactly, as the isolation leakage ``h_AB``,
    ``h_BA`` is subtracted and the two paths cross each line once.  Both
    cross rows hold the same root of ``P``, so ``calibrated.csv``'s AB and BA
    rows are equal.  The root is the principal one with its sign chosen per
    point, ``Re(t_c conj(2 - t_AA - t_BB)) >= 0``: in the model ``t_c^2 = (1
    - t_AA)(1 - t_BB)`` and ``t_c conj(1 - t_xx) = sqrt(gamma_a gamma_b)
    gamma_x e^{i (phi_b - phi_a)/2} / |D|^2`` (``D`` the pole factor), whose
    real part is > 0 for |phi_a|, |phi_b| < pi/2, so the rule holds at
    each point on any grid.  A non-reciprocal path (``t_AB != t_BA``) is
    outside this model.

    Raises
    ------
    CalibrationError
        If any HD reference magnitude falls below :data:`REFERENCE_FLOOR`.
    """
    if not np.array_equal(meas.freqs, hd.freqs):
        hd = resample(hd, meas.freqs)
    _check_reference(hd)

    through = meas.traces[:2] / hd.traces[:2]
    d = meas.traces[2:] - hd.traces[2:]
    cross = np.sqrt(d[0] * d[1] / (hd.traces[0] * hd.traces[1]))
    cross = np.where((cross * np.conj(2.0 - through.sum(axis=0))).real < 0, -cross, cross)
    return ChannelSpectrum(meas.freqs, np.concatenate([through, [cross, cross]]))


def circle_fit(trace, freqs) -> CircleFitResult:
    """Extract resonance frequency and loaded linewidth from one trace.

    Fits the one-pole resonance ``t = a + b / (u - p)``, the one-channel
    case of :func:`~routercell.estimation.fit_four_channel`, on the grid
    mapped onto ``u`` in [-1, 1]: Levy's solve of ``t u = p t + a u + c``
    (linear in ``p``, ``a`` and ``c = b - a p``; exact on noiseless data)
    starts one least-squares fit of the complex residuals with their
    analytic Jacobian.  Both run on the trace in units of its largest
    magnitude, as Levy's rank test is relative to the largest column, so
    the fit does not depend on the trace's scale.  ``Re p`` places the
    resonance, ``2 |Im p|`` is the loaded full width at half maximum and
    the sign of ``Im p`` the sense of rotation; the circle has centre ``a
    + i b / (2 Im p)``, radius ``|b| / (2 |Im p|)`` and background ``a``,
    the point far off resonance.

    Parameters
    ----------
    trace : complex array
        1-D and finite.
    freqs : array
        Frequency grid in Hz: finite, strictly monotonic (ascending or
        descending) and as long as ``trace``.

    Returns
    -------
    CircleFitResult
        With ``omega_res`` and ``kappa_loaded`` in rad/s.

    Raises
    ------
    CircleFitError
        If the inputs break the rules above, the largest magnitude is 0,
        subnormal or overflows, the trace is no resonance circle (collinear
        points, a pole on the real axis, less than pi rad about the fitted
        centre), or the fit does not converge.
    """
    tr = np.asarray(trace, dtype=complex)
    freqs = np.asarray(freqs, dtype=float)
    if tr.ndim != 1:
        raise CircleFitError(f"trace must be 1-D, got shape {tr.shape}")
    if freqs.shape != tr.shape:
        raise CircleFitError(f"{freqs.size} frequencies for {tr.size} samples")
    if tr.size < 5:
        raise CircleFitError("need at least 5 samples for a circle fit")
    for name, values in (("sample", tr), ("frequency", freqs)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise CircleFitError(f"{name} {bad[0]} is not finite: {values[bad[0]]}")
    steps = np.diff(freqs)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise CircleFitError("freqs must be strictly monotonic")
    mid, half = 0.5 * (freqs[0] + freqs[-1]), 0.5 * abs(freqs[-1] - freqs[0])
    u = (freqs - mid) / half
    # in units of the largest sample, since lstsq cuts the rank against the largest column
    scale = float(np.abs(tr).max())
    if not np.finfo(float).tiny <= scale < np.inf:
        raise CircleFitError(f"samples in units of the largest magnitude {scale:.3g} are not finite")
    tr = tr / scale

    # Levy: t u = p t + a u + c, exact for t = a + b / (u - p) with c = b - a p
    (p, a, c), _, rank, _ = np.linalg.lstsq(np.column_stack([tr, u, np.ones_like(u)]),
                                            tr * u, rcond=None)
    if rank < 3:
        raise CircleFitError("points are collinear; no circle fit possible")
    if not (np.isfinite(p) and p.imag != 0.0):
        raise CircleFitError(f"the start's pole {p:.3g} lies on the real axis: no resonance")

    def problem(x):
        p, a, b = x.view(complex)
        d = 1.0 / (u - p)
        jac = np.empty((6, u.size), dtype=complex)  # d t / d (Re p, Im p, Re a, Im a, Re b, Im b)
        jac[0], jac[2], jac[4] = b * d * d, 1.0, d
        jac[1::2] = 1j * jac[::2]
        return (a + b * d - tr).view(float), jac.view(float).T

    try:
        fit = least_squares(problem, np.array([p, a, c + a * p]).view(float))
    except ValueError as err:  # the start's residuals are not finite
        raise CircleFitError(f"no resonance fit from the start: {err}") from None
    if not fit.success:
        raise CircleFitError(f"resonance fit did not converge in {fit.nfev} evaluations")
    p, a, b = fit.x.view(complex)
    center = complex(a + 0.5j * b / p.imag)
    z = tr - center
    turn = np.cumsum(np.angle(z[1:] * np.conj(z[:-1])))  # the phase about the centre, from z[0]
    coverage = float(max(turn.max(), 0.0) - min(turn.min(), 0.0))
    if not coverage >= np.pi:  # a non-finite centre covers nan
        raise CircleFitError(
            f"trace covers only {coverage:.2f} rad of the resonance circle (< pi)"
        )
    if abs(p.real) > 1.0:
        warnings.warn("fitted resonance lies outside the scanned span", stacklevel=2)

    radius = scale * float(abs(b) / (2.0 * abs(p.imag)))
    return CircleFitResult(
        omega_res=2.0 * np.pi * float(mid + half * p.real),
        kappa_loaded=2.0 * np.pi * 2.0 * half * abs(float(p.imag)),
        diameter=2.0 * radius,
        background=scale * complex(a),
        center=scale * center,
        radius=radius,
    )


def loss_budget(fit_aa: CircleFitResult, fit_bb: CircleFitResult,
                gamma_a: float, gamma_b: float) -> LossBudget:
    """Split the mean loaded linewidth into coupling and intrinsic loss.

    Both through channels see the same loaded width ``kappa_i + 2 gamma_a
    + 2 gamma_b``; the two fits are averaged with a 10 % uncertainty band
    and the couplings subtracted.  A noticeably negative ``kappa_i`` flags
    inconsistent inputs (warning, not fatal); couplings or loaded widths
    that are not > 0, NaN included, raise ``ValueError``.
    """
    _check_couplings(gamma_a, gamma_b)
    k_aa, k_bb = fit_aa.kappa_loaded, fit_bb.kappa_loaded
    for name, kappa in (("fit_aa", k_aa), ("fit_bb", k_bb)):
        if not (np.isfinite(kappa) and kappa > 0):
            raise ValueError(f"{name}.kappa_loaded must be finite and > 0, got {kappa}")
    mean = 0.5 * (k_aa + k_bb)
    unc = 0.1 * mean
    kappa_i = mean - 2.0 * gamma_a - 2.0 * gamma_b
    if kappa_i < -unc:
        warnings.warn(
            f"loss budget inconsistent: kappa_i = {kappa_i:.3e} rad/s is below "
            f"-uncertainty {-unc:.3e}; couplings may be overestimated",
            stacklevel=2,
        )
    return LossBudget(k_aa, k_bb, mean, unc, kappa_i)
