"""Turn raw measured four-channel spectra into calibrated cell responses.

The measured traces mix the cell response with the input/output line
transfer functions and the residual waveguide-to-waveguide isolation.
A high-drive (HD) reference set -- taken with the emitter saturated, so
the through channels carry only the lines and the cross channels only the
isolation leakage -- lets the line factors be divided out exactly:

* through:  ``t = t_meas / t_hd``
* cross:    ``t = (t_meas - t_hd) * sqrt(t_other_hd /
  (t_aa_hd * t_bb_hd * t_same_hd))``

The square roots require continuous phases; since halving a phase turns
2 pi wraps into pi jumps, phases are conditioned by doubling, unwrapping
and halving.  Linewidths are extracted from calibrated through traces by
an algebraic circle fit plus a phase-versus-frequency fit, and the loaded
widths feed a loss budget separating coupling from intrinsic loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import CHANNELS

__all__ = [
    "ChannelSpectrum",
    "CircleFitResult",
    "LossBudget",
    "CalibrationError",
    "CircleFitError",
    "unwrap_halved_phase",
    "remove_global_phase",
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


@dataclass(frozen=True)
class ChannelSpectrum:
    """Frequency grid with the four complex transmission channels.

    ``freqs`` is in Hz and strictly increasing; ``traces`` is the complex
    ``(4, n)`` array of the channels in :data:`CHANNELS` order (``AA``,
    ``BB``, ``AB``, ``BA``).  Optional metadata records the measurement
    conditions.
    """

    freqs: np.ndarray
    traces: np.ndarray
    bias_ma: float | None = None
    power_dbm: float | None = None
    temp_k: float | None = None

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("freqs must be a nonempty 1-D array")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("freqs must be finite")
        rows = [np.asarray(tr, dtype=complex) for tr in self.traces]
        if len(rows) != len(CHANNELS):
            raise ValueError(f"traces must hold {len(CHANNELS)} channels, got {len(rows)}")
        for name, tr in zip(CHANNELS, rows):
            if tr.shape != freqs.shape:
                raise ValueError(f"channel {name} length {tr.size} != {freqs.size} frequencies")
            if not np.all(np.isfinite(tr)):
                raise ValueError(f"channel {name} contains non-finite samples")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "traces", np.array(rows))

    def __len__(self) -> int:
        return self.freqs.size

    def channel(self, name: str) -> np.ndarray:
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


def unwrap_halved_phase(trace) -> np.ndarray:
    """Continuous phase of a trace whose square-root origin causes pi jumps.

    Doubles the phase angles, unwraps with the standard 2 pi algorithm and
    halves the result, which removes the pi discontinuities introduced by
    taking square roots of wrapped data.
    """
    tr = np.asarray(trace, dtype=complex)
    if tr.size == 0:
        raise ValueError("trace must be nonempty")
    return 0.5 * np.unwrap(2.0 * np.angle(tr))


def remove_global_phase(trace, freqs, f_res: float) -> np.ndarray:
    """Rotate a trace so its phase is zero at the sample nearest ``f_res``.

    Magnitudes are untouched; applying the rotation twice is a no-op.
    ``freqs`` and ``f_res`` are in Hz.
    """
    tr = np.asarray(trace, dtype=complex)
    if tr.size == 0:
        raise ValueError("trace must be nonempty")
    freqs = np.asarray(freqs, dtype=float)
    idx = int(np.argmin(np.abs(freqs - f_res)))
    return tr * np.exp(-1j * np.angle(tr[idx]))


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
    traces = [
        np.interp(freqs, spectrum.freqs, tr.real) + 1j * np.interp(freqs, spectrum.freqs, tr.imag)
        for tr in spectrum.traces
    ]
    return replace(spectrum, freqs=freqs, traces=traces)


def _check_reference(hd: ChannelSpectrum) -> None:
    for name, tr in zip(CHANNELS, hd.traces):
        bad = np.flatnonzero(np.abs(tr) < REFERENCE_FLOOR)
        if bad.size:
            freqs = ", ".join(f"{hd.freqs[i]:.6g}" for i in bad[:5])
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise CalibrationError(
                f"high-drive reference {name} below floor {REFERENCE_FLOOR:g} at "
                f"{bad.size} frequencies: {freqs}{more} Hz"
            )


def _continuous_sqrt(values: np.ndarray) -> np.ndarray:
    """Pointwise square root with pi jumps removed by phase conditioning."""
    s = np.sqrt(values)
    return np.abs(s) * np.exp(1j * unwrap_halved_phase(s))


def calibrate_responses(meas: ChannelSpectrum, hd: ChannelSpectrum) -> ChannelSpectrum:
    """Divide out the measurement lines using a high-drive reference.

    Through channels are normalized by their HD references; cross channels
    subtract the isolation leakage and rescale by the square-root
    combination of HD references that cancels the line transmissions.
    The square-root branch is fixed by phase continuity, with the global
    sign anchored so the cross response at its peak lies in the right
    half-plane (the model's resonant cross amplitude is positive real for
    small coupling phases).

    Raises
    ------
    CalibrationError
        If any HD reference magnitude falls below :data:`REFERENCE_FLOOR`.
    """
    if not np.array_equal(meas.freqs, hd.freqs):
        hd = resample(hd, meas.freqs)
    _check_reference(hd)

    aa, bb, ab, ba = hd.traces
    through = meas.traces[:2] / hd.traces[:2]
    # rows AB, BA: each cross channel is rescaled by the opposite direction
    scale = _continuous_sqrt(np.array([ba, ab]) / (aa * bb * hd.traces[2:]))
    cross = (meas.traces[2:] - hd.traces[2:]) * scale
    peak = cross[[0, 1], np.argmax(np.abs(cross), axis=-1)]
    cross = np.where((peak.real < 0)[:, None], -cross, cross)
    return replace(meas, traces=np.concatenate([through, cross]))


def _kasa_circle(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Algebraic (Kasa) circle fit; exact for noiseless circular data."""
    a = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    b = x**2 + y**2
    sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3 or sv[-1] < 1e-12 * sv[0]:
        raise CircleFitError("points are collinear; no circle fit possible")
    xc, yc, c = sol
    r2 = c + xc**2 + yc**2
    if r2 <= 0:
        raise CircleFitError("degenerate circle fit (non-positive radius)")
    return float(xc), float(yc), float(np.sqrt(r2))


def circle_fit(trace, freqs) -> CircleFitResult:
    """Extract resonance frequency and loaded linewidth from one trace.

    A Kasa algebraic circle fit locates the resonance circle; the phase of
    the trace about the circle center is then fitted with ``theta_0 +
    2 atan(2 (f - f_res) / kappa)``, whose ``kappa`` is the loaded full
    width at half maximum.

    Parameters
    ----------
    trace : complex array
    freqs : array
        Frequency grid in Hz.

    Returns
    -------
    CircleFitResult
        With ``omega_res`` and ``kappa_loaded`` in rad/s.
    """
    tr = np.asarray(trace, dtype=complex)
    freqs = np.asarray(freqs, dtype=float)
    if tr.size < 5:
        raise CircleFitError("need at least 5 samples for a circle fit")
    xc, yc, radius = _kasa_circle(tr.real, tr.imag)
    center = complex(xc, yc)

    theta = np.unwrap(np.angle(tr - center))
    coverage = float(theta.max() - theta.min())
    if coverage < np.pi:
        raise CircleFitError(
            f"trace covers only {coverage:.2f} rad of the resonance circle (< pi)"
        )

    mid = 0.5 * (theta[0] + theta[-1])
    i0 = int(np.argmin(np.abs(theta - mid)))
    span = freqs[-1] - freqs[0]
    sign = 1.0 if theta[-1] >= theta[0] else -1.0

    def model(params):
        theta0, f0, kappa = params
        return theta0 + 2.0 * np.arctan2(2.0 * (freqs - f0), kappa)

    def residual(params):
        return model(params) - theta

    init = np.array([theta[i0], freqs[i0], sign * span / 5.0])
    from scipy.optimize import least_squares  # imported on use: ~0.35 s
    fit = least_squares(residual, init, method="lm", xtol=1e-12, ftol=1e-12)
    theta0, f_res, kappa = fit.x
    kappa = abs(float(kappa))
    if kappa <= 0:
        raise CircleFitError("phase fit returned a non-positive linewidth")
    if not (freqs[0] <= f_res <= freqs[-1]):
        warnings.warn("fitted resonance lies outside the scanned span", stacklevel=2)

    resonant_point = center + radius * np.exp(1j * float(theta0))
    background = center - radius * np.exp(1j * float(theta0))
    return CircleFitResult(
        omega_res=2.0 * np.pi * float(f_res),
        kappa_loaded=2.0 * np.pi * kappa,
        diameter=2.0 * radius,
        background=complex(background),
        center=center,
        radius=float(radius),
    )


def loss_budget(fit_aa: CircleFitResult, fit_bb: CircleFitResult,
                gamma_a: float, gamma_b: float) -> LossBudget:
    """Split the mean loaded linewidth into coupling and intrinsic loss.

    Both through channels see the same loaded width ``kappa_i + 2 gamma_a
    + 2 gamma_b``; the two fits are averaged with a 10 % uncertainty band
    and the couplings subtracted.  A noticeably negative ``kappa_i`` flags
    inconsistent inputs (warning, not fatal).
    """
    k_aa = fit_aa.kappa_loaded
    k_bb = fit_bb.kappa_loaded
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
