"""Parameter estimation for the basic cell.

Fits fall into three families:

* steady state -- a simultaneous complex least-squares fit of all four
  calibrated transmission channels against the closed-form model (they
  share one parameter set; residual and analytic Jacobian both come from
  :func:`routercell.model.cell_response`), dephasing reconstruction from
  the transfer efficiency, flux-noise and thermal fits of the
  reconstructed rates, and drive-saturation fits;
* time domain -- exponential energy-relaxation and damped-Rabi fits plus
  the rate budget that splits the measured decay into coupling, bath and
  pure-dephasing contributions;
* readout -- principal-component projection of IQ clouds onto a single
  population axis anchored by the zero-drive reference.

Every fit is deterministic given its inputs and uses damped least squares
(at most 200 residual evaluations, relative step tolerance 1e-10) with
uncertainties from the linearized covariance at the optimum; a linear fit
is one solve with the same covariance.  A parameter whose Jacobian column
is exactly zero is flagged ``unidentifiable:<name>`` instead of being
reported with a meaningless uncertainty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ._lsq import least_squares
from .calibration import ChannelSpectrum, REFERENCE_FLOOR
from .model import (
    CellParams,
    FluxModel,
    SaturationParams,
    ThermalCoefficients,
    cell_response,
    efficiency_thermal,
    n_thermal,
    saturation_curve,
)

__all__ = [
    "FitReport",
    "PopulationTrace",
    "RateBudget",
    "FitError",
    "initial_guess_from_spectrum",
    "fit_four_channel",
    "efficiency_trace",
    "fit_E_polynomial",
    "gamma_phi_from_E",
    "fit_flux_noise",
    "fit_thermal",
    "fit_saturation",
    "fit_T1",
    "fit_rabi_decay",
    "rate_budget",
    "coupling_limited_t1",
    "pi_amplitude_consistency",
    "pca_populations",
]

MAX_ITER = 200
STEP_TOL = 1e-10
#: Largest depth of a reconstructed population below 0.
POPULATION_SLACK = 0.15


class FitError(RuntimeError):
    """Raised when a fit cannot be set up (degenerate or insufficient data)."""


@dataclass(frozen=True)
class FitReport:
    """Result of one fit: values, uncertainties and convergence metadata.

    ``n_iter`` counts the solver's residual evaluations (its ``nfev``),
    not its iterations; a linear solve counts as one.
    """

    params: dict[str, float]
    sigma: dict[str, float]
    residual_norm: float
    n_iter: int
    converged: bool
    seed: int | None = None
    flags: tuple[str, ...] = ()

    def value(self, name: str) -> float:
        return self.params[name]


@dataclass(frozen=True)
class PopulationTrace:
    """Excited-state populations reconstructed from IQ clouds."""

    times: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class RateBudget:
    """Decay-rate decomposition from time-domain fits (all rad/s).

    ``gamma_phi_range`` and ``gamma_bath_range`` are worst-case endpoint
    intervals propagated from the decay-time uncertainties; the central
    ``gamma_bath`` is clipped at zero when the raw value is negative
    within its uncertainty.
    """

    gamma_1: float
    gamma_r: float
    gamma_phi: float
    gamma_phi_range: tuple[float, float]
    gamma_bath: float
    gamma_bath_range: tuple[float, float]


# ---------------------------------------------------------------------------
# generic least-squares plumbing


def _finish_report(names, result, seed=None) -> FitReport:
    """Uncertainties and flags of a solved fit (``x``, ``fun``, ``jac``, ``nfev``, ``success``).

    A parameter whose Jacobian column is exactly zero moves no residual:
    it is flagged ``unidentifiable`` with an infinite uncertainty, a test
    that holds whatever the parameters' units.  Parameters carry wildly
    different units (rad/s versus rad), so the covariance is formed on
    unit-norm columns and rescaled afterwards; a condition number of that
    Gram matrix above 1e10 flags the fit ``ill-conditioned``.
    """
    jac = np.atleast_2d(result.jac)
    residuals = np.asarray(result.fun)
    m, n = jac.shape
    col_norms = np.linalg.norm(jac, axis=0)
    dead = col_norms == 0
    flags = [f"unidentifiable:{names[i]}" for i in np.flatnonzero(dead)]

    dof = max(m - n, 1)
    s2 = float(residuals @ residuals) / dof
    sig = np.full(n, np.inf)
    alive = ~dead
    if np.any(alive):
        jn = jac[:, alive] / col_norms[alive]
        gram = jn.T @ jn
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e10:
            flags.append("ill-conditioned")
        cov_scaled = s2 * np.linalg.pinv(gram)
        sig[alive] = np.sqrt(np.clip(np.diag(cov_scaled), 0.0, None)) / col_norms[alive]

    return FitReport(
        params=dict(zip(names, (float(v) for v in result.x))),
        sigma=dict(zip(names, (float(v) for v in sig))),
        residual_norm=float(np.linalg.norm(residuals)),
        n_iter=int(result.nfev),
        converged=bool(result.success),
        seed=seed,
        flags=tuple(flags),
    )


def _least_squares(names, residual, x0, seed=None, **kwargs) -> FitReport:
    """Damped least squares with the package's step tolerance and iteration cap."""
    result = least_squares(residual, x0, xtol=STEP_TOL, ftol=STEP_TOL, max_nfev=MAX_ITER,
                           **kwargs)
    return _finish_report(names, result, seed)


def _linear_report(names, design, target, seed=None) -> FitReport:
    """Linear least squares on unit-norm columns; the design is its own Jacobian."""
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0] = 1.0  # a zero column stays zero and lowers the rank
    sol_scaled, _, rank, _ = np.linalg.lstsq(design / col_norms, target, rcond=None)
    if rank < design.shape[1]:
        raise FitError("rank-deficient design matrix; parameters not identifiable")
    sol = sol_scaled / col_norms
    solved = SimpleNamespace(x=sol, fun=design @ sol - target, jac=design, nfev=1, success=True)
    return _finish_report(names, solved, seed)


# ---------------------------------------------------------------------------
# simultaneous four-channel fit

_FOUR_CHANNEL_NAMES = ("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b")


def _real_rows(values: np.ndarray) -> np.ndarray:
    """``(..., 4, n)`` complex -> ``(..., 8 n)`` real: per channel, real then imaginary part."""
    stacked = np.stack([values.real, values.imag], axis=-2)
    return stacked.reshape(*values.shape[:-2], -1)


def initial_guess_from_spectrum(calibrated: ChannelSpectrum) -> CellParams:
    """Data-driven starting point for the four-channel fit.

    The resonance sits at the through-dip minimum; the dip depths give the
    coupling split (``1 - |t_xx|`` at resonance is ``gamma_x`` over the
    total) and the FWHM of the AA dip sets the total linewidth.
    """
    f = calibrated.freqs
    mag_aa = np.abs(calibrated.channel("AA"))
    mag_bb = np.abs(calibrated.channel("BB"))
    i0 = int(np.argmin(mag_aa))
    depth_a = float(np.clip(1.0 - mag_aa[i0], 0.05, 0.95))
    depth_b = float(np.clip(1.0 - mag_bb[int(np.argmin(mag_bb))], 0.05, 0.95))

    half = 1.0 - 0.5 * depth_a
    above = mag_aa > half
    left = np.flatnonzero(above[:i0])
    right = np.flatnonzero(above[i0:])
    if left.size and right.size:
        fwhm = f[i0 + right[0]] - f[left[-1]]
    else:
        fwhm = (f[-1] - f[0]) / 5.0
    total = math.pi * float(fwhm)  # half width sum gamma_a + gamma_b, rad/s
    return CellParams(
        gamma_a=depth_a * total,
        gamma_b=depth_b * total,
        omega_ge=2.0 * math.pi * float(f[i0]),
    )


def fit_four_channel(calibrated: ChannelSpectrum, init: CellParams,
                     seed: int | None = None) -> FitReport:
    """Simultaneous complex fit of all four calibrated channels.

    Free parameters are ``gamma_a``, ``gamma_b``, ``omega_ge``, ``phi_a``
    and ``phi_b``; the residual stacks real and imaginary parts of every
    channel.  Dephasing and bath rates are held at their ``init`` values.
    Deterministic given the data and starting point; non-convergence is
    reported through ``converged=False`` rather than raised.
    """
    omega = 2.0 * np.pi * calibrated.freqs
    data = _real_rows(calibrated.traces)
    coherence = init.coherence_rate
    scale = init.gamma_sum

    def residual(x):
        return _real_rows(cell_response(omega, *x, coherence)) - data

    def jacobian(x):
        _, jac = cell_response(omega, *x, coherence, jacobian=True)
        return _real_rows(jac).T

    x0 = np.array([init.gamma_a, init.gamma_b, init.omega_ge, init.phi_a, init.phi_b])
    eps = 1e-6
    lower = [1e-3 * scale, 1e-3 * scale, -np.inf, -np.pi / 2 + eps, -np.pi / 2 + eps]
    upper = [np.inf, np.inf, np.inf, np.pi / 2 - eps, np.pi / 2 - eps]
    return _least_squares(
        _FOUR_CHANNEL_NAMES, residual, x0, seed, jac=jacobian, bounds=(lower, upper),
        x_scale=[scale, scale, scale, 1.0, 1.0],
    )


# ---------------------------------------------------------------------------
# efficiency and dephasing reconstruction


def efficiency_trace(raw: ChannelSpectrum) -> np.ndarray:
    """Transfer efficiency ``(t_AB t_BA) / (t_AA t_BB)`` of four channels.

    On raw traces the line transmissions cancel in the ratio, but the
    residual isolation adds to the cross traces and does not: at
    resonance, over 30 seeds of noiseless lines without reflections, the
    median error is 41 % at -20 dB isolation (the ``LineSpec`` default),
    13 % at -30 dB and 4 % at -40 dB.  On the calibrated traces,
    ``efficiency_trace(calibrate_responses(meas, hd))``, the ratio is
    ``(AB - AB_hd)(BA - BA_hd) / (AA BB)``: the high-drive cross traces
    are subtracted first and every line factor cancels.  Raises
    :class:`FitError` where ``|t_AA t_BB|`` falls below the square of
    :data:`~routercell.calibration.REFERENCE_FLOOR`.
    """
    denom = raw.channel("AA") * raw.channel("BB")
    low = np.abs(denom) < REFERENCE_FLOOR**2
    if np.any(low):
        raise FitError(
            f"through channels below division floor at {int(low.sum())} points"
        )
    return raw.channel("AB") * raw.channel("BA") / denom


def fit_E_polynomial(e_values, ib_ma, seed: int | None = None) -> FitReport:
    """Quadratic fit of resonant efficiency versus bias current (mA).

    Returns coefficients ``c2`` (per mA^2), ``c1`` (per mA) and ``c0``.
    """
    ib = np.asarray(ib_ma, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if ib.size < 3:
        raise FitError("need at least 3 bias points for a quadratic fit")
    design = np.column_stack([ib**2, ib, np.ones_like(ib)])
    return _linear_report(("c2", "c1", "c0"), design, e, seed)


def gamma_phi_from_E(e, gamma_a: float, gamma_b: float):
    """Pure dephasing rates implied by resonant efficiency values.

    Inverts the resonant efficiency for the positive root of
    ``r^2/(gamma_a gamma_b) + r (1/gamma_a + 1/gamma_b) + 1 - 1/E = 0`` for
    each value of ``e``, a scalar or an array.  Noisy values above 1 are
    clamped to 1 (zero dephasing) with one warning that gives their count.
    """
    if gamma_a <= 0 or gamma_b <= 0:
        raise ValueError("couplings must be > 0")
    e = np.asarray(e, dtype=float)
    bad = e[~(np.isfinite(e) & (e > 0))]
    if bad.size:
        raise ValueError(f"efficiency must be in (0, 1], got {bad[0]}")
    above = np.count_nonzero(e > 1.0)
    if above:
        warnings.warn(f"{above} of {e.size} efficiencies above 1 clamped to 1", stacklevel=2)
    qa = 1.0 / (gamma_a * gamma_b)
    qb = 1.0 / gamma_a + 1.0 / gamma_b
    qc = 1.0 - 1.0 / np.minimum(e, 1.0)
    disc = qb * qb - 4.0 * qa * qc
    return (-qb + np.sqrt(disc)) / (2.0 * qa)


def fit_flux_noise(gamma_phi, ib_ma, flux: FluxModel,
                   seed: int | None = None) -> FitReport:
    """Bias-current noise density from dephasing versus flux bias.

    Linear least squares of ``gamma_phi = pi (d omega/d I)^2 s_i +
    gamma_phi_0`` with the frequency slope supplied by the flux model
    (converted to rad/s per ampere).  Returns ``s_i`` in A^2/Hz and
    ``gamma_phi_0`` in rad/s.
    """
    ib = np.asarray(ib_ma, dtype=float)
    gp = np.asarray(gamma_phi, dtype=float)
    if ib.size < 3:
        raise FitError("need at least 3 bias points")
    slopes = flux.slope(ib) * 1e3  # rad/s per mA -> rad/s per A
    if np.allclose(slopes, 0.0):
        raise FitError("all frequency slopes vanish (sweet-spot-only data); s_i unidentifiable")
    design = np.column_stack([np.pi * slopes**2, np.ones_like(slopes)])
    return _linear_report(("s_i", "gamma_phi_0"), design, gp, seed)


def fit_thermal(e_values, temps_k, gamma_a: float, gamma_b: float,
                omega_ge: float, seed: int | None = None) -> FitReport:
    """Zero-temperature relaxation/dephasing rates from efficiency vs temperature.

    Each temperature maps to a thermal photon number; the combined
    coherence rate grows linearly with it.  Starting values come from a
    line through the rates inverted from the efficiencies above 0; a
    bounded nonlinear fit of every efficiency, noisy ones <= 0 included,
    then polishes them.  Returns ``gamma1_zero`` and ``gamma_phi_zero``
    (rad/s); needs at least 3 temperatures, 2 of them with E > 0.
    """
    temps = np.asarray(temps_k, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if temps.size < 3:
        raise FitError("need at least 3 temperatures")
    if e.shape != temps.shape:
        raise ValueError(f"{e.size} efficiencies for {temps.size} temperatures")
    n_th = n_thermal(temps, omega_ge)

    invertible = ~(e <= 0)  # a non-finite value reaches gamma_phi_from_E, which refuses it
    rates = gamma_phi_from_E(e[invertible], gamma_a, gamma_b)
    design = np.column_stack([n_th[invertible], np.ones(rates.size)])
    slope, intercept = _linear_report(("slope", "intercept"), design, rates).params.values()
    g1_init = max(2.0 * intercept, 1e-6 * max(slope, 1.0))
    gphi_init = max(slope - g1_init, 1e-6 * max(slope, 1.0))

    def residual(x):
        return efficiency_thermal(n_th, gamma_a, gamma_b, ThermalCoefficients(*x)) - e

    return _least_squares(
        ("gamma1_zero", "gamma_phi_zero"), residual, [g1_init, gphi_init], seed,
        bounds=([0.0, 0.0], [np.inf, np.inf]),
        x_scale=[max(g1_init, 1.0), max(gphi_init, 1.0)],
    )


def fit_saturation(magnitudes, n_avg, seed: int | None = None) -> FitReport:
    """Fit the drive-saturation curve ``a - b / (1 + n^c / d)``.

    Requires at least 4 photon numbers spanning two decades.  Starting
    values take the low- and high-drive plateaus from the data edges and
    the half-response point for the scale ``d``.
    """
    n = np.asarray(n_avg, dtype=float)
    y = np.asarray(magnitudes, dtype=float)
    pos = n[n > 0]
    if n.size < 4 or pos.size == 0 or pos.max() / pos.min() < 100.0:
        raise FitError("need >= 4 photon numbers spanning at least two decades")
    order = np.argsort(n)
    n, y = n[order], y[order]

    lo = float(np.mean(y[:2]))
    hi = float(np.mean(y[-2:]))
    a0, b0 = hi, hi - lo
    half = 0.5 * (lo + hi)
    d0 = float(n[int(np.argmin(np.abs(y - half)))])
    d0 = max(d0, float(pos.min()))

    def residual(x):
        return saturation_curve(n, SaturationParams(*x)) - y

    return _least_squares(
        ("a", "b", "c", "d"), residual, [a0, b0, 1.0, d0], seed,
        bounds=([-np.inf, -np.inf, 1e-3, 1e-12], [np.inf, np.inf, 10.0, np.inf]),
        x_scale=[1.0, 1.0, 1.0, max(d0, 1e-6)],
    )


# ---------------------------------------------------------------------------
# time-domain fits


def fit_T1(populations, delays_s, seed: int | None = None) -> FitReport:
    """Exponential energy-relaxation fit ``p0 exp(-t/T1) + p_inf``.

    Returns ``t1`` (s), ``p0`` and ``p_inf``.  A vanishing initial
    population makes ``t1`` unidentifiable and is flagged.
    """
    t = np.asarray(delays_s, dtype=float)
    p = np.asarray(populations, dtype=float)
    if t.size < 5:
        raise FitError("need at least 5 delay points")
    p_inf0 = float(np.mean(p[-max(2, t.size // 5):]))
    p00 = float(p[0] - p_inf0)
    t10 = float((t[-1] - t[0]) / 3.0)

    def residual(x):
        p0, t1, p_inf = x
        return p0 * np.exp(-t / t1) + p_inf - p

    report = _least_squares(
        ("p0", "t1", "p_inf"), residual, [p00, max(t10, 1e-12), p_inf0], seed,
        bounds=([-np.inf, 1e-15, -np.inf], [np.inf, np.inf, np.inf]),
        x_scale=[max(abs(p00), 0.1), max(t10, 1e-12), 0.1],
    )
    if abs(report.value("p0")) < 1e-6:
        report = replace(report, flags=report.flags + ("unidentifiable:t1",))
    if (t[-1] - t[0]) < 2.0 * report.value("t1"):
        warnings.warn("delay span is below twice the fitted T1", stacklevel=2)
    return report


def _dominant_period(t: np.ndarray, p: np.ndarray) -> float:
    """Oscillation period estimate from the FFT of a detrended trace."""
    uniform = np.linspace(t[0], t[-1], t.size)
    resampled = np.interp(uniform, t, p)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(t.size, d=(uniform[1] - uniform[0]))
    k = int(np.argmax(spectrum[1:])) + 1
    return 1.0 / float(freqs[k])


def fit_rabi_decay(populations, durations_s, seed: int | None = None) -> FitReport:
    """Damped Rabi-oscillation fit.

    Model ``(p_max sin^2(pi t / (2 t_pi)) - p_inf) exp(-t/T_R) + p_inf``;
    returns ``t_r`` (s), ``p_max``, ``t_pi`` (s) and ``p_inf``.  The
    oscillation period starting value comes from the trace's FFT.
    """
    t = np.asarray(durations_s, dtype=float)
    p = np.asarray(populations, dtype=float)
    if t.size < 8:
        raise FitError("need at least 8 duration points")
    period = _dominant_period(t, p)
    t_pi0 = period / 2.0
    if (t[-1] - t[0]) < 3.0 * period:
        warnings.warn("fewer than 3 oscillation periods sampled", stacklevel=2)
    p_inf0 = float(np.mean(p[-max(2, t.size // 5):]))
    p_max0 = float(np.max(p))
    t_r0 = float((t[-1] - t[0]) / 3.0)

    def residual(x):
        p_max, t_pi, p_inf, t_r = x
        osc = p_max * np.sin(np.pi * t / (2.0 * t_pi)) ** 2 - p_inf
        return osc * np.exp(-t / t_r) + p_inf - p

    return _least_squares(
        ("p_max", "t_pi", "p_inf", "t_r"), residual, [p_max0, t_pi0, p_inf0, max(t_r0, 1e-12)],
        seed, bounds=([0.0, 1e-15, -np.inf, 1e-15], [np.inf, np.inf, np.inf, np.inf]),
        x_scale=[max(p_max0, 0.1), t_pi0, 0.1, max(t_r0, 1e-12)],
    )


def coupling_limited_t1(gamma_a: float, gamma_b: float) -> float:
    """Relaxation time if decay went only into the two waveguides (s)."""
    return 1.0 / (2.0 * (gamma_a + gamma_b))


def pi_amplitude_consistency(pi_amp_a: float, pi_amp_b: float,
                             gamma_a: float, gamma_b: float) -> tuple[float, float]:
    """Cross-check of the pi-pulse amplitude ratio against the coupling ratio.

    A pi rotation through the weaker-coupled waveguide needs a larger
    amplitude, so ``pi_a / pi_b`` should track ``gamma_b / gamma_a``.
    Returns ``(amplitude_ratio, coupling_ratio)`` for reporting.
    """
    return pi_amp_a / pi_amp_b, gamma_b / gamma_a


def rate_budget(t1_s: float, t_r_s: float, gamma_a: float, gamma_b: float,
                t1_unc_s: float = 0.0, t_r_unc_s: float = 0.0) -> RateBudget:
    """Decompose measured decay times into coupling, bath and dephasing.

    ``gamma_1 = 1/T1`` feeds the bath rate ``gamma_1 - 2 gamma_a -
    2 gamma_b`` and the Rabi decay gives ``gamma_phi = 2 (gamma_R -
    3 gamma_1 / 4)``.  Intervals use worst-case endpoints of ``T1 +-
    unc`` and ``T_R +- unc`` (clipped at zero: rates are nonnegative).
    """
    if t1_s <= 0 or t_r_s <= 0:
        raise ValueError("decay times must be positive")
    if t1_unc_s >= t1_s or t_r_unc_s >= t_r_s:
        raise ValueError("uncertainties must be smaller than the decay times")
    gamma_1 = 1.0 / t1_s
    gamma_r = 1.0 / t_r_s

    def phi(t1, tr):
        return 2.0 * (1.0 / tr - 0.75 / t1)

    gamma_phi = phi(t1_s, t_r_s)
    phi_lo = phi(t1_s - t1_unc_s, t_r_s + t_r_unc_s)
    phi_hi = phi(t1_s + t1_unc_s, t_r_s - t_r_unc_s)
    phi_range = (max(0.0, min(phi_lo, phi_hi)), max(0.0, phi_lo, phi_hi))

    coupling = 2.0 * (gamma_a + gamma_b)
    bath_raw = gamma_1 - coupling
    bath_lo = 1.0 / (t1_s + t1_unc_s) - coupling
    bath_hi = 1.0 / (t1_s - t1_unc_s) - coupling
    if bath_hi < 0:
        warnings.warn(
            "measured T1 exceeds the coupling limit beyond its uncertainty",
            stacklevel=2,
        )
    return RateBudget(
        gamma_1=gamma_1,
        gamma_r=gamma_r,
        gamma_phi=max(0.0, gamma_phi),
        gamma_phi_range=phi_range,
        gamma_bath=max(0.0, bath_raw),
        gamma_bath_range=(bath_lo, bath_hi),
    )


# ---------------------------------------------------------------------------
# IQ population decomposition


def pca_populations(iq_clouds, zero_drive_key) -> PopulationTrace:
    """Reconstruct excited-state populations from per-setting IQ clouds.

    The per-setting cloud means are projected onto their maximum-variance
    axis; the ground reference is anchored by the zero-drive setting.  The
    excited reference makes the largest population 1, unless the most
    negative one would then lie below ``-POPULATION_SLACK``, in which case
    that one sits on it; every population lies in ``[-POPULATION_SLACK,
    1]``.  The result is invariant under global rotation and rescaling of
    the IQ plane.

    Parameters
    ----------
    iq_clouds : mapping
        Setting value (e.g. drive duration) -> complex sample array.
    zero_drive_key
        Key of the zero-drive (ground state) setting.
    """
    if zero_drive_key not in iq_clouds:
        raise ValueError("zero-drive setting missing from the clouds")
    keys = sorted(iq_clouds)
    if len(keys) < 2:
        raise ValueError("need at least 2 distinct settings")
    means = np.array([np.mean(np.asarray(iq_clouds[k], dtype=complex)) for k in keys])
    points = np.column_stack([means.real, means.imag])

    centered = points - points.mean(axis=0)
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    spread = math.sqrt(max(float(evals[-1]), 0.0))
    if spread <= 1e-12 * max(1.0, float(np.abs(means).max())):
        raise ValueError("degenerate clouds: settings are indistinguishable")
    axis = evecs[:, -1]

    proj = points @ axis
    d = proj - proj[keys.index(zero_drive_key)]
    if d[int(np.argmax(np.abs(d)))] < 0:
        d = -d
    best = max(float(d.max()), -float(d.min()) / POPULATION_SLACK)
    return PopulationTrace(times=np.asarray(keys, dtype=float), p=d / best)
