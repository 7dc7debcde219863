"""Parameter estimation for the basic cell.

Fits fall into three families:

* steady state -- a simultaneous complex least-squares fit of the
  calibrated through channels and cross product against
  :func:`routercell.model.cell_response` (residuals and analytic
  Jacobian), started from one closed-form solve
  for their shared pole that is exact on noiseless data, with the
  coherence rate held at 0; dephasing reconstruction from the transfer
  efficiency, flux-noise and thermal fits of the reconstructed rates,
  and drive-saturation fits;
* time domain -- exponential energy-relaxation and damped-Rabi fits plus
  the rate budget that splits the measured decay into coupling, bath and
  pure-dephasing contributions;
* readout -- principal-component projection of IQ clouds onto a single
  population axis anchored by the zero-drive reference.

Every fit is deterministic given its inputs and uses damped least squares
(:func:`routercell._lsq.least_squares`, which sets its own stopping
policy) on one function per fit that returns the residuals and their
analytic Jacobian together, with uncertainties from the linearized
covariance at the optimum; a linear fit is one solve with the same
covariance.  The six fits of a sweep's paired samples admit them by one
rule: they take them in any order (sorted by abscissa, so a shuffled sweep
fits as the sorted one); they refuse, with ``ValueError``, samples that are
unpaired or not finite, naming the first bad one; and they refuse, with
``FitError``, fewer samples than the fit needs or an abscissa that does not
vary.  A parameter whose Jacobian column is exactly zero is flagged
``unidentifiable:<name>`` instead of being reported with a meaningless
uncertainty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._lsq import least_squares
from .calibration import ChannelSpectrum, REFERENCE_FLOOR
from .model import (
    CellParams,
    FluxModel,
    SaturationParams,
    ThermalCoefficients,
    _check_couplings,
    cell_response,
    gamma_phi_of_bias,
    n_thermal,
    resonant_efficiency,
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

#: Largest depth of a reconstructed population below 0.
POPULATION_SLACK = 0.15


class FitError(RuntimeError):
    """Raised when a fit cannot be set up (degenerate or insufficient data)."""


@dataclass(frozen=True)
class FitReport:
    """Result of one fit: values, uncertainties and convergence metadata.

    ``n_iter`` counts every evaluation of the fit (the solver's ``nfev``:
    each call returns the residuals and the Jacobian together, and none is
    differenced), not its iterations; a linear solve counts as one.
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


@dataclass(frozen=True, eq=False)
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
    gram = jac.T @ jac
    col_norms = np.sqrt(gram.diagonal())
    dead = col_norms == 0
    flags = [f"unidentifiable:{names[i]}" for i in np.flatnonzero(dead)]

    dof = max(m - n, 1)
    s2 = float(residuals @ residuals) / dof
    sig = np.full(n, np.inf)
    alive = ~dead
    if np.any(alive):
        gram = gram[np.ix_(alive, alive)] / np.outer(col_norms[alive], col_norms[alive])
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


def _paired_samples(y, x, what: tuple[str, str], least: int) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays, stably sorted by ``x``; raises
    ``ValueError`` unless paired and finite, and ``FitError`` for fewer than
    ``least`` samples or for an ``x`` that does not vary.

    ``what`` names the ``y`` and ``x`` samples (plural) in the messages,
    which index the samples in the order given.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"{y.size} {what[0]} for {x.size} {what[1]}")
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"sample {i} is not finite: ({what[1]}, {what[0]}) = ({x[i]}, {y[i]})")
    if x.size < least:
        raise FitError(f"need at least {least} {what[1]}, got {x.size}")
    order = np.argsort(x, axis=None, kind="stable")
    x, y = x.ravel()[order], y.ravel()[order]
    if x[-1] == x[0]:
        raise FitError(f"all {x.size} {what[1]} are the same; the sweep has no span")
    return x, y


# ---------------------------------------------------------------------------
# simultaneous four-channel fit

_FOUR_CHANNEL_NAMES = ("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b")
_PHASE_BOUND = np.pi / 2 - 1e-6  # the fit's box for each phase, inside |phi| < pi/2


def _real_rows(values: np.ndarray) -> np.ndarray:
    """``(..., r, n)`` complex -> ``(..., 2 r n)`` real, a view of C-contiguous ``values``.

    Row ``2 (c n + k)`` is the real part of row ``c`` at point ``k`` and
    row ``2 (c n + k) + 1`` its imaginary part: rows in order, and
    within each the real and imaginary parts interleaved point by point.
    """
    return values.view(float).reshape(*values.shape[:-2], -1)


def initial_guess_from_spectrum(calibrated: ChannelSpectrum) -> CellParams:
    """Start of the four-channel fit from the pole all four channels share.

    With ``p = omega_ge - i (gamma_a + gamma_b + coherence_rate)``, ``(t_xx
    - 1)(omega - p) = -n_x`` and ``t_AB (omega - p) = t_BA (omega - p) =
    n_c`` are linear in ``p`` and the ``n`` (Levy's fit); given ``p`` each
    ``n`` is a channel mean, which leaves ``p`` in closed form.  Exact on
    noiseless data: ``gamma_x e^{i phi_x} = -i n_x``, ``omega_ge = Re p``.
    The coherence rate stays 0, as :func:`fit_four_channel` holds it at the
    start (its seed would be ``-Im p - gamma_a - gamma_b``).  Raises
    ``FitError`` when the channels show no resonance.
    """
    omega = 2.0 * np.pi * calibrated.freqs
    w = omega - omega.mean()
    y = calibrated.traces - np.array([[1.0], [1.0], [0.0], [0.0]])  # t_xx - 1, t_AB, t_BA
    mean = y.mean(axis=1)
    mean[2:] = mean[2:].mean()  # AB and BA share n_c
    dev = y - mean[:, None]  # the n eliminated, residuals are (y w)~ - p y~; ~ drops the mean
    denom = np.vdot(dev, dev).real
    if not denom > np.finfo(float).eps * np.vdot(y, y).real:  # y~ below sqrt(eps) |y| is rounding
        raise FitError("the channels are flat: no resonance to start the fit from")
    p = np.vdot(dev, y * w) / denom
    g = 1j * np.mean(y[:2] * (w - p), axis=1)  # gamma_x e^{i phi_x}, x = a, b
    if not np.all(np.isfinite(g) & (g != 0.0)):
        raise FitError(f"degenerate pole solve: couplings {np.abs(g).tolist()}")
    phi = np.clip(np.angle(g), -_PHASE_BOUND, _PHASE_BOUND)  # into the fit's bounds
    return CellParams(*np.abs(g).tolist(), float(omega.mean() + p.real), *phi.tolist())


def fit_four_channel(calibrated: ChannelSpectrum, init: CellParams,
                     seed: int | None = None) -> FitReport:
    """Simultaneous complex fit of all four calibrated channels.

    Free parameters are ``gamma_a``, ``gamma_b``, ``omega_ge``, ``phi_a``
    and ``phi_b``; the residual stacks real and imaginary parts of three
    rows: the through channels ``AA`` and ``BB``, and the cross product
    ``w (t_AB t_BA - AB BA)``, which the lines leave (see
    :func:`~routercell.calibration.calibrate_responses`), so no split of it
    between AB and BA enters the fit.  Its noise grows with ``|t_c|``, so
    the weight ``w = 1 / (sqrt(2) |t_c|) = |omega - omega_ge + i (coherence
    + gamma_a + gamma_b)| / sqrt(2 gamma_a gamma_b)`` is taken at the start
    ``init``.  Dephasing and bath rates are held at their ``init`` values.
    Deterministic given the data and starting point; non-convergence is
    reported through ``converged=False`` rather than raised.
    """
    omega = 2.0 * np.pi * calibrated.freqs
    coherence = init.coherence_rate
    scale = init.gamma_sum
    weight = np.abs(omega - init.omega_ge + 1j * (coherence + scale)) / math.sqrt(
        2.0 * init.gamma_a * init.gamma_b)
    aa, bb, ab, ba = calibrated.traces
    data = np.array([aa, bb, weight * ab * ba])

    def problem(x):
        t, jac = cell_response(omega, *x, coherence, jacobian=True)
        # the model's AB and BA rows and their derivatives are equal: read one of each
        w_c = weight * t[2]
        d = w_c * jac[:, 2]
        rows = np.array([t[0], t[1], w_c * t[2]])
        d_rows = np.stack([jac[:, 0], jac[:, 1], d + d], axis=1)
        return _real_rows(rows - data), _real_rows(d_rows).T

    x0 = np.array([init.gamma_a, init.gamma_b, init.omega_ge, init.phi_a, init.phi_b])
    lower = [1e-3 * scale, 1e-3 * scale, -np.inf, -_PHASE_BOUND, -_PHASE_BOUND]
    upper = [np.inf, np.inf, np.inf, _PHASE_BOUND, _PHASE_BOUND]
    return _finish_report(_FOUR_CHANNEL_NAMES, least_squares(
        problem, x0, bounds=(lower, upper)), seed)


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

    Returns coefficients ``c2`` (per mA^2), ``c1`` (per mA) and ``c0``;
    needs at least 3 bias points.
    """
    ib, e = _paired_samples(e_values, ib_ma, ("efficiencies", "bias points"), 3)
    design = np.column_stack([ib**2, ib, np.ones_like(ib)])
    return _linear_report(("c2", "c1", "c0"), design, e, seed)


def gamma_phi_from_E(e, gamma_a: float, gamma_b: float):
    """Pure dephasing rates implied by resonant efficiency values.

    Inverts the resonant efficiency for the positive root of
    ``r^2/(gamma_a gamma_b) + r (1/gamma_a + 1/gamma_b) + 1 - 1/E = 0`` for
    each value of ``e``, a scalar or an array.  Noisy values above 1 are
    clamped to 1 (zero dephasing) with one warning that gives their count.
    """
    _check_couplings(gamma_a, gamma_b)
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

    Linear least squares of the model's
    :func:`~routercell.model.gamma_phi_of_bias`, ``gamma_phi = pi (d
    omega/d I)^2 s_i + gamma_phi_0``, in ``s_i`` (A^2/Hz) and
    ``gamma_phi_0`` (rad/s); needs at least 3 bias points.
    """
    ib, gp = _paired_samples(gamma_phi, ib_ma, ("rates", "bias points"), 3)
    slope_term = gamma_phi_of_bias(ib, flux, 1.0, 0.0)
    if np.allclose(slope_term, 0.0):
        raise FitError("all frequency slopes vanish (sweet-spot-only data); s_i unidentifiable")
    design = np.column_stack([slope_term, np.ones_like(ib)])
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
    temps, e = _paired_samples(e_values, temps_k, ("efficiencies", "temperatures"), 3)
    n_th = n_thermal(temps, omega_ge)

    invertible = e > 0
    if invertible.sum() < 2:
        raise FitError(f"need at least 2 efficiencies above 0, got {invertible.sum()}")
    rates = gamma_phi_from_E(e[invertible], gamma_a, gamma_b)
    design = np.column_stack([n_th[invertible], np.ones(rates.size)])
    slope, intercept = _linear_report(("slope", "intercept"), design, rates).params.values()
    g1_init = max(2.0 * intercept, 1e-6 * max(slope, 1.0))
    gphi_init = max(slope - g1_init, 1e-6 * max(slope, 1.0))

    def problem(x):
        rate = ThermalCoefficients(*x).coherence_rate(n_th)
        eff = resonant_efficiency(gamma_a, gamma_b, rate)
        d_rate = -eff**2 * (1.0 / gamma_a + 1.0 / gamma_b + 2.0 * rate / (gamma_a * gamma_b))
        # where the thermal term rounds away against gamma1_zero / 2, the
        # residual carries no trace of gamma_phi_zero
        seen = (x[0] == 0.0) | (rate != 0.5 * x[0])
        return eff - e, np.column_stack(
            [d_rate * (n_th + 0.5), d_rate * np.where(seen, n_th, 0.0)])

    return _finish_report(("gamma1_zero", "gamma_phi_zero"), least_squares(
        problem, [g1_init, gphi_init], bounds=([0.0, 0.0], [np.inf, np.inf])), seed)


def fit_saturation(magnitudes, n_avg, seed: int | None = None) -> FitReport:
    """Fit the drive-saturation curve ``a - b / (1 + n^c / d)``.

    Needs at least 4 photon numbers, whose positive ones span two decades.
    Starting values take the low- and high-drive plateaus from the data
    edges and the half-response point for the scale ``d``.
    """
    n, y = _paired_samples(magnitudes, n_avg, ("magnitudes", "photon numbers"), 4)
    pos = n[n > 0]
    if pos.size == 0 or pos.max() / pos.min() < 100.0:
        raise FitError("the positive photon numbers must span at least two decades")

    lo = float(np.mean(y[:2]))
    hi = float(np.mean(y[-2:]))
    a0, b0 = hi, hi - lo
    half = 0.5 * (lo + hi)
    d0 = float(n[int(np.argmin(np.abs(y - half)))])
    d0 = max(d0, float(pos.min()))
    log_n = np.log(np.where(n > 0, n, 1.0))  # an n = 0 row does not move c

    def problem(x):
        _, b, c, d = x
        q = n**c / d
        w = b * q / (1.0 + q) ** 2
        return saturation_curve(n, SaturationParams(*x)) - y, np.column_stack(
            [np.ones_like(n), -1.0 / (1.0 + q), w * log_n, -w / d])

    return _finish_report(("a", "b", "c", "d"), least_squares(
        problem, [a0, b0, 1.0, d0],
        bounds=([-np.inf, -np.inf, 1e-3, 1e-12], [np.inf, np.inf, 10.0, np.inf])), seed)


# ---------------------------------------------------------------------------
# time-domain fits


def fit_T1(populations, delays_s, seed: int | None = None) -> FitReport:
    """Exponential energy-relaxation fit ``p0 exp(-t/T1) + p_inf``.

    Returns ``t1`` (s), ``p0`` and ``p_inf``.  A fitted ``p0`` of exactly
    0 leaves ``t1``'s Jacobian column zero, so ``t1`` is flagged
    unidentifiable; a small ``p0`` is not, as the rule does not depend on
    the populations' scale.  Needs at least 5 delays.
    """
    t, p = _paired_samples(populations, delays_s, ("populations", "delays"), 5)
    p_inf0 = float(np.mean(p[-max(2, t.size // 5):]))
    p00 = float(p[0] - p_inf0)
    t10 = float((t[-1] - t[0]) / 3.0)

    def problem(x):
        p0, t1, p_inf = x
        decay = np.exp(-t / t1)
        return p0 * decay + p_inf - p, np.column_stack(
            [decay, p0 * decay * t / t1**2, np.ones_like(t)])

    report = _finish_report(("p0", "t1", "p_inf"), least_squares(
        problem, [p00, max(t10, 1e-12), p_inf0],
        bounds=([-np.inf, 1e-15, -np.inf], [np.inf, np.inf, np.inf])), seed)
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
    oscillation period starting value comes from the trace's FFT.  Needs
    at least 8 durations.
    """
    t, p = _paired_samples(populations, durations_s, ("populations", "durations"), 8)
    period = _dominant_period(t, p)
    t_pi0 = period / 2.0
    if (t[-1] - t[0]) < 3.0 * period:
        warnings.warn("fewer than 3 oscillation periods sampled", stacklevel=2)
    p_inf0 = float(np.mean(p[-max(2, t.size // 5):]))
    p_max0 = float(np.max(p))
    t_r0 = float((t[-1] - t[0]) / 3.0)

    def problem(x):
        p_max, t_pi, p_inf, t_r = x
        phase = np.pi * t / (2.0 * t_pi)
        decay = np.exp(-t / t_r)
        osc = p_max * np.sin(phase) ** 2 - p_inf
        return osc * decay + p_inf - p, np.column_stack(
            [np.sin(phase) ** 2 * decay, -p_max * np.sin(2.0 * phase) * phase / t_pi * decay,
             1.0 - decay, osc * decay * t / t_r**2])

    return _finish_report(("p_max", "t_pi", "p_inf", "t_r"), least_squares(
        problem, [p_max0, t_pi0, p_inf0, max(t_r0, 1e-12)],
        bounds=([0.0, 1e-15, -np.inf, 1e-15], [np.inf] * 4)), seed)


def coupling_limited_t1(gamma_a: float, gamma_b: float) -> float:
    """Relaxation time if decay went only into the two waveguides (s).

    Raises ``ValueError`` unless both couplings are > 0.
    """
    _check_couplings(gamma_a, gamma_b)
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
    Raises ``ValueError`` unless both couplings are > 0, every time and
    uncertainty is finite, the times positive and the uncertainties in
    ``[0, time)``.
    """
    _check_couplings(gamma_a, gamma_b)
    if not all(map(math.isfinite, (t1_s, t_r_s, t1_unc_s, t_r_unc_s))):
        raise ValueError("decay times and uncertainties must be finite")
    if t1_s <= 0 or t_r_s <= 0:
        raise ValueError("decay times must be positive")
    if t1_unc_s < 0 or t_r_unc_s < 0:
        raise ValueError("uncertainties must be >= 0")
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
        Setting value (e.g. drive duration) -> complex sample array, each
        non-empty and finite (else ``ValueError``, naming the setting).
    zero_drive_key
        Key of the zero-drive (ground state) setting.
    """
    if zero_drive_key not in iq_clouds:
        raise ValueError("zero-drive setting missing from the clouds")
    keys = sorted(iq_clouds)
    if len(keys) < 2:
        raise ValueError("need at least 2 distinct settings")
    clouds = [np.asarray(iq_clouds[k], dtype=complex) for k in keys]
    for key, cloud in zip(keys, clouds):
        if cloud.size == 0 or not np.isfinite(cloud).all():
            raise ValueError(f"cloud of setting {key!r} is empty or not finite")
    means = np.array([np.mean(cloud) for cloud in clouds])
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
