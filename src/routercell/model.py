"""Closed-form response model of a two-waveguide emitter cell.

A single two-level emitter couples to two open waveguides A and B with
rates ``gamma_a`` and ``gamma_b`` (half widths, rad/s).  Weak-probe
scattering splits into four channels: through transmission within each
waveguide (``AA``, ``BB``) and emitter-mediated transfer between the
waveguides (``AB``, ``BA``).  On resonance the emitter back-reflects and
re-emits, producing the characteristic through dip and cross peak.

Dephasing and relaxation into a thermal bath enter as an imaginary shift
of the transition frequency, ``omega_ge -> omega_ge - i (gamma_phi +
gamma_bath / 2)``, applied uniformly in every coefficient denominator.
Small complex coupling phases ``phi_a``, ``phi_b`` multiply only the
numerator couplings (Fano-type corrections from imperfect lines); the
total linewidth in the denominator stays ``gamma_a + gamma_b`` so the
pole remains physical.

The response is written once, in :func:`cell_response` (all four channels
and, on request, their parameter derivatives); every other function here,
the four-channel fit and the CLI evaluate the cell through it.

All rates and frequencies here are angular (rad/s).  Files, configs,
the CLI and the library's frequency grids (``ChannelSpectrum.freqs``,
``CampaignConfig.freqs``) use linear Hz; each caller converts its grid
(README, "Units").  Functions of a scalar return the numpy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import PortMatrix

__all__ = [
    "CHANNELS",
    "CellParams",
    "FluxModel",
    "ThermalCoefficients",
    "SaturationParams",
    "DressedModel",
    "DressedLines",
    "cell_response",
    "cell_coefficients",
    "cell_smatrix",
    "efficiency",
    "resonant_efficiency",
    "omega_ge_of_bias",
    "n_thermal",
    "efficiency_thermal",
    "photons_in_pulse",
    "saturation_curve",
    "dressed_lines",
]

#: Canonical channel order used throughout the package (AA means A -> A').
CHANNELS = ("AA", "BB", "AB", "BA")

#: Exact SI values (h and k_B are defined constants), bit-equal to
#: ``scipy.constants.hbar`` and ``.k`` without the ~0.2 s import.
hbar = 6.62607015e-34 / (2.0 * math.pi)
k_B = 1.380649e-23


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class CellParams:
    """Physical parameters of the basic cell.

    Parameters
    ----------
    gamma_a, gamma_b : float
        Emitter-waveguide coupling rates (rad/s), strictly positive.
    phi_a, phi_b : float
        Small phenomenological coupling phases (rad), |phi| < pi/2.
    omega_ge : float
        Ground to first-excited transition frequency (rad/s).
    omega_ef : float, optional
        First to second excited transition frequency (rad/s).
    gamma_phi : float
        Pure dephasing rate (rad/s), >= 0.
    gamma_bath : float
        Relaxation rate into the thermal bath (rad/s), >= 0.
    """

    gamma_a: float
    gamma_b: float
    omega_ge: float
    phi_a: float = 0.0
    phi_b: float = 0.0
    omega_ef: float | None = None
    gamma_phi: float = 0.0
    gamma_bath: float = 0.0

    def __post_init__(self):
        for name in ("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b",
                     "gamma_phi", "gamma_bath"):
            _check_finite(name, getattr(self, name))
        if self.gamma_a <= 0 or self.gamma_b <= 0:
            raise ValueError("coupling rates gamma_a, gamma_b must be > 0")
        if abs(self.phi_a) >= math.pi / 2 or abs(self.phi_b) >= math.pi / 2:
            raise ValueError("coupling phases must satisfy |phi| < pi/2")
        if self.gamma_phi < 0 or self.gamma_bath < 0:
            raise ValueError("gamma_phi and gamma_bath must be >= 0")
        if self.omega_ef is not None:
            _check_finite("omega_ef", self.omega_ef)

    @property
    def gamma_sum(self) -> float:
        return self.gamma_a + self.gamma_b

    @property
    def coherence_rate(self) -> float:
        """Effective imaginary shift of the transition, gamma_phi + gamma_bath/2."""
        return self.gamma_phi + 0.5 * self.gamma_bath


@dataclass(frozen=True)
class FluxModel:
    """Quadratic transition-frequency dependence on bias current.

    ``curvature`` is in rad/s per mA^2 (non-positive for a transmon biased
    around its upper sweet spot), ``linear`` in rad/s per mA, and
    ``sweet_spot_omega`` is the transition frequency at zero bias (rad/s).
    """

    curvature: float
    sweet_spot_omega: float
    linear: float = 0.0

    def __post_init__(self):
        _check_finite("curvature", self.curvature)
        _check_finite("linear", self.linear)
        _check_finite("sweet_spot_omega", self.sweet_spot_omega)
        if self.curvature > 0:
            raise ValueError("curvature must be <= 0 around an upper sweet spot")

    def slope(self, ib_ma):
        """d(omega_ge)/d(I_b) in rad/s per mA."""
        return self.linear + 2.0 * self.curvature * np.asarray(ib_ma, dtype=float)


@dataclass(frozen=True)
class ThermalCoefficients:
    """Per-photon growth of relaxation and dephasing with bath occupation.

    ``gamma_bath = (2 n_th + 1) gamma1_zero`` and ``gamma_phi = n_th *
    gamma_phi_zero``; both zero-temperature rates in rad/s.
    """

    gamma1_zero: float
    gamma_phi_zero: float

    def __post_init__(self):
        if self.gamma1_zero < 0 or self.gamma_phi_zero < 0:
            raise ValueError("thermal rate coefficients must be >= 0")

    def coherence_rate(self, n_th):
        """Combined rate gamma_phi + gamma_bath/2 entering the efficiency."""
        n = np.asarray(n_th, dtype=float)
        return n * (self.gamma1_zero + self.gamma_phi_zero) + 0.5 * self.gamma1_zero


@dataclass(frozen=True)
class SaturationParams:
    """Phenomenological drive-saturation curve ``a - b / (1 + n^c / d)``.

    ``a`` is the strong-drive asymptote, ``a - b`` the weak-drive limit,
    ``c`` the power-law exponent and ``d`` the photon-number scale.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("photon-number scale d must be > 0")
        if self.c <= 0:
            raise ValueError("exponent c must be > 0")


@dataclass(frozen=True)
class DressedModel:
    """Drive-field coupling strengths for the dressed transition lines."""

    lambda_red: float
    lambda_blue: float
    omega_ge: float
    omega_ef: float

    def __post_init__(self):
        if self.lambda_red <= 0 or self.lambda_blue <= 0:
            raise ValueError("dressed coupling strengths must be > 0")


class DressedLines(NamedTuple):
    """Red/blue shifted transition frequencies for both manifolds (rad/s)."""

    ge_red: float | np.ndarray
    ge_blue: float | np.ndarray
    ef_red: float | np.ndarray
    ef_blue: float | np.ndarray


def cell_response(omega, gamma_a, gamma_b, omega_ge, phi_a=0.0, phi_b=0.0,
                  coherence_rate=0.0, jacobian=False):
    """The four channel coefficients stacked in :data:`CHANNELS` order.

    Shape ``(4,) + omega.shape``.  All share the pole ``D = omega -
    omega_ge + i (coherence_rate + gamma_a + gamma_b)``: through ``1 - i
    gamma_x e^{i phi_x} / D``, cross ``i sqrt(gamma_a gamma_b) e^{i (phi_a
    + phi_b)/2} / D``.  ``jacobian=True`` also returns the derivatives with
    respect to ``(gamma_a, gamma_b, omega_ge, phi_a, phi_b)``, shape ``(5,
    4) + omega.shape``.  Inputs are not validated; the :class:`CellParams`
    wrappers below check theirs.
    """
    d = np.asarray(omega, dtype=float) - omega_ge + 1j * (coherence_rate + gamma_a + gamma_b)
    e_a = np.exp(1j * phi_a)
    e_b = np.exp(1j * phi_b)
    n_a = 1j * gamma_a * e_a
    n_b = 1j * gamma_b * e_b
    n_x = 1j * math.sqrt(gamma_a * gamma_b) * np.exp(0.5j * (phi_a + phi_b))
    x = n_x / d
    t = np.array([1.0 - n_a / d, 1.0 - n_b / d, x, x])
    if not jacobian:
        return t

    d2 = d * d
    # a coupling rate also widens the pole, which moves every channel
    s_a, s_b, s_x = 1j * n_a / d2, 1j * n_b / d2, 1j * n_x / d2
    zero = np.zeros_like(d)
    rows = (
        (-(1j * e_a) / d + s_a, s_b, n_x / (2.0 * gamma_a * d) - s_x),
        (s_a, -(1j * e_b) / d + s_b, n_x / (2.0 * gamma_b * d) - s_x),
        (-n_a / d2, -n_b / d2, n_x / d2),
        (-1j * n_a / d, zero, 0.5j * n_x / d),
        (zero, -1j * n_b / d, 0.5j * n_x / d),
    )
    return t, np.array([(aa, bb, xx, xx) for aa, bb, xx in rows])


def cell_coefficients(omega, p: CellParams) -> np.ndarray:
    """All four channel coefficients, shape ``(4,) + omega.shape`` in :data:`CHANNELS` order.

    At resonance with real couplings the through rows ``AA``, ``BB`` are
    ``gamma_other / (gamma_a + gamma_b)`` and the two identical cross rows
    ``sqrt(gamma_a gamma_b) / (gamma_a + gamma_b)``.
    """
    _check_finite("omega", omega)
    return cell_response(omega, p.gamma_a, p.gamma_b, p.omega_ge,
                         p.phi_a, p.phi_b, p.coherence_rate)


def cell_smatrix(omega: float, p: CellParams) -> PortMatrix:
    """Full 4x4 cell S-matrix in port order (A-in, A-out, B-in, B-out).

    Transmissions are the :func:`cell_response` channels; each reflection
    is the point-scatterer form ``t_xx - 1 = -i gamma_x e^{i phi_x} /
    (delta + i (gamma_a + gamma_b))``, so that the lossless real-coupling
    matrix is exactly unitary.
    """
    t_a, t_b, x, _ = cell_coefficients(float(omega), p)
    r_a = t_a - 1.0
    r_b = t_b - 1.0
    s = np.array(
        [
            [r_a, t_a, x, x],
            [t_a, r_a, x, x],
            [x, x, r_b, t_b],
            [x, x, t_b, r_b],
        ],
        dtype=complex,
    )
    return PortMatrix(s)


def efficiency(delta, p: CellParams):
    """Calibration-free transfer efficiency ``(t_AB t_BA) / (t_AA t_BB)``.

    Evaluated from the :func:`cell_response` channels at the detuning
    itself, so it equals the four-coefficient ratio to machine precision.
    At ``delta = 0`` with real couplings this is the real quantity
    ``1 / (1 + r (1/gamma_a + 1/gamma_b) + r^2/(gamma_a gamma_b))`` with
    ``r = gamma_phi + gamma_bath/2``, equal to 1 for a fully coherent cell.

    Parameters
    ----------
    delta : float or ndarray
        Detuning ``omega - omega_ge`` (rad/s).
    p : CellParams
    """
    _check_finite("delta", delta)
    # the response depends on omega only through omega - omega_ge
    aa, bb, ab, ba = cell_response(delta, p.gamma_a, p.gamma_b, 0.0,
                                   p.phi_a, p.phi_b, p.coherence_rate)
    return ab * ba / (aa * bb)


def resonant_efficiency(gamma_a: float, gamma_b: float, rate):
    """Resonant efficiency for a combined coherence rate (rad/s).

    ``E = 1 / (1 + rate (1/gamma_a + 1/gamma_b) + rate^2 / (gamma_a
    gamma_b))`` -- the closed resonant form of :func:`efficiency` with
    ``rate = gamma_phi + gamma_bath / 2``.
    """
    if gamma_a <= 0 or gamma_b <= 0:
        raise ValueError("couplings must be > 0")
    r = np.asarray(rate, dtype=float)
    return 1.0 / (1.0 + r * (1.0 / gamma_a + 1.0 / gamma_b) + r**2 / (gamma_a * gamma_b))


def omega_ge_of_bias(ib_ma, f: FluxModel):
    """Transition frequency at bias current ``ib_ma`` (mA), in rad/s."""
    ib = np.asarray(ib_ma, dtype=float)
    return f.sweet_spot_omega + f.linear * ib + f.curvature * ib**2


def n_thermal(temperature, omega):
    """Bose-Einstein mean photon number at ``temperature`` (K) and ``omega`` (rad/s)."""
    t = np.asarray(temperature, dtype=float)
    w = np.asarray(omega, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be > 0")
    if np.any(w <= 0):
        raise ValueError("omega must be > 0")
    with np.errstate(over="ignore"):  # expm1 -> inf -> occupation 0 at T -> 0
        return 1.0 / np.expm1(hbar * w / (k_B * t))


def efficiency_thermal(n_th, gamma_a: float, gamma_b: float,
                       tc: ThermalCoefficients):
    """Resonant efficiency versus thermal photon number.

    The bath heats both relaxation and dephasing linearly in ``n_th``;
    the combined rate ``n_th (gamma1_zero + gamma_phi_zero) + gamma1_zero/2``
    replaces the pure dephasing rate in the resonant efficiency.
    """
    if np.any(np.asarray(n_th) < 0):
        raise ValueError("n_th must be >= 0")
    return resonant_efficiency(gamma_a, gamma_b, tc.coherence_rate(n_th))


def photons_in_pulse(amplitude, impedance, duration, omega):
    """Mean photon number in a rectangular pulse.

    Pulse power ``A^2 / (2 Z)`` times duration, divided by the photon
    energy ``hbar omega``.
    """
    a = np.asarray(amplitude, dtype=float)
    if np.any(a < 0) or impedance <= 0 or duration <= 0 or np.any(np.asarray(omega) <= 0):
        raise ValueError("photons_in_pulse requires nonnegative amplitude and positive Z, duration, omega")
    return (a**2 / (2.0 * impedance)) * duration / (hbar * np.asarray(omega, dtype=float))


def saturation_curve(n_avg, s: SaturationParams):
    """Transmission magnitude versus mean photon number, ``a - b/(1 + n^c/d)``."""
    n = np.asarray(n_avg, dtype=float)
    if np.any(n < 0):
        raise ValueError("n_avg must be >= 0")
    return s.a - s.b / (1.0 + n**s.c / s.d)


def dressed_lines(omega_drive, n_photons, m: DressedModel) -> DressedLines:
    """Red/blue shifted transition lines under a strong dressing field.

    The drive splits each transition by ``sqrt((omega - omega_ge)^2 +
    4 lambda^2 N)``; red lines shift down by half the splitting evaluated
    with ``lambda_red`` and blue lines up by half the splitting with
    ``lambda_blue``, for both the ge and ef manifolds.
    """
    n = np.asarray(n_photons, dtype=float)
    if np.any(n < 0):
        raise ValueError("n_photons must be >= 0")
    det2 = (np.asarray(omega_drive, dtype=float) - m.omega_ge) ** 2
    half_red = 0.5 * np.sqrt(det2 + 4.0 * m.lambda_red**2 * n)
    half_blue = 0.5 * np.sqrt(det2 + 4.0 * m.lambda_blue**2 * n)
    return DressedLines(
        ge_red=m.omega_ge - half_red,
        ge_blue=m.omega_ge + half_blue,
        ef_red=m.omega_ef - half_red,
        ef_blue=m.omega_ef + half_blue,
    )
