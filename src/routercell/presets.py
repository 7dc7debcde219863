"""Reference parameter sets for a characterized basic-cell device.

Two coupling-rate variants exist for the same device, extracted by the
steady-state four-channel fit and by the thermal-sweep analysis; they
agree to within their uncertainties.  The demos and the benchmark use
these sets; the CLI defaults in ``io.CONFIG_SCHEMA`` repeat the
steady-state numbers by hand, but with both coupling phases 0.
"""

from __future__ import annotations

import math

from .model import CellParams, DressedModel, FluxModel, ThermalCoefficients

TWO_PI = 2.0 * math.pi

#: Steady-state characterization.
STEADY_STATE_CELL = CellParams(
    gamma_a=TWO_PI * 1.82e6,
    gamma_b=TWO_PI * 2.31e6,
    omega_ge=TWO_PI * 6.163e9,
    omega_ef=TWO_PI * 6.015e9,
    phi_a=-0.06 * math.pi,
    phi_b=0.05 * math.pi,
)

#: Coupling rates as refitted during the thermal sweep analysis.
THERMAL_SWEEP_CELL = CellParams(
    gamma_a=TWO_PI * 1.81e6,
    gamma_b=TWO_PI * 2.32e6,
    omega_ge=TWO_PI * 6.163e9,
    omega_ef=TWO_PI * 6.015e9,
)

#: Transition-frequency tuning around the upper sweet spot.
REFERENCE_FLUX = FluxModel(
    curvature=-TWO_PI * 352e6,     # rad/s per mA^2
    sweet_spot_omega=TWO_PI * 6.163e9,
)

#: Per-photon thermal heating of relaxation and dephasing.
REFERENCE_THERMAL = ThermalCoefficients(
    gamma1_zero=TWO_PI * 0.26e6,
    gamma_phi_zero_per_photon=TWO_PI * 10.38e6,
)

#: Dressing-field couplings for the red/blue shifted transition lines.
REFERENCE_DRESSED = DressedModel(
    lambda_red=TWO_PI * 0.81e6,
    lambda_blue=TWO_PI * 0.39e6,
    omega_ge=TWO_PI * 6.163e9,
    omega_ef=TWO_PI * 6.015e9,
)

#: Bias-current noise density and residual dephasing at the sweet spot.
REFERENCE_CURRENT_NOISE_A2_PER_HZ = 3e-19
REFERENCE_GAMMA_PHI0 = TWO_PI * 0.2e6
