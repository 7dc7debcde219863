"""Config sections as model objects, and the reference device they describe.

The ``*_from_config`` functions are the one place that turns the linear-Hz
sections of a loaded configuration into the model's rad/s objects.  The
reference constants are those functions applied to the defaults in
:data:`routercell.runs.CONFIG_SCHEMA`, so each device number is written
once.  The steady-state fit adds coupling phases, which the defaults set
to 0; the thermal-sweep analysis refitted the couplings, which agree with
the steady-state ones to within their uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .model import CellParams, DressedModel, FluxModel, ThermalCoefficients
from .runs import CONFIG_SCHEMA

TWO_PI = 2.0 * math.pi


def cell_params_from_config(config: dict[str, dict]) -> CellParams:
    """Cell parameters from the ``[model]`` section."""
    m = config["model"]
    return CellParams(
        gamma_a=TWO_PI * m["gamma_a_hz"],
        gamma_b=TWO_PI * m["gamma_b_hz"],
        omega_ge=TWO_PI * m["f_ge_hz"],
        omega_ef=TWO_PI * m["f_ef_hz"],
        phi_a=m["phi_a_rad"],
        phi_b=m["phi_b_rad"],
        gamma_phi=TWO_PI * m["gamma_phi_hz"],
        gamma_bath=TWO_PI * m["gamma_bath_hz"],
    )


def flux_model_from_config(config: dict[str, dict]) -> FluxModel:
    """Transition-frequency tuning from the ``[flux]`` section."""
    fx = config["flux"]
    return FluxModel(
        curvature=TWO_PI * fx["curvature_hz_per_ma2"],
        linear=TWO_PI * fx["linear_hz_per_ma"],
        sweet_spot_omega=TWO_PI * fx["sweet_spot_f_hz"],
    )


def flux_noise_from_config(config: dict[str, dict]) -> tuple[float, float]:
    """Bias-current noise density (A^2/Hz) and sweet-spot dephasing (rad/s) from ``[fluxnoise]``."""
    fn = config["fluxnoise"]
    return fn["s_i_a2_per_hz"], TWO_PI * fn["gamma_phi0_hz"]


def thermal_coefficients_from_config(config: dict[str, dict]) -> ThermalCoefficients:
    """Per-photon thermal heating rates from the ``[thermal]`` section."""
    th = config["thermal"]
    return ThermalCoefficients(
        gamma1_zero=TWO_PI * th["gamma1_zero_hz"],
        gamma_phi_zero_per_photon=TWO_PI * th["gamma_phi_zero_hz"],
    )


def dressed_model_from_config(config: dict[str, dict]) -> DressedModel:
    """Dressing-field couplings from ``[dressed]``, transitions from ``[model]``."""
    dr, m = config["dressed"], config["model"]
    return DressedModel(
        lambda_red=TWO_PI * dr["lambda_red_hz"],
        lambda_blue=TWO_PI * dr["lambda_blue_hz"],
        omega_ge=TWO_PI * m["f_ge_hz"],
        omega_ef=TWO_PI * m["f_ef_hz"],
    )


#: Steady-state characterization, with its fitted coupling phases.
STEADY_STATE_CELL = replace(cell_params_from_config(CONFIG_SCHEMA),
                            phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi)

#: Coupling rates as refitted during the thermal sweep analysis.
THERMAL_SWEEP_CELL = replace(cell_params_from_config(CONFIG_SCHEMA),
                             gamma_a=TWO_PI * 1.81e6, gamma_b=TWO_PI * 2.32e6)

#: Transition-frequency tuning around the upper sweet spot.
REFERENCE_FLUX = flux_model_from_config(CONFIG_SCHEMA)

#: Per-photon thermal heating of relaxation and dephasing.
REFERENCE_THERMAL = thermal_coefficients_from_config(CONFIG_SCHEMA)

#: Dressing-field couplings for the red/blue shifted transition lines.
REFERENCE_DRESSED = dressed_model_from_config(CONFIG_SCHEMA)

#: Bias-current noise density and residual dephasing at the sweet spot.
REFERENCE_CURRENT_NOISE_A2_PER_HZ, REFERENCE_GAMMA_PHI0 = flux_noise_from_config(CONFIG_SCHEMA)
