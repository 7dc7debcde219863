"""Modeling, calibration and parameter estimation for a two-waveguide
microwave router basic cell.

The cell is a single two-level emitter coupled to two open waveguides.
This package forward-simulates its four scattering channels, de-embeds
measurement-line effects through multiport S-matrix algebra, calibrates
raw spectra against high-drive references, and fits the physical rates
(couplings, dephasing, thermal, saturation) from measured or synthetic
traces.
"""

from .model import (
    CHANNELS,
    CellParams,
    DressedModel,
    FluxModel,
    SaturationParams,
    ThermalCoefficients,
    cell_coefficients,
    cell_smatrix,
    dressed_lines,
    efficiency,
    efficiency_thermal,
    n_thermal,
    omega_ge_of_bias,
    photons_in_pulse,
    resonant_efficiency,
    saturation_curve,
    t_cross,
    t_through,
)
from .network import (
    CompositionResult,
    LineModel,
    PortMatrix,
    complementary_blocks,
    compose_exact,
    compose_neumann,
    ideal_lines,
    isolation_from_hd,
    simplified_forward,
)
from .calibration import (
    ChannelSpectrum,
    CircleFitResult,
    LossBudget,
    calibrate_responses,
    circle_fit,
    loss_budget,
    remove_global_phase,
    unwrap_halved_phase,
)
from .estimation import (
    FitReport,
    PopulationTrace,
    RateBudget,
    coupling_limited_t1,
    efficiency_trace,
    fit_E_polynomial,
    fit_T1,
    fit_flux_noise,
    fit_four_channel,
    fit_rabi_decay,
    fit_saturation,
    fit_thermal,
    gamma_phi_from_E,
    initial_guess_from_spectrum,
    pca_populations,
    rate_budget,
)
from .synth import CampaignConfig, LineSpec, derive_seed, gen_iq_shots, gen_lines, gen_spectrum
from .io import TOOL_VERSION as __version__, ingest_spectrum, write_spectrum
