"""Config sections as model objects: the reference presets are the config defaults, and
every key of the five device sections has a reader in ``presets`` alone."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from routercell import model, presets, runs

TWO_PI = 2.0 * math.pi

#: The reference device, each number written out by hand as the presets once held it.
PINNED = {
    "STEADY_STATE_CELL": model.CellParams(
        gamma_a=TWO_PI * 1.82e6, gamma_b=TWO_PI * 2.31e6, omega_ge=TWO_PI * 6.163e9,
        omega_ef=TWO_PI * 6.015e9, phi_a=-0.06 * math.pi, phi_b=0.05 * math.pi),
    "THERMAL_SWEEP_CELL": model.CellParams(
        gamma_a=TWO_PI * 1.81e6, gamma_b=TWO_PI * 2.32e6, omega_ge=TWO_PI * 6.163e9,
        omega_ef=TWO_PI * 6.015e9),
    "REFERENCE_FLUX": model.FluxModel(curvature=-TWO_PI * 352e6,
                                      sweet_spot_omega=TWO_PI * 6.163e9),
    "REFERENCE_THERMAL": model.ThermalCoefficients(
        gamma1_zero=TWO_PI * 0.26e6, gamma_phi_zero_per_photon=TWO_PI * 10.38e6),
    "REFERENCE_DRESSED": model.DressedModel(
        lambda_red=TWO_PI * 0.81e6, lambda_blue=TWO_PI * 0.39e6,
        omega_ge=TWO_PI * 6.163e9, omega_ef=TWO_PI * 6.015e9),
    "REFERENCE_CURRENT_NOISE_A2_PER_HZ": 3e-19,
    "REFERENCE_GAMMA_PHI0": TWO_PI * 0.2e6,
}

READERS = {
    "model": presets.cell_params_from_config,
    "flux": presets.flux_model_from_config,
    "fluxnoise": presets.flux_noise_from_config,
    "thermal": presets.thermal_coefficients_from_config,
    "dressed": presets.dressed_model_from_config,
}


@pytest.mark.parametrize("name", PINNED)
def test_constant_is_pinned_bit_for_bit(name):
    value, pinned = getattr(presets, name), PINNED[name]
    if dataclasses.is_dataclass(pinned):
        value, pinned = dataclasses.astuple(value), dataclasses.astuple(pinned)
    # repr tells every float64 apart, -0.0 from 0.0 too, and names a numpy scalar's type
    assert repr(value) == repr(pinned)


@pytest.mark.parametrize("section, key", [(s, k) for s in READERS for k in runs.CONFIG_SCHEMA[s]])
def test_every_key_is_read(section, key):
    config = runs.load_config(None)
    before = READERS[section](config)
    value = config[section][key]
    config[section][key] = 0.5 * value if value else 0.1
    assert READERS[section](config) != before


def test_only_presets_reads_the_device_sections():
    package = Path(presets.__file__).parent
    section = re.compile(r"""\[["'](?:%s)["']\]""" % "|".join(READERS))
    assert [p.name for p in sorted(package.glob("*.py")) if section.search(p.read_text())] \
        == ["presets.py"]
