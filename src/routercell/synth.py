"""Seeded generators for synthetic measurement campaigns.

These generators are the round-trip oracle for the calibration and
estimation pipelines: they push known cell parameters through imperfect
line models and additive noise, producing measured/high-drive spectrum
pairs and time-domain IQ clouds whose ground truth is always returned
alongside the data.

Determinism: identical (config, seed) produce bit-identical outputs.
Independent sweep points may be generated in parallel using per-point
seeds from :func:`derive_seed`, which mixes the campaign seed with any
number of integer or string keys through ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .calibration import ChannelSpectrum
from .model import CHANNELS, CellParams, cell_coefficients
from .network import LineModel, simplified_forward

__all__ = [
    "LineSpec",
    "CampaignConfig",
    "SynthSpectrum",
    "derive_seed",
    "gen_lines",
    "gen_spectrum",
    "gen_iq_shots",
    "hd_cell_coefficients",
]


def derive_seed(seed: int, *keys) -> int:
    """Stable child seed from a campaign seed and mixing keys.

    Strings are folded through CRC32 so the mixing is reproducible across
    processes; the combined entropy feeds a ``SeedSequence``.
    """
    entropy = [int(seed)]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode()))
        else:
            entropy.append(int(key))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class LineSpec:
    """Statistical description of the measurement lines to generate.

    ``transmission_db`` is the through level of each two-port;
    ``jitter_db`` splits the through product of waveguide A up and B down
    by half each, reproducing a background-level asymmetry between the
    through channels.  Reflections are drawn uniformly up to
    ``reflection_bound`` with random phases, and ``ripple_db`` adds a
    smooth sinusoidal level variation across the frequency span.
    """

    transmission_db: float = -3.0
    jitter_db: float = 0.0
    reflection_bound: float = 0.05
    isolation_db: float = -20.0
    ripple_db: float = 0.0
    ripple_periods: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.reflection_bound <= 0.2:
            raise ValueError("reflection_bound must lie in [0, 0.2]")
        if self.isolation_db > -10.0:
            raise ValueError("isolation must be -10 dB or below")
        if self.ripple_db < 0:
            raise ValueError("ripple_db must be >= 0")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to synthesize one spectroscopy campaign."""

    cell: CellParams
    lines: LineSpec
    freqs: np.ndarray
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.ndim != 1 or freqs.size < 2 or np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be a strictly increasing 1-D grid")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        object.__setattr__(self, "freqs", freqs)


@dataclass(frozen=True)
class SynthSpectrum:
    """Generated measured/high-drive pair with its ground truth."""

    meas: ChannelSpectrum
    hd: ChannelSpectrum
    truth: CellParams
    lines: LineModel


def _random_two_port(rng: np.random.Generator, trans_db: float,
                     reflection_bound: float) -> np.ndarray:
    t_mag = 10.0 ** (trans_db / 20.0)
    phases = rng.uniform(-np.pi, np.pi, size=4)
    r_mags = rng.uniform(0.0, reflection_bound, size=2)
    m = np.array(
        [
            [r_mags[0] * np.exp(1j * phases[0]), t_mag * np.exp(1j * phases[1])],
            [t_mag * np.exp(1j * phases[2]), r_mags[1] * np.exp(1j * phases[3])],
        ]
    )
    top = np.linalg.norm(m, 2)
    if top > 1.0:
        m = m / (top * (1.0 + 1e-12))
    return m


def gen_lines(spec: LineSpec, seed: int, freqs=None) -> LineModel:
    """Random passive measurement lines, deterministic for a fixed seed.

    With ``freqs`` given and ``ripple_db > 0``, the through transmissions
    acquire a smooth per-frequency level ripple and the line matrices have
    shape (n, 2, 2); otherwise they are frequency independent.
    """
    rng = np.random.default_rng(derive_seed(seed, "lines"))
    quarter = spec.jitter_db / 4.0
    levels = {
        "s_in_a": spec.transmission_db + quarter,
        "s_out_a": spec.transmission_db + quarter,
        "s_in_b": spec.transmission_db - quarter,
        "s_out_b": spec.transmission_db - quarter,
    }
    matrices = {
        name: _random_two_port(rng, db, spec.reflection_bound)
        for name, db in levels.items()
    }
    iso = 10.0 ** (spec.isolation_db / 20.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))

    if freqs is not None and spec.ripple_db > 0.0:
        f = np.asarray(freqs, dtype=float)
        phase = (f - f[0]) / (f[-1] - f[0]) * 2.0 * np.pi * spec.ripple_periods
        rippled = {}
        for name, m in matrices.items():
            offset = rng.uniform(-np.pi, np.pi)
            level = 10.0 ** (spec.ripple_db * np.sin(phase + offset) / 20.0)
            stack = np.repeat(m[None, :, :], f.size, axis=0)
            stack[:, 1, 0] *= level
            stack[:, 0, 1] *= level
            rippled[name] = stack
        matrices = rippled
    return LineModel(isolation=complex(iso), **matrices)


def hd_cell_coefficients(n_points: int | None = None) -> np.ndarray:
    """Cell coefficients with the emitter saturated out of the picture.

    High drive decouples the emitter: through transmission is unity and
    the emitter-mediated cross transfer vanishes.  Shape ``(4,)`` or
    ``(4, n_points)`` in :data:`~routercell.model.CHANNELS` order.
    """
    shape = () if n_points is None else (n_points,)
    coeffs = np.zeros((len(CHANNELS),) + shape, dtype=complex)
    coeffs[:2] = 1.0  # the through rows AA, BB
    return coeffs


def _add_noise(traces: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma == 0.0:
        return traces
    # per channel: all real parts, then all imaginary parts
    draws = rng.standard_normal((traces.shape[0], 2) + traces.shape[1:])
    noise = draws[:, 0] + 1j * draws[:, 1]
    return traces + sigma * noise / np.sqrt(2.0)


def gen_spectrum(config: CampaignConfig) -> SynthSpectrum:
    """Synthesize a measured/high-drive spectrum pair.

    The measured traces push the true cell coefficients through the line
    model; the high-drive reference pushes the saturated (decoupled)
    coefficients through the same lines.  Additive circular complex
    Gaussian noise of standard deviation ``noise_sigma`` (total complex
    power) lands on both, from independent substreams of the campaign
    seed.
    """
    freqs = config.freqs
    lines = gen_lines(config.lines, config.seed, freqs=freqs)
    omega = 2.0 * np.pi * freqs
    coeffs = cell_coefficients(omega, config.cell)
    meas_clean = simplified_forward(coeffs, lines)
    hd_clean = simplified_forward(hd_cell_coefficients(freqs.size), lines)

    rng_meas = np.random.default_rng(derive_seed(config.seed, "noise", "meas"))
    rng_hd = np.random.default_rng(derive_seed(config.seed, "noise", "hd"))
    meas = ChannelSpectrum(freqs, _add_noise(meas_clean, config.noise_sigma, rng_meas))
    hd = ChannelSpectrum(freqs, _add_noise(hd_clean, config.noise_sigma, rng_hd))
    return SynthSpectrum(meas=meas, hd=hd, truth=config.cell, lines=lines)


def gen_iq_shots(settings, p_truth, z_g: complex, z_e: complex, sigma: float,
                 seed: int, n_shots: int = 400, channel: str = "through",
                 dc_offset: complex = 0.0) -> dict[float, np.ndarray]:
    """Heterodyne IQ clouds for a list of drive settings.

    Each setting's cloud is centered on the population mixture
    ``p z_e + (1 - p) z_g`` plus a residual local-oscillator DC offset.
    The offset leaks through the full line in "through" detection but is
    suppressed by the waveguide isolation in "cross" detection, an order
    of magnitude smaller.  ``sigma`` is the per-quadrature noise standard
    deviation.

    Returns a mapping setting -> complex shot array, suitable for
    :func:`routercell.estimation.pca_populations`.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if channel not in ("through", "cross"):
        raise ValueError("channel must be 'through' or 'cross'")
    settings = list(settings)
    p_truth = np.asarray(p_truth, dtype=float)
    if p_truth.size != len(settings):
        raise ValueError("p_truth must match the settings list")
    offset = dc_offset if channel == "through" else dc_offset / 10.0
    clouds: dict[float, np.ndarray] = {}
    for i, (setting, p) in enumerate(zip(settings, p_truth)):
        rng = np.random.default_rng(derive_seed(seed, "iq", i))
        mean = p * z_e + (1.0 - p) * z_g + offset
        noise = rng.standard_normal(n_shots) + 1j * rng.standard_normal(n_shots)
        clouds[float(setting)] = mean + sigma * noise
    return clouds
