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

The lines come from the stream ``derive_seed(seed, "lines")``, drawn in
this order: for each line in port order (A-in, A-out, B-in, B-out) four
phases and then two reflection magnitudes; then the isolation phase;
then, for rippled lines, one ripple offset per line in the same order.
A line with through level ``t`` and reflections ``r`` has spectral norm
at most ``t + max r``, so it is passive as drawn when that sum is at
most 1; only when ``t + max r > 1`` (less a margin for rounding) does an
SVD find the norm and scale an active line below 1.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .calibration import ChannelSpectrum, _grid
from .model import CHANNELS, CellParams, _check_finite, cell_coefficients
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
    processes; the seed and the other keys must be non-negative integers, or
    ``ValueError`` names the first that is not.  The entropy feeds a ``SeedSequence``.
    """
    entropy = [seed] + [zlib.crc32(key.encode()) if isinstance(key, str) else key for key in keys]
    bad = [v for v in entropy if not isinstance(v, (int, np.integer)) or v < 0]
    if bad:  # int() would give a seed of 1.5 the stream of seed 1
        raise ValueError(f"seed and keys must be non-negative integers, got {bad[0]!r}")
    return int(np.random.SeedSequence([int(v) for v in entropy]).generate_state(1)[0])


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
        for name in ("transmission_db", "jitter_db", "reflection_bound", "isolation_db",
                     "ripple_db", "ripple_periods"):
            _check_finite(name, getattr(self, name))
        if not 0.0 <= self.reflection_bound <= 0.2:
            raise ValueError("reflection_bound must lie in [0, 0.2]")
        if self.isolation_db > -10.0:
            raise ValueError("isolation must be -10 dB or below")
        if self.ripple_db < 0:
            raise ValueError("ripple_db must be >= 0")


@dataclass(frozen=True, eq=False)
class CampaignConfig:
    """Everything needed to synthesize one spectroscopy campaign.

    ``freqs`` (Hz) is held as a read-only copy of a finite, strictly
    increasing grid of 2 or more points, as the line ripple needs a span.
    """

    cell: CellParams
    lines: LineSpec
    freqs: np.ndarray
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        freqs = _grid(self.freqs, 2)
        _check_finite("noise_sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        object.__setattr__(self, "freqs", freqs)


@dataclass(frozen=True, eq=False)
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
    m = (np.array([r_mags[0], t_mag, t_mag, r_mags[1]]) * np.exp(1j * phases)).reshape(2, 2)
    # t + max r is sqrt(|m|_1 |m|_inf) >= |m|_2: below 1 by more than the few
    # ulps a computed norm can exceed the true one by (a lossless matched line's
    # computes above 1 for one phase draw in ten), it proves no scaling is needed
    if t_mag + r_mags.max() > 1.0 - 1e-12:
        top = np.linalg.norm(m, 2)
        if top > 1.0:
            m = m / (top * (1.0 + 1e-12))
    return m


def gen_lines(spec: LineSpec, seed: int, freqs=None) -> LineModel:
    """Random passive measurement lines, deterministic for a fixed seed.

    With ``freqs`` given and ``ripple_db > 0``, the through transmissions
    acquire a smooth per-frequency level ripple and the stack of line
    matrices has shape (4, n, 2, 2); otherwise it is (4, 2, 2), frequency
    independent.  A given ``freqs`` must be a grid as in :class:`CampaignConfig`,
    checked before any draw.  The draw order is the module docstring's.
    """
    f = None if freqs is None else _grid(freqs, 2)
    rng = np.random.default_rng(derive_seed(seed, "lines"))
    quarter = spec.jitter_db / 4.0
    # A-in, A-out, B-in, B-out
    levels = (spec.transmission_db + quarter,) * 2 + (spec.transmission_db - quarter,) * 2
    matrices = np.array([_random_two_port(rng, db, spec.reflection_bound) for db in levels])
    iso = 10.0 ** (spec.isolation_db / 20.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))

    if f is not None and spec.ripple_db > 0.0:
        phase = (f - f[0]) / (f[-1] - f[0]) * 2.0 * np.pi * spec.ripple_periods
        offsets = rng.uniform(-np.pi, np.pi, size=len(levels))
        level = 10.0 ** (spec.ripple_db * np.sin(phase + offsets[:, None]) / 20.0)
        matrices = np.repeat(matrices[:, None], f.size, axis=1)
        matrices[..., 1, 0] *= level
        matrices[..., 0, 1] *= level
    return LineModel(matrices, isolation=complex(iso))


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


#: Shots in each IQ cloud of :func:`gen_iq_shots`.
IQ_SHOTS = 400


def gen_iq_shots(settings, p_truth, z_g: complex, z_e: complex, sigma: float,
                 seed: int, dc_offset: complex = 0.0) -> dict[float, np.ndarray]:
    """Heterodyne IQ clouds of :data:`IQ_SHOTS` shots for a list of drive settings.

    Each setting's cloud is centered on the population mixture
    ``p z_e + (1 - p) z_g`` plus a residual local-oscillator DC offset.
    ``sigma`` is the per-quadrature noise standard deviation.  The
    settings must be distinct and each population in ``[0, 1]``, or
    ``ValueError`` is raised.

    Returns a mapping setting -> complex shot array, suitable for
    :func:`routercell.estimation.pca_populations`.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    settings = [float(s) for s in settings]
    p_truth = np.asarray(p_truth, dtype=float)
    if p_truth.size != len(settings):
        raise ValueError("p_truth must match the settings list")
    if len(set(settings)) != len(settings):
        raise ValueError("settings must be distinct; a repeated one would overwrite a cloud")
    bad = np.flatnonzero(~((p_truth >= 0.0) & (p_truth <= 1.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"p_truth must lie in [0, 1]; population {i} is {p_truth.flat[i]}")
    clouds: dict[float, np.ndarray] = {}
    for i, (setting, p) in enumerate(zip(settings, p_truth)):
        rng = np.random.default_rng(derive_seed(seed, "iq", i))
        mean = p * z_e + (1.0 - p) * z_g + dc_offset
        noise = rng.standard_normal(IQ_SHOTS) + 1j * rng.standard_normal(IQ_SHOTS)
        clouds[setting] = mean + sigma * noise
    return clouds
