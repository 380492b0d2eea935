"""Large-scale path loss with shadowing, receiver noise, and near-field Rician
channel realization.

Base-station links carry exact spherical-wave phases per element, so near-field
geometry inside the Fraunhofer distance is handled without approximation.
Hybrid-node links are quasi-static; eavesdropper links redraw their scattered
component every slot. All randomness flows through counter-based substreams
keyed on (seed, purpose, entity, slot), which makes every realization a pure
function of the scenario configuration and seed.
"""

from dataclasses import dataclass

import numpy as np


# substream purpose codes (spawn keys must be stable across runs)
STREAM_PLACEMENT = 1
STREAM_SHADOW = 2
STREAM_HN_NLOS = 3
STREAM_EVE_NLOS = 4
STREAM_FADE = 5
STREAM_MEASUREMENT = 6
STREAM_WAYPOINT = 7
STREAM_PAIR_SHADOW = 8
STREAM_CSI_ERROR = 9

C_LIGHT = 299792458.0


SEED_POOL_WORDS = 4   # np.random.SeedSequence's default pool size


def _words(value: int) -> list:
    """The little-endian 32-bit words of a nonnegative integer, as
    np.random.SeedSequence splits it (zero is one zero word)."""
    if value < 0:
        raise ValueError(f"seed and keys must be nonnegative, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, *keys): the generator
    np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))
    gives, state for state.

    It is seeded from the entropy words that SeedSequence assembles from the
    seed and the spawn key itself: the seed's words, zero-padded to the pool
    size, then each key's words. Handing it the words skips its per-call
    coercion of the seed and the key. So bit_generator.seed_seq holds the
    words rather than (entropy, spawn_key), and spawning from it would not
    give the spawn-key children; nothing in the package reads it or spawns.
    """
    words = _words(seed)
    words += [0] * (SEED_POOL_WORDS - len(words))
    for key in keys:
        words += _words(key)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: reference loss at 1 m, exponent, shadowing std (dB)."""

    pl_1m_db: float
    exponent: float
    shadow_sigma_db: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.exponent}")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow_sigma_db must be >= 0")

    @classmethod
    def friis_reference(cls, carrier_hz: float, exponent: float,
                        shadow_sigma_db: float) -> "PathLossModel":
        """Anchor the 1 m reference loss at free-space Friis for the carrier."""
        lam = C_LIGHT / carrier_hz
        pl_1m = 20.0 * np.log10(4.0 * np.pi / lam)
        return cls(pl_1m, exponent, shadow_sigma_db)


def noise_power(psd_dbm_per_hz: float, bandwidth_hz: float,
                noise_figure_db: float) -> float:
    """Front-end noise power in watts: 10^((N0 + 10 log10 BW + NF - 30) / 10)."""
    db = psd_dbm_per_hz + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** ((db - 30.0) / 10.0))


def path_loss_db(model: PathLossModel, distance, shadow_draw):
    """PL_1m + 10 n log10(d) + sigma_sh * shadow_draw, distances clamped to >= 1 m.

    Distances and shadow draws may be scalars or arrays (broadcast together);
    a scalar call returns a numpy scalar.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError(f"distance must be > 0, got {distance}")
    return (model.pl_1m_db + 10.0 * model.exponent * np.log10(np.maximum(d, 1.0))
            + model.shadow_sigma_db * np.asarray(shadow_draw))[()]


def linear_gain(pl_db):
    """Large-scale amplitude gain 10^(-PL/20), elementwise over arrays."""
    return (10.0 ** (-np.asarray(pl_db) / 20.0))[()]


def los_channel(bs_positions: np.ndarray, node_pos, gain, wavelength: float) -> np.ndarray:
    """Spherical-wave LOS channel: entry n = g * exp(-j 2 pi d_n / lambda) / sqrt(N).

    Node positions (..., 3) with gains (...) give channels (..., N); each
    channel of a stack equals its own single-node call.
    """
    deltas = bs_positions - np.asarray(node_pos, dtype=float)[..., None, :]
    dists = np.linalg.norm(deltas, axis=-1)
    if np.any(dists < 1e-9):
        raise ValueError("node position coincides with an array element")
    n = bs_positions.shape[0]
    return np.asarray(gain)[..., None] * np.exp(-2j * np.pi * dists / wavelength) / np.sqrt(n)


def rician_channel(k_factor: float, los: np.ndarray, rngs) -> np.ndarray:
    """Rician mix sqrt(K/(K+1)) LOS + sqrt(1/(K+1)) NLOS, K linear, of each
    row of the LOS stack (M, N), row m scattered by the generator rngs[m].

    The scattered part is i.i.d. complex Gaussian with per-entry variance
    g^2/N, g being the row's LOS large-scale amplitude, so K only sets the
    power split and E||h||^2 stays independent of K. Each row draws its N
    real normals, then its N imaginary ones, from its own generator, so a
    row is the channel a one-row stack with its generator gets.
    """
    if k_factor < 0:
        raise ValueError("k_factor must be >= 0")
    m, n = los.shape
    if len(rngs) != m:
        raise ValueError(f"{len(rngs)} generators for {m} LOS rows")
    scale = np.sqrt(np.einsum("mn,mn->m", los.conj(), los).real) / np.sqrt(2.0 * n)
    re, im = np.empty((m, n)), np.empty((m, n))
    for rng, re_row, im_row in zip(rngs, re, im):
        rng.standard_normal(out=re_row)
        rng.standard_normal(out=im_row)
    nlos = scale[:, None] * (re + 1j * im)
    return np.sqrt(k_factor / (k_factor + 1.0)) * los \
        + np.sqrt(1.0 / (k_factor + 1.0)) * nlos


def eve_channel(k_factor: float, los: np.ndarray, slot: int, seed: int) -> np.ndarray:
    """The eavesdropper links (E, N) at a given slot from their LOS stack
    (E, N): the LOS part is fixed, and eavesdropper j's scattered part is
    redrawn every slot from its own (STREAM_EVE_NLOS, j, slot) substream."""
    return rician_channel(k_factor, los, [substream(seed, STREAM_EVE_NLOS, j, slot)
                                          for j in range(los.shape[0])])
