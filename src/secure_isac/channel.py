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


# The constants of np.random.SeedSequence's hash (NEP 19) and of PCG64's
# 128-bit LCG (O'Neill, "PCG", 2014), which substream_normals replicates.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def substream_normals(seed: int, keys, count: int) -> np.ndarray:
    """Standard normals (M, count) whose row m is byte for byte
    substream(seed, *keys[m]).standard_normal(count), keys being (M, L)
    32-bit keys.

    SeedSequence's entropy mixing and generate_state(4, uint64) run once
    over all M rows as uint32 array arithmetic: the hash constants advance
    the same way for every row, so each step is one array operation. Then
    one PCG64 takes each row's four state words as its seed and increment
    by PCG64's set-seq seeding, in Python ints, before that row's draws.
    A seed of any size is allowed; a key outside [0, 2**32) raises
    ValueError, since it would give its row more entropy words than the rest.
    """
    words = _words(seed)
    words += [0] * (SEED_POOL_WORDS - len(words))
    keys = np.asarray(keys)
    rows = len(keys)
    out_of_range = (keys < 0) | (keys > _MASK32)
    if out_of_range.any():
        raise ValueError(f"substream_normals keys must be in [0, 2**32), "
                         f"got {keys[out_of_range][0]}")
    entropy = [np.full(rows, word, dtype=np.uint32) for word in words]
    entropy += list(keys.astype(np.uint32).T)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    mixer = [hashmix(word) for word in entropy[:SEED_POOL_WORDS]]
    for src in range(SEED_POOL_WORDS):
        for dst in range(SEED_POOL_WORDS):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for word in entropy[SEED_POOL_WORDS:]:
        for dst in range(SEED_POOL_WORDS):
            mixer[dst] = mix(mixer[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * SEED_POOL_WORDS):
        value = mixer[i % SEED_POOL_WORDS] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # the eight words pair up little-endian into four uint64 words, which
    # PCG64 reads as its seed (high, low) and its increment (high, low)
    state64 = np.stack([lo | (hi << 32)
                        for lo, hi in zip(state[0::2], state[1::2])], axis=1)

    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    out = np.empty((rows, count))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, state64.tolist()):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        start = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": start, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    return out


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
