"""Bearing posteriors on a discrete angular grid, one row per eavesdropper.

The filter alternates Gaussian-kernel prediction (mobility blur, reflected at
the grid edges) with a pseudo-likelihood update from angular sensing scans.
Shannon entropy of the posterior is the uncertainty signal consumed by the
controller; the kernel bandwidth itself adapts to the entropy error.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class BeliefState:
    """Probability vector over bearing angles (degrees) for one eavesdropper."""

    grid_deg: np.ndarray
    probs: np.ndarray
    eve_id: int = 0

    @property
    def argmax_deg(self) -> float:
        return float(self.grid_deg[int(np.argmax(self.probs))])


def default_grid(size: int) -> np.ndarray:
    return np.linspace(-90.0, 90.0, size)


def uniform_prior(grid_size: int) -> BeliefState:
    """Maximum-entropy prior over the bearing grid."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    grid = default_grid(grid_size)
    return BeliefState(grid, np.full(grid_size, 1.0 / grid_size))


@lru_cache(maxsize=64)
def _reflect_index(size: int, half: int) -> np.ndarray:
    """Read-only indices that pad a length-`size` vector by `half` entries on
    each side the way np.pad(..., mode="reflect") does, reflecting more than
    once when half >= size."""
    index = np.pad(np.arange(size), half, mode="reflect")
    index.flags.writeable = False
    return index


def predict(posterior: np.ndarray, grid_deg: np.ndarray, sigma_deg: float) -> np.ndarray:
    """Blur each row of the posterior (E, G) over the bearing grid (G,) with a
    Gaussian kernel of bandwidth sigma_deg.

    Mass leaving the grid is reflected back at the boundaries, then each row
    is renormalized. Every row is convolved on its own, so each row is the
    blur a one-row posterior would get.
    """
    if sigma_deg <= 0:
        raise ValueError("sigma_deg must be > 0")
    step = float(grid_deg[1] - grid_deg[0])
    half = int(np.ceil(4.0 * sigma_deg / step))
    probs = posterior
    if half >= 1:
        offsets = np.arange(-half, half + 1) * step
        kernel = np.exp(-0.5 * (offsets / sigma_deg) ** 2)
        kernel /= kernel.sum()
        padded = posterior[:, _reflect_index(posterior.shape[1], half)]
        probs = np.empty_like(posterior)
        for row, padded_row in zip(probs, padded):
            row[:] = np.convolve(padded_row, kernel, mode="valid")
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def entropy(posterior: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of the posterior (E, G), with
    0 log 0 = 0: a nonpositive entry takes log2(1) and adds a zero term."""
    return -np.sum(posterior * np.log2(np.where(posterior > 0, posterior, 1.0)), axis=-1)


def synthesize_measurement(true_bearings_deg, gamma: float,
                           noise_sigma_deg: float, rngs, grid_deg: np.ndarray,
                           bs_power_w: float, bump_width_deg: float,
                           floor_scale: float) -> np.ndarray:
    """Nonnegative angular scans (E, G), one row per emitter: a blurred
    return of the emitter at true_bearings_deg[j] plus a noise floor, drawn
    from the generator rngs[j].

    Each return is a Gaussian lobe centered on the true bearing perturbed by
    the measurement noise, with amplitude proportional to the sensing power
    (the scanning beam has unit response at every bearing). gamma = 0 leaves
    only the floor. Each row draws its exponential floor (none when the
    floor is zero) and then its bearing noise (none when gamma is 0) from
    its own generator, so a row is the scan a one-emitter call gets.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if len(rngs) != len(true_bearings_deg):
        raise ValueError(f"{len(rngs)} generators for {len(true_bearings_deg)} emitters")
    size = grid_deg.shape[0]
    floor_mean = floor_scale * bs_power_w
    z = np.zeros((len(rngs), size))
    centers = []
    for row, rng, truth in zip(z, rngs, true_bearings_deg):
        if floor_mean > 0:
            row[:] = rng.exponential(floor_mean, size=size)
        if gamma > 0.0:
            centers.append(truth + rng.normal(0.0, noise_sigma_deg))
    if gamma > 0.0:
        lobes = np.exp(-0.5 * ((grid_deg - np.array(centers)[:, None]) / bump_width_deg) ** 2)
        z = z + gamma * bs_power_w * lobes
    return z


def update(posterior: np.ndarray, scans: np.ndarray, k_eff: float) -> np.ndarray:
    """Bayesian update of each row of the posterior (E, G) with the
    pseudo-likelihood z^k_eff of its scan row (E, G), renormalized.

    A row with degenerate evidence (an all-zero scan, or a posterior that
    would vanish) keeps its prior.
    """
    if k_eff <= 0:
        raise ValueError("k_eff must be > 0")
    if scans.shape != posterior.shape:
        raise ValueError(f"scan/grid mismatch: {scans.shape} vs {posterior.shape}")
    if np.any(scans < 0):
        raise ValueError("scan must be nonnegative")
    zmax = scans.max(axis=-1, keepdims=True)
    # an all-zero scan row divides by 1 instead and scores a zero total
    post = posterior * (scans / np.where(zmax > 0.0, zmax, 1.0)) ** k_eff
    total = post.sum(axis=-1, keepdims=True)
    ok = (total > 0.0) & np.isfinite(total)
    return np.where(ok, post / np.where(ok, total, 1.0), posterior)


def kernel_adapt(sigma: float, entropy_bits: float, h_max: float, eta_sigma: float,
                 sigma_min: float, sigma_max: float) -> float:
    """Widen the prediction kernel when uncertainty exceeds its budget, shrink
    it otherwise; clamped to [sigma_min, sigma_max]."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    # min/max on floats give np.clip's value without its array dispatch
    return float(min(max(sigma + eta_sigma * (entropy_bits - h_max), sigma_min), sigma_max))
