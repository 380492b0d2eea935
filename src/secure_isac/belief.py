"""Per-eavesdropper bearing posterior on a discrete angular grid.

The filter alternates Gaussian-kernel prediction (mobility blur, reflected at
the grid edges) with a pseudo-likelihood update from angular sensing scans.
Shannon entropy of the posterior is the uncertainty signal consumed by the
controller; the kernel bandwidth itself adapts to the entropy error.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class BeliefState:
    """Probability vector over bearing angles (degrees) for one eavesdropper."""

    grid_deg: np.ndarray
    probs: np.ndarray
    kernel_sigma_deg: float
    eve_id: int = 0

    def validate(self):
        assert np.all(self.probs >= -1e-15), "negative probability mass"
        assert abs(self.probs.sum() - 1.0) <= 1e-9, "belief not normalized"
        assert np.all(np.diff(self.grid_deg) > 0), "grid must be increasing"

    @property
    def argmax_deg(self) -> float:
        return float(self.grid_deg[int(np.argmax(self.probs))])


def default_grid(size: int = 181, lo: float = -90.0, hi: float = 90.0) -> np.ndarray:
    return np.linspace(lo, hi, size)


def uniform_prior(grid_size: int = 181, kernel_sigma_deg: float = 10.0,
                  eve_id: int = 0, lo: float = -90.0, hi: float = 90.0) -> BeliefState:
    """Maximum-entropy prior over the bearing grid."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    grid = default_grid(grid_size, lo, hi)
    return BeliefState(grid, np.full(grid_size, 1.0 / grid_size), kernel_sigma_deg, eve_id)


def predict(belief: BeliefState) -> BeliefState:
    """Blur the posterior with a Gaussian kernel of the current bandwidth.

    Mass leaving the grid is reflected back at the boundaries, then the result
    is renormalized.
    """
    sigma = belief.kernel_sigma_deg
    if sigma <= 0:
        raise ValueError("kernel_sigma must be > 0")
    step = float(belief.grid_deg[1] - belief.grid_deg[0])
    half = int(np.ceil(4.0 * sigma / step))
    probs = belief.probs
    if half >= 1:
        offsets = np.arange(-half, half + 1) * step
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        padded = np.pad(probs, half, mode="reflect")
        probs = np.convolve(padded, kernel, mode="valid")
    probs = np.maximum(probs, 0.0)
    probs = probs / probs.sum()
    return BeliefState(belief.grid_deg, probs, sigma, belief.eve_id)


def entropy(belief: BeliefState) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = belief.probs[belief.probs > 0]
    return float(-np.sum(p * np.log2(p)))


def synthesize_measurement(true_angles_deg, gamma: float,
                           noise_sigma_deg: float, rng: np.random.Generator,
                           grid_deg: np.ndarray | None = None,
                           bs_power_w: float = 15.0,
                           bump_width_deg: float = 2.0,
                           floor_scale: float = 0.005) -> np.ndarray:
    """Nonnegative angular scan: one blurred return per true emitter plus a
    noise floor.

    Each return is a Gaussian lobe centered on the true bearing perturbed by
    the measurement noise, with amplitude proportional to the sensing power
    (the scanning beam has unit response at every bearing). gamma = 0 leaves
    only the floor.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if grid_deg is None:
        grid_deg = default_grid()
    floor_mean = floor_scale * bs_power_w
    z = rng.exponential(floor_mean, size=grid_deg.shape[0]) if floor_mean > 0 \
        else np.zeros(grid_deg.shape[0])
    if gamma > 0.0:
        for truth in true_angles_deg:
            center = truth + rng.normal(0.0, noise_sigma_deg)
            lobe = np.exp(-0.5 * ((grid_deg - center) / bump_width_deg) ** 2)
            z = z + gamma * bs_power_w * lobe
    return z


def update(belief: BeliefState, z: np.ndarray, k_eff: float = 1.0) -> BeliefState:
    """Bayesian update with pseudo-likelihood z^k_eff, renormalized.

    Degenerate evidence (all-zero scan, or a posterior that would vanish)
    returns the prior unchanged.
    """
    if k_eff <= 0:
        raise ValueError("k_eff must be > 0")
    if z.shape != belief.probs.shape:
        raise ValueError(f"scan/grid mismatch: {z.shape} vs {belief.probs.shape}")
    if np.any(z < 0):
        raise ValueError("scan must be nonnegative")
    zmax = z.max()
    if zmax <= 0.0:
        return BeliefState(belief.grid_deg, belief.probs.copy(),
                           belief.kernel_sigma_deg, belief.eve_id)
    likelihood = (z / zmax) ** k_eff
    post = belief.probs * likelihood
    total = post.sum()
    if total <= 0.0 or not np.isfinite(total):
        return BeliefState(belief.grid_deg, belief.probs.copy(),
                           belief.kernel_sigma_deg, belief.eve_id)
    return BeliefState(belief.grid_deg, post / total, belief.kernel_sigma_deg,
                       belief.eve_id)


def kernel_adapt(sigma: float, entropy_bits: float, h_max: float, eta_sigma: float,
                 sigma_min: float = 1.0, sigma_max: float = 45.0) -> float:
    """Widen the prediction kernel when uncertainty exceeds its budget, shrink
    it otherwise; clamped to [sigma_min, sigma_max]."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    return float(np.clip(sigma + eta_sigma * (entropy_bits - h_max), sigma_min, sigma_max))
