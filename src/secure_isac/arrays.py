"""Uniform linear arrays: element geometry, steering, tapered sensing beams,
and null-steered beam synthesis.

All arrays are ULAs on the y-axis. Angles are radians here, azimuth
measured from the array normal (x-axis) in the horizontal plane.
Every synthesis routine returns unit-norm complex weights.
"""

from dataclasses import dataclass

import numpy as np


class InfeasibleNullError(ValueError):
    """Requested null set leaves no usable beam energy."""


@dataclass(frozen=True)
class ArraySpec:
    """ULA geometry: element count, spacing and carrier wavelength (meters)."""

    num_elements: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")

    @classmethod
    def half_wavelength(cls, num_elements: int, wavelength: float) -> "ArraySpec":
        return cls(num_elements, wavelength / 2.0, wavelength)

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def element_indices(spec: ArraySpec) -> np.ndarray:
    """Signed element indices n in {-(N-1)/2, ..., (N-1)/2}, centroid at 0."""
    n = spec.num_elements
    return np.arange(n) - (n - 1) / 2.0


def ula_positions(spec: ArraySpec) -> np.ndarray:
    """3D element positions (N, 3) on the y-axis at n*d around the origin."""
    pos = np.zeros((spec.num_elements, 3))
    pos[:, 1] = element_indices(spec) * spec.spacing
    return pos


def steering_vector(spec: ArraySpec, azimuth) -> np.ndarray:
    """Unit-norm plane-wave steering vector; element-n phase k0*d*n*sin(az).

    An array of azimuths gives one vector per azimuth, shape (..., N), each
    equal to the scalar call.
    """
    phase = spec.wavenumber * spec.spacing * np.sin(azimuth)
    return (np.exp(1j * np.asarray(phase)[..., None] * element_indices(spec))
            / np.sqrt(spec.num_elements))


def sensing_beam(spec: ArraySpec, taper: float, steer_angle: float) -> np.ndarray:
    """Steered sensing beam with a convex uniform/Hamming amplitude blend.

    taper=0 keeps the plain steering vector (widest main lobe), taper=1 applies
    the full Hamming profile (lower sidelobes). The window is normalized to
    unit mean so the taper reshapes the beam without changing total power.
    """
    if not 0.0 <= taper <= 1.0:
        raise ValueError(f"taper must be in [0, 1], got {taper}")
    n = spec.num_elements
    hamming = np.hamming(n) if n > 1 else np.ones(1)
    hamming = hamming / hamming.mean()
    profile = (1.0 - taper) * np.ones(n) + taper * hamming
    weights = profile * steering_vector(spec, steer_angle)
    return weights / np.linalg.norm(weights)


def null_steer(weights: np.ndarray, null_steering: np.ndarray) -> tuple:
    """Project each weight row (M, n) onto the orthogonal complement of its
    row of null steering vectors (M, U, n) and renormalize it, so its gain
    toward each nulled direction ends up at numerical zero.

    Every step runs over all rows at once: the QR factorizations, then the
    projection and the norms as einsums, so each row is the beam a one-row
    call gives. Returns the beams (M, n) and which rows are feasible (M,): a
    row whose projection removes (almost) all beam energy is left at zero.
    Raises InfeasibleNullError when U >= n.
    """
    rows, count, elements = null_steering.shape
    if count == 0:
        return weights.copy(), np.ones(rows, dtype=bool)
    if count >= elements:
        raise InfeasibleNullError(f"{count} nulls requested for {elements} elements")
    q, _ = np.linalg.qr(np.swapaxes(null_steering, 1, 2))        # (M, n, U)
    projected = weights - np.einsum("mnu,mu->mn", q,
                                    np.einsum("mnu,mn->mu", q.conj(), weights))
    norm = np.sqrt(np.einsum("mn,mn->m", projected.conj(), projected).real)
    feasible = norm >= 1e-9
    beams = np.zeros_like(weights)
    beams[feasible] = projected[feasible] / norm[feasible, None]
    return beams, feasible


def beampattern_db(weights: np.ndarray, spec: ArraySpec, angles: np.ndarray) -> np.ndarray:
    """Power gain |w^H a(angle)|^2 in dB over the given angles, normalized to
    a 0 dB peak."""
    gains = np.abs(np.einsum("an,n->a", steering_vector(spec, angles),
                             weights.conj())) ** 2
    peak = gains.max()
    if peak <= 0:
        return np.full_like(gains, -np.inf)
    floor = peak * 1e-16
    return 10.0 * np.log10(np.maximum(gains, floor) / peak)
