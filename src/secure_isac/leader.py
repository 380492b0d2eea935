"""Base-station slot controller.

Each slot the controller maps the predicted bearing-posterior entropy and the
previous slot's KPIs to a power split (data/AN/sensing), three incentive
prices broadcast to the hybrid nodes, and an adapted prediction-kernel width.
All updates are clipped affine laws, so the state provably stays inside its
boxes for any KPI sequence.
"""

from dataclasses import dataclass

import numpy as np

from . import InvariantError
from .belief import kernel_adapt


@dataclass(frozen=True)
class LeaderGains:
    """Step sizes, targets, and boxes for the controller."""

    k_s: float = 0.01            # AN integrator gain per bps/Hz of secrecy error
    k_pi: float = 0.05
    k_tau: float = 0.05
    k_kappa: float = 0.05
    eta_sigma: float = 0.5       # kernel degrees per bit of entropy error
    r_s_target: float = 4.5      # bps/Hz
    h_max: float = 6.0           # bits
    gamma_min: float = 0.02
    gamma_max: float = 0.3
    xi_target_w: float = 2e-11   # leakage level the tau price steers toward
    beta_min: float = 0.0
    beta_max: float = 0.3        # anti-windup: never starve the data fraction
    sigma_min_deg: float = 1.0
    sigma_max_deg: float = 45.0
    pi_bounds: tuple = (0.0, 1.0)
    tau_bounds: tuple = (0.0, 1.0)
    kappa_bounds: tuple = (0.0, 1.0)

    def __post_init__(self):
        for name in ("k_s", "k_pi", "k_tau", "k_kappa", "eta_sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not self.gamma_min < self.gamma_max:
            raise ValueError("gamma_min must be < gamma_max")


@dataclass(frozen=True)
class Broadcast:
    """Immutable per-slot announcement to the hybrid nodes."""

    alpha: float
    beta: float
    gamma: float
    pi: float
    tau: float
    kappa: float


@dataclass(frozen=True)
class LeaderState:
    """Controller state carried across slots: the last announcement and the
    prediction-kernel width."""

    broadcast: Broadcast
    kernel_sigma_deg: float


@dataclass
class LeaderKpis:
    """Previous-slot measurements the controller reacts to."""

    secrecy: float = 0.0         # mean served secrecy rate (bps/Hz)
    outage: float = 0.0
    jam_benefit: float = 0.0     # secrecy gained by active jamming (bps/Hz)
    mean_leakage_w: float = 0.0  # mean jamming leakage at served nodes
    info_gain: float = 0.0       # entropy reduction (bits)


def sensing_fraction(entropy_bits: float, gains: LeaderGains) -> float:
    """Affine entropy-to-sensing map: gamma_min at zero entropy, gamma_max at
    the entropy budget, clamped in between."""
    if entropy_bits < 0:
        raise ValueError("entropy must be >= 0")
    frac = np.clip(entropy_bits / gains.h_max, 0.0, 1.0)
    return float(gains.gamma_min + (gains.gamma_max - gains.gamma_min) * frac)


def an_update(beta_prev: float, secrecy_error: float, gamma: float,
              gains: LeaderGains) -> float:
    """Integrate the secrecy deficit into the AN fraction, clamped so the
    split stays feasible."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    hi = min(1.0 - gamma, gains.beta_max)
    lo = min(gains.beta_min, hi)
    return float(np.clip(beta_prev + gains.k_s * secrecy_error, lo, hi))


def data_fraction(beta: float, gamma: float) -> float:
    """Exact simplex complement alpha = 1 - beta - gamma."""
    if beta + gamma > 1.0 + 1e-12:
        raise ValueError(f"infeasible split: beta + gamma = {beta + gamma} > 1")
    return max(0.0, 1.0 - beta - gamma)


def price_update(pi: float, tau: float, kappa: float, kpis: LeaderKpis,
                 entropy_bits: float, gains: LeaderGains):
    """Clipped affine price moves: reward jamming, steer leakage to target,
    reward sensing when uncertainty exceeds the budget."""
    pi_new = np.clip(pi + gains.k_pi * kpis.jam_benefit, *gains.pi_bounds)
    tau_new = np.clip(tau + gains.k_tau * (kpis.mean_leakage_w - gains.xi_target_w),
                      *gains.tau_bounds)
    kappa_new = np.clip(kappa + gains.k_kappa * (entropy_bits - gains.h_max),
                        *gains.kappa_bounds)
    return float(pi_new), float(tau_new), float(kappa_new)


def leader_step(state: LeaderState, gains: LeaderGains, kpis: LeaderKpis,
                belief_entropy: float) -> LeaderState:
    """One controller cycle: entropy -> sensing split -> AN integrator ->
    data complement -> prices -> kernel width. Returns the new state, whose
    broadcast is this slot's announcement to the followers."""
    last = state.broadcast
    gamma = sensing_fraction(belief_entropy, gains)
    error = gains.r_s_target - kpis.secrecy
    beta = an_update(last.beta, error, gamma, gains)
    alpha = data_fraction(beta, gamma)
    pi, tau, kappa = price_update(last.pi, last.tau, last.kappa, kpis,
                                  belief_entropy, gains)
    sigma = kernel_adapt(state.kernel_sigma_deg, belief_entropy, gains.h_max,
                         gains.eta_sigma, gains.sigma_min_deg, gains.sigma_max_deg)
    if not abs(alpha + beta + gamma - 1.0) <= 1e-9:
        raise InvariantError("leader power split left the simplex")
    return LeaderState(Broadcast(alpha, beta, gamma, pi, tau, kappa), sigma)
