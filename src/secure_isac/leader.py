"""Base-station slot controller.

Each slot the controller maps the predicted bearing-posterior entropy and the
previous slot's KPIs to a power split (data/AN/sensing), three incentive
prices broadcast to the hybrid nodes, and an adapted prediction-kernel width.
All updates are clipped affine laws, so the state provably stays inside its
boxes for any KPI sequence. They clip floats with min(max(x, lo), hi), which
gives np.clip's value without its array dispatch.
"""

from dataclasses import dataclass

from . import InvariantError
from .belief import kernel_adapt
from .config import LeaderConfig, ScenarioConfig


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
    jam_benefit: float = 0.0     # secrecy gained by active jamming (bps/Hz)
    mean_leakage_w: float = 0.0  # mean jamming leakage at served nodes


def sensing_fraction(entropy_bits: float, lead: LeaderConfig) -> float:
    """Affine entropy-to-sensing map: gamma_min at zero entropy, gamma_max at
    the entropy budget, clamped in between."""
    if entropy_bits < 0:
        raise ValueError("entropy must be >= 0")
    frac = min(max(entropy_bits / lead.h_max_bits, 0.0), 1.0)
    return float(lead.gamma_min + (lead.gamma_max - lead.gamma_min) * frac)


def an_update(beta_prev: float, secrecy_error: float, gamma: float,
              lead: LeaderConfig) -> float:
    """Integrate the secrecy deficit into the AN fraction, clamped so the
    split stays feasible."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    hi = min(1.0 - gamma, lead.beta_max)
    lo = min(lead.beta_min, hi)
    return float(min(max(beta_prev + lead.k_s * secrecy_error, lo), hi))


def data_fraction(beta: float, gamma: float) -> float:
    """Exact simplex complement alpha = 1 - beta - gamma."""
    if beta + gamma > 1.0 + 1e-12:
        raise ValueError(f"infeasible split: beta + gamma = {beta + gamma} > 1")
    return max(0.0, 1.0 - beta - gamma)


def price_update(pi: float, tau: float, kappa: float, kpis: LeaderKpis,
                 entropy_bits: float, lead: LeaderConfig, xi_target_w: float):
    """Clipped affine price moves: reward jamming, steer leakage to the
    target xi_target_w, reward sensing when uncertainty exceeds the budget."""
    pi_new = min(max(pi + lead.k_pi * kpis.jam_benefit, lead.pi_min), lead.pi_max)
    tau_new = min(max(tau + lead.k_tau * (kpis.mean_leakage_w - xi_target_w),
                      lead.tau_min), lead.tau_max)
    kappa_new = min(max(kappa + lead.k_kappa * (entropy_bits - lead.h_max_bits),
                        lead.kappa_min), lead.kappa_max)
    return float(pi_new), float(tau_new), float(kappa_new)


def leader_step(state: LeaderState, config: ScenarioConfig, noise_w: float,
                kpis: LeaderKpis, belief_entropy: float) -> LeaderState:
    """One controller cycle: entropy -> sensing split -> AN integrator ->
    data complement -> prices -> kernel width, under the [leader] gains and
    the [belief] kernel bounds; the leakage target is xi_target_scale noise
    powers. Returns the new state, whose broadcast is this slot's
    announcement to the followers."""
    lead, bel, last = config.leader, config.belief, state.broadcast
    gamma = sensing_fraction(belief_entropy, lead)
    error = lead.r_s_target - kpis.secrecy
    beta = an_update(last.beta, error, gamma, lead)
    alpha = data_fraction(beta, gamma)
    pi, tau, kappa = price_update(last.pi, last.tau, last.kappa, kpis, belief_entropy,
                                  lead, lead.xi_target_scale * noise_w)
    sigma = kernel_adapt(state.kernel_sigma_deg, belief_entropy, lead.h_max_bits,
                         lead.eta_sigma, bel.sigma_min_deg, bel.sigma_max_deg)
    if not abs(alpha + beta + gamma - 1.0) <= 1e-9:
        raise InvariantError("leader power split left the simplex")
    return LeaderState(Broadcast(alpha, beta, gamma, pi, tau, kappa), sigma)
