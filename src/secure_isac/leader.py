"""Base-station slot controller.

Each slot the controller maps the predicted bearing-posterior entropy and the
previous slot's KPIs to a power split (data/AN/sensing), the jamming price pi
broadcast to the hybrid nodes, and an adapted prediction-kernel width. The
broadcast's other two prices are fixed announcements: the leakage penalty tau
and the sensing price kappa keep their configured initial values. All updates
are clipped affine laws, so the state provably stays inside its boxes for any
KPI sequence. They clip floats with min(max(x, lo), hi), which gives np.clip's
value without its array dispatch.
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


def price_update(pi: float, kpis: LeaderKpis, lead: LeaderConfig) -> float:
    """Clipped affine jamming-price move: reward the secrecy jamming bought."""
    return float(min(max(pi + lead.k_pi * kpis.jam_benefit, lead.pi_min), lead.pi_max))


def leader_step(state: LeaderState, config: ScenarioConfig, kpis: LeaderKpis,
                belief_entropy: float) -> LeaderState:
    """One controller cycle: entropy -> sensing split -> AN integrator ->
    data complement -> jamming price -> kernel width, under the [leader] gains
    and the [belief] kernel bounds. The leakage penalty tau and the sensing
    price kappa are carried over unchanged. Returns the new state, whose
    broadcast is this slot's announcement to the followers."""
    lead, bel, last = config.leader, config.belief, state.broadcast
    gamma = sensing_fraction(belief_entropy, lead)
    error = lead.r_s_target - kpis.secrecy
    beta = an_update(last.beta, error, gamma, lead)
    alpha = data_fraction(beta, gamma)
    pi = price_update(last.pi, kpis, lead)
    sigma = kernel_adapt(state.kernel_sigma_deg, belief_entropy, lead.h_max_bits,
                         lead.eta_sigma, bel.sigma_min_deg, bel.sigma_max_deg)
    if not abs(alpha + beta + gamma - 1.0) <= 1e-9:
        raise InvariantError("leader power split left the simplex")
    return LeaderState(Broadcast(alpha, beta, gamma, pi, last.tau, last.kappa), sigma)
