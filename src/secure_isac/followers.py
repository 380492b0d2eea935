"""Hybrid-node power game.

Given the leader's broadcast, every hybrid node picks a transmit power on a
discrete grid to maximize a priced utility (secrecy reward, power cost,
leakage penalty, jamming reward, shared information bonus) under box, total
friendly-jamming, and leakage-cap constraints that couple the players.
Equilibria are approximated by deterministic Gauss-Seidel best-response
sweeps; roles are re-assigned once per slot by thresholding the achieved
secrecy rates.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .leader import Broadcast
from .link import SlotContext

log = logging.getLogger(__name__)

FEAS_TOL = 1e-12  # closed constraints: boundary points are feasible


class Role(str, Enum):
    THN = "THN"
    JHN = "JHN"


@dataclass
class NodeState:
    """One hybrid node: identity, geometry, role, power, and utility weights."""

    id: int
    position: np.ndarray
    role: Role = Role.THN
    power: float = 0.0
    p_max: float = 1.5
    eta: float = 1.0      # secrecy reward weight
    cost: float = 0.5     # power cost per watt

    def __post_init__(self):
        if not 0.0 <= self.power <= self.p_max + 1e-12:
            raise ValueError(f"node {self.id}: power {self.power} outside [0, {self.p_max}]")


@dataclass
class FeasibilitySpec:
    """Shared constraints: aggregate jamming budget and per-served-node
    leakage cap."""

    p_fj_max: float = 12.0
    xi_max: float = 2e-12

    def __post_init__(self):
        if self.p_fj_max <= 0 or self.xi_max <= 0:
            raise ValueError("all caps must be > 0")


def trial_block(u: int, powers: np.ndarray, grid) -> np.ndarray:
    """One profile per grid value: powers with node u's power replaced, (G, K)."""
    trial = np.tile(np.asarray(powers, dtype=float), (len(grid), 1))
    trial[:, u] = grid
    return trial


def _utilities(u: int, trial: np.ndarray, roles: dict, broadcast: Broadcast,
               ctx: SlotContext, node: NodeState) -> np.ndarray:
    """Node u's priced payoff at every profile of a (M, K) trial block."""
    power = trial[:, u]
    secrecy, jam = 0.0, 0.0
    if roles[u] is Role.JHN:
        jam = broadcast.pi * ctx.jam_contribution(u, trial)
    elif u in ctx.served:
        secrecy = node.eta * ctx.rates(trial)[:, ctx.served.index(u)]
    leak = power * ctx.jam_to_thn[u].sum()
    return (secrecy - node.cost * power - broadcast.tau * leak + jam
            + broadcast.kappa * ctx.info_gain)


def hn_utility(u: int, power: float, powers: np.ndarray, roles: dict,
               broadcast: Broadcast, ctx: SlotContext, node: NodeState) -> float:
    """Priced per-node payoff at the profile (power, powers[-u]).

    Transmit-role nodes earn the secrecy reward and contribute no jamming;
    jamming-role nodes earn the jamming reward instead. Power cost, leakage
    penalty, and the shared information bonus apply to everyone.
    """
    if power < -FEAS_TOL or power > node.p_max + FEAS_TOL:
        raise ValueError(f"infeasible power {power} for node {u}")
    trial = trial_block(u, powers, [power])
    return float(_utilities(u, trial, roles, broadcast, ctx, node)[0])


def feasible(powers: np.ndarray, spec: FeasibilitySpec, p_maxes: np.ndarray,
             ctx: SlotContext):
    """Per profile of a (..., K) block: True iff every box bound, the
    aggregate budget, and every leakage cap hold (closed constraints)."""
    p = np.asarray(powers, dtype=float)
    ok = np.all((p >= -FEAS_TOL) & (p <= p_maxes + FEAS_TOL), axis=-1)
    ok &= p.sum(axis=-1) <= spec.p_fj_max + FEAS_TOL
    # leakage is watt-scale: a relative tolerance keeps the boundary closed
    ok &= np.all(ctx.leakage_at_served(p) <= spec.xi_max * (1.0 + 1e-9), axis=-1)
    return ok


def candidate_utilities(u: int, powers: np.ndarray, grid: np.ndarray,
                        broadcast: Broadcast, ctx: SlotContext,
                        spec: FeasibilitySpec, roles: dict, node: NodeState,
                        p_maxes: np.ndarray):
    """Utilities and feasibility over node u's candidate grid, others fixed:
    hn_utility and feasible evaluated on one trial block. Infeasible
    candidates score -inf."""
    trial = trial_block(u, powers, grid)
    feas = feasible(trial, spec, p_maxes, ctx)
    values = _utilities(u, trial, roles, broadcast, ctx, node)
    values[~feas] = -np.inf
    return values, feas


def best_response(u: int, powers: np.ndarray, grid: np.ndarray, broadcast: Broadcast,
                  ctx: SlotContext, spec: FeasibilitySpec, roles: dict,
                  nodes: dict, p_maxes: np.ndarray) -> float:
    """Utility-maximizing feasible grid power for node u, others fixed.

    Exact ties break toward lower power. An empty feasible set falls back to
    zero power with a warning.
    """
    if grid.size == 0:
        raise ValueError("empty power grid")
    values, feas = candidate_utilities(u, powers, grid, broadcast, ctx, spec,
                                       roles, nodes[u], p_maxes)
    if not feas.any():
        log.warning("node %d: no feasible grid power, falling back to 0", u)
        return 0.0
    return float(grid[int(np.argmax(values))])  # argmax takes the first (lowest) tie


@dataclass
class GneResult:
    powers: np.ndarray
    iterations: int
    gap: float          # exhaustive equilibrium gap at the returned profile
    converged: bool


def equilibrium_gap(powers: np.ndarray, grids: dict, broadcast: Broadcast,
                    ctx: SlotContext, spec: FeasibilitySpec, roles: dict,
                    nodes: dict, p_maxes: np.ndarray) -> float:
    """Largest unilateral utility improvement any node can reach on its grid
    (the epsilon-equilibrium certificate, by exhaustive scan)."""
    worst = 0.0
    for u, grid in grids.items():
        current = hn_utility(u, powers[u], powers, roles, broadcast, ctx, nodes[u])
        values, feas = candidate_utilities(u, powers, grid, broadcast, ctx, spec,
                                           roles, nodes[u], p_maxes)
        if feas.any():
            worst = max(worst, float(values[feas].max()) - current)
    return worst


def gne_solve(node_list, broadcast: Broadcast, ctx: SlotContext, spec: FeasibilitySpec,
              grid_points: int = 21, tolerance: float = 1e-3,
              max_iters: int = 50) -> GneResult:
    """Gauss-Seidel best-response sweeps until the profile stops moving.

    Sweep order is ascending node id. Returns the profile, sweep count, the
    exhaustive equilibrium gap at the returned profile, and a convergence flag
    (a profile-change norm <= tolerance, which on a discrete grid means an
    exact fixed point).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    nodes = {n.id: n for n in node_list}
    order = sorted(nodes)
    if order != list(range(len(order))):
        raise ValueError("node ids must be 0..K-1 and match the context rows")
    roles = {uid: nodes[uid].role for uid in order}
    p_maxes = np.array([nodes[uid].p_max for uid in order])
    grids = {uid: np.linspace(0.0, nodes[uid].p_max, grid_points) for uid in order}

    powers = np.array([nodes[uid].power for uid in order], dtype=float)
    if not feasible(powers, spec, p_maxes, ctx):
        powers = np.zeros_like(powers)

    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        previous = powers.copy()
        for uid in order:
            powers[uid] = best_response(uid, powers, grids[uid], broadcast, ctx,
                                        spec, roles, nodes, p_maxes)
        if np.linalg.norm(powers - previous) <= tolerance:
            converged = True
            break
    if not converged:
        log.warning("best-response dynamics hit the iteration cap (%d sweeps)", max_iters)
    gap = equilibrium_gap(powers, grids, broadcast, ctx, spec, roles, nodes, p_maxes)
    return GneResult(powers, iterations, gap, converged)


def role_switch(rates: dict, threshold: float) -> dict:
    """JHN when the equilibrium secrecy rate falls strictly below the
    threshold, THN otherwise."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return {uid: (Role.JHN if r < threshold else Role.THN) for uid, r in rates.items()}
