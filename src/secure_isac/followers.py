"""Hybrid-node power game.

Given the leader's broadcast, every hybrid node picks a transmit power on a
discrete grid to maximize a priced utility (secrecy reward, power cost,
leakage penalty, jamming reward, shared information bonus) under box, total
friendly-jamming, and leakage-cap constraints that couple the players.
Equilibria are approximated by deterministic Gauss-Seidel best-response
sweeps, scored a few pending nodes per block; roles are re-assigned once per
slot by thresholding the achieved secrecy rates.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .leader import Broadcast
from .link import SlotContext

log = logging.getLogger(__name__)

FEAS_TOL = 1e-12  # closed constraints: boundary points are feasible
# Pending nodes scored per block in a best-response sweep. Rows after the
# first node that moves were scored against a stale profile and are dropped,
# so a larger block wastes rows and a smaller one pays more call overhead
# (sizes 6-12 time within 8 % of one another at K = 25 and K = 100).
SWEEP_BLOCK = 8


class Role(str, Enum):
    THN = "THN"
    JHN = "JHN"


@dataclass
class FeasibilitySpec:
    """Shared constraints and power grid of the power game and the
    refinement: every node's power box [0, p_max], the aggregate jamming
    budget, the per-served-node leakage cap, and the grid_points evenly spaced
    powers over the box that every node chooses from."""

    p_max: float = 1.5
    p_fj_max: float = 12.0
    xi_max: float = 2e-12
    grid_points: int = 21

    def __post_init__(self):
        if self.p_max <= 0 or self.p_fj_max <= 0 or self.xi_max <= 0:
            raise ValueError("all caps must be > 0")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.p_max, self.grid_points)

    def admits(self, powers: np.ndarray, leakage: np.ndarray):
        """Per profile of a (..., K) block whose served nodes receive
        `leakage` (..., U): True iff every box bound, the aggregate budget,
        and every leakage cap hold (closed constraints)."""
        ok = ((powers >= -FEAS_TOL) & (powers <= self.p_max + FEAS_TOL)).all(axis=-1)
        ok &= powers.sum(axis=-1) <= self.p_fj_max + FEAS_TOL
        # leakage is watt-scale: a relative tolerance keeps the boundary closed
        ok &= (leakage <= self.xi_max * (1.0 + 1e-9)).all(axis=-1)
        return ok


def trial_block(u, powers: np.ndarray, grid) -> np.ndarray:
    """One profile per grid row: powers with node u's power replaced, (G, K).

    u may also be an array of node ids, with one column of `grid` per id.
    """
    trial = np.empty((len(grid), len(powers)))
    trial[:] = powers
    trial[:, u] = grid
    return trial


def candidate_block(nodes: list, powers: np.ndarray, grid, extra: int = 0) -> np.ndarray:
    """Every grid candidate of every node in `nodes`, (N * G + extra, K): row
    i * G + g is powers with node nodes[i] at grid[g]; the `extra` trailing
    rows hold powers unchanged."""
    n, g = len(nodes), len(grid)
    block = np.empty((n * g + extra, len(powers)))
    block[:] = powers
    for i, u in enumerate(nodes):
        block[i * g:(i + 1) * g, u] = grid
    return block


def _priced(secrecy, jam, power, leak_gain, broadcast: Broadcast, info_gain: float,
            cost: float):
    """A node's payoff from its secrecy reward and jamming credit at `power`,
    where leak_gain is its total leakage per watt into the served nodes."""
    leak = power * leak_gain
    return (secrecy - cost * power - broadcast.tau * leak + jam
            + broadcast.kappa * info_gain)


def hn_utility(u: int, power: float, powers: np.ndarray, roles: dict,
               broadcast: Broadcast, ctx: SlotContext, spec: FeasibilitySpec,
               eta: float, cost: float) -> float:
    """Priced per-node payoff at the profile (power, powers[-u]), with secrecy
    reward weight eta and power cost per watt.

    Transmit-role nodes earn the secrecy reward and contribute no jamming;
    jamming-role nodes earn the jamming reward instead. Power cost, leakage
    penalty, and the shared information bonus apply to everyone. Scored one
    profile at a time, apart from the game's block scorer, so tests can hold
    that scorer to it.
    """
    if power < -FEAS_TOL or power > spec.p_max + FEAS_TOL:
        raise ValueError(f"infeasible power {power} for node {u}")
    trial = trial_block(u, powers, [power])
    secrecy, jam = 0.0, 0.0
    if roles[u] is Role.JHN:
        jam = broadcast.pi * ctx.jam_contribution(u, trial)
    elif u in ctx.served:
        secrecy = eta * ctx.rates(trial)[:, ctx.served.index(u)]
    return float(_priced(secrecy, jam, trial[:, u], ctx.jam_to_thn[u].sum(), broadcast,
                         ctx.info_gain, cost)[0])


def feasible(powers: np.ndarray, spec: FeasibilitySpec, ctx: SlotContext):
    """Per profile of a (..., K) block: True iff every box bound, the
    aggregate budget, and every leakage cap hold (closed constraints)."""
    p = np.asarray(powers, dtype=float)
    return spec.admits(p, ctx.leakage_at_served(p))


def _score_grid(nodes: list, powers: np.ndarray, grid: np.ndarray,
                broadcast: Broadcast, ctx: SlotContext, spec: FeasibilitySpec,
                roles: dict, eta: float, cost: float):
    """Utilities and feasibility, each (N, G), of every node in `nodes` at
    every grid power, the others fixed at `powers`; infeasible profiles keep
    their utility.

    One block holds the N x G candidate profiles, then one profile per node
    with that node silent (its jamming credit's reference). Each gain table
    contracts the block once, and the leakage serves both the caps and the
    served rates. Every row scores as it would alone (see link._delivered),
    so the values equal hn_utility's.
    """
    n, g = len(nodes), len(grid)
    block = candidate_block(nodes, powers, grid, extra=n)
    block[n * g + np.arange(n), nodes] = 0.0
    candidates = block[: n * g]
    leak = ctx.leakage_at_served(candidates)
    feas = spec.admits(candidates, leak).reshape(n, g)

    jams = [roles[u] is Role.JHN for u in nodes]
    earns = [not j and u in ctx.served for u, j in zip(nodes, jams)]
    secrecy, jam = 0.0, 0.0
    if any(jams) or any(earns):
        eve = ctx.eve_rate_max(block)
        with_rate = eve[: n * g].reshape(n, g)
    if any(earns):
        column = [ctx.served.index(u) if e else 0 for u, e in zip(nodes, earns)]
        rates = ctx.rates_from(leak.reshape(n, g, -1), with_rate)[np.arange(n), :, column]
        secrecy = np.where(np.array(earns)[:, None], eta * rates, 0.0)
    if any(jams):
        credit = ctx.jam_credit(with_rate, eve[n * g:, None], grid)
        jam = np.where(np.array(jams)[:, None], broadcast.pi * credit, 0.0)
    leak_gain = np.array([ctx.jam_to_thn[u].sum() for u in nodes])[:, None]
    values = _priced(secrecy, jam, grid, leak_gain, broadcast, ctx.info_gain, cost)
    return values, feas


def candidate_utilities(nodes: list, powers: np.ndarray, grid: np.ndarray,
                        broadcast: Broadcast, ctx: SlotContext,
                        spec: FeasibilitySpec, roles: dict, eta: float, cost: float):
    """Utilities and feasibility, each (N, G), over the candidate grid of
    every node id in `nodes`, the others fixed: hn_utility and feasible at
    every grid power, scored as one block. Infeasible candidates score -inf."""
    values, feas = _score_grid(nodes, powers, grid, broadcast, ctx, spec,
                               roles, eta, cost)
    return np.where(feas, values, -np.inf), feas


def best_response(nodes: list, powers: np.ndarray, grid: np.ndarray,
                  broadcast: Broadcast, ctx: SlotContext, spec: FeasibilitySpec,
                  roles: dict, eta: float, cost: float):
    """Utility-maximizing feasible grid power of every node id in `nodes`,
    each scored against the same profile, the others fixed.

    Returns (picks (N,), empty (N,)). Exact ties break toward lower power; a
    node with an empty feasible set falls back to zero power and is marked in
    `empty`. Nothing is logged: a sweep logs only the picks it accepts.
    """
    values, feas = candidate_utilities(nodes, powers, grid, broadcast, ctx, spec,
                                       roles, eta, cost)
    empty = ~feas.any(axis=1)
    # argmax takes the first (lowest) tie
    return np.where(empty, 0.0, grid[np.argmax(values, axis=1)]), empty


def sweep_best_responses(nodes, powers: np.ndarray, respond, max_sweeps: int):
    """Gauss-Seidel best-response sweeps over the node ids `nodes` in order,
    moving `powers` in place, until a sweep moves no node. Returns (sweeps
    run, converged flag).

    respond(block) yields, in order, the pick of each node id in `block`, all
    scored against the current powers; a node's pick must not depend on its
    own power.

    A node is scored at its turn only if some node has moved since it was
    last scored; otherwise its pick would be the power it holds. Up to
    SWEEP_BLOCK pending nodes are scored per block. Their picks are accepted
    in order up to and including the first that moves, and the sweep resumes
    after that node, so the rows after it (scored against a stale profile)
    are never read. The result equals scoring one node at a time.
    """
    seen = [-1] * len(nodes)    # the move count when each node was last scored
    version = 0                 # moves so far
    for sweep in range(1, max_sweeps + 1):
        moves_before = version
        pos = 0
        while True:
            # pending is decided at each node's turn, not at the sweep's
            # start: a move earlier in the sweep makes later nodes pending
            block = [i for i in range(pos, len(nodes)) if seen[i] != version]
            if not block:
                break
            block = block[:SWEEP_BLOCK]
            for i, pick in zip(block, respond([nodes[i] for i in block])):
                seen[i] = version
                pos = i + 1
                if pick != powers[nodes[i]]:
                    powers[nodes[i]] = pick
                    version += 1
                    seen[i] = version
                    break
        if version == moves_before:
            return sweep, True
    return max_sweeps, False


@dataclass
class GneResult:
    powers: np.ndarray
    iterations: int
    gap: float          # exhaustive equilibrium gap at the returned profile
    converged: bool


def equilibrium_gap(powers: np.ndarray, grid: np.ndarray, broadcast: Broadcast,
                    ctx: SlotContext, spec: FeasibilitySpec, roles: dict,
                    eta: float, cost: float) -> float:
    """Largest unilateral utility improvement any node can reach on the grid
    (the epsilon-equilibrium certificate, by exhaustive scan of every node's
    grid as one block).

    Every power must be a grid point, as it is after any best-response sweep:
    node u's current utility is the row of its candidate block at powers[u].
    """
    powers = np.asarray(powers, dtype=float)
    on_grid = grid == powers[:, None]
    off = np.flatnonzero(~on_grid.any(axis=1))
    if off.size:
        raise ValueError(f"node {off[0]}: power {powers[off[0]]} is not on the grid")
    values, feas = _score_grid(list(range(len(powers))), powers, grid, broadcast,
                               ctx, spec, roles, eta, cost)
    current = values[np.arange(len(powers)), on_grid.argmax(axis=1)]
    best = np.where(feas, values, -np.inf).max(axis=1)
    gains = (best - current)[feas.any(axis=1)]
    return max(0.0, float(gains.max())) if gains.size else 0.0


def gne_solve(roles: dict, powers: np.ndarray, broadcast: Broadcast, ctx: SlotContext,
              spec: FeasibilitySpec, eta: float, cost: float,
              max_iters: int = 50) -> GneResult:
    """Gauss-Seidel best-response sweeps from the start profile `powers` until
    a sweep moves no node: an exact fixed point on spec.grid.

    Every node shares the secrecy weight eta, the power cost per watt and the
    grid; an infeasible start profile restarts from zero. Sweep order is
    ascending node id, and a node is re-scored only after some node has moved
    (see sweep_best_responses). Returns the profile, sweep count, the
    exhaustive equilibrium gap at the returned profile, and whether the last
    sweep moved no node.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if sorted(roles) != list(range(len(roles))):
        raise ValueError("role keys must be 0..K-1 and match the context rows")
    grid = spec.grid
    powers = np.array(powers, dtype=float)
    if not feasible(powers, spec, ctx):
        powers = np.zeros_like(powers)

    def respond(block):
        # through the module global, so a wrapped best_response sees each block
        picks, empty = best_response(block, powers, grid, broadcast, ctx, spec,
                                     roles, eta, cost)
        for u, pick, fell_back in zip(block, picks, empty):
            if fell_back:
                log.warning("node %d: no feasible grid power, falling back to 0", u)
            yield pick

    iterations, converged = sweep_best_responses(range(len(roles)), powers, respond,
                                                 max_iters)
    if not converged:
        log.warning("best-response dynamics hit the iteration cap (%d sweeps)", max_iters)
    gap = equilibrium_gap(powers, grid, broadcast, ctx, spec, roles, eta, cost)
    return GneResult(powers, iterations, gap, converged)


def role_switch(rates: dict, threshold: float) -> dict:
    """JHN when the equilibrium secrecy rate falls strictly below the
    threshold, THN otherwise."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return {uid: (Role.JHN if r < threshold else Role.THN) for uid, r in rates.items()}
