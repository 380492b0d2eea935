"""Hybrid-node power game.

Given the leader's broadcast, every hybrid node picks a transmit power on a
discrete grid to maximize a priced utility (secrecy reward, power cost,
leakage penalty, jamming reward) under box, total friendly-jamming, and
leakage-cap constraints that couple the players. The broadcast's sensing
price kappa enters no utility.
Equilibria are approximated by deterministic Gauss-Seidel best-response
sweeps, scored a few pending nodes per block; roles are re-assigned once per
slot by thresholding the achieved secrecy rates.
"""

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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


@dataclass(frozen=True)
class FeasibilitySpec:
    """Shared constraints and power grid of the power game and the
    refinement: every node's power box [0, p_max], the aggregate jamming
    budget, the per-served-node leakage cap, and the grid_points evenly spaced
    powers over the box that every node chooses from."""

    p_max: float
    p_fj_max: float
    xi_max: float
    grid_points: int

    def __post_init__(self):
        if self.p_max <= 0 or self.p_fj_max <= 0 or self.xi_max <= 0:
            raise ValueError("all caps must be > 0")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")

    @cached_property
    def grid(self) -> np.ndarray:
        """The grid_points powers from exactly 0 W, built once and read-only."""
        grid = np.linspace(0.0, self.p_max, self.grid_points)
        grid.setflags(write=False)
        return grid

    def admits(self, powers: np.ndarray, leakage: np.ndarray):
        """Per profile of a (..., K) block whose served nodes receive
        `leakage` (..., U): True iff every box bound, the aggregate budget,
        and every leakage cap hold (closed constraints)."""
        ok = ((powers >= -FEAS_TOL) & (powers <= self.p_max + FEAS_TOL)).all(axis=-1)
        ok &= powers.sum(axis=-1) <= self.p_fj_max + FEAS_TOL
        # leakage is watt-scale: a relative tolerance keeps the boundary closed
        ok &= (leakage <= self.xi_max * (1.0 + 1e-9)).all(axis=-1)
        return ok


class ScoredBlock(NamedTuple):
    """A score_block block of R profiles and each row's evaluation."""

    profiles: np.ndarray    # (R, K)
    leakage: np.ndarray     # (R, U) watts each served node receives
    eve_rate: np.ndarray    # (R,) strongest eavesdropper's rate
    rates: np.ndarray       # (R, U) served secrecy rates
    feasible: np.ndarray    # (R,) spec.admits


def score_block(powers: np.ndarray, moved, values, ctx: SlotContext,
                spec: FeasibilitySpec) -> ScoredBlock:
    """Score each profile that sets one row of node ids, moved (N, m), of
    `powers` to one row of values (V, m): row i * V + v of the block is
    powers with the nodes moved[i] at values[v].

    Each gain table contracts the block once, and the leakage serves both
    the caps and the rates. A row scores as it would alone (see
    link._delivered), so the power game's grid blocks and the refinement's
    enumerations and sweeps share this one scoring chain.
    """
    moved, values = np.asarray(moved, dtype=np.intp), np.asarray(values, dtype=float)
    block = np.empty((len(moved), len(values), len(powers)))
    block[:] = powers
    block[np.arange(len(moved))[:, None], :, moved] = values.T
    block = block.reshape(-1, len(powers))
    leak = ctx.leakage_at_served(block)
    eve = ctx.eve_rate_max(block)
    return ScoredBlock(block, leak, eve, ctx.rates_from(leak, eve),
                       spec.admits(block, leak))


def _score_grid(nodes: list, powers: np.ndarray, broadcast: Broadcast,
                ctx: SlotContext, spec: FeasibilitySpec, roles: dict, eta: float,
                cost: float):
    """Utilities and feasibility, each (N, G), of every node in `nodes` at
    every power of spec.grid, the others fixed at `powers`; infeasible
    profiles keep their utility. A node's utility is its secrecy reward
    (served transmit nodes) or jamming credit (jammers), less its power cost
    and the tau price of its leakage into the served nodes.

    The N x G candidate profiles are one score_block block, row i * G + g
    with node nodes[i] at grid[g]. spec.grid starts at 0 W, so each node's
    first row is the profile with it silent: its jamming credit's reference.
    """
    grid = spec.grid
    n, g = len(nodes), len(grid)
    scored = score_block(powers, np.reshape(nodes, (n, 1)), grid[:, None], ctx, spec)
    eve = scored.eve_rate.reshape(n, g)
    jams = np.array([roles[u] is Role.JHN for u in nodes], dtype=bool)
    # served transmit nodes earn their own stream's rate (none when U = 0)
    earners = [i for i, u in enumerate(nodes) if not jams[i] and u in ctx.served]
    rates = scored.rates.reshape(n, g, len(ctx.served))
    secrecy = np.zeros((n, g))
    secrecy[earners] = eta * rates[earners, :, [ctx.served.index(nodes[i]) for i in earners]]
    credit = ctx.jam_credit(eve, eve[:, :1], grid)
    jam = np.where(jams[:, None], broadcast.pi * credit, 0.0)
    # each node's total leakage into the served nodes at every grid power
    own_leak = grid * ctx.jam_to_thn[nodes].sum(axis=1)[:, None]
    return (secrecy - cost * grid - broadcast.tau * own_leak + jam,
            scored.feasible.reshape(n, g))


def best_response(nodes: list, powers: np.ndarray, broadcast: Broadcast,
                  ctx: SlotContext, spec: FeasibilitySpec, roles: dict, eta: float,
                  cost: float):
    """Utility-maximizing feasible power on spec.grid of every node id in `nodes`,
    each scored against the same profile, the others fixed.

    Returns (picks (N,), empty (N,)). Exact ties break toward lower power; a
    node with an empty feasible set falls back to zero power and is marked in
    `empty`. Nothing is logged: a sweep logs only the picks it accepts.
    """
    values, feas = _score_grid(nodes, powers, broadcast, ctx, spec, roles, eta, cost)
    empty = ~feas.any(axis=1)
    # argmax takes the first (lowest) tie among the feasible candidates
    best = np.argmax(np.where(feas, values, -np.inf), axis=1)
    return np.where(empty, 0.0, spec.grid[best]), empty


def sweep_best_responses(nodes, powers: np.ndarray, respond, max_sweeps: int):
    """Gauss-Seidel best-response sweeps over the node ids `nodes` in order,
    moving `powers` in place, until a sweep moves no node. Returns (sweeps
    run, pending): pending lists, in order, the node ids not scored since the
    last move. With none pending every node holds its pick against the final
    profile, an exact fixed point: after a sweep that moves no node, and also
    when the capped last sweep moved a node and then scored all the others.

    respond(block) returns or yields, in order, the pick of each node id in
    `block`, all scored against the current powers. A node's pick may depend
    on its own power only by keeping it (as when no candidate is feasible):
    scored again after its pick is taken, while no other node has moved, it
    must pick the power it holds.

    A node is scored at its turn only if some node has moved since it was
    last scored; otherwise its pick would be the power it holds. Up to
    SWEEP_BLOCK pending nodes are scored per block. Their picks are accepted
    in order up to and including the first that moves, and the sweep resumes
    after that node, so the rows after it (scored against a stale profile)
    are never read. The result equals scoring one node at a time.
    """
    seen = [-1] * len(nodes)    # the move count when each node was last scored
    version = 0                 # moves so far
    sweeps, quiet = 0, False
    while not quiet and sweeps < max_sweeps:
        sweeps += 1
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
        quiet = version == moves_before
    return sweeps, [u for u, last in zip(nodes, seen) if last != version]


@dataclass
class GneResult:
    powers: np.ndarray
    iterations: int
    gap: float          # equilibrium gap at the returned profile, over every node
    converged: bool


def equilibrium_gap(powers: np.ndarray, broadcast: Broadcast, ctx: SlotContext,
                    spec: FeasibilitySpec, roles: dict, eta: float, cost: float,
                    nodes) -> float:
    """Largest unilateral utility improvement on spec.grid that any node id in
    `nodes` can reach (the epsilon-equilibrium certificate), scanning those
    nodes' grids as one block; 0.0 when `nodes` is empty. Nodes with no
    feasible grid power are left out.

    Every power must be a grid point, as it is after any best-response sweep:
    node u's current utility is the row of its candidate block at powers[u].
    """
    powers = np.asarray(powers, dtype=float)
    on_grid = spec.grid == powers[:, None]
    off = np.flatnonzero(~on_grid.any(axis=1))
    if off.size:
        raise ValueError(f"node {off[0]}: power {powers[off[0]]} is not on the grid")
    nodes = list(nodes)
    if not nodes:
        return 0.0
    values, feas = _score_grid(nodes, powers, broadcast, ctx, spec, roles, eta, cost)
    current = values[np.arange(len(nodes)), on_grid[nodes].argmax(axis=1)]
    best = np.where(feas, values, -np.inf).max(axis=1)
    gains = (best - current)[feas.any(axis=1)]
    return max(0.0, float(gains.max())) if gains.size else 0.0


def gne_solve(roles: dict, powers: np.ndarray, broadcast: Broadcast, ctx: SlotContext,
              spec: FeasibilitySpec, eta: float, cost: float,
              max_iters: int) -> GneResult:
    """Gauss-Seidel best-response sweeps from the start profile `powers` until
    a sweep moves no node: an exact fixed point on spec.grid.

    Every node shares the secrecy weight eta, the power cost per watt and the
    grid; an infeasible start profile restarts from zero. Sweep order is
    ascending node id, and a node is re-scored only after some node has moved
    (see sweep_best_responses). Returns the profile, sweep count, the
    equilibrium gap at the returned profile, and whether it is a fixed point:
    no node is left pending, which a sweep that moves no node ensures.

    The gap scores only the nodes the sweeps left pending. Every other node
    was last scored against the current profile and picked the power it
    holds, so its gain is exactly 0.0 (its rows score as they would in any
    block): the result equals equilibrium_gap over every node, and a
    converged solve scores no gap row.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if sorted(roles) != list(range(len(roles))):
        raise ValueError("role keys must be 0..K-1 and match the context rows")
    powers = np.array(powers, dtype=float)
    if not score_block(powers, [[]], [[]], ctx, spec).feasible[0]:
        powers = np.zeros_like(powers)

    def respond(block):
        # through the module global, so a wrapped best_response sees each block
        picks, empty = best_response(block, powers, broadcast, ctx, spec, roles,
                                     eta, cost)
        for u, pick, fell_back in zip(block, picks, empty):
            if fell_back:
                log.warning("node %d: no feasible grid power, falling back to 0", u)
            yield pick

    iterations, pending = sweep_best_responses(range(len(roles)), powers, respond,
                                               max_iters)
    converged = not pending
    if not converged:
        log.warning("best-response dynamics hit the iteration cap (%d sweeps)", max_iters)
    gap = equilibrium_gap(powers, broadcast, ctx, spec, roles, eta, cost, pending)
    return GneResult(powers, iterations, gap, converged)


def role_switch(rates: dict, threshold: float) -> dict:
    """JHN when the equilibrium secrecy rate falls strictly below the
    threshold, THN otherwise."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return {uid: (Role.JHN if r < threshold else Role.THN) for uid, r in rates.items()}
