"""Cooperative jamming refinement.

After the power game settles, jamming-role nodes near the dominant peaks of
the eavesdropper bearing posterior form coalitions, re-aim their beams at the
peaks with protective nulls toward the served nodes, and re-optimize their
powers for aggregate secrecy under leakage, budget, QoS-floor, and
posterior-weighted shaping constraints. Iterations that do not improve the
aggregate secrecy are rejected, so the refined slot is never worse than its
starting point.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArraySpec, null_steer, steering_vector
from .followers import FeasibilitySpec, score_block, sweep_best_responses
from .link import SlotContext

log = logging.getLogger(__name__)

MAX_ROUNDS = 8  # coordinate-ascent sweeps per coalition_refine call
RAY_SAMPLES = 7  # range samples along a bearing ray per ray_aim call


@dataclass
class Coalition:
    """Jamming-role nodes assigned to one posterior peak."""

    member_ids: list
    target_angle_deg: float


def posterior_peaks(probs: np.ndarray, grid_deg: np.ndarray, threshold: float):
    """Bearings of local posterior maxima above the threshold: a point at
    least the threshold, above its left neighbour and not below its right
    one (the grid ends count as -inf neighbours)."""
    left = np.concatenate(([-np.inf], probs[:-1]))
    right = np.concatenate((probs[1:], [-np.inf]))
    peak = (probs >= threshold) & (probs > left) & (probs >= right)
    return [float(g) for g in grid_deg[peak]]


def form_coalitions(peaks, jhn_bearings_deg: dict, assoc_width_deg: float):
    """Group jamming nodes by the nearest dominant posterior peak.

    A node joins its nearest peak only within the association width; the rest
    stay in an untouched reserve pool.
    """
    if not peaks:
        return []
    members = {p: [] for p in peaks}
    for jid in sorted(jhn_bearings_deg):
        bearing = jhn_bearings_deg[jid]
        nearest = min(peaks, key=lambda p: abs(p - bearing))
        if abs(nearest - bearing) <= assoc_width_deg:
            members[nearest].append(jid)
    return [Coalition(member_ids=ids, target_angle_deg=p)
            for p, ids in members.items() if ids]


def ray_aim(node_pos: np.ndarray, peak_bearing_deg, spec: ArraySpec,
            radii: tuple, height_m: float, exponent: float) -> np.ndarray:
    """Aim angles (M,) maximizing expected delivered power along the bearing
    rays, one per row of node positions (M, 3) and peak bearings (M,).

    The posterior fixes only the adversary's bearing from the base station,
    so each jammer scores candidate aims against RAY_SAMPLES range samples
    over radii = (r_min, r_max) along its ray, at height_m, weighted by its
    own path loss (exponent) to each sample point. Every step is row-wise,
    so a row's aim does not depend on the other rows.
    """
    theta = np.radians(np.asarray(peak_bearing_deg, dtype=float))[:, None]
    ranges = np.linspace(radii[0], radii[1], RAY_SAMPLES)
    x, y = ranges * np.cos(theta), ranges * np.sin(theta)           # (M, S)
    points = np.stack([x, y, np.full_like(x, height_m)], axis=-1)
    d = points - node_pos[:, None]                                   # (M, S, 3)
    bearings = np.degrees(np.arctan2(d[..., 1], d[..., 0]))
    dists = np.maximum(np.linalg.norm(d, axis=-1), 1.0)
    # a sample at BS range r needs suppression proportional to its stream
    # capture (~r^-n); the jammer delivers ~d^-n * pattern, so the quality of
    # an aim at a sample is pattern * (r/d)^n. Pick the aim with the best
    # worst-case quality over the ray.
    need_ratio = (ranges / dists) ** exponent
    steers = steering_vector(spec, np.radians(bearings))
    # einsum, not a BLAS product, so the aim does not depend on the thread count
    gains = np.abs(np.einsum("mci,msi->mcs", steers.conj(), steers)) ** 2
    scores = np.min(gains * need_ratio[:, None], axis=2)
    best = np.argmax(scores, axis=1)   # first of tied aims
    return bearings[np.arange(len(best)), best]


def protective_nulls(nodes, served, positions: np.ndarray, spec: ArraySpec) -> np.ndarray:
    """The served nodes each node's beam protects (M, U): the nearest first,
    one fewer than its elements."""
    served = np.asarray(served, dtype=int)
    distance = np.linalg.norm(positions[served] - positions[np.asarray(nodes)][:, None], axis=2)
    return served[np.argsort(distance, axis=1, kind="stable")[:, : spec.num_elements - 1]]


def shaping_energy(field_w: np.ndarray, posterior_probs: np.ndarray) -> float:
    """Posterior-weighted jamming energy: inner product of belief and field."""
    if field_w.shape != posterior_probs.shape:
        raise ValueError(f"grid mismatch: field {field_w.shape} vs "
                         f"posterior {posterior_probs.shape}")
    return float(np.einsum("g,g->", posterior_probs, field_w))


def jamming_field(powers: np.ndarray, members: list, gain_rows: dict) -> np.ndarray:
    """The members' jamming field over the bearing grid: their gain rows
    weighted by their powers and summed."""
    return np.einsum("c,cg->g", powers[members], np.stack([gain_rows[j] for j in members]))


@dataclass(frozen=True, eq=False)
class JammingBeam:
    """A member's beam aligned at its aim with protective nulls, its
    directional gain over the bearing grid, and how many of the requested
    nulls it dropped."""

    weights: np.ndarray         # (n,) unit-norm weights
    gain_row: np.ndarray        # (G,) |a(grid)^H w|^2
    dropped_nulls: int


def aligned_beam(aim_deg, null_steering: np.ndarray, array_spec: ArraySpec,
                 grid_steer_conj: np.ndarray) -> list:
    """The JammingBeams that steer toward the aims aim_deg (M,), each with
    protective nulls along its row of the null steering (M, U, n; nearest
    first, U < n), and that are phase-referenced so that beams aimed alike
    add coherently at the target; their gains over the grid from the
    conjugated grid steering (G, n).

    A row whose null set leaves no usable beam drops its farthest null until
    it is feasible. Every step runs over all rows at once, so each row is
    the beam a one-row call gives.
    """
    targets = steering_vector(array_spec, np.radians(np.asarray(aim_deg, dtype=float)))
    weights, feasible = null_steer(targets, null_steering)
    dropped = np.zeros(len(targets), dtype=int)
    retry, kept = np.flatnonzero(~feasible), null_steering.shape[1]
    while retry.size:
        kept -= 1      # drop the farthest null (lists come nearest-first)
        dropped[retry] += 1
        weights[retry], feasible = null_steer(targets[retry], null_steering[retry, :kept])
        retry = retry[~feasible]
    for i in np.flatnonzero(dropped):
        log.debug("aim %.2f deg: dropped %d protective nulls", aim_deg[i], dropped[i])
    # w^H a(aim) is positive in exact arithmetic (the projection is
    # idempotent), so every beam takes its phase
    response = np.einsum("mn,mn->m", weights.conj(), targets)
    weights = weights * np.exp(1j * np.angle(response))[:, None]
    gains = np.abs(np.einsum("gn,mn->mg", grid_steer_conj, weights)) ** 2
    return [JammingBeam(w, gain, count)
            for w, gain, count in zip(weights, gains, dropped.tolist())]


@dataclass
class FieldSynthesis:
    beams: dict                 # node id -> unit-norm weights
    gain_rows: dict             # node id -> directional gain over the grid


def synthesize_field(coalitions, beams_of) -> FieldSynthesis:
    """Per-member aligned beams with protective nulls, and their gains over
    the bearing grid.

    One call beams_of(members, targets) returns every member's JammingBeam,
    in member order, from the members and their coalitions' target bearings
    (Scenario.jamming_beams: aligned_beam at the member's ray aim, with nulls
    toward the served nodes it protects). The field at given powers is
    jamming_field of the gain rows.
    """
    members = [jid for coalition in coalitions for jid in coalition.member_ids]
    targets = [c.target_angle_deg for c in coalitions for _ in c.member_ids]
    beams = beams_of(members, targets)
    return FieldSynthesis({j: b.weights for j, b in zip(members, beams)},
                          {j: b.gain_row for j, b in zip(members, beams)})


def coalition_refine(coalition: Coalition, powers: np.ndarray, ctx: SlotContext,
                     spec: FeasibilitySpec, j_min: float, field_gains: dict,
                     posterior_probs: np.ndarray, rate_floor: float,
                     power_penalty_per_w: float) -> np.ndarray:
    """Re-optimize coalition member powers for aggregate served secrecy.

    Members move on spec.grid subject to the box, aggregate budget and
    per-victim leakage cap of `spec`, the served-rate floor rate_floor (none
    where it is 0; refinement_loop lowers it to the start's lowest rate), and
    the posterior-weighted shaping bound. A small per-watt penalty suppresses
    redundant or low-impact jammers, which also preserves the shared budget
    for coalitions facing stronger adversaries. Coalitions of one or two
    members are solved exactly by enumeration; larger ones by coordinate
    ascent in the power game's block sweeps (followers.sweep_best_responses),
    at most MAX_ROUNDS sweeps. Both take one pick rule (_pick): members keep
    their powers when no candidate is feasible, and where the shaping bound
    is unreachable, the best feasible candidates are taken without it.

    Returns the new power vector.
    """
    ids = np.array(coalition.member_ids, dtype=int)
    if ids.size == 0:
        raise ValueError("empty coalition")
    powers = np.array(powers, dtype=float)
    gains_matrix = np.stack([field_gains[j] for j in ids])    # (|C|, grid)
    # einsum, not BLAS: a member's shaping test must score the same in any
    # block and at any thread count
    shaping_weights = np.einsum("cg,g->c", gains_matrix, posterior_probs)   # (|C|,)
    grid = spec.grid

    def score(moved, values):
        """Feasibility (rate floor included), objective and shaping test of
        every row of the score_block block that moves `moved` to `values`."""
        block, _, _, rates, ok = score_block(powers, moved, values, ctx, spec)
        if rate_floor > 0:
            ok &= rates.min(axis=-1) >= rate_floor - 1e-12
        member = block[:, ids]
        objective = rates.sum(axis=-1) - power_penalty_per_w * member.sum(axis=-1)
        return ok, objective, np.einsum("mc,c->m", member, shaping_weights) >= j_min - 1e-15

    if ids.size <= 2:
        combos = np.stack([g.ravel() for g in np.meshgrid(*[grid] * ids.size,
                                                          indexing="ij")], axis=1)
        ok, objective, shaped = score(ids[None], combos)
        powers[ids] = _pick(combos, ok[None], objective[None], shaped[None],
                            powers[ids][None])[0]
        return powers

    def respond(block):
        rows = score(np.reshape(block, (len(block), 1)), grid[:, None])
        ok, objective, shaped = (a.reshape(len(block), -1) for a in rows)
        return _pick(grid, ok, objective, shaped, powers[block])

    sweep_best_responses(ids, powers, respond, MAX_ROUNDS)
    return powers


def _pick(rows, ok, objective, shaped, current):
    """Each of N movers' pick among the G candidates `rows` (ascending
    powers, one row per candidate), from its row of the (N, G) feasibility,
    objective and shaping test: among its shaped candidates if any is
    feasible, else among every feasible one (the shaping bound is
    unreachable), the first whose objective is within 1e-9 of the best, so
    near-ties spend no extra watts; its row of `current` (N, ...) when
    nothing is feasible. Returns (N, ...)."""
    shaped_ok = ok & shaped
    keep = np.where(shaped_ok.any(axis=1, keepdims=True), shaped_ok, ok)
    best = np.where(keep, objective, -np.inf).max(axis=1, keepdims=True)
    first = (keep & (objective >= best - 1e-9)).argmax(axis=1)
    found = keep.any(axis=1).reshape((-1,) + (1,) * (rows.ndim - 1))
    return np.where(found, rows[first], current)


@dataclass
class RefinementResult:
    powers: np.ndarray
    beams: dict
    field_w: np.ndarray
    coalitions: list
    iterations: int
    ctx: SlotContext        # context of the accepted beams (the input if none)
    improvements: list = field(default_factory=list)


def refinement_loop(coalitions, posterior: np.ndarray, powers: np.ndarray,
                    ctx: SlotContext, context_builder, beams_of, spec: FeasibilitySpec,
                    j_min_fraction: float, rate_floor: float, delta_stop: float,
                    max_iters: int, power_penalty_per_w: float) -> RefinementResult:
    """Synthesize the coalitions' beams, then iterate power refinement under
    them until the aggregate-secrecy improvement falls below the stopping
    threshold. Iterations that would reduce aggregate secrecy, break the
    rate floor or leave a profile that spec does not admit under the new
    beams are rejected, so the accepted improvement sequence is nonnegative
    and every accepted profile is feasible.

    `posterior` is the normalized combined eavesdropper bearing posterior over
    the bearing grid; beams_of builds the members' beams (see
    synthesize_field).
    context_builder(beams) must return a SlotContext with jamming rows
    re-evaluated for the given per-node transmit patterns; the result carries
    the context of the accepted beams.
    """
    if delta_stop <= 0:
        raise ValueError("delta_stop must be > 0")
    powers = np.array(powers, dtype=float)
    base_rates = ctx.rates(powers)
    best_sum = float(base_rates.sum())
    min_floor = min(rate_floor, float(base_rates.min())) if base_rates.size else 0.0
    best = RefinementResult(powers.copy(), {}, np.zeros(posterior.shape[0]), [], 0, ctx)
    if not coalitions:
        return best
    # the beams do not depend on the powers, so one synthesis serves every
    # iteration
    synth = synthesize_field(coalitions, beams_of)
    trial_ctx = context_builder(synth.beams)
    improvements = []
    iterations = 0
    # the served rates of `powers` under the new beams
    rates = trial_ctx.rates(powers)
    for _ in range(max_iters):
        iterations += 1
        trial_powers, trial_rates = powers.copy(), rates
        for coalition in coalitions:
            baseline = shaping_energy(
                jamming_field(trial_powers, coalition.member_ids, synth.gain_rows),
                posterior)
            # the floor, lowered to the start's lowest rate, keeps the
            # start feasible
            refined = coalition_refine(
                coalition, trial_powers, trial_ctx, spec,
                j_min_fraction * baseline, synth.gain_rows, posterior,
                rate_floor=(min(rate_floor, float(trial_rates.min()))
                            if trial_rates.size else 0.0),
                power_penalty_per_w=power_penalty_per_w)
            # a coalition that moved nothing leaves the rates as they are
            if not np.array_equal(refined, trial_powers):
                trial_rates = trial_ctx.rates(refined)
            trial_powers = refined
        # the new beams move every node's leakage, so the profile is scored
        # for the caps as well as for secrecy and the rate floor
        scored = score_block(trial_powers, [[]], [[]], trial_ctx, spec)
        new_rates = scored.rates[0]
        new_sum = float(new_rates.sum())
        delta = new_sum - best_sum
        if (delta < 0 or not scored.feasible[0]
                or (new_rates.size and new_rates.min() < min_floor - 1e-12)):
            break  # rejected: keep the best accepted state
        powers, rates = trial_powers, new_rates
        field_w = jamming_field(powers, [j for c in coalitions for j in c.member_ids],
                                synth.gain_rows)
        best = RefinementResult(powers.copy(), synth.beams, field_w, coalitions,
                                iterations, trial_ctx)
        improvements.append(delta)
        best_sum = new_sum
        if delta < delta_stop:
            break
    best.improvements = improvements
    best.iterations = iterations
    return best
