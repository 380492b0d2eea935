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

from .arrays import ArraySpec, InfeasibleNullError, null_steer, steering_vector
from .followers import FeasibilitySpec, candidate_block, sweep_best_responses, trial_block
from .link import SlotContext

log = logging.getLogger(__name__)

MAX_ROUNDS = 8  # coordinate-ascent sweeps per coalition_refine call


@dataclass
class Coalition:
    """Jamming-role nodes assigned to one posterior peak."""

    member_ids: list
    target_angle_deg: float


def posterior_peaks(probs: np.ndarray, grid_deg: np.ndarray, threshold: float):
    """Bearings of local posterior maxima above the threshold."""
    peaks = []
    for i in range(probs.shape[0]):
        if probs[i] < threshold:
            continue
        left = probs[i - 1] if i > 0 else -np.inf
        right = probs[i + 1] if i + 1 < probs.shape[0] else -np.inf
        if probs[i] > left and probs[i] >= right:
            peaks.append(float(grid_deg[i]))
    return peaks


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


def ray_aim(node_pos: np.ndarray, peak_bearing_deg: float, spec: ArraySpec,
            radii: tuple, height_m: float, exponent: float,
            num_samples: int = 7) -> float:
    """Aim angle maximizing expected delivered power along the bearing ray.

    The posterior fixes only the adversary's bearing from the base station,
    so the jammer at node_pos scores candidate aims against range samples
    over radii = (r_min, r_max) along that ray, at height_m, weighted by its
    own path loss (exponent) to each sample point.
    """
    theta = np.radians(peak_bearing_deg)
    ranges = np.linspace(radii[0], radii[1], num_samples)
    points = np.stack([ranges * np.cos(theta), ranges * np.sin(theta),
                       np.full(num_samples, height_m)], axis=1)
    d = points - node_pos
    bearings = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    dists = np.maximum(np.linalg.norm(d, axis=1), 1.0)
    # a sample at BS range r needs suppression proportional to its stream
    # capture (~r^-n); the jammer delivers ~d^-n * pattern, so the quality of
    # an aim at a sample is pattern * (r/d)^n. Pick the aim with the best
    # worst-case quality over the ray.
    need_ratio = (ranges / dists) ** exponent
    steers = steering_vector(spec, np.radians(bearings))
    # einsum, not a BLAS product, so the aim does not depend on the thread count
    gains = np.abs(np.einsum("ci,si->cs", steers.conj(), steers)) ** 2
    scores = np.min(gains * need_ratio, axis=1)
    return float(bearings[int(np.argmax(scores))])   # first of tied aims


def protective_nulls(node: int, served, positions: np.ndarray,
                     bearings_deg: np.ndarray, spec: ArraySpec) -> list:
    """Bearings from `node` (its row of the link bearings) of the served
    nodes its beam protects: the nearest first, one fewer than its elements."""
    protected = sorted(served, key=lambda t: np.linalg.norm(positions[t] - positions[node]))
    return [bearings_deg[t] for t in protected[: spec.num_elements - 1]]


def shaping_energy(field_w: np.ndarray, posterior_probs: np.ndarray) -> float:
    """Posterior-weighted jamming energy: inner product of belief and field."""
    if field_w.shape != posterior_probs.shape:
        raise ValueError(f"grid mismatch: field {field_w.shape} vs "
                         f"posterior {posterior_probs.shape}")
    return float(np.dot(posterior_probs, field_w))


@dataclass
class FieldSynthesis:
    beams: dict                 # node id -> unit-norm weights
    gain_rows: dict             # node id -> directional gain over the grid
    dropped_nulls: int = 0


def synthesize_field(coalitions, aim_deg: dict, null_deg: dict,
                     array_spec: ArraySpec, grid_deg: np.ndarray) -> FieldSynthesis:
    """Per-member aligned beams with protective nulls, and their gains over
    the bearing grid.

    Each member steers toward its coalition aim angle, inserts nulls toward
    the protected bearings (dropping the farthest nulls if the set is
    infeasible), and is phase-referenced so member responses add coherently at
    the target. The field at given powers is the power-weighted sum of the
    gain rows.
    """
    beams, gain_rows = {}, {}
    dropped = 0
    steer_grid = steering_vector(array_spec, np.radians(grid_deg))
    for coalition in coalitions:
        for jid in coalition.member_ids:
            target = steering_vector(array_spec, np.radians(aim_deg[jid]))
            nulls = list(null_deg.get(jid, ()))
            nulls = nulls[: array_spec.num_elements - 1]
            while True:
                try:
                    beam = null_steer(target, [np.radians(a) for a in nulls], array_spec)
                    break
                except InfeasibleNullError:
                    nulls.pop()  # drop the farthest (lists come nearest-first)
                    dropped += 1
                    log.debug("node %d: dropped a protective null", jid)
            response = np.vdot(beam, target)  # w^H a(aim)
            if abs(response) > 0:
                beam = beam * np.exp(1j * np.angle(response))
            beams[jid] = beam
            gain_rows[jid] = np.abs(steer_grid.conj() @ beam) ** 2
    return FieldSynthesis(beams, gain_rows, dropped)


def coalition_refine(coalition: Coalition, powers: np.ndarray, ctx: SlotContext,
                     spec: FeasibilitySpec, j_min: float, field_gains: dict,
                     posterior_probs: np.ndarray, rate_floor: float = 0.0,
                     power_penalty_per_w: float = 1e-3) -> np.ndarray:
    """Re-optimize coalition member powers for aggregate served secrecy.

    Members move on spec.grid subject to the box, aggregate budget and
    per-victim leakage cap of `spec`, a served-rate floor, and the
    posterior-weighted shaping bound. A small per-watt penalty suppresses
    redundant or low-impact jammers, which also preserves the shared budget
    for coalitions facing stronger adversaries. Coalitions of one or two
    members are solved exactly by enumeration, and keep their powers when no
    combination is feasible; larger ones by coordinate ascent in the power
    game's block sweeps (followers.sweep_best_responses), at most MAX_ROUNDS
    sweeps. Where the shaping bound is unreachable, the best feasible
    candidates are taken without it.

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

    current_rates = ctx.rates(powers)
    floor_eff = min(rate_floor, float(current_rates.min())) if current_rates.size else 0.0

    def score(trial):
        """Feasibility (rate floor included), objective and shaping test of
        every profile in a (M, K) block."""
        leak = ctx.leakage_at_served(trial)
        rates = ctx.rates_from(leak, ctx.eve_rate_max(trial))
        ok = spec.admits(trial, leak)
        if floor_eff > 0:
            ok &= rates.min(axis=-1) >= floor_eff - 1e-12
        member = trial[:, ids]
        objective = rates.sum(axis=-1) - power_penalty_per_w * member.sum(axis=-1)
        return ok, objective, np.einsum("mc,c->m", member, shaping_weights) >= j_min - 1e-15

    if ids.size <= 2:
        combos = np.stack([g.ravel() for g in np.meshgrid(*[grid] * ids.size,
                                                          indexing="ij")], axis=1)
        ok, objective, shaped = score(trial_block(ids, powers, combos))
        if not ok.any():
            return powers
        combos, objective, shaped = combos[ok], objective[ok], shaped[ok]
        if shaped.any():    # otherwise the shaping bound is unreachable: drop it
            combos, objective = combos[shaped], objective[shaped]
        # combos are ascending, so the first occurrence of a (near-)maximal
        # objective is the lowest-power optimum: no watts spent on ties
        powers[ids] = combos[np.flatnonzero(objective >= objective.max() - 1e-9)[0]]
        return powers

    def respond(block):
        rows = [a.reshape(len(block), -1)
                for a in score(candidate_block(block, powers, grid))]
        for jid, ok, objective, shaped in zip(block, *rows):
            yield _ascent_pick(grid, ok, objective, shaped, powers[jid])

    sweep_best_responses(ids, powers, respond, MAX_ROUNDS)
    return powers


def _ascent_pick(grid, ok, objective, shaped, current):
    """One member's coordinate-ascent pick over its feasible grid powers:
    shaped candidates first if any is feasible, else every feasible one; a
    pick must beat the running best by 1e-9, so ties stay at lower power.
    The member keeps `current` when nothing is feasible."""
    shaped_ok = ok & shaped
    keep = shaped_ok if shaped_ok.any() else ok
    best_val, best_p = -np.inf, current
    for p, value in zip(grid[keep], objective[keep]):
        if value > best_val + 1e-9:
            best_val, best_p = value, p
    return best_p


@dataclass
class RefinementResult:
    powers: np.ndarray
    beams: dict
    field_w: np.ndarray
    coalitions: list
    iterations: int
    sum_secrecy: float
    ctx: SlotContext        # context of the accepted beams (the input if none)
    improvements: list = field(default_factory=list)


def refinement_loop(coalitions, posterior: np.ndarray, aim_deg: dict, null_deg: dict,
                    powers: np.ndarray, ctx: SlotContext, context_builder,
                    array_spec: ArraySpec, grid_deg: np.ndarray,
                    spec: FeasibilitySpec, j_min_fraction: float = 0.1,
                    rate_floor: float = 0.0, delta_stop: float = 0.01,
                    max_iters: int = 10,
                    power_penalty_per_w: float = 1e-3) -> RefinementResult:
    """Synthesize the coalitions' beams, then iterate power refinement under
    them until the aggregate-secrecy improvement falls below the stopping
    threshold. Iterations that would reduce aggregate secrecy are rejected,
    so the accepted improvement sequence is nonnegative.

    `posterior` is the normalized combined eavesdropper bearing posterior over
    `grid_deg`; aims and nulls are needed for coalition members only.
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
    best = RefinementResult(powers.copy(), {}, np.zeros(grid_deg.shape[0]), [],
                            0, best_sum, ctx)
    if not coalitions:
        return best
    # beams depend only on the aims and nulls, so one synthesis serves every
    # iteration
    synth = synthesize_field(coalitions, aim_deg, null_deg, array_spec, grid_deg)
    trial_ctx = context_builder(synth.beams)
    improvements = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        trial_powers = powers.copy()
        for coalition in coalitions:
            baseline = shaping_energy(
                np.sum([trial_powers[j] * synth.gain_rows[j]
                        for j in coalition.member_ids], axis=0),
                posterior)
            trial_powers = coalition_refine(
                coalition, trial_powers, trial_ctx, spec,
                j_min_fraction * baseline, synth.gain_rows, posterior,
                rate_floor=rate_floor, power_penalty_per_w=power_penalty_per_w)
        new_rates = trial_ctx.rates(trial_powers)
        new_sum = float(new_rates.sum())
        delta = new_sum - best_sum
        if delta < 0 or (new_rates.size and new_rates.min() < min_floor - 1e-12):
            break  # rejected: keep the best accepted state
        powers = trial_powers
        field_w = np.zeros(grid_deg.shape[0])
        for coalition in coalitions:
            for j in coalition.member_ids:
                field_w += powers[j] * synth.gain_rows[j]
        best = RefinementResult(powers.copy(), synth.beams, field_w, coalitions,
                                iterations, new_sum, trial_ctx)
        improvements.append(delta)
        best_sum = new_sum
        if delta < delta_stop:
            break
    best.improvements = improvements
    best.iterations = iterations
    return best
