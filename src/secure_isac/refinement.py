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
from .followers import FeasibilitySpec, feasible, trial_block
from .link import SlotContext

log = logging.getLogger(__name__)


@dataclass
class Coalition:
    """Jamming-role nodes assigned to one posterior peak."""

    member_ids: list
    target_angle_deg: float
    scale: float = 1.0


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


def form_coalitions(posteriors, jhn_bearings_deg: dict, peak_threshold: float,
                    assoc_width_deg: float):
    """Group jamming nodes by the nearest dominant posterior peak.

    Peaks come from the bin-wise maximum over the per-eavesdropper posteriors.
    A node joins its nearest peak only within the association width; the rest
    stay in an untouched reserve pool.
    """
    if not posteriors or not jhn_bearings_deg:
        return []
    grid = posteriors[0].grid_deg
    combined = np.max(np.stack([b.probs for b in posteriors]), axis=0)
    peaks = posterior_peaks(combined, grid, peak_threshold)
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


def leakage(powers, gains) -> float:
    """Interference power delivered to one victim: sum of P_k |h_k|^2."""
    return float(np.dot(np.asarray(powers, dtype=float), np.asarray(gains, dtype=float)))


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
    field_w: np.ndarray         # watts per grid angle at the given powers
    dropped_nulls: int = 0


def synthesize_field(coalitions, powers: dict, aim_deg: dict, null_deg: dict,
                     array_spec: ArraySpec, grid_deg: np.ndarray) -> FieldSynthesis:
    """Per-member aligned beams with protective nulls, and the resulting field.

    Each member steers toward its coalition aim angle, inserts nulls toward
    the protected bearings (dropping the farthest nulls if the set is
    infeasible), and is phase-referenced so member responses add coherently at
    the target. The field is the power-weighted sum of the member patterns
    over the bearing grid.
    """
    beams, gain_rows = {}, {}
    dropped = 0
    grid_rad = np.radians(grid_deg)
    steer_grid = np.stack([steering_vector(array_spec, a) for a in grid_rad])
    for coalition in coalitions:
        for jid in coalition.member_ids:
            aim = np.radians(aim_deg[jid])
            w = steering_vector(array_spec, aim)
            nulls = list(null_deg.get(jid, ()))
            nulls = nulls[: array_spec.num_elements - 1]
            while True:
                try:
                    beam = null_steer(w, [np.radians(a) for a in nulls], array_spec)
                    break
                except InfeasibleNullError:
                    nulls.pop()  # drop the farthest (lists come nearest-first)
                    dropped += 1
                    log.debug("node %d: dropped a protective null", jid)
            target = steering_vector(array_spec, aim)
            response = np.vdot(beam, target)  # w^H a(aim)
            if abs(response) > 0:
                beam = beam * np.exp(1j * np.angle(response))
            beams[jid] = beam
            gain_rows[jid] = np.abs(steer_grid.conj() @ beam) ** 2
    size = grid_deg.shape[0]
    field_w = np.zeros(size)
    for jid, row in gain_rows.items():
        field_w += powers.get(jid, 0.0) * row
    return FieldSynthesis(beams, gain_rows, field_w, dropped)


def coalition_refine(coalition: Coalition, powers: np.ndarray, ctx: SlotContext,
                     p_maxes: np.ndarray, p_fj_max: float, xi_max: float,
                     j_min: float, field_gains: dict, posterior_probs: np.ndarray,
                     rate_floor: float = 0.0, grid_points: int = 21,
                     max_rounds: int = 8, power_penalty_per_w: float = 1e-3):
    """Re-optimize coalition member powers for aggregate served secrecy.

    Members move on their power grids subject to the box, aggregate budget,
    per-victim leakage cap, a served-rate floor, and the posterior-weighted
    shaping bound. A small per-watt penalty suppresses redundant or
    low-impact jammers, which also preserves the shared budget for coalitions
    facing stronger adversaries. Coalitions of one or two members are solved
    exactly by enumeration; larger ones by coordinate ascent. If the shaping
    bound is unreachable it is relaxed to the best achievable level and
    flagged.

    Returns (new power vector, rounds, relaxed flag).
    """
    ids = np.array(coalition.member_ids, dtype=int)
    if ids.size == 0:
        raise ValueError("empty coalition")
    powers = np.array(powers, dtype=float)
    spec = FeasibilitySpec(p_fj_max=p_fj_max, xi_max=xi_max)
    gains_matrix = np.stack([field_gains[j] for j in ids])    # (|C|, grid)
    shaping_weights = gains_matrix @ posterior_probs          # (|C|,)
    grids = [np.linspace(0.0, p_maxes[j], grid_points) for j in ids]

    current_rates = ctx.rates(powers)
    floor_eff = min(rate_floor, float(current_rates.min())) if current_rates.size else 0.0

    def score(trial):
        """Feasibility (rate floor included), objective and shaping test of
        every profile in a (M, K) block."""
        rates = ctx.rates(trial)
        ok = feasible(trial, spec, p_maxes, ctx)
        if floor_eff > 0:
            ok &= rates.min(axis=-1) >= floor_eff - 1e-12
        member = trial[:, ids]
        objective = rates.sum(axis=-1) - power_penalty_per_w * member.sum(axis=-1)
        return ok, objective, member @ shaping_weights >= j_min - 1e-15

    relaxed = False
    if ids.size <= 2:
        combos = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")],
                          axis=1)
        trial = np.tile(powers, (combos.shape[0], 1))
        trial[:, ids] = combos
        ok, objective, shaped = score(trial)
        if not ok.any():
            return powers, 0, True
        combos, objective, shaped = combos[ok], objective[ok], shaped[ok]
        # combos are ascending, so the first occurrence of a (near-)maximal
        # objective is the lowest-power optimum: no watts spent on ties
        if shaped.any():
            idx = np.flatnonzero(shaped)
            vals = objective[shaped]
            pick = int(idx[np.flatnonzero(vals >= vals.max() - 1e-9)[0]])
        else:
            relaxed = j_min > 0
            pick = int(np.flatnonzero(objective >= objective.max() - 1e-9)[0])
        powers[ids] = combos[pick]
        return powers, 1, relaxed

    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        moved = False
        for slot_i, jid in enumerate(ids):
            ok, objective, shaped = score(trial_block(jid, powers, grids[slot_i]))
            best_val = -np.inf
            best_p = powers[jid]
            found_shaped = False
            for p, p_ok, value, meets in zip(grids[slot_i], ok, objective, shaped):
                if not p_ok:
                    continue
                if meets and not found_shaped:
                    found_shaped = True
                    best_val = -np.inf  # restart preference on shaped candidates
                if found_shaped and not meets:
                    continue
                # require a real improvement so ties stay at lower power
                if value > best_val + 1e-9:
                    best_val = value
                    best_p = p
            if not found_shaped and j_min > 0:
                relaxed = True
            if best_p != powers[jid]:
                powers[jid] = best_p
                moved = True
        if not moved:
            break
    return powers, rounds, relaxed


@dataclass
class RefinementResult:
    powers: np.ndarray
    beams: dict
    field_w: np.ndarray
    coalitions: list
    iterations: int
    relaxed: bool
    sum_secrecy: float
    scale: float = 1.0
    improvements: list = field(default_factory=list)


def refinement_loop(posteriors, jhn_bearings_deg: dict, aim_deg: dict,
                    null_deg: dict, powers: np.ndarray, ctx: SlotContext,
                    context_builder, array_spec: ArraySpec, grid_deg: np.ndarray,
                    p_maxes: np.ndarray, p_fj_max: float, xi_max: float,
                    peak_threshold: float, assoc_width_deg: float,
                    j_min_fraction: float = 0.1, rate_floor: float = 0.0,
                    delta_stop: float = 0.01, max_iters: int = 10,
                    grid_points: int = 21,
                    power_penalty_per_w: float = 1e-3) -> RefinementResult:
    """Iterate coalition formation, power refinement, and field synthesis
    until the aggregate-secrecy improvement falls below the stopping
    threshold. Iterations that would reduce aggregate secrecy are rejected,
    so the accepted improvement sequence is nonnegative.

    context_builder(beams) must return a SlotContext with jamming rows
    re-evaluated for the given per-node transmit patterns.
    """
    if delta_stop <= 0:
        raise ValueError("delta_stop must be > 0")
    powers = np.array(powers, dtype=float)
    base_rates = ctx.rates(powers)
    best_sum = float(base_rates.sum())
    min_floor = min(rate_floor, float(base_rates.min())) if base_rates.size else 0.0
    pre_jam_power = powers.sum()
    best = RefinementResult(powers.copy(), {}, np.zeros(grid_deg.shape[0]), [],
                            0, False, best_sum)
    coalitions = form_coalitions(posteriors, jhn_bearings_deg, peak_threshold,
                                 assoc_width_deg)
    if not coalitions:
        return best
    posterior = _combined_posterior(posteriors)
    relaxed = False
    improvements = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        synth = synthesize_field(coalitions, {j: powers[j] for j in jhn_bearings_deg},
                                 aim_deg, null_deg, array_spec, grid_deg)
        trial_ctx = context_builder(synth.beams)
        trial_powers = powers.copy()
        for coalition in coalitions:
            baseline = shaping_energy(
                np.sum([trial_powers[j] * synth.gain_rows[j]
                        for j in coalition.member_ids], axis=0),
                posterior)
            j_min = j_min_fraction * baseline
            trial_powers, _, was_relaxed = coalition_refine(
                coalition, trial_powers, trial_ctx, p_maxes, p_fj_max, xi_max,
                j_min, synth.gain_rows, posterior,
                rate_floor=rate_floor, grid_points=grid_points,
                power_penalty_per_w=power_penalty_per_w)
            relaxed = relaxed or was_relaxed
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
        for coalition in coalitions:
            pre = pre_jam_power if pre_jam_power > 0 else 1.0
            coalition.scale = float(powers[list(coalition.member_ids)].sum()
                                    / max(pre, 1e-12))
        best = RefinementResult(powers.copy(), synth.beams, field_w, coalitions,
                                iterations, relaxed, new_sum)
        improvements.append(delta)
        best_sum = new_sum
        if delta < delta_stop:
            break
    best.improvements = improvements
    jam_now = best.powers.sum()
    best.scale = float(jam_now / pre_jam_power) if pre_jam_power > 0 else 1.0
    best.iterations = iterations
    return best


def _combined_posterior(posteriors) -> np.ndarray:
    combined = np.max(np.stack([b.probs for b in posteriors]), axis=0)
    total = combined.sum()
    return combined / total if total > 0 else combined
