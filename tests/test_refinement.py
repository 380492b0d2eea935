import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secure_isac.arrays import ArraySpec, array_gain, steering_vector
from secure_isac.belief import BeliefState, default_grid
from secure_isac.followers import FeasibilitySpec, trial_block
from secure_isac.link import SlotContext
from secure_isac.refinement import (
    MAX_ROUNDS,
    Coalition,
    coalition_refine,
    form_coalitions,
    posterior_peaks,
    refinement_loop,
    shaping_energy,
    synthesize_field,
)

GRID = default_grid()
HN_SPEC = ArraySpec.half_wavelength(16, 299792458.0 / 28e9)


def peaked_belief(center_deg, width=2.0, sigma=5.0, eve_id=0):
    probs = np.exp(-0.5 * ((GRID - center_deg) / width) ** 2)
    return BeliefState(GRID, probs / probs.sum(), sigma, eve_id)


def uniform_belief():
    return BeliefState(GRID, np.full(181, 1 / 181), 5.0)


def peaks_of(beliefs, threshold=2 / 181):
    """Peaks of the bin-wise maximum over the per-eavesdropper posteriors."""
    return posterior_peaks(np.max(np.stack([b.probs for b in beliefs]), axis=0),
                           GRID, threshold)


class TestFormCoalitions:
    def test_single_peak_gathers_all(self):
        cos = form_coalitions(peaks_of([peaked_belief(30.0)]),
                              {1: 28.0, 2: 33.0, 3: 41.0}, assoc_width_deg=15.0)
        assert len(cos) == 1
        assert sorted(cos[0].member_ids) == [1, 2, 3]
        assert cos[0].target_angle_deg == pytest.approx(30.0, abs=1.0)

    def test_uniform_posterior_no_coalitions(self):
        cos = form_coalitions(peaks_of([uniform_belief()]), {1: 0.0}, 15.0)
        assert cos == []

    def test_two_peaks_disjoint(self):
        beliefs = [peaked_belief(-40.0, eve_id=0), peaked_belief(40.0, eve_id=1)]
        bearings = {1: -42.0, 2: -38.0, 3: 39.0, 4: 44.0}
        cos = form_coalitions(peaks_of(beliefs), bearings, 15.0)
        assert len(cos) == 2
        all_members = [m for c in cos for m in c.member_ids]
        assert sorted(all_members) == [1, 2, 3, 4]
        assert len(set(all_members)) == 4  # disjoint
        by_target = {round(c.target_angle_deg): sorted(c.member_ids) for c in cos}
        assert by_target[-40] == [1, 2]
        assert by_target[40] == [3, 4]

    def test_far_jhn_left_in_reserve(self):
        cos = form_coalitions(peaks_of([peaked_belief(0.0)]), {1: 1.0, 2: 80.0}, 15.0)
        assert len(cos) == 1
        assert cos[0].member_ids == [1]

    def test_no_jhns(self):
        assert form_coalitions(peaks_of([peaked_belief(0.0)]), {}, 15.0) == []

    def test_takes_peaks_directly(self):
        cos = form_coalitions([-40.0, 40.0], {1: -45.0, 2: 30.0, 3: 0.0}, 15.0)
        assert [(c.target_angle_deg, c.member_ids) for c in cos] == [(-40.0, [1]),
                                                                     (40.0, [2])]
        assert form_coalitions([], {1: 0.0}, 15.0) == []

    def test_peak_detection(self):
        probs = np.full(181, 1e-4)
        probs[50] = 0.3
        probs[120] = 0.4
        probs /= probs.sum()
        peaks = posterior_peaks(probs, GRID, 0.01)
        assert peaks == [float(GRID[50]), float(GRID[120])]


class TestShaping:
    def test_uniform_posterior_gives_mean(self):
        field = np.linspace(0, 1, 181)
        post = np.full(181, 1 / 181)
        assert shaping_energy(field, post) == pytest.approx(field.mean())

    def test_delta_posterior_picks_value(self):
        field = np.linspace(0, 1, 181)
        post = np.zeros(181)
        post[60] = 1.0
        assert shaping_energy(field, post) == pytest.approx(field[60])

    def test_zero_field(self):
        assert shaping_energy(np.zeros(181), np.full(181, 1 / 181)) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            shaping_energy(np.zeros(180), np.full(181, 1 / 181))


def refine_ctx(jam_to_eve, jam_to_thn):
    return SlotContext(
        served=[0],
        sig_w=np.array([1e-9]),
        isi_w=np.array([0.0]),
        an_thn_w=np.array([0.0]),
        noise_w=1e-12,
        eve_capture_w=np.array([5e-10]),
        eve_an_w=np.array([2e-11]),
        jam_to_eve=np.asarray(jam_to_eve, dtype=float),
        jam_to_thn=np.asarray(jam_to_thn, dtype=float),
    )


FLAT_GAINS = {j: np.full(181, 0.5) for j in range(4)}
UNIFORM_POST = np.full(181, 1 / 181)


class TestCoalitionRefine:
    def test_harmful_jammer_silenced(self):
        # leakage dominates suppression: objective maximized by silence
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-15]], jam_to_thn=[[0.0], [1e-11]])
        powers = coalition_refine(
            Coalition([1], 0.0), np.array([0.0, 1.5]), ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0), j_min=0.0, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert powers[1] == 0.0

    def test_nulled_jammer_goes_to_max(self):
        # zero leakage, positive suppression: unopposed benefit
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-10]], jam_to_thn=[[0.0], [0.0]])
        powers = coalition_refine(
            Coalition([1], 0.0), np.array([0.0, 0.0]), ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0), j_min=0.0, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert powers[1] == pytest.approx(1.5)

    def test_matches_exhaustive_enumeration(self):
        # brute-force oracle on randomized two-jammer instances, 11-point grids
        rng = np.random.default_rng(12)
        for _ in range(50):
            j2e = rng.uniform(0, 2e-10, size=2)
            j2t = rng.uniform(0, 5e-13, size=2)
            xi_max = rng.uniform(1e-13, 1e-12)
            fj = rng.uniform(0.5, 3.0)
            ctx = refine_ctx(jam_to_eve=[[0.0], [j2e[0]], [j2e[1]]],
                             jam_to_thn=[[0.0], [j2t[0]], [j2t[1]]])
            start = np.zeros(3)
            got = coalition_refine(
                Coalition([1, 2], 0.0), start, ctx,
                FeasibilitySpec(p_max=1.5, p_fj_max=fj, xi_max=xi_max, grid_points=11),
                j_min=0.0, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
            # independent enumeration of the constrained objective; ties
            # within 1e-9 resolve to the lowest combo in ascending order
            grid = np.linspace(0, 1.5, 11)
            combos, vals = [], []
            for a in grid:
                for b in grid:
                    if a + b > fj + 1e-12:
                        continue
                    leak = a * j2t[0] + b * j2t[1]
                    if leak > xi_max * (1 + 1e-9):
                        continue
                    thn_sinr = 1e-9 / (1e-12 + leak)
                    eve_sinr = 5e-10 / (2e-11 + a * j2e[0] + b * j2e[1])
                    combos.append((a, b))
                    rate = max(0.0, np.log2(1 + thn_sinr) - np.log2(1 + eve_sinr))
                    vals.append(rate - 1e-3 * (a + b))
            vals = np.array(vals)
            best_combo = combos[int(np.flatnonzero(vals >= vals.max() - 1e-9)[0])]
            assert got[1] == pytest.approx(best_combo[0], abs=1e-15)
            assert got[2] == pytest.approx(best_combo[1], abs=1e-15)

    def test_unreachable_shaping_relaxes_and_flags(self):
        # no grid power meets the shaping bound, so the bound is dropped and
        # the unopposed jammer goes to max as if it were absent
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-10]], jam_to_thn=[[0.0], [0.0]])
        powers = coalition_refine(
            Coalition([1], 0.0), np.array([0.0, 0.0]), ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0), j_min=1e9, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert powers[1] == 1.5

    @pytest.mark.parametrize("members", [[1], [1, 2]])
    def test_no_feasible_combination_keeps_start(self, members):
        # node 3 alone overdraws the budget, so every member combination is
        # infeasible and the start profile (off the grid) comes back as is
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-10], [1e-10], [1e-10]],
                         jam_to_thn=np.zeros((4, 1)))
        start = np.array([0.0, 0.3, 0.7, 1.2])
        powers = coalition_refine(
            Coalition(members, 0.0), start, ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=1.0, xi_max=1.0), j_min=0.0,
            field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert np.array_equal(powers, start)


def reference_ascent(coalition, powers, ctx, spec, j_min, field_gains, posterior_probs,
                     rate_floor=0.0, power_penalty_per_w=1e-3):
    """The per-member coordinate ascent the block sweeps replaced, for
    coalitions of three or more: every member scored alone, at its turn, in
    every round, with the same einsum shaping test. Returns the powers."""
    ids = np.array(coalition.member_ids, dtype=int)
    powers = np.array(powers, dtype=float)
    gains_matrix = np.stack([field_gains[j] for j in ids])
    shaping_weights = np.einsum("cg,g->c", gains_matrix, posterior_probs)
    grid = np.linspace(0.0, spec.p_max, spec.grid_points)
    current_rates = ctx.rates(powers)
    floor_eff = min(rate_floor, float(current_rates.min())) if current_rates.size else 0.0

    def score(trial):
        leak = ctx.leakage_at_served(trial)
        rates = ctx.rates_from(leak, ctx.eve_rate_max(trial))
        ok = spec.admits(trial, leak)
        if floor_eff > 0:
            ok &= rates.min(axis=-1) >= floor_eff - 1e-12
        member = trial[:, ids]
        objective = rates.sum(axis=-1) - power_penalty_per_w * member.sum(axis=-1)
        return ok, objective, np.einsum("mc,c->m", member, shaping_weights) >= j_min - 1e-15

    for _ in range(MAX_ROUNDS):
        moved = False
        for jid in ids:
            ok, objective, shaped = score(trial_block(jid, powers, grid))
            best_val = -np.inf
            best_p = powers[jid]
            found_shaped = False
            for p, p_ok, value, meets in zip(grid, ok, objective, shaped):
                if not p_ok:
                    continue
                if meets and not found_shaped:
                    found_shaped = True
                    best_val = -np.inf  # restart preference on shaped candidates
                if found_shaped and not meets:
                    continue
                if value > best_val + 1e-9:
                    best_val = value
                    best_p = p
            if best_p != powers[jid]:
                powers[jid] = best_p
                moved = True
        if not moved:
            break
    return powers


@st.composite
def coalition_games(draw):
    """A coalition of 3-8 jammers in random order among served and idle
    nodes, with random gains, field rows, posterior, caps, rate floor,
    shaping bound and start powers (on or off the grid)."""
    unit = st.floats(0.0, 1.0)

    def arr(shape, scale):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(unit, min_size=n, max_size=n))).reshape(shape) * scale

    size = draw(st.integers(3, 8))
    n_served = draw(st.integers(1, 2))
    k = size + n_served + draw(st.integers(0, 2))
    e = draw(st.integers(1, 3))
    order = draw(st.permutations(range(k)))
    members, served = list(order[:size]), sorted(order[size:size + n_served])
    ctx = SlotContext(
        served=served,
        sig_w=arr((n_served,), 1e-9) + 1e-11,
        isi_w=arr((n_served,), 1e-12),
        an_thn_w=arr((n_served,), 1e-12),
        noise_w=1e-12,
        eve_capture_w=arr((e,), 1e-10),
        eve_an_w=arr((e,), 5e-11),
        jam_to_eve=arr((k, e), 2e-10),
        jam_to_thn=arr((k, n_served), 1e-13),
    )
    bins = 9
    gains = {j: arr((bins,), 1.0) for j in members}
    posterior = arr((bins,), 1.0) + 1e-3
    spec = FeasibilitySpec(p_max=1.5, p_fj_max=draw(st.floats(0.5, 1.5 * k)),
                           xi_max=draw(st.floats(1e-13, 2e-12)),
                           grid_points=draw(st.integers(3, 11)))
    powers = arr((k,), draw(st.sampled_from([0.2, 1.5])))
    kw = {"rate_floor": draw(st.sampled_from([0.0, 0.5, 5.0]))}
    posterior /= posterior.sum()
    # the shaping bound as a fraction of the start's shaping energy, as the
    # refinement loop sets it
    energy = sum(powers[j] * gains[j] for j in members) @ posterior
    return (Coalition(members, 0.0), powers, ctx, spec,
            draw(st.floats(0.0, 2.0)) * energy, gains, posterior), kw


class TestCoalitionBlockSweeps:
    # 100 examples take about 2 s on 2 vCPUs
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(game=coalition_games())
    def test_matches_per_member_ascent(self, game):
        args, kw = game
        assert np.array_equal(coalition_refine(*args, **kw), reference_ascent(*args, **kw))


class TestSynthesizeField:
    def test_field_peak_aligned_with_posterior(self):
        belief = peaked_belief(25.0)
        coalition = Coalition([1], 25.0)
        synth = synthesize_field([coalition], {1: 25.0}, {1: []}, HN_SPEC, GRID)
        peak_angle = GRID[int(np.argmax(synth.gain_rows[1]))]
        assert abs(peak_angle - belief.argmax_deg) <= 1.0

    def test_protected_bearings_nulled(self):
        coalition = Coalition([1, 2], 10.0)
        nulls = {1: [-30.0, 55.0], 2: [-30.0, 55.0]}
        synth = synthesize_field([coalition], {1: 10.0, 2: 10.0}, nulls, HN_SPEC, GRID)
        field_w = 1.2 * synth.gain_rows[1] + 0.8 * synth.gain_rows[2]
        peak = field_w.max()
        for angle in (-30.0, 55.0):
            idx = int(np.argmin(np.abs(GRID - angle)))
            assert field_w[idx] <= 1e-4 * peak

    def test_no_coalitions_zero_field(self):
        synth = synthesize_field([], {}, {}, HN_SPEC, GRID)
        assert synth.beams == {} and synth.gain_rows == {}

    def test_coherent_phase_reference(self):
        coalition = Coalition([1, 2], 0.0)
        synth = synthesize_field([coalition], {1: 0.0, 2: 0.0}, {1: [40.0], 2: [40.0]},
                                 HN_SPEC, GRID)
        target = steering_vector(HN_SPEC, 0.0)
        for jid in (1, 2):
            response = np.vdot(synth.beams[jid], target)
            assert abs(np.angle(response)) < 1e-9
            assert response.real > 0


class TestRefinementLoop:
    def setup_problem(self):
        posteriors = [peaked_belief(30.0)]
        jhn_bearings = {1: 28.0, 2: 33.0}
        aims = {1: 30.0, 2: 30.0}
        nulls = {1: [-20.0], 2: [-20.0]}
        eve_bearing = np.radians(30.0)
        thn_bearing = np.radians(-20.0)

        def builder(beams):
            j2e = np.zeros((3, 1))
            j2t = np.zeros((3, 1))
            for j, w in beams.items():
                j2e[j, 0] = 2e-10 * array_gain(w, steering_vector(HN_SPEC, eve_bearing))
                j2t[j, 0] = 1e-11 * array_gain(w, steering_vector(HN_SPEC, thn_bearing))
            return refine_ctx(j2e, j2t)

        return posteriors, jhn_bearings, aims, nulls, builder

    def run_loop(self, powers, builder, posteriors, jhn_bearings, aims, nulls,
                 beams0=None):
        ctx = builder(beams0 or {})
        combined = np.max(np.stack([b.probs for b in posteriors]), axis=0)
        coalitions = form_coalitions(peaks_of(posteriors), jhn_bearings, 15.0)
        return refinement_loop(
            coalitions, combined / combined.sum(), aims, nulls, powers, ctx, builder,
            HN_SPEC, GRID, FeasibilitySpec(p_max=1.5, p_fj_max=6.0, xi_max=1e-12),
            rate_floor=0.0, delta_stop=0.01, max_iters=10)

    def test_improves_and_is_monotone(self):
        posteriors, jb, aims, nulls, builder = self.setup_problem()
        res = self.run_loop(np.zeros(3), builder, posteriors, jb, aims, nulls)
        assert res.sum_secrecy > 0.0
        assert all(d >= 0.0 for d in res.improvements)
        assert res.powers[1] > 0.0 or res.powers[2] > 0.0
        # nulls keep the served node protected
        assert builder(res.beams).leakage_at_served(res.powers)[0] <= 1e-12 * (1 + 1e-9)
        # the result carries the context of the accepted beams
        assert np.array_equal(res.ctx.jam_to_eve, builder(res.beams).jam_to_eve)
        assert float(res.ctx.rates(res.powers).sum()) == res.sum_secrecy

    def test_stationary_state_terminates_immediately(self):
        posteriors, jb, aims, nulls, builder = self.setup_problem()
        first = self.run_loop(np.zeros(3), builder, posteriors, jb, aims, nulls)
        again = self.run_loop(first.powers.copy(), builder, posteriors, jb, aims,
                              nulls, beams0=first.beams)
        assert again.iterations == 1
        assert again.sum_secrecy >= first.sum_secrecy - 1e-9

    def test_jammer_outside_association_width_is_untouched(self):
        # jammer 2 sits 60 deg from the only peak: it joins no coalition, so
        # it gets no beam and keeps its power
        posteriors, _, aims, nulls, builder = self.setup_problem()
        start = np.array([0.0, 0.0, 0.7])
        res = self.run_loop(start, builder, posteriors, {1: 28.0, 2: 90.0},
                            {1: aims[1]}, {1: nulls[1]})
        assert [c.member_ids for c in res.coalitions] == [[1]]
        assert res.iterations >= 1 and res.powers[1] > 0.0
        assert 2 not in res.beams
        assert res.powers[2] == start[2]

    def test_no_jammers_is_noop(self):
        posteriors, _, aims, nulls, builder = self.setup_problem()
        res = self.run_loop(np.zeros(3), builder, posteriors, {}, aims, nulls)
        assert res.iterations == 0
        assert np.all(res.field_w == 0.0)
        assert float(res.ctx.rates(res.powers).sum()) == res.sum_secrecy
