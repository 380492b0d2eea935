import numpy as np
import pytest

from secure_isac.arrays import ArraySpec, array_gain, steering_vector
from secure_isac.belief import BeliefState, default_grid
from secure_isac.followers import FeasibilitySpec
from secure_isac.link import SlotContext
from secure_isac.refinement import (
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
        powers, _, relaxed = coalition_refine(
            Coalition([1], 0.0), np.array([0.0, 1.5]), ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0), j_min=0.0, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert powers[1] == 0.0
        assert not relaxed

    def test_nulled_jammer_goes_to_max(self):
        # zero leakage, positive suppression: unopposed benefit
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-10]], jam_to_thn=[[0.0], [0.0]])
        powers, _, _ = coalition_refine(
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
            got, _, _ = coalition_refine(
                Coalition([1, 2], 0.0), start, ctx,
                FeasibilitySpec(p_max=1.5, p_fj_max=fj, xi_max=xi_max), j_min=0.0, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST,
                grid_points=11)
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
        ctx = refine_ctx(jam_to_eve=[[0.0], [1e-10]], jam_to_thn=[[0.0], [0.0]])
        powers, _, relaxed = coalition_refine(
            Coalition([1], 0.0), np.array([0.0, 0.0]), ctx,
            FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0), j_min=1e9, field_gains=FLAT_GAINS, posterior_probs=UNIFORM_POST)
        assert relaxed


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
