import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secure_isac import engine, followers
from secure_isac.config import ScenarioConfig, StrategyId
from secure_isac.followers import (
    FEAS_TOL,
    FeasibilitySpec,
    Role,
    best_response,
    candidate_utilities,
    equilibrium_gap,
    gne_solve,
    role_switch,
    score_block,
    sweep_best_responses,
)
from secure_isac.leader import Broadcast
from secure_isac.link import JAM_CREDIT, SlotContext


def feasible(powers, spec: FeasibilitySpec, ctx: SlotContext):
    """Per profile of a (..., K) block: True iff every box bound, the
    aggregate budget, and every leakage cap hold (closed constraints)."""
    p = np.asarray(powers, dtype=float)
    return spec.admits(p, ctx.leakage_at_served(p))


def jam_contribution(ctx: SlotContext, k: int, powers):
    """Drop in the strongest eavesdropper's rate attributable to node k's
    power, accumulated over served streams, (...)."""
    p = np.asarray(powers, dtype=float)
    without = p.copy()
    without[..., k] = 0.0
    return ctx.jam_credit(ctx.eve_rate_max(p), ctx.eve_rate_max(without),
                          p[..., k])


def trial_block(u, powers: np.ndarray, grid) -> np.ndarray:
    """One profile per grid row, (G, K): powers with node u's power replaced,
    built apart from the package's block scorer."""
    trial = np.empty((len(grid), len(powers)))
    trial[:] = powers
    trial[:, u] = grid
    return trial


def hn_utility(u: int, power: float, powers: np.ndarray, roles: dict,
               broadcast: Broadcast, ctx: SlotContext, spec: FeasibilitySpec,
               eta: float, cost: float) -> float:
    """Priced per-node payoff at the profile (power, powers[-u]), with secrecy
    reward weight eta and power cost per watt.

    Transmit-role nodes earn the secrecy reward and contribute no jamming;
    jamming-role nodes earn the jamming reward instead. Power cost and
    leakage penalty apply to everyone. Scored one profile at a time, apart
    from the game's block scorer, so the tests can hold that scorer to it.
    """
    if power < -FEAS_TOL or power > spec.p_max + FEAS_TOL:
        raise ValueError(f"infeasible power {power} for node {u}")
    trial = trial_block(u, powers, [power])
    secrecy, jam = 0.0, 0.0
    if roles[u] is Role.JHN:
        jam = broadcast.pi * jam_contribution(ctx, u, trial)
    elif u in ctx.served:
        secrecy = eta * ctx.rates(trial)[:, ctx.served.index(u)]
    leak = trial[:, u] * ctx.jam_to_thn[u].sum()
    return float((secrecy - cost * trial[:, u] - broadcast.tau * leak + jam)[0])


BC = Broadcast(alpha=0.6, beta=0.2, gamma=0.2, pi=0.7, tau=0.3, kappa=0.1)


def toy_context():
    """One served node (id 0) and two candidate jammers (ids 1, 2)."""
    return SlotContext(
        served=[0],
        sig_w=np.array([1e-9]),
        isi_w=np.array([0.0]),
        an_thn_w=np.array([0.0]),
        noise_w=1e-12,
        eve_capture_w=np.array([5e-10]),
        eve_an_w=np.array([2e-11]),
        jam_to_eve=np.array([[0.0], [1e-10], [5e-11]]),
        jam_to_thn=np.array([[0.0], [1e-14], [2e-14]]),
        eve_noise_w=0.0, jam_to_hn=None,
    )


ROLES = {0: Role.THN, 1: Role.JHN, 2: Role.JHN}
ETA, COST = 1.0, 0.5
# the power box is all hn_utility checks
BOX = FeasibilitySpec(p_max=1.5, p_fj_max=12.0, xi_max=2e-12, grid_points=21)


def oracle_utility(u, power, powers, roles, bc):
    """Independent re-implementation of the payoff on the toy's scalar gains."""
    p = np.array(powers, dtype=float)
    p[u] = power
    jam_e = 1e-10 * p[1] + 5e-11 * p[2]
    eve_sinr = 5e-10 / (2e-11 + jam_e)
    leak0 = 1e-14 * p[1] + 2e-14 * p[2]
    thn_sinr = 1e-9 / (1e-12 + leak0)
    rate0 = max(0.0, np.log2(1 + thn_sinr) - np.log2(1 + eve_sinr))
    leak_by = {0: 0.0, 1: p[1] * 1e-14, 2: p[2] * 2e-14}
    if roles[u] is Role.THN:
        secrecy = rate0 if u == 0 else 0.0
        jam = 0.0
    else:
        secrecy = 0.0
        p_without = p.copy()
        p_without[u] = 0.0
        jam_e0 = 1e-10 * p_without[1] + 5e-11 * p_without[2]
        eve0 = 5e-10 / (2e-11 + jam_e0)
        jam = max(0.0, np.log2(1 + eve0) - np.log2(1 + eve_sinr))
    return secrecy - 0.5 * power - bc.tau * leak_by[u] + bc.pi * jam


class TestUtility:
    def test_zero_everything_gives_zero(self):
        ctx = toy_context()
        ctx.eve_an_w = np.zeros(1)  # noiseless unjammed eavesdropper: rate 0
        u = hn_utility(0, 0.0, np.zeros(3), ROLES, BC, ctx, BOX, ETA, COST)
        assert u == 0.0

    def test_cost_linearity(self):
        ctx = toy_context()
        p = np.array([0.0, 0.8, 0.2])
        u1 = hn_utility(1, 0.8, p, ROLES, BC, ctx, BOX, ETA, 0.5)
        u2 = hn_utility(1, 0.8, p, ROLES, BC, ctx, BOX, ETA, 1.0)
        assert u1 - u2 == pytest.approx(0.5 * 0.8, rel=1e-12)

    def test_matches_independent_oracle(self):
        # hand-built scalar instance, prices (0.7, 0.3, 0.1): implementation
        # agrees with a from-scratch evaluation to 1e-12
        ctx = toy_context()
        rng = np.random.default_rng(0)
        for _ in range(50):
            powers = rng.uniform(0, 1.5, size=3)
            powers[0] = 0.0
            for u in range(3):
                p = rng.uniform(0, 1.5)
                got = hn_utility(u, p, powers, ROLES, BC, ctx, BOX, ETA, COST)
                want = oracle_utility(u, p, powers, ROLES, BC)
                assert got == pytest.approx(want, abs=1e-12)

    def test_infeasible_power_rejected(self):
        ctx = toy_context()
        with pytest.raises(ValueError):
            hn_utility(1, 2.0, np.zeros(3), ROLES, BC, ctx, BOX, ETA, COST)


class TestFeasible:
    def spec(self):
        return FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13, grid_points=21)

    def test_zeros_feasible(self):
        assert feasible(np.zeros(3), self.spec(), toy_context())

    def test_box_violation(self):
        p = np.array([0.0, 1.5 + 1e-6, 0.0])
        assert not feasible(p, self.spec(), toy_context())

    def test_sum_cap_closed(self):
        p = np.array([0.0, 1.0, 1.0])  # exactly at the 2.0 budget
        assert feasible(p, self.spec(), toy_context())
        assert not feasible(p * 1.01, self.spec(), toy_context())

    def test_leakage_cap(self):
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1e-14, grid_points=21)
        p = np.array([0.0, 1.5, 0.0])  # leakage at node 0: 1.5e-14 > cap
        assert not feasible(p, spec, toy_context())

    @pytest.mark.parametrize("p_max", [0.0, -1.5])
    def test_nonpositive_power_box_rejected(self, p_max):
        with pytest.raises(ValueError):
            FeasibilitySpec(p_max=p_max, p_fj_max=12.0, xi_max=2e-12, grid_points=21)

    def test_grid_spans_the_power_box(self):
        spec = FeasibilitySpec(p_max=3.0, p_fj_max=12.0, xi_max=2e-12, grid_points=5)
        assert spec.grid.tolist() == [0.0, 0.75, 1.5, 2.25, 3.0]

    def test_grid_built_once_and_read_only(self):
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=12.0, xi_max=2e-12, grid_points=21)
        assert spec.grid is spec.grid
        assert np.array_equal(spec.grid, np.linspace(0.0, 1.5, 21))
        with pytest.raises(ValueError):
            spec.grid[0] = 1.0
        # the grid is no field: specs still compare and hash by their fields
        assert spec == FeasibilitySpec(p_max=1.5, p_fj_max=12.0, xi_max=2e-12,
                                       grid_points=21)
        assert hash(spec) == hash(dataclasses.replace(spec))

    @pytest.mark.parametrize("points", [1, 0])
    def test_grid_needs_two_points(self, points):
        with pytest.raises(ValueError, match="grid_points"):
            FeasibilitySpec(p_max=1.5, p_fj_max=12.0, xi_max=2e-12, grid_points=points)


class TestBestResponse:
    def test_pure_cost_returns_zero(self):
        # a THN pays for power and gains nothing from it
        ctx = toy_context()
        picks, _ = best_response([0], np.zeros(3), BC, ctx,
                                 FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0,
                                                 grid_points=21), ROLES, ETA,
                                 COST)
        assert picks[0] == 0.0

    def test_increasing_utility_saturates_at_cap(self):
        # zero-cost jammer with a rewarding price climbs to the largest
        # feasible grid point under the budget
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=0.9, xi_max=1.0, grid_points=21)
        picks, _ = best_response([1], np.zeros(3), BC, ctx, spec, ROLES, ETA, 0.0)
        assert picks[0] == pytest.approx(0.9)

    def test_matches_bruteforce_on_grid(self):
        # brute-force oracle: exhaustive scan of the same grid with the
        # independently coded utility
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13, grid_points=11)
        grid = spec.grid
        rng = np.random.default_rng(1)
        for _ in range(20):
            others = np.array([0.0, rng.choice(grid), rng.choice(grid)])
            u = int(rng.integers(1, 3))
            (got,), _ = best_response([u], others, BC, ctx, spec, ROLES, ETA, COST)
            best_val, best_p = -np.inf, None
            for p in grid:
                trial = others.copy()
                trial[u] = p
                if trial.sum() > 2.0 + 1e-12:
                    continue
                if 1e-14 * trial[1] + 2e-14 * trial[2] > 1e-13 * (1 + 1e-9):
                    continue
                val = oracle_utility(u, p, trial, ROLES, BC)
                if val > best_val:
                    best_val, best_p = val, p
            assert got == pytest.approx(best_p, abs=1e-15)


    @pytest.mark.parametrize("points", [2, 5, 21])
    def test_picks_lie_on_the_spec_grid(self, points):
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13, grid_points=points)
        ctx = toy_context()
        picks, _ = best_response([0, 1, 2], np.full(3, 0.3), BC, ctx, spec, ROLES,
                                 ETA, 0.0)
        res = gne_solve(ROLES, np.full(3, 0.3), BC, ctx, spec, ETA, 0.0, max_iters=50)
        assert np.isin(picks, spec.grid).all()
        assert np.isin(res.powers, spec.grid).all()
        assert res.powers.any()   # a jammer climbs off zero


class TestGneSolve:
    def test_single_node(self):
        ctx = SlotContext(
            served=[0], sig_w=np.array([1e-9]), isi_w=np.array([0.0]),
            an_thn_w=np.array([0.0]), noise_w=1e-12,
            eve_capture_w=np.array([5e-10]), eve_an_w=np.array([2e-11]),
            jam_to_eve=np.array([[0.0]]), jam_to_thn=np.array([[0.0]]),
            eve_noise_w=0.0, jam_to_hn=None,
        )
        res = gne_solve({0: Role.THN}, np.zeros(1), BC, ctx,
                        FeasibilitySpec(p_max=1.5, p_fj_max=5.0, xi_max=1.0,
                                        grid_points=21), ETA, COST, max_iters=50)
        assert res.converged
        assert res.iterations == 1
        assert res.powers[0] == 0.0
        assert res.gap <= 1e-12

    def test_decoupled_jammers_reach_independent_optima(self):
        # two jammers, each hitting its own eavesdropper, no leakage coupling
        ctx = SlotContext(
            served=[0], sig_w=np.array([1e-9]), isi_w=np.array([0.0]),
            an_thn_w=np.array([0.0]), noise_w=1e-12,
            eve_capture_w=np.array([5e-10, 5e-10]),
            eve_an_w=np.array([2e-11, 2e-11]),
            jam_to_eve=np.array([[0.0, 0.0], [1e-10, 0.0], [0.0, 1e-10]]),
            jam_to_thn=np.zeros((3, 1)),
            eve_noise_w=0.0, jam_to_hn=None,
        )
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1.0, grid_points=21)
        res = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST, max_iters=50)
        assert res.converged
        # independent optimum per jammer: brute-force its own grid alone
        grid = np.linspace(0, 1.5, 21)
        for u in (1, 2):
            vals = []
            for p in grid:
                trial = res.powers.copy()
                trial[u] = p
                vals.append(hn_utility(u, p, trial, ROLES, BC, ctx, spec, ETA, COST))
            assert res.powers[u] == pytest.approx(grid[int(np.argmax(vals))])

    def test_three_node_equilibrium_matches_enumeration(self):
        # epsilon-GNE oracle: exhaustive joint enumeration over the 11^2
        # jammer profiles, returned profile has no improving unilateral move
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13, grid_points=11)
        res = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST, max_iters=50)
        assert res.converged
        assert res.gap <= 1e-9
        # membership in the enumerated epsilon-GNE set
        grid = spec.grid
        gne_set = []
        for p1 in grid:
            for p2 in grid:
                prof = np.array([0.0, p1, p2])
                if not feasible(prof, spec, ctx):
                    continue
                gap = equilibrium_gap(prof, BC, ctx, spec, ROLES, ETA, COST, range(3))
                if gap <= 1e-9:
                    gne_set.append(prof)
        assert any(np.allclose(res.powers, g, atol=1e-15) for g in gne_set)

    def test_nonconvergence_flagged(self):
        ctx = toy_context()
        res = gne_solve(ROLES, np.zeros(3), BC, ctx,
                        FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13,
                                        grid_points=21), ETA, COST,
                        max_iters=1)
        assert res.iterations == 1  # cap respected even if it converged fast

    def test_off_grid_snap_counts_as_a_move(self):
        # 1e-4 W snaps to 0: the first sweep moved the node, so convergence
        # takes a second sweep that moves nothing
        ctx = SlotContext(
            served=[0], sig_w=np.array([1e-9]), isi_w=np.array([0.0]),
            an_thn_w=np.array([0.0]), noise_w=1e-12,
            eve_capture_w=np.array([5e-10]), eve_an_w=np.array([2e-11]),
            jam_to_eve=np.array([[0.0]]), jam_to_thn=np.array([[0.0]]),
            eve_noise_w=0.0, jam_to_hn=None,
        )
        res = gne_solve({0: Role.THN}, np.array([1e-4]), BC, ctx,
                        FeasibilitySpec(p_max=1.5, p_fj_max=5.0, xi_max=1.0,
                                        grid_points=21), ETA, COST, max_iters=50)
        assert res.converged
        assert res.iterations == 2
        assert res.powers[0] == 0.0

    @pytest.mark.parametrize("roles", [{0: Role.THN, 2: Role.JHN},
                                       {1: Role.THN, 2: Role.JHN, 3: Role.JHN}])
    def test_role_keys_must_be_node_ids(self, roles):
        with pytest.raises(ValueError, match="0..K-1"):
            gne_solve(roles, np.zeros(len(roles)), BC, toy_context(),
                      FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13,
                                      grid_points=21), ETA, COST, max_iters=50)


class TestOwnLeakRowSum:
    # _score_grid takes each node's total leakage into the served nodes as
    # one row sum over the (N, U) rows of jam_to_thn; it must equal each
    # node's own sum for every served count the property test draws (up to
    # bs.num_rf = 8) and past the eight-term unrolled summation
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 20), u=st.integers(0, 16), e=st.integers(0, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_node_sums(self, k, u, e, seed):
        rng = np.random.default_rng(seed)
        k = max(k, u)
        # delivered watts over eight decades, some links silent, laid out as
        # build_slot_context lays them out
        delivered = 10.0 ** rng.uniform(-20.0, -12.0, (k, k + e))
        delivered[rng.random((k, k + e)) < 0.2] = 0.0
        served = [int(v) for v in rng.permutation(k)[:u]]
        jam_to_thn = delivered[:, :k][:, served]
        nodes = [int(v) for v in rng.permutation(k)[:rng.integers(1, k + 1)]]
        rows = jam_to_thn[nodes].sum(axis=1)
        assert np.array_equal(rows, np.array([jam_to_thn[v].sum() for v in nodes]))


class TestEquilibriumGap:
    def test_matches_scalar_utility_scan(self):
        # the scalar oracle: best feasible grid utility minus the current
        # utility, each through hn_utility
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=3e-14, grid_points=7)
        grid = spec.grid
        rng = np.random.default_rng(4)
        for _ in range(10):
            powers = rng.choice(grid, size=3)
            want = 0.0
            for u in range(3):
                best = -np.inf
                for g in grid:
                    trial = powers.copy()
                    trial[u] = g
                    if feasible(trial, spec, ctx):
                        best = max(best, hn_utility(u, g, powers, ROLES, BC, ctx, spec,
                                                    ETA, COST))
                current = hn_utility(u, powers[u], powers, ROLES, BC, ctx, spec, ETA, COST)
                want = max(want, best - current)
            assert equilibrium_gap(powers, BC, ctx, spec, ROLES, ETA, COST, range(3)) == want

    def test_off_grid_power_rejected(self):
        with pytest.raises(ValueError, match="not on the grid"):
            equilibrium_gap(np.array([0.0, 0.3, 0.5]), BC, toy_context(),
                            FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13,
                                            grid_points=7),
                            ROLES, ETA, COST, range(3))


class TestRoleSwitch:
    def test_boundary_keeps_thn(self):
        roles = role_switch({0: 0.5}, 0.5)
        assert roles[0] is Role.THN

    def test_below_threshold_becomes_jhn(self):
        roles = role_switch({0: 0.0, 1: 0.49, 2: 2.0}, 0.5)
        assert roles[0] is Role.JHN
        assert roles[1] is Role.JHN
        assert roles[2] is Role.THN

    def test_all_above(self):
        roles = role_switch({i: 1.0 for i in range(5)}, 0.5)
        assert all(r is Role.THN for r in roles.values())


class TestVectorizedEquivalence:
    def test_candidate_utilities_match_scalar_reference(self):
        # the vectorized grid evaluation must reproduce the scalar utility and
        # feasibility pointwise on randomized instances
        from secure_isac.followers import candidate_utilities
        rng = np.random.default_rng(21)
        for trial in range(30):
            k, e_count, u_count = 4, 2, 2
            ctx = SlotContext(
                served=[0, 1],
                sig_w=rng.uniform(1e-10, 1e-9, u_count),
                isi_w=rng.uniform(0, 1e-12, u_count),
                an_thn_w=np.zeros(u_count),
                noise_w=2e-12,
                eve_capture_w=rng.uniform(1e-12, 1e-10, e_count),
                eve_an_w=rng.uniform(0, 5e-11, e_count) * rng.integers(0, 2),
                jam_to_eve=rng.uniform(0, 2e-10, (k, e_count)),
                jam_to_thn=rng.uniform(0, 3e-13, (k, u_count)),
                eve_noise_w=0.0, jam_to_hn=None,
            )
            ctx.jam_to_thn[0, 0] = 0.0
            ctx.jam_to_thn[1, 1] = 0.0
            roles = {0: Role.THN, 1: Role.THN, 2: Role.JHN, 3: Role.JHN}
            costs = [rng.uniform(0.1, 1.0) for _ in range(k)]
            spec = FeasibilitySpec(p_max=1.5, p_fj_max=rng.uniform(1.0, 4.0),
                                   xi_max=rng.uniform(1e-13, 1e-12), grid_points=11)
            powers = rng.uniform(0, 1.0, k)
            grid = spec.grid
            for u in range(k):
                (values,), (feas,) = candidate_utilities([u], powers, BC, ctx, spec, roles,
                                                         ETA, costs[u])
                for gi, g in enumerate(grid):
                    trial_p = powers.copy()
                    trial_p[u] = g
                    scalar_feas = feasible(trial_p, spec, ctx)
                    assert feas[gi] == scalar_feas, (trial, u, gi)
                    if scalar_feas:
                        want = hn_utility(u, g, powers, roles, BC, ctx, spec, ETA,
                                          costs[u])
                        assert values[gi] == pytest.approx(want, abs=1e-12), (trial, u, gi)


class TestGneInvariants:
    def test_returned_profile_feasible_and_deterministic(self):
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13, grid_points=21)
        a = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST, max_iters=50)
        b = gne_solve(dict(ROLES), np.zeros(3), BC, ctx, spec, ETA, COST, max_iters=50)
        assert feasible(a.powers, spec, ctx)
        assert np.array_equal(a.powers, b.powers)
        assert a.iterations == b.iterations


def scalar_scan(u, powers, grid, ctx, spec, roles, bc, eta, cost):
    """Node u's utility at every grid power through hn_utility, -inf where
    feasible rejects the profile."""
    values = []
    for g in grid:
        trial = powers.copy()
        trial[u] = g
        values.append(hn_utility(u, g, powers, roles, bc, ctx, spec, eta, cost)
                      if feasible(trial, spec, ctx) else -np.inf)
    return np.array(values)


@st.composite
def toy_games(draw):
    """A random small game: mixed roles with unserved transmit nodes, some
    eavesdroppers that decode perfectly unless jammed (no AN, no noise floor,
    sparse jamming rows), and caps that cut the grid."""
    k = draw(st.integers(2, 6))
    e = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    roles = {u: draw(st.sampled_from([Role.THN, Role.JHN])) for u in range(k)}
    served = [u for u in range(k) if draw(st.booleans())]
    n_served = len(served)

    def arr(shape, scale, sparse=False):
        values = np.array(draw(st.lists(unit, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
        if sparse:
            values[values < 0.5] = 0.0
        return values * scale

    ctx = SlotContext(
        served=served,
        sig_w=arr((n_served,), 1e-9) + 1e-11,
        isi_w=arr((n_served,), 1e-12),
        an_thn_w=arr((n_served,), 1e-12),
        noise_w=1e-12,
        eve_capture_w=arr((e,), 1e-10, sparse=True),
        eve_an_w=arr((e,), 5e-11, sparse=True),
        jam_to_eve=arr((k, e), 2e-10, sparse=True),
        jam_to_thn=arr((k, n_served), 3e-13, sparse=True),
        eve_noise_w=draw(st.sampled_from([0.0, 1e-12])),
        jam_to_hn=None,
    )
    grid = np.linspace(0.0, 1.5, draw(st.integers(2, 8)))
    powers = np.array([draw(st.sampled_from(list(grid))) for _ in range(k)])
    spec = FeasibilitySpec(p_max=1.5, p_fj_max=draw(st.floats(0.2, 1.5 * k)),
                           xi_max=draw(st.floats(1e-14, 1e-12)), grid_points=len(grid))
    bc = Broadcast(alpha=0.6, beta=0.2, gamma=0.2, pi=draw(unit), tau=draw(unit),
                   kappa=draw(unit))
    return ctx, roles, grid, powers, spec, bc, draw(unit), draw(unit)


class TestBlockScorerProperties:
    # 150 examples take about 2 s on 2 vCPUs (keep it under 10 s)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(game=toy_games())
    def test_gap_and_best_response_match_scalar_scan(self, game):
        ctx, roles, grid, powers, spec, bc, eta, cost = game
        want_gap = 0.0
        for u in range(len(powers)):
            scan = scalar_scan(u, powers, grid, ctx, spec, roles, bc, eta, cost)
            feasible_any = np.isfinite(scan).any()
            if feasible_any:
                current = hn_utility(u, powers[u], powers, roles, bc, ctx, spec,
                                     eta, cost)
                want_gap = max(want_gap, float(scan.max() - current))
            want_p = float(grid[int(np.argmax(scan))]) if feasible_any else 0.0
            picks, empty = best_response([u], powers, bc, ctx, spec, roles, eta, cost)
            assert picks[0] == want_p and empty[0] != feasible_any
        assert equilibrium_gap(powers, bc, ctx, spec, roles, eta, cost,
                               range(len(powers))) == want_gap


def assert_rows_score_as_alone(powers, moved, values, ctx, spec):
    """Each row of the score_block block, scored as a block of its own, gives
    the same bytes in all four outputs. Returns the block."""
    scored = score_block(powers, moved, values, ctx, spec)
    assert scored.rates.shape == (len(moved) * len(values), len(ctx.served))
    for r in range(len(scored.profiles)):
        i, v = divmod(r, len(values))
        alone = score_block(powers, moved[i:i + 1], values[v:v + 1], ctx, spec)
        assert np.array_equal(alone.profiles[0], scored.profiles[r])
        for name in ("leakage", "eve_rate", "rates", "feasible"):
            got, want = getattr(alone, name)[0], getattr(scored, name)[r]
            assert got.tobytes() == want.tobytes(), (name, r)
    return scored


class TestScoreBlock:
    # 150 examples take about 1.5 s on 2 vCPUs
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(game=toy_games())
    def test_rows_score_as_alone_and_zero_row_is_silent(self, game):
        ctx, _, grid, powers, spec, _, _, _ = game
        k, g = len(powers), len(grid)
        assert spec.grid[0] == 0.0
        # the power game's form: each node over the whole grid in turn
        scored = assert_rows_score_as_alone(powers, np.arange(k)[:, None], grid[:, None],
                                            ctx, spec)
        for u in range(k):
            silenced = powers.copy()
            silenced[u] = 0.0
            assert (np.float64(ctx.eve_rate_max(silenced)).tobytes()
                    == scored.eve_rate[u * g].tobytes())
        # the refinement's form: two members moved together
        combos = np.stack([a.ravel() for a in np.meshgrid(grid, grid, indexing="ij")],
                          axis=1)
        assert_rows_score_as_alone(powers, np.array([[k - 1, 0]]), combos, ctx, spec)

    def test_unmoved_row_is_the_base_profile(self):
        ctx = toy_context()
        powers = np.array([0.25, 0.5, 1.0])
        scored = score_block(powers, [[]], [[]], ctx, BOX)
        assert np.array_equal(scored.profiles, powers[None])
        assert scored.eve_rate.tobytes() == np.float64(ctx.eve_rate_max(powers)).tobytes()
        assert scored.rates.tobytes() == ctx.rates(powers)[None].tobytes()
        assert scored.feasible.tolist() == [feasible(powers, BOX, ctx)]


def reference_eve_rate(ctx, p):
    """The strongest eavesdropper's rate as the per-node game computed it."""
    den = ctx.eve_an_w + np.einsum("...k,kx->...x", p, ctx.jam_to_eve) + ctx.eve_noise_w
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(den > 0, ctx.eve_capture_w / den,
                        np.where(ctx.eve_capture_w > 0, np.inf, 0.0))
        s = sinr.max(axis=-1)
        return np.where(np.isfinite(s), np.log2(1.0 + s), np.inf)


def reference_candidates(u, powers, grid, bc, ctx, spec, roles, eta, cost):
    """The per-node formulation the block scorer replaced: a tiled (G, K)
    trial block that feasibility and the rates each contract, and a jamming
    credit from a second eavesdropper pass over one row with u silent.
    Returns the raw utilities and the feasibility."""
    trial = np.tile(np.asarray(powers, dtype=float), (len(grid), 1))
    trial[:, u] = grid
    leak_at = np.einsum("...k,kx->...x", trial, ctx.jam_to_thn)
    feas = np.all((trial >= -FEAS_TOL) & (trial <= spec.p_max + FEAS_TOL), axis=-1)
    feas &= trial.sum(axis=-1) <= spec.p_fj_max + FEAS_TOL
    feas &= np.all(leak_at <= spec.xi_max * (1.0 + 1e-9), axis=-1)
    power = trial[:, u]
    secrecy, jam = 0.0, 0.0
    if roles[u] is Role.JHN:
        without = trial[:1].copy()
        without[:, u] = 0.0
        with_rate = reference_eve_rate(ctx, trial)
        without_rate = reference_eve_rate(ctx, without)
        with np.errstate(invalid="ignore"):
            gain = np.where(np.isfinite(without_rate), without_rate - with_rate,
                            JAM_CREDIT)
        gain = np.where(np.isfinite(with_rate), gain, 0.0)
        credit = len(ctx.served) * np.maximum(0.0, gain)
        jam = bc.pi * np.where(power > 0.0, credit, 0.0)
    elif u in ctx.served:
        eve = reference_eve_rate(ctx, trial)[:, None]
        legit = np.log2(1.0 + ctx.sig_w / (ctx.isi_w + ctx.an_thn_w + leak_at
                                           + ctx.noise_w))
        with np.errstate(invalid="ignore"):
            rates = np.where(np.isfinite(eve), np.maximum(0.0, legit - eve), 0.0)
        secrecy = eta * rates[:, ctx.served.index(u)]
    leak = power * ctx.jam_to_thn[u].sum()
    values = (secrecy - cost * power - bc.tau * leak + jam)
    return values, feas


def capture_games(config, strategy, slots):
    """The power games of the first `slots` slots of `strategy` on `config`
    (scenario seed 1): the arguments of each gne_solve call and its result."""
    games = []
    solve = engine.gne_solve

    def recording(*args, **kw):
        result = solve(*args, **kw)
        games.append((args, kw, result))
        return result

    world = engine.init_scenario(config, 1)
    engine.gne_solve = recording
    try:
        for slot in range(slots):
            engine.run_slot(world, strategy, slot)
    finally:
        engine.gne_solve = solve
    assert len(games) == slots
    return games


@pytest.fixture(scope="module")
def default_solves():
    """The power games of three default ibeams slots (K = 25)."""
    return capture_games(ScenarioConfig(), StrategyId.IBEAMS, 3)


@pytest.fixture(scope="module")
def default_games(default_solves):
    """The default games as (roles, start, broadcast, ctx, spec, eta, cost,
    returned profile)."""
    return [(*args, result.powers) for args, _, result in default_solves]


class TestBlockScorerOnDefaultSlots:
    def test_candidates_equal_per_node_reference(self, default_games):
        for roles, start, bc, ctx, spec, eta, cost, eq in default_games:
            assert len(roles) == 25
            grid = spec.grid
            for powers in (start, eq):
                for u in range(len(powers)):
                    (values,), (feas,) = candidate_utilities([u], powers, bc, ctx, spec,
                                                             roles, eta, cost)
                    want, want_feas = reference_candidates(u, powers, grid, bc, ctx,
                                                           spec, roles, eta, cost)
                    assert np.array_equal(feas, want_feas)
                    assert np.array_equal(values, np.where(want_feas, want, -np.inf))

    def test_gap_equals_per_node_reference(self, default_games):
        for roles, _, bc, ctx, spec, eta, cost, eq in default_games:
            grid = spec.grid
            want = 0.0
            for u in range(len(eq)):
                values, feas = reference_candidates(u, eq, grid, bc, ctx, spec, roles,
                                                    eta, cost)
                if feas.any():
                    at = np.flatnonzero(grid == eq[u])[0]
                    want = max(want, float(values[feas].max() - values[at]))
            assert equilibrium_gap(eq, bc, ctx, spec, roles, eta, cost, range(len(eq))) == want


def assert_kappa_free(roles, powers, bc, ctx, spec, eta, cost, kappa):
    """Scores and gap under bc and under bc with only kappa changed are
    bitwise equal."""
    other = dataclasses.replace(bc, kappa=kappa)
    nodes = list(range(len(powers)))
    values, feas = candidate_utilities(nodes, powers, bc, ctx, spec, roles, eta, cost)
    values_k, feas_k = candidate_utilities(nodes, powers, other, ctx, spec, roles, eta,
                                           cost)
    assert np.array_equal(feas, feas_k)
    assert values.tobytes() == values_k.tobytes()
    gap = equilibrium_gap(powers, bc, ctx, spec, roles, eta, cost, nodes)
    assert np.float64(gap).tobytes() == np.float64(
        equilibrium_gap(powers, other, ctx, spec, roles, eta, cost, nodes)).tobytes()


class TestKappaEntersNoScore:
    # the sensing price is announced and logged, but no follower utility
    # reads it
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(game=toy_games(), kappa=st.floats(0.0, 1.0))
    def test_toy_games(self, game, kappa):
        ctx, roles, _, powers, spec, bc, eta, cost = game
        assert_kappa_free(roles, powers, bc, ctx, spec, eta, cost, kappa)

    def test_default_slots(self, default_games):
        for roles, _, bc, ctx, spec, eta, cost, eq in default_games:
            assert_kappa_free(roles, eq, bc, ctx, spec, eta, cost, bc.kappa + 0.37)


def reference_gne(roles, powers, bc, ctx, spec, eta, cost, max_iters=50):
    """The per-node Gauss-Seidel loop the block sweeps replaced: every node
    scored alone through best_response, at its turn, in every sweep, until a
    sweep moves no node. Converged when every node was scored since the last
    move. Returns (powers, iterations, converged, gap)."""
    powers = np.array(powers, dtype=float)
    if not feasible(powers, spec, ctx):
        powers = np.zeros_like(powers)
    iterations = 0
    scored = set()      # node ids scored since the last move
    for _ in range(max_iters):
        iterations += 1
        previous = powers.copy()
        for uid in range(len(roles)):
            (pick,), _ = best_response([uid], powers, bc, ctx, spec, roles, eta, cost)
            if pick != powers[uid]:
                powers[uid] = pick
                scored.clear()
            scored.add(uid)
        if np.array_equal(powers, previous):
            break
    gap = equilibrium_gap(powers, bc, ctx, spec, roles, eta, cost, range(len(powers)))
    return powers, iterations, len(scored) == len(roles), gap


def assert_solve_matches_reference(args, kw):
    got = gne_solve(*args, **kw)
    powers, iterations, converged, gap = reference_gne(*args, **kw)
    assert np.array_equal(got.powers, powers)
    assert got.iterations == iterations
    assert got.converged == converged
    assert got.gap == gap
    return got


@st.composite
def sweep_games(draw):
    """A toy game with a start profile on the grid, off the grid, or
    infeasible (every node at p_max), and a sweep cap."""
    ctx, roles, grid, powers, spec, bc, eta, cost = draw(toy_games())
    start = draw(st.sampled_from(["grid", "off", "full"]))
    if start == "off":
        powers = np.array([draw(st.floats(0.0, 1.5)) for _ in powers])
    elif start == "full":
        powers = np.full(len(powers), spec.p_max)
    kw = {"max_iters": draw(st.sampled_from([1, 2, 50]))}
    return (roles, powers, bc, ctx, spec, eta, cost), kw


class TestBlockSweeps:
    # 100 examples take about 1 s on 2 vCPUs
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(game=sweep_games())
    def test_toy_games_match_per_node_sweeps(self, game):
        logging.disable(logging.WARNING)   # empty feasible sets warn
        try:
            got = assert_solve_matches_reference(*game)
            if got.converged:
                # a converged profile is a grid fixed point: restarted from
                # it, the first sweep moves no node
                (roles, _, *rest), kw = game
                again = gne_solve(roles, got.powers, *rest, **kw)
                assert again.converged and again.iterations == 1
                assert np.array_equal(again.powers, got.powers)
        finally:
            logging.disable(logging.NOTSET)

    def test_default_slots_match_per_node_sweeps(self, default_solves):
        for args, kw, _ in default_solves:
            assert_solve_matches_reference(args, kw)

    def test_k100_roleswitch_slots_match_per_node_sweeps(self):
        config = ScenarioConfig()
        config.hn.count = 100
        games = capture_games(config, StrategyId.STACKELBERG_ROLESWITCH, 3)
        assert max(result.iterations for _, _, result in games) > 2
        for args, kw, _ in games:
            assert len(args[0]) == 100
            assert_solve_matches_reference(args, kw)

    def test_block_form_scores_each_node_as_alone(self):
        ctx = toy_context()
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=3e-14, grid_points=7)
        powers = np.array([0.25, 0.5, 1.0])
        picks, empty = best_response([2, 0, 1], powers, BC, ctx, spec, ROLES, ETA, COST)
        assert not empty.any()
        assert picks.tolist() == [best_response([u], powers, BC, ctx, spec, ROLES,
                                                ETA, COST)[0][0] for u in (2, 0, 1)]

    # A start just inside the closed budget (2.0 + 1e-12) whose slightly
    # negative entry hides that the other two nodes overdraw it: the node
    # holding the negative power has no feasible grid power at the start.
    OVERDRAWN = FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1.0, grid_points=21)

    def test_fallback_warns_for_an_accepted_evaluation(self, caplog):
        start = np.array([-0.9e-12, 1.0, 1.0 + 1.5e-12])
        assert feasible(start, self.OVERDRAWN, toy_context())
        with caplog.at_level(logging.WARNING, logger="secure_isac.followers"):
            res = gne_solve(ROLES, start, BC, toy_context(), self.OVERDRAWN, ETA, COST,
                            max_iters=50)
        assert [r.getMessage() for r in caplog.records] == [
            "node 0: no feasible grid power, falling back to 0"]
        assert res.powers[0] == 0.0

    def test_fallback_never_warns_for_a_discarded_row(self, caplog):
        # node 0 moves first, so node 2's row in the same block, empty against
        # the start profile, is dropped; rescored after the move it is feasible
        start = np.array([1.0 + 1.5e-12, 1.0, -0.9e-12])
        assert feasible(start, self.OVERDRAWN, toy_context())
        _, empty = best_response([0, 1, 2], start, BC, toy_context(),
                                 self.OVERDRAWN, ROLES, ETA, COST)
        assert empty.tolist() == [False, False, True]
        with caplog.at_level(logging.WARNING, logger="secure_isac.followers"):
            res = gne_solve(ROLES, start, BC, toy_context(), self.OVERDRAWN, ETA, COST,
                            max_iters=50)
        assert caplog.records == []
        assert res.powers[0] == 0.0


def full_gap(args, result):
    """The equilibrium gap over every node at a solve's returned profile."""
    roles, _, bc, ctx, spec, eta, cost = args
    return equilibrium_gap(result.powers, bc, ctx, spec, roles, eta, cost,
                           range(len(roles)))


@pytest.fixture
def gap_rows(monkeypatch):
    """The row count of every score_block block scored inside
    equilibrium_gap, through the module globals that gne_solve calls."""
    rows, inside = [], []
    gap, scorer = followers.equilibrium_gap, followers.score_block

    def counting_gap(*args):
        inside.append(True)
        try:
            return gap(*args)
        finally:
            inside.pop()

    def counting_scorer(*args):
        scored = scorer(*args)
        if inside:
            rows.append(len(scored.profiles))
        return scored

    monkeypatch.setattr(followers, "equilibrium_gap", counting_gap)
    monkeypatch.setattr(followers, "score_block", counting_scorer)
    return rows


class TestGapCertificate:
    """gne_solve scores the gap only at the nodes its sweeps left pending:
    every other node holds its best response against the returned profile.
    TestBlockSweeps compares the toy games' gaps with the scan over every
    node."""

    def test_pending_nodes_are_those_not_scored_since_the_last_move(self):
        target = {0: 1.0, 1: 2.0, 2: 3.0}

        def respond(block):
            return [target[u] for u in block]

        powers = np.zeros(3)
        # each node moves at its turn of the first sweep; only the last
        # mover was scored after the last move
        assert sweep_best_responses([0, 1, 2], powers, respond, 1) == (1, [0, 1])
        powers = np.zeros(3)
        assert sweep_best_responses([0, 1, 2], powers, respond, 2) == (2, [])
        assert sweep_best_responses([0, 1, 2], powers, respond, 0) == (0, [0, 1, 2])

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 50])
    def test_gap_equals_the_scan_over_every_node(self, default_solves, gap_rows,
                                                  max_iters):
        gaps = []
        for args, _, _ in default_solves:
            del gap_rows[:]
            got = gne_solve(*args, max_iters=max_iters)
            gaps.append(got.gap)
            assert np.float64(got.gap).tobytes() == np.float64(full_gap(args, got)).tobytes()
            if got.converged:
                # a converged solve scores no gap row
                assert got.gap == 0.0 and gap_rows == []
            else:
                # the pending nodes' whole grids: some node is pending, never
                # the last mover, so fewer rows than the full scan's
                spec = args[4]
                assert 0 < sum(gap_rows) < len(args[0]) * spec.grid_points
                assert sum(gap_rows) % spec.grid_points == 0
        # one capped solve stops short of its fixed point
        assert (max(gaps) > 0.0) == (max_iters == 1)

    def test_capped_solve_that_scored_every_node_after_its_last_move_converged(
            self, caplog):
        # at gne.max_iters = 2, the third default slot's second sweep moves
        # node 0 and then scores every other node: nothing is pending, so the
        # profile is a grid fixed point although the cap ended the sweeps
        config = ScenarioConfig()
        config.gne.max_iters = 2
        args, kw, result = capture_games(config, StrategyId.IBEAMS, 3)[2]
        assert kw == {"max_iters": 2} and result.iterations == 2
        assert result.converged and result.gap == 0.0 == full_gap(args, result)
        with caplog.at_level(logging.WARNING, logger="secure_isac.followers"):
            again = gne_solve(*args, **kw)
        assert caplog.records == []
        assert again.converged and np.array_equal(again.powers, result.powers)
        # restarted from it, the first sweep moves no node
        roles, _, *rest = args
        restarted = gne_solve(roles, result.powers, *rest, **kw)
        assert restarted.iterations == 1 and restarted.converged
        assert np.array_equal(restarted.powers, result.powers)
        assert_solve_matches_reference(args, kw)
