import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secure_isac import engine
from secure_isac.config import ScenarioConfig, StrategyId
from secure_isac.followers import (
    FEAS_TOL,
    FeasibilitySpec,
    Role,
    best_response,
    candidate_utilities,
    equilibrium_gap,
    feasible,
    gne_solve,
    hn_utility,
    role_switch,
)
from secure_isac.leader import Broadcast
from secure_isac.link import JAM_CREDIT, SlotContext

BC = Broadcast(alpha=0.6, beta=0.2, gamma=0.2, pi=0.7, tau=0.3, kappa=0.1)


def toy_context(info_gain=0.0):
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
        info_gain=info_gain,
    )


ROLES = {0: Role.THN, 1: Role.JHN, 2: Role.JHN}
ETA, COST = 1.0, 0.5
BOX = FeasibilitySpec(p_max=1.5)   # the power box is all hn_utility checks


def oracle_utility(u, power, powers, roles, bc, info_gain=0.0):
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
    return secrecy - 0.5 * power - bc.tau * leak_by[u] + bc.pi * jam + bc.kappa * info_gain


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
        ctx = toy_context(info_gain=0.3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            powers = rng.uniform(0, 1.5, size=3)
            powers[0] = 0.0
            for u in range(3):
                p = rng.uniform(0, 1.5)
                got = hn_utility(u, p, powers, ROLES, BC, ctx, BOX, ETA, COST)
                want = oracle_utility(u, p, powers, ROLES, BC, info_gain=0.3)
                assert got == pytest.approx(want, abs=1e-12)

    def test_infeasible_power_rejected(self):
        ctx = toy_context()
        with pytest.raises(ValueError):
            hn_utility(1, 2.0, np.zeros(3), ROLES, BC, ctx, BOX, ETA, COST)


class TestFeasible:
    def spec(self):
        return FeasibilitySpec(p_max=1.5, p_fj_max=2.0, xi_max=1e-13)

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
        spec = FeasibilitySpec(p_max=1.5, p_fj_max=10.0, xi_max=1e-14)
        p = np.array([0.0, 1.5, 0.0])  # leakage at node 0: 1.5e-14 > cap
        assert not feasible(p, spec, toy_context())

    @pytest.mark.parametrize("p_max", [0.0, -1.5])
    def test_nonpositive_power_box_rejected(self, p_max):
        with pytest.raises(ValueError):
            FeasibilitySpec(p_max=p_max)

    def test_grid_spans_the_power_box(self):
        spec = FeasibilitySpec(p_max=3.0, grid_points=5)
        assert spec.grid.tolist() == [0.0, 0.75, 1.5, 2.25, 3.0]

    @pytest.mark.parametrize("points", [1, 0])
    def test_grid_needs_two_points(self, points):
        with pytest.raises(ValueError, match="grid_points"):
            FeasibilitySpec(grid_points=points)


class TestBestResponse:
    def test_pure_cost_returns_zero(self):
        # a THN pays for power and gains nothing from it
        ctx = toy_context()
        grid = np.linspace(0, 1.5, 21)
        picks, _ = best_response([0], np.zeros(3), grid, BC, ctx,
                                 FeasibilitySpec(p_fj_max=10.0, xi_max=1.0), ROLES, ETA,
                                 COST)
        assert picks[0] == 0.0

    def test_increasing_utility_saturates_at_cap(self):
        # zero-cost jammer with a rewarding price climbs to the largest
        # feasible grid point under the budget
        ctx = toy_context()
        grid = np.linspace(0, 1.5, 21)
        spec = FeasibilitySpec(p_fj_max=0.9, xi_max=1.0)
        picks, _ = best_response([1], np.zeros(3), grid, BC, ctx, spec, ROLES, ETA, 0.0)
        assert picks[0] == pytest.approx(0.9)

    def test_matches_bruteforce_on_grid(self):
        # brute-force oracle: exhaustive scan of the same grid with the
        # independently coded utility
        ctx = toy_context()
        grid = np.linspace(0, 1.5, 11)
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)
        rng = np.random.default_rng(1)
        for _ in range(20):
            others = np.array([0.0, rng.choice(grid), rng.choice(grid)])
            u = int(rng.integers(1, 3))
            (got,), _ = best_response([u], others, grid, BC, ctx, spec, ROLES, ETA, COST)
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


class TestGneSolve:
    def test_single_node(self):
        ctx = SlotContext(
            served=[0], sig_w=np.array([1e-9]), isi_w=np.array([0.0]),
            an_thn_w=np.array([0.0]), noise_w=1e-12,
            eve_capture_w=np.array([5e-10]), eve_an_w=np.array([2e-11]),
            jam_to_eve=np.array([[0.0]]), jam_to_thn=np.array([[0.0]]),
        )
        res = gne_solve({0: Role.THN}, np.zeros(1), BC, ctx,
                        FeasibilitySpec(p_fj_max=5.0, xi_max=1.0), ETA, COST)
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
        )
        spec = FeasibilitySpec(p_fj_max=10.0, xi_max=1.0)
        res = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST)
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
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13, grid_points=11)
        res = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST)
        assert res.converged
        assert res.gap <= 1e-9
        # membership in the enumerated epsilon-GNE set
        grid = np.linspace(0, 1.5, 11)
        gne_set = []
        for p1 in grid:
            for p2 in grid:
                prof = np.array([0.0, p1, p2])
                if not feasible(prof, spec, ctx):
                    continue
                gap = equilibrium_gap(prof, grid, BC, ctx, spec, ROLES, ETA, COST)
                if gap <= 1e-9:
                    gne_set.append(prof)
        assert any(np.allclose(res.powers, g, atol=1e-15) for g in gne_set)

    def test_nonconvergence_flagged(self):
        ctx = toy_context()
        res = gne_solve(ROLES, np.zeros(3), BC, ctx,
                        FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13), ETA, COST,
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
        )
        res = gne_solve({0: Role.THN}, np.array([1e-4]), BC, ctx,
                        FeasibilitySpec(p_fj_max=5.0, xi_max=1.0), ETA, COST)
        assert res.converged
        assert res.iterations == 2
        assert res.powers[0] == 0.0

    @pytest.mark.parametrize("roles", [{0: Role.THN, 2: Role.JHN},
                                       {1: Role.THN, 2: Role.JHN, 3: Role.JHN}])
    def test_role_keys_must_be_node_ids(self, roles):
        with pytest.raises(ValueError, match="0..K-1"):
            gne_solve(roles, np.zeros(len(roles)), BC, toy_context(),
                      FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13), ETA, COST)


class TestEquilibriumGap:
    def test_matches_scalar_utility_scan(self):
        # the scalar oracle: best feasible grid utility minus the current
        # utility, each through hn_utility
        ctx = toy_context(info_gain=0.3)
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=3e-14)
        grid = np.linspace(0, 1.5, 7)
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
            assert equilibrium_gap(powers, grid, BC, ctx, spec, ROLES, ETA, COST) == want

    def test_off_grid_power_rejected(self):
        grid = np.linspace(0, 1.5, 7)
        with pytest.raises(ValueError, match="not on the grid"):
            equilibrium_gap(np.array([0.0, 0.3, 0.5]), grid, BC, toy_context(),
                            FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13), ROLES, ETA, COST)


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
                info_gain=rng.uniform(0, 1),
            )
            ctx.jam_to_thn[0, 0] = 0.0
            ctx.jam_to_thn[1, 1] = 0.0
            roles = {0: Role.THN, 1: Role.THN, 2: Role.JHN, 3: Role.JHN}
            costs = [rng.uniform(0.1, 1.0) for _ in range(k)]
            spec = FeasibilitySpec(p_fj_max=rng.uniform(1.0, 4.0),
                                   xi_max=rng.uniform(1e-13, 1e-12))
            powers = rng.uniform(0, 1.0, k)
            grid = np.linspace(0, 1.5, 11)
            for u in range(k):
                (values,), (feas,) = candidate_utilities([u], powers, grid, BC, ctx,
                                                         spec, roles, ETA, costs[u])
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
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)
        a = gne_solve(ROLES, np.zeros(3), BC, ctx, spec, ETA, COST)
        b = gne_solve(dict(ROLES), np.zeros(3), BC, ctx, spec, ETA, COST)
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
        info_gain=draw(unit),
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
            picks, empty = best_response([u], powers, grid, bc, ctx, spec, roles,
                                         eta, cost)
            assert picks[0] == want_p and empty[0] != feasible_any
        assert equilibrium_gap(powers, grid, bc, ctx, spec, roles, eta, cost) == want_gap


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
    values = (secrecy - cost * power - bc.tau * leak + jam + bc.kappa * ctx.info_gain)
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
                    (values,), (feas,) = candidate_utilities([u], powers, grid, bc, ctx,
                                                             spec, roles, eta, cost)
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
            assert equilibrium_gap(eq, grid, bc, ctx, spec, roles, eta, cost) == want


def reference_gne(roles, powers, bc, ctx, spec, eta, cost, max_iters=50):
    """The per-node Gauss-Seidel loop the block sweeps replaced: every node
    scored alone through best_response, at its turn, in every sweep, until a
    sweep moves no node. Returns (powers, iterations, converged, gap)."""
    grid = spec.grid
    powers = np.array(powers, dtype=float)
    if not feasible(powers, spec, ctx):
        powers = np.zeros_like(powers)
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        previous = powers.copy()
        for uid in range(len(roles)):
            (powers[uid],), _ = best_response([uid], powers, grid, bc, ctx, spec, roles,
                                              eta, cost)
        if np.array_equal(powers, previous):
            converged = True
            break
    gap = equilibrium_gap(powers, grid, bc, ctx, spec, roles, eta, cost)
    return powers, iterations, converged, gap


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
        ctx = toy_context(info_gain=0.3)
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=3e-14)
        grid = np.linspace(0, 1.5, 7)
        powers = np.array([0.25, 0.5, 1.0])
        picks, empty = best_response([2, 0, 1], powers, grid, BC, ctx, spec, ROLES,
                                     ETA, COST)
        assert not empty.any()
        assert picks.tolist() == [best_response([u], powers, grid, BC, ctx, spec, ROLES,
                                                ETA, COST)[0][0] for u in (2, 0, 1)]

    # A start just inside the closed budget (2.0 + 1e-12) whose slightly
    # negative entry hides that the other two nodes overdraw it: the node
    # holding the negative power has no feasible grid power at the start.
    OVERDRAWN = FeasibilitySpec(p_fj_max=2.0, xi_max=1.0)

    def test_fallback_warns_for_an_accepted_evaluation(self, caplog):
        start = np.array([-0.9e-12, 1.0, 1.0 + 1.5e-12])
        assert feasible(start, self.OVERDRAWN, toy_context())
        with caplog.at_level(logging.WARNING, logger="secure_isac.followers"):
            res = gne_solve(ROLES, start, BC, toy_context(), self.OVERDRAWN, ETA, COST)
        assert [r.getMessage() for r in caplog.records] == [
            "node 0: no feasible grid power, falling back to 0"]
        assert res.powers[0] == 0.0

    def test_fallback_never_warns_for_a_discarded_row(self, caplog):
        # node 0 moves first, so node 2's row in the same block, empty against
        # the start profile, is dropped; rescored after the move it is feasible
        start = np.array([1.0 + 1.5e-12, 1.0, -0.9e-12])
        grid = np.linspace(0, 1.5, 21)
        assert feasible(start, self.OVERDRAWN, toy_context())
        _, empty = best_response([0, 1, 2], start, grid, BC, toy_context(),
                                 self.OVERDRAWN, ROLES, ETA, COST)
        assert empty.tolist() == [False, False, True]
        with caplog.at_level(logging.WARNING, logger="secure_isac.followers"):
            res = gne_solve(ROLES, start, BC, toy_context(), self.OVERDRAWN, ETA, COST)
        assert caplog.records == []
        assert res.powers[0] == 0.0
