import numpy as np
import pytest

from secure_isac.followers import (
    FeasibilitySpec,
    NodeState,
    Role,
    best_response,
    equilibrium_gap,
    feasible,
    gne_solve,
    hn_utility,
    role_switch,
)
from secure_isac.leader import Broadcast
from secure_isac.link import SlotContext

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


def toy_nodes(roles=(Role.THN, Role.JHN, Role.JHN), cost=0.5):
    return [NodeState(i, np.zeros(3), role=r, p_max=1.5, cost=cost)
            for i, r in enumerate(roles)]


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
        nodes = toy_nodes()
        roles = {i: n.role for i, n in enumerate(nodes)}
        u = hn_utility(0, 0.0, np.zeros(3), roles, BC, ctx, nodes[0])
        assert u == 0.0

    def test_cost_linearity(self):
        ctx = toy_context()
        nodes = toy_nodes(cost=0.5)
        nodes2 = toy_nodes(cost=1.0)
        roles = {i: n.role for i, n in enumerate(nodes)}
        p = np.array([0.0, 0.8, 0.2])
        u1 = hn_utility(1, 0.8, p, roles, BC, ctx, nodes[1])
        u2 = hn_utility(1, 0.8, p, roles, BC, ctx, nodes2[1])
        assert u1 - u2 == pytest.approx(0.5 * 0.8, rel=1e-12)

    def test_matches_independent_oracle(self):
        # hand-built scalar instance, prices (0.7, 0.3, 0.1): implementation
        # agrees with a from-scratch evaluation to 1e-12
        ctx = toy_context(info_gain=0.3)
        nodes = toy_nodes()
        roles = {i: n.role for i, n in enumerate(nodes)}
        rng = np.random.default_rng(0)
        for _ in range(50):
            powers = rng.uniform(0, 1.5, size=3)
            powers[0] = 0.0
            for u in range(3):
                p = rng.uniform(0, 1.5)
                got = hn_utility(u, p, powers, roles, BC, ctx, nodes[u])
                want = oracle_utility(u, p, powers, roles, BC, info_gain=0.3)
                assert got == pytest.approx(want, abs=1e-12)

    def test_infeasible_power_rejected(self):
        ctx = toy_context()
        nodes = toy_nodes()
        roles = {i: n.role for i, n in enumerate(nodes)}
        with pytest.raises(ValueError):
            hn_utility(1, 2.0, np.zeros(3), roles, BC, ctx, nodes[1])


class TestFeasible:
    def spec(self):
        return FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)

    def test_zeros_feasible(self):
        assert feasible(np.zeros(3), self.spec(), np.full(3, 1.5), toy_context())

    def test_box_violation(self):
        p = np.array([0.0, 1.5 + 1e-6, 0.0])
        assert not feasible(p, self.spec(), np.full(3, 1.5), toy_context())

    def test_sum_cap_closed(self):
        p = np.array([0.0, 1.0, 1.0])  # exactly at the 2.0 budget
        assert feasible(p, self.spec(), np.full(3, 1.5), toy_context())
        assert not feasible(p * 1.01, self.spec(), np.full(3, 1.5), toy_context())

    def test_leakage_cap(self):
        spec = FeasibilitySpec(p_fj_max=10.0, xi_max=1e-14)
        p = np.array([0.0, 1.5, 0.0])  # leakage at node 0: 1.5e-14 > cap
        assert not feasible(p, spec, np.full(3, 1.5), toy_context())


class TestBestResponse:
    def test_pure_cost_returns_zero(self):
        # a THN pays for power and gains nothing from it
        ctx = toy_context()
        nodes = toy_nodes()
        roles = {i: n.role for i, n in enumerate(nodes)}
        grid = np.linspace(0, 1.5, 21)
        p = best_response(0, np.zeros(3), grid, BC, ctx,
                          FeasibilitySpec(p_fj_max=10.0, xi_max=1.0), roles,
                          {i: n for i, n in enumerate(nodes)}, np.full(3, 1.5))
        assert p == 0.0

    def test_increasing_utility_saturates_at_cap(self):
        # zero-cost jammer with a rewarding price climbs to the largest
        # feasible grid point under the budget
        ctx = toy_context()
        nodes = toy_nodes()
        nodes[1].cost = 0.0
        roles = {i: n.role for i, n in enumerate(nodes)}
        grid = np.linspace(0, 1.5, 21)
        spec = FeasibilitySpec(p_fj_max=0.9, xi_max=1.0)
        p = best_response(1, np.zeros(3), grid, BC, ctx, spec, roles,
                          {i: n for i, n in enumerate(nodes)}, np.full(3, 1.5))
        assert p == pytest.approx(0.9)

    def test_matches_bruteforce_on_grid(self):
        # brute-force oracle: exhaustive scan of the same grid with the
        # independently coded utility
        ctx = toy_context()
        nodes = toy_nodes()
        roles = {i: n.role for i, n in enumerate(nodes)}
        grid = np.linspace(0, 1.5, 11)
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)
        rng = np.random.default_rng(1)
        for _ in range(20):
            others = np.array([0.0, rng.choice(grid), rng.choice(grid)])
            u = int(rng.integers(1, 3))
            got = best_response(u, others, grid, BC, ctx, spec, roles,
                                {i: n for i, n in enumerate(nodes)}, np.full(3, 1.5))
            best_val, best_p = -np.inf, None
            for p in grid:
                trial = others.copy()
                trial[u] = p
                if trial.sum() > 2.0 + 1e-12:
                    continue
                if 1e-14 * trial[1] + 2e-14 * trial[2] > 1e-13 * (1 + 1e-9):
                    continue
                val = oracle_utility(u, p, trial, roles, BC)
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
        res = gne_solve([NodeState(0, np.zeros(3), role=Role.THN)], BC, ctx,
                        FeasibilitySpec(p_fj_max=5.0, xi_max=1.0))
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
        nodes = toy_nodes()
        res = gne_solve(nodes, BC, ctx, FeasibilitySpec(p_fj_max=10.0, xi_max=1.0))
        assert res.converged
        # independent optimum per jammer: brute-force its own grid alone
        grid = np.linspace(0, 1.5, 21)
        roles = {i: n.role for i, n in enumerate(nodes)}
        for u in (1, 2):
            vals = []
            for p in grid:
                trial = res.powers.copy()
                trial[u] = p
                vals.append(hn_utility(u, p, trial, roles, BC, ctx, nodes[u]))
            assert res.powers[u] == pytest.approx(grid[int(np.argmax(vals))])

    def test_three_node_equilibrium_matches_enumeration(self):
        # epsilon-GNE oracle: exhaustive joint enumeration over the 11^2
        # jammer profiles, returned profile has no improving unilateral move
        ctx = toy_context()
        nodes = toy_nodes()
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)
        res = gne_solve(nodes, BC, ctx, spec, grid_points=11)
        assert res.converged
        assert res.gap <= 1e-9
        # membership in the enumerated epsilon-GNE set
        grid = np.linspace(0, 1.5, 11)
        roles = {i: n.role for i, n in enumerate(nodes)}
        p_maxes = np.full(3, 1.5)
        gne_set = []
        for p1 in grid:
            for p2 in grid:
                prof = np.array([0.0, p1, p2])
                if not feasible(prof, spec, p_maxes, ctx):
                    continue
                gap = equilibrium_gap(prof, {i: grid for i in range(3)}, BC, ctx,
                                      spec, roles, {i: n for i, n in enumerate(nodes)},
                                      p_maxes)
                if gap <= 1e-9:
                    gne_set.append(prof)
        assert any(np.allclose(res.powers, g, atol=1e-15) for g in gne_set)

    def test_nonconvergence_flagged(self):
        ctx = toy_context()
        nodes = toy_nodes()
        res = gne_solve(nodes, BC, ctx, FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13),
                        max_iters=1)
        assert res.iterations == 1  # cap respected even if it converged fast


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
            nodes = [NodeState(i, np.zeros(3), roles[i], p_max=1.5,
                               cost=rng.uniform(0.1, 1.0)) for i in range(k)]
            spec = FeasibilitySpec(p_fj_max=rng.uniform(1.0, 4.0),
                                   xi_max=rng.uniform(1e-13, 1e-12))
            powers = rng.uniform(0, 1.0, k)
            grid = np.linspace(0, 1.5, 11)
            p_maxes = np.full(k, 1.5)
            for u in range(k):
                values, feas = candidate_utilities(u, powers, grid, BC, ctx,
                                                   spec, roles, nodes[u], p_maxes)
                for gi, g in enumerate(grid):
                    trial_p = powers.copy()
                    trial_p[u] = g
                    scalar_feas = feasible(trial_p, spec, p_maxes, ctx)
                    assert feas[gi] == scalar_feas, (trial, u, gi)
                    if scalar_feas:
                        want = hn_utility(u, g, powers, roles, BC, ctx, nodes[u])
                        assert values[gi] == pytest.approx(want, abs=1e-12), (trial, u, gi)


class TestGneInvariants:
    def test_returned_profile_feasible_and_deterministic(self):
        ctx = toy_context()
        nodes = toy_nodes()
        spec = FeasibilitySpec(p_fj_max=2.0, xi_max=1e-13)
        a = gne_solve(nodes, BC, ctx, spec)
        b = gne_solve(toy_nodes(), BC, ctx, spec)
        assert feasible(a.powers, spec, np.full(3, 1.5), ctx)
        assert np.array_equal(a.powers, b.powers)
        assert a.iterations == b.iterations
