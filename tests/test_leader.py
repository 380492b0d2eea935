import dataclasses

import numpy as np
import pytest

from secure_isac.leader import (
    Broadcast,
    LeaderGains,
    LeaderKpis,
    LeaderState,
    an_update,
    data_fraction,
    leader_step,
    price_update,
    sensing_fraction,
)

GAINS = LeaderGains()


def leader_state(sigma=10.0, **announced):
    """A controller state announcing (0.6, 0.2, 0.2) and prices (0.7, 0.3,
    0.1), but for the fields in `announced`."""
    split = dict(alpha=0.6, beta=0.2, gamma=0.2, pi=0.7, tau=0.3, kappa=0.1)
    return LeaderState(Broadcast(**{**split, **announced}), sigma)


class TestSensingFraction:
    def test_endpoints(self):
        assert sensing_fraction(0.0, GAINS) == GAINS.gamma_min
        assert sensing_fraction(GAINS.h_max, GAINS) == pytest.approx(GAINS.gamma_max)
        assert sensing_fraction(100.0, GAINS) == pytest.approx(GAINS.gamma_max)

    def test_midpoint(self):
        mid = sensing_fraction(GAINS.h_max / 2, GAINS)
        assert mid == pytest.approx((GAINS.gamma_min + GAINS.gamma_max) / 2)

    def test_monotone(self):
        hs = np.linspace(0, 6, 50)
        gs = [sensing_fraction(h, GAINS) for h in hs]
        assert np.all(np.diff(gs) >= 0)


class TestAnUpdate:
    def test_zero_error_fixed_point(self):
        assert an_update(0.3, 0.0, 0.1, GAINS) == pytest.approx(0.3)

    def test_saturates_at_complement(self):
        gains = LeaderGains(beta_max=1.0)
        assert an_update(0.5, 100.0, 0.25, gains) == pytest.approx(0.75)

    def test_negative_error_decreases(self):
        gains = LeaderGains(k_s=0.05)
        assert an_update(0.2, -1.0, 0.1, gains) == pytest.approx(0.15)

    def test_floor(self):
        assert an_update(0.05, -100.0, 0.1, GAINS) == 0.0

    def test_beta_max_antiwindup(self):
        gains = LeaderGains(beta_max=0.6)
        assert an_update(0.55, 10.0, 0.1, gains) == pytest.approx(0.6)


class TestDataFraction:
    def test_table_initial_split(self):
        assert data_fraction(0.2, 0.2) == pytest.approx(0.6)

    def test_all_data(self):
        assert data_fraction(0.0, 0.0) == 1.0

    def test_boundary(self):
        assert data_fraction(0.5, 0.5) == 0.0

    def test_infeasible(self):
        with pytest.raises(ValueError):
            data_fraction(0.7, 0.4)


class TestPriceUpdate:
    def test_zero_drives_fixed_point(self):
        kpis = LeaderKpis(jam_benefit=0.0, mean_leakage_w=GAINS.xi_target_w)
        prices = price_update(0.7, 0.3, 0.1, kpis, GAINS.h_max, GAINS)
        assert prices == (pytest.approx(0.7), pytest.approx(0.3), pytest.approx(0.1))

    def test_clamp_at_max(self):
        kpis = LeaderKpis(jam_benefit=5.0)
        pi, _, _ = price_update(1.0, 0.3, 0.1, kpis, 0.0, GAINS)
        assert pi == 1.0

    def test_tau_decrement(self):
        gains = LeaderGains(k_tau=0.1)
        kpis = LeaderKpis(mean_leakage_w=gains.xi_target_w - 1.0)
        _, tau, _ = price_update(0.7, 0.3, 0.1, kpis, gains.h_max, gains)
        assert tau == pytest.approx(0.2)

    def test_kappa_rises_with_entropy_excess(self):
        _, _, kappa = price_update(0.7, 0.3, 0.1, LeaderKpis(), GAINS.h_max + 1.0, GAINS)
        assert kappa == pytest.approx(0.1 + GAINS.k_kappa)


class TestLeaderStep:
    def test_state_is_frozen_and_kept(self):
        state = leader_state(12.0, beta=0.25)
        before = (state.broadcast, state.kernel_sigma_deg)
        new = leader_step(state, GAINS, LeaderKpis(secrecy=0.0, jam_benefit=1.0), 7.0)
        assert new.broadcast != state.broadcast
        assert (state.broadcast, state.kernel_sigma_deg) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.kernel_sigma_deg = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.broadcast = new.broadcast

    def test_fixed_point_consistency(self):
        # e=0, jam_benefit=0, leakage at target, H=H_max: identity on
        # (beta, pi, tau, kappa, sigma)
        state = leader_state(12.0, beta=0.25, pi=0.5, tau=0.4, kappa=0.2)
        kpis = LeaderKpis(secrecy=GAINS.r_s_target, jam_benefit=0.0,
                          mean_leakage_w=GAINS.xi_target_w)
        new = leader_step(state, GAINS, kpis, GAINS.h_max)
        bc, last = new.broadcast, state.broadcast
        assert bc.beta == pytest.approx(last.beta)
        assert bc.pi == pytest.approx(last.pi)
        assert bc.tau == pytest.approx(last.tau)
        assert bc.kappa == pytest.approx(last.kappa)
        assert new.kernel_sigma_deg == pytest.approx(state.kernel_sigma_deg)
        assert isinstance(bc, Broadcast)

    def test_persistent_deficit_raises_beta(self):
        state = leader_state(beta=0.1)
        betas = [state.broadcast.beta]
        for _ in range(10):
            state = leader_step(state, GAINS, LeaderKpis(secrecy=0.0), 2.0)
            betas.append(state.broadcast.beta)
        diffs = np.diff(betas)
        assert np.all(diffs >= -1e-12)
        assert betas[-1] > betas[0]

    def test_invariants_hold_for_arbitrary_kpis(self):
        rng = np.random.default_rng(0)
        state = leader_state()
        for _ in range(500):
            kpis = LeaderKpis(secrecy=rng.uniform(0, 10), outage=rng.uniform(0, 1),
                              jam_benefit=rng.uniform(-5, 20),
                              mean_leakage_w=rng.uniform(0, 1e-9),
                              info_gain=rng.uniform(0, 2))
            state = leader_step(state, GAINS, kpis, rng.uniform(0, 8))
            bc = state.broadcast
            assert abs(bc.alpha + bc.beta + bc.gamma - 1.0) <= 1e-9
            assert GAINS.pi_bounds[0] <= bc.pi <= GAINS.pi_bounds[1]
            assert GAINS.tau_bounds[0] <= bc.tau <= GAINS.tau_bounds[1]
            assert GAINS.kappa_bounds[0] <= bc.kappa <= GAINS.kappa_bounds[1]
            assert GAINS.gamma_min <= bc.gamma <= GAINS.gamma_max
            assert 0.0 <= bc.beta <= GAINS.beta_max
            assert GAINS.sigma_min_deg <= state.kernel_sigma_deg <= GAINS.sigma_max_deg

    def test_residual_zero_at_fixed_point(self):
        gamma = sensing_fraction(GAINS.h_max, GAINS)
        state = leader_state(alpha=1.0 - 0.2 - gamma, beta=0.2, gamma=gamma)
        kpis = LeaderKpis(secrecy=GAINS.r_s_target, mean_leakage_w=GAINS.xi_target_w)
        new = leader_step(state, GAINS, kpis, GAINS.h_max)
        for name in ("alpha", "beta", "gamma", "pi", "tau", "kappa"):
            assert getattr(new.broadcast, name) == pytest.approx(
                getattr(state.broadcast, name), abs=1e-12)
