import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_isac.belief import kernel_adapt
from secure_isac.config import LeaderConfig, ScenarioConfig
from secure_isac.leader import (
    Broadcast,
    LeaderKpis,
    LeaderState,
    an_update,
    data_fraction,
    leader_step,
    price_update,
    sensing_fraction,
)

CONFIG = ScenarioConfig()
LEAD = CONFIG.leader


def leader_state(sigma=10.0, **announced):
    """A controller state announcing (0.6, 0.2, 0.2) and prices (0.7, 0.3,
    0.1), but for the fields in `announced`."""
    split = dict(alpha=0.6, beta=0.2, gamma=0.2, pi=0.7, tau=0.3, kappa=0.1)
    return LeaderState(Broadcast(**{**split, **announced}), sigma)


class TestSensingFraction:
    def test_endpoints(self):
        assert sensing_fraction(0.0, LEAD) == LEAD.gamma_min
        assert sensing_fraction(LEAD.h_max_bits, LEAD) == pytest.approx(LEAD.gamma_max)
        assert sensing_fraction(100.0, LEAD) == pytest.approx(LEAD.gamma_max)

    def test_midpoint(self):
        mid = sensing_fraction(LEAD.h_max_bits / 2, LEAD)
        assert mid == pytest.approx((LEAD.gamma_min + LEAD.gamma_max) / 2)

    def test_monotone(self):
        hs = np.linspace(0, 6, 50)
        gs = [sensing_fraction(h, LEAD) for h in hs]
        assert np.all(np.diff(gs) >= 0)


class TestAnUpdate:
    def test_zero_error_fixed_point(self):
        assert an_update(0.3, 0.0, 0.1, LEAD) == pytest.approx(0.3)

    def test_saturates_at_complement(self):
        lead = LeaderConfig(beta_max=1.0)
        assert an_update(0.5, 100.0, 0.25, lead) == pytest.approx(0.75)

    def test_negative_error_decreases(self):
        lead = LeaderConfig(k_s=0.05)
        assert an_update(0.2, -1.0, 0.1, lead) == pytest.approx(0.15)

    def test_floor(self):
        assert an_update(0.05, -100.0, 0.1, LEAD) == 0.0

    def test_beta_max_antiwindup(self):
        lead = LeaderConfig(beta_max=0.6)
        assert an_update(0.55, 10.0, 0.1, lead) == pytest.approx(0.6)


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
        assert price_update(0.7, LeaderKpis(jam_benefit=0.0), LEAD) == pytest.approx(0.7)

    def test_clamp_at_max(self):
        assert price_update(1.0, LeaderKpis(jam_benefit=5.0), LEAD) == 1.0

    def test_clamp_at_min(self):
        assert price_update(0.1, LeaderKpis(jam_benefit=-5.0), LEAD) == LEAD.pi_min

    def test_step_follows_jam_benefit(self):
        kpis = LeaderKpis(jam_benefit=2.0)
        assert price_update(0.5, kpis, LEAD) == pytest.approx(0.5 + 2.0 * LEAD.k_pi)


class TestLeaderStep:
    def test_state_is_frozen_and_kept(self):
        state = leader_state(12.0, beta=0.25)
        before = (state.broadcast, state.kernel_sigma_deg)
        new = leader_step(state, CONFIG, LeaderKpis(secrecy=0.0, jam_benefit=1.0), 7.0)
        assert new.broadcast != state.broadcast
        assert (state.broadcast, state.kernel_sigma_deg) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.kernel_sigma_deg = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.broadcast = new.broadcast

    @pytest.mark.parametrize("entropy_bits", [0.0, 3.0, LEAD.h_max_bits, 10.0])
    def test_tau_and_kappa_carried_over(self, entropy_bits):
        # tau and kappa are fixed announcements: no entropy excess or deficit
        # moves them, while the same step does adapt pi
        state = leader_state(tau=0.45, kappa=0.05)
        new = leader_step(state, CONFIG, LeaderKpis(secrecy=0.0, jam_benefit=3.0),
                          entropy_bits)
        assert (new.broadcast.tau, new.broadcast.kappa) == (0.45, 0.05)
        assert new.broadcast.pi == pytest.approx(0.7 + 3.0 * LEAD.k_pi)

    def test_fixed_point_consistency(self):
        # e=0, jam_benefit=0, H=H_max: identity on (beta, pi, tau, kappa, sigma)
        state = leader_state(12.0, beta=0.25, pi=0.5, tau=0.4, kappa=0.2)
        kpis = LeaderKpis(secrecy=LEAD.r_s_target, jam_benefit=0.0)
        new = leader_step(state, CONFIG, kpis, LEAD.h_max_bits)
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
            state = leader_step(state, CONFIG, LeaderKpis(secrecy=0.0), 2.0)
            betas.append(state.broadcast.beta)
        diffs = np.diff(betas)
        assert np.all(diffs >= -1e-12)
        assert betas[-1] > betas[0]

    def test_invariants_hold_for_arbitrary_kpis(self):
        rng = np.random.default_rng(0)
        state = leader_state()
        for _ in range(500):
            kpis = LeaderKpis(secrecy=rng.uniform(0, 10),
                              jam_benefit=rng.uniform(-5, 20))
            state = leader_step(state, CONFIG, kpis, rng.uniform(0, 8))
            bc = state.broadcast
            assert abs(bc.alpha + bc.beta + bc.gamma - 1.0) <= 1e-9
            assert LEAD.pi_min <= bc.pi <= LEAD.pi_max
            assert (bc.tau, bc.kappa) == (0.3, 0.1)    # fixed announcements
            assert LEAD.gamma_min <= bc.gamma <= LEAD.gamma_max
            assert 0.0 <= bc.beta <= LEAD.beta_max
            assert (CONFIG.belief.sigma_min_deg <= state.kernel_sigma_deg
                    <= CONFIG.belief.sigma_max_deg)

    def test_residual_zero_at_fixed_point(self):
        gamma = sensing_fraction(LEAD.h_max_bits, LEAD)
        state = leader_state(alpha=1.0 - 0.2 - gamma, beta=0.2, gamma=gamma)
        kpis = LeaderKpis(secrecy=LEAD.r_s_target)
        new = leader_step(state, CONFIG, kpis, LEAD.h_max_bits)
        for name in ("alpha", "beta", "gamma", "pi", "tau", "kappa"):
            assert getattr(new.broadcast, name) == pytest.approx(
                getattr(state.broadcast, name), abs=1e-12)



@pytest.mark.parametrize("bound,value,entropy_bits,unclamped", [
    # 2 bits over budget widens 10 deg by eta_sigma * 2 = 1 deg
    ("sigma_max_deg", 10.5, 8.0, 11.0),
    # zero entropy shrinks 10 deg by eta_sigma * 6 = 3 deg
    ("sigma_min_deg", 8.0, 0.0, 7.0),
])
def test_kernel_width_clamped_to_belief_section(bound, value, entropy_bits, unclamped):
    config = ScenarioConfig()
    step = lambda: leader_step(leader_state(10.0), config, LeaderKpis(),
                               entropy_bits).kernel_sigma_deg
    assert step() == pytest.approx(unclamped)
    setattr(config.belief, bound, value)
    assert step() == value


# The np.clip forms of the clipped laws, kept as their oracles: the package
# clips its floats with min(max(x, lo), hi), which must give the same value
# and the same sign of zero.

def oracle_sensing_fraction(entropy_bits, lead):
    frac = np.clip(entropy_bits / lead.h_max_bits, 0.0, 1.0)
    return float(lead.gamma_min + (lead.gamma_max - lead.gamma_min) * frac)


def oracle_an_update(beta_prev, secrecy_error, gamma, lead):
    hi = min(1.0 - gamma, lead.beta_max)
    lo = min(lead.beta_min, hi)
    return float(np.clip(beta_prev + lead.k_s * secrecy_error, lo, hi))


def oracle_price_update(pi, kpis, lead):
    return float(np.clip(pi + lead.k_pi * kpis.jam_benefit, lead.pi_min, lead.pi_max))


def oracle_kernel_adapt(sigma, entropy_bits, h_max, eta_sigma, sigma_min, sigma_max):
    return float(np.clip(sigma + eta_sigma * (entropy_bits - h_max), sigma_min, sigma_max))


# signed zeros, infinities and NaN next to ordinary floats
ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]),
                      st.floats(allow_nan=True, allow_infinity=True))
GAIN = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))
BOUND = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6))


@st.composite
def box(draw):
    """Bounds lo <= hi, equal in about a quarter of the draws."""
    lo = draw(BOUND)
    return lo, lo if draw(st.integers(0, 3)) == 0 else max(lo, draw(BOUND))


class TestScalarClips:
    @settings(max_examples=500, deadline=None)
    @given(entropy_bits=ANY_FLOAT, h_max=st.floats(1e-3, 20.0), gammas=box())
    def test_sensing_fraction(self, entropy_bits, h_max, gammas):
        lead = LeaderConfig(h_max_bits=h_max, gamma_min=gammas[0], gamma_max=gammas[1])
        if entropy_bits < 0:
            with pytest.raises(ValueError):
                sensing_fraction(entropy_bits, lead)
            entropy_bits = abs(entropy_bits)
        assert repr(sensing_fraction(entropy_bits, lead)) == repr(
            oracle_sensing_fraction(entropy_bits, lead))

    @settings(max_examples=500, deadline=None)
    @given(beta=ANY_FLOAT, error=ANY_FLOAT, k_s=GAIN, gamma=st.floats(0.0, 1.0),
           betas=box())
    def test_an_update(self, beta, error, k_s, gamma, betas):
        lead = LeaderConfig(k_s=k_s, beta_min=betas[0], beta_max=betas[1])
        assert repr(an_update(beta, error, gamma, lead)) == repr(
            oracle_an_update(beta, error, gamma, lead))

    @settings(max_examples=500, deadline=None)
    @given(pi=ANY_FLOAT, jam_benefit=ANY_FLOAT, k_pi=GAIN, pis=box())
    def test_price_update(self, pi, jam_benefit, k_pi, pis):
        lead = LeaderConfig(k_pi=k_pi, pi_min=pis[0], pi_max=pis[1])
        args = (pi, LeaderKpis(jam_benefit=jam_benefit), lead)
        assert repr(price_update(*args)) == repr(oracle_price_update(*args))

    @settings(max_examples=500, deadline=None)
    @given(sigma=st.one_of(st.sampled_from([1e-300, 1.0, np.inf]), st.floats(1e-6, 1e6)),
           entropy_bits=ANY_FLOAT, h_max=ANY_FLOAT, eta=GAIN, sigmas=box())
    def test_kernel_adapt(self, sigma, entropy_bits, h_max, eta, sigmas):
        args = (sigma, entropy_bits, h_max, eta, *sigmas)
        assert repr(kernel_adapt(*args)) == repr(oracle_kernel_adapt(*args))

