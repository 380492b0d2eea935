import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_isac.arrays import ArraySpec, ula_positions
from secure_isac.channel import los_channel
from secure_isac.config import PowerModelConfig
from secure_isac.link import (
    CapacityError,
    NoNullspaceError,
    SlotContext,
    _delivered,
    an_power_at,
    an_residual,
    an_projector,
    build_precoder,
    outage_metrics,
    power_accounting,
    see,
)
from test_followers import jam_contribution

C = 299792458.0
LAM = C / 28e9

# base-station power fractions (data, AN, sensing) and total budget
Split = namedtuple("Split", "alpha beta gamma bs_power")


def los_at(spec, x, y, gain=1.0, z=0.0):
    return los_channel(ula_positions(spec), np.array([x, y, z]), gain, spec.wavelength)


def an_at(channels, span, an_power_w):
    """AN power at each channel through the served span."""
    return an_power_at(an_residual(channels, span), span, an_power_w)


def link_context(split, prec, channels, eve_channels=(), basis=None, noise=2e-12,
                 eve_noise=0.0, rx_gain=1.0, jam_to_thn=None, jam_to_eve=None):
    """SlotContext of a physical link, assembled as the engine does: served
    coupling through the precoder, worst-case stream capture at each
    eavesdropper, AN through the nullspace basis. Jammer rows default to one
    silent node."""
    u_count = len(channels)
    p_stream = split.alpha * split.bs_power / u_count
    an_total = split.beta * split.bs_power
    sig, isi, an = np.zeros(u_count), np.zeros(u_count), np.zeros(u_count)
    for idx, h in enumerate(channels):
        coupling = np.abs(np.conj(h) @ prec.beams) ** 2
        sig[idx] = p_stream * coupling[idx] * rx_gain
        isi[idx] = p_stream * (coupling.sum() - coupling[idx]) * rx_gain
        if basis is not None:
            an[idx] = an_at(h, basis, an_total) * rx_gain
    e_count = len(eve_channels)
    return SlotContext(
        served=list(range(u_count)), sig_w=sig, isi_w=isi, an_thn_w=an,
        noise_w=noise,
        eve_capture_w=np.array([p_stream * np.linalg.norm(g) ** 2 * rx_gain
                                for g in eve_channels]),
        eve_an_w=np.array([0.0 if basis is None
                           else an_at(g, basis, an_total) * rx_gain
                           for g in eve_channels]),
        jam_to_eve=np.zeros((1, e_count)) if jam_to_eve is None else jam_to_eve,
        jam_to_thn=np.zeros((1, u_count)) if jam_to_thn is None else jam_to_thn,
        eve_noise_w=eve_noise, jam_to_hn=None)


def scalar_context(legit_sinr, eve_sinrs):
    """One served stream at the given SINR against eavesdroppers at theirs
    (unit noise everywhere, one silent jammer)."""
    e_count = len(eve_sinrs)
    return SlotContext(
        served=[0], sig_w=np.array([legit_sinr]), isi_w=np.zeros(1),
        an_thn_w=np.zeros(1), noise_w=1.0, eve_capture_w=np.array(eve_sinrs, float),
        eve_an_w=np.zeros(e_count), jam_to_eve=np.zeros((1, e_count)),
        jam_to_thn=np.zeros((1, 1)), eve_noise_w=1.0, jam_to_hn=None)


class TestPrecoder:
    def test_single_thn_matched_beam(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        matched = h / np.linalg.norm(h)  # maximizes |h^H f|
        # equal up to a global phase
        overlap = abs(np.vdot(prec.beams[:, 0], matched))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        gain = np.abs(np.conj(h) @ prec.beams[:, 0]) ** 2 / np.linalg.norm(h) ** 2
        assert gain == pytest.approx(1.0, abs=1e-9)

    def test_two_separated_thns_low_cross_gain(self):
        spec = ArraySpec.half_wavelength(128, LAM)
        r = 120.0
        a1, a2 = np.radians(40.0), np.radians(-40.0)
        h1 = los_at(spec, r * np.cos(a1), r * np.sin(a1), gain=0.001)
        h2 = los_at(spec, r * np.cos(a2), r * np.sin(a2), gain=0.001)
        prec = build_precoder([h1, h2], num_rf=8, rzf_reg=1e-3)
        direct = np.abs(np.conj(h1) @ prec.beams[:, 0]) ** 2
        cross = np.abs(np.conj(h2) @ prec.beams[:, 0]) ** 2
        assert cross <= 1e-2 * direct

    def test_zero_thns_empty(self):
        prec = build_precoder([], num_rf=8, rzf_reg=1e-3)
        assert prec.beams.shape[1] == 0

    def test_capacity_error(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        hs = [los_at(spec, 30.0, float(k)) for k in range(3)]
        with pytest.raises(CapacityError):
            build_precoder(hs, num_rf=2, rzf_reg=1e-3)

    def test_analog_block_structure(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        hs = [los_at(spec, 30.0, 5.0), los_at(spec, 30.0, -8.0)]
        prec = build_precoder(hs, num_rf=4, rzf_reg=1e-3)
        sub = 4
        for b in range(4):
            col = prec.analog[:, b]
            inside = col[b * sub:(b + 1) * sub]
            outside = np.delete(col, slice(b * sub, (b + 1) * sub))
            assert np.allclose(np.abs(inside), 1 / np.sqrt(sub))
            assert np.allclose(outside, 0.0)

    def test_unit_norm_beams(self):
        spec = ArraySpec.half_wavelength(32, LAM)
        hs = [los_at(spec, 50.0, 10.0), los_at(spec, 60.0, -20.0)]
        prec = build_precoder(hs, num_rf=4, rzf_reg=1e-3)
        assert np.allclose(np.linalg.norm(prec.beams, axis=0), 1.0, atol=1e-12)


class TestAnProjector:
    def test_rank_one_complement(self):
        spec = ArraySpec.half_wavelength(4, LAM)
        h = los_at(spec, 20.0, 3.0)
        span = an_projector([h], num_antennas=spec.num_elements)
        beta_p = 2.0
        assert an_at(h, span, beta_p) <= 1e-10 * beta_p
        assert np.allclose(span.conj().T @ span, np.eye(span.shape[1]), atol=1e-10)

    def test_batched_call_equals_row_calls(self):
        rng = np.random.default_rng(5)
        spec = ArraySpec.half_wavelength(128, LAM)
        span = an_projector([los_at(spec, 50.0, y) for y in (5.0, -12.0, 30.0)],
                            num_antennas=spec.num_elements)
        stack = (rng.standard_normal((6, 128)) + 1j * rng.standard_normal((6, 128))) * 1e-3
        batched = an_at(stack, span, 2.5)
        assert batched.shape == (6,)
        assert np.array_equal(batched, [an_at(h, span, 2.5) for h in stack])

    def test_matches_explicit_projector(self):
        rng = np.random.default_rng(6)
        spec = ArraySpec.half_wavelength(32, LAM)
        span = an_projector([los_at(spec, 40.0, 9.0), los_at(spec, 60.0, -20.0)],
                            num_antennas=spec.num_elements)
        projector = np.eye(32) - span @ span.conj().T
        for _ in range(20):
            h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            want = 1.5 / 30 * np.linalg.norm(projector @ h) ** 2
            assert an_at(h, span, 1.5) == pytest.approx(want, rel=1e-12)

    def test_empty_served_set_spreads_over_all_antennas(self):
        rng = np.random.default_rng(7)
        span = an_projector([], num_antennas=16)
        assert span.shape == (16, 0)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert an_at(h, span, 3.0) == pytest.approx(
            3.0 / 16 * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_no_complement_gives_zeros_of_batch_shape(self):
        rng = np.random.default_rng(8)
        span, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        stack = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        out = an_at(stack, span, 1.0)
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_an_invisible_at_served(self):
        spec = ArraySpec.half_wavelength(64, LAM)
        hs = [los_at(spec, 50.0, y) for y in (5.0, -12.0, 30.0)]
        basis = an_projector(hs, num_antennas=spec.num_elements)
        beta_p = 3.0
        for h in hs:
            assert an_at(h, basis, beta_p) <= 1e-8 * beta_p

    def test_random_eve_receives_an(self):
        # Monte Carlo: an unconstrained channel almost surely lands in the
        # nullspace with mean power well above 1e-3 of the injected AN
        rng = np.random.default_rng(11)
        spec = ArraySpec.half_wavelength(16, LAM)
        hs = [los_at(spec, 50.0, 5.0), los_at(spec, 70.0, -9.0)]
        basis = an_projector(hs, num_antennas=spec.num_elements)
        beta_p = 1.0
        received = []
        for _ in range(1000):
            e = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2 * 16)
            received.append(an_at(e, basis, beta_p))
        assert np.mean(received) > 1e-3 * beta_p
        assert np.all(np.asarray(received) >= 0.0)

    def test_full_span_error(self):
        rng = np.random.default_rng(0)
        hs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        with pytest.raises(NoNullspaceError):
            an_projector(hs, num_antennas=3)


class TestSinrLegitimate:
    # served SINRs are read through the rate with no eavesdropper, where the
    # secrecy rate is log2(1 + SINR)
    def test_interference_free_reduction(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        split = Split(0.7, 0.2, 0.1, 10.0)
        noise = 2e-12
        ctx = link_context(split, prec, [h], noise=noise, rx_gain=2.0)
        expected = 0.7 * 10.0 * np.abs(np.conj(h) @ prec.beams[:, 0]) ** 2 * 2.0 / noise
        assert ctx.rates(np.zeros(1))[0] == pytest.approx(np.log2(1 + expected), rel=1e-12)

    def test_jammer_strictly_decreases(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        ctx = link_context(Split(0.7, 0.2, 0.1, 10.0), prec, [h],
                           jam_to_thn=np.array([[1e-12]]))
        assert ctx.leakage_at_served(np.ones(1))[0] == 1e-12
        assert ctx.rates(np.ones(1))[0] < ctx.rates(np.zeros(1))[0]

    def test_symmetric_thns_equal_sinr(self):
        # mirrored geometry, shadow 0, pure LOS: rates agree to 1e-9
        spec = ArraySpec.half_wavelength(128, LAM)
        r = 90.0
        az = np.radians(25.0)
        h1 = los_at(spec, r * np.cos(az), r * np.sin(az), gain=0.002)
        h2 = los_at(spec, r * np.cos(az), -r * np.sin(az), gain=0.002)
        prec = build_precoder([h1, h2], num_rf=2, rzf_reg=1e-3)
        ctx = link_context(Split(0.8, 0.1, 0.1, 15.0), prec, [h1, h2])
        r1, r2 = ctx.rates(np.zeros(1))
        assert r1 == pytest.approx(r2, rel=1e-9)


class TestSinrEavesdropper:
    def test_colocated_eve_matches_legitimate(self):
        # a single matched stream: the interceptor at the served node's own
        # channel captures exactly the served power, so secrecy clips to 0
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        noise = 2e-12
        ctx = link_context(Split(1.0, 0.0, 0.0, 10.0), prec, [h], [h],
                           noise=noise, eve_noise=noise)
        legit = ctx.sig_w[0] / (ctx.isi_w[0] + ctx.an_thn_w[0] + noise)
        assert ctx.eve_rate_max(np.zeros(1)) == pytest.approx(np.log2(1 + legit),
                                                              rel=1e-12)
        assert ctx.rates(np.zeros(1))[0] == pytest.approx(0.0, abs=1e-9)

    def test_more_an_decreases_eve_sinr(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        eve = los_at(spec, 25.0, -14.0, gain=0.02)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        basis = an_projector([h], num_antennas=spec.num_elements)
        lo = link_context(Split(0.8, 0.1, 0.1, 10.0), prec, [h], [eve], basis)
        hi = link_context(Split(0.6, 0.3, 0.1, 10.0), prec, [h], [eve], basis)
        assert hi.eve_rate_max(np.zeros(1)) < lo.eve_rate_max(np.zeros(1))

    def test_hand_set_scalar_value(self):
        # direct evaluation: |g_e|^2 = 0.5, P_u = 1, sigma^2 = 0.1 -> SINR 5
        prec = build_precoder([np.array([1.0 + 0j])], num_rf=1, rzf_reg=1e-3)
        eve = np.array([np.sqrt(0.5) + 0j])
        ctx = link_context(Split(1.0, 0.0, 0.0, 1.0), prec,
                           [np.array([1.0 + 0j])], [eve], eve_noise=0.1)
        assert ctx.eve_rate_max(np.zeros(1)) == pytest.approx(np.log2(6.0), rel=1e-12)

    def test_worst_case_full_capture(self):
        spec = ArraySpec.half_wavelength(16, LAM)
        h = los_at(spec, 40.0, 10.0, gain=0.01)
        eve = los_at(spec, 25.0, -14.0, gain=0.02)
        prec = build_precoder([h], num_rf=1, rzf_reg=1e-3)
        ctx = link_context(Split(1.0, 0.0, 0.0, 10.0), prec, [h], [eve],
                           eve_noise=2e-12)
        expected = 10.0 * np.linalg.norm(eve) ** 2 / 2e-12
        assert ctx.eve_rate_max(np.zeros(1)) == pytest.approx(np.log2(1 + expected),
                                                              rel=1e-12)
        # the realized beam coupling never exceeds the worst-case credit
        assert np.abs(np.conj(eve) @ prec.beams[:, 0]) ** 2 <= np.linalg.norm(eve) ** 2

    def test_worst_case_noiseless_unjammed_is_infinite(self):
        prec = build_precoder([np.array([1.0 + 0j])], num_rf=1, rzf_reg=1e-3)
        ctx = link_context(Split(1.0, 0.0, 0.0, 1.0), prec,
                           [np.array([1.0 + 0j])], [np.array([0.5 + 0j])])
        assert np.isinf(ctx.eve_rate_max(np.zeros(1)))
        assert ctx.rates(np.zeros(1))[0] == 0.0


class TestScalarMetrics:
    def test_worst_case_eve(self):
        # the strongest eavesdropper sets the rate; weaker ones do not matter
        assert scalar_context(1.0, [2.5]).eve_rate_max(np.zeros(1)) == np.log2(3.5)
        assert scalar_context(1.0, [1.1, 1.1, 1.1]).eve_rate_max(np.zeros(1)) == \
            np.log2(2.1)
        assert scalar_context(1.0, [0.1, 5.0, 2.3]).eve_rate_max(np.zeros(1)) == \
            np.log2(6.0)
        assert scalar_context(1.0, []).eve_rate_max(np.zeros(1)) == 0.0

    def test_secrecy_rate_values(self):
        def secrecy(legit, eve):
            return scalar_context(legit, [eve]).rates(np.zeros(1))[0]

        assert secrecy(3.0, 3.0) == 0.0
        assert secrecy(10 ** 1.5, 10 ** 0.5) == pytest.approx(2.9704344647437244, rel=1e-9)
        assert secrecy(1.0, 2.0) == 0.0
        infinite = scalar_context(1.0, [2.0])
        infinite.eve_noise_w = 0.0
        assert np.isinf(infinite.eve_rate_max(np.zeros(1)))
        assert infinite.rates(np.zeros(1))[0] == 0.0

    def test_power_accounting(self):
        power = PowerModelConfig(p_rf_w=0.25, p_bb_w=1.0, pa_efficiency=1.0)
        assert power_accounting(0.0, [], 8, power) == (0.0, 3.0)
        tx, slot = power_accounting(5.0, [1.0, 2.0], 0, PowerModelConfig(0.0, 0.0, 1.0))
        assert (tx, slot) == (8.0, 8.0)
        power = PowerModelConfig(p_rf_w=0.25, p_bb_w=1.0, pa_efficiency=0.4)
        tx, slot = power_accounting(15.0, [1.0, 1.0, 1.0], 4, power)
        assert tx == 18.0
        assert slot == pytest.approx(2.0 + 18.0 / 0.4, rel=1e-12)  # 47 W

    def test_see(self):
        assert see(0.0, 10.0) == 0.0
        assert see(4.5, 9.0) == pytest.approx(0.5, rel=1e-12)
        assert see(2.0, 4.0) == 2 * see(1.0, 4.0)
        with pytest.raises(ValueError):
            see(1.0, 0.0)

    def test_outage_metrics(self):
        r_min, r_mean, out = outage_metrics([0.2, 1.0, 3.0], 0.5)
        assert r_min == pytest.approx(0.2)
        assert r_mean == pytest.approx(1.4)
        assert out == pytest.approx(1.0 / 3.0)
        assert outage_metrics([1.0, 2.0], 0.5)[2] == 0.0
        assert outage_metrics([0.1], 0.5)[2] == 1.0
        assert outage_metrics([], 0.5) == (0.0, 0.0, 1.0)
        # threshold is strict: a rate exactly at threshold is not in outage
        assert outage_metrics([0.5], 0.5)[2] == 0.0


class TestSlotContext:
    def ctx(self):
        return SlotContext(
            served=[0, 1],
            sig_w=np.array([1e-9, 5e-10]),
            isi_w=np.array([1e-12, 1e-12]),
            an_thn_w=np.zeros(2),
            noise_w=2e-12,
            eve_capture_w=np.array([4e-10]),
            eve_an_w=np.array([1e-11]),
            jam_to_eve=np.array([[1e-10], [2e-11], [0.0]]),
            jam_to_thn=np.array([[1e-14, 2e-14], [0.0, 1e-13], [0.0, 0.0]]),
            eve_noise_w=0.0, jam_to_hn=None,
        )

    def test_rates_nonnegative_and_jamming_helps(self):
        ctx = self.ctx()
        quiet = ctx.rates(np.zeros(3)).sum()
        jammed = ctx.rates(np.array([1.0, 0.5, 0.0])).sum()
        assert jammed >= quiet >= 0.0
        assert np.all(ctx.rates(np.array([1.0, 0.5, 0.0])) >= 0.0)

    def test_noiseless_eve_without_an_or_jam_kills_rates(self):
        ctx = self.ctx()
        ctx.eve_an_w = np.zeros(1)
        assert np.isinf(ctx.eve_rate_max(np.zeros(3)))
        assert np.all(ctx.rates(np.zeros(3)) == 0.0)

    def test_subnormal_jamming_gives_infinite_sinr_silently(self):
        # no AN and no noise floor: a subnormal jamming power leaves a
        # denominator so small that the SINR overflows to inf
        ctx = self.ctx()
        ctx.eve_an_w = np.zeros(1)
        ctx.jam_to_eve = np.array([[0.0], [1.0], [0.0]])
        p = np.array([0.0, 5e-324, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(ctx.eve_rate_max(p))
            assert np.all(ctx.rates(p) == 0.0)

    def test_leakage(self):
        ctx = self.ctx()
        p = np.array([2.0, 1.0, 3.0])
        leak = ctx.leakage_at_served(p)
        assert leak[0] == pytest.approx(2e-14)
        assert leak[1] == pytest.approx(2 * 2e-14 + 1e-13)
        # node 0 alone delivers p_0 times its row
        alone = ctx.leakage_at_served(np.array([2.0, 0.0, 0.0]))
        assert alone.sum() == pytest.approx(2.0 * 3e-14)

    def test_batch_matches_row_by_row(self):
        ctx = self.ctx()
        ctx.eve_capture_w = np.array([4e-10, 1e-10])
        ctx.eve_an_w = np.array([1e-11, 0.0])
        ctx.jam_to_eve = np.array([[1e-10, 0.0], [2e-11, 3e-11], [0.0, 1e-10]])
        rng = np.random.default_rng(5)
        block = rng.uniform(0.0, 1.5, (4, 6, 3))
        block[0, 0] = 0.0   # the second eavesdropper decodes noiselessly here
        rates = ctx.rates(block)
        eve = ctx.eve_rate_max(block)
        leak = ctx.leakage_at_served(block)
        jam = [jam_contribution(ctx, k, block) for k in range(3)]
        assert rates.shape == (4, 6, 2) and eve.shape == (4, 6)
        # one contraction path: a row scores exactly as it does alone
        for idx in np.ndindex(4, 6):
            row = block[idx]
            assert np.array_equal(rates[idx], ctx.rates(row))
            assert np.array_equal(eve[idx], ctx.eve_rate_max(row))
            assert np.array_equal(leak[idx], ctx.leakage_at_served(row))
            for k in range(3):
                assert np.array_equal(jam[k][idx], jam_contribution(ctx, k, row))
        assert np.isinf(eve[0, 0]) and np.all(rates[0, 0] == 0.0)

    def test_jam_contribution_positive_for_effective_jammer(self):
        ctx = self.ctx()
        p = np.array([1.0, 0.0, 0.0])
        assert jam_contribution(ctx, 0, p) > 0.0
        assert jam_contribution(ctx, 2, np.array([1.0, 0.0, 1.0])) == 0.0


def where_chain_rates_from(ctx, leak_w, eve_rate):
    """Secrecy rates in the where-chain form: zero wherever the
    eavesdropper's rate is not finite."""
    eve = np.asarray(eve_rate)[..., None]
    legit = np.log2(1.0 + ctx.sig_w / (ctx.isi_w + ctx.an_thn_w + leak_w + ctx.noise_w))
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(eve), np.maximum(0.0, legit - eve), 0.0)


class TestEvaluatorForms:
    """The secrecy rate's plain form equals the where-chain bit for bit, on
    the eavesdropper rates of every denominator the evaluator accepts."""

    def ctx(self, e=3):
        rng = np.random.default_rng(11)
        return SlotContext(
            served=[0, 1], sig_w=np.array([1e-9, 5e-10]), isi_w=np.array([1e-12, 0.0]),
            an_thn_w=np.zeros(2), noise_w=2e-12,
            eve_capture_w=rng.uniform(1e-10, 5e-10, e), eve_an_w=rng.uniform(0, 1e-11, e),
            jam_to_eve=rng.uniform(0, 1e-10, (4, e)),
            jam_to_thn=rng.uniform(0, 1e-13, (4, 2)), eve_noise_w=0.0, jam_to_hn=None)

    def assert_forms_equal(self, ctx, block):
        eve = ctx.eve_rate_max(block)
        assert eve.shape == block.shape[:-1]
        leak = ctx.leakage_at_served(block)
        rates = ctx.rates_from(leak, eve)
        assert np.array_equal(rates, where_chain_rates_from(ctx, leak, eve), equal_nan=True)
        assert np.array_equal(ctx.rates(block), rates, equal_nan=True)

    def test_live_denominators(self):
        # every denominator > 0
        block = np.random.default_rng(3).uniform(0.0, 1.5, (5, 7, 4))
        self.assert_forms_equal(self.ctx(), block)

    @pytest.mark.parametrize("case", ["zero", "zero_uncaptured", "subnormal", "nan",
                                      "nan_uncaptured"])
    def test_dead_denominators(self, case):
        # eavesdropper 1 gets no AN and no noise floor, so a silent profile
        # leaves her denominator at zero while the other rows stay live; a
        # row scores the same alone as in the block
        ctx = self.ctx()
        ctx.eve_an_w = np.array([1e-11, 0.0, 2e-12])
        ctx.jam_to_eve = ctx.jam_to_eve.copy()
        block = np.random.default_rng(4).uniform(0.0, 1.5, (6, 4))
        block[0] = 0.0
        if case == "zero_uncaptured":
            ctx.eve_capture_w = np.array([1e-10, 0.0, 3e-10])
        elif case == "subnormal":
            ctx.jam_to_eve[:, 1] = [1.0, 0.0, 0.0, 0.0]
            block[0, 0] = 5e-324
        elif case.startswith("nan"):
            ctx.eve_an_w = np.array([1e-11, np.nan, 2e-12])
            if case == "nan_uncaptured":
                ctx.eve_capture_w = np.array([1e-10, 0.0, 3e-10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_forms_equal(ctx, block)
            for row, rate in zip(block, ctx.eve_rate_max(block)):
                self.assert_forms_equal(ctx, row)
                assert np.array_equal(ctx.eve_rate_max(row), rate, equal_nan=True)
            assert np.array_equal(ctx.rates(block)[0], ctx.rates(block[0]))

    def test_infinite_eavesdropper_rate_gives_zero(self):
        ctx = self.ctx()
        leak = ctx.leakage_at_served(np.ones((3, 4)))
        eve = np.array([0.5, np.inf, 40.0])
        rates = ctx.rates_from(leak, eve)
        assert np.array_equal(rates, where_chain_rates_from(ctx, leak, eve))
        assert rates[1].tolist() == [0.0, 0.0]

    def test_no_eavesdroppers(self):
        ctx = self.ctx(e=0)
        block = np.random.default_rng(5).uniform(0.0, 1.5, (3, 4))
        self.assert_forms_equal(ctx, block)
        assert ctx.eve_rate_max(block).tolist() == [0.0] * 3

    @pytest.mark.parametrize("e", [0, 3])
    def test_empty_block(self, e):
        ctx = self.ctx(e)
        block = np.zeros((0, 4))
        self.assert_forms_equal(ctx, block)
        assert ctx.eve_rate_max(block).shape == (0,)
        assert ctx.rates(block).shape == (0, 2)

    def test_noise_must_be_positive(self):
        # the secrecy rate's plain form needs a finite legitimate rate
        base = self.ctx()
        for noise in (0.0, -1e-12, np.nan):
            with pytest.raises(ValueError, match="noise_w"):
                SlotContext(**{**vars(base), "noise_w": noise})


def in_order_delivered(powers, gains):
    """Watts delivered through gains (K, X) by profiles (..., K), adding the
    nodes one at a time in id order."""
    acc = np.zeros(powers.shape[:-1] + gains.shape[1:])
    for k in range(gains.shape[0]):
        acc = acc + powers[..., k, None] * gains[k]
    return acc


@st.composite
def delivery_cases(draw):
    """Profiles (K,), (R, K) or (2, 3, K) with silent nodes, and a gain
    table (K, X) mixing slot-scale, subnormal and zero gains, with zero
    columns, laid out as the engine's tables are: C-ordered, a column slice
    (jam_to_eve), a column gather (jam_to_thn) or Fortran-ordered."""
    k, width = draw(st.integers(1, 130)), draw(st.integers(0, 24))
    batch = draw(st.sampled_from([(), (draw(st.integers(1, 700)),), (2, 3)]))
    layout = draw(st.sampled_from(["C", "slice", "gather", "F"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    powers = rng.uniform(0.0, 1.5, batch + (k,))
    powers[..., rng.random(k) < 0.5] = 0.0
    scale = rng.choice([1e-8, 1e-13, 1e-310, 0.0], size=(k, width + 3))
    table = rng.uniform(0.0, 1.0, (k, width + 3)) * scale
    table[:, rng.random(width + 3) < 0.2] = 0.0
    gains = {"C": table[:, :width].copy(), "slice": table[:, 3:],
             "gather": table[:, rng.permutation(width + 3)[:width]],
             "F": np.asfortranarray(table[:, :width])}[layout]
    return powers, gains


@settings(max_examples=300, deadline=None)
@given(case=delivery_cases())
def test_delivered_sums_a_row_alike_in_every_block(case):
    powers, gains = case
    got = _delivered(powers, gains)
    assert got.shape == powers.shape[:-1] + gains.shape[1:] and got.flags.c_contiguous
    # each profile scores the same alone as in its block; BLAS @ does not
    for row in np.ndindex(powers.shape[:-1]):
        assert got[row].tobytes() == _delivered(powers[row], gains).tobytes()
    if gains.shape[1] >= 2 and gains.strides[1] == gains.itemsize:
        # the nodes are added one at a time in id order
        assert got.tobytes() == in_order_delivered(powers, gains).tobytes()


def masked_eve_rate_max(ctx, powers):
    """The strongest eavesdropper's rate in the masked form: a zero
    denominator decodes perfectly unless nothing was captured, a subnormal
    one overflows to the same infinite SINR, and no eavesdropper gives 0."""
    p = np.asarray(powers, dtype=float)
    if ctx.jam_to_eve.shape[1] == 0:
        return np.zeros(p.shape[:-1])[()]
    den = ctx.eve_an_w + np.einsum("...k,kx->...x", p, ctx.jam_to_eve) + ctx.eve_noise_w
    live = den > 0
    sinr = np.where(live, 0.0, np.where(ctx.eve_capture_w > 0, np.inf, 0.0))
    with np.errstate(over="ignore"):
        np.divide(ctx.eve_capture_w, den, out=sinr, where=live)
    return np.log2(1.0 + sinr.max(axis=-1))[()]


# zeros, subnormals and the watt scales of a slot, so that denominators hit
# zero, underflow to zero, overflow the SINR and stay live
WATTS = st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-14, 1e-8))


@st.composite
def eavesdropper_cases(draw):
    e, k = draw(st.sampled_from([0, 1, 4])), draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))

    def arr(shape, values):
        return np.array(draw(st.lists(values, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    ctx = SlotContext(
        served=[0], sig_w=np.ones(1), isi_w=np.zeros(1), an_thn_w=np.zeros(1),
        noise_w=1.0, eve_capture_w=arr((e,), WATTS), eve_an_w=arr((e,), WATTS),
        jam_to_eve=arr((k, e), st.one_of(WATTS, st.just(1.0))),
        jam_to_thn=np.zeros((k, 1)), eve_noise_w=draw(WATTS), jam_to_hn=None)
    powers = arr(batch + (k,), st.one_of(st.just(0.0), st.just(5e-324),
                                        st.floats(0.0, 1.5)))
    return ctx, powers


@settings(max_examples=300, deadline=None)
@given(case=eavesdropper_cases())
def test_eve_rate_max_equals_the_masked_form_in_bytes(case):
    ctx, powers = case
    got, want = ctx.eve_rate_max(powers), masked_eve_rate_max(ctx, powers)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == powers.shape[:-1]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSeeMonotonicity:
    def test_see_decreases_in_slot_power(self):
        powers = np.linspace(5.0, 80.0, 30)
        values = [see(4.5, p) for p in powers]
        assert np.all(np.diff(values) < 0)
