import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from secure_isac.arrays import ArraySpec, steering_vector, ula_positions
from secure_isac.channel import (
    STREAM_EVE_NLOS,
    PathLossModel,
    eve_channel,
    linear_gain,
    los_channel,
    noise_power,
    path_loss_db,
    rician_channel,
    substream,
    substream_normals,
)

C = 299792458.0


# The spawn-key seeding and the one-row channel forms the package replaced,
# kept as their oracles: every generator state must equal the spawn-key one
# byte for byte, and every row of a stacked channel call its own one-row call
# byte for byte and the one-row oracle to within ORACLE_RTOL of the row's
# largest entry (the stacked scale is an einsum row norm, the oracle's a BLAS
# dot, and the two round differently).

ORACLE_RTOL = 1e-13


def assert_near_oracle(row, want):
    np.testing.assert_allclose(row, want, rtol=0, atol=ORACLE_RTOL * np.abs(want).max())

def oracle_substream(seed, *keys):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))


def oracle_rician_channel(k_factor, los, rng):
    n = los.shape[0]
    g = np.linalg.norm(los)
    scale = g / np.sqrt(2.0 * n)
    nlos = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.sqrt(k_factor / (k_factor + 1.0)) * los \
        + np.sqrt(1.0 / (k_factor + 1.0)) * nlos


def oracle_eve_channel(k_factor, los, slot, seed, eve_id):
    """One eavesdropper's link (N,) from its LOS row (N,)."""
    return oracle_rician_channel(k_factor, los,
                                 oracle_substream(seed, STREAM_EVE_NLOS, eve_id, slot))


class TestNoise:
    def test_table_values(self):
        # direct evaluation: N0=-174, BW=1e8, NF=7 -> 10^(-11.7) W
        assert noise_power(-174.0, 1e8, 7.0) == pytest.approx(10 ** (-11.7), rel=1e-12)
        assert noise_power(-174.0, 1e8, 7.0) == pytest.approx(1.9952623149688827e-12,
                                                              rel=1e-12)

    def test_reference_bandwidth(self):
        assert noise_power(-174.0, 1.0, 0.0) == pytest.approx(
            10 ** ((-174.0 - 30.0) / 10.0), rel=1e-12)

    def test_doubling_bandwidth_adds_3db(self):
        a = noise_power(-174.0, 1e7, 7.0)
        b = noise_power(-174.0, 2e7, 7.0)
        assert 10 * np.log10(b / a) == pytest.approx(10 * np.log10(2.0), abs=1e-12)


class TestPathLoss:
    def test_reference_distance(self):
        m = PathLossModel(61.4, 2.2, 3.0)
        assert path_loss_db(m, 1.0, 0.0) == pytest.approx(61.4, abs=1e-12)

    def test_100m_exponent_22(self):
        m = PathLossModel(61.4, 2.2, 3.0)
        assert path_loss_db(m, 100.0, 0.0) == pytest.approx(61.4 + 44.0, abs=1e-12)

    def test_shadow_linearity(self):
        m = PathLossModel(61.4, 2.2, 3.0)
        base = path_loss_db(m, 50.0, 0.0)
        assert path_loss_db(m, 50.0, 1.0) == pytest.approx(base + 3.0, abs=1e-12)

    def test_subreference_clamped(self):
        m = PathLossModel(61.4, 2.2, 0.0)
        assert path_loss_db(m, 0.3, 0.0) == path_loss_db(m, 1.0, 0.0)

    def test_nonpositive_distance_rejected(self):
        m = PathLossModel(61.4, 2.2, 0.0)
        with pytest.raises(ValueError):
            path_loss_db(m, 0.0, 0.0)

    def test_strictly_increasing(self):
        m = PathLossModel(61.4, 2.2, 0.0)
        d = np.linspace(1.0, 500.0, 100)
        pl = [path_loss_db(m, x, 0.0) for x in d]
        assert np.all(np.diff(pl) > 0)

    def test_array_matches_scalar_calls(self):
        m = PathLossModel(61.4, 2.2, 3.0)
        rng = np.random.default_rng(3)
        d = rng.uniform(0.1, 500.0, (7, 9))
        shadow = rng.standard_normal((7, 9))
        pl = path_loss_db(m, d, shadow)
        assert pl.shape == d.shape
        scalar = [[path_loss_db(m, x, z) for x, z in zip(*row)] for row in zip(d, shadow)]
        np.testing.assert_allclose(pl, scalar, rtol=1e-15, atol=0)
        assert isinstance(path_loss_db(m, 50.0, 1.0), np.float64)

    def test_nonpositive_distance_in_array_rejected(self):
        m = PathLossModel(61.4, 2.2, 0.0)
        for bad in (0.0, -3.0):
            with pytest.raises(ValueError):
                path_loss_db(m, np.array([[5.0, 2.0], [bad, 7.0]]), 0.0)

    def test_friis_reference_28ghz(self):
        m = PathLossModel.friis_reference(28e9, 2.2, shadow_sigma_db=0.0)
        assert m.pl_1m_db == pytest.approx(61.39094384872776, rel=1e-12)


class TestLinearGain:
    def test_values(self):
        assert linear_gain(0.0) == 1.0
        assert linear_gain(20.0) == pytest.approx(0.1, rel=1e-12)
        assert linear_gain(44.0) == pytest.approx(0.00630957344480193, rel=1e-12)

    def test_monotone_decreasing(self):
        assert linear_gain(10.0) > linear_gain(11.0) > 0.0

    def test_array_matches_scalar_calls(self):
        pl = np.random.default_rng(4).uniform(40.0, 160.0, (11, 13))
        gains = linear_gain(pl)
        assert gains.shape == pl.shape
        np.testing.assert_allclose(gains, [[linear_gain(x) for x in row] for row in pl],
                                   rtol=1e-15, atol=0)
        assert isinstance(linear_gain(90.0), np.float64)


class TestLosChannel:
    def test_far_field_matches_plane_wave(self):
        # oracle: beyond 100 r_F the spherical phases converge to the
        # plane-wave steering phases (after removing the common propagation
        # phase), to < 1e-2 rad
        lam = C / 28e9
        spec = ArraySpec.half_wavelength(64, lam)
        pos = ula_positions(spec)
        r_f = 2.0 * ((spec.num_elements - 1) * spec.spacing) ** 2 / lam  # 2 D^2 / lambda
        r = 100.0 * r_f
        az = 0.3
        node = np.array([r * np.cos(az), r * np.sin(az), 0.0])
        h = los_channel(pos, node, 1.0, lam)
        a = steering_vector(spec, az)
        # strip the common phase via the first element, then compare
        rel_h = np.angle(h / h[0])
        rel_a = np.angle(a / a[0])
        diff = np.angle(np.exp(1j * (rel_h - rel_a)))
        assert np.max(np.abs(diff)) < 1e-2

    def test_center_element_phase_on_normal(self):
        lam = 0.01
        spec = ArraySpec.half_wavelength(5, lam)
        pos = ula_positions(spec)
        d = 7.3
        h = los_channel(pos, np.array([d, 0.0, 0.0]), 1.0, lam)
        expected = -2 * np.pi * d / lam
        assert np.angle(h[2]) == pytest.approx(
            np.angle(np.exp(1j * expected)), abs=1e-12)

    def test_zero_gain(self):
        lam = 0.01
        spec = ArraySpec.half_wavelength(4, lam)
        h = los_channel(ula_positions(spec), np.array([5.0, 0, 0]), 0.0, lam)
        assert np.allclose(h, 0.0)

    def test_norm_equals_gain(self):
        lam = 0.01
        spec = ArraySpec.half_wavelength(16, lam)
        h = los_channel(ula_positions(spec), np.array([3.0, 1.0, 0.5]), 0.42, lam)
        assert np.linalg.norm(h) == pytest.approx(0.42, rel=1e-12)

    def test_coincident_position_rejected(self):
        lam = 0.01
        spec = ArraySpec.half_wavelength(4, lam)
        pos = ula_positions(spec)
        with pytest.raises(ValueError):
            los_channel(pos, pos[1], 1.0, lam)

    @settings(max_examples=100, deadline=None)
    @given(e=st.integers(1, 5), n=st.integers(1, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_equals_single_calls(self, e, n, seed):
        rng = np.random.default_rng(seed)
        lam = 0.01
        pos = ula_positions(ArraySpec.half_wavelength(n, lam))
        nodes = rng.uniform(-200.0, 200.0, size=(e, 3))
        gains = rng.uniform(0.0, 1.0, size=e)
        stacked = los_channel(pos, nodes, gains, lam)
        assert stacked.shape == (e, n)
        assert np.array_equal(stacked, np.stack(
            [los_channel(pos, nodes[j], gains[j], lam) for j in range(e)]))

    def test_coincident_position_in_a_stack_rejected(self):
        lam = 0.01
        pos = ula_positions(ArraySpec.half_wavelength(4, lam))
        nodes = np.array([[5.0, 1.0, 0.0], pos[2], [7.0, -3.0, 1.0]])
        with pytest.raises(ValueError, match="coincides"):
            los_channel(pos, nodes, np.ones(3), lam)


class TestRician:
    def los(self, n=32, g=0.7):
        lam = 0.01
        spec = ArraySpec.half_wavelength(n, lam)
        return los_channel(ula_positions(spec), np.array([4.0, 1.0, 0.0]), g, lam)

    def test_k_infinite_limit(self):
        los = self.los()
        h = rician_channel(1e12, los[None], [np.random.default_rng(0)])[0]
        assert np.linalg.norm(h - los) / np.linalg.norm(los) < 1e-5

    def test_rayleigh_moment(self):
        # Monte Carlo moment oracle: K=0 gives pure NLOS with per-entry
        # variance g^2/N
        los = self.los(n=16, g=0.5)
        rng = np.random.default_rng(1)
        draws = rician_channel(0.0, np.tile(los, (10000, 1)), [rng] * 10000)
        var = np.mean(np.abs(draws) ** 2)
        assert var == pytest.approx(0.5 ** 2 / 16, rel=0.05)

    def test_k_10db_los_power_fraction(self):
        k = 10.0  # 10 dB
        los = self.los(n=16, g=0.5)
        rng = np.random.default_rng(2)
        draws = rician_channel(k, np.tile(los, (10000, 1)), [rng] * 10000)
        total = np.mean(np.linalg.norm(draws, axis=1) ** 2)
        los_part = k / (k + 1.0) * np.linalg.norm(los) ** 2
        assert los_part / total == pytest.approx(10.0 / 11.0, rel=0.03)

    def test_total_power_independent_of_k(self):
        los = self.los(n=16, g=0.5)
        target = np.linalg.norm(los) ** 2
        for k in (0.0, 1.0, 10.0, 100.0):
            rng = np.random.default_rng(3)
            draws = rician_channel(k, np.tile(los, (10000, 1)), [rng] * 10000)
            total = np.mean(np.linalg.norm(draws, axis=1) ** 2)
            assert total == pytest.approx(target, rel=0.03)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            rician_channel(-1.0, self.los()[None], [np.random.default_rng(0)])

    def test_one_generator_per_row_required(self):
        los = np.tile(self.los(), (3, 1))
        with pytest.raises(ValueError, match="3 LOS rows"):
            rician_channel(1.0, los, [np.random.default_rng(0)] * 2)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 40),
           k=st.sampled_from([0.0, 1e-3, 1.0, 10 ** 0.9, 10.0, 1e12]),
           zero_row=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_rows_equal_the_one_row_oracle(self, m, n, k, zero_row, seed):
        rng = np.random.default_rng(seed)
        lam = 0.01
        pos = ula_positions(ArraySpec.half_wavelength(n, lam))
        gains = rng.uniform(0.0, 1e-3, m) * 10.0 ** rng.uniform(-6, 0, m)
        los = los_channel(pos, rng.uniform(-200.0, 200.0, (m, 3)), gains, lam)
        if zero_row:
            los[rng.integers(0, m)] = 0.0
        keys = rng.integers(0, 2 ** 40, m).tolist()
        stacked = rician_channel(k, los, [substream(seed, 3, key) for key in keys])
        assert stacked.shape == (m, n)
        for row, los_row, key in zip(stacked, los, keys):
            alone = rician_channel(k, los_row[None], [substream(seed, 3, key)])[0]
            assert row.tobytes() == alone.tobytes()
            assert_near_oracle(row, oracle_rician_channel(k, los_row, oracle_substream(seed, 3, key)))


class TestEveChannel:
    def los(self):
        lam = 0.01
        spec = ArraySpec.half_wavelength(32, lam)
        pos = ula_positions(spec)
        return los_channel(pos, np.array([[20.0, 5.0, 0.0], [-3.0, 40.0, 1.5],
                                          [60.0, -9.0, 0.0]]), np.array([0.3, 0.02, 1e-4]),
                           lam)

    def test_determinism(self):
        los = self.los()
        a = eve_channel(10.0, los, slot=7, seed=42)
        b = eve_channel(10.0, los, slot=7, seed=42)
        assert np.array_equal(a, b)

    def test_each_row_is_its_eavesdroppers_one_row_channel(self):
        los = self.los()
        for slot in (0, 1, 7, 2 ** 33):
            stacked = eve_channel(10.0, los, slot=slot, seed=42)
            for j, row in enumerate(los):
                alone = rician_channel(10.0, row[None],
                                       [substream(42, STREAM_EVE_NLOS, j, slot)])[0]
                assert stacked[j].tobytes() == alone.tobytes()
                assert_near_oracle(stacked[j], oracle_eve_channel(10.0, row, slot, 42, j))

    def test_slots_differ_only_in_nlos(self):
        los = self.los()
        k = 10.0
        h1 = eve_channel(k, los, slot=0, seed=42)[0]
        h2 = eve_channel(k, los, slot=1, seed=42)[0]
        shared = np.sqrt(k / (k + 1)) * los[0]
        d1, d2 = h1 - shared, h2 - shared
        # the residuals are independent scattered draws, not identical
        assert not np.allclose(d1, d2)
        assert np.linalg.norm(d1) > 0 and np.linalg.norm(d2) > 0

    def test_slot_correlation_is_k_over_k_plus_one(self):
        # sample-correlation oracle: consecutive-slot inner products share only
        # the LOS part, so corr -> K/(K+1)
        los = np.tile(self.los()[0], (2, 1))
        k = 10.0
        slots = 1000
        hs = [eve_channel(k, los, slot=t, seed=9)[1] for t in range(slots)]
        num = np.mean([np.real(np.vdot(hs[t], hs[t + 1])) for t in range(slots - 1)])
        den = np.mean([np.linalg.norm(h) ** 2 for h in hs])
        assert num / den == pytest.approx(k / (k + 1.0), rel=0.05)


# seeds and keys at and across the 32-bit word boundaries, next to ordinary ones
SEED_VALUES = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                         2 ** 130 + 7]),
                        st.integers(0, 2 ** 70))
KEY_VALUES = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32 + 3]),
                       st.integers(0, 2 ** 40))
# batches of one to six rows, each of the same one to three 32-bit keys
KEY32_ROWS = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
             min_size=width, max_size=width),
    min_size=1, max_size=6))


class TestSubstream:
    def test_independent_keys(self):
        a = substream(1, 2, 3).standard_normal(4)
        b = substream(1, 2, 4).standard_normal(4)
        c = substream(1, 2, 3).standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    @settings(max_examples=500, deadline=None)
    @given(seed=SEED_VALUES, keys=st.lists(KEY_VALUES, max_size=5))
    def test_equals_spawn_key_seeding(self, seed, keys):
        got, want = substream(seed, *keys), oracle_substream(seed, *keys)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()

    @pytest.mark.parametrize("args", [(-1,), (-1, 2), (3, -1), (3, 2, -(2 ** 40))])
    def test_negative_seed_or_key_rejected(self, args):
        with pytest.raises(ValueError):
            oracle_substream(*args)
        with pytest.raises(ValueError):
            substream(*args)

    @settings(max_examples=150, deadline=None)
    @given(seed=SEED_VALUES, keys=KEY32_ROWS, count=st.sampled_from([1, 32]))
    def test_batched_normals_equal_substream_draws(self, seed, keys, count):
        got = substream_normals(seed, keys, count)
        assert got.shape == (len(keys), count)
        for row, key in zip(got, keys):
            assert row.tobytes() == substream(seed, *key).standard_normal(count).tobytes()
            assert row.tobytes() == oracle_substream(seed, *key).standard_normal(count).tobytes()

    def test_batched_normals_of_no_rows(self):
        assert substream_normals(7, np.zeros((0, 2), dtype=int), 5).shape == (0, 5)
        assert substream_normals(2 ** 40, [], 1).shape == (0, 1)

    @pytest.mark.parametrize("seed, keys, bad", [
        (-1, [[2, 3]], -1), (1, [[2, 3], [2, -4]], -4),
        (1, [[2, 3], [2 ** 32, 0]], 2 ** 32), (1, [[2 ** 70, 1]], 2 ** 70)])
    def test_batched_normals_reject_negative_seed_and_wide_keys(self, seed, keys, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            substream_normals(seed, keys, 1)
