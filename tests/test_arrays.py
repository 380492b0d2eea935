import numpy as np
import pytest

from secure_isac.arrays import (
    ArraySpec,
    InfeasibleNullError,
    beampattern_db,
    null_steer,
    sensing_beam,
    steering_vector,
    ula_positions,
)

C = 299792458.0


def spec28(n):
    lam = C / 28e9
    return ArraySpec.half_wavelength(n, lam)


def array_gain(weights, steering):
    """Normalized power gain |w^H a|^2; in [0, 1] for unit-norm inputs."""
    if weights.shape != steering.shape:
        raise ValueError(
            f"weight/steering length mismatch: {weights.shape} vs {steering.shape}")
    return float(np.abs(np.vdot(weights, steering)) ** 2)


def sensing_response(weights, spec, probe_angle):
    """Power-normalized response |w^H a(probe)|^2 of a beam at one angle."""
    return array_gain(weights, steering_vector(spec, probe_angle))


def reference_pattern_db(weights, spec, angles):
    """beampattern_db one angle at a time through sensing_response."""
    gains = np.array([sensing_response(weights, spec, a) for a in angles])
    peak = gains.max()
    return 10.0 * np.log10(np.maximum(gains, peak * 1e-16) / peak)


class TestPositions:
    def test_single_element_at_origin(self):
        pos = ula_positions(ArraySpec(1, 0.005, 0.01))
        assert np.allclose(pos, np.zeros((1, 3)))

    def test_two_elements_symmetric(self):
        pos = ula_positions(ArraySpec(2, 0.005, 0.01))
        assert np.allclose(pos[:, 1], [-0.0025, 0.0025])
        assert np.allclose(pos[:, [0, 2]], 0.0)

    def test_centroid_at_origin(self):
        for n in (1, 2, 5, 16):
            pos = ula_positions(ArraySpec(n, 0.007, 0.014))
            assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-15)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ArraySpec(0, 0.005, 0.01)
        with pytest.raises(ValueError):
            ArraySpec(4, 0.005, -1.0)


class TestSteering:
    def test_broadside_all_equal(self):
        a = steering_vector(ArraySpec(4, 0.005, 0.01), 0.0)
        assert np.allclose(a, 0.5 + 0j)

    def test_two_element_phases(self):
        # direct evaluation of the phase law for d = lambda/2, az = pi/6:
        # phi_n = pi * n * sin(pi/6) = pi * n / 2 with n = +-1/2
        a = steering_vector(ArraySpec(2, 0.005, 0.01), np.pi / 6)
        expected = np.exp(1j * np.pi * np.array([-0.25, 0.25])) / np.sqrt(2)
        assert np.allclose(a, expected)
        # cross-check via inner product with broadside: |<a, a0>| = |cos(pi/4)|
        a0 = steering_vector(ArraySpec(2, 0.005, 0.01), 0.0)
        assert abs(np.vdot(a0, a)) == pytest.approx(np.cos(np.pi / 4), rel=1e-12)

    def test_unit_norm_and_modulus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 64))
            az = rng.uniform(-np.pi, np.pi)
            a = steering_vector(ArraySpec(n, 0.005, 0.01), az)
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.abs(a), 1 / np.sqrt(n))

    def test_phase_antisymmetry(self):
        a = steering_vector(ArraySpec(9, 0.005, 0.01), 0.4)
        assert np.allclose(a, np.conj(a[::-1]))

    def test_batched_azimuths_match_scalar_calls(self):
        spec = spec28(16)
        rng = np.random.default_rng(11)
        for shape in [(), (7,), (3, 29)]:
            az = rng.uniform(-np.pi / 2, np.pi / 2, size=shape)
            batch = steering_vector(spec, az)
            stacked = np.array([steering_vector(spec, a) for a in az.ravel()])
            assert batch.shape == shape + (16,)
            assert np.array_equal(batch, stacked.reshape(batch.shape))

    def test_scalar_azimuth_gives_one_vector(self):
        assert steering_vector(spec28(8), 0.25).shape == (8,)
        assert steering_vector(spec28(8), np.float64(0.25)).shape == (8,)


class TestArrayGain:
    def test_matched(self):
        a = steering_vector(ArraySpec(16, 0.005, 0.01), 0.3)
        assert array_gain(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        w = np.array([1.0, 0.0], dtype=complex)
        a = np.array([0.0, 1.0], dtype=complex)
        assert array_gain(w, a) == 0.0

    def test_dirichlet_kernel_value(self):
        # closed-form oracle |sin(N psi/2) / (N sin(psi/2))|^2, psi = pi sin(0.2)
        spec = ArraySpec(16, 0.005, 0.01)
        w = steering_vector(spec, 0.0)
        g = array_gain(w, steering_vector(spec, 0.2))
        psi = np.pi * np.sin(0.2)
        oracle = (np.sin(16 * psi / 2) / (16 * np.sin(psi / 2))) ** 2
        assert g == pytest.approx(oracle, rel=1e-10)
        assert g == pytest.approx(0.03825786517054, rel=1e-9)
        assert 0.0 < g < 1.0

    def test_gain_bounded_for_unit_norm(self):
        rng = np.random.default_rng(3)
        spec = ArraySpec(12, 0.005, 0.01)
        for _ in range(50):
            w = rng.normal(size=12) + 1j * rng.normal(size=12)
            w /= np.linalg.norm(w)
            g = array_gain(w, steering_vector(spec, rng.uniform(-1.5, 1.5)))
            assert -1e-12 <= g <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            array_gain(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


class TestSensingBeam:
    def test_taper_zero_is_steering_vector(self):
        spec = ArraySpec(32, 0.005, 0.01)
        w = sensing_beam(spec, 0.0, 0.25)
        assert np.allclose(w, steering_vector(spec, 0.25))

    def test_taper_one_is_hamming_windowed(self):
        spec = ArraySpec(32, 0.005, 0.01)
        w = sensing_beam(spec, 1.0, 0.25)
        ham = np.hamming(32)
        expected = (ham / ham.mean()) * steering_vector(spec, 0.25)
        expected /= np.linalg.norm(expected)
        assert np.allclose(w, expected)

    def test_half_taper_lowers_first_sidelobe(self):
        spec = ArraySpec(32, 0.005, 0.01)
        angles = np.radians(np.arange(-90.0, 90.1, 1.0))
        flat = np.array([sensing_response(sensing_beam(spec, 0.0, 0.0), spec, a) for a in angles])
        tap = np.array([sensing_response(sensing_beam(spec, 0.5, 0.0), spec, a) for a in angles])

        def first_sidelobe(pattern):
            peak = int(np.argmax(pattern))
            i = peak
            while i + 1 < len(pattern) and pattern[i + 1] < pattern[i]:
                i += 1
            return pattern[i:].max()

        assert first_sidelobe(tap) < first_sidelobe(flat)

    def test_unit_norm(self):
        spec = ArraySpec(32, 0.005, 0.01)
        for taper in (0.0, 0.3, 0.7, 1.0):
            assert np.linalg.norm(sensing_beam(spec, taper, 0.4)) == pytest.approx(1.0, abs=1e-12)

    def test_taper_out_of_range(self):
        with pytest.raises(ValueError):
            sensing_beam(ArraySpec(8, 0.005, 0.01), 1.2, 0.0)


class TestSensingResponse:
    def test_matched_probe(self):
        spec = ArraySpec(16, 0.005, 0.01)
        w = sensing_beam(spec, 0.0, 0.3)
        assert sensing_response(w, spec, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_far_probe_is_small(self):
        spec = ArraySpec(64, 0.005, 0.01)
        w = sensing_beam(spec, 0.0, 0.2)
        assert sensing_response(w, spec, 0.2 + np.pi / 2) < 0.05

    def test_grid_sweep_integral_constant(self):
        # quadrature oracle: for a matched scanning beam the self-response is 1
        # at every look angle, so the grid-normalized integral is exactly 1
        # independent of N.
        angles = np.radians(np.arange(-90.0, 90.1, 1.0))
        for n in (8, 32, 128):
            spec = ArraySpec(n, 0.005, 0.01)
            vals = [sensing_response(sensing_beam(spec, 0.0, a), spec, a) for a in angles]
            assert np.mean(vals) == pytest.approx(1.0, abs=1e-10)


class TestBeampattern:
    def test_matches_per_angle_oracle(self):
        # 200 beams: random, tapered sensing and null-steered, over 8-128
        # elements and the 181-point bearing grid
        rng = np.random.default_rng(13)
        angles = np.radians(np.linspace(-90.0, 90.0, 181))
        for i in range(200):
            spec = spec28(int(rng.choice([8, 16, 32, 128])))
            n = spec.num_elements
            kind = i % 3
            if kind == 0:
                w = rng.normal(size=n) + 1j * rng.normal(size=n)
                w /= np.linalg.norm(w)
            elif kind == 1:
                w = sensing_beam(spec, rng.uniform(0, 1), rng.uniform(-1.4, 1.4))
            else:
                w, _ = steer_one(steering_vector(spec, rng.uniform(-1.4, 1.4)),
                                 rng.uniform(-1.5, 1.5, size=3), spec)
            np.testing.assert_allclose(beampattern_db(w, spec, angles),
                                       reference_pattern_db(w, spec, angles),
                                       rtol=0, atol=1e-9)


def null_steering(spec, null_angles):
    """Steering (M, U, n) toward each row of nulled angles (M, U), radians."""
    return steering_vector(spec, np.asarray(null_angles, dtype=float).reshape(
        len(null_angles), -1))


def steer_one(weights, null_angles, spec):
    """null_steer of a single row: its beam and whether it is feasible."""
    beams, feasible = null_steer(weights[None], null_steering(spec, [null_angles]))
    return beams[0], bool(feasible[0])


class TestNullSteer:
    def test_empty_null_set(self):
        spec = ArraySpec(8, 0.005, 0.01)
        w = steering_vector(spec, 0.1)
        out, feasible = steer_one(w, [], spec)
        assert feasible and np.allclose(out, w)

    def test_null_at_own_steer_angle(self):
        spec = ArraySpec(8, 0.005, 0.01)
        w = steering_vector(spec, 0.4)
        out, _ = steer_one(w, [0.9], spec)
        out2, _ = steer_one(out, [0.9], spec)  # projection is idempotent
        assert np.allclose(out, out2, atol=1e-12)
        assert sensing_response(out, spec, 0.9) <= 1e-6

    def test_deep_nulls_128(self):
        spec = spec28(128)
        nulls = [np.radians(-20.0), np.radians(20.0)]
        w, _ = steer_one(steering_vector(spec, 0.0), nulls, spec)
        pattern = beampattern_db(w, spec, np.radians(np.arange(-90.0, 90.1, 0.5)))
        for a in nulls:
            g = sensing_response(w, spec, a)
            assert 10 * np.log10(max(g, 1e-30)) < -25.0
        assert pattern.max() == pytest.approx(0.0, abs=1e-9)

    def test_exact_orthogonality_residual(self):
        spec = ArraySpec(16, 0.005, 0.01)
        nulls = [0.3, -0.5, 1.0]
        w, _ = steer_one(steering_vector(spec, 0.0), nulls, spec)
        for a in nulls:
            assert abs(np.vdot(steering_vector(spec, a), w)) <= 1e-10
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_null_set(self):
        spec = ArraySpec(4, 0.005, 0.01)
        w = steering_vector(spec, 0.2)
        with pytest.raises(InfeasibleNullError):
            null_steer(w[None], null_steering(spec, [[0.1, 0.2, 0.3, 0.4]]))

    def test_self_null_infeasible_when_space_exhausted(self):
        spec = ArraySpec(2, 0.005, 0.01)
        w = steering_vector(spec, 0.0)
        # as many nulls as elements leave nothing
        nulled, _ = steer_one(w, [0.7], spec)
        with pytest.raises(InfeasibleNullError):
            null_steer(nulled[None], null_steering(spec, [[0.7, 0.0]]))
        # nulling a beam's own direction leaves nothing of it: only that row
        # is infeasible, and it is left at zero
        beams, feasible = null_steer(np.stack([w, w]), null_steering(spec, [[0.0], [0.7]]))
        assert feasible.tolist() == [False, True]
        assert not beams[0].any() and np.linalg.norm(beams[1]) == pytest.approx(1.0)
