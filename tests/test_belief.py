import numpy as np
import pytest

from secure_isac.belief import (
    BeliefState,
    default_grid,
    entropy,
    kernel_adapt,
    predict,
    synthesize_measurement,
    uniform_prior,
    update,
)


def delta_belief(idx, sigma=10.0, size=181):
    grid = default_grid(size)
    probs = np.zeros(size)
    probs[idx] = 1.0
    return BeliefState(grid, probs, sigma)


class TestPrior:
    def test_uniform_values(self):
        b = uniform_prior(181)
        assert np.allclose(b.probs, 1.0 / 181)
        assert b.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_entropy_is_log2_n(self):
        assert entropy(uniform_prior(181)) == pytest.approx(7.499845887083206, rel=1e-12)

    def test_two_bins(self):
        b = uniform_prior(2)
        assert np.allclose(b.probs, 0.5)

    def test_too_small(self):
        with pytest.raises(ValueError):
            uniform_prior(1)


class TestPredict:
    def test_tiny_kernel_is_identity(self):
        b = delta_belief(90, sigma=1e-6)
        out = predict(b)
        assert np.max(np.abs(out.probs - b.probs)) < 1e-6

    def test_delta_spreads_symmetrically(self):
        b = delta_belief(90, sigma=10.0)
        out = predict(b)
        assert int(np.argmax(out.probs)) == 90
        assert out.probs[80] == pytest.approx(out.probs[100], rel=1e-9)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_smoothing_never_decreases_entropy(self):
        # numeric oracle over random interior-supported beliefs
        rng = np.random.default_rng(5)
        for _ in range(100):
            probs = np.zeros(181)
            inner = rng.random(101)
            probs[40:141] = inner / inner.sum()
            b = BeliefState(default_grid(), probs, rng.uniform(0.5, 8.0))
            assert entropy(predict(b)) >= entropy(b) - 1e-9

    def test_mass_conserved_at_boundary(self):
        b = delta_belief(0, sigma=15.0)
        out = predict(b)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_delta_zero(self):
        assert entropy(delta_belief(17)) == 0.0

    def test_half_quarter_quarter(self):
        probs = np.zeros(181)
        probs[0], probs[1], probs[2] = 0.5, 0.25, 0.25
        b = BeliefState(default_grid(), probs, 10.0)
        assert entropy(b) == pytest.approx(1.5, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(181)
            b = BeliefState(default_grid(), p / p.sum(), 10.0)
            assert 0.0 <= entropy(b) <= np.log2(181) + 1e-12


class TestMeasurement:
    def test_gamma_zero_pure_floor(self):
        rng = np.random.default_rng(2)
        z = synthesize_measurement([30.0], 0.0, 5.0, rng)
        assert np.all(z >= 0.0)
        # flat in expectation: no bump structure anywhere near the truth
        grid = default_grid()
        near = z[np.abs(grid - 30.0) < 5.0].mean()
        far = z[np.abs(grid - 30.0) > 40.0].mean()
        assert near < 10 * far

    def test_noiseless_peak_at_truth(self):
        rng = np.random.default_rng(3)
        grid = default_grid()
        z = synthesize_measurement([30.0], 0.2, 0.0, rng,
                                   floor_scale=0.0)
        assert abs(grid[np.argmax(z)] - 30.0) <= 1.0

    def test_argmax_within_10deg_at_default_noise(self):
        # Monte Carlo: >= 90% of scans peak within +-10 degrees of the truth
        rng = np.random.default_rng(4)
        grid = default_grid()
        hits = 0
        for _ in range(1000):
            z = synthesize_measurement([20.0], 0.15, 5.0, rng)
            if abs(grid[np.argmax(z)] - 20.0) <= 10.0:
                hits += 1
        assert hits >= 900

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            synthesize_measurement([0.0], -0.1, 5.0,
                                   np.random.default_rng(0))


class TestUpdate:
    def test_delta_evidence(self):
        b = uniform_prior(181)
        z = np.zeros(181)
        z[60] = 3.0
        out = update(b, z, 1.0)
        assert out.probs[60] == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_exponent_keeps_prior(self):
        rng = np.random.default_rng(6)
        p = rng.random(181)
        b = BeliefState(default_grid(), p / p.sum(), 10.0)
        z = rng.random(181) + 0.1
        out = update(b, z, 1e-9)
        assert np.max(np.abs(out.probs - b.probs)) < 1e-6

    def test_larger_exponent_sharpens(self):
        # numeric check over random unimodal scans
        rng = np.random.default_rng(7)
        grid = default_grid()
        for _ in range(100):
            b = uniform_prior(181)
            center = rng.uniform(-60, 60)
            width = rng.uniform(3.0, 15.0)
            z = np.exp(-0.5 * ((grid - center) / width) ** 2) + 0.01
            h1 = entropy(update(b, z, 1.0))
            h2 = entropy(update(b, z, 2.0))
            assert h2 <= h1 + 1e-12

    def test_zero_scan_returns_prior(self):
        b = uniform_prior(181)
        out = update(b, np.zeros(181), 1.0)
        assert np.array_equal(out.probs, b.probs)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(8)
        b = uniform_prior(181)
        for _ in range(20):
            z = rng.random(181)
            b = update(predict(b), z, 1.0)
            assert b.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(b.probs >= 0.0)


class TestKernelAdapt:
    def test_fixed_point(self):
        assert kernel_adapt(10.0, 4.0, 4.0, 0.5) == 10.0

    def test_grows_when_uncertain(self):
        assert kernel_adapt(10.0, 6.0, 4.0, 0.5) == pytest.approx(11.0)

    def test_floor_saturates(self):
        assert kernel_adapt(2.0, 0.0, 4.0, 0.5, sigma_min=1.0) == 1.0

    def test_ceiling_saturates(self):
        assert kernel_adapt(44.0, 10.0, 4.0, 0.5, sigma_max=45.0) == 45.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            kernel_adapt(0.0, 1.0, 4.0, 0.5)


class TestContraction:
    def test_static_target_entropy_contracts(self):
        # filter cycle on a fixed emitter: late-window entropy drops below the
        # early window
        rng = np.random.default_rng(9)
        b = uniform_prior(181)
        entropies = []
        for _ in range(50):
            b = predict(b)
            z = synthesize_measurement([25.0], 0.15, 5.0, rng)
            b = update(b, z, 1.0)
            b.kernel_sigma_deg = kernel_adapt(b.kernel_sigma_deg, entropy(b), 4.0, 0.5)
            entropies.append(entropy(b))
        assert np.median(entropies[19:50]) < np.median(entropies[0:10])
