import numpy as np
import pytest

from secure_isac import belief
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


def delta_belief(idx, size=181):
    grid = default_grid(size)
    probs = np.zeros(size)
    probs[idx] = 1.0
    return BeliefState(grid, probs)


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


def reference_predict(b, sigma_deg, half):
    """predict with the padding spelled out through np.pad."""
    offsets = np.arange(-half, half + 1) * float(b.grid_deg[1] - b.grid_deg[0])
    kernel = np.exp(-0.5 * (offsets / sigma_deg) ** 2)
    kernel /= kernel.sum()
    probs = np.convolve(np.pad(b.probs, half, mode="reflect"), kernel, mode="valid")
    probs = np.maximum(probs, 0.0)
    return BeliefState(b.grid_deg, probs / probs.sum(), b.eve_id)


class TestPredict:
    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_width_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma_deg"):
            predict(uniform_prior(181), sigma)

    def test_tiny_kernel_is_identity(self):
        b = delta_belief(90)
        out = predict(b, 1e-6)
        assert np.max(np.abs(out.probs - b.probs)) < 1e-6

    def test_delta_spreads_symmetrically(self):
        b = delta_belief(90)
        out = predict(b, 10.0)
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
            b = BeliefState(default_grid(181), probs)
            assert entropy(predict(b, rng.uniform(0.5, 8.0))) >= entropy(b) - 1e-9

    def test_mass_conserved_at_boundary(self):
        b = delta_belief(0)
        out = predict(b, 15.0)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 5, 91, 181])
    def test_reflect_index_matches_np_pad_for_every_half(self, size):
        # half >= size reflects more than once, which the form "reversed
        # slices around the vector" gets wrong; the grid-size and bandwidth
        # ranges allow it
        rng = np.random.default_rng(size)
        grid = default_grid(size)
        step = float(grid[1] - grid[0])
        for half in range(1, 3 * size + 1):
            sigma = (half - 0.5) * step / 4.0
            assert int(np.ceil(4.0 * sigma / step)) == half
            probs = rng.random(size)
            b = BeliefState(grid, probs / probs.sum())
            assert np.array_equal(predict(b, sigma).probs,
                                  reference_predict(b, sigma, half).probs), half

    def test_reflect_index_is_read_only(self):
        index = belief._reflect_index(5, 7)
        with pytest.raises(ValueError):
            index[0] = 1


class TestEntropy:
    def test_delta_zero(self):
        assert entropy(delta_belief(17)) == 0.0

    def test_half_quarter_quarter(self):
        probs = np.zeros(181)
        probs[0], probs[1], probs[2] = 0.5, 0.25, 0.25
        b = BeliefState(default_grid(181), probs)
        assert entropy(b) == pytest.approx(1.5, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(181)
            b = BeliefState(default_grid(181), p / p.sum())
            assert 0.0 <= entropy(b) <= np.log2(181) + 1e-12


class TestMeasurement:
    def test_gamma_zero_pure_floor(self):
        rng = np.random.default_rng(2)
        z = synthesize_measurement([30.0], 0.0, 5.0, rng, default_grid(181),
                                   bs_power_w=15.0, bump_width_deg=2.0, floor_scale=0.005)
        assert np.all(z >= 0.0)
        # flat in expectation: no bump structure anywhere near the truth
        grid = default_grid(181)
        near = z[np.abs(grid - 30.0) < 5.0].mean()
        far = z[np.abs(grid - 30.0) > 40.0].mean()
        assert near < 10 * far

    def test_noiseless_peak_at_truth(self):
        rng = np.random.default_rng(3)
        grid = default_grid(181)
        z = synthesize_measurement([30.0], 0.2, 0.0, rng, grid,
                                   bs_power_w=15.0, bump_width_deg=2.0, floor_scale=0.0)
        assert abs(grid[np.argmax(z)] - 30.0) <= 1.0

    def test_argmax_within_10deg_at_default_noise(self):
        # Monte Carlo: >= 90% of scans peak within +-10 degrees of the truth
        rng = np.random.default_rng(4)
        grid = default_grid(181)
        hits = 0
        for _ in range(1000):
            z = synthesize_measurement([20.0], 0.15, 5.0, rng, grid, bs_power_w=15.0,
                                       bump_width_deg=2.0, floor_scale=0.005)
            if abs(grid[np.argmax(z)] - 20.0) <= 10.0:
                hits += 1
        assert hits >= 900

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            synthesize_measurement([0.0], -0.1, 5.0, np.random.default_rng(0),
                                   default_grid(181), bs_power_w=15.0,
                                   bump_width_deg=2.0, floor_scale=0.005)


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
        b = BeliefState(default_grid(181), p / p.sum())
        z = rng.random(181) + 0.1
        out = update(b, z, 1e-9)
        assert np.max(np.abs(out.probs - b.probs)) < 1e-6

    def test_larger_exponent_sharpens(self):
        # numeric check over random unimodal scans
        rng = np.random.default_rng(7)
        grid = default_grid(181)
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
            b = update(predict(b, 10.0), z, 1.0)
            assert b.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(b.probs >= 0.0)


class TestKernelAdapt:
    def test_fixed_point(self):
        assert kernel_adapt(10.0, 4.0, 4.0, 0.5, sigma_min=1.0, sigma_max=45.0) == 10.0

    def test_grows_when_uncertain(self):
        assert kernel_adapt(10.0, 6.0, 4.0, 0.5,
                            sigma_min=1.0, sigma_max=45.0) == pytest.approx(11.0)

    def test_floor_saturates(self):
        assert kernel_adapt(2.0, 0.0, 4.0, 0.5, sigma_min=1.0, sigma_max=45.0) == 1.0

    def test_ceiling_saturates(self):
        assert kernel_adapt(44.0, 10.0, 4.0, 0.5, sigma_min=1.0, sigma_max=45.0) == 45.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            kernel_adapt(0.0, 1.0, 4.0, 0.5, sigma_min=1.0, sigma_max=45.0)


class TestContraction:
    def test_static_target_entropy_contracts(self):
        # filter cycle on a fixed emitter: late-window entropy drops below the
        # early window
        rng = np.random.default_rng(9)
        b, sigma = uniform_prior(181), 10.0
        entropies = []
        for _ in range(50):
            b = predict(b, sigma)
            z = synthesize_measurement([25.0], 0.15, 5.0, rng, b.grid_deg,
                                       bs_power_w=15.0, bump_width_deg=2.0,
                                       floor_scale=0.005)
            b = update(b, z, 1.0)
            sigma = kernel_adapt(sigma, entropy(b), 4.0, 0.5, sigma_min=1.0,
                                 sigma_max=45.0)
            entropies.append(entropy(b))
        assert np.median(entropies[19:50]) < np.median(entropies[0:10])
