import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The one-BeliefState filter the batched layer replaced, kept as its oracle:
# every row of a batched call must equal the prediction and the update byte
# for byte, and the entropy to a stated tolerance (the batched entropy sums
# zero terms too, so it matches its own one-row call byte for byte instead).

def oracle_predict(b: BeliefState, sigma_deg: float) -> BeliefState:
    step = float(b.grid_deg[1] - b.grid_deg[0])
    half = int(np.ceil(4.0 * sigma_deg / step))
    probs = b.probs
    if half >= 1:
        offsets = np.arange(-half, half + 1) * step
        kernel = np.exp(-0.5 * (offsets / sigma_deg) ** 2)
        kernel /= kernel.sum()
        probs = np.convolve(np.pad(probs, half, mode="reflect"), kernel, mode="valid")
    probs = np.maximum(probs, 0.0)
    return BeliefState(b.grid_deg, probs / probs.sum(), b.eve_id)


def oracle_entropy(b: BeliefState) -> float:
    p = b.probs[b.probs > 0]
    return float(-np.sum(p * np.log2(p)))


def oracle_update(b: BeliefState, z: np.ndarray, k_eff: float) -> BeliefState:
    zmax = z.max()
    if zmax <= 0.0:
        return BeliefState(b.grid_deg, b.probs.copy(), b.eve_id)
    post = b.probs * (z / zmax) ** k_eff
    total = post.sum()
    if total <= 0.0 or not np.isfinite(total):
        return BeliefState(b.grid_deg, b.probs.copy(), b.eve_id)
    return BeliefState(b.grid_deg, post / total, b.eve_id)


def oracle_synthesize_measurement(true_angles_deg, gamma, noise_sigma_deg, rng, grid_deg,
                                  bs_power_w, bump_width_deg, floor_scale):
    """One scan (G,) of the emitters at true_angles_deg, drawn from `rng`."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    floor_mean = floor_scale * bs_power_w
    z = rng.exponential(floor_mean, size=grid_deg.shape[0]) if floor_mean > 0 \
        else np.zeros(grid_deg.shape[0])
    if gamma > 0.0:
        for truth in true_angles_deg:
            center = truth + rng.normal(0.0, noise_sigma_deg)
            lobe = np.exp(-0.5 * ((grid_deg - center) / bump_width_deg) ** 2)
            z = z + gamma * bs_power_w * lobe
    return z


def scan(truth, gamma, noise_sigma_deg, rng, grid_deg, **kwargs):
    """One emitter's scan (G,) from a one-row call."""
    return synthesize_measurement([truth], gamma, noise_sigma_deg, [rng], grid_deg,
                                  **kwargs)[0]


def one_row(probs) -> np.ndarray:
    """A one-eavesdropper posterior (1, G)."""
    return np.asarray(probs, dtype=float)[None]


def delta_row(idx, size=181):
    probs = np.zeros(size)
    probs[idx] = 1.0
    return one_row(probs)


GRID = default_grid(181)


class TestPrior:
    def test_uniform_values(self):
        b = uniform_prior(181)
        assert np.allclose(b.probs, 1.0 / 181)
        assert b.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_entropy_is_log2_n(self):
        assert entropy(one_row(uniform_prior(181).probs))[0] == pytest.approx(
            7.499845887083206, rel=1e-12)

    def test_two_bins(self):
        b = uniform_prior(2)
        assert np.allclose(b.probs, 0.5)

    def test_too_small(self):
        with pytest.raises(ValueError):
            uniform_prior(1)


class TestPredict:
    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_width_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma_deg"):
            predict(one_row(uniform_prior(181).probs), GRID, sigma)

    def test_tiny_kernel_is_identity(self):
        b = delta_row(90)
        out = predict(b, GRID, 1e-6)
        assert np.max(np.abs(out - b)) < 1e-6

    def test_delta_spreads_symmetrically(self):
        out = predict(delta_row(90), GRID, 10.0)[0]
        assert int(np.argmax(out)) == 90
        assert out[80] == pytest.approx(out[100], rel=1e-9)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_smoothing_never_decreases_entropy(self):
        # numeric oracle over random interior-supported beliefs
        rng = np.random.default_rng(5)
        for _ in range(100):
            probs = np.zeros(181)
            inner = rng.random(101)
            probs[40:141] = inner / inner.sum()
            b = one_row(probs)
            blurred = predict(b, GRID, rng.uniform(0.5, 8.0))
            assert entropy(blurred)[0] >= entropy(b)[0] - 1e-9

    def test_mass_conserved_at_boundary(self):
        out = predict(delta_row(0), GRID, 15.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

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
            assert np.array_equal(predict(one_row(b.probs), grid, sigma)[0],
                                  oracle_predict(b, sigma).probs), half

    def test_reflect_index_is_read_only(self):
        index = belief._reflect_index(5, 7)
        with pytest.raises(ValueError):
            index[0] = 1


class TestEntropy:
    def test_delta_zero(self):
        assert entropy(delta_row(17))[0] == 0.0

    def test_half_quarter_quarter(self):
        probs = np.zeros(181)
        probs[0], probs[1], probs[2] = 0.5, 0.25, 0.25
        assert entropy(one_row(probs))[0] == pytest.approx(1.5, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        p = rng.random((50, 181))
        h = entropy(p / p.sum(axis=1, keepdims=True))
        assert np.all((0.0 <= h) & (h <= np.log2(181) + 1e-12))


class TestMeasurement:
    def test_gamma_zero_pure_floor(self):
        rng = np.random.default_rng(2)
        z = scan(30.0, 0.0, 5.0, rng, default_grid(181),
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
        z = scan(30.0, 0.2, 0.0, rng, grid,
                 bs_power_w=15.0, bump_width_deg=2.0, floor_scale=0.0)
        assert abs(grid[np.argmax(z)] - 30.0) <= 1.0

    def test_argmax_within_10deg_at_default_noise(self):
        # Monte Carlo: >= 90% of scans peak within +-10 degrees of the truth
        rng = np.random.default_rng(4)
        grid = default_grid(181)
        hits = 0
        for _ in range(1000):
            z = scan(20.0, 0.15, 5.0, rng, grid, bs_power_w=15.0,
                     bump_width_deg=2.0, floor_scale=0.005)
            if abs(grid[np.argmax(z)] - 20.0) <= 10.0:
                hits += 1
        assert hits >= 900

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            scan(0.0, -0.1, 5.0, np.random.default_rng(0), default_grid(181),
                 bs_power_w=15.0, bump_width_deg=2.0, floor_scale=0.005)

    def test_one_generator_per_emitter_required(self):
        with pytest.raises(ValueError, match="2 emitters"):
            synthesize_measurement([0.0, 10.0], 0.1, 5.0, [np.random.default_rng(0)],
                                   GRID, bs_power_w=15.0, bump_width_deg=2.0,
                                   floor_scale=0.005)

    @settings(max_examples=300, deadline=None)
    @given(e=st.integers(1, 6), g=st.integers(2, 200),
           gamma=st.sampled_from([0.0, 1e-6, 0.15, 1.0]),
           floor_scale=st.sampled_from([0.0, 1e-9, 0.005]),
           noise=st.sampled_from([0.0, 5.0, 40.0]),
           bump=st.sampled_from([0.5, 2.0, 30.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_the_one_scan_oracle(self, e, g, gamma, floor_scale, noise, bump,
                                            seed):
        grid = default_grid(g)
        truths = np.random.default_rng(seed).uniform(-120.0, 120.0, e).tolist()
        rngs = [np.random.default_rng([seed, j]) for j in range(e)]
        scans = synthesize_measurement(truths, gamma, noise, rngs, grid, bs_power_w=15.0,
                                       bump_width_deg=bump, floor_scale=floor_scale)
        assert scans.shape == (e, g)
        for j, (row, truth, used) in enumerate(zip(scans, truths, rngs)):
            rng = np.random.default_rng([seed, j])
            want = oracle_synthesize_measurement([truth], gamma, noise, rng, grid,
                                                 bs_power_w=15.0, bump_width_deg=bump,
                                                 floor_scale=floor_scale)
            assert row.tobytes() == want.tobytes()
            # each row drew what the oracle drew, and nothing more
            assert used.bit_generator.state == rng.bit_generator.state


class TestUpdate:
    def test_delta_evidence(self):
        z = np.zeros(181)
        z[60] = 3.0
        out = update(one_row(uniform_prior(181).probs), one_row(z), 1.0)[0]
        assert out[60] == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_exponent_keeps_prior(self):
        rng = np.random.default_rng(6)
        p = rng.random(181)
        b = one_row(p / p.sum())
        z = one_row(rng.random(181) + 0.1)
        out = update(b, z, 1e-9)
        assert np.max(np.abs(out - b)) < 1e-6

    def test_larger_exponent_sharpens(self):
        # numeric check over random unimodal scans
        rng = np.random.default_rng(7)
        prior = one_row(uniform_prior(181).probs)
        for _ in range(100):
            center = rng.uniform(-60, 60)
            width = rng.uniform(3.0, 15.0)
            z = one_row(np.exp(-0.5 * ((GRID - center) / width) ** 2) + 0.01)
            h1 = entropy(update(prior, z, 1.0))[0]
            h2 = entropy(update(prior, z, 2.0))[0]
            assert h2 <= h1 + 1e-12

    def test_zero_scan_returns_prior(self):
        prior = one_row(uniform_prior(181).probs)
        out = update(prior, np.zeros((1, 181)), 1.0)
        assert np.array_equal(out, prior)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(8)
        b = np.tile(uniform_prior(181).probs, (3, 1))
        for _ in range(20):
            b = update(predict(b, GRID, 10.0), rng.random((3, 181)), 1.0)
            assert np.allclose(b.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
            assert np.all(b >= 0.0)

    def test_only_degenerate_rows_keep_their_prior(self):
        rng = np.random.default_rng(9)
        prior = rng.random((3, 181))
        prior /= prior.sum(axis=1, keepdims=True)
        prior[2] = 0.0
        prior[2, 0] = 1.0
        scans = rng.random((3, 181)) + 0.1
        scans[1] = 0.0                      # an all-zero scan
        scans[2] = 1e-200                   # a posterior that vanishes
        scans[2, -1] = 1.0
        out = update(prior, scans, 2.0)
        assert not np.array_equal(out[0], prior[0])
        assert np.array_equal(out[1:], prior[1:])

    @pytest.mark.parametrize("k_eff", [0.0, -1.0])
    def test_nonpositive_exponent_rejected(self, k_eff):
        with pytest.raises(ValueError, match="k_eff"):
            update(np.full((2, 5), 0.2), np.ones((2, 5)), k_eff)

    def test_scan_shape_and_sign_checked(self):
        prior = np.full((2, 5), 0.2)
        with pytest.raises(ValueError, match="mismatch"):
            update(prior, np.ones((1, 5)), 1.0)
        scans = np.ones((2, 5))
        scans[1, 3] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            update(prior, scans, 1.0)


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
        b, sigma = one_row(uniform_prior(181).probs), 10.0
        entropies = []
        for _ in range(50):
            b = predict(b, GRID, sigma)
            z = scan(25.0, 0.15, 5.0, rng, GRID,
                     bs_power_w=15.0, bump_width_deg=2.0, floor_scale=0.005)
            b = update(b, one_row(z), 1.0)
            h = float(entropy(b)[0])
            sigma = kernel_adapt(sigma, h, 4.0, 0.5, sigma_min=1.0, sigma_max=45.0)
            entropies.append(h)
        assert np.median(entropies[19:50]) < np.median(entropies[0:10])


@st.composite
def filter_cases(draw):
    """A posterior (E, G) whose rows hold exact zeros and underflowing
    entries, scans (E, G) with an all-zero row and a row that makes its
    posterior vanish, and a bandwidth and exponent across their ranges."""
    e = draw(st.integers(1, 6))
    g = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    posterior = rng.random((e, g)) ** draw(st.sampled_from([1.0, 8.0, 400.0]))
    posterior[rng.random((e, g)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    posterior[np.arange(e), rng.integers(0, g, e)] += 1.0   # no row is all zero
    posterior /= posterior.sum(axis=1, keepdims=True)
    scans = rng.exponential(1.0, (e, g)) * (rng.random((e, g)) < 0.9)
    row = rng.integers(0, e)
    special = draw(st.sampled_from(["none", "zero scan", "vanishing"]))
    if special == "zero scan":
        scans[row] = 0.0
    elif special == "vanishing":
        # the posterior sits where the scan is ~1e-200 of its peak, so the
        # likelihood underflows to zero under any exponent >= 2
        posterior[row] = 0.0
        posterior[row, 0] = 1.0
        scans[row] = 1e-200
        scans[row, -1] = 1.0
    step = 180.0 / (g - 1)
    sigma = 10.0 ** draw(st.floats(-3.0, 2.0)) * step
    k_eff = draw(st.floats(2.0, 10.0)) if special == "vanishing" else \
        10.0 ** draw(st.floats(-3.0, 1.0))
    return posterior, scans, sigma, k_eff, special, row


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_batched_filter_matches_the_one_row_oracle_byte_for_byte(case):
    posterior, scans, sigma, k_eff, special, row = case
    grid = default_grid(posterior.shape[1])
    rows = [BeliefState(grid, p, j) for j, p in enumerate(posterior)]

    predicted = predict(posterior, grid, sigma)
    updated = update(posterior, scans, k_eff)
    entropies = entropy(posterior)
    assert predicted.shape == updated.shape == posterior.shape
    for j, b in enumerate(rows):
        assert predicted[j].tobytes() == oracle_predict(b, sigma).probs.tobytes(), j
        assert updated[j].tobytes() == oracle_update(b, scans[j], k_eff).probs.tobytes(), j
        assert entropies[j].tobytes() == entropy(posterior[j:j + 1])[0].tobytes(), j
        # the oracle sums only the positive entries, so a zero entry can move
        # the pairwise summation's blocks by a rounding
        assert entropies[j] == pytest.approx(oracle_entropy(b), rel=1e-12, abs=1e-300), j
    if special != "none":
        assert updated[row].tobytes() == posterior[row].tobytes()
