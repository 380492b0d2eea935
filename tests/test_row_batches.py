"""Each array form over a batch of rows gives every row the bytes of its own
one-row call, in any batch: the null steering, the aligned jamming beams,
the eavesdropper LOS channels, the bearings and the waypoint walk.
rician_channel and belief.entropy are checked the same way beside their
oracles, in test_channel and test_belief."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secure_isac.arrays import ArraySpec, null_steer, steering_vector
from secure_isac.belief import default_grid
from secure_isac.channel import PathLossModel
from secure_isac.config import ScenarioConfig
from secure_isac.refinement import aligned_beam
from secure_isac.scenario import _eve_los, _waypoint_walk, bearing_deg, build_scenario

LAMBDA = 0.01


def null_cases(rng, n: int, m: int):
    """Aims (M,) in degrees and null bearings (M, U) for an n-element array,
    U drawn in [0, n - 1]; some rows put a null on their own aim (nearest or
    farthest), which leaves them no usable beam under that null."""
    count = int(rng.integers(0, n))
    aims = rng.uniform(-90.0, 90.0, m)
    nulls = rng.uniform(-90.0, 90.0, (m, count))
    if count:
        on_aim = rng.random(m) < 0.3
        column = np.where(rng.random(m) < 0.5, 0, count - 1)
        nulls[on_aim, column[on_aim]] = aims[on_aim]
    return aims, nulls


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 16), m=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       steered=st.booleans())
def test_null_steer_rows_equal_one_row_calls(n, m, seed, steered):
    rng = np.random.default_rng(seed)
    spec = ArraySpec.half_wavelength(n, LAMBDA)
    aims, nulls = null_cases(rng, n, m)
    weights = (steering_vector(spec, np.radians(aims)) if steered
               else rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    null_steering = steering_vector(spec, np.radians(nulls))
    beams, feasible = null_steer(weights, null_steering)
    for i in range(m):
        alone, ok = null_steer(weights[i:i + 1], null_steering[i:i + 1])
        assert beams[i].tobytes() == alone[0].tobytes(), i
        assert feasible[i] == ok[0], i


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 16), m=st.integers(1, 9), g=st.integers(2, 181),
       seed=st.integers(0, 2 ** 32 - 1))
def test_aligned_beam_rows_equal_one_row_calls(n, m, g, seed):
    rng = np.random.default_rng(seed)
    spec = ArraySpec.half_wavelength(n, LAMBDA)
    grid_steer_conj = steering_vector(spec, np.radians(default_grid(g))).conj()
    aims, nulls = null_cases(rng, n, m)
    null_steering = steering_vector(spec, np.radians(nulls))
    beams = aligned_beam(aims.tolist(), null_steering, spec, grid_steer_conj)
    for i, beam in enumerate(beams):
        (alone,) = aligned_beam([aims[i]], null_steering[i:i + 1], spec, grid_steer_conj)
        assert beam.weights.tobytes() == alone.weights.tobytes(), i
        assert beam.gain_row.tobytes() == alone.gain_row.tobytes(), i
        assert beam.dropped_nulls == alone.dropped_nulls, i


def test_aligned_beam_logs_each_beam_that_drops_nulls(caplog):
    # a null on the aim leaves no usable beam: on the farthest null only it
    # is dropped, on the nearest every null is
    spec = ArraySpec.half_wavelength(4, LAMBDA)
    grid_steer_conj = steering_vector(spec, np.radians(default_grid(181))).conj()
    aims = [10.0, -30.0, 40.0]
    nulls = np.array([[20.0, -50.0, 10.0], [0.0, 50.0, 60.0], [40.0, -10.0, 70.0]])
    with caplog.at_level(logging.DEBUG, logger="secure_isac.refinement"):
        beams = aligned_beam(aims, steering_vector(spec, np.radians(nulls)), spec,
                             grid_steer_conj)
    assert [beam.dropped_nulls for beam in beams] == [1, 0, 3]
    assert [r.getMessage() for r in caplog.records] == [
        "aim 10.00 deg: dropped 1 protective nulls", "aim 40.00 deg: dropped 3 protective nulls"]


@settings(max_examples=300, deadline=None)
@given(e=st.integers(1, 9), n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_eve_los_rows_equal_one_row_calls(e, n, seed):
    rng = np.random.default_rng(seed)
    elements = np.zeros((n, 3))
    elements[:, 1] = (np.arange(n) - (n - 1) / 2.0) * LAMBDA / 2.0
    center = np.array([0.0, 0.0, rng.uniform(0.0, 30.0)])
    # distances from inside the 1 m clamp out to a few kilometres
    positions = rng.uniform(-1.0, 1.0, (e, 3)) * 10.0 ** rng.uniform(-1.0, 3.5, (e, 1))
    positions += center
    positions[0] += 1e-3     # no position sits on the array centre
    shadow = rng.standard_normal(e)
    model = PathLossModel(rng.uniform(20.0, 80.0), rng.uniform(1.5, 4.0), rng.uniform(0.0, 8.0))
    los = _eve_los(elements, center, LAMBDA, model, shadow, positions)
    for j in range(e):
        alone = _eve_los(elements, center, LAMBDA, model, shadow[j:j + 1], positions[j:j + 1])
        assert los[j].tobytes() == alone[0].tobytes(), j


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_bearings_equal_one_target_calls(m, seed):
    rng = np.random.default_rng(seed)
    targets = rng.uniform(-1.0, 1.0, (m, 3)) * 10.0 ** rng.uniform(-6.0, 3.0, (m, 1))
    targets[rng.random(m) < 0.2, :2] = 0.0          # straight above the BS: bearing 0
    bearings = bearing_deg(targets)
    for i in range(m):
        assert bearings[i].tobytes() == np.float64(bearing_deg(targets[i])).tobytes(), i


@pytest.mark.parametrize("seed", [3, 2 ** 33 + 1])
def test_waypoint_walk_rows_equal_a_shorter_walks_rows(seed):
    # each eavesdropper's legs are its own substreams, so the first m rows of
    # a walk are the m-row walk from the same starts; fast walkers finish
    # many legs, and some step into the exclusion disc
    cfg = ScenarioConfig()
    cfg.eve.count, cfg.eve.mobility, cfg.eve.speed_mps = 5, "waypoint", 3000.0
    start = build_scenario(cfg, seed).eve_start
    full = _waypoint_walk(cfg, seed, start)
    prefixes = {m: _waypoint_walk(cfg, seed, start[:m]) for m in (1, 2, 4)}
    step = cfg.eve.speed_mps * cfg.run.slot_duration_s
    arrivals = clamped = 0
    previous = None
    for _ in range(300):
        positions = next(full)
        for m, walk in prefixes.items():
            assert next(walk).tobytes() == positions[:m].tobytes()
        if previous is not None:
            moved = np.linalg.norm(positions - previous, axis=-1)
            arrivals += int(np.sum(moved < step - 1e-6))
        radius = np.linalg.norm(positions[:, :2], axis=-1)
        clamped += int(np.sum(np.abs(radius - cfg.run.min_node_distance_m) < 1e-9))
        previous = positions
    assert arrivals > 10 and clamped > 0
