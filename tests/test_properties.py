"""Property test: short runs on small random valid configs keep every slot
invariant and are pure functions of (config, seed, strategy)."""

import logging
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from secure_isac import engine
from secure_isac.cli import write_trace
from secure_isac.config import ScenarioConfig, StrategyId
from secure_isac.engine import run_simulation
from secure_isac.followers import equilibrium_gap

logging.disable(logging.WARNING)

SLOTS = 3


# physical knobs drawn from their declared ranges
PHYSICAL_KNOBS = ("carrier.frequency_hz", "carrier.bandwidth_hz",
                  "channel.path_loss_exponent", "channel.shadow_sigma_db",
                  "noise.noise_figure_db", "noise.psd_dbm_per_hz", "run.cell_radius_m",
                  "bs.z_m", "hn.height_m", "eve.height_m")


def declared_range(path):
    """(lo, lo_open, hi) of a knob, as its field declares it."""
    section, name = path.split(".")
    knob = next(f for f in fields(getattr(ScenarioConfig(), section)) if f.name == name)
    lo, lo_open, hi, _ = knob.metadata["range"]
    return lo, lo_open, hi


def draw_log_uniform(draw, lo, hi):
    """A value log-uniform over [lo, hi]."""
    return min(max(10.0 ** draw(st.floats(math.log10(lo), math.log10(hi))), lo), hi)


def draw_in_range(draw, lo, lo_open, hi):
    """A value in the range; log-uniform when it spans a decade or more."""
    if lo > 0 and hi >= 10 * lo:
        value = draw_log_uniform(draw, lo, hi)
        assume(value > lo or not lo_open)
        return value
    return draw(st.floats(lo, hi, exclude_min=lo_open))


@st.composite
def small_configs(draw):
    cfg = ScenarioConfig()
    cfg.hn.count = draw(st.integers(1, 20))
    cfg.eve.count = draw(st.integers(1, 5))
    for path in PHYSICAL_KNOBS:
        lo, lo_open, hi = declared_range(path)
        if path == "run.cell_radius_m":
            # the radius must exceed min_node_distance_m (a cross-field rule)
            lo, lo_open = cfg.run.min_node_distance_m, True
        section, name = path.split(".")
        setattr(getattr(cfg, section), name, draw_in_range(draw, lo, lo_open, hi))
    cfg.bs.antennas, cfg.bs.num_rf = draw(
        st.sampled_from([(128, 8), (32, 4), (16, 8), (8, 8)]))
    # AN needs a nullspace: validation rejects as many streams as antennas
    assume(min(cfg.hn.count, cfg.bs.num_rf) < cfg.bs.antennas)
    cfg.belief.grid_size = draw(st.integers(2, 91))
    cfg.eve.mobility = draw(st.sampled_from(["static", "waypoint"]))
    cfg.eve.speed_mps = draw(st.sampled_from([1.0, 25.0]))
    cfg.channel.csi_error_frobenius = draw(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)))
    # the knobs that shape the power game's and the refinement's blocks: the
    # grid, the beam's element count (one element leaves no null), the
    # budget and leakage cap from never binding to always binding, the
    # shaping bound and the QoS floor
    cfg.followers.grid_points = draw(st.integers(2, 21))
    cfg.hn.array_elements = draw(st.sampled_from([1, 2, 4, 16]))
    cfg.followers.p_fj_max_w = draw_log_uniform(draw, 1e-3, 1e3)
    cfg.followers.xi_max_scale = draw_log_uniform(draw, 1e-3, 1e3)
    cfg.refinement.j_min_fraction = draw(st.floats(0.0, 1.0))
    cfg.run.outage_threshold = draw(st.floats(0.0, 5.0))
    cfg.run.seed = draw(st.integers(0, 2 ** 31 - 1))
    cfg.run.slots = SLOTS
    cfg.validate()
    return cfg


def trace_bytes(cfg, strategy) -> bytes:
    """Run the config; any InvariantError propagates and fails the test."""
    result = run_simulation(cfg, strategy)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(result.traces[0], str(path))
        return path.read_bytes()


# 200 examples take 5-7 s on 2 vCPUs (keep it under 15 s)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs(), strategy=st.sampled_from(list(StrategyId)))
def test_random_config_keeps_invariants_and_is_deterministic(cfg, strategy):
    first = trace_bytes(cfg, strategy)
    assert first.count(b"\n") == SLOTS + 1
    assert trace_bytes(cfg, strategy) == first


# 60 examples take about 2 s on 2 vCPUs
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs(),
       strategy=st.sampled_from([StrategyId.STACKELBERG_ROLESWITCH, StrategyId.IBEAMS]))
def test_converged_power_game_has_zero_gap(cfg, strategy):
    # a sweep that moves no node leaves every node at its best response, so
    # the scan over every node finds no gain at all; gne_solve's own gap,
    # scored only at the nodes its sweeps left pending, equals that scan
    solves = []
    solve = engine.gne_solve

    def recording(*args, **kw):
        result = solve(*args, **kw)
        roles, _, broadcast, ctx, spec, eta, cost = args
        solves.append((result, equilibrium_gap(result.powers, broadcast, ctx, spec, roles,
                                               eta, cost, range(len(roles)))))
        return result

    engine.gne_solve = recording
    try:
        run_simulation(cfg, strategy)
    finally:
        engine.gne_solve = solve
    assert len(solves) == SLOTS
    assert all(np.float64(r.gap).tobytes() == np.float64(full).tobytes()
               for r, full in solves)
    assert all(full == 0.0 for r, full in solves if r.converged)


# 60 examples take about 1 s on 2 vCPUs
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs(),
       strategy=st.sampled_from([StrategyId.BASELINE, StrategyId.FIXED_AN,
                                 StrategyId.STACKELBERG_ONLY]))
def test_zero_jamming_tables_score_as_the_real_ones(cfg, strategy):
    # without the power game no node radiates, so these strategies build no
    # node link tables; every slot ends at 0 W, where a context built from the
    # real tables scores byte for byte as the one built from the zero tables
    finalize = engine._finalize_slot
    checked = []

    def comparing(world, state):
        assert state.node_path is None and not state.powers.any()
        node_path, link_steer = engine._node_links(world.scenario, state.slot)
        real = engine.build_slot_context(
            world, replace(state, node_path=node_path, link_steer=link_steer),
            state.ctx.served, world.jhn_beams)
        for score in ("rates", "eve_rate_max", "leakage_at_served"):
            got = np.asarray(getattr(state.ctx, score)(state.powers))
            want = np.asarray(getattr(real, score)(state.powers))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), score
        checked.append(state.slot)
        return finalize(world, state)

    engine._finalize_slot = comparing
    try:
        run_simulation(cfg, strategy)
    finally:
        engine._finalize_slot = finalize
    assert checked == list(range(SLOTS))
