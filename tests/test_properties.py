"""Property test: short runs on small random valid configs keep every slot
invariant and are pure functions of (config, seed, strategy)."""

import logging
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from secure_isac.cli import write_trace
from secure_isac.config import ScenarioConfig, StrategyId
from secure_isac.engine import run_simulation

logging.disable(logging.WARNING)

SLOTS = 3


@st.composite
def small_configs(draw):
    cfg = ScenarioConfig()
    cfg.hn.count = draw(st.integers(1, 20))
    cfg.eve.count = draw(st.integers(1, 5))
    # the 28 GHz - 3 THz span of the source paper
    cfg.carrier.frequency_hz = draw(st.sampled_from([28e9, 100e9, 300e9, 3e12]))
    cfg.bs.antennas, cfg.bs.num_rf = draw(
        st.sampled_from([(128, 8), (32, 4), (16, 8), (8, 8)]))
    # AN needs a nullspace: validation rejects as many streams as antennas
    assume(min(cfg.hn.count, cfg.bs.num_rf) < cfg.bs.antennas)
    cfg.belief.grid_size = draw(st.integers(2, 91))
    cfg.eve.mobility = draw(st.sampled_from(["static", "waypoint"]))
    cfg.eve.speed_mps = draw(st.sampled_from([1.0, 25.0]))
    cfg.channel.csi_error_frobenius = draw(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)))
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
