"""The per-seed Scenario is frozen, read-only and shared safely by its runs."""

import logging
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from secure_isac import engine, scenario as scenario_module
from secure_isac.config import ScenarioConfig, StrategyId, serialize_config
from secure_isac.scenario import World, build_scenario, init_scenario, start_run

logging.disable(logging.WARNING)

SLOTS = 10


def small_config(mobility: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.hn.count = 6
    cfg.eve.count = 2
    cfg.eve.mobility = mobility
    cfg.eve.speed_mps = 25.0
    return cfg


def scenario_arrays(scenario) -> dict:
    return {f.name: getattr(scenario, f.name) for f in fields(scenario)
            if isinstance(getattr(scenario, f.name), np.ndarray)}


def run(world, strategy) -> list:
    return [engine.run_slot(world, strategy, t) for t in range(SLOTS)]


@pytest.mark.parametrize("mobility", ["static", "waypoint"])
class TestFrozenScenario:
    def test_arrays_and_fields_read_only(self, mobility):
        scenario = build_scenario(small_config(mobility), 1)
        arrays = scenario_arrays(scenario)
        assert {"hn_channels", "hn_estimates", "link_gain", "link_steer",
                "eve_start", "pair_shadow"} <= set(arrays)
        for name, arr in arrays.items():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
        with pytest.raises(FrozenInstanceError):
            scenario.seed = 2
        with pytest.raises(FrozenInstanceError):
            scenario.feasibility.p_max = 2.0

    @pytest.mark.parametrize("strategy", list(StrategyId))
    def test_runs_leave_it_unchanged_and_match_fresh_builds(self, mobility, strategy):
        cfg = small_config(mobility)
        scenario = build_scenario(cfg, 1)
        before = {name: arr.tobytes() for name, arr in scenario_arrays(scenario).items()}
        config_text = serialize_config(cfg)
        shared = [run(start_run(scenario), strategy) for _ in range(2)]
        after = {name: arr.tobytes() for name, arr in scenario_arrays(scenario).items()}
        assert after == before
        for prec, basis in scenario.precoder_cache.values():
            assert not (prec.beams.flags.writeable or basis.flags.writeable)
        assert serialize_config(scenario.config) == config_text
        fresh = [run(init_scenario(cfg, 1), strategy) for _ in range(2)]
        assert shared == fresh


class TestRunCompare:
    def test_one_scenario_per_replication(self, monkeypatch):
        built = []

        def counting_build(config, seed):
            built.append(seed)
            return build_scenario(config, seed)

        walked = []
        real_walk = scenario_module._waypoint_walk

        def counting_walk(config, seed, start):
            for positions in real_walk(config, seed, start):
                walked.append(seed)
                yield positions

        monkeypatch.setattr(engine, "build_scenario", counting_build)
        monkeypatch.setattr(scenario_module, "_waypoint_walk", counting_walk)
        cfg = small_config("waypoint")
        cfg.run.slots = 2
        cfg.run.replications = 2
        results = engine.run_compare(cfg)
        assert built == [cfg.run.seed, cfg.run.seed + 1]
        # one walk per replication, shared by the five strategies: each
        # yields its two slots once
        assert walked == [cfg.run.seed] * 2 + [cfg.run.seed + 1] * 2
        assert list(results) == list(StrategyId)
        for strategy, result in results.items():
            alone = engine.run_simulation(cfg, strategy)
            assert result.traces == alone.traces
            assert result.summary == alone.summary

    def test_exogenous_inputs_shared_across_strategies(self):
        cfg = small_config("waypoint")
        cfg.run.slots = SLOTS
        results = engine.run_compare(cfg)
        scenarios = {id(r.worlds[0].scenario) for r in results.values()}
        assert len(scenarios) == 1
        shared = results[StrategyId.IBEAMS].worlds[0].scenario
        fresh = build_scenario(cfg, cfg.run.seed)
        for t in range(SLOTS):
            ran, new = engine._slot_inputs(shared, t), engine._slot_inputs(fresh, t)
            assert [a.tobytes() for a in ran] == [a.tobytes() for a in new], t


def test_world_holds_only_decision_state():
    # a run's state is what its decisions change; anything a decision cannot
    # move belongs on the Scenario
    assert {f.name for f in fields(World)} == {
        "scenario", "beliefs", "leader", "roles", "powers", "prev_kpis",
        "jhn_beams", "entropy_ema", "secrecy_ema", "last_field",
        "last_coalitions", "belief_history"}
