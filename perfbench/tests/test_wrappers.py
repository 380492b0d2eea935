"""Self-test of the benchmark's wrappers, spans and output check.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

from secure_isac import cli, engine, followers, link, refinement
from secure_isac.config import ScenarioConfig
from tracer import TARGETS, Tracer, patched
from workloads import WORKLOADS, SlotProbe, check_slot, run_episode

import measure

ROOT = Path(__file__).resolve().parents[2]

# where each caller resolves the name it calls
EXPECTED_HOLDERS = {
    "engine.run_slot": (engine, "run_slot"),
    "engine.init_scenario": (engine, "init_scenario"),
    "engine.build_slot_context": (engine, "build_slot_context"),
    "followers.gne_solve": (engine, "gne_solve"),
    "refinement.refinement_loop": (engine, "refinement_loop"),
    "leader.leader_step": (engine, "leader_step"),
    "belief.predict": (engine, "predict"),
    "belief.update": (engine, "update"),
    "belief.synthesize_measurement": (engine, "synthesize_measurement"),
    "channel.eve_channel": (engine, "eve_channel"),
    "followers.best_response": (followers, "best_response"),
    "followers.equilibrium_gap": (followers, "equilibrium_gap"),
    "refinement.coalition_refine": (refinement, "coalition_refine"),
    "refinement.synthesize_field": (refinement, "synthesize_field"),
    "link.SlotContext.rates": (link.SlotContext, "rates"),
    "config.parse_config": (cli, "parse_config"),
    "cli.write_trace": (cli, "write_trace"),
    "cli.emit_plot_data": (cli, "emit_plot_data"),
    "cli.write_summary": (cli, "write_summary"),
}

# spans each small workload must record (> 0) and must not record (== 0)
FIRES = {
    "ibeams_default": (
        {"refinement.refinement_loop", "refinement.coalition_refine",
         "refinement.synthesize_field", "followers.gne_solve",
         "followers.best_response", "followers.equilibrium_gap",
         "link.SlotContext.rates"},
        {"config.parse_config", "cli.write_trace", "cli.emit_plot_data",
         "cli.write_summary"}),
    "mobile_emit": (
        {"config.parse_config", "cli.write_trace", "cli.emit_plot_data",
         "cli.write_summary"},
        {"refinement.refinement_loop", "refinement.coalition_refine",
         "refinement.synthesize_field", "followers.gne_solve",
         "followers.best_response", "followers.equilibrium_gap"}),
}
SMALL_SLOTS = {"ibeams_default": 2, "mobile_emit": 10}
EVERY_SLOT = {"engine.run_slot", "engine.build_slot_context", "channel.eve_channel",
              "belief.predict", "belief.synthesize_measurement", "belief.update",
              "leader.leader_step"}


def _originals():
    return {span: holder.__dict__[attr]
            for span, (holder, attr) in EXPECTED_HOLDERS.items()}


def test_every_target_patches_the_callers_lookup():
    assert {t.span for t in TARGETS} == set(EXPECTED_HOLDERS)
    before = _originals()
    tracer = Tracer("unit", 0)
    with patched(tracer.replacements()):
        for span, (holder, attr) in EXPECTED_HOLDERS.items():
            installed = holder.__dict__[attr]
            assert installed is not before[span], span
            assert installed.__wrapped__ is before[span], span
    assert _originals() == before


def _run_small(name, tmp_path, traced: bool):
    wl = dataclasses.replace(WORKLOADS[name], slots=SMALL_SLOTS[name])
    probe = SlotProbe()
    tracer = Tracer(name, 0) if traced else None
    probe.tracer = tracer
    spans = tracer.replacements() if traced else {}
    with patched(probe.replacements(spans)):
        ep = run_episode(wl, wl.scenario_seed, wl.slots, probe, tmp_path)
    return wl, ep, tracer


@pytest.mark.parametrize("name", sorted(FIRES))
def test_spans_fire_where_predicted(name, tmp_path):
    before = _originals()
    wl, ep, tracer = _run_small(name, tmp_path, traced=True)
    assert _originals() == before
    assert ep.ok, ep.problems
    calls = tracer.totals()[0]
    fires, absent = FIRES[name]
    for span in fires | EVERY_SLOT:
        assert calls[span] > 0, span
    for span in absent:
        assert calls[span] == 0, span
    assert calls["engine.run_slot"] == wl.slots
    assert calls["engine.init_scenario"] == 1
    # every span inside the slot loop carries its slot in the trace id
    assert all(slot >= 0 for _, _, span, slot, *_ in tracer.spans
               if span in EVERY_SLOT)
    # self times partition each slot's time
    _, total, _, own_in_slots = tracer.totals()
    assert sum(own_in_slots.values()) == pytest.approx(total["engine.run_slot"])

    _, untraced, _ = _run_small(name, tmp_path, traced=False)
    assert untraced.digest == ep.digest


def test_check_slot_reports_broken_invariants():
    wl = WORKLOADS["ibeams_default"]
    world = engine.init_scenario(ScenarioConfig(), wl.scenario_seed)
    record = engine.run_slot(world, wl.strategy, 0)
    assert check_slot(record, world) == []

    record.alpha += 1e-6
    record.powers[0] = world.config.hn.p_max_w * 2
    record.rates[next(iter(record.rates))] = -1.0
    world.beliefs[0].probs[0] = -0.5
    problems = " | ".join(check_slot(record, world))
    for expected in ("power split", "outside [0, p_max]", "negative served",
                     "not a distribution"):
        assert expected in problems


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(measure.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_timings_are_scaled_by_the_host_gauge(tmp_path):
    wl = WORKLOADS["mobile_emit"]
    probe = SlotProbe()
    with patched(probe.replacements({})):
        ep = run_episode(wl, wl.scenario_seed, SMALL_SLOTS["mobile_emit"], probe, tmp_path)
    assert ep.ok and ep.gauge_s
    assert measure.host_scale(ep) > 0.0
    raw = measure.timings([ep], [1.0])
    half = measure.timings([ep], [0.5])
    for name in ("setup_s", "wall_s", "slot_ms_p50", "slot_ms_p90", "cpu_ms_per_slot"):
        assert half[name] == pytest.approx(0.5 * raw[name])
    assert half["slots_per_s"] == pytest.approx(2.0 * raw["slots_per_s"])
