"""Measurement of one workload: the phases of a run and the metrics.

A run is a seed episode (checked, untimed) and then timed episodes of the
workload's fixed scenario; a traced run times its first half untraced and
its second half with every layer wrapped. The end-to-end timings are scaled
to a nominal host speed by the host gauge timed between slots. See README.md.
"""

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from tracer import EMIT_SPANS, Tracer, patched
from workloads import WORKLOADS, SlotProbe, run_episode

# The host gauge's time on the host the bounds were set on; every reported
# timing is scaled to the host speed at which the gauge takes this long.
GAUGE_NOMINAL_S = 1.5e-3

OUT_DIR = Path(__file__).resolve().parent / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")

# (name, unit); BENCHMARK.json lists the same names with their bounds
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("slots_per_s", "slots/s"),
    ("slot_ms_p50", "ms"), ("slot_ms_p90", "ms"), ("cpu_ms_per_slot", "ms"),
    ("peak_rss_mb", "MB"), ("r_mean_avg", "bps/Hz"), ("see_avg", "bps/Hz/W"),
    ("service_avg", "fraction"),
)
# reported beside the metrics: zero whenever the power game runs, so not a
# metric with a bound (service_avg carries it)
REPORT_ONLY = (("outage_avg", "fraction"),)

MODULES = ("engine", "channel", "leader", "belief", "link", "followers", "refinement")
PER_LAYER = (
    ("refinement.refinement_loop.ms_per_slot", "ms"),
    ("refinement.refinement_loop.iterations_per_call", "count"),
    ("refinement.refinement_loop.accept_frac", "fraction"),
    ("refinement.coalition_refine.calls_per_slot", "count"),
    ("refinement.coalition_refine.self_ms_per_slot", "ms"),
    ("refinement.synthesize_field.ms_per_slot", "ms"),
    ("link.SlotContext.rates.calls_per_slot", "count"),
    ("link.SlotContext.rates.ms_per_slot", "ms"),
    ("followers.gne_solve.ms_per_slot", "ms"),
    ("followers.gne_solve.sweeps_per_solve", "count"),
    ("followers.gne_solve.converged_frac", "fraction"),
    ("followers.best_response.calls_per_slot", "count"),
    ("followers.equilibrium_gap.calls_per_slot", "count"),
    ("followers.equilibrium_gap.ms_per_slot", "ms"),
    ("followers.equilibrium_gap.used_frac", "fraction"),
    ("engine.run_slot.ms_per_slot", "ms"),
    ("engine.run_slot.self_ms_per_slot", "ms"),
    ("engine.init_scenario.ms", "ms"),
    ("engine.build_slot_context.calls_per_slot", "count"),
    ("engine.build_slot_context.ms_per_slot", "ms"),
    ("channel.eve_channel.ms_per_slot", "ms"),
    ("belief.predict.ms_per_slot", "ms"),
    ("belief.synthesize_measurement.ms_per_slot", "ms"),
    ("belief.update.ms_per_slot", "ms"),
    ("leader.leader_step.ms_per_slot", "ms"),
    ("cli.emit.ms", "ms"),
    ("cli.emit.bytes", "bytes"),
    ("config.parse_config.ms", "ms"),
    ("tracing_overhead_frac", "fraction"),
) + tuple((f"{m}.self_share", "fraction") for m in MODULES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment(threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "os_threads_mid_run": threads,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def timed_phase(wl, probe, budget_s: float) -> list:
    """Repeat the workload's fixed-scenario episode while the next one is
    expected to end within budget_s; at least two, stopping at a failure."""
    episodes = []
    start = time.perf_counter()
    while True:
        ep = run_episode(wl, wl.scenario_seed, wl.slots, probe, OUT_DIR)
        episodes.append(ep)
        if not ep.ok:
            break
        elapsed = time.perf_counter() - start
        if len(episodes) >= 2 and elapsed + ep.wall_s > budget_s:
            break
    return episodes


def host_scale(ep) -> float:
    """Factor that brings an episode's timings to the nominal host speed: the
    gauge's nominal time over its median time during the episode."""
    return GAUGE_NOMINAL_S / statistics.median(ep.gauge_s)


def timings(episodes, scales) -> dict:
    """The timing metrics of episodes, each episode's times multiplied by its
    scale. Means over the episodes, so that a run which sees the host partly
    fast and partly slow reports in proportion (see README.md)."""
    slot_s = [k * s for e, k in zip(episodes, scales) for s in e.slot_s]
    return {
        "setup_s": statistics.median(k * e.setup_s for e, k in zip(episodes, scales)),
        "wall_s": statistics.fmean(k * e.wall_s for e, k in zip(episodes, scales)),
        "slots_per_s": len(slot_s) / sum(slot_s),
        "slot_ms_p50": statistics.fmean(1e3 * k * statistics.median(e.slot_s)
                                        for e, k in zip(episodes, scales)),
        "slot_ms_p90": statistics.quantiles([1e3 * s for s in slot_s], n=10,
                                            method="inclusive")[-1],
        "cpu_ms_per_slot": 1e3 * sum(k * c for e, k in zip(episodes, scales)
                                     for c in e.cpu_s) / len(slot_s),
    }


def end_to_end_metrics(episodes) -> dict:
    """Timings at the nominal host speed, memory and the run summary."""
    good = [e for e in episodes if e.ok]
    summary = good[0].summary
    outage = float(summary["outage_avg"])
    out = timings(good, [host_scale(e) for e in good])
    out.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "r_mean_avg": float(summary["r_mean_avg"]),
        "see_avg": float(summary["see_avg"]),
        "service_avg": 1.0 - outage,
        "outage_avg": outage,
    })
    return out


def per_layer_metrics(tracer, traced, untraced) -> dict:
    calls, total, own, own_in_slots = tracer.totals()
    counts = tracer.counts
    slots = calls["engine.run_slot"]
    episodes = len(traced)

    def ms_per_slot(name):
        return 1e3 * _ratio(total[name], slots)

    def per_slot(name):
        return _ratio(calls[name], slots)

    def speed(eps):
        return timings(eps, [host_scale(e) for e in eps])["slots_per_s"]

    out = {
        "refinement.refinement_loop.ms_per_slot": ms_per_slot("refinement.refinement_loop"),
        "refinement.refinement_loop.iterations_per_call":
            _ratio(counts["refinement.iterations"], calls["refinement.refinement_loop"]),
        "refinement.refinement_loop.accept_frac":
            _ratio(counts["refinement.accepted"], counts["refinement.iterations"]),
        "refinement.coalition_refine.calls_per_slot": per_slot("refinement.coalition_refine"),
        "refinement.coalition_refine.self_ms_per_slot":
            1e3 * _ratio(own["refinement.coalition_refine"], slots),
        "refinement.synthesize_field.ms_per_slot": ms_per_slot("refinement.synthesize_field"),
        "link.SlotContext.rates.calls_per_slot": per_slot("link.SlotContext.rates"),
        "link.SlotContext.rates.ms_per_slot": ms_per_slot("link.SlotContext.rates"),
        "followers.gne_solve.ms_per_slot": ms_per_slot("followers.gne_solve"),
        "followers.gne_solve.sweeps_per_solve":
            _ratio(counts["gne.sweeps"], calls["followers.gne_solve"]),
        "followers.gne_solve.converged_frac":
            _ratio(counts["gne.converged"], calls["followers.gne_solve"]),
        "followers.best_response.calls_per_slot": per_slot("followers.best_response"),
        "followers.equilibrium_gap.calls_per_slot": per_slot("followers.equilibrium_gap"),
        "followers.equilibrium_gap.ms_per_slot": ms_per_slot("followers.equilibrium_gap"),
        "followers.equilibrium_gap.used_frac":
            _ratio(calls["followers.gne_solve"], calls["followers.equilibrium_gap"]),
        "engine.run_slot.ms_per_slot": ms_per_slot("engine.run_slot"),
        "engine.run_slot.self_ms_per_slot": 1e3 * _ratio(own["engine.run_slot"], slots),
        "engine.init_scenario.ms":
            1e3 * _ratio(total["engine.init_scenario"], calls["engine.init_scenario"]),
        "engine.build_slot_context.calls_per_slot": per_slot("engine.build_slot_context"),
        "engine.build_slot_context.ms_per_slot": ms_per_slot("engine.build_slot_context"),
        "channel.eve_channel.ms_per_slot": ms_per_slot("channel.eve_channel"),
        "belief.predict.ms_per_slot": ms_per_slot("belief.predict"),
        "belief.synthesize_measurement.ms_per_slot":
            ms_per_slot("belief.synthesize_measurement"),
        "belief.update.ms_per_slot": ms_per_slot("belief.update"),
        "leader.leader_step.ms_per_slot": ms_per_slot("leader.leader_step"),
        "cli.emit.ms": 1e3 * _ratio(sum(total[n] for n in EMIT_SPANS), episodes),
        "cli.emit.bytes": _ratio(counts["emit.bytes"], episodes),
        "config.parse_config.ms":
            1e3 * _ratio(total["config.parse_config"], calls["config.parse_config"]),
        "tracing_overhead_frac": 1.0 - speed(traced) / speed(untraced),
    }
    slot_total = total["engine.run_slot"]
    for module in MODULES:
        module_self = sum(v for name, v in own_in_slots.items()
                          if name.split(".")[0] == module)
        out[f"{module}.self_share"] = _ratio(module_self, slot_total)
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the full report."""
    wl = WORKLOADS[workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    probe = SlotProbe()
    with patched(probe.replacements({})):
        seed_ep = run_episode(wl, seed, wl.seed_slots, probe, OUT_DIR)
        probe.threads_at_slot = wl.slots // 2
        untraced = timed_phase(wl, probe, seconds / 2 if trace else seconds)
    traced, tracer = [], None
    if trace:
        tracer = Tracer(workload, seed)
        probe.tracer = tracer
        with patched(probe.replacements(tracer.replacements())):
            traced = timed_phase(wl, probe, seconds / 2)
        probe.tracer = None

    timed = untraced + traced
    problems = [p for e in [seed_ep] + timed for p in e.problems]
    digests = sorted({e.digest for e in timed if e.digest})
    if len(digests) > 1:
        problems.append(f"timed episodes gave {len(digests)} different trace digests")
    summaries = {tuple(sorted(e.summary.items())) for e in timed if e.ok}
    if len(summaries) > 1:
        problems.append("timed episodes gave different run summaries")
    attempted = sum(e.attempted for e in [seed_ep] + timed)
    failed = sum(e.failed for e in [seed_ep] + timed)
    correct = not problems and all(e.ok for e in timed) and seed_ep.ok

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "slot_fail_frac": _ratio(failed, attempted),
        "problems": problems[:20],
        "environment": environment(probe.threads),
        "timed_episodes": {"untraced": len(untraced), "traced": len(traced),
                           "slots_each": wl.slots,
                           "scenario_seed": wl.scenario_seed},
        "slot_samples": sum(len(e.slot_s) for e in untraced),
        "episode_wall_s": [round(e.wall_s, 4) for e in timed],
        "episode_slot_ms": [[round(1e3 * x, 3) for x in e.slot_s] for e in timed],
        "trace_sha256": digests[0] if len(digests) == 1 else None,
        "seed_episode": {"scenario_seed": seed, "slots": wl.seed_slots,
                         "trace_sha256": seed_ep.digest or None},
    }
    if correct:
        report["end_to_end"] = end_to_end_metrics(untraced)
        report["end_to_end_unscaled"] = timings(untraced, [1.0] * len(untraced))
        report["host_gauge_ms"] = [round(1e3 * GAUGE_NOMINAL_S / host_scale(e), 4)
                                   for e in timed]
        if trace:
            report["per_layer"] = per_layer_metrics(tracer, traced, untraced)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{workload}.csv")
    with open(OUT_DIR / f"report-{workload}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def result_line(report: dict) -> dict:
    """The result line: end-to-end metrics untraced, per-layer metrics traced."""
    table = PER_LAYER if report["trace"] else END_TO_END
    source = report.get("per_layer" if report["trace"] else "end_to_end", {})
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": source[name], "unit": unit}
                        for name, unit in table if name in source}}


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {report['trace']}: {report['timed_episodes']}, "
          f"{report['slot_samples']} untraced slot samples")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"trace_sha256 {report['trace_sha256']} "
          f"seed_episode {json.dumps(report['seed_episode'], sort_keys=True)}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"slot_fail_frac = {report['slot_fail_frac']:.6g} fraction "
          f"({report['failed']} of {report['attempted']} slots)")
    units = dict(END_TO_END + REPORT_ONLY + PER_LAYER)
    for name, value in report.get("end_to_end_unscaled", {}).items():
        print(f"unscaled {name} = {value:.6g} {units[name]}")
    if "host_gauge_ms" in report:
        print("host gauge median per episode, ms: "
              + " ".join(f"{g:.4g}" for g in report["host_gauge_ms"]))
    for section in ("end_to_end", "per_layer"):
        for name, value in report.get(section, {}).items():
            print(f"{name} = {value:.6g} {units[name]}")
