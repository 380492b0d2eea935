"""The benchmark's workloads, one timed episode each, and the per-slot check.

An episode is one complete run of the simulator as a user starts it: build
or parse the config, initialise the scenario, run every slot in order (a
closed loop with one client: slot t+1 starts only after slot t has updated
the world), and write the artifacts. The slot probe times each
`engine.run_slot` call and re-checks its output from outside the engine, so
the check also holds under `python -O`. Between slots it also times the
host gauge, a fixed piece of work that tracks how fast the host runs.
"""

import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from secure_isac import cli, engine
# bound at import, before any wrapper is installed: the benchmark's own
# artifact writing calls the originals
from secure_isac.cli import write_summary, write_trace
from secure_isac.config import ScenarioConfig, StrategyId

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: StrategyId
    slots: int              # slots in one timed episode
    scenario_seed: int      # fixed scenario of the timed episodes
    seed_slots: int         # slots of the checked episode drawn from --seed
    ini: str = ""           # shipped config run through cli.main when set
    emit: str = ""          # --emit kinds passed to cli.main


WORKLOADS = {w.name: w for w in (
    # the full three-layer stack at the program defaults (K=25, E=4, seed 1)
    Workload("ibeams_default", StrategyId.IBEAMS, slots=16, scenario_seed=1,
             seed_slots=3),
    # light slots through cli.main: channels, beliefs, context, emission;
    # neither the power game nor refinement runs, so it is the bypass for both
    Workload("mobile_emit", StrategyId.STACKELBERG_ONLY, slots=200,
             scenario_seed=3, seed_slots=20,
             ini="configs/posterior_mobile.ini",
             emit="trace,summary,beliefs,beampattern,field"),
)}


# The host gauge: a fixed piece of interpreted work that belongs to the
# benchmark, not the program, so no change to the program (or to numpy and
# its threads) moves it. Timed at most every GAUGE_INTERVAL_S between slots,
# it samples how fast the host runs while the slots run (see README.md,
# Steadiness).
GAUGE_INTERVAL_S = 0.05


def gauge() -> float:
    """Seconds the host takes for the gauge's fixed work."""
    start = time.perf_counter()
    acc = 0.0
    last = {}
    for i in range(8000):
        acc += (i * 1.5) % 7.0
        last[i & 63] = acc
    return time.perf_counter() - start


def check_slot(record, world) -> list:
    """Invariants of one slot, re-checked from the returned record and the
    world's beliefs; returns the violations found (empty when none)."""
    cfg = world.config
    problems = []
    split = record.alpha + record.beta + record.gamma
    if not abs(split - 1.0) <= 1e-9:
        problems.append(f"power split sums to {split!r}")
    powers = np.array(list(record.powers.values()), dtype=float)
    if not (np.all(powers >= -1e-12) and np.all(powers <= cfg.hn.p_max_w + 1e-12)):
        problems.append("hybrid-node power outside [0, p_max]")
    if not powers.sum() <= cfg.followers.p_fj_max_w + 1e-9:
        problems.append(f"jamming budget exceeded: {powers.sum()!r} W")
    rates = np.array(list(record.rates.values()), dtype=float)
    if not np.all(rates >= 0.0):
        problems.append("negative served secrecy rate")
    for belief in world.beliefs:
        if not (abs(belief.probs.sum() - 1.0) <= 1e-9
                and np.all(belief.probs >= -1e-15)):
            problems.append(f"belief of eavesdropper {belief.eve_id} not a distribution")
    return problems


def os_threads():
    """Thread count of this process from /proc, or None where unavailable."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


@dataclass
class Episode:
    """What one episode measured and produced."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    slot_s: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    gauge_s: list = field(default_factory=list)     # host gauge samples
    gauge_at: float = -math.inf                     # when the last was taken
    attempted: int = 0          # slots started
    failed: int = 0             # slots that raised or failed the check
    problems: list = field(default_factory=list)
    digest: str = ""            # SHA-256 of the trace CSV
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems and bool(self.digest)


class SlotProbe:
    """Stand-ins for engine.run_slot, engine.init_scenario and the CLI's
    parse_config that time each call into the current episode."""

    def __init__(self):
        self.episode = Episode()
        self.tracer = None          # the active Tracer, told the current slot
        self.threads = None         # OS thread count, read once mid-episode
        self.threads_at_slot = -1

    def wrap_run_slot(self, fn):
        def run_slot(world, strategy, slot):
            ep = self.episode
            tracer = self.tracer
            if tracer is not None:
                tracer.slot = slot
            if time.perf_counter() - ep.gauge_at >= GAUGE_INTERVAL_S:
                ep.gauge_s.append(gauge())
                ep.gauge_at = time.perf_counter()
            ep.attempted += 1
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                record = fn(world, strategy, slot)
            except Exception as exc:
                ep.failed += 1
                ep.problems.append(f"slot {slot} raised {type(exc).__name__}: {exc}")
                raise
            finally:
                if tracer is not None:
                    tracer.slot = -1
            ep.slot_s.append(time.perf_counter() - start)
            ep.cpu_s.append(time.process_time() - cpu0)
            problems = check_slot(record, world)
            if problems:
                ep.failed += 1
                ep.problems.extend(f"slot {slot}: {p}" for p in problems)
            if slot == self.threads_at_slot and self.threads is None:
                self.threads = os_threads()
            return record
        return run_slot

    def wrap_setup(self, fn):
        def setup(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.episode.setup_s += time.perf_counter() - start
        return setup

    def replacements(self, inner: dict) -> dict:
        """Probe wrappers around `inner`, the current or span-wrapped names."""
        keys = {"run_slot": (engine, "run_slot"),
                "init_scenario": (engine, "init_scenario"),
                "parse_config": (cli, "parse_config")}
        out = dict(inner)
        for attr, key in keys.items():
            current = inner.get(key, key[0].__dict__[attr])
            wrap = self.wrap_run_slot if attr == "run_slot" else self.wrap_setup
            out[key] = wrap(current)
        return out


def _read_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header, row = (line.rstrip("\n").split("\t") for line in fh)
    return dict(zip(header, row))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_episode(wl: Workload, seed: int, slots: int, probe: SlotProbe,
                out_dir) -> Episode:
    """Run one episode of the workload on scenario `seed` into a scratch
    directory under out_dir, which is removed afterwards."""
    ep = probe.episode = Episode()
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    trace_path = os.path.join(workdir, f"trace_{wl.strategy.value}.csv")
    summary_path = os.path.join(workdir, f"summary_{wl.strategy.value}.tsv")
    try:
        start = time.perf_counter()
        if wl.ini:
            code = cli.main(["--config", str(ROOT / wl.ini),
                             "--strategy", wl.strategy.value, "--seed", str(seed),
                             "--slots", str(slots), "--emit", wl.emit,
                             "--out", workdir])
            ep.wall_s = time.perf_counter() - start - sum(ep.gauge_s)
            if code != 0:
                ep.problems.append(f"cli.main exited with {code}")
                return ep
        else:
            config = ScenarioConfig()
            config.run.seed = seed
            config.run.slots = slots
            config.validate()
            ep.setup_s += time.perf_counter() - start
            result = engine.run_simulation(config, wl.strategy)
            write_trace(result.traces[0], trace_path)
            write_summary(result.summary, summary_path)
            ep.wall_s = time.perf_counter() - start - sum(ep.gauge_s)
        ep.summary = _read_summary(summary_path)
        ep.digest = _sha256(trace_path)
    except Exception as exc:  # noqa: BLE001 - a failed episode is counted, not fatal
        ep.problems.append(f"episode raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ep
