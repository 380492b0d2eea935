"""Spans around the simulator's public functions, recorded from outside.

Each wrapper replaces a name where its caller looks it up (a module global or
a class attribute), records one span per call and restores the original on
exit. Spans stay in memory as tuples; self time is the span's duration minus
the time of its directly wrapped children, accumulated as the calls unwind.
"""

import csv
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module


@dataclass(frozen=True)
class Target:
    """One wrapped name: the span name and the place the caller looks it up."""

    span: str          # "<layer>.<function>", as reported
    module: str        # module whose global (or class) the caller resolves
    attr: str
    owner: str = ""    # class name when the attribute is a method

    def resolve(self):
        holder = import_module(self.module)
        if self.owner:
            holder = getattr(holder, self.owner)
        return holder


# The engine calls these through its own `from .x import y` bindings, the
# power game and refinement through their module globals, the CLI through its
# globals, and every evaluator call goes through the SlotContext class.
TARGETS = (
    Target("engine.run_slot", "secure_isac.engine", "run_slot"),
    Target("engine.init_scenario", "secure_isac.engine", "init_scenario"),
    Target("engine.build_slot_context", "secure_isac.engine", "build_slot_context"),
    Target("channel.eve_channel", "secure_isac.engine", "eve_channel"),
    Target("belief.predict", "secure_isac.engine", "predict"),
    Target("belief.synthesize_measurement", "secure_isac.engine", "synthesize_measurement"),
    Target("belief.update", "secure_isac.engine", "update"),
    Target("leader.leader_step", "secure_isac.engine", "leader_step"),
    Target("followers.gne_solve", "secure_isac.engine", "gne_solve"),
    Target("followers.best_response", "secure_isac.followers", "best_response"),
    Target("followers.equilibrium_gap", "secure_isac.followers", "equilibrium_gap"),
    Target("refinement.refinement_loop", "secure_isac.engine", "refinement_loop"),
    Target("refinement.coalition_refine", "secure_isac.refinement", "coalition_refine"),
    Target("refinement.synthesize_field", "secure_isac.refinement", "synthesize_field"),
    Target("link.SlotContext.rates", "secure_isac.link", "rates", owner="SlotContext"),
    Target("config.parse_config", "secure_isac.cli", "parse_config"),
    Target("cli.write_trace", "secure_isac.cli", "write_trace"),
    Target("cli.emit_plot_data", "secure_isac.cli", "emit_plot_data"),
    Target("cli.write_summary", "secure_isac.cli", "write_summary"),
)

EMIT_SPANS = ("cli.write_trace", "cli.emit_plot_data", "cli.write_summary")


def _count_refinement(counts, args, result):
    counts["refinement.iterations"] += result.iterations
    counts["refinement.accepted"] += len(result.improvements)


def _count_gne(counts, args, result):
    counts["gne.sweeps"] += result.iterations
    counts["gne.converged"] += bool(result.converged)


def _count_file(counts, args, result):
    counts["emit.bytes"] += os.path.getsize(args[1])


def _count_files(counts, args, result):
    counts["emit.bytes"] += sum(os.path.getsize(p) for p in result)


# Counters read from a wrapped call's arguments and result, by span name.
COUNTERS = {
    "refinement.refinement_loop": _count_refinement,
    "followers.gne_solve": _count_gne,
    "cli.write_trace": _count_file,
    "cli.write_summary": _count_file,
    "cli.emit_plot_data": _count_files,
}


@contextmanager
def patched(replacements):
    """Install {(holder, attr): new} and put every original back afterwards."""
    saved = []
    try:
        for (holder, attr), new in replacements.items():
            saved.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, new)
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


class Tracer:
    """In-memory span store.

    A span is (id, parent id, name, slot, start, end, self seconds). Its trace
    id is (workload, seed, slot), with slot -1 outside the slot loop; the slot
    probe sets `slot` around each engine.run_slot call.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.slot = -1
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []       # [span id, child seconds] of the open spans
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """Span-recording stand-in for fn; count(counts, args, result), when
        given, adds to the counters after each call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((span_id, parent, name, self.slot,
                                   start, end, end - start - frame[1]))
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def replacements(self) -> dict:
        """A span wrapper for every target, keyed like patched() expects."""
        out = {}
        for target in TARGETS:
            holder = target.resolve()
            out[(holder, target.attr)] = self.wrap(
                target.span, holder.__dict__[target.attr], COUNTERS.get(target.span))
        return out

    def totals(self):
        """Per span name: calls, total seconds, self seconds, and self seconds
        spent inside the slot loop."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        own_in_slots = defaultdict(float)
        for _, _, name, slot, start, end, self_s in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            if slot >= 0:
                own_in_slots[name] += self_s
        return calls, total, own, own_in_slots

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "parent_id", "name", "workload", "seed",
                          "slot", "start_s", "end_s", "self_s"])
            for span_id, parent, name, slot, start, end, self_s in self.spans:
                out.writerow([span_id, parent, name, self.workload, self.seed, slot,
                              f"{start:.9f}", f"{end:.9f}", f"{self_s:.9f}"])
