"""Command-line runner: config parsing, simulation, and artifact emission.

Artifacts are plain text with IEEE-754 round-trip float formatting, so every
run is reproducible byte-for-byte from (config, seed, strategy, version); the
manifest additionally records wall-clock time and is the one file expected to
differ between identical runs.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, StrategyId, config_hash,
                     parse_config, serialize_config)
from .engine import SimulationResult, run_compare, run_simulation
from .link import watts_to_dbm

TRACE_COLUMNS = [
    "slot", "alpha", "beta", "gamma", "pi", "tau", "kappa", "sigma_deg",
    "entropy_bits", "r_min", "r_mean", "outage", "see", "bs_power_dbm",
    "hn_power_sum_w", "gne_iters", "gne_gap", "n_thn", "n_jhn",
    "refine_iters", "jam_power_w",
]

EMIT_CHOICES = ("trace", "summary", "beliefs", "beampattern", "field")


def _fmt(value) -> str:
    """Round-trip text for a cell: repr for floats, plain str otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_trace(trace, path: str) -> None:
    """Per-slot CSV with the fixed 21-column header."""
    if not trace:
        raise ValueError("empty trace")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for record in trace:
            row = [_fmt(getattr(record, col)) for col in TRACE_COLUMNS]
            fh.write(",".join(row) + "\n")


def write_summary(summaries, path: str) -> None:
    """One table row per run (five rows under --compare), the columns in the
    first summary's key order; every summary must have the same keys."""
    rows = summaries if isinstance(summaries, list) else [summaries]
    columns = list(rows[0])
    if any(summary.keys() != rows[0].keys() for summary in rows):
        raise ValueError("summaries with different keys")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(columns) + "\n")
        for summary in rows:
            fh.write("\t".join(_fmt(summary[c]) for c in columns) + "\n")


def _write_rows(path: str, header: str, rows) -> None:
    """The header, then one line per float row. tolist() yields Python
    floats, so each cell's repr is its _fmt text at a fraction of the cost of
    one _fmt call per cell; converting row by row keeps one row of Python
    floats alive at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in rows)


def emit_plot_data(result: SimulationResult, out_dir: str, wanted) -> list:
    """Plot-ready artifacts from replication 0: posterior heatmaps, the last
    jamming-field snapshot, and the normalized pattern of the strongest node
    holding a jamming beam (every holder ends the run as a jammer), or the
    sensing beam when none does."""
    from .arrays import beampattern_db

    world = result.worlds[0]
    grid = world.scenario.grid_deg
    written = []

    if "beliefs" in wanted:
        header = ("# rows: slots; columns: posterior mass per angle\n"
                  "# angle_deg " + " ".join(map(repr, grid.tolist())) + "\n")
        for j in range(len(world.posterior)):
            path = os.path.join(out_dir, f"beliefs_eve{j}.txt")
            _write_rows(path, header, (h[j] for h in world.belief_history))
            written.append(path)

    if "field" in wanted:
        field = world.last_field if world.last_field is not None \
            else np.zeros(grid.shape[0])
        path = os.path.join(out_dir, "jamming_field.txt")
        _write_rows(path, "angle_deg watts\n", np.column_stack([grid, field]))
        written.append(path)
        path = os.path.join(out_dir, "coalitions.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("target_deg member_ids\n")
            for target, members in world.last_coalitions:
                fh.write(f"{_fmt(target)} {','.join(str(m) for m in members)}\n")
        written.append(path)

    if "beampattern" in wanted:
        spec = world.scenario.hn_spec
        if world.jhn_beams:
            beam = world.jhn_beams[max(world.jhn_beams, key=lambda u: world.powers[u])]
        else:
            from .arrays import sensing_beam
            beam = sensing_beam(spec, 0.5, np.radians(world.beliefs[0].argmax_deg))
        pattern = beampattern_db(beam, spec, np.radians(grid))
        path = os.path.join(out_dir, "beampattern.txt")
        _write_rows(path, "angle_deg gain_db\n", np.column_stack([grid, pattern]))
        written.append(path)

    return written


def build_manifest(config: ScenarioConfig, strategy: StrategyId, outputs,
                   wall_clock_s: float, compare: bool) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": config_hash(config),
        "seed": config.run.seed,
        "strategy": "compare" if compare else strategy.value,
        "slots": config.run.slots,
        "replications": config.run.replications,
        "bs_p_max_dbm": round(watts_to_dbm(config.bs.p_max_w), 6),
        "bs_p_init_dbm": round(watts_to_dbm(config.bs.p_init_w), 6),
        "hn_p_max_dbm": round(watts_to_dbm(config.hn.p_max_w), 6),
        "outputs": sorted(outputs),
        "wall_clock_s": wall_clock_s,
    }


def _apply_overrides(config: ScenarioConfig, args) -> None:
    if args.seed is not None:
        config.run.seed = args.seed
    if args.slots is not None:
        config.run.slots = args.slots
    if args.replications is not None:
        config.run.replications = args.replications
    if args.freq_hz is not None:
        config.carrier.frequency_hz = args.freq_hz
    config.validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="secure-isac",
        description="Discrete-slot simulator of hierarchical secure ISAC control")
    parser.add_argument("--config", help="INI config file (defaults when omitted)")
    parser.add_argument("--strategy", default="ibeams",
                        choices=[s.value for s in StrategyId])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--slots", type=int)
    parser.add_argument("--replications", type=int)
    parser.add_argument("--freq-hz", type=float, dest="freq_hz")
    parser.add_argument("--out", default=os.environ.get("SECURE_ISAC_OUT", "runs"))
    parser.add_argument("--emit", default="trace,summary",
                        help="comma list of: " + ",".join(EMIT_CHOICES))
    parser.add_argument("--compare", action="store_true",
                        help="run all five strategies on shared seeds")
    args = parser.parse_args(argv)

    wanted = [w for w in args.emit.split(",") if w]
    for w in wanted:
        if w not in EMIT_CHOICES:
            print(f"error: unknown emit kind {w!r}", file=sys.stderr)
            return 2

    try:
        config = parse_config(args.config) if args.config else ScenarioConfig()
        _apply_overrides(config, args)
        os.makedirs(args.out, exist_ok=True)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        strategy = StrategyId(args.strategy)
        if args.compare:
            # the plot files come from ibeams, the full stack
            results, label, plotted = run_compare(config), "compare", StrategyId.IBEAMS
        else:
            results = {strategy: run_simulation(config, strategy)}
            label, plotted = strategy.value, strategy
        outputs = []
        if "trace" in wanted:
            for run, result in results.items():
                path = os.path.join(args.out, f"trace_{run.value}.csv")
                write_trace(result.traces[0], path)
                outputs.append(path)
        outputs.extend(emit_plot_data(results[plotted], args.out, wanted))
        if "summary" in wanted:
            path = os.path.join(args.out, f"summary_{label}.tsv")
            write_summary([r.summary for r in results.values()], path)
            outputs.append(path)
        with open(os.path.join(args.out, "config_used.ini"), "w",
                  encoding="utf-8") as fh:
            fh.write(serialize_config(config))
        manifest = build_manifest(config, strategy, outputs,
                                  round(time.monotonic() - started, 3),
                                  compare=args.compare)
        with open(os.path.join(args.out, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
