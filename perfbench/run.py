"""Slot-throughput benchmark of the secure-isac simulator.

    python3 perfbench/run.py --workload ibeams_default --seed 1 --seconds 50 --trace 0

Runs one workload in-process for about --seconds of timed episodes and prints
its metrics, then one JSON line {"correct", "attempted", "failed", "metrics"}
as the last line of standard output. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run is split into an untraced and a
traced half and the metrics are the per-layer ones from the spans.

Every run first runs a short checked episode on the scenario drawn from
--seed, which also warms the process up. The timed episodes then repeat the
workload's fixed scenario, so that run-to-run spread measures the code and
the machine rather than the scenario draw. The full report and, when traced,
the spans are written under perfbench/out/.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_program() -> bool:
    """Put the checkout's src/ first on the path; False when it is absent."""
    package = ROOT / "src" / "secure_isac"
    if not (package / "__init__.py").is_file():
        print(f"error: no simulator sources at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import secure_isac
    if Path(secure_isac.__file__).resolve().parent != package.resolve():
        print(f"error: secure_isac imported from {secure_isac.__file__}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not _load_program():
        return 2
    import measure
    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(measure.WORKLOADS)}")
    report = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    measure.print_report(report)
    print(json.dumps(measure.result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
