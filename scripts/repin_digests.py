"""Re-run every pinned output, report how each moved against its golden
copy, and (with --write) rewrite the pins and the golden copies together.

The pins are test_trace_digests.DIGESTS (20-slot traces of each strategy on
each digest scenario) and test_config_cli.COMPARE_DIGESTS (the --compare
outputs); the golden copies live in tests/golden/. The printed Markdown
table has one row per pin: whether it moved, the first moved data row, the
moved columns with their largest relative change |new - old| / max(|old|,
|new|), and whether an integer column, outage or a role count moved.

    PYTHONPATH=src python scripts/repin_digests.py            # report only
    PYTHONPATH=src python scripts/repin_digests.py --write    # re-pin

The report exits 1 when any pin moved and 0 when none did; --write exits 0.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_config_cli  # noqa: E402
import test_trace_digests  # noqa: E402
from golden import compare_golden, divergence, sha256, trace_golden  # noqa: E402
from secure_isac.cli import main as cli_main  # noqa: E402


def _outputs(work: Path):
    """(label, pin-file key pattern, golden path, old pin, new bytes) of every pin."""
    for scenario, strategy in sorted(test_trace_digests.DIGESTS):
        out = work / f"{scenario}.{strategy}"
        out.mkdir()
        data = test_trace_digests.trace_bytes(scenario, strategy, out)
        yield (f"{scenario}/{strategy}", f'("{scenario}", "{strategy}"):',
               test_trace_digests, trace_golden(scenario, strategy),
               test_trace_digests.DIGESTS[scenario, strategy], data)
    compare = work / "compare"
    if cli_main(["--compare", "--out", str(compare),
                 *test_config_cli.TestCompareOutputs.FLAGS]) != 0:
        raise RuntimeError("--compare exited nonzero")
    for name, pin in sorted(test_config_cli.COMPARE_DIGESTS.items()):
        yield (f"compare/{name}", f'"{name}":', test_config_cli, compare_golden(name),
               pin, (compare / name).read_bytes())


def _repin(module, key: str, new_pin: str) -> None:
    """Replace the digest that follows `key` in the module's source."""
    path = Path(module.__file__)
    text, count = re.subn(re.escape(key) + r'(\s*)"[0-9a-f]{64}"',
                          lambda m: f'{key}{m.group(1)}"{new_pin}"', path.read_text())
    if count != 1:
        raise RuntimeError(f"{path.name}: {count} pins follow {key}")
    path.write_text(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pins and the golden copies")
    args = parser.parse_args()
    print("| pin | moved | first row | moved columns (largest relative change) "
          "| integer / outage / roles |")
    print("|---|---|---|---|---|")
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, key, module, golden, pin, data in list(_outputs(Path(tmp))):
            new_pin = sha256(data)
            if new_pin == pin:
                print(f"| {label} | no | | | |")
            elif not golden.exists():
                print(f"| {label} | yes | no golden copy | | |")
            else:
                report = divergence(golden.read_bytes(), data)
                row = ("" if report.first_row is None
                       else f"{report.first_row} ({report.first_label})")
                print(f"| {label} | yes | {row} | {report.columns()} | {report.flags()} |")
            moved += new_pin != pin
            if args.write:
                golden.parent.mkdir(parents=True, exist_ok=True)
                golden.write_bytes(data)
                if new_pin != pin:
                    _repin(module, key, new_pin)
    print(f"\n{moved} pins moved" + (", rewritten" if args.write and moved else ""))
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
