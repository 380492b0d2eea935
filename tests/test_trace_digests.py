"""Golden SHA-256 digests of short trace files.

Every strategy runs for 20 slots on each distinct shipped scenario, and the
trace CSV must match its pinned digest byte for byte. compare_28ghz.ini and
convergence_28ghz.ini run the program defaults (seed 1), so the defaults
stand for both. A refactor that is meant to keep behaviour keeps these
digests; a change that moves them must say which trace columns moved. The
digests must not depend on the BLAS or OpenMP thread count.

tests/golden/trace/ holds the trace behind each digest. A mismatch reports
the first moved row and the moved columns against it (golden.py), and
scripts/repin_digests.py rewrites the digests and the golden traces together.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import divergence, sha256, trace_golden
from secure_isac.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SLOTS = 20

SCENARIOS = {
    "defaults": None,
    "beampattern_field": "beampattern_field.ini",
    "posterior_mobile": "posterior_mobile.ini",
    "posterior_static": "posterior_static.ini",
}

DIGESTS = {
    ("defaults", "baseline"):
        "2f3c41e0a555a586e4aa25e383fe858fc1b2513de11e22daf76c244cffa5d477",
    ("defaults", "fixed_an"):
        "e47910772fae6280c7d0fb031e8b42789242cf5041995509f8250820652b24cb",
    ("defaults", "stackelberg_only"):
        "a0a3e1e997445953f86a1ef9679db5f2b2c3536960abe9686cd5a90e4a71f4b3",
    ("defaults", "stackelberg_roleswitch"):
        "ec00eaaf53c526289fa57635763e0a5b249c8631a25d5c4d15acb20c9eb3125a",
    ("defaults", "ibeams"):
        "515a9eccaf211a1572a0ff518dc4769286e0dd3a5d91a0f6cf0d9ac0e7f1cc3c",
    ("beampattern_field", "baseline"):
        "13bc8a4e897edba756fe5bad267a4174d5c8fd71c673556d7d4d1ddedbb68460",
    ("beampattern_field", "fixed_an"):
        "39b792c820e12a32ac4bc79622675ecf05f3c7f471affad6c5b6428df5d4bc44",
    ("beampattern_field", "stackelberg_only"):
        "edb4065e1e624b8dd742b9ba88aeb687c528a024c0b547a3ac84dd0df4258c51",
    ("beampattern_field", "stackelberg_roleswitch"):
        "1f24c2de6fdb7f0e02671715e2f0d2dd37a75355a745d8ddb410abb2fd224496",
    ("beampattern_field", "ibeams"):
        "c595290c71cf46f78d46e755d4a1e7cd16516351e11309cf70cf5f12dd7bc13d",
    ("posterior_mobile", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_mobile", "fixed_an"):
        "89920bd7ac385055c1f0bbf044e20878190d49e88cec28dd298184998cd44256",
    ("posterior_mobile", "stackelberg_only"):
        "880ba010ec0e797349241cae1d8a0da35653c39339cb903a2f1caffb9708d749",
    ("posterior_mobile", "stackelberg_roleswitch"):
        "1ffcfed87831de7d608575b8522a120333ff725aeecc9f070acf5138f572eb66",
    ("posterior_mobile", "ibeams"):
        "939604eb6afcf9b684cb9ffdae2e15b884661042f0676795230690af1e30774f",
    ("posterior_static", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_static", "fixed_an"):
        "0ad21d520e3a03a7f4bfc25922392509f358b261923b00caa2a14093a539eed0",
    ("posterior_static", "stackelberg_only"):
        "f3f09a658626de3b754302abe9811a528c16097282ce59868073a5420b1bea34",
    ("posterior_static", "stackelberg_roleswitch"):
        "bd0ec0ecc80f15513657243caffbb49366fb2e28f65a74ff5d7560c25a03d23d",
    ("posterior_static", "ibeams"):
        "29a91d357397bdf995b991714b427d9fbcdfe617b000669dde7dd5d7a7d2e5ee",
}


def trace_bytes(scenario: str, strategy: str, out_dir: Path) -> bytes:
    """The trace CSV of one strategy on one scenario."""
    args = ["--strategy", strategy, "--slots", str(SLOTS), "--replications", "1",
            "--emit", "trace", "--out", str(out_dir)]
    if SCENARIOS[scenario]:
        args += ["--config", str(CONFIGS / SCENARIOS[scenario])]
    if main(args) != 0:
        raise RuntimeError(f"{scenario}/{strategy} exited nonzero")
    return (out_dir / f"trace_{strategy}.csv").read_bytes()


def trace_digest(scenario: str, strategy: str, out_dir: Path) -> str:
    """SHA-256 of the trace CSV of one strategy on one scenario."""
    return sha256(trace_bytes(scenario, strategy, out_dir))


@pytest.mark.parametrize("scenario,strategy", sorted(DIGESTS))
def test_trace_digest(scenario, strategy, tmp_path):
    data = trace_bytes(scenario, strategy, tmp_path)
    assert sha256(data) == DIGESTS[scenario, strategy], divergence(
        trace_golden(scenario, strategy).read_bytes(), data).describe()


@pytest.mark.parametrize("scenario,strategy", sorted(DIGESTS))
def test_golden_trace_hashes_to_its_digest(scenario, strategy):
    assert sha256(trace_golden(scenario, strategy).read_bytes()) == DIGESTS[scenario, strategy]


# Runs every case in one fresh interpreter, so the thread variables are read
# before numpy loads its BLAS.
_ALL_DIGESTS = """
import json, sys
from pathlib import Path
from test_trace_digests import DIGESTS, trace_digest
out = Path(sys.argv[1])
print(json.dumps({f"{sc}/{st}": trace_digest(sc, st, out) for sc, st in sorted(DIGESTS)}))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_digests_independent_of_thread_count(threads, tmp_path):
    path = (str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, "-c", _ALL_DIGESTS, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got == {f"{sc}/{st}": digest for (sc, st), digest in DIGESTS.items()}


def test_divergence_names_first_row_moved_columns_and_decision_flags():
    golden = trace_golden("defaults", "ibeams").read_bytes()
    assert divergence(golden, golden).identical
    lines = golden.decode().splitlines(keepends=True)
    cells = lines[5].split(",")               # data row 4, slot 4
    cells[9] = repr(float(cells[9]) * (1 + 1e-9))       # r_min
    cells[17] = str(int(cells[17]) + 1)                 # n_thn
    lines[5] = ",".join(cells)
    report = divergence(golden, "".join(lines).encode())
    assert (report.first_row, report.first_label) == (4, "4")
    assert list(report.moved) == ["r_min", "n_thn"]
    assert 0.5e-9 < report.moved["r_min"] < 2e-9
    assert report.integer_moved == ["n_thn"]
    assert "outage: held" in report.describe()
    assert "role counts: n_thn" in report.describe()
