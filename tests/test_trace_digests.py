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
        "f7b6c6ed21f926ac3066e36574190bed7d193555ea2aa4731189e3c7023ad955",
    ("defaults", "stackelberg_roleswitch"):
        "818f6f70729ee78d4050e0c6c7ed332299935e373d57fa99669e46aa9ab510e0",
    ("defaults", "ibeams"):
        "6e63fec0f8f8da93f925b2ffb4c7797b994d08baea0d8ee63e463567dee94966",
    ("beampattern_field", "baseline"):
        "13bc8a4e897edba756fe5bad267a4174d5c8fd71c673556d7d4d1ddedbb68460",
    ("beampattern_field", "fixed_an"):
        "39b792c820e12a32ac4bc79622675ecf05f3c7f471affad6c5b6428df5d4bc44",
    ("beampattern_field", "stackelberg_only"):
        "c5511c4bc6c682aa6af2450281d928002d3c87c7456ec628b94b9867e9edf109",
    ("beampattern_field", "stackelberg_roleswitch"):
        "29e2e8628d18a586e92d80821345f3bbf2a3aba6b5ce00fff21b7cb001f8b695",
    ("beampattern_field", "ibeams"):
        "5990d8589f7d8dfae323aa6a673f471b6ea3c3d1753813d89956f2aeab73b243",
    ("posterior_mobile", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_mobile", "fixed_an"):
        "89920bd7ac385055c1f0bbf044e20878190d49e88cec28dd298184998cd44256",
    ("posterior_mobile", "stackelberg_only"):
        "92d20cc8a53e68a9d3d20f183907f454c086384eb67ded7888dcc29fe4604a98",
    ("posterior_mobile", "stackelberg_roleswitch"):
        "24baed20fa3760f08dbec4815b131524bafdb33e101e2613f650ebef7bcc1165",
    ("posterior_mobile", "ibeams"):
        "9cc96894c5948a591e2420e825d1caf1dc396fe6801a1d641c6eb4c1e2ec1108",
    ("posterior_static", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_static", "fixed_an"):
        "0ad21d520e3a03a7f4bfc25922392509f358b261923b00caa2a14093a539eed0",
    ("posterior_static", "stackelberg_only"):
        "68fd69fe3493c38f3ef61841a9894905a1344935fa8ee3a0c0f16751834785f4",
    ("posterior_static", "stackelberg_roleswitch"):
        "aec9519422eac6af2c3f6c8571bf1297f5c5b7dd5f526a2272e71c17dae7f1bd",
    ("posterior_static", "ibeams"):
        "31f34ffd6876a76020b59ab491406aba604cef694c06a010f4f72ad23175cae5",
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
