"""Golden SHA-256 digests of short trace files.

Every strategy runs for 20 slots on each distinct shipped scenario, and the
trace CSV must match its pinned digest byte for byte. compare_28ghz.ini and
convergence_28ghz.ini run the program defaults (seed 1), so the defaults
stand for both. A refactor that is meant to keep behaviour keeps these
digests; a change that moves them must say which trace columns moved. The
digests must not depend on the BLAS or OpenMP thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "926fcb31278af37cedb2384256450f7ec0428457a7cd9eeabeba113ea3ade321",
    ("defaults", "stackelberg_only"):
        "13804243aafdf09e1fa9b1b9c7063d8fc92c9989db927661c4b976bc4066bac1",
    ("defaults", "stackelberg_roleswitch"):
        "7f38cc405c9db168b91900a61874f7d340ce7cdb2ac0327e38b5f4eb08284820",
    ("defaults", "ibeams"):
        "be004eab48898ef948a40852ba16db0b5dc53ef65ebab5c922192a8ad876b404",
    ("beampattern_field", "baseline"):
        "13bc8a4e897edba756fe5bad267a4174d5c8fd71c673556d7d4d1ddedbb68460",
    ("beampattern_field", "fixed_an"):
        "ddf4ae8b008a01c6c96c85acc015e2c3615c4fb07aca04432bf5b56a88df977a",
    ("beampattern_field", "stackelberg_only"):
        "c0833a60a25a845da92df9a3829e70a7c2266e0610a9b1646296c26ce6f982d6",
    ("beampattern_field", "stackelberg_roleswitch"):
        "707e614680959212d4e743f5e465a834af592cd7f99586813e66e4f16384ce59",
    ("beampattern_field", "ibeams"):
        "42d908b860b744b4e3249ad1f43e2ce628f2f111cb414908015ad3b907da2e3d",
    ("posterior_mobile", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_mobile", "fixed_an"):
        "f04173d688a36b88dab74a841cc5dbf9419973fc4b19dc72b2fa0c8b2a8e2b94",
    ("posterior_mobile", "stackelberg_only"):
        "311220701fd5850fdec895b0e3c4dfada7755c59af590e9f736b573464a2f3ac",
    ("posterior_mobile", "stackelberg_roleswitch"):
        "8411df5efa1a84f1e5683a9ec27d79a5d256b7904915407335f25a1a8b9b1392",
    ("posterior_mobile", "ibeams"):
        "0c0fbdeec71894cf690c5524a70dffb5a80f85df695e633ff4a9358886106b5e",
    ("posterior_static", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_static", "fixed_an"):
        "b34379f05e7f94d410ba36721a1c757cf12715ed8a2a54159607224a33f840cb",
    ("posterior_static", "stackelberg_only"):
        "72d1411a44103c71acb289c428536953def96d9208b16537f6273abbd2a6763d",
    ("posterior_static", "stackelberg_roleswitch"):
        "6bde93969eaf5b3e67876b0fb08aaeaea1bbb9fa8433338da6634aa9c60d5537",
    ("posterior_static", "ibeams"):
        "4b9786f5135b8a9580c5be71bfcc96a909497afb6067be495443dd65a1e290c2",
}


def trace_digest(scenario: str, strategy: str, out_dir: Path) -> str:
    """SHA-256 of the trace CSV of one strategy on one scenario."""
    args = ["--strategy", strategy, "--slots", str(SLOTS), "--replications", "1",
            "--emit", "trace", "--out", str(out_dir)]
    if SCENARIOS[scenario]:
        args += ["--config", str(CONFIGS / SCENARIOS[scenario])]
    if main(args) != 0:
        raise RuntimeError(f"{scenario}/{strategy} exited nonzero")
    data = (out_dir / f"trace_{strategy}.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scenario,strategy", sorted(DIGESTS))
def test_trace_digest(scenario, strategy, tmp_path):
    assert trace_digest(scenario, strategy, tmp_path) == DIGESTS[scenario, strategy]


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
