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
        "66387ddb74b4096cd152639e5c3247af2e7f9aa7852bdaa80c7d4680500715c9",
    ("defaults", "stackelberg_only"):
        "a21229f3cf798363864f4d186d3e1a209d2f3cac8e4d2cb72f7ec8998c90c36e",
    ("defaults", "stackelberg_roleswitch"):
        "aae8bcd5174f89d09a6d4c2809cef198443c6e35992e0747108272bd22e3ead2",
    ("defaults", "ibeams"):
        "1031d1a9222b450748a40aa227bfbc25036aca6904871fb28ddec1b5cdda5920",
    ("beampattern_field", "baseline"):
        "13bc8a4e897edba756fe5bad267a4174d5c8fd71c673556d7d4d1ddedbb68460",
    ("beampattern_field", "fixed_an"):
        "c13b48bceb90b33897d9c18325b39521983b01c829f317e10717691c40d1fbef",
    ("beampattern_field", "stackelberg_only"):
        "e09f847d1fcdcfb27ac3ff28dc31976b62c636f920b7d604405bedd6527d1e69",
    ("beampattern_field", "stackelberg_roleswitch"):
        "cd69b7052a6db5afda7ef003e12d05e33e20969219aeb8dfbdb261a4e06bcd7e",
    ("beampattern_field", "ibeams"):
        "96d5fa8e693ad402163f445b462c5a3123475fb40f836f288fc51983d7d60a6c",
    ("posterior_mobile", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_mobile", "fixed_an"):
        "139ca8dd2c62875fbba2d1d14f97f970f3986a4affd70661fa38ef70d8a8440f",
    ("posterior_mobile", "stackelberg_only"):
        "257ab0927fdc49a39afefa0b696597cba5d4a65803df84a5f386611648f6581d",
    ("posterior_mobile", "stackelberg_roleswitch"):
        "27264fc280035c99d1a3b7e087438e2f9b3aa82ca38042cf268a0d928bfde968",
    ("posterior_mobile", "ibeams"):
        "7f728a5117d6f0fdc6c021f96f5257b023776697d949709580c57a6a0bf7deb1",
    ("posterior_static", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_static", "fixed_an"):
        "384994b5d08b66d1d4527c6f524045a074f5b0aff67e4ec3a560414b99d8d5ba",
    ("posterior_static", "stackelberg_only"):
        "144685b52f7ffa96f1cc7bed0855f769fc3d6e1d34ff2cde7968f98d781d8f9c",
    ("posterior_static", "stackelberg_roleswitch"):
        "67c22cc3eb6acc7d40cc60864b6c7387d46aaac553d56ad8fedbf55b0f187a73",
    ("posterior_static", "ibeams"):
        "2280b73b3a752b8a6aa75639b6215e899516f7fe4d35b14573322635e076fb3c",
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
