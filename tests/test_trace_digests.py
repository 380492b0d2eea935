"""Golden SHA-256 digests of short trace files.

Every strategy runs for 20 slots on each distinct shipped scenario, and the
trace CSV must match its pinned digest byte for byte. compare_28ghz.ini and
convergence_28ghz.ini run the program defaults (seed 1), so the defaults
stand for both. A refactor that is meant to keep behaviour keeps these
digests; a change that moves them must say which trace columns moved.
"""

import hashlib
from pathlib import Path

import pytest

from secure_isac.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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
        "3ab852dfe084b1b0183281ba30b4f095faf4a26b6dd435c2f0b7554b708d963a",
    ("defaults", "stackelberg_only"):
        "883ef5aaf7fc92a8555ba10726bfdf84d77e19390a8821ea5e6a386728e01635",
    ("defaults", "stackelberg_roleswitch"):
        "1447b4f7396f94132f8d06e947e2b9d9b66d09fca8847363d10a1be7b04d85b4",
    ("defaults", "ibeams"):
        "9f7dce88ef00dbb68cc0ea4ee5ef2fec4dbf3bcc7da7cab526b611fb51b32372",
    ("beampattern_field", "baseline"):
        "13bc8a4e897edba756fe5bad267a4174d5c8fd71c673556d7d4d1ddedbb68460",
    ("beampattern_field", "fixed_an"):
        "6e309aeaddd46ad4fbced632725bc29df27c70705250593c3cc6c7bb9a7de328",
    ("beampattern_field", "stackelberg_only"):
        "26a26105f0ee2c7e66613cd8d5d35ec51f7c3845c182887edc49264b162832fa",
    ("beampattern_field", "stackelberg_roleswitch"):
        "0927e96347f039a756b232cc0b086cff2d60dd5ed61e8de7c07b28d619de7d07",
    ("beampattern_field", "ibeams"):
        "bb462c9074ed90386b4071ef4307abc8f3389e608f9b4f92c5cb416b77a7b2e2",
    ("posterior_mobile", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_mobile", "fixed_an"):
        "bd2bbf09da4bdc49335fa8f79819666a06c835dda2aeffbe46a0ff72ff01bd81",
    ("posterior_mobile", "stackelberg_only"):
        "d612df3f44bd835b4abd961e497c32b985087d2312389370766ce70fa22e0f90",
    ("posterior_mobile", "stackelberg_roleswitch"):
        "0e408c73b286ca5797f5d7728aae50ab723b973b7ff3a12e23cea779e7216447",
    ("posterior_mobile", "ibeams"):
        "282642e30b1143be36155d13f601a559f227f60e3463b233503b94fd16f7cb80",
    ("posterior_static", "baseline"):
        "77fd45e58cf3f86a2653570daf7bec9ad03190be36321c93819b7129745004b5",
    ("posterior_static", "fixed_an"):
        "febb395eb95d64539b8d129d2bfd5770ba002d1c208f703e7046fa60ddfbb9b9",
    ("posterior_static", "stackelberg_only"):
        "35a32a3048b31003bbfbc2ad2d8e30ddb8157c3a57df06bce422f2b5a628520a",
    ("posterior_static", "stackelberg_roleswitch"):
        "8dccd61aa2b33607c5e1019f7b0bca497c757456b3d560c79add4fc2c64457fd",
    ("posterior_static", "ibeams"):
        "7a3f7b07ea7a690f48f617e1a37a40db701c02871243742f8c51a9c7db2b03e3",
}


@pytest.mark.parametrize("scenario,strategy", sorted(DIGESTS))
def test_trace_digest(scenario, strategy, tmp_path):
    args = ["--strategy", strategy, "--slots", str(SLOTS), "--replications", "1",
            "--emit", "trace", "--out", str(tmp_path)]
    if SCENARIOS[scenario]:
        args += ["--config", str(CONFIGS / SCENARIOS[scenario])]
    assert main(args) == 0
    data = (tmp_path / f"trace_{strategy}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[scenario, strategy]
