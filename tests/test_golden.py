"""Byte-level goldens for the CLI outputs.

Refactors must leave these files bit-identical for a fixed scenario and seed.
A change that alters numbers on purpose updates a digest here by hand and
states why in its own change; there is deliberately no regenerate switch.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest
from scipy import signal

from aquawake import frontend
from aquawake.cli import main, preset_path

RUN_DIGESTS = {
    "paper_fig5": {
        "result.csv": "47b7a099d10afb9391067ab1fe3770e95e6f8059f98dcfcebac458e4b9869d86",
        "vcap_trace.csv": "fe9fc5e003a7873594a222ffac7e5beca9d8da9e6897cbc2e0a978ffb3f62a62",
        "comparator_edges.csv": "f997921ae059a1bfdb1d2ad69c42d840569db9b0aa3b9389fe42ccec8ea6c982",
    },
    "paper_echo": {
        "result.csv": "e99d220727580a7c975123fb5570e5bdf6b700033e485c3c9a2f629c372c255d",
        "vcap_trace.csv": "c467f3af00c33caefe1ccfed822658f8eb2fe2afbf10935dcf7c7cc15f9189a7",
        "comparator_edges.csv": "76ec8408b71d724edb48a2b8c57f8c9860f62ee00baf7b6c5b618a0e85061e96",
    },
    "paper_critical_distance": {
        "result.csv": "c9b6753f61cd6ad6aeff37d727f3b3d5ad7a4c047fbb6117a05b8c6f9a566d41",
        "vcap_trace.csv": "540bd5bf9c963df87f14b84e5560cbd0db642949ae7b3b228843b0340a82f3d8",
        "comparator_edges.csv": "a3d8920f736c7d066671e2834978c9c67e4d4ab2db0753de890a930e01283b20",
    },
}

# paper_echo carries channel noise, so this also pins the per-trial seeding
NOISY_SWEEP_DIGEST = "4d4162d67cd082992681018488c0e08b74c0bec94d84571aa4c99f317fcbe761"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_main(*argv: str) -> int:
    with redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert quiet_main("run", str(preset_path(name)), "--out", str(tmp_path)) == 0
    assert {f: sha256(tmp_path / f) for f in RUN_DIGESTS[name]} == RUN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_outputs_match_golden_digests_through_the_public_lfilter(name, tmp_path, monkeypatch):
    # the route frontend takes when scipy's private kernel cannot be loaded
    monkeypatch.setattr(frontend, "_linear_filter", signal.lfilter)
    assert quiet_main("run", str(preset_path(name)), "--out", str(tmp_path)) == 0
    assert {f: sha256(tmp_path / f) for f in RUN_DIGESTS[name]} == RUN_DIGESTS[name]


def test_noisy_sweep_matches_golden_digest(tmp_path):
    code = quiet_main(
        "sweep", str(preset_path("paper_echo")),
        "--param", "noise_rms", "--values", "0.1,0.3", "--trials", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert sha256(tmp_path / "sweep.csv") == NOISY_SWEEP_DIGEST
