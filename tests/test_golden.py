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
        "result.csv": "d806fa849fd07d8444118580ec123f9b7f24e9bdb321a3d77d81d8ae977d4fbc",
        "vcap_trace.csv": "938ea33f7fbf65bab0b27f2e8202da1ed15cbab941d59c25e5e5497292312774",
        "comparator_edges.csv": "f997921ae059a1bfdb1d2ad69c42d840569db9b0aa3b9389fe42ccec8ea6c982",
    },
    "paper_echo": {
        "result.csv": "d4146255c62f4775e0a2cf89724e85f26eb6734247b7425a3db94900bf3bb07c",
        "vcap_trace.csv": "8ffed07ffefc9c4f2601c738d470ce774ceab364f7165964f755848f77d84407",
        "comparator_edges.csv": "76ec8408b71d724edb48a2b8c57f8c9860f62ee00baf7b6c5b618a0e85061e96",
    },
    "paper_critical_distance": {
        "result.csv": "6c052d7d0a716e7bada6de1f35db52bed9ccb8efa011d901a7bbbe798002dcb3",
        "vcap_trace.csv": "685ae0048572d8a5a21a8ea9409b57072955e8eadc6edd1129f40ef0d0a7f086",
        "comparator_edges.csv": "a3d8920f736c7d066671e2834978c9c67e4d4ab2db0753de890a930e01283b20",
    },
}

# paper_echo carries channel noise, so this also pins the per-trial seeding
NOISY_SWEEP_DIGEST = "41056ed44a75c931e7baab644c9e0d51685e09b302a3f250c9247182bb4bb5c8"


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
