"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

They use smoke mode (a few requests, one set-up probe) so the whole file
runs in well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads_this_script_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_named_metric_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[trace]]
    for spec in SPEC[trace]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [spec["name"]]]
        assert len(printed) == 1 and printed[0][2] == spec["unit"], spec["name"]
    assert any(ln.startswith("failed_frac ") for ln in lines)
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert {"python", "numpy", "scipy", "nproc", "cpu_model", "seed"} <= set(env)


def test_wrong_oracle_is_counted_in_failed_frac(monkeypatch):
    workloads = run.import_workloads()
    right = workloads.PresetsCli.check
    flipped = []

    def wrong_for_echo(self, req, out):
        ok = right(self, req, out)
        if req[0] == "paper_echo":
            flipped.append(req)
            return not ok
        return ok

    monkeypatch.setattr(workloads.PresetsCli, "check", wrong_for_echo)
    report = run.run_benchmark("presets_cli", 5, 0.2, trace=True, smoke=True)
    assert flipped
    assert report["failed"] == len(flipped) and not report["correct"]
    assert report["detail"]["failed_frac"] == len(flipped) / report["attempted"]


def test_a_raising_request_is_counted_in_failed_frac(monkeypatch):
    workloads = run.import_workloads()

    def boom(self, req):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.Selectivity, "call", boom)
    with pytest.raises(RuntimeError, match="completed no run_scenario"):
        run.run_benchmark("selectivity", 5, 0.2, trace=True, smoke=True)
    tally = run.Tally()
    wl = workloads.Selectivity(5, HERE)
    assert run.execute(wl, wl.requests[0], tally) == (None, None, False)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_digest_and_counts_repeat_per_seed_and_follow_the_seed():
    first = run.run_benchmark("presets_cli", 11, 0.2, trace=True, smoke=True)
    again = run.run_benchmark("presets_cli", 11, 0.2, trace=True, smoke=True)
    other = run.run_benchmark("presets_cli", 12, 0.2, trace=True, smoke=True)
    assert first["correct"] and again["correct"] and other["correct"]
    assert first["detail"]["digest"] == again["detail"]["digest"]
    assert first["detail"]["digest"] != other["detail"]["digest"]
    for name in ("power.ticks", "decoder.feeds", "frontend.edges", "cli.rows_written"):
        assert first["metrics"][name] == again["metrics"][name]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = smoke("selectivity", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
