"""aquawake benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: presets_cli, selectivity, fine_tick (see perfbench/README.md).
A request is sent only after the previous one returns. Inputs come from
--seed alone; the program is imported from the checkout's `src/`.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates an untraced and a traced pass over a fixed request list and
reports the per-layer metrics, the tracing overhead, and how much of the
traced request time the layer self times account for. Every request is
checked against an oracle; the last stdout line is one JSON object with
keys correct, attempted, failed and metrics. All times are host time; the
end-to-end timings are scaled to a reference speed (see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"  # CLI outputs, spans and reports; ignored by git

WORKLOAD_NAMES = ("presets_cli", "selectivity", "fine_tick")
# The layer self times must sum to the traced request time within this share.
ACCOUNTED_SHARE = 0.02
RATE_CHUNKS = 10  # runs_per_s and sim_x_realtime are medians over this many slices


@dataclass
class Plan:
    """How much work one run does beyond its timed window."""

    setup_probes: int  # set-up is timed in this many fresh processes; the median is reported
    min_samples: int  # timed requests at least; 100 puts ten latencies beyond the p90
    max_requests: int  # caps the workload's digest and traced request lists


FULL = Plan(setup_probes=5, min_samples=100, max_requests=sys.maxsize)
SMOKE = Plan(setup_probes=1, min_samples=3, max_requests=2)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def import_workloads():
    """Import the workloads, and with them the program from this checkout."""
    if not (SRC / "aquawake" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aquawake
    import workloads

    if Path(aquawake.__file__).resolve().parent != SRC / "aquawake":
        raise SystemExit(f"error: imported aquawake from {aquawake.__file__}, not {SRC}")
    return workloads


def execute(wl, req, tally: Tally):
    """Send one request; return (latency in s, output, passed), latency None if it raised."""
    tally.attempted += 1
    try:
        with redirect_stdout(None):  # print() is a no-op while sys.stdout is None
            t0 = time.perf_counter()
            out = wl.call(req)
            latency = time.perf_counter() - t0
        ok = wl.check(req, out)
    except Exception:
        tally.fail(f"request {req!r:.80} raised:\n{traceback.format_exc(limit=3)}")
        return None, None, False
    if not ok:
        tally.fail(f"request {req!r:.80} failed its oracle")
    return latency, out, ok


def set_up(workload: str, seed: int, workdir: Path, tally: Tally):
    """Everything before the first timed request: import, inputs, warm-up."""
    workloads = import_workloads()
    wl = workloads.WORKLOADS[workload](seed, workdir)
    for req in wl.warmup:
        execute(wl, req, tally)
    return wl


def digest(wl, requests, tally: Tally) -> str:
    h = hashlib.sha256()
    for req in requests:
        _, out, _ = execute(wl, req, tally)
        h.update(b"raised" if out is None else wl.digest_bytes(req, out))
    return h.hexdigest()


def check_determinism(wl, seed: int, workdir: Path, n: int, tally: Tally) -> dict:
    """Same seed, same digest; another seed, another digest. A miss is a failure."""
    first = digest(wl, wl.requests[:n], tally)
    again = digest(wl, wl.requests[:n], tally)
    other_wl = type(wl)(seed + 1, workdir)
    other = digest(other_wl, other_wl.requests[:n], tally)
    tally.attempted += 2
    if again != first:
        tally.fail(f"digest changed on replay with the same seed: {first} then {again}")
    if other == first:
        tally.fail(f"seed {seed + 1} gave the same digest as seed {seed}")
    return {"digest": first, "digest_requests": n, "other_seed_digest": other}


def probe_setup(workload: str, seed: int, n: int) -> list[float]:
    """Time set-up in n fresh processes, from spawn to their 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
        times.append(elapsed)
    return times


def summarize(latencies: list[float], runs: list[int], sim_s: list[float]) -> dict:
    """Latency percentiles, and run and simulated-time rates as medians over slices."""
    n = len(latencies)
    m = min(RATE_CHUNKS, n)
    chunks = [slice(k * n // m, (k + 1) * n // m) for k in range(m)]
    busy = [sum(latencies[c]) for c in chunks]
    return {
        "call_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "call_ms_p90": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "runs_per_s": (statistics.median(sum(runs[c]) / b for c, b in zip(chunks, busy)), "1/s"),
        "sim_x_realtime": (statistics.median(sum(sim_s[c]) / b for c, b in zip(chunks, busy)), "x"),
    }


def measure_e2e(wl, seconds: float, plan: Plan, tally: Tally):
    """Closed loop for `seconds`; returns the end-to-end metrics and details.

    The metrics use host times scaled to the reference kernel's speed (see
    speed.py); the unscaled figures go to the details.
    """
    import speed

    host, scaled, runs, sim_s = [], [], [], []
    kernel = [speed.kernel_seconds()]  # one pass between every two requests
    i = 0
    deadline = time.perf_counter() + seconds
    while i < plan.min_samples or time.perf_counter() < deadline:
        req = wl.requests[i % len(wl.requests)]
        i += 1
        latency, _, _ = execute(wl, req, tally)
        kernel.append(speed.kernel_seconds())
        if latency is not None:
            host.append(latency)
            # the kernel passes just before and just after bracket the request
            scaled.append(latency * speed.REFERENCE_S / (0.5 * (kernel[-2] + kernel[-1])))
            runs.append(wl.runs(req))
            sim_s.append(wl.simulated_seconds(req))
    if len(host) < 2:
        raise RuntimeError(f"only {len(host)} requests completed")
    metrics = summarize(scaled, runs, sim_s)
    p90 = metrics["call_ms_p90"][0] / 1e3
    detail = {
        "samples": len(scaled),
        "beyond_p90": sum(x > p90 for x in scaled),
        "host_time": {k: v for k, (v, _) in summarize(host, runs, sim_s).items()},
        "kernel_ms_p50": 1e3 * statistics.median(kernel),
    }
    return metrics, detail


def measure_traced(wl, seconds: float, plan: Plan, tally: Tally, spans_path: Path):
    """Alternate untraced and traced passes over a fixed request list."""
    import tracing

    requests = wl.requests[: min(wl.trace_requests, plan.max_requests)]
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        for req in requests:
            latency, _, _ = execute(wl, req, tally)
            if latency is not None:
                plain.append(latency)
        with tracer:
            for req in requests:
                tracer.request += 1
                latency, _, _ = execute(wl, req, tally)
                if latency is None:
                    continue
                traced.append(latency)
                if hasattr(wl, "written"):
                    rows, size = wl.written(req)
                    tracer.counts["cli.rows_written"] += rows
                    tracer.counts["cli.bytes_written"] += size
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    accounted = tracer.self_seconds() / sum(traced)
    metrics["trace.overhead_ms"] = (1e3 * (statistics.fmean(traced) - statistics.fmean(plain)), "ms")
    metrics["trace.accounted_frac"] = (accounted, "ratio")
    tally.attempted += 1
    if abs(accounted - 1.0) > ACCOUNTED_SHARE:
        tally.fail(f"layer self times cover {accounted:.4f} of the traced request time")
    detail = {
        "passes": passes, "requests_per_pass": len(requests),
        "untraced_ms_mean": 1e3 * statistics.fmean(plain),
        "traced_ms_mean": 1e3 * statistics.fmean(traced),
        "accounted_share": ACCOUNTED_SHARE, "spans": str(spans_path.relative_to(HERE.parent)),
    }
    return metrics, detail


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the report (result fields plus env and detail)."""
    plan = SMOKE if smoke else FULL
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tally = Tally()
    try:
        wl = set_up(workload, seed, workdir, tally)
        if trace:
            spans = OUT / f"spans-{workload}.csv"
            metrics, detail = measure_traced(wl, seconds, plan, tally, spans)
        else:
            metrics, detail = measure_e2e(wl, seconds, plan, tally)
        n_digest = min(wl.digest_requests, plan.max_requests)
        detail.update(check_determinism(wl, seed, workdir, n_digest, tally))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        probes = probe_setup(workload, seed, plan.setup_probes)
        detail["setup_probes_s"] = probes
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            **metrics,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detail["failed_frac"] = tally.failed / tally.attempted
    detail["errors"] = tally.errors
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(workload, seed),
        "detail": detail,
    }


def print_report(report: dict) -> None:
    env, detail = report["env"], report["detail"]
    print("env " + json.dumps(env))
    for name, m in report["metrics"].items():
        note = ""
        if name == "call_ms_p90":
            note = f"  (n={detail['samples']}, {detail['beyond_p90']} beyond)"
        if name in detail.get("host_time", {}):
            note += f"  [unscaled host time: {detail['host_time'][name]:.6g}]"
        elif name == "setup_s":
            note = f"  (median of {len(detail['setup_probes_s'])} fresh processes)"
        print(f"{name:<26} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{'failed_frac':<26} {detail['failed_frac']:>14.6g} ratio"
          f"  ({report['failed']}/{report['attempted']})")
    if "kernel_ms_p50" in detail:
        print(f"{'reference kernel':<26} {detail['kernel_ms_p50']:>14.6g} ms  (median host time; "
              f"timings above are scaled to 1 ms)")
    print(f"digest sha256 {detail['digest']} over {detail['digest_requests']} requests")
    for err in detail["errors"]:
        print(err, file=sys.stderr)
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few requests, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"probe-{args.workload}-", dir=OUT))
        try:
            set_up(args.workload, args.seed, workdir, Tally())
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    seconds = min(args.seconds, 0.2) if args.smoke else args.seconds
    report = run_benchmark(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    name = f"report-{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
