"""Page faults and system time per request of a benchmark workload.

    python3 tools/fault_probe.py --workload selectivity --seed 1 --requests 400 [--src DIR]

Runs the first `--requests` requests of one `perfbench/workloads.py`
workload in this process, after its warm-up, and reads
`resource.getrusage(RUSAGE_SELF)` before and after each one. Prints one
JSON object: the mean, median and quartiles per request of minor page faults
(`minflt`), system time (`sys_ms`), user time (`user_ms`) and wall time
(`wall_ms`), with the Python, numpy and scipy versions and the CPU count.

`--src` names the `src/` directory to import aquawake from (default: this
checkout's), so one copy of the probe and the workloads measures two trees
alike. The benchmark itself reports no fault metric; this probe is
separate from it and changes nothing in the process but its own work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    return {name: round(v, 4) for name, v in zip(("mean", "p25", "p50", "p75"), (mean, q1, q2, q3))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="selectivity")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.requests < 4:
        parser.error("--requests must be at least 4")

    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy
    import scipy

    import aquawake
    import workloads

    if Path(aquawake.__file__).resolve().parent != src / "aquawake":
        raise SystemExit(f"error: imported aquawake from {aquawake.__file__}, not {src}")

    per_request: dict[str, list[float]] = {"minflt": [], "sys_ms": [], "user_ms": [], "wall_ms": []}
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        requests = wl.requests[: args.requests]
        with redirect_stdout(None):
            for req in wl.warmup:
                wl.call(req)
            for req in requests:
                r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
                out = wl.call(req)
                t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
                failed += not wl.check(req, out)
                per_request["minflt"].append(r1.ru_minflt - r0.ru_minflt)
                per_request["sys_ms"].append(1e3 * (r1.ru_stime - r0.ru_stime))
                per_request["user_ms"].append(1e3 * (r1.ru_utime - r0.ru_utime))
                per_request["wall_ms"].append(1e3 * (t1 - t0))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(requests),
        "failed": failed,
        "src": str(src),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
        },
        **{name: summary(values) for name, values in per_request.items()},
    }
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
