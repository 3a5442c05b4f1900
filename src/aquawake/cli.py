"""Command-line front end.

    aquawake run <scenario.yaml> [--seed N] [--out DIR]
    aquawake sweep <scenario.yaml> --param NAME --values V1,V2,... [--trials N] [--out DIR]
    aquawake preset-path <name>

Exit codes: 0 success, 1 usage error, 2 scenario/validation error (an
unreadable scenario path and an unusable output directory among them), 3 a
run broke an engine invariant (energy ledger or wake/UUID check). Output
CSVs carry a schema_version column and are written atomically, so a failed
run never leaves truncated files behind. AQUAWAKE_OUT_DIR sets the default
output directory.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError, InvariantError
from .scenario_io import load_scenario
from .sim import SWEEPABLE_PARAMETERS, Scenario, ScenarioResult, run_scenario, sweep

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "AQUAWAKE_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI reserves 2 for validation
    def error(self, message: str):
        raise _UsageError(message)


# CSV headers. Each column holds the ScenarioResult field or sweep row key
# of the same name, less a unit suffix (_s seconds, _v volts, _j joules).
RESULT_COLUMNS = (
    "seed", "woke", "decoded_uuid", "time_to_wake_s", "peak_v_cap_v",
    "harvested_energy_j", "consumed_energy_j",
    "rail_up_time_s", "first_sync_time_s", "decision_time_s",
)
SWEEP_COLUMNS = (
    "row_type", "parameter", "value", "trial", "seed",
    "woke", "decoded_uuid", "time_to_wake_s", "peak_v_cap_v",
    "harvested_energy_j", "consumed_energy_j",
    "trials", "wake_success_rate", "mean_peak_v_cap_v", "mean_time_to_wake_s",
)
_UNIT_SUFFIX = re.compile(r"_[svj]$")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # normalizes numpy scalars too
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """Write rows under a leading schema_version column, atomically."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", *header])
        for row in rows:
            writer.writerow([SCHEMA_VERSION, *map(_fmt, row)])
    os.replace(tmp, path)


def _write_records(path: Path, columns: tuple[str, ...], records: list[dict]) -> None:
    """Write one row per record; a column the record lacks stays empty."""
    keys = [_UNIT_SUFFIX.sub("", c) for c in columns]
    _write_csv(path, columns, ([rec.get(k) for k in keys] for rec in records))


@contextmanager
def _out_dir(arg: str | None):
    """The output directory, created; a file-system error in the block names it."""
    out = Path(arg or os.environ.get(OUT_DIR_ENV, "aquawake-out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write to output directory {out} ({exc.strerror or exc})"
        ) from exc


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled scenario preset."""
    presets = Path(__file__).with_name("presets")
    path = presets / f"{name}.scenario"
    if not path.exists():
        available = ", ".join(sorted(p.stem for p in presets.glob("*.scenario")))
        raise ConfigurationError(f"unknown preset {name!r}; available: {available}")
    return path


def _write_run_outputs(result: ScenarioResult, out: Path) -> None:
    _write_records(out / "result.csv", RESULT_COLUMNS, [vars(result)])
    _write_csv(
        out / "vcap_trace.csv",
        ("time_s", "v_cap_v", "mode"),
        zip(result.vcap_times, result.vcap_values, result.mode_values),
    )
    _write_csv(
        out / "comparator_edges.csv",
        ("time_s", "level"),
        zip(result.edge_trace.edge_times, map(bool, result.edge_trace.edge_levels)),
    )


def _load(args) -> Scenario:
    """The scenario file named on the command line, with --seed applied."""
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, sim=replace(scenario.sim, seed=args.seed))
    return scenario


def _cmd_run(args) -> int:
    result = run_scenario(_load(args))
    with _out_dir(args.out) as out:
        _write_run_outputs(result, out)
    ttw = "none" if result.time_to_wake is None else f"{result.time_to_wake:.6f}s"
    print(f"woke={result.woke} time_to_wake={ttw} peak_v_cap={result.peak_v_cap:.4f}V")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"--values must be a comma-separated number list: {exc}") from exc
    result = sweep(scenario, args.param, values, trials=args.trials)
    records = [{"row_type": "trial", **r} for r in result.rows]
    records += [{"row_type": "aggregate", **a} for a in result.aggregates]
    with _out_dir(args.out) as out:
        _write_records(out / "sweep.csv", SWEEP_COLUMNS, records)
    for a in result.aggregates:
        print(
            f"{args.param}={a['value']}: wake_success_rate="
            f"{a['wake_success_rate']:.2f} over {a['trials']} trials"
        )
    return EXIT_OK


def _cmd_preset_path(args) -> int:
    print(preset_path(args.name))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="aquawake", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario", help="scenario YAML path")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help=f"output dir (default ${OUT_DIR_ENV} or ./aquawake-out)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep with seeded trials")
    p_sweep.add_argument("scenario", help="base scenario YAML path")
    p_sweep.add_argument("--param", required=True, help=f"one of: {', '.join(SWEEPABLE_PARAMETERS)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--trials", type=int, default=1, help="seeded trials per value")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--out", default=None, help=f"output dir (default ${OUT_DIR_ENV} or ./aquawake-out)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset-path", help="print the path of a bundled preset")
    p_preset.add_argument("name", help="preset name, e.g. paper_fig5")
    p_preset.set_defaults(func=_cmd_preset_path)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ConfigurationError and SchemaError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
