"""Mutation check: each recorded mutant of the code must fail the tests named for it.

    python3 tools/mutants.py

Each entry of MUTANTS names a file of this checkout, an exact old text that
occurs once in it, the new text, and the pytest ids that must fail with the
edit in place. The tool copies the checkout to a temporary directory and
first runs every named id there unmutated: each must pass. Then, for each
mutant, it applies the edit, runs only that mutant's ids, and puts the file
back. It exits 1 if an anchor is missing or occurs more than once, if the
unmutated copy does not pass an id, or if an id passes with its mutant in
place (the mutant survives it); it exits 0 when every mutant is killed by
every id named for it.

A mutant that stops a loop from advancing hangs its run. So each mutant's
run is stopped after a limit derived from the unmutated run's own time (it
runs a subset of those ids), and a run stopped there counts as killed:
`killed (timeout)`. The unmutated run itself has UNMUTATED_LIMIT_S; one that
outlasts it exits 1.

No bytecode is written, so a file put back is never shadowed by a stale
cache of its mutant. hypothesis's pytest plugin is off, as a failing
property would otherwise make it print a patch, and so is its shrink phase
(see PYTEST_WITHOUT_SHRINKING). Standard library, pytest and the suite's
hypothesis only. When a refactor moves an anchor, re-anchor its entry; do
not delete it.

Ordering flips (`<` <-> `<=`, `>` <-> `>=`) that no test can kill, because
they move no output; a survey of flips need not try them again:
- `sim._tick_sums`' `windows.shape[1] == _PAIRWISE_UNROLL` was once `>`: at
  exactly 8 samples per tick the column tree and the reduce give the same
  bytes, so that flip was equivalent; the `==` no longer has it.
- `noise_rms > 0` -> `>= 0` in `sim._front_end` and in `channel.propagate`'s
  noise draw: a zero-rms draw adds +-0.0 to an output that is never -0.0.
- `side[starts + 1] > 0` -> `>= 0` in `frontend._latched_edges`: a run
  start's side is never 0.
- `index < UUID_BITS` -> `<=` in `DecoderState.next_sample_time`: the
  decoder decides at its 8th bit, so no sampling state holds 8 bits.
- `lo < hi` -> `<=` in `channel.propagate` and `frame.modulate_frame`: the
  extra case copies an empty range.
- `calibrate_tx_amplitude`'s three comparisons with the target peak: they
  differ on exact float ties only.
- `closing < self._floor` -> `<=` in `power.Harvester._advance`: a
  regulating tick that closes exactly at UVLO ends its span, the rail holds,
  and the next `run` goes on; only the count of `run` calls changes.
- `due < edge` -> `<=` in `sim._run_ticks`' `feed` (a sample due at an
  edge's time is fed before it): in the sampling phase, the only one with a
  sample due, an edge only moves `last_event_time` to its own time, so the
  two events give the same state in either order; and once the sample
  decides, the edge is never read.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED_AWAY = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out", "*.egg-info")
UNMUTATED_LIMIT_S = 300.0  # the unmutated run's limit, well inside CI's 15-minute job


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    ids: tuple[str, ...]  # pytest ids that must all fail with the edit in place


REFERENCE_DRAW = "tests/test_reference_engine.py::test_a_run_matches_the_reference_run"
PRESET_CASE = (
    "tests/test_reference_engine.py::test_a_preset_at_a_bit_rate_matches_the_reference_run"
    "[paper_fig5-200.0-preset]"
)
SAME_RUN_CHECK = (
    "tests/test_reference_engine.py::test_a_change_to_one_field_fails_the_same_run_check"
)
RUN_LATCH = "tests/test_frontend.py::test_edge_extraction_matches_the_per_sample_latch_on_runs"
FIRST_TICK = "tests/test_harvester_reference.py::test_a_span_that_ends_on_its_first_tick"
WINDOWS_LAST_TICK = (
    "tests/test_harvester_reference.py::test_a_span_that_ends_on_its_windows_last_tick"
)
FROZEN_RUN = "tests/test_sim.py::test_reference_run_reproduces_frozen_metrics"
BLOCK_RULE = (
    "tests/test_sim.py::test_a_run_splits_into_equal_blocks_of_at_most_one_and_a_half_block_samples"
)
TIE_CASES = tuple(
    f"tests/test_tick_loop_reference.py::{test}[first_sync_edge]"
    for test in (
        "test_an_event_on_the_end_of_a_spans_first_tick_is_fed_in_the_next_tick",
        "test_an_event_on_the_end_of_the_last_tick_before_a_rail_drop_is_lost",
    )
)

MUTANTS = (
    Mutant(
        "bank_dropped_from_harvested",
        "src/aquawake/power.py",
        "float(ledgers[0, i + 1])",
        "float(ledgers[0, i])",
        (REFERENCE_DRAW, PRESET_CASE),
    ),
    Mutant(
        "span_stop_by_bisect_left",
        "src/aquawake/sim.py",
        "stop = bisect_right(ends, flip, k + 1)",
        "stop = bisect_left(ends, flip, k + 1)",
        (REFERENCE_DRAW,),
    ),
    Mutant(
        "edge_on_a_tick_end_fed_in_that_tick",
        "src/aquawake/sim.py",
        "elif edge < t1:",
        "elif edge <= t1:",
        TIE_CASES,
    ),
    Mutant(
        "sample_limit_itself_rejected",
        "src/aquawake/sim.py",
        "if n_samples > MAX_SAMPLES:",
        "if n_samples >= MAX_SAMPLES:",
        ("tests/test_sim.py::test_a_run_may_span_exactly_max_samples",),
    ),
    Mutant(
        "transmit_window_one_sample_short",
        "src/aquawake/sim.py",
        "hi = max(min(stop - early, n_tx), lo)",
        "hi = max(min(stop - early, n_tx) - 1, lo)",
        (REFERENCE_DRAW, PRESET_CASE),
    ),
    Mutant(
        "carrier_at_twice_its_frequency",
        "src/aquawake/frame.py",
        "carrier = _unit_sine(2.0 * np.pi * params.carrier_freq / sr, table)",
        "carrier = _unit_sine(4.0 * np.pi * params.carrier_freq / sr, table)",
        (REFERENCE_DRAW, PRESET_CASE),
    ),
    Mutant(
        "first_edge_of_each_block_dropped",
        "src/aquawake/sim.py",
        "edge_times.append(edges.edge_times)\n"
        "                edge_levels.append(edges.edge_levels)",
        "edge_times.append(edges.edge_times[1:])\n"
        "                edge_levels.append(edges.edge_levels[1:])",
        (REFERENCE_DRAW, PRESET_CASE),
    ),
    Mutant(
        "drive_state_not_carried",
        "src/aquawake/frontend.py",
        "diff = _lfilter(b, a, x.samples, state.drive_zi)",
        "diff = _lfilter(b, a, x.samples, state.drive_zi.copy())",
        tuple(
            f"tests/test_block_stream.py::test_envelope_in_blocks_is_one_call[{size}]"
            for size in (1, 7, 64, 12288)  # the last is sim.BLOCK_SAMPLES
        ),
    ),
    Mutant(
        "same_run_check_skips_its_last_field",
        "tests/reference_engine.py",
        "for name, value in vars(got).items():",
        "for name, value in list(vars(got).items())[:-1]:",
        (f"{SAME_RUN_CHECK}[seed]",),
    ),
    Mutant(
        "same_run_check_compares_arrays_by_repr",
        "tests/reference_engine.py",
        "assert value.tobytes() == other.tobytes(), name",
        "assert repr(value) == repr(other), name",
        (f"{SAME_RUN_CHECK}[vcap_values]",),
    ),
    Mutant(
        "latch_takes_in_band_runs_as_run_starts",
        "src/aquawake/frontend.py",
        "starts = ((side[1:] != side[:-1]) & (side[1:] != 0)).nonzero()[0]",
        "starts = (side[1:] != side[:-1]).nonzero()[0]",
        (
            "tests/test_frontend.py::test_edge_extraction_matches_the_per_sample_latch",
            f"{RUN_LATCH}[same_side_split-agrees]",
            f"{RUN_LATCH}[same_side_split-disagrees]",
        ),
    ),
    Mutant(
        "latch_compares_each_sample_with_the_next",
        "src/aquawake/frontend.py",
        "(side[1:] != side[:-1])",
        "(side[1:] != np.append(side[2:], 0))",
        (
            "tests/test_frontend.py::test_edge_extraction_matches_the_per_sample_latch",
            # where the carried level agrees, one run or one side has no edge to move
            f"{RUN_LATCH}[one_run-disagrees]",
            f"{RUN_LATCH}[same_side_split-disagrees]",
            f"{RUN_LATCH}[any-agrees]",
            f"{RUN_LATCH}[any-disagrees]",
        ),
    ),
    Mutant(
        "eight_sample_tick_sums_last_pairs_added_one_by_one",
        "src/aquawake/sim.py",
        "np.add(quads[:, 0], quads[:, 1], out=out)",
        "np.add(quads[:, 0], pairs[:, 2], out=out)\n        out += pairs[:, 3]",
        (
            REFERENCE_DRAW,
            "tests/test_variant_corpus.py::test_family_outputs_match_their_digest[decimation]",
            "tests/test_sim.py::test_tick_sums_give_the_bytes_of_numpys_reduce[8]",
            "tests/test_sim.py::test_eight_sample_tick_sums_keep_the_pairwise_grouping",
        ),
    ),
    Mutant(
        "column_tree_also_below_eight_samples_per_tick",
        "src/aquawake/sim.py",
        "if windows.shape[1] == _PAIRWISE_UNROLL:",
        "if windows.shape[1] <= _PAIRWISE_UNROLL:",
        tuple(f"tests/test_sim.py::test_tick_sums_give_the_bytes_of_numpys_reduce[{w}]" for w in range(1, 8)),
    ),
    Mutant(
        "blocks_by_floor_division",
        "src/aquawake/sim.py",
        "n_blocks = max(round(n / BLOCK_SAMPLES), 1)",
        "n_blocks = max(n // BLOCK_SAMPLES, 1)",
        # floor division lets a block reach 2 x BLOCK_SAMPLES: a share of 1.51
        # runs in one block, 4.7 in four
        tuple(f"{BLOCK_RULE}[{case}]" for case in ("64-1.51", "100-4.7")),
    ),
    Mutant(
        "cold_start_drains_every_tick",
        "src/aquawake/power.py",
        "banked, load = self._b_cold, 0.0",
        "banked, load = self._b_cold, drain",
        (
            f"{FIRST_TICK}[cold_start_enables]",
            f"{FIRST_TICK}[depleted_rails_up_on_its_first_tick]",
            f"{WINDOWS_LAST_TICK}[first_window]",
            f"{WINDOWS_LAST_TICK}[second_window]",
        ),
    ),
    Mutant(
        "cold_start_rails_up_only_above_the_enable_level",
        "src/aquawake/power.py",
        "closing >= self._e_enable",
        "closing > self._e_enable",
        (f"{FIRST_TICK}[closes_at_the_enable_level]",),
    ),
    Mutant(
        "rail_collapses_at_uvlo_itself",
        "src/aquawake/power.py",
        "collapsed = self.e_cap < self._e_uvlo",
        "collapsed = self.e_cap <= self._e_uvlo",
        (f"{FIRST_TICK}[rail_up_draw_leaves_uvlo]",),
    ),
    # the three hangs: each flip stops a loop from advancing
    Mutant(
        "tick_loop_runs_past_the_last_tick",
        "src/aquawake/sim.py",
        "while harvester.k < n_ticks:",
        "while harvester.k <= n_ticks:",
        ("tests/test_sim.py::test_zero_amplitude_never_wakes",),  # a run that ends with the rail down
    ),
    Mutant(
        "span_runs_again_at_its_stop",
        "src/aquawake/sim.py",
        "while harvester.k < stop and",
        "while harvester.k <= stop and",
        (FROZEN_RUN,),
    ),
    Mutant(
        "level_sample_at_its_due_time_not_taken",
        "src/aquawake/decoder.py",
        "t < state.sample_times[len(bits)]",
        "t <= state.sample_times[len(bits)]",
        (FROZEN_RUN,),
    ),
)


# pytest under a default hypothesis profile with no shrink phase, loaded before
# the tests import: a property that fails reports its first failing example
# instead of shrinking whole runs for minutes. Settings a test names itself
# take the profile's values for the fields it leaves out
PYTEST_WITHOUT_SHRINKING = """
import sys
import pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def junit_key(test_id: str) -> tuple[str, str]:
    """The (classname, name) pair under which pytest's JUnit XML reports `test_id`."""
    path, *parts = test_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *parts[:-1]]), parts[-1]


def passed_ids(tree: Path, ids: tuple[str, ...], limit: float) -> set[str] | None:
    """The ids among `ids` that pytest, run on them in `tree`, reports as passed;
    None if the run outlasts `limit` seconds (it is stopped)."""
    report = tree / "mutants-junit.xml"
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    options = ["-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", f"--junitxml={report}"]
    command = [sys.executable, "-c", PYTEST_WITHOUT_SHRINKING, *options, *ids]
    try:
        subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, timeout=limit
        )
    except subprocess.TimeoutExpired:
        return None
    if not report.exists():
        return set()
    passed = {
        (case.get("classname"), case.get("name"))
        for case in ET.parse(report).getroot().iter("testcase")
        if not any(child.tag in ("failure", "error", "skipped") for child in case)
    }
    return {test_id for test_id in ids if junit_key(test_id) in passed}


def main() -> int:
    failures = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            failures.append(f"{m.name}: its old text occurs {count} times in {m.path}, not once")
    if failures:
        print("\n".join(failures))
        return 1

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*COPIED_AWAY))
        every_id = tuple(dict.fromkeys(i for m in MUTANTS for i in m.ids))
        run_started = time.perf_counter()
        passed = passed_ids(tree, every_id, UNMUTATED_LIMIT_S)
        if passed is None:
            print(f"the unmutated copy does not finish within {UNMUTATED_LIMIT_S:.0f} s")
            return 1
        failing = sorted(set(every_id) - passed)
        if failing:
            print("the unmutated copy does not pass:\n  " + "\n  ".join(failing))
            return 1
        # a mutant's run takes a subset of these ids: one that outlasts this hangs
        limit = 2 * (time.perf_counter() - run_started) + 10.0
        print(f"unmutated: {len(every_id)} ids pass; each mutant's run is stopped after {limit:.0f} s")
        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                survived = passed_ids(tree, m.ids, limit)
            finally:
                target.write_text(original)
            if survived:
                failures.append(f"{m.name} survives:\n  " + "\n  ".join(sorted(survived)))
            verdict = "killed (timeout)" if survived is None else "SURVIVES" if survived else "killed"
            print(f"{m.name}: {verdict} ({len(m.ids)} ids)")
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - started:.1f} s")
    if failures:
        print("\n".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
