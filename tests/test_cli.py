import csv
import errno
import io
import os
import re
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import cli as cli_module
from aquawake import load_scenario, sim
from aquawake.cli import SCHEMA_VERSION, _fmt, _write_run_outputs, main, preset_path
from aquawake.frontend import transduce
from aquawake.power import Harvester, HarvesterMode
from aquawake.scenario_io import MAX_NESTING, _Loader

# short preamble keeps each in-process run a few milliseconds
FAST_SCENARIO = """\
frame:
  uuid: 0xA5
  bit_rate: 200.0
  preamble_duration: 0.002
  guard_duration: 0.0025
decoder:
  assigned_uuid: 0xA5
  sample_offset: 0.2
modulation:
  tx_amplitude: 34.6064
channel:
  distance: 1.0
  noise_rms: 0.1
harvester:
  coldstart_efficiency: 0.09
sim:
  seed: 0
"""

RUN_FILES = ("result.csv", "vcap_trace.csv", "comparator_edges.csv")
DRIVE_CHAIN = "modulation.tx_amplitude, transducer.sensitivity or channel.noise_rms"
# every key that sets the received signal level
SIGNAL_LEVEL = (
    DRIVE_CHAIN + ", raise sim.input_resistance, or lower the direct-path gain through "
    "channel.distance, channel.spreading_exponent or channel.absorption_db_per_km"
)


def cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def scenario_file(tmp_path: Path) -> Path:
    path = tmp_path / "fast.yaml"
    path.write_text(FAST_SCENARIO)
    return path


def assert_no_tmp_litter(root: Path) -> None:
    assert not list(root.rglob("*.tmp"))


def test_run_writes_outputs_and_summary(scenario_file, tmp_path):
    out = tmp_path / "out"
    code, stdout, stderr = cli("run", str(scenario_file), "--out", str(out))
    assert code == 0
    assert stderr == ""
    assert re.fullmatch(
        r"woke=(True|False) time_to_wake=(none|\d+\.\d{6}s) peak_v_cap=\d+\.\d{4}V\n",
        stdout,
    )
    for name in RUN_FILES:
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("schema_version,")
        assert all(line.startswith("1,") for line in lines[1:])
    assert_no_tmp_litter(out)


@pytest.mark.parametrize("failing", [1, 3], ids=["first_file", "last_file"])
def test_a_failed_rename_leaves_no_temporary_file(failing, scenario_file, tmp_path, monkeypatch):
    renames = []
    real_replace = cli_module.os.replace

    def full_disk(src, dst):
        renames.append(dst)
        if len(renames) == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_replace(src, dst)

    monkeypatch.setattr(cli_module.os, "replace", full_disk)
    out = tmp_path / "out"
    code, stdout, stderr = cli("run", str(scenario_file), "--out", str(out))
    assert code == 2
    assert stdout == ""
    full = os.strerror(errno.ENOSPC)
    assert stderr == f"error: cannot write to output directory {out} ({full})\n"
    assert len(renames) == failing
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES[: failing - 1])
    assert_no_tmp_litter(tmp_path)


def test_run_seed_flag_overrides_the_scenario(scenario_file, tmp_path):
    out = tmp_path / "out"
    cli("run", str(scenario_file), "--seed", "5", "--out", str(out))
    header, row = (out / "result.csv").read_text().splitlines()
    assert header.split(",")[1] == "seed"
    assert row.split(",")[1] == "5"


def test_same_seed_runs_are_byte_identical(scenario_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli("run", str(scenario_file), "--out", str(a))
    cli("run", str(scenario_file), "--out", str(b))
    for name in RUN_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seeds_change_the_trace(scenario_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli("run", str(scenario_file), "--seed", "1", "--out", str(a))
    cli("run", str(scenario_file), "--seed", "2", "--out", str(b))
    assert (a / "vcap_trace.csv").read_bytes() != (b / "vcap_trace.csv").read_bytes()


def test_out_dir_env_var_is_honored(scenario_file, tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("AQUAWAKE_OUT_DIR", str(target))
    code, _, _ = cli("run", str(scenario_file))
    assert code == 0
    assert all((target / name).exists() for name in RUN_FILES)


def test_default_out_dir_is_under_the_cwd(scenario_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AQUAWAKE_OUT_DIR", raising=False)
    code, _, _ = cli("run", str(scenario_file))
    assert code == 0
    assert (tmp_path / "aquawake-out" / "result.csv").exists()


def test_an_empty_out_dir_env_var_counts_as_unset(scenario_file, tmp_path, monkeypatch):
    # Path("") is the working directory: the CSVs must not land there
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("AQUAWAKE_OUT_DIR", "")
    code, _, _ = cli("run", str(scenario_file))
    assert code == 0
    assert all((tmp_path / "aquawake-out" / name).exists() for name in RUN_FILES)
    assert not (tmp_path / "result.csv").exists()


def test_run_rejects_an_incomplete_scenario(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    code, stdout, stderr = cli("run", str(empty), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "frame.uuid" in stderr and "decoder.assigned_uuid" in stderr
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_missing_file(tmp_path):
    code, _, stderr = cli("run", str(tmp_path / "nope.yaml"))
    assert code == 2
    assert stderr.startswith("error:")


def test_sweep_row_count_matches_values_times_trials(scenario_file, tmp_path):
    out = tmp_path / "out"
    code, stdout, _ = cli(
        "sweep", str(scenario_file),
        "--param", "distance", "--values", "1.0,2.0,3.0,4.0",
        "--trials", "10", "--out", str(out),
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 45  # header + 4*10 trial rows + 4 aggregate rows
    assert sum(ln.startswith("1,trial,") for ln in lines) == 40
    assert sum(ln.startswith("1,aggregate,") for ln in lines) == 4
    assert stdout.count("wake_success_rate=") == 4
    assert_no_tmp_litter(out)


def test_sweep_validation_failure_leaves_no_output(scenario_file, tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(scenario_file),
        "--param", "salinity", "--values", "1.0", "--out", str(out),
    )
    assert code == 2
    assert "salinity" in stderr
    assert not (out / "sweep.csv").exists()
    assert_no_tmp_litter(tmp_path)


def test_sweep_rejects_non_numeric_values(scenario_file, tmp_path):
    code, _, stderr = cli(
        "sweep", str(scenario_file),
        "--param", "distance", "--values", "1.0,abc",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert stderr.startswith("usage error:")


def test_usage_errors_exit_one():
    assert cli()[0] == 1
    assert cli("run")[0] == 1
    assert cli("run", "x.yaml", "--bogus")[0] == 1
    assert cli("frobnicate")[0] == 1


@pytest.mark.parametrize(
    "name", ["paper_fig5", "paper_echo", "paper_critical_distance"]
)
def test_preset_path_points_at_a_real_file(name):
    code, stdout, _ = cli("preset-path", name)
    assert code == 0
    path = Path(stdout.strip())
    assert path.is_file()
    assert path.name == f"{name}.scenario"


def test_unknown_preset_lists_the_available_ones():
    code, _, stderr = cli("preset-path", "paper_fig6")
    assert code == 2
    assert "paper_fig5" in stderr and "paper_echo" in stderr


def test_bundled_preset_runs_end_to_end(tmp_path):
    _, stdout, _ = cli("preset-path", "paper_fig5")
    out = tmp_path / "out"
    code, summary, _ = cli("run", stdout.strip(), "--out", str(out))
    assert code == 0
    assert summary.startswith("woke=True")
    assert (out / "result.csv").exists()


# FAST_SCENARIO from the frame's bit_rate to the modulation section's first key,
# for an edit that sets keys of both sections
TIMING = FAST_SCENARIO[FAST_SCENARIO.index("  bit_rate:") : FAST_SCENARIO.index("  tx_amplitude:")]
SAMPLE_LIMIT = "above the limit of 8388608"
# (old, new, message): FAST_SCENARIO with `old` edited to `new` fails with `message`
BAD_KEY_EDITS = [
    ("channel:\n", "channel:\n  rng_seed: 7\n", "unknown key channel.rng_seed"),
    ("sim:\n", "load:\n  p_decode: .nan\nsim:\n", "load.p_decode must be a finite number"),
    ("sim:\n", "sim:\n  tail_duration: .inf\n", "sim.tail_duration must be a finite number"),
    ("sim:\n", "sim:\n  harvester_decimation: 0x10000000000\n", SAMPLE_LIMIT),
    # a count past float range, named without a %g that would overflow
    ("sim:\n", "sim:\n  harvester_decimation: 0x" + "f" * 260 + "\n", SAMPLE_LIMIT),
    # geometries whose slots or taps round inf samples
    (TIMING, TIMING.replace("bit_rate: 200.0", "bit_rate: 1.0e-10") + "  sample_rate: 1.0e+300\n",
     SAMPLE_LIMIT),
    (TIMING,
     TIMING.replace("preamble_duration: 0.002", "preamble_duration: 1.0e+300")
     + "  sample_rate: 1.0e+10\n",
     SAMPLE_LIMIT),
    ("  distance: 1.0\n", "  distance: 1.0e+300\n  sound_speed: 1.0e-300\n", SAMPLE_LIMIT),
    ("harvester:\n", "harvester:\n  v_out: 3.3\n", "unknown key harvester.v_out"),
    ("sim:\n", "sim:\n  harvester_decimation: 8.5\n",
     "sim.harvester_decimation must be an integer, got 8.5"),
    ("assigned_uuid: 0xA5", "assigned_uuid: 165.5",
     "decoder.assigned_uuid must be an integer, got 165.5"),
    ("  uuid: 0xA5", "  uuid: true", "frame.uuid must be an integer, got True"),
    # PyYAML reads 1e5 (no dot) as a string
    ("channel:\n", "channel:\n  spreading_exponent: 1e5\n",
     "channel.spreading_exponent must be a number, got '1e5'"),
    ("  seed: 0\n", "  seed: -1\n", "sim.seed must be >= 0, got -1"),
    # so is 1.0e5: a float needs the dot and a signed exponent (1.0e+5)
    ("channel:\n", "channel:\n  spreading_exponent: 1.0e5\n",
     "channel.spreading_exponent must be a number, got '1.0e5'"),
    # each of these overflows the harvester input power or the cap voltage
    ("tx_amplitude: 34.6064", "tx_amplitude: 1.0e+200", DRIVE_CHAIN),
    ("sim:\n", "transducer:\n  sensitivity: 1.0e+300\nsim:\n", DRIVE_CHAIN),
    ("noise_rms: 0.1", "noise_rms: 1.0e+300", DRIVE_CHAIN),
    ("harvester:\n", "harvester:\n  c_store: 1.0e-320\n", "raise harvester.c_store"),
    # signal levels that overflow before the harvester input power is formed
    ("tx_amplitude: 34.6064", "tx_amplitude: 1.0e+200\ntransducer:\n  sensitivity: 1.0e+200",
     SIGNAL_LEVEL),
    ("tx_amplitude: 34.6064\nchannel:\n  distance: 1.0\n  noise_rms: 0.1",
     "tx_amplitude: 1.0e+308\nchannel:\n  distance: 1.0\n  noise_rms: 1.0e+308", SIGNAL_LEVEL),
    ("tx_amplitude: 34.6064\nchannel:\n  distance: 1.0\n",
     "tx_amplitude: 1.0e+20\nchannel:\n  distance: 1.0e-100\n  spreading_exponent: 3.0\n",
     SIGNAL_LEVEL),
    ("  uuid: 0xA5\n", "  uuid: 0xA5\n  uuid: 0x5A\n", "duplicate key 'uuid' on line 3"),
    ("sim:\n", "load:\n  p_idle: 0.0\nsim:\n", "unknown key load.p_idle"),
]
BAD_KEY_IDS = [
    "rng_seed", "nan_p_decode", "inf_tail_duration", "huge_decimation",
    "decimation_past_float_range", "inf_bit_slots", "inf_preamble", "inf_path_delay", "v_out",
    "fractional_decimation", "fractional_assigned_uuid", "bool_uuid", "string_exponent",
    "negative_seed", "dotted_exponent", "huge_tx_amplitude", "huge_sensitivity",
    "huge_noise_rms", "tiny_c_store", "huge_tx_amplitude_and_sensitivity",
    "huge_tx_amplitude_and_noise_rms", "tiny_distance_steep_spreading", "duplicate_uuid",
    "p_idle",
]


@pytest.mark.parametrize("old, new, message", BAD_KEY_EDITS, ids=BAD_KEY_IDS)
def test_run_rejects_a_bad_key_by_name(old, new, message, tmp_path):
    path = tmp_path / "bad.yaml"
    new_text = FAST_SCENARIO.replace(old, new)
    assert new_text != FAST_SCENARIO
    path.write_text(new_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, stderr = cli("run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert message in stderr
    assert not (tmp_path / "o").exists()
    # an overflow is named, not printed as a numpy warning first
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in stderr and "Traceback" not in stderr


@pytest.mark.parametrize(
    "noise_rms, cause",
    [
        ("0.0", "waveform contains non-finite samples"),
        # the noise alone overflows the input power in the first block, and the
        # arrival a waveform in a later one: the waveform is named, as for one pass
        ("1.0e-45", "waveform contains non-finite samples"),
    ],
    ids=["silent_until_the_arrival", "input_power_first"],
)
def test_an_overflow_after_the_first_block_is_named(noise_rms, cause, tmp_path, monkeypatch):
    text = preset_path("paper_fig5").read_text()
    edits = [
        ("tx_amplitude: 34.6064", "tx_amplitude: 1.0e+200"),
        ("distance: 1.0 ", "distance: 100.0"),
        ("noise_rms: 0.0 ", f"noise_rms: {noise_rms}"),
        ("harvester:\n", "transducer:\n  sensitivity: 1.0e+200\nharvester:\n"),
    ]
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "far.scenario"
    path.write_text(text)
    sc = load_scenario(path)
    lengths = []  # the length of each block the run's transducer stage takes

    def recording(pressure, model, zi=None):
        lengths.append(len(pressure.samples))
        return transduce(pressure, model, zi)

    monkeypatch.setattr(sim, "transduce", recording)
    code, _, stderr = cli("run", str(path), "--out", str(tmp_path / "o"))
    # the direct arrival, where the signal first overflows, lies past the first block
    arrival = round(sc.channel.distance / sc.channel.sound_speed * sc.modulation.sample_rate)
    assert arrival > lengths[0]
    assert code == 2
    assert stderr == (
        f"error: signal level leaves float range ({cause}; direct-path gain 9.86049e-05); "
        f"lower {SIGNAL_LEVEL}\n"
    )
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_non_finite_values(scenario_file, tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(scenario_file),
        "--param", "distance", "--values", "1.0,nan", "--out", str(out),
    )
    assert code == 2
    assert "distance values must be finite" in stderr
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_a_distance_whose_gain_overflows(scenario_file, tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(scenario_file),
        "--param", "distance", "--values", "1e-300", "--out", str(out),
    )
    assert code == 2
    assert "direct-path gain overflows at distance 1e-300" in stderr
    assert "Traceback" not in stderr
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("param", ["preamble_duration", "distance"])
def test_sweep_rejects_a_run_over_the_sample_limit(param, scenario_file, tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(scenario_file),
        "--param", param, "--values", "1e9", "--out", str(out),
    )
    assert code == 2
    assert "above the limit of 8388608" in stderr
    assert "Traceback" not in stderr
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_an_unbounded_trial_count_before_running(monkeypatch, tmp_path):
    def no_run(sc):
        raise AssertionError("a sweep over the run limit started a run")

    monkeypatch.setattr(sim, "run_scenario", no_run)
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(preset_path("paper_fig5")),
        "--param", "distance", "--values", "1,2",
        "--trials", "100000000000000000000", "--out", str(out),
    )
    assert code == 2
    assert "trials 100000000000000000000 over 2 values make 200000000000000000000 runs" in stderr
    assert "above the limit of 65536" in stderr
    assert not (out / "sweep.csv").exists()


# each sweep's last value fails, with the message a run of that value gives
@pytest.mark.parametrize(
    "name, param, values, message",
    [
        ("paper_fig5", "distance", "1,1.5,-1", "^error: distance must be positive, got -1.0\n$"),
        ("paper_fig5", "distance", "1,1e9",
         r"^error: scenario needs 1.37423e\+11 samples per signal, above the limit of 8388608: "),
        ("paper_echo", "bit_rate", "200,8000",
         r"^error: demod.envelope_tau 6.25e-06 s must sit above the carrier period "),
        ("paper_echo", "echo_delay", "0.0031,0.0", "^error: echo_delay .*, got 0.0\n$"),
    ],
    ids=["negative_distance", "distance_over_sample_limit", "bit_rate_over_tau",
         "zero_echo_delay"],
)
def test_a_sweep_with_a_bad_last_value_fails_before_the_first_run(
    name, param, values, message, monkeypatch, tmp_path
):
    ran = []
    monkeypatch.setattr(sim, "run_scenario", ran.append)
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(preset_path(name)), "--param", param, "--values", values,
        "--trials", "20", "--out", str(out),
    )
    assert code == 2
    assert re.search(message, stderr)
    assert ran == []
    assert not (out / "sweep.csv").exists()


def test_a_huge_rejected_value_is_printed_short(tmp_path):
    # six levels of ten-way alias fan-out: a million list items from a few hundred bytes
    node = "0"
    for anchor in "abcdef":
        node = f"[&{anchor} {node}" + f", *{anchor}" * 9 + "]"
    path = tmp_path / "fanout.yaml"
    path.write_text(f"frame:\n  uuid: {node}\ndecoder:\n  assigned_uuid: 0xA5\n")
    assert path.stat().st_size < 400
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(path), "--out", str(out))
    assert code == 2
    assert stderr.startswith("error: frame.uuid must be an integer, got [[[")
    assert len(stderr.encode()) < 1024
    assert not out.exists()


def test_run_on_a_directory_fails_by_name(tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(tmp_path), "--out", str(out))
    assert code == 2
    assert stderr == f"error: scenario file not found or not readable: {tmp_path} (Is a directory)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe\x00",
        b"frame:\n  uuid: !!int abc\n",
        b"frame:\n  uuid: !!timestamp 2020-13-45\n",
        b"frame: " + b"[" * 5000 + b"]" * 5000 + b"\n",
        # the root mapping, brackets and a scalar: one level past the limit
        b"frame: " + b"[" * (MAX_NESTING - 1) + b"1" + b"]" * (MAX_NESTING - 1) + b"\n",
        # libyaml's own composer overflows the C stack here
        b"frame: " + b"[" * 100_000 + b"]" * 100_000 + b"\n",
    ],
    ids=["not_utf8", "bad_int_tag", "bad_timestamp_tag", "deep_nesting", "past_nesting_limit",
         "hundred_thousand_deep"],
)
def test_an_unparsable_scenario_file_fails_by_name(content, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(path), "--out", str(out))
    assert code == 2
    assert stderr.startswith(f"error: scenario file {path} ")
    assert "Traceback" not in stderr
    assert not out.exists()


def test_a_value_error_from_a_bug_propagates(monkeypatch, tmp_path):
    # exit 2 is for ConfigurationError; anything else is a bug and keeps its traceback
    def broken(scenario):
        raise ValueError("not an input problem")

    monkeypatch.setattr("aquawake.cli.run_scenario", broken)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="not an input problem"):
        cli("run", str(preset_path("paper_fig5")), "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_out_that_is_a_file_fails_by_name(command, scenario_file, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    argv = [command, str(scenario_file), "--out", str(taken)]
    if command == "sweep":
        argv += ["--param", "noise_rms", "--values", "0.1"]
    code, _, stderr = cli(*argv)
    assert code == 2
    assert stderr == f"error: cannot write to output directory {taken} (File exists)\n"
    assert taken.read_text() == "keep me"
    assert not list(tmp_path.rglob("*.csv*"))


def test_negative_seed_flag_is_rejected_by_name(scenario_file, tmp_path):
    runs = [
        ("run", str(preset_path("paper_fig5"))),
        ("sweep", str(scenario_file), "--param", "noise_rms", "--values", "0.1"),
    ]
    for argv in runs:
        out = tmp_path / argv[0]
        code, _, stderr = cli(*argv, "--seed", "-1", "--out", str(out))
        assert code == 2
        assert stderr == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


def test_an_engine_invariant_violation_exits_three(tmp_path, monkeypatch):
    # a harvester span that lets the cap's energy leak breaks the energy ledger
    real_run = Harvester.run

    def leaky_run(self, stop, load_power):
        real_run(self, stop, load_power)
        self.e_cap *= 0.99

    monkeypatch.setattr(Harvester, "run", leaky_run)
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(preset_path("paper_fig5")), "--out", str(out))
    assert code == 3
    assert "error: energy ledger violation" in stderr
    assert "Traceback" not in stderr
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize("name", ["paper_fig5", "paper_echo", "paper_critical_distance"])
def test_a_ledger_short_of_one_bank_per_window_exits_three(tmp_path, monkeypatch, name):
    # each harvester window that ends without a crossing leaves its last tick's
    # bank out of the harvested sum, about 1 / n_ticks of it per window
    real_advance = Harvester._advance

    def short_advance(self, end, drain):
        hit = real_advance(self, end, drain)
        if not hit and self.mode is not HarvesterMode.DEPLETED:
            regulating = self.mode is HarvesterMode.REGULATING
            self.harvested -= (self._b_reg if regulating else self._b_cold)[end - 1]
        return hit

    monkeypatch.setattr(Harvester, "_advance", short_advance)
    path = tmp_path / "decimation_1.yaml"
    text = preset_path(name).read_text()
    path.write_text(text.replace("sim:\n", "sim:\n  harvester_decimation: 1\n"))
    code, _, stderr = cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 3 and "error: energy ledger violation" in stderr


def test_a_wake_without_the_assigned_uuid_exits_three(tmp_path, monkeypatch):
    monkeypatch.setattr("aquawake.decoder.wake_output", lambda state: True)
    path = tmp_path / "mismatched.yaml"
    path.write_text(FAST_SCENARIO.replace("assigned_uuid: 0xA5", "assigned_uuid: 0x5A"))
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(path), "--out", str(out))
    assert code == 3
    assert stderr == "error: wake asserted without a matching UUID\n"
    assert not (out / "result.csv").exists()


def test_a_bit_rate_sweep_of_paper_fig5_wakes_at_every_rate(tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli(
        "sweep", str(preset_path("paper_fig5")),
        "--param", "bit_rate", "--values", "100,200,400,800", "--out", str(out),
    )
    assert code == 0, stderr
    with open(out / "sweep.csv", newline="") as fh:
        trials = [r for r in csv.DictReader(fh) if r["row_type"] == "trial"]
    assert [float(r["value"]) for r in trials] == [100.0, 200.0, 400.0, 800.0]
    assert all(r["woke"] == "true" and r["decoded_uuid"] == "165" for r in trials)


# the presets, FAST_SCENARIO and its edits, less the duplicate key: PyYAML's
# own loader keeps its last copy
LOADER_TEXTS = {
    name: preset_path(name).read_text()
    for name in ("paper_fig5", "paper_echo", "paper_critical_distance")
}
LOADER_TEXTS["fast"] = FAST_SCENARIO
LOADER_TEXTS.update(
    (id_, FAST_SCENARIO.replace(old, new))
    for (old, new, _), id_ in zip(BAD_KEY_EDITS, BAD_KEY_IDS) if id_ != "duplicate_uuid"
)


@pytest.mark.parametrize("text", LOADER_TEXTS.values(), ids=LOADER_TEXTS.keys())
def test_the_loader_reads_what_pyyaml_safe_loader_reads(text):
    # repr tells 1 from 1.0 and '1e5' from 1e5, and a NaN equals itself there
    assert repr(yaml.load(text, Loader=_Loader)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def _reference_csv(path, header, rows):
    """What the writer wrote before it formatted lines itself: csv.writer over _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", *header])
        for row in rows:
            writer.writerow([SCHEMA_VERSION, *map(_fmt, row)])


odd_floats = st.one_of(
    st.floats(),  # NaN, +-inf, +-0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**53]),
    st.integers(-(2**53), 2**53).map(float),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    ticks=st.lists(
        st.tuples(odd_floats, odd_floats, st.sampled_from([m.value for m in HarvesterMode])),
        max_size=20,
    ),
    edges=st.lists(st.tuples(odd_floats, st.booleans()), max_size=20),
)
def test_run_files_match_the_csv_module_byte_for_byte(ticks, edges, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    times, values, modes = map(list, zip(*ticks)) if ticks else ([], [], [])
    edge_times, levels = map(list, zip(*edges)) if edges else ([], [])
    result = SimpleNamespace(
        vcap_times=np.array(times, dtype=float),
        vcap_values=np.array(values, dtype=float),
        mode_values=modes,
        edge_trace=SimpleNamespace(
            edge_times=np.array(edge_times, dtype=float), edge_levels=np.array(levels, dtype=bool)
        ),
    )
    _write_run_outputs(result, out)
    ref = out / "ref.csv"
    vcap_rows = zip(result.vcap_times, result.vcap_values, modes)
    _reference_csv(ref, ("time_s", "v_cap_v", "mode"), vcap_rows)
    assert (out / "vcap_trace.csv").read_bytes() == ref.read_bytes()
    edge_rows = zip(result.edge_trace.edge_times, map(bool, result.edge_trace.edge_levels))
    _reference_csv(ref, ("time_s", "level"), edge_rows)
    assert (out / "comparator_edges.csv").read_bytes() == ref.read_bytes()


def synthetic_result(n: int) -> SimpleNamespace:
    """A result of `n` ticks and `n` edges holding every float form: random
    digits, +-0.0, +-inf, NaN, subnormals."""
    rng = np.random.default_rng(7)
    odd = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300, 2.0**53]
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: len(odd)] = odd
    modes = [m.value for m in HarvesterMode]
    return SimpleNamespace(
        vcap_times=np.cumsum(rng.random(n)) * 1e-4,
        vcap_values=values,
        mode_values=[modes[i % len(modes)] for i in range(n)],
        edge_trace=SimpleNamespace(
            edge_times=np.sort(rng.random(n)), edge_levels=np.arange(n) % 2 == 0
        ),
    )


def test_a_run_of_two_chunks_and_a_row_matches_the_csv_module(tmp_path, monkeypatch):
    n = 2 * cli_module.CSV_CHUNK_ROWS + 1
    result = synthetic_result(n)
    out = tmp_path / "out"
    out.mkdir()
    rows_per_write = []

    def counting(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == "vcap_trace.csv.tmp":
            write = fh.write

            def counted(text):
                rows_per_write.append(text.count("\r\n"))
                return write(text)

            fh.write = counted
        return fh

    monkeypatch.setattr(cli_module, "open", counting, raising=False)
    _write_run_outputs(result, out)
    # the header, then the 1024 rows per write that README states
    assert rows_per_write == [1, 1024, 1024, 1]
    ref = tmp_path / "ref.csv"
    _reference_csv(ref, ("time_s", "v_cap_v", "mode"),
                   zip(result.vcap_times, result.vcap_values, result.mode_values))
    assert (out / "vcap_trace.csv").read_bytes() == ref.read_bytes()
    edges = result.edge_trace
    _reference_csv(ref, ("time_s", "level"), zip(edges.edge_times, map(bool, edges.edge_levels)))
    assert (out / "comparator_edges.csv").read_bytes() == ref.read_bytes()
    assert len((out / "vcap_trace.csv").read_bytes().splitlines()) == n + 1


def test_a_write_that_fails_mid_file_keeps_the_previous_file(scenario_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert cli("run", str(scenario_file), "--out", str(out))[0] == 0
    before = {name: (out / name).read_bytes() for name in RUN_FILES}
    chunk = 16
    assert before["vcap_trace.csv"].count(b"\n") > 3 * chunk  # the file takes several writes
    monkeypatch.setattr(cli_module, "CSV_CHUNK_ROWS", chunk)
    written = []

    def full_after_two_writes(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == "vcap_trace.csv.tmp":
            write = fh.write

            def failing(text):  # the header and one chunk fit
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)
                return write(text)

            fh.write = failing
        return fh

    monkeypatch.setattr(cli_module, "open", full_after_two_writes, raising=False)
    code, stdout, stderr = cli("run", str(scenario_file), "--seed", "1", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: cannot write to output directory {out} ({os.strerror(errno.ENOSPC)})\n"
    assert written[1].count("\r\n") == chunk
    assert_no_tmp_litter(tmp_path)
    # result.csv was replaced before the failing file; that file and the next keep their bytes
    assert (out / "result.csv").read_bytes() != before["result.csv"]
    assert (out / "vcap_trace.csv").read_bytes() == before["vcap_trace.csv"]
    assert (out / "comparator_edges.csv").read_bytes() == before["comparator_edges.csv"]


def test_the_writer_holds_one_chunk_of_text_at_a_time(tmp_path):
    n = 20 * cli_module.CSV_CHUNK_ROWS + 1  # 21 chunks
    result = synthetic_result(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        _write_run_outputs(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = (tmp_path / "vcap_trace.csv").stat().st_size
    chunk_text = size * cli_module.CSV_CHUNK_ROWS / n
    # measured 5.40 chunks' text (309 919 B, 57 364 B a chunk, a 1 147 346 B file;
    # 5.43 at 41 chunks); converting or joining the whole file at once takes 20 or more
    assert peak < 8 * chunk_text, (peak, chunk_text, size)


def test_the_reused_parser_keeps_no_state(tmp_path):
    path = str(preset_path("paper_fig5"))
    own_seed = str(load_scenario(path).sim.seed)
    assert own_seed != "5"
    assert cli("run", path, "--seed", "5", "--out", str(tmp_path / "a"))[0] == 0
    assert cli("run", path, "--out", str(tmp_path / "b"))[0] == 0
    seeds = [(tmp_path / d / "result.csv").read_text().splitlines()[1].split(",")[1] for d in "ab"]
    assert seeds == ["5", own_seed]
    code, _, stderr = cli("run")
    assert code == 1
    assert stderr.startswith("usage error: ")


def test_presets_in_a_zipped_package_fail_by_name(monkeypatch):
    zipped = Path("site-packages/aquawake.egg/aquawake/presets")
    monkeypatch.setattr(cli_module, "PRESETS_DIR", zipped)
    code, _, stderr = cli("preset-path", "paper_fig5")
    assert code == 2
    assert stderr == (
        f"error: bundled presets not found: {zipped} is not a directory "
        "(installs that keep the package zipped are unsupported)\n"
    )
