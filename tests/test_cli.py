import csv
import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from aquawake import sim
from aquawake.cli import main, preset_path

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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("channel:\n", "channel:\n  rng_seed: 7\n", "unknown key channel.rng_seed"),
        ("sim:\n", "load:\n  p_decode: .nan\nsim:\n", "load.p_decode must be a finite number"),
        ("sim:\n", "sim:\n  tail_duration: .inf\n", "sim.tail_duration must be a finite number"),
        ("sim:\n", "sim:\n  harvester_decimation: 0x10000000000\n", "above the limit of 8388608"),
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
    ],
    ids=["rng_seed", "nan_p_decode", "inf_tail_duration", "huge_decimation", "v_out",
         "fractional_decimation", "fractional_assigned_uuid", "bool_uuid", "string_exponent",
         "negative_seed", "dotted_exponent", "huge_tx_amplitude", "huge_sensitivity",
         "huge_noise_rms", "tiny_c_store", "huge_tx_amplitude_and_sensitivity",
         "huge_tx_amplitude_and_noise_rms", "tiny_distance_steep_spreading", "duplicate_uuid"],
)
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


def test_run_on_a_directory_fails_by_name(tmp_path):
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(tmp_path), "--out", str(out))
    assert code == 2
    assert stderr == f"error: scenario file not found or not readable: {tmp_path} (Is a directory)\n"
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
    # a harvester step that lets the cap leak breaks the energy ledger
    real = sim.harvester_step

    def leaky(*args):
        state = real(*args)
        return replace(state, v_cap=0.99 * state.v_cap)

    monkeypatch.setattr(sim, "harvester_step", leaky)
    out = tmp_path / "out"
    code, _, stderr = cli("run", str(preset_path("paper_fig5")), "--out", str(out))
    assert code == 3
    assert "error: energy ledger violation" in stderr
    assert "Traceback" not in stderr
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
