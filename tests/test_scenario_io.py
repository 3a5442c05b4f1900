import pytest

from aquawake import (
    DemodParams,
    Echo,
    SchemaError,
    load_scenario,
    scenario_from_dict,
)
from aquawake.cli import preset_path

MINIMAL = {"frame": {"uuid": 0xA5}, "decoder": {"assigned_uuid": 0xA5}}


def test_minimal_document_gets_defaults_everywhere():
    sc = scenario_from_dict(MINIMAL)
    assert sc.frame.uuid == 0xA5
    assert sc.frame.bit_rate == 200.0
    assert sc.modulation.carrier_freq == 28_000.0
    assert sc.channel.distance == 1.0
    assert sc.harvester.c_store == pytest.approx(100e-6)
    assert sc.load.p_listen == pytest.approx(10.7e-6)
    assert sc.demod is None
    assert sc.resolved_demod() == DemodParams.for_bit_rate(200.0)


def test_full_round_trip_of_section_fields():
    doc = {
        "frame": {"uuid": 0x3C, "bit_rate": 400.0, "preamble_duration": 0.1,
                  "guard_duration": 0.00125},
        "decoder": {"assigned_uuid": 0x3C, "sample_offset": 0.25},
        "modulation": {"tx_amplitude": 12.5, "pulse_duty": 0.4},
        "channel": {"distance": 2.0, "noise_rms": 0.1,
                    "echoes": [{"extra_path": 4.0, "gain": 0.5}]},
        "transducer": {"sensitivity": 0.8},
        "rectifier": {"diode_drop": 0.25},
        "harvester": {"coldstart_efficiency": 0.07},
        "load": {"p_decode": 70e-6},
        "demod": {"hysteresis": 0.01},
        "sim": {"seed": 9, "harvester_decimation": 32},
    }
    sc = scenario_from_dict(doc)
    assert sc.frame.bit_rate == 400.0
    assert sc.decoder.sample_offset == 0.25
    assert sc.modulation.pulse_duty == 0.4
    assert sc.channel.echoes == [Echo(extra_path=4.0, gain=0.5)]
    assert sc.transducer.sensitivity == 0.8
    assert sc.rectifier.diode_drop == 0.25
    assert sc.harvester.coldstart_efficiency == 0.07
    assert sc.load.p_decode == pytest.approx(70e-6)
    assert sc.sim.seed == 9 and sc.sim.harvester_decimation == 32
    assert sc.demod.hysteresis == 0.01


def test_partial_demod_section_tracks_the_frame_bit_rate():
    doc = {
        "frame": {"uuid": 1, "bit_rate": 400.0},
        "decoder": {"assigned_uuid": 1},
        "demod": {"hysteresis": 0.02},
    }
    demod = scenario_from_dict(doc).demod
    assert demod.hysteresis == 0.02
    assert demod.envelope_tau == pytest.approx(0.05 * (1.0 / 400.0))
    assert demod.slow_tau == pytest.approx(0.15 * (1.0 / 400.0))
    assert demod.reference_gain == 1.02


@pytest.mark.parametrize(
    "name, hysteresis",
    [("paper_fig5", 5e-3), ("paper_echo", 5.0), ("paper_critical_distance", 5.0)],
)
def test_presets_run_the_bit_period_rule(name, hysteresis):
    sc = load_scenario(preset_path(name))
    assert sc.frame.bit_rate == 200.0
    assert sc.resolved_demod() == DemodParams.for_bit_rate(200.0, hysteresis=hysteresis)


def test_missing_required_keys_are_listed():
    with pytest.raises(SchemaError, match="frame.uuid"):
        scenario_from_dict({"decoder": {"assigned_uuid": 1}})
    with pytest.raises(SchemaError, match="decoder.assigned_uuid"):
        scenario_from_dict({"frame": {"uuid": 1}})
    with pytest.raises(SchemaError) as err:
        scenario_from_dict({})
    assert "frame.uuid" in str(err.value)
    assert "decoder.assigned_uuid" in str(err.value)


def test_empty_document_reports_required_keys():
    with pytest.raises(SchemaError, match="frame.uuid"):
        scenario_from_dict(None)


def test_unknown_section_is_named():
    doc = dict(MINIMAL, chanel={"distance": 2.0})
    with pytest.raises(SchemaError, match="chanel"):
        scenario_from_dict(doc)


def test_unknown_key_is_named_with_its_section():
    doc = dict(MINIMAL, channel={"spread": 2.0})
    with pytest.raises(SchemaError, match=r"channel\.spread"):
        scenario_from_dict(doc)
    doc = dict(MINIMAL, demod={"fast": 1.0})
    with pytest.raises(SchemaError, match=r"demod\.fast"):
        scenario_from_dict(doc)


def test_invalid_values_become_schema_errors():
    with pytest.raises(SchemaError, match="frame"):
        scenario_from_dict({"frame": {"uuid": 999}, "decoder": {"assigned_uuid": 1}})
    with pytest.raises(SchemaError, match="demod"):
        scenario_from_dict(dict(MINIMAL, demod={"fast_tau": 1.0, "slow_tau": 0.5}))


def test_non_mapping_documents_are_rejected():
    with pytest.raises(SchemaError):
        scenario_from_dict([1, 2, 3])
    with pytest.raises(SchemaError):
        scenario_from_dict(dict(MINIMAL, frame=[1]))


def test_echo_list_validation():
    with pytest.raises(SchemaError, match="echoes"):
        scenario_from_dict(dict(MINIMAL, channel={"echoes": {"extra_path": 1.0}}))
    with pytest.raises(SchemaError, match=r"echoes\[0\]"):
        scenario_from_dict(
            dict(MINIMAL, channel={"echoes": [{"extra_path": 1.0, "lag": 2.0}]})
        )
    with pytest.raises(SchemaError, match=r"echoes\[0\]"):
        scenario_from_dict(
            dict(MINIMAL, channel={"echoes": [{"extra_path": 1.0, "gain": 1.5}]})
        )


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "broken.yaml"
    bad.write_text("frame: [unclosed\n")
    with pytest.raises(SchemaError, match="YAML"):
        load_scenario(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(SchemaError, match="frame.uuid"):
        load_scenario(empty)


@pytest.mark.parametrize(
    "text, key",
    [
        ("frame: {uuid: 165, uuid: 90}\ndecoder: {assigned_uuid: 165}\n", "'uuid' on line 1"),
        ("frame: {uuid: 165}\ndecoder: {assigned_uuid: 165}\ndecoder: {assigned_uuid: 90}\n",
         "'decoder' on line 3"),
        ("frame: {uuid: 165}\ndecoder: {assigned_uuid: 165}\nchannel:\n  echoes:\n"
         "    - {extra_path: 5.0, gain: 0.5}\n    - {extra_path: 8.0, gain: 0.5, gain: 0.1}\n",
         "'gain' on line 6"),
    ],
    ids=["key", "section", "echo_item_key"],
)
def test_a_repeated_key_is_rejected_by_name(text, key, tmp_path):
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"duplicate key {key}"):
        load_scenario(path)


def test_a_key_may_override_a_merged_one(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text(
        "frame:\n  <<: {uuid: 90, bit_rate: 100.0}\n  uuid: 165\n"
        "decoder: {assigned_uuid: 165}\n"
    )
    sc = load_scenario(path)
    assert (sc.frame.uuid, sc.frame.bit_rate) == (165, 100.0)


def test_loaded_file_equals_in_memory_document(tmp_path):
    path = tmp_path / "sc.yaml"
    path.write_text(
        "frame:\n  uuid: 0x42\n  bit_rate: 100.0\n"
        "decoder:\n  assigned_uuid: 0x42\n"
        "channel:\n  distance: 3.0\n"
    )
    sc = load_scenario(path)
    assert sc.frame.uuid == 0x42
    assert sc.frame.bit_rate == 100.0
    assert sc.channel.distance == 3.0


def test_a_dotted_signed_exponent_loads_as_a_float(tmp_path):
    # PyYAML reads 1e5 and 1.0e5 as strings; 1.0e+5 is a float
    path = tmp_path / "sc.yaml"
    path.write_text(
        "frame:\n  uuid: 0x42\n"
        "decoder:\n  assigned_uuid: 0x42\n"
        "channel:\n  distance: 1.0e+5\n"
    )
    distance = load_scenario(path).channel.distance
    assert type(distance) is float and distance == 1.0e5


@pytest.mark.parametrize(
    "name", ["paper_fig5", "paper_echo", "paper_critical_distance"]
)
def test_bundled_presets_load_and_validate(name):
    sc = load_scenario(preset_path(name))
    assert sc.frame.uuid == sc.decoder.assigned_uuid == 0xA5
    assert sc.frame.bit_rate == 200.0
    assert sc.harvester.coldstart_efficiency == pytest.approx(0.09)


def test_echo_presets_differ_only_in_the_reflection_path():
    near = load_scenario(preset_path("paper_echo"))
    far = load_scenario(preset_path("paper_critical_distance"))
    assert near.channel.echoes[0].extra_path == pytest.approx(5.053)
    assert far.channel.echoes[0].extra_path == pytest.approx(8.15)
    assert near.channel.echoes[0].gain == far.channel.echoes[0].gain == 0.8
    assert near.modulation.tx_amplitude == far.modulation.tx_amplitude


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_numbers_are_rejected_by_key(value):
    doc = dict(MINIMAL, frame={"uuid": 0xA5, "bit_rate": value}, demod={})
    with pytest.raises(SchemaError, match=r"frame\.bit_rate must be a finite number"):
        scenario_from_dict(doc)
    doc = dict(MINIMAL, channel={"echoes": [{"extra_path": value, "gain": 0.5}]})
    with pytest.raises(SchemaError, match=r"channel\.echoes\[0\]\.extra_path must be"):
        scenario_from_dict(doc)
