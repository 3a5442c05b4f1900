"""Every numeric config field rejects non-numbers, wrong kinds and non-finite values by name.

Config objects and `Scenario` are slotted: no instance dict, an unknown
attribute raises, and copies compare equal."""

import copy
import dataclasses
import gc
import pickle
import typing

import numpy as np
import pytest

from aquawake import ChannelModel, ConfigurationError, Echo, load_scenario, sim
from aquawake.cli import PRESETS_DIR, preset_path
from aquawake.config import Config, shown
from aquawake.scenario_io import _SECTIONS

CLASSES = [*_SECTIONS.values(), Echo]
# values for the fields without a default
REQUIRED = {"uuid": 0xA5, "assigned_uuid": 0xA5, "extra_path": 1.0, "gain": 0.5, "trials": 1,
            "rel_tol": 1e-3, "max_iter": 60}
PRESETS = {p.stem: load_scenario(p) for p in sorted(PRESETS_DIR.glob("*.scenario"))}


def subclasses(cls: type) -> set[type]:
    """Every subclass of `cls`, at any depth."""
    return {deeper for sub in cls.__subclasses__() for deeper in (sub, *subclasses(sub))}


# dataclass(slots=True) replaces each class with a new one; the old one stays
# among its base's __subclasses__ until the cycle collector frees it
gc.collect()
CONFIG_CLASSES = sorted(subclasses(Config), key=lambda cls: cls.__name__)


def numeric_fields(cls) -> dict[str, type]:
    """Field name -> int or float, from the annotation with its range alias stripped."""
    hints = typing.get_type_hints(cls)
    return {name: hint for name, hint in hints.items() if hint in (int, float)}


def fields(*kinds):
    """One param (class, field name) per numeric field of the given kinds."""
    return [
        pytest.param(cls, name, id=f"{cls.__name__}.{name}")
        for cls in CLASSES
        for name, kind in numeric_fields(cls).items()
        if kind in kinds
    ]


def build(cls, **kw):
    required = {
        f.name: REQUIRED[f.name]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return cls(**{**required, **kw})


def test_both_kinds_of_field_are_covered():
    assert {p.id for p in fields(int)} == {
        "WakeupFrame.uuid", "DecoderConfig.assigned_uuid", "SimOptions.seed",
        "SimOptions.harvester_decimation",
    }
    assert len(fields(float)) >= 40


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_section_class_is_a_config(cls):
    assert issubclass(cls, Config)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
@pytest.mark.parametrize("cls, name", fields(float))
def test_float_fields_reject_non_finite_values(cls, name, value):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be a finite number"):
        build(cls, **{name: value})


@pytest.mark.parametrize("value", [True, False, "1", None, [1.0]])
@pytest.mark.parametrize("cls, name", fields(int, float))
def test_numeric_fields_reject_bools_and_non_numbers(cls, name, value):
    noun = "an integer" if numeric_fields(cls)[name] is int else "a number"
    with pytest.raises(ConfigurationError, match=rf"^{name} must be {noun}, got"):
        build(cls, **{name: value})


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0)])
@pytest.mark.parametrize("cls, name", fields(int))
def test_int_fields_reject_floats(cls, name, value):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer, got"):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_numpy_scalars_are_accepted(cls):
    plain = build(cls)
    numpy_values = {
        name: (np.int64 if kind is int else np.float64)(getattr(plain, name))
        for name, kind in numeric_fields(cls).items()
    }
    assert build(cls, **numpy_values) == plain


def test_float_fields_accept_ints():
    assert build(_SECTIONS["frame"], bit_rate=200).bit_rate == 200
    assert build(_SECTIONS["channel"], distance=np.int64(2)).distance == 2


def test_a_huge_int_is_rejected_without_printing_it():
    # str() of an int past 4300 digits raises ValueError
    with pytest.raises(ConfigurationError, match=r"^uuid must be in \[0, 255\], got <int of "):
        build(_SECTIONS["frame"], uuid=10**5000)
    with pytest.raises(ConfigurationError, match=r"^distance must be a finite number, got <int "):
        build(_SECTIONS["channel"], distance=10**5000)


# at the two limits `shown` keeps: an int of exactly 1000 bits prints its
# (cut) digits, and a repr of exactly 200 characters prints whole
INT_OF_1000_BITS = 2**999
REPR_OF_200_CHARACTERS = [["x" * 28] * 4, ["y" * 28] * 2, ""]
# one past each: a bit count in place of the digits, and the repr cut to 197
# characters and "..."
REPR_OF_201_CHARACTERS = [["x" * 28] * 4, ["y" * 28] * 2, "z"]


@pytest.mark.parametrize(
    "value, text",
    [(True, "True"), ("1e5", "'1e5'"), (165.5, "165.5"), (-1, "-1"), (np.float64(np.nan), "nan"),
     (np.int64(-1), "-1"), (None, "None"), ([1.0], "[1.0]"),
     pytest.param(INT_OF_1000_BITS, "535754303593133660...2193418602834034688", id="int_of_1000_bits"),
     pytest.param(REPR_OF_200_CHARACTERS, repr(REPR_OF_200_CHARACTERS), id="repr_of_200_characters"),
     pytest.param(2 * INT_OF_1000_BITS, "<int of 1001 bits>", id="int_of_1001_bits"),
     pytest.param(REPR_OF_201_CHARACTERS, repr(REPR_OF_201_CHARACTERS)[:197] + "...",
                  id="repr_of_201_characters")],
)
def test_ordinary_values_print_as_before(value, text):
    assert shown(value) == text


def test_a_rejected_value_prints_in_at_most_200_characters():
    fanout = 0
    for _ in range(30):
        fanout = [fanout] * 10
    assert len(shown(fanout)) <= 200
    assert len(shown("x" * 10_000)) <= 200
    assert len(shown({"k" * 100 + str(i): "v" * 100 for i in range(100)})) <= 200


@pytest.mark.parametrize(
    "cls, name, value, rule",
    [
        (_SECTIONS["channel"], "distance", 0.0, "positive"),
        (_SECTIONS["channel"], "noise_rms", -0.1, ">= 0"),
        (_SECTIONS["channel"], "coupling", 1.2, r"in \(0, 1\]"),
        (Echo, "gain", 1.0, r"in \[0, 1\)"),
        (_SECTIONS["sim"], "harvester_decimation", 0, ">= 1"),
        (_SECTIONS["sim"], "seed", -1, ">= 0"),
        (_SECTIONS["frame"], "uuid", 256, r"in \[0, 255\]"),
    ],
)
def test_range_violations_name_the_field_and_the_rule(cls, name, value, rule):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be {rule}, got"):
        build(cls, **{name: value})


def test_the_walk_finds_every_config_class():
    assert {*CLASSES, sim._SweepTrials, sim._Bisection} <= set(CONFIG_CLASSES)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_config_instances_carry_no_dict(cls):
    assert not hasattr(build(cls), "__dict__")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_scenario_carries_no_dict(name):
    assert not hasattr(PRESETS[name], "__dict__")


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_setting_an_unknown_field_raises(cls):
    config = build(cls)
    with pytest.raises(AttributeError):
        config.misspelled = 1.0
    assert config == build(cls)


def test_a_misspelled_field_raises_rather_than_being_ignored():
    with pytest.raises(AttributeError, match="nosie_rms"):
        ChannelModel().nosie_rms = 0.2
    sc = load_scenario(preset_path("paper_fig5"))
    with pytest.raises(AttributeError, match="sead"):
        sc.sim.sead = 1
    with pytest.raises(AttributeError, match="chanel"):
        sc.chanel = ChannelModel()
    assert sc == PRESETS["paper_fig5"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_survives_pickle_deepcopy_and_replace(name):
    sc = PRESETS[name]
    copies = [pickle.loads(pickle.dumps(sc, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(sc), dataclasses.replace(sc)]
    for copied in copies:
        assert copied == sc
        assert copied is not sc
