"""Property test: any parsed document loads or fails as a SchemaError.

A document that loads holds only ints in int fields and only finite, non-bool
numbers in float fields.
"""

import dataclasses
import math
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import Scenario, SchemaError, scenario_from_dict
from aquawake.scenario_io import _SECTIONS


def mostly(strategy, other, one_in=10):
    """Draw from `other` one time in `one_in`, else from `strategy`."""
    return st.sampled_from([strategy] * (one_in - 1) + [other]).flatmap(lambda s: s)


odd = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.integers(),
    st.integers(min_value=2**1024),  # beyond float range
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.lists(st.floats(), max_size=2),
)
# plausible magnitudes get past the per-field validators often enough to
# reach a built Scenario
scalars = mostly(st.floats(min_value=1e-6, max_value=1e6) | st.integers(0, 0xFF), odd)
echo = st.fixed_dictionaries(
    {}, optional={"extra_path": scalars, "gain": scalars, "lag": scalars}
)
echoes = mostly(st.lists(mostly(echo, odd), max_size=2), odd)


def mapping(required, optional, unknown):
    """Required keys, any of the optional ones and, one time in ten, `unknown`."""
    return mostly(
        st.fixed_dictionaries(required, optional=optional),
        st.fixed_dictionaries({**required, unknown: scalars}, optional=optional),
    )


def section(cls):
    fields = {f.name: echoes if f.name == "echoes" else scalars
              for f in dataclasses.fields(cls)}
    required = {
        f.name: fields.pop(f.name)
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return mostly(mapping(required, fields, "unknown_key"), odd, one_in=50)


sections = {name: section(cls) for name, cls in _SECTIONS.items()}
documents = mostly(
    mapping(
        {"frame": sections.pop("frame"), "decoder": sections.pop("decoder")},
        sections,
        "unknown_section",
    ),
    odd,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_loader_returns_a_scenario_or_raises_schema_error(doc):
    try:
        scenario = scenario_from_dict(doc)
    except SchemaError:
        return
    assert isinstance(scenario, Scenario)
    for name in _SECTIONS:
        section = getattr(scenario, name)
        for obj in [section, *getattr(section, "echoes", [])]:
            assert_numbers_match_annotations(obj)


def assert_numbers_match_annotations(obj):
    for name, hint in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if hint is int:
            assert isinstance(value, int) and not isinstance(value, bool), (name, value)
        elif hint is float:
            assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
            assert math.isfinite(value), (name, value)
