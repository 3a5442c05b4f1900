"""Whole runs against `reference_engine.reference_run`, field by field.

Every `ScenarioResult` field of `run_scenario` must equal the reference
run's: the bytes of each array and of the edge trace, the `repr` of each
other value. This one check pins the whole chain, from the transmit to the
wake decision, through no seam of `sim`: on drawn runs around the three
presets (`reference_engine.scenarios`), and on the presets at 20, 50, 200
and 1000 bps, with no hysteresis and with the preset's.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from aquawake import run_scenario
from reference_engine import PRESETS, at_bit_rate, reference_run, scenarios


def assert_matches_the_reference_run(sc):
    result, reference = run_scenario(sc), reference_run(sc)
    for name, value in vars(result).items():
        other = getattr(reference, name)
        if name == "edge_trace":
            for array in ("edge_times", "edge_levels"):
                assert getattr(value, array).tobytes() == getattr(other, array).tobytes(), array
        elif isinstance(value, np.ndarray):
            assert value.tobytes() == other.tobytes(), name
        else:
            assert repr(value) == repr(other), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scenarios())
def test_a_run_matches_the_reference_run(sc):
    assert_matches_the_reference_run(sc)


@pytest.mark.parametrize("hysteresis", ["zero", "preset"])
@pytest.mark.parametrize("bit_rate", [20.0, 50.0, 200.0, 1000.0])
@pytest.mark.parametrize("name", list(PRESETS))
def test_a_preset_at_a_bit_rate_matches_the_reference_run(name, bit_rate, hysteresis):
    sc = PRESETS[name]
    level = 0.0 if hysteresis == "zero" else sc.resolved_demod().hysteresis
    assert_matches_the_reference_run(at_bit_rate(sc, bit_rate, level))
