"""Property test: no run ends with a number beyond float range.

Each example sets one float field of `paper_fig5` (its demod section taken
from `DemodParams.for_bit_rate`) to a log-uniform magnitude between 1e-300
and 1e300, negative half the time for a field that declares no range. The
run either returns with every result float finite, or raises a
ConfigurationError that names the field. Warnings are errors, and an
InvariantError or any other exception fails the example. Below the draw's
range, a band-pass Q near 0 must raise a ConfigurationError that names the
fields setting that band-pass.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import ConfigurationError, DemodParams, load_scenario, run_scenario
from aquawake.cli import preset_path
from aquawake.config import _checks

BASE = load_scenario(preset_path("paper_fig5"))
BASE = dataclasses.replace(BASE, demod=DemodParams.for_bit_rate(BASE.frame.bit_rate))

# (section, field, signed) for every float field; signed where no range is declared
FLOAT_FIELDS = [
    (section.name, name, holds is None)
    for section in dataclasses.fields(BASE)
    for name, kind, _, holds in _checks(type(getattr(BASE, section.name)))
    if kind is float
]


@st.composite
def perturbations(draw):
    section, name, signed = draw(st.sampled_from(FLOAT_FIELDS))
    value = 10.0 ** draw(st.floats(min_value=-300.0, max_value=300.0))
    if signed and draw(st.booleans()):
        value = -value
    return section, name, value


def test_every_section_contributes_float_fields():
    assert {section for section, _, _ in FLOAT_FIELDS} == {
        f.name for f in dataclasses.fields(BASE)
    }


@pytest.mark.filterwarnings("error")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(perturbations())
def test_a_run_ends_finite_or_names_the_field(perturbation):
    section, name, value = perturbation
    try:
        part = dataclasses.replace(getattr(BASE, section), **{name: value})
        result = run_scenario(dataclasses.replace(BASE, **{section: part}))
    except ConfigurationError as exc:
        assert name in str(exc), f"{section}.{name}={value:g}: {exc}"
        return
    fields = vars(result).values()
    floats = [v for v in fields if isinstance(v, float)]
    arrays = [v for v in fields if isinstance(v, np.ndarray)] + [result.edge_trace.edge_times]
    assert all(math.isfinite(v) for v in floats), f"{section}.{name}={value:g}"
    assert all(np.isfinite(a).all() for a in arrays), f"{section}.{name}={value:g}"


# a band-pass Q this near 0 makes its alpha = sin(w0) / (2 Q) inf, or 0 / 0;
# the transducer's Q is resonance_freq / bandwidth
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "section, name, value, fields",
    [
        ("demod", "bandpass_q", 1e-310, ("demod.bandpass_center", "demod.bandpass_q")),
        ("demod", "bandpass_q", 1e-320, ("demod.bandpass_center", "demod.bandpass_q")),
        ("demod", "bandpass_q", 5e-324, ("demod.bandpass_center", "demod.bandpass_q")),
        ("transducer", "resonance_freq", 5e-324,
         ("transducer.resonance_freq", "transducer.bandwidth")),
    ],
    ids=["bandpass_q=1e-310", "bandpass_q=1e-320", "bandpass_q=5e-324", "resonance_freq=5e-324"],
)
def test_a_band_pass_q_near_zero_names_its_fields(section, name, value, fields):
    part = dataclasses.replace(getattr(BASE, section), **{name: value})
    with pytest.raises(ConfigurationError) as caught:
        run_scenario(dataclasses.replace(BASE, **{section: part}))
    message = str(caught.value)
    assert all(f in message for f in fields), message
    assert "beyond float range" in message, message
