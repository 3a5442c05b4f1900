"""Property test: the two stages that skip the rescan of their output give finite samples.

`modulate_frame` (a finite amplitude times a unit sine) and `rectify`
(|x| less a finite drop, clamped at 0) build their `Waveform` without the
public constructor's `np.isfinite` scan, since their arithmetic cannot
leave float range on a finite input. Here that premise is drawn at the
edges of float range: +-DBL_MAX, subnormals, +-0.0, any `RectifierModel`
and any finite `tx_amplitude`. The stages whose output can overflow
(`propagate`, `transduce`, `bandpass`) still name it when called directly.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import (
    ChannelModel,
    DemodParams,
    ModulationParams,
    RectifierModel,
    SignalRangeError,
    SignalUnit,
    TransducerModel,
    Waveform,
    WakeupFrame,
    bandpass,
    modulate_frame,
    propagate,
    rectify,
    transduce,
)

SR = 224_000.0
DBL_MAX = sys.float_info.max
EDGES = [DBL_MAX, -DBL_MAX, 5e-324, -5e-324, sys.float_info.min, 0.0, -0.0, 1.0, -1.0]
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

finite = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.sampled_from([0.0, 5e-324, DBL_MAX]) | st.floats(0.0, DBL_MAX)


@st.composite
def rectifiers(draw):
    diode_drop = draw(non_negative)
    residual_drop = draw(st.sampled_from([0.0, diode_drop]) | st.floats(0.0, diode_drop))
    return RectifierModel(
        diode_drop=diode_drop, threshold_voltage=draw(non_negative), residual_drop=residual_drop
    )


def assert_finite_float64(wave: Waveform) -> None:
    assert wave.samples.dtype == np.float64 and wave.samples.ndim == 1
    assert np.isfinite(wave.samples).all()


@PROPERTY
@given(samples=st.lists(finite, max_size=64), model=rectifiers())
def test_rectify_of_finite_samples_is_finite(samples, model):
    out = rectify(Waveform(SR, samples), model)
    assert_finite_float64(out)
    assert out.sample_rate == SR and out.unit is SignalUnit.VOLTS
    assert len(out.samples) == len(samples) and (out.samples >= 0).all()


@PROPERTY
@given(
    amplitude=non_negative,
    uuid=st.integers(0, 0xFF),
    bit_rate=st.floats(1_000.0, 4_000.0),
    preamble=st.floats(0.0, 0.005),
    duty=st.floats(0.01, 1.0),
    start=st.integers(0, 20_000),
    length=st.integers(0, 2_000),
)
def test_modulate_frame_at_any_finite_amplitude_is_finite(
    amplitude, uuid, bit_rate, preamble, duty, start, length
):
    frame = WakeupFrame(uuid=uuid, bit_rate=bit_rate, preamble_duration=preamble)
    params = ModulationParams(tx_amplitude=amplitude, pulse_duty=duty)
    whole = modulate_frame(frame, params)
    assert_finite_float64(whole)
    assert np.abs(whole.samples).max(initial=0.0) <= amplitude
    # a range that may run past the frame's end into silence
    part = modulate_frame(frame, params, start, start + length)
    assert_finite_float64(part)
    assert part.sample_rate == params.sample_rate and part.unit is SignalUnit.PRESSURE


def carrier(amplitude: float, n: int = 200) -> np.ndarray:
    return amplitude * np.sin(2.0 * np.pi * 28e3 / SR * np.arange(n))


@pytest.mark.parametrize(
    "stage",
    [
        # a 0.1 m direct path gains about 99x
        lambda: propagate(
            Waveform(SR, np.full(100, DBL_MAX), SignalUnit.PRESSURE), ChannelModel(distance=0.1)
        ),
        # a 1 m direct path keeps the transmit finite; noise near float max overflows the sum
        lambda: propagate(
            Waveform(SR, np.full(100, 1e308), SignalUnit.PRESSURE),
            ChannelModel(noise_rms=1e308),
            seed=1,
        ),
        lambda: transduce(
            Waveform(SR, carrier(DBL_MAX), SignalUnit.PRESSURE), TransducerModel(sensitivity=10.0)
        ),
        lambda: bandpass(Waveform(SR, carrier(DBL_MAX)), DemodParams()),
    ],
    ids=["propagate", "propagate_noise", "transduce", "bandpass"],
)
def test_a_stage_whose_output_overflows_still_names_it(stage):
    # under the suite's error::RuntimeWarning filter: the stage itself keeps
    # numpy's overflow quiet, and its waveform check names the result
    with pytest.raises(SignalRangeError, match="^waveform contains non-finite samples$"):
        stage()

