"""Property test: each stateful stage fed block by block equals one call over the whole signal.

`sim.run_scenario` feeds the receive chain in blocks of `sim.BLOCK_SAMPLES`
samples, each stage carrying its state from block to block, and modulates
for each block only the transmit its taps read. Here every stateful stage
(`propagate` with noise and two echoes, `transduce`, `bandpass`,
`envelope`, `comparator`) and `modulate_frame` are composed over blocks of
1, 7, the default harvester decimation, `BLOCK_SAMPLES` and all samples,
and must give the bytes of one call over the whole signal. Tiny blocks run
on short signals, or short ranges of a frame, only, so that each example
stays about a hundred calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import (
    ChannelModel,
    DemodParams,
    Echo,
    ModulationParams,
    SignalUnit,
    SimOptions,
    TransducerModel,
    Waveform,
    WakeupFrame,
    bandpass,
    comparator,
    envelope,
    modulate_frame,
    propagate,
    sim,
    transduce,
)
from aquawake import frame as frame_module
from aquawake.frontend import ComparatorState
from reference_engine import sine_frame

SR = 224_000.0
DECIMATION = SimOptions().harvester_decimation
# block size -> longest signal drawn for it; None is one block of the whole signal
MAX_SAMPLES = {1: 100, 7: 700, DECIMATION: 6_400, sim.BLOCK_SAMPLES: 30_000, None: 30_000}
BLOCK_SIZES = pytest.mark.parametrize("size", list(MAX_SAMPLES), ids=str)
EXAMPLES = settings(max_examples=6, deadline=None, derandomize=True)


def spans(n: int, size: int | None) -> list[tuple[int, int]]:
    size = size or max(n, 1)
    return [(start, min(start + size, n)) for start in range(0, n, size)]


@st.composite
def signals(draw, size):
    """A length and the seed of a signal: carrier bursts of random level and
    length over noise, so that filters ring and the comparator switches."""
    return draw(st.integers(1, MAX_SAMPLES[size])), draw(st.integers(0, 2**32 - 1))


def bursts(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    top = max(n // 8, 2)  # bursts and gaps of up to an eighth of the signal
    lengths = rng.integers(1, top, size=2 * n // top + 2)
    levels = 10.0 ** rng.uniform(-3.0, 1.0, size=len(lengths)) * (rng.random(len(lengths)) < 0.7)
    level = np.repeat(levels, lengths)[:n]
    level = np.pad(level, (0, n - len(level)))
    carrier = np.sin(2.0 * np.pi * rng.uniform(20e3, 36e3) / SR * np.arange(n))
    return level * carrier + 1e-3 * rng.normal(size=n)


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@BLOCK_SIZES
@EXAMPLES
@given(data=st.data())
def test_transduce_in_blocks_is_one_call(size, data):
    n, seed = data.draw(signals(size))
    x = bursts(n, seed)
    model = TransducerModel(
        resonance_freq=data.draw(st.floats(20e3, 40e3)),
        bandwidth=data.draw(st.floats(500.0, 8e3)),
        sensitivity=data.draw(st.floats(0.1, 10.0)),
    )
    want = transduce(Waveform(SR, x, SignalUnit.PRESSURE), model).samples
    zi = np.zeros(2)
    got = [transduce(Waveform(SR, x[a:b], SignalUnit.PRESSURE), model, zi).samples
           for a, b in spans(n, size)]
    assert_same_bytes(np.concatenate(got), want)


@BLOCK_SIZES
@EXAMPLES
@given(data=st.data(), bit_rate=st.floats(50.0, 1_000.0), q=st.floats(1.0, 30.0))
def test_bandpass_in_blocks_is_one_call(size, data, bit_rate, q):
    n, seed = data.draw(signals(size))
    x = bursts(n, seed)
    params = DemodParams.for_bit_rate(bit_rate, bandpass_q=q)
    want = bandpass(Waveform(SR, x), params).samples
    zi = np.zeros(2)
    got = [bandpass(Waveform(SR, x[a:b]), params, zi).samples for a, b in spans(n, size)]
    assert_same_bytes(np.concatenate(got), want)


@BLOCK_SIZES
@EXAMPLES
@given(data=st.data(), bit_rate=st.floats(50.0, 1_000.0))
def test_envelope_in_blocks_is_one_call(size, data, bit_rate):
    n, seed = data.draw(signals(size))
    x = np.abs(bursts(n, seed))
    params = DemodParams.for_bit_rate(bit_rate)
    want = envelope(Waveform(SR, x), params).samples
    zi = np.zeros(1)
    got = [envelope(Waveform(SR, x[a:b]), params, zi).samples for a, b in spans(n, size)]
    assert_same_bytes(np.concatenate(got), want)


@BLOCK_SIZES
@EXAMPLES
@given(data=st.data(), bit_rate=st.floats(50.0, 1_000.0), hysteresis=st.floats(0.0, 0.05))
def test_comparator_in_blocks_is_one_call(size, data, bit_rate, hysteresis):
    n, seed = data.draw(signals(size))
    # the envelope of the bursts: slow rises and falls that cross the band
    x = envelope(Waveform(SR, np.abs(bursts(n, seed))), DemodParams.for_bit_rate(4 * bit_rate))
    params = DemodParams.for_bit_rate(bit_rate, hysteresis=hysteresis)
    want = comparator(x, params)
    state = ComparatorState()
    got = [comparator(Waveform(SR, x.samples[a:b]), params, state) for a, b in spans(n, size)]
    assert_same_bytes(np.concatenate([t.edge_times for t in got]), want.edge_times)
    assert_same_bytes(np.concatenate([t.edge_levels for t in got]), want.edge_levels)
    assert state.offset == n


@BLOCK_SIZES
@EXAMPLES
@given(
    data=st.data(),
    distance=st.floats(0.1, 0.5),
    extra_paths=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
    gains=st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    noise_rms=st.floats(1e-3, 1.0),
)
def test_propagate_in_blocks_is_one_call(size, data, distance, extra_paths, gains, noise_rms):
    n_tx, seed = data.draw(signals(size))
    tx = Waveform(SR, bursts(n_tx, seed), SignalUnit.PRESSURE)
    echoes = [Echo(extra_path=p, gain=g) for p, g in zip(extra_paths, gains)]
    channel = ChannelModel(distance=distance, echoes=echoes, noise_rms=noise_rms)
    # an int seed starts the generator that the blocks draw from in turn
    want = propagate(tx, channel, seed).samples
    n = len(want)
    rng = np.random.default_rng(seed)
    got = [propagate(tx, channel, rng, a, b).samples for a, b in spans(n, size)]
    assert_same_bytes(np.concatenate(got), want)


def test_propagate_rejects_a_range_outside_its_output():
    tx = Waveform(SR, np.ones(100), SignalUnit.PRESSURE)
    n = len(propagate(tx, ChannelModel()).samples)
    for start, stop in [(-1, 10), (10, 5), (0, n + 1)]:
        with pytest.raises(ValueError, match=f"^need 0 <= start <= stop <= {n}, got"):
            propagate(tx, ChannelModel(), 0, start, stop)
    # an int seed would draw the noise of sample 0 for a later range
    noisy = ChannelModel(noise_rms=0.1)
    with pytest.raises(ValueError, match="^an int seed draws noise from sample 0; pass a Generator"):
        propagate(tx, noisy, 3, 10, 20)
    propagate(tx, noisy, np.random.default_rng(3), 10, 20)
    propagate(tx, ChannelModel(noise_rms=0.0), 3, 10, 20)


@st.composite
def designs(draw):
    frame = WakeupFrame(
        uuid=draw(st.integers(0, 0xFF)),
        bit_rate=draw(st.floats(100.0, 4_000.0)),
        preamble_duration=draw(st.just(0.0) | st.floats(0.0, 0.05)),
        guard_duration=draw(st.just(0.0) | st.floats(0.0, 0.01)),
    )
    params = ModulationParams(
        pulse_duty=draw(st.just(1.0) | st.floats(0.01, 1.0)),
        # 0 keeps the -0.0 of every negative carrier sample
        tx_amplitude=draw(st.just(0.0) | st.floats(0.0, 100.0)),
    )
    return frame, params


@BLOCK_SIZES
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), design=designs())
def test_modulate_frame_in_blocks_is_one_call_then_silence(size, data, design):
    frame, params = design
    whole = modulate_frame(frame, params).samples
    assert_same_bytes(whole, sine_frame(frame, params))
    # a range of up to MAX_SAMPLES[size] samples of the frame and the silence after it
    n = len(whole) + data.draw(st.integers(0, 300))
    length = min(MAX_SAMPLES[size], n) if size else n
    start = data.draw(st.integers(0, n - length))
    want = np.concatenate([whole, np.zeros(n - len(whole))])[start : start + length]
    got = [modulate_frame(frame, params, start + a, start + b).samples
           for a, b in spans(length, size)]
    assert_same_bytes(np.concatenate(got), want)


def test_writing_into_a_transmit_leaves_the_next_call_unchanged():
    frame, params = WakeupFrame(uuid=0xA5), ModulationParams()
    want = modulate_frame(frame, params).samples.copy()
    # the preamble and a burst, whole and as a range
    modulate_frame(frame, params).samples[:] = 7.0
    modulate_frame(frame, params, 11_000, 12_000).samples[:] = 7.0
    assert_same_bytes(modulate_frame(frame, params).samples, want)
    # the carrier table every call reads is read-only
    omega = 2.0 * np.pi * params.carrier_freq / params.sample_rate
    with pytest.raises(ValueError, match="read-only"):
        frame_module._unit_sine(omega, 11_200)[0] = 7.0


def test_modulate_frame_rejects_a_backward_range():
    frame, params = WakeupFrame(uuid=0xA5), ModulationParams()
    for start, stop in [(-1, 10), (10, 5)]:
        with pytest.raises(ValueError, match="^need 0 <= start <= stop, got"):
            modulate_frame(frame, params, start, stop)
    assert len(modulate_frame(frame, params, 10**6, 10**6 + 5).samples) == 5
