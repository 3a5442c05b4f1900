import math

import numpy as np
import pytest

from aquawake import (
    ConfigurationError,
    DecoderConfig,
    DecoderPhase,
    DecoderState,
    LevelSample,
    ModulationParams,
    RisingEdge,
    WakeupFrame,
    decoder_feed,
    frame_energy,
    modulate_frame,
    wake_output,
)
from helpers import frame_bits

# at amplitude 1, duty 0.5, 200 bps, 224 kHz: each burst is 560 samples of
# sin(pi/4 * n), whose squared sum is exactly 280 (whole carrier periods)
E_BURST = 280.0 / 224000.0
E_PREAMBLE_50MS = 5600.0 / 224000.0


def slot_bounds(frame: WakeupFrame, params: ModulationParams) -> list[tuple[int, int]]:
    sr = params.sample_rate
    spb = sr / frame.bit_rate
    start = round(frame.preamble_duration * sr) + round(frame.guard_duration * sr)
    edges = [start + round(k * spb) for k in range(11)]
    return list(zip(edges[:-1], edges[1:]))


def burst_activity(samples: np.ndarray) -> np.ndarray:
    # bridge the isolated exact zeros of the carrier inside a burst
    return np.convolve(np.abs(samples), np.ones(5), mode="same") > 0


def test_bits_are_two_sync_ones_then_uuid_msb_first():
    assert WakeupFrame(uuid=0xA5).bits() == (1, 1, 1, 0, 1, 0, 0, 1, 0, 1)
    assert WakeupFrame(uuid=0x00).bits() == (1, 1) + (0,) * 8
    assert WakeupFrame(uuid=0xFF).bits() == (1,) * 10


@pytest.mark.parametrize("uuid", [-1, 256, 1000])
def test_uuid_must_fit_eight_bits(uuid):
    with pytest.raises(ConfigurationError):
        WakeupFrame(uuid=uuid)


def test_frame_field_validation():
    with pytest.raises(ConfigurationError):
        WakeupFrame(uuid=1, bit_rate=0.0)
    with pytest.raises(ConfigurationError):
        WakeupFrame(uuid=1, preamble_duration=-0.1)
    with pytest.raises(ConfigurationError):
        WakeupFrame(uuid=1, guard_duration=-0.1)


def test_modulation_params_validation():
    with pytest.raises(ConfigurationError):
        ModulationParams(sample_rate=100_000.0)  # below 4x carrier
    assert ModulationParams(sample_rate=112_000.0).sample_rate == 112_000.0  # at 4x: accepted
    with pytest.raises(ConfigurationError):
        ModulationParams(pulse_duty=0.0)
    with pytest.raises(ConfigurationError):
        ModulationParams(pulse_duty=1.1)
    with pytest.raises(ConfigurationError):
        ModulationParams(tx_amplitude=-1.0)


def test_duration_is_preamble_plus_guard_plus_ten_slots():
    assert WakeupFrame(uuid=0xA5, preamble_duration=0.050).duration == pytest.approx(0.100)
    assert WakeupFrame(
        uuid=0xA5, preamble_duration=0.050, guard_duration=0.0025
    ).duration == pytest.approx(0.1025)


@pytest.mark.parametrize("bit_rate", [100.0, 200.0, 300.0, 400.0])
@pytest.mark.parametrize("preamble", [0.0, 0.050])
def test_sample_count_matches_duration(bit_rate, preamble):
    frame = WakeupFrame(uuid=0xA5, bit_rate=bit_rate, preamble_duration=preamble)
    params = ModulationParams()
    wf = modulate_frame(frame, params)
    expected = round(params.sample_rate * (preamble + 10.0 / bit_rate))
    assert abs(len(wf.samples) - expected) <= 1


def test_zero_bit_slots_are_exactly_silent():
    frame = WakeupFrame(uuid=0xA5, preamble_duration=0.0)
    wf = modulate_frame(frame, ModulationParams())
    for bit, (a, b) in zip(frame.bits(), slot_bounds(frame, ModulationParams())):
        if bit == 0:
            assert np.all(wf.samples[a:b] == 0.0)
        else:
            assert np.any(wf.samples[a:b] != 0.0)


def test_zero_uuid_emits_nothing_outside_sync_slots():
    frame = WakeupFrame(uuid=0x00, preamble_duration=0.0)
    wf = modulate_frame(frame, ModulationParams())
    bounds = slot_bounds(frame, ModulationParams())
    assert np.all(wf.samples[bounds[2][0] :] == 0.0)
    assert wf.energy() > 0.0


def test_one_bit_slot_rms_is_carrier_rms_times_sqrt_duty():
    params = ModulationParams(tx_amplitude=2.0)
    frame = WakeupFrame(uuid=0xFF, preamble_duration=0.0)
    wf = modulate_frame(frame, params)
    carrier_rms = params.tx_amplitude / np.sqrt(2.0)
    for a, b in slot_bounds(frame, params):
        rms = np.sqrt(np.mean(wf.samples[a:b] ** 2))
        assert rms == pytest.approx(carrier_rms * np.sqrt(0.5), rel=1e-12)


def test_all_bursts_are_sample_identical():
    params = ModulationParams()
    frame = WakeupFrame(uuid=0xFF, preamble_duration=0.0)
    wf = modulate_frame(frame, params)
    bounds = slot_bounds(frame, params)
    half = round(0.5 * params.sample_rate / frame.bit_rate)
    first = wf.samples[bounds[0][0] : bounds[0][0] + half]
    for a, _ in bounds[1:]:
        assert np.array_equal(wf.samples[a : a + half], first)


def test_full_duty_burst_cannot_leak_into_a_zero_slot():
    # 300 bps gives fractional samples per bit, the worst case for rounding
    params = ModulationParams(pulse_duty=1.0)
    frame = WakeupFrame(uuid=0xAA, bit_rate=300.0, preamble_duration=0.0)
    wf = modulate_frame(frame, params)
    for bit, (a, b) in zip(frame.bits(), slot_bounds(frame, params)):
        if bit == 0:
            assert np.all(wf.samples[a:b] == 0.0)


def test_frame_energy_closed_form():
    params = ModulationParams()
    assert frame_energy(
        WakeupFrame(uuid=0x00, preamble_duration=0.050), params
    ) == pytest.approx(E_PREAMBLE_50MS + 2 * E_BURST, rel=1e-12)
    assert frame_energy(
        WakeupFrame(uuid=0xA5, preamble_duration=0.050), params
    ) == pytest.approx(E_PREAMBLE_50MS + 6 * E_BURST, rel=1e-12)
    assert frame_energy(
        WakeupFrame(uuid=0x00, preamble_duration=0.0), params
    ) == pytest.approx(2 * E_BURST, rel=1e-12)


def test_frame_energy_difference_counts_one_bits():
    params = ModulationParams()
    e00 = frame_energy(WakeupFrame(uuid=0x00, preamble_duration=0.050), params)
    eff = frame_energy(WakeupFrame(uuid=0xFF, preamble_duration=0.050), params)
    assert eff > e00
    assert eff - e00 == pytest.approx(8 * E_BURST, rel=1e-12)


def test_frame_energy_scales_with_amplitude_squared():
    f = WakeupFrame(uuid=0xA5, preamble_duration=0.010)
    e1 = frame_energy(f, ModulationParams(tx_amplitude=1.0))
    e3 = frame_energy(f, ModulationParams(tx_amplitude=3.0))
    assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


def test_frame_energy_past_float_range_is_inf():
    # the squares overflow: inf, as the harvester's sums give, not a numpy warning
    energy = frame_energy(WakeupFrame(uuid=1), ModulationParams(tx_amplitude=1e200))
    assert energy == math.inf


def ideal_decode(wf, sample_rate: float, assigned: int) -> tuple[bool, int | None]:
    """Decode straight off the waveform's on/off activity, no analog chain."""
    active = burst_activity(wf.samples)
    starts = np.flatnonzero(np.diff(np.concatenate(([0], active.view(np.int8)))) == 1)
    times = starts / sample_rate
    cfg = DecoderConfig(assigned_uuid=assigned, sample_offset=0.4)
    state = decoder_feed(DecoderState(), cfg, RisingEdge(times[0]))
    state = decoder_feed(state, cfg, RisingEdge(times[1]))
    while state.phase is DecoderPhase.SAMPLING:
        due = state.next_sample_time
        level = bool(active[round(due * sample_rate)])
        state = decoder_feed(state, cfg, LevelSample(due, level))
    return wake_output(state), state.decoded_uuid


@pytest.mark.parametrize("bit_rate", [100.0, 200.0, 400.0])
def test_round_trip_all_uuids(bit_rate):
    """Every modulated frame decodes back to its own uuid from ideal edges."""
    params = ModulationParams()
    for uuid in range(256):
        frame = WakeupFrame(uuid=uuid, bit_rate=bit_rate, preamble_duration=0.0)
        wf = modulate_frame(frame, params)
        woke, decoded = ideal_decode(wf, params.sample_rate, assigned=uuid)
        assert woke and decoded == uuid, f"uuid {uuid:#04x} at {bit_rate} bps"


def test_frame_bits_helper_agrees_with_frame():
    for uuid in (0x00, 0x01, 0x80, 0xA5, 0xFF):
        assert tuple(frame_bits(uuid)) == WakeupFrame(uuid=uuid).bits()
