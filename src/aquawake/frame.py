"""Wake-up frame synthesis.

A frame is a continuous carrier preamble (energy delivery), an optional
silent guard while the receiver settles, then ten OOK bit slots: two sync
bits fixed at one followed by the 8-bit UUID, most significant bit first.
A 1-bit is a carrier burst at the start of its slot, a 0-bit is true
silence; the transmitter emits no energy outside bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Byte, Config, Fraction, NonNegative, Positive
from .errors import ConfigurationError
from .waveform import SignalUnit, Waveform

SYNC_BITS = (1, 1)
UUID_BITS = 8
FRAME_BITS = len(SYNC_BITS) + UUID_BITS


def _bits(uuid: int) -> tuple[int, ...]:
    payload = tuple((uuid >> (UUID_BITS - 1 - k)) & 1 for k in range(UUID_BITS))
    return SYNC_BITS + payload


@dataclass(slots=True)
class WakeupFrame(Config):
    uuid: Byte
    bit_rate: Positive = 200.0  # bits/s
    preamble_duration: NonNegative = 0.050  # s of continuous carrier
    guard_duration: NonNegative = 0.0  # s of silence between preamble and data

    @property
    def bit_period(self) -> float:
        return 1.0 / self.bit_rate

    def bits(self) -> tuple[int, ...]:
        """Sync bits then UUID bits, MSB first."""
        return _bits(self.uuid)

    @property
    def duration(self) -> float:
        return self.preamble_duration + self.guard_duration + FRAME_BITS / self.bit_rate


@dataclass(slots=True)
class ModulationParams(Config):
    carrier_freq: Positive = 28_000.0  # Hz
    sample_rate: float = 224_000.0  # Hz, >= 4x carrier
    pulse_duty: Fraction = 0.5  # fraction of bit slot a 1-burst occupies
    tx_amplitude: NonNegative = 1.0  # source amplitude, pressure units

    def __post_init__(self) -> None:
        Config.__post_init__(self)
        if self.sample_rate < 4 * self.carrier_freq:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate:g} is below 4x carrier_freq "
                f"({4 * self.carrier_freq:g}); waveform would alias"
            )


@lru_cache(maxsize=64)
def _plan(sr: float, bit_rate: float, preamble: float, guard: float, duty: float, uuid: int):
    """The frame's length in samples, its carrier table's length and the (first
    sample, length) of each carrier run, worked out once per frame; a burst is
    clamped to its slot so rounding at duty ~ 1 cannot leak into a 0-slot."""
    spb = sr / bit_rate  # samples per bit, fractional
    n_pre, burst_len = round(preamble * sr), round(duty * spb)
    data_start = n_pre + round(guard * sr)
    slot_starts = [data_start + round(k * spb) for k in range(FRAME_BITS + 1)]
    bursts = zip(slot_starts, slot_starts[1:], _bits(uuid))
    runs = ((0, n_pre),) + tuple((s, min(burst_len, e - s)) for s, e, bit in bursts if bit)
    return slot_starts[-1], max(n_pre, burst_len), runs


def _frame_plan(frame: WakeupFrame, params: ModulationParams):
    return _plan(params.sample_rate, frame.bit_rate, frame.preamble_duration,
                 frame.guard_duration, params.pulse_duty, frame.uuid)


# a few designs' carriers: a table holds about 90 KB for a 50 ms preamble at 224 kHz
@lru_cache(maxsize=4)
def _unit_sine(omega: float, length: int) -> np.ndarray:
    """sin(omega * k) for k < length, read-only, since every caller shares it."""
    table = np.sin(omega * np.arange(length))
    table.flags.writeable = False
    return table


def frame_length(frame: WakeupFrame, params: ModulationParams) -> int:
    """Samples in the modulated frame, up to the end of its last bit slot."""
    return _frame_plan(frame, params)[0]


def modulate_frame(
    frame: WakeupFrame, params: ModulationParams, start: int = 0, stop: int | None = None
) -> Waveform:
    """Synthesize samples `[start, stop)` of the transmit pressure waveform for one frame.

    Slot boundaries land on rounded sample indices; every 1-burst restarts
    the carrier at zero phase and uses the same sample count, so all bursts
    are sample-identical. 0-slots are written as exact zeros, and so is
    every sample past the frame's `frame_length(frame, params)`, where
    `stop=None` ends. The preamble and the bursts are prefixes of one cached
    carrier table, scaled by `tx_amplitude` on each call, so consecutive
    ranges give the bytes of one call over their union.
    """
    sr = params.sample_rate
    length, table, runs = _frame_plan(frame, params)
    if stop is None:
        stop = length
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got start {start} and stop {stop}")
    carrier = _unit_sine(2.0 * np.pi * params.carrier_freq / sr, table)
    amp = params.tx_amplitude
    out = np.zeros(stop - start, dtype=np.float64)
    for s, n in runs:
        lo, hi = max(start, s), min(stop, s + n)
        if lo < hi:
            np.multiply(carrier[lo - s : hi - s], amp, out=out[lo - start : hi - start])
    # a finite amplitude times a unit sine is finite: no rescan
    return Waveform._of_finite(sr, out, SignalUnit.PRESSURE)


def frame_energy(frame: WakeupFrame, params: ModulationParams) -> float:
    """Transmit energy of the modulated frame (amplitude^2 * s)."""
    return modulate_frame(frame, params).energy()
