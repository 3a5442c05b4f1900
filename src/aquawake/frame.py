"""Wake-up frame synthesis.

A frame is a continuous carrier preamble (energy delivery), an optional
silent guard while the receiver settles, then ten OOK bit slots: two sync
bits fixed at one followed by the 8-bit UUID, most significant bit first.
A 1-bit is a carrier burst at the start of its slot, a 0-bit is true
silence; the transmitter emits no energy outside bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Byte, Config, Fraction, NonNegative, Positive
from .errors import ConfigurationError
from .waveform import SignalUnit, Waveform

SYNC_BITS = (1, 1)
UUID_BITS = 8
FRAME_BITS = len(SYNC_BITS) + UUID_BITS


@dataclass
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
        payload = tuple((self.uuid >> (UUID_BITS - 1 - k)) & 1 for k in range(UUID_BITS))
        return SYNC_BITS + payload

    @property
    def duration(self) -> float:
        return self.preamble_duration + self.guard_duration + FRAME_BITS / self.bit_rate


@dataclass
class ModulationParams(Config):
    carrier_freq: Positive = 28_000.0  # Hz
    sample_rate: float = 224_000.0  # Hz, >= 4x carrier
    pulse_duty: Fraction = 0.5  # fraction of bit slot a 1-burst occupies
    tx_amplitude: NonNegative = 1.0  # source amplitude, pressure units

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sample_rate < 4 * self.carrier_freq:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate} is below 4x carrier "
                f"({4 * self.carrier_freq}); waveform would alias"
            )


def modulate_frame(frame: WakeupFrame, params: ModulationParams) -> Waveform:
    """Synthesize the transmit pressure waveform for one frame.

    Slot boundaries land on rounded sample indices; every 1-burst restarts
    the carrier at zero phase and uses the same sample count, so all bursts
    are sample-identical. 0-slots are written as exact zeros.
    """
    sr = params.sample_rate
    spb = sr / frame.bit_rate  # samples per bit, fractional
    n_pre = round(frame.preamble_duration * sr)
    n_guard = round(frame.guard_duration * sr)
    data_start = n_pre + n_guard
    slot_starts = [data_start + round(k * spb) for k in range(FRAME_BITS + 1)]
    total = slot_starts[-1]

    out = np.zeros(total, dtype=np.float64)
    omega = 2.0 * np.pi * params.carrier_freq / sr
    amp = params.tx_amplitude

    if n_pre:
        out[:n_pre] = amp * np.sin(omega * np.arange(n_pre))

    burst_len = round(params.pulse_duty * spb)
    burst = amp * np.sin(omega * np.arange(burst_len))
    for k, bit in enumerate(frame.bits()):
        if not bit:
            continue
        start = slot_starts[k]
        # clamp to the slot so rounding at duty ~ 1 cannot leak into a 0-slot
        n = min(burst_len, slot_starts[k + 1] - start)
        out[start : start + n] = burst[:n]

    return Waveform(sample_rate=sr, samples=out, unit=SignalUnit.PRESSURE)


def frame_energy(frame: WakeupFrame, params: ModulationParams) -> float:
    """Transmit energy of the modulated frame (amplitude^2 * s)."""
    return modulate_frame(frame, params).energy()
