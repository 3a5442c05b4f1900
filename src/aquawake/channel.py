"""Shallow-water acoustic channel.

The link is modeled as a sparse tap line: one direct path set by boundary
coupling, power-law spreading and a constant absorption rate at the carrier,
plus a discrete echo per configured reflector, plus white Gaussian noise.
Good enough to reproduce trend-level range and multipath behavior; it does
not try to be a ray tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config, Fraction, Gain, NonNegative, Positive, is_finite, shown
from .errors import ConfigurationError
from .waveform import Waveform

SOUND_SPEED = 1630.0  # m/s, ChannelModel's default and the echo helpers'


@dataclass(slots=True)
class Echo(Config):
    extra_path: Positive  # m traveled beyond the direct path
    gain: Gain  # amplitude relative to the direct arrival


@dataclass(slots=True)
class ChannelModel(Config):
    distance: Positive = 1.0  # m, transmitter to receiver
    sound_speed: Positive = SOUND_SPEED  # m/s
    spreading_exponent: float = 2.0  # amplitude ~ distance**-k
    absorption_db_per_km: float = 0.0  # dB/km at the carrier
    coupling: Fraction = 0.993  # boundary transmission coefficient, crossed twice
    echoes: list[Echo] = field(default_factory=list)
    noise_rms: NonNegative = 0.0  # additive white noise, pressure units

    def __post_init__(self) -> None:
        # not super(): a slotted dataclass is a new class, which breaks its methods' super()
        Config.__post_init__(self)
        self.echoes = [e if isinstance(e, Echo) else Echo(*e) for e in self.echoes]
        try:
            finite = is_finite(self.direct_gain())
        except OverflowError:  # a float power past float range raises instead of giving inf
            finite = False
        if not finite:
            raise ConfigurationError(
                f"direct-path gain overflows at distance {self.distance}, spreading_exponent "
                f"{self.spreading_exponent} and absorption_db_per_km {self.absorption_db_per_km}"
            )

    def direct_gain(self) -> float:
        """Amplitude factor applied to the direct arrival."""
        absorption_db = self.absorption_db_per_km * self.distance / 1000.0
        return (
            self.coupling**2
            * self.distance**-self.spreading_exponent
            * 10.0 ** (-absorption_db / 20.0)
        )


def echo_delay(extra_path: float, sound_speed: float = SOUND_SPEED) -> float:
    """Arrival lag of a reflection traveling extra_path beyond the direct ray."""
    if not extra_path > 0:
        raise ValueError(f"extra_path must be positive, got {shown(extra_path)}")
    if not sound_speed > 0:
        raise ValueError(f"sound_speed must be positive, got {shown(sound_speed)}")
    return extra_path / sound_speed


def critical_reflection_distance(bit_rate: float, sound_speed: float = SOUND_SPEED) -> float:
    """Extra path length at which an echo lags by exactly one bit period.

    Reflections with this detour land on the next bit's sampling instant and
    are the worst case for OOK decoding.
    """
    if not bit_rate > 0:
        raise ValueError(f"bit_rate must be positive, got {shown(bit_rate)}")
    if not sound_speed > 0:
        raise ValueError(f"sound_speed must be positive, got {shown(sound_speed)}")
    return sound_speed / bit_rate


def _taps(channel: ChannelModel, sample_rate: float) -> list[tuple[int, float]]:
    """(delay in samples, amplitude gain) per path, the direct path first."""
    g0 = channel.direct_gain()
    taps = [(channel.distance / channel.sound_speed, g0)]
    for e in channel.echoes:
        taps.append(
            ((channel.distance + e.extra_path) / channel.sound_speed, g0 * e.gain)
        )
    return [(round(t * sample_rate), gain) for t, gain in taps]


def propagate(
    tx: Waveform,
    channel: ChannelModel,
    seed: int | np.random.Generator = 0,
    start: int = 0,
    stop: int | None = None,
) -> Waveform:
    """Apply the channel to a transmit waveform; samples `[start, stop)` of the result.

    Each path contributes a delayed, scaled copy (delays rounded to the
    nearest sample); echo gains are relative to the attenuated direct
    arrival. The whole output is `len(tx.samples)` plus the latest tap's
    delay, so it holds that tap in full; `stop=None` runs to its end.
    `seed` drives the noise generator: an int seeds a new one, and a
    `np.random.Generator` is drawn from as it stands. Consecutive ranges
    drawn from one Generator equal one call over their union, bit for bit;
    a noisy range past sample 0 needs such a Generator, since an int seed
    would start its noise at sample 0.
    """
    sr = tx.sample_rate
    taps = _taps(channel, sr)
    n_tx = len(tx.samples)
    n = n_tx + max(d for d, _ in taps)
    if stop is None:
        stop = n
    if not 0 <= start <= stop <= n:
        raise ValueError(f"need 0 <= start <= stop <= {n}, got start {start} and stop {stop}")
    if start > 0 and channel.noise_rms > 0 and not isinstance(seed, np.random.Generator):
        raise ValueError("an int seed draws noise from sample 0; pass a Generator for start > 0")
    out = np.zeros(stop - start, dtype=np.float64)
    # a path gain, noise or sum that leaves float range gives inf or NaN
    # silently, as rng.normal does in C, and the waveform check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for d, gain in taps:
            lo, hi = max(start, d), min(stop, d + n_tx)
            if lo < hi:
                out[lo - start : hi - start] += gain * tx.samples[lo - d : hi - d]

        if channel.noise_rms > 0:
            # rng.normal(0.0, noise_rms, n) is 0.0 + noise_rms * z over these
            # draws; its 0.0 + only turns a -0.0 into +0.0, which out (never
            # -0.0) adds alike
            noise = np.random.default_rng(seed).standard_normal(stop - start)
            noise *= channel.noise_rms
            out += noise

    return Waveform(sample_rate=sr, samples=out, unit=tx.unit)
