"""Sampled waveform container used by every analog stage.

A Waveform is a plain float64 sample array plus the sample rate and a unit
tag. The unit tag is how stages catch plumbing mistakes: the transducer only
accepts pressure, everything downstream of it runs in volts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, SignalRangeError


class SignalUnit(Enum):
    PRESSURE = "pressure"
    VOLTS = "volts"


@dataclass
class Waveform:
    sample_rate: float  # Hz
    samples: np.ndarray  # float64
    unit: SignalUnit = SignalUnit.VOLTS

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigurationError("waveform samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise SignalRangeError("waveform contains non-finite samples")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate

    def energy(self) -> float:
        """Sum of squared samples over the sample rate (unit^2 * s)."""
        return float(np.sum(self.samples**2) / self.sample_rate)


@dataclass
class DigitalTrace:
    """Binary level trace described by its transitions.

    `edge_times[i]` is the instant the level becomes `edge_levels[i]`. The
    level before the first edge is `initial_level`. Times are seconds from
    trace start; `duration` bounds the observation window.
    """

    edge_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    edge_levels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    initial_level: bool = False
    duration: float = 0.0

    def __post_init__(self) -> None:
        self.edge_times = np.asarray(self.edge_times, dtype=np.float64)
        self.edge_levels = np.asarray(self.edge_levels, dtype=bool)
        if len(self.edge_times) != len(self.edge_levels):
            raise ConfigurationError("edge_times and edge_levels length mismatch")
        if len(self.edge_times) > 1 and np.any(np.diff(self.edge_times) < 0):
            raise ConfigurationError("edge times must be nondecreasing")

    def rising_times(self) -> np.ndarray:
        return self.edge_times[self.edge_levels]

    def falling_times(self) -> np.ndarray:
        return self.edge_times[~self.edge_levels]

    def level_at(self, t: float) -> bool:
        """Level at time t (edges take effect at their own timestamp)."""
        idx = int(np.searchsorted(self.edge_times, t, side="right"))
        if idx == 0:
            return self.initial_level
        return bool(self.edge_levels[idx - 1])
