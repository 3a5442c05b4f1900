"""Sampled waveform container used by every analog stage.

A Waveform is a plain float64 sample array plus the sample rate and a unit
tag. The unit tag is how stages catch plumbing mistakes: the transducer only
accepts pressure, everything downstream of it runs in volts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import shown
from .errors import ConfigurationError, SignalRangeError


class SignalUnit(Enum):
    PRESSURE = "pressure"
    VOLTS = "volts"


@dataclass
class Waveform:
    """Samples at a sample rate, tagged with their unit.

    The public constructor checks everything: a positive sample rate, and
    samples that convert to a 1-D float64 array, every one finite. Stages
    whose arithmetic keeps a finite input finite (`modulate_frame`,
    `rectify`) build their output through `_of_finite`, which checks nothing.
    """

    sample_rate: float  # Hz
    samples: np.ndarray  # float64
    unit: SignalUnit = SignalUnit.VOLTS

    def __post_init__(self) -> None:
        if not self.sample_rate > 0:
            raise ConfigurationError(f"sample_rate must be positive, got {shown(self.sample_rate)}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigurationError("waveform samples must be one-dimensional")
        if not np.isfinite(self.samples).all():
            raise SignalRangeError("waveform contains non-finite samples")

    @classmethod
    def _of_finite(cls, sample_rate: float, samples: np.ndarray, unit: SignalUnit) -> Waveform:
        """A Waveform of a positive sample rate and 1-D float64 samples that the
        calling stage's arithmetic keeps finite, built without the public rescan."""
        wave = cls.__new__(cls)
        wave.sample_rate, wave.samples, wave.unit = sample_rate, samples, unit
        return wave

    def energy(self) -> float:
        """Sum of squared samples over the sample rate (unit^2 * s); inf past float range."""
        with np.errstate(over="ignore"):
            return float(np.sum(self.samples**2) / self.sample_rate)


@dataclass
class DigitalTrace:
    """Binary level trace described by its transitions.

    `edge_times[i]` is the instant the level becomes `edge_levels[i]`, in
    seconds from trace start. The level is low before the first edge.
    """

    edge_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    edge_levels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __post_init__(self) -> None:
        self.edge_times = np.asarray(self.edge_times, dtype=np.float64)
        self.edge_levels = np.asarray(self.edge_levels, dtype=bool)
        if self.edge_times.ndim != 1 or self.edge_levels.ndim != 1:
            raise ConfigurationError("edge_times and edge_levels must be one-dimensional")
        if len(self.edge_times) != len(self.edge_levels):
            raise ConfigurationError("edge_times and edge_levels length mismatch")
        t = self.edge_times
        # a NaN fails every comparison, so the pairwise test finds one beside any other time
        if not (t[1:] >= t[:-1]).all() or (len(t) == 1 and t[0] != t[0]):
            if np.isnan(t).any():
                raise ConfigurationError("edge times must not be NaN")
            raise ConfigurationError("edge times must be nondecreasing")

    @classmethod
    def _of_edges(cls, edge_times: np.ndarray, edge_levels: np.ndarray) -> DigitalTrace:
        """A DigitalTrace of 1-D float64 times, nondecreasing and never NaN, and
        as many bool levels, built without the public checks."""
        trace = cls.__new__(cls)
        trace.edge_times, trace.edge_levels = edge_times, edge_levels
        return trace

    def rising_times(self) -> np.ndarray:
        return self.edge_times[self.edge_levels]

    def level_at(self, t: float) -> bool:
        """Level at time t (edges take effect at their own timestamp).

        `np.searchsorted(side="right")`'s index, found by `bisect_right` over the
        array itself: about a fifth of the cost for the one time the tick loop asks."""
        idx = bisect_right(self.edge_times, t)
        return idx > 0 and bool(self.edge_levels[idx - 1])
