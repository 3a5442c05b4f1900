"""Behavioral models of the analog receive chain.

Stages, in signal order: resonant transducer (pressure to volts), 28 kHz
band-pass, negative-voltage-converter rectifier, envelope detector, and a
dual-time-constant comparator that turns envelope rises into digital edges.
The comparator's drive, its fast RC less its gain-scaled slow RC, is one
second-order filter: the two RCs' exact algebraic sum, equal to them up to
rounding that grows as the taus lengthen.
The harvester branch taps the rectified transducer output directly and is
wired up in the simulation engine, not here.

Every stage is a function on Waveforms. The filtering stages take an
optional carried state: `None` starts from zero, and a state passed in is
updated in place, so a signal fed block by block gives the same bytes as
one call over the whole of it. Stages are causal, and runs are
reproducible by construction.

All filtering goes through `_lfilter`, which calls scipy's C IIR kernel
without importing `scipy.signal` (about 1.3 s of start-up on its own).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import Config, NonNegative, Positive, is_finite, shown
from .errors import ConfigurationError, UnitMismatchError
from .waveform import DigitalTrace, SignalUnit, Waveform


@dataclass
class TransducerModel(Config):
    resonance_freq: Positive = 28_000.0  # Hz
    bandwidth: Positive = 2_800.0  # Hz between -3 dB points
    sensitivity: Positive = 1.0  # V per pressure unit at resonance

    @property
    def q(self) -> float:
        return self.resonance_freq / self.bandwidth


@dataclass
class RectifierModel(Config):
    diode_drop: NonNegative = 0.3  # V lost per small-signal pass
    threshold_voltage: NonNegative = 0.6  # V where the converter takes over
    residual_drop: NonNegative = 0.05  # V lost above threshold

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.residual_drop > self.diode_drop:
            raise ConfigurationError("residual_drop above diode_drop would be non-monotone")


# share of the bit period each timing field takes: for_bit_rate states the rule
# with it, and a bit_rate sweep rescales explicit values by it
BIT_PERIOD_SHARES = {"envelope_tau": 0.05, "fast_tau": 0.02, "slow_tau": 0.15}


@dataclass
class DemodParams(Config):
    """Band-pass, envelope and comparator constants for one bit rate.

    The taus are tuned to the bit period: for_bit_rate() states the rule, and
    the tau defaults are its values at 200 bps. reference_gain > 1 biases the
    slow comparator input up so the output re-arms on long plateaus.
    """

    bandpass_center: Positive = 28_000.0  # Hz
    bandpass_q: Positive = 10.0
    envelope_tau: Positive = 0.25e-3  # s
    fast_tau: Positive = 0.1e-3  # s, comparator plus input
    slow_tau: Positive = 0.75e-3  # s, comparator minus input
    hysteresis: NonNegative = 5e-3  # V
    reference_gain: Positive = 1.02

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fast_tau >= self.slow_tau:
            raise ConfigurationError(
                f"fast_tau {self.fast_tau} must be below slow_tau {self.slow_tau}"
            )

    @classmethod
    def for_bit_rate(cls, bit_rate: float, **overrides) -> "DemodParams":
        """Taus at their BIT_PERIOD_SHARES of the period; other fields at their defaults."""
        if not (is_finite(bit_rate) and bit_rate > 0):
            msg = f"bit_rate must be a positive finite number, got {shown(bit_rate)}"
            raise ConfigurationError(msg)
        period = 1.0 / bit_rate
        values = {name: share * period for name, share in BIT_PERIOD_SHARES.items()}
        values.update(overrides)
        return cls(**values)


def _load_linear_filter():
    """scipy's C kernel behind `scipy.signal.lfilter`, or `lfilter` itself.

    `find_spec("scipy")` locates the package without running its __init__,
    and only the `_sigtools` extension is loaded from it. For a denominator
    longer than one coefficient, `lfilter(b, a, x, -1, zi)` makes exactly the
    call `_linear_filter(b, a, x, -1, zi)`, so both routes give the same bytes.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None:
        folder = os.path.join(scipy_spec.submodule_search_locations[0], "signal")
        loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(folder, loaders).find_spec("scipy.signal._sigtools")
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "_linear_filter"):
                return module._linear_filter
    from scipy.signal import lfilter

    return lfilter


_linear_filter = _load_linear_filter()


def _lfilter(b, a, x: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """IIR filter (b, a) along x; a has at least two taps.

    `zi` is the filter's state, `len(a) - 1` values: None starts from zero,
    and an array passed in starts from its values and is left holding the
    state after the last sample.
    """
    if zi is None:
        zi = np.zeros(len(a) - 1)
    y, zi[...] = _linear_filter(b, a, x, -1, zi)
    return y


# coefficients are computed once per distinct design, not once per block; the
# arrays are read-only, as every caller shares them
@lru_cache(maxsize=64)
def _biquad_bandpass_coeffs(center: float, q: float, sample_rate: float, key: str):
    """Constant-peak-gain band-pass biquad (unity at center); `key` names the center."""
    if center >= sample_rate / 2:
        raise ConfigurationError(
            f"{key} {center:g} Hz must sit below Nyquist, {sample_rate / 2:g} Hz "
            "(half of modulation.sample_rate)"
        )
    w0 = 2.0 * np.pi * center / sample_rate
    alpha = np.sin(w0) / (2.0 * q)
    a0 = 1.0 + alpha
    b = np.array([alpha, 0.0, -alpha]) / a0
    a = np.array([1.0, -2.0 * np.cos(w0) / a0, (1.0 - alpha) / a0])
    b.flags.writeable = a.flags.writeable = False
    return b, a


@lru_cache(maxsize=64)
def _one_pole_coeffs(tau: float, sample_rate: float):
    beta = np.exp(-1.0 / (tau * sample_rate))
    b, a = np.array([1.0 - beta]), np.array([1.0, -beta])
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _one_pole_lowpass(
    x: np.ndarray, tau: float, sample_rate: float, zi: np.ndarray | None = None
) -> np.ndarray:
    """Unity-DC-gain RC low-pass; `zi` as for `_lfilter`, one value."""
    b, a = _one_pole_coeffs(tau, sample_rate)
    return _lfilter(b, a, x, zi)


@lru_cache(maxsize=64)
def _drive_coeffs(fast_tau: float, slow_tau: float, gain: float, sample_rate: float):
    """The comparator's drive, fast RC less `gain` x slow RC, as one second-order filter.

    Over the common denominator (1 - pf/z)(1 - ps/z) the numerator is
    bf (1 - ps/z) - gain bs (1 - pf/z), with each RC's b and pole p from
    `_one_pole_coeffs`. Its rounding grows as the poles near 1.
    """
    fast_b, fast_a = _one_pole_coeffs(fast_tau, sample_rate)
    slow_b, slow_a = _one_pole_coeffs(slow_tau, sample_rate)
    bf, pf, bs, ps = fast_b[0], -fast_a[1], slow_b[0], -slow_a[1]
    b = np.array([bf - gain * bs, -bf * ps + gain * bs * pf, 0.0])
    a = np.array([1.0, -(pf + ps), pf * ps])
    b.flags.writeable = a.flags.writeable = False
    return b, a


def transduce(
    pressure: Waveform, model: TransducerModel, zi: np.ndarray | None = None
) -> Waveform:
    """Pressure to open-circuit voltage through the resonant element.

    `zi` is the element's biquad state (two values): None starts at rest,
    and an array passed in is carried on in place.
    """
    if pressure.unit is not SignalUnit.PRESSURE:
        raise UnitMismatchError(
            f"transducer input must be pressure, got {pressure.unit.value}"
        )
    b, a = _biquad_bandpass_coeffs(
        model.resonance_freq, model.q, pressure.sample_rate, "transducer.resonance_freq"
    )
    volts = _lfilter(b, a, pressure.samples, zi)
    volts *= model.sensitivity
    return Waveform(pressure.sample_rate, volts, SignalUnit.VOLTS)


def rectify(v: Waveform, model: RectifierModel) -> Waveform:
    """Full-wave rectification with a level-dependent drop.

    Below threshold_voltage the signal loses a full diode_drop; above it the
    converter is on and only residual_drop is lost. Output is clamped at
    zero, so rectify(x) <= |x| sample-wise.
    """
    if v.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"rectifier input must be volts, got {v.unit.value}")
    out = np.abs(v.samples)
    out -= np.where(out < model.threshold_voltage, model.diode_drop, model.residual_drop)
    np.maximum(0.0, out, out=out)
    # |x| less a finite drop, clamped at 0, is finite for a finite x: no rescan
    return Waveform._of_finite(v.sample_rate, out, SignalUnit.VOLTS)


def bandpass(v: Waveform, params: DemodParams, zi: np.ndarray | None = None) -> Waveform:
    """Carrier-selection band-pass, unity gain at its center frequency.

    `zi` is its biquad state (two values), as for `transduce`.
    """
    if v.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"band-pass input must be volts, got {v.unit.value}")
    b, a = _biquad_bandpass_coeffs(
        params.bandpass_center, params.bandpass_q, v.sample_rate, "demod.bandpass_center"
    )
    return Waveform(v.sample_rate, _lfilter(b, a, v.samples, zi), SignalUnit.VOLTS)


def envelope(v: Waveform, params: DemodParams, zi: np.ndarray | None = None) -> Waveform:
    """One-pole envelope detector over a rectified input.

    `zi` is its RC state (one value), as for `transduce`.
    """
    if v.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"envelope input must be volts, got {v.unit.value}")
    if (v.samples < 0).any():
        raise ValueError("envelope expects a non-negative (rectified) input")
    out = _one_pole_lowpass(v.samples, params.envelope_tau, v.sample_rate, zi)
    return Waveform(v.sample_rate, out, SignalUnit.VOLTS)


@dataclass
class ComparatorState:
    """What the comparator carries from one block of its input to the next."""

    drive_zi: np.ndarray = field(default_factory=lambda: np.zeros(2))  # drive filter's state
    level: bool = False  # the latched output; low before the first edge
    offset: int = 0  # samples before the block, so edge times stay index / sample rate


def comparator(
    env: Waveform, params: DemodParams, state: ComparatorState | None = None
) -> DigitalTrace:
    """Dual-time-constant edge detector.

    The plus input follows the envelope through a fast RC, the minus input
    through a slow RC scaled by reference_gain. Output goes high while
    plus > minus + hysteresis, low while plus < minus - hysteresis, and
    latches in between. Returns the transition list. The drive plus - minus
    is formed in one pass of one second-order filter, equal to the two RCs
    up to rounding that grows as the taus lengthen (`_drive_coeffs`).
    `state` is None for a whole signal; a `ComparatorState` passed in
    carries the comparator from the previous block and is updated in place.
    """
    if env.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"comparator input must be volts, got {env.unit.value}")
    if state is None:
        state = ComparatorState()
    sr = env.sample_rate
    b, a = _drive_coeffs(params.fast_tau, params.slow_tau, params.reference_gain, sr)
    diff = _lfilter(b, a, env.samples, state.drive_zi)
    return _latched_edges(diff, params.hysteresis, state, sr)


def _latched_edges(
    diff: np.ndarray, hysteresis: float, state: ComparatorState, sr: float
) -> DigitalTrace:
    """The comparator's level changes over one block of its drive `diff`
    (plus - minus); `state`'s level and offset are carried on in place."""
    # the level changes only at samples outside the band whose side differs
    # from the level before them; a block starts at the level carried in
    decided = (np.abs(diff) > hysteresis).nonzero()[0]
    high = diff[decided] > 0
    before = np.empty_like(high)
    before[:1] = state.level
    before[1:] = high[:-1]
    changes = (high != before).nonzero()[0]
    times = (decided[changes] + state.offset) / sr
    if len(high):
        state.level = bool(high[-1])
    state.offset += len(diff)
    return DigitalTrace(edge_times=times, edge_levels=high[changes])
