"""Behavioral models of the analog receive chain.

Stages, in signal order: resonant transducer (pressure to volts), 28 kHz
band-pass, negative-voltage-converter rectifier, envelope detector, and a
dual-time-constant comparator that turns envelope rises into digital edges.
The harvester branch taps the rectified transducer output directly and is
wired up in the simulation engine, not here.

Every stage is a pure function on Waveforms with zero initial filter state,
so stages are causal and runs are reproducible by construction.

All filtering goes through `_lfilter`, which calls scipy's C IIR kernel
without importing `scipy.signal` (about 1.3 s of start-up on its own).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

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
    longer than one coefficient, `lfilter(b, a, x, -1)` makes exactly the call
    `_linear_filter(b, a, x, -1)`, so both routes give the same bytes.
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


def _lfilter(b, a, x: np.ndarray) -> np.ndarray:
    """IIR filter (b, a) along x from zero initial state; a has at least two taps."""
    return _linear_filter(np.atleast_1d(b), np.atleast_1d(a), x, -1)


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
    return b, a


def _one_pole_lowpass(x: np.ndarray, tau: float, sample_rate: float) -> np.ndarray:
    """Unity-DC-gain RC low-pass, zero initial state."""
    beta = np.exp(-1.0 / (tau * sample_rate))
    return _lfilter([1.0 - beta], [1.0, -beta], x)


def transduce(pressure: Waveform, model: TransducerModel) -> Waveform:
    """Pressure to open-circuit voltage through the resonant element."""
    if pressure.unit is not SignalUnit.PRESSURE:
        raise UnitMismatchError(
            f"transducer input must be pressure, got {pressure.unit.value}"
        )
    b, a = _biquad_bandpass_coeffs(
        model.resonance_freq, model.q, pressure.sample_rate, "transducer.resonance_freq"
    )
    volts = _lfilter(b, a, pressure.samples)
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
    return Waveform(v.sample_rate, out, SignalUnit.VOLTS)


def bandpass(v: Waveform, params: DemodParams) -> Waveform:
    """Carrier-selection band-pass, unity gain at its center frequency."""
    if v.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"band-pass input must be volts, got {v.unit.value}")
    b, a = _biquad_bandpass_coeffs(
        params.bandpass_center, params.bandpass_q, v.sample_rate, "demod.bandpass_center"
    )
    return Waveform(v.sample_rate, _lfilter(b, a, v.samples), SignalUnit.VOLTS)


def envelope(v: Waveform, params: DemodParams) -> Waveform:
    """One-pole envelope detector over a rectified input."""
    if v.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"envelope input must be volts, got {v.unit.value}")
    if np.any(v.samples < 0):
        raise ValueError("envelope expects a non-negative (rectified) input")
    out = _one_pole_lowpass(v.samples, params.envelope_tau, v.sample_rate)
    return Waveform(v.sample_rate, out, SignalUnit.VOLTS)


def comparator(env: Waveform, params: DemodParams) -> DigitalTrace:
    """Dual-time-constant edge detector.

    The plus input follows the envelope through a fast RC, the minus input
    through a slow RC scaled by reference_gain. Output goes high while
    plus > minus + hysteresis, low while plus < minus - hysteresis, and
    latches in between. Returns the transition list.
    """
    if env.unit is not SignalUnit.VOLTS:
        raise UnitMismatchError(f"comparator input must be volts, got {env.unit.value}")
    sr = env.sample_rate
    plus = _one_pole_lowpass(env.samples, params.fast_tau, sr)
    minus = _one_pole_lowpass(env.samples, params.slow_tau, sr)
    minus *= params.reference_gain
    diff = np.subtract(plus, minus, out=plus)

    # the level changes only at samples outside the band, and is low before the first
    decided = np.flatnonzero(np.abs(diff) > params.hysteresis)
    high = diff[decided] > 0
    changes = np.flatnonzero(np.diff(high, prepend=False))
    return DigitalTrace(edge_times=decided[changes] / sr, edge_levels=high[changes])
