import importlib.machinery
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from aquawake import (
    ConfigurationError,
    DemodParams,
    ModulationParams,
    RectifierModel,
    SignalUnit,
    TransducerModel,
    UnitMismatchError,
    WakeupFrame,
    Waveform,
    bandpass,
    comparator,
    frontend,
    modulate_frame,
    rectify,
    transduce,
)
from reference_engine import latch, one_pole_lowpass, two_rc_drive

SR = 224_000.0


def sine(freq: float, duration: float, unit: SignalUnit, amp: float = 1.0) -> Waveform:
    t = np.arange(round(duration * SR)) / SR
    return Waveform(SR, amp * np.sin(2.0 * np.pi * freq * t), unit)


def warped_bandpass_mag(f: float, center: float, q: float) -> float:
    """Second-order band-pass magnitude with bilinear frequency warping.

    A biquad designed from sin/cos of the center frequency behaves like the
    analog prototype evaluated at tan-warped frequencies, so the oracle must
    warp too or it drifts several percent at these f/fs ratios.
    """
    r = np.tan(np.pi * f / SR) / np.tan(np.pi * center / SR)
    return 1.0 / np.sqrt(1.0 + q**2 * (r - 1.0 / r) ** 2)


def steady_amplitude(wf: Waveform) -> float:
    return float(np.abs(wf.samples[len(wf.samples) // 2 :]).max())


# transducer


def test_transducer_requires_pressure_input():
    with pytest.raises(UnitMismatchError):
        transduce(sine(28_000.0, 0.001, SignalUnit.VOLTS), TransducerModel())


def test_transducer_unity_at_resonance_and_output_in_volts():
    out = transduce(sine(28_000.0, 0.02, SignalUnit.PRESSURE), TransducerModel())
    assert out.unit is SignalUnit.VOLTS
    assert steady_amplitude(out) == pytest.approx(1.0, rel=0.01)


def test_transducer_scales_with_sensitivity():
    model = TransducerModel(sensitivity=2.5)
    out = transduce(sine(28_000.0, 0.02, SignalUnit.PRESSURE), model)
    assert steady_amplitude(out) == pytest.approx(2.5, rel=0.01)


def test_transducer_detuned_attenuation_matches_analytic_response():
    model = TransducerModel()  # q = 28 kHz / 2.8 kHz = 10
    out = transduce(sine(14_000.0, 0.02, SignalUnit.PRESSURE), model)
    expected = warped_bandpass_mag(14_000.0, 28_000.0, model.q)
    assert steady_amplitude(out) == pytest.approx(expected, rel=0.02)


def test_transducer_zero_in_zero_out():
    out = transduce(Waveform(SR, np.zeros(512), SignalUnit.PRESSURE), TransducerModel())
    assert np.all(out.samples == 0.0)


def test_transducer_q_and_validation():
    assert TransducerModel().q == pytest.approx(10.0)
    with pytest.raises(ConfigurationError):
        TransducerModel(bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        TransducerModel(sensitivity=0.0)


# rectifier


def test_rectifier_piecewise_drop_points():
    model = RectifierModel()
    x = Waveform(SR, np.array([0.4, -0.4, 2.0, -2.0, 0.2, 0.0, 0.6]), SignalUnit.VOLTS)
    out = rectify(x, model).samples
    assert out[0] == pytest.approx(0.1)  # below threshold: full diode drop
    assert out[1] == pytest.approx(0.1)  # full-wave: sign is irrelevant
    assert out[2] == pytest.approx(1.95)  # converter active: residual drop
    assert out[3] == pytest.approx(1.95)
    assert out[4] == 0.0  # clamped, drop exceeds the signal
    assert out[5] == 0.0
    assert out[6] == pytest.approx(0.55)  # at threshold the converter is on


def test_rectifier_output_bounded_by_input_magnitude():
    rng = np.random.default_rng(5)
    x = Waveform(SR, rng.normal(scale=1.5, size=4096), SignalUnit.VOLTS)
    out = rectify(x, RectifierModel()).samples
    assert np.all(out >= 0.0)
    assert np.all(out <= np.abs(x.samples))


def test_rectifier_monotone_in_input_magnitude():
    rng = np.random.default_rng(6)
    big = np.abs(rng.normal(scale=2.0, size=4096))
    small = big * rng.uniform(0.0, 1.0, size=big.size)
    out_big = rectify(Waveform(SR, big, SignalUnit.VOLTS), RectifierModel()).samples
    out_small = rectify(Waveform(SR, small, SignalUnit.VOLTS), RectifierModel()).samples
    assert np.all(out_big >= out_small)


def test_rectifier_validation():
    with pytest.raises(ConfigurationError):
        RectifierModel(residual_drop=0.4)  # above the diode drop
    with pytest.raises(ConfigurationError):
        RectifierModel(diode_drop=-0.1)
    with pytest.raises(UnitMismatchError):
        rectify(sine(28_000.0, 0.001, SignalUnit.PRESSURE), RectifierModel())


# demod params


def test_for_bit_rate_scales_taus_with_the_bit_period():
    p = DemodParams.for_bit_rate(200.0)
    assert p.envelope_tau == pytest.approx(2.5e-4)
    assert p.fast_tau == pytest.approx(1e-4)
    assert p.slow_tau == pytest.approx(7.5e-4)
    assert p.reference_gain == 1.02
    half = DemodParams.for_bit_rate(100.0)
    assert half.envelope_tau == pytest.approx(5e-4)


def test_for_bit_rate_accepts_overrides():
    p = DemodParams.for_bit_rate(200.0, hysteresis=0.5, reference_gain=1.05)
    assert p.hysteresis == 0.5
    assert p.reference_gain == 1.05
    assert p.envelope_tau == pytest.approx(2.5e-4)


def test_defaults_are_the_bit_period_rule_at_200_bps():
    assert DemodParams() == DemodParams.for_bit_rate(200.0)


@pytest.mark.parametrize(
    "bit_rate",
    [math.nan, math.inf, -math.inf, 0.0, -200.0, 10**400, -(10**5000)],
    ids=["nan", "inf", "-inf", "zero", "negative", "huge_int", "int_past_4300_digits"],
)
def test_for_bit_rate_rejects_a_bad_rate_by_its_own_name(bit_rate):
    with pytest.raises(ConfigurationError, match=r"^bit_rate must be a positive finite number"):
        DemodParams.for_bit_rate(bit_rate)


def test_demod_validation():
    with pytest.raises(ConfigurationError):
        DemodParams(fast_tau=1e-3, slow_tau=1e-3)  # must rise at different speeds
    with pytest.raises(ConfigurationError):
        DemodParams(envelope_tau=0.0)
    with pytest.raises(ConfigurationError):
        DemodParams(hysteresis=-1e-3)
    with pytest.raises(ConfigurationError):
        DemodParams(reference_gain=0.0)
    with pytest.raises(ConfigurationError):
        DemodParams.for_bit_rate(0.0)


# band-pass


def test_bandpass_unity_at_center():
    out = bandpass(sine(28_000.0, 0.02, SignalUnit.VOLTS), DemodParams())
    assert steady_amplitude(out) == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("freq", [14_000.0, 20_000.0, 56_000.0])
def test_bandpass_skirts_match_analytic_response(freq):
    out = bandpass(sine(freq, 0.02, SignalUnit.VOLTS), DemodParams())
    expected = warped_bandpass_mag(freq, 28_000.0, 10.0)
    assert steady_amplitude(out) == pytest.approx(expected, rel=0.02)


def test_bandpass_rejects_dc():
    out = bandpass(Waveform(SR, np.ones(8192), SignalUnit.VOLTS), DemodParams())
    assert np.abs(out.samples[-1000:]).max() < 1e-3


@pytest.mark.parametrize("center", [120_000.0, SR / 2], ids=["above", "at"])
def test_bandpass_center_must_be_below_nyquist(center):
    with pytest.raises(ConfigurationError, match="must sit below Nyquist"):
        bandpass(
            Waveform(SR, np.zeros(16), SignalUnit.VOLTS),
            DemodParams(bandpass_center=center),
        )


# the reference chain's envelope RC


def test_envelope_step_matches_discrete_rc_closed_form():
    tau = 5e-4
    n = 2000
    out = one_pole_lowpass(np.ones(n), tau, SR)
    beta = np.exp(-1.0 / (tau * SR))
    expected = 1.0 - beta ** (np.arange(n) + 1.0)
    assert out == pytest.approx(expected, abs=1e-12)


def test_envelope_burst_becomes_single_hump():
    burst = np.abs(np.sin(2.0 * np.pi * 28_000.0 * np.arange(1120) / SR))
    x = np.concatenate([burst, np.zeros(2240)])
    out = one_pole_lowpass(x, DemodParams().envelope_tau, SR)
    peak = out.max()
    assert 0.5 <= peak <= 1.0
    assert out.argmax() <= 1120 + 1
    tail = out[1200:]
    assert np.all(np.diff(tail) <= 1e-15)  # decays once the burst ends
    # the comparator, whose drive holds this RC, rises and falls once on it
    tr = comparator(Waveform(SR, x, SignalUnit.VOLTS), DemodParams())
    assert tr.edge_levels.tolist() == [True, False]


# comparator


def test_comparator_silent_input_produces_no_edges():
    tr = comparator(Waveform(SR, np.zeros(4096), SignalUnit.VOLTS), DemodParams())
    assert len(tr.edge_times) == 0


def cascade_step(taus, n: int) -> np.ndarray:
    """Closed-form step response, from sample 0, of unity-DC-gain discrete RCs
    in cascade, one per tau (distinct): 1 less, per pole p, p^(k+1) x the
    product over the other poles q of (1 - q) / (1 - q / p)."""
    poles = [math.exp(-1.0 / (tau * SR)) for tau in taus]
    k = np.arange(n)
    out = np.ones(n)
    for p in poles:
        out -= p ** (k + 1.0) * math.prod((1.0 - q) / (1.0 - q / p) for q in poles if q != p)
    return out


def test_comparator_step_edges_match_two_rc_closed_form():
    params = DemodParams(reference_gain=1.05)
    n = 8192
    tr = comparator(Waveform(SR, np.ones(n), SignalUnit.VOLTS), params)

    # the step's RC envelope, then the fast RC less reference_gain x the slow RC
    plus = cascade_step([params.envelope_tau, params.fast_tau], n)
    minus = params.reference_gain * cascade_step([params.envelope_tau, params.slow_tau], n)
    diff = plus - minus
    i_rise = int(np.flatnonzero(diff > params.hysteresis)[0])
    i_fall = int(np.flatnonzero((diff < -params.hysteresis) & (np.arange(n) > i_rise))[0])

    assert list(tr.edge_levels) == [True, False]
    assert tr.edge_times[0] == pytest.approx(i_rise / SR, abs=1.5 / SR)
    assert tr.edge_times[1] == pytest.approx(i_fall / SR, abs=1.5 / SR)


def test_comparator_unity_reference_never_falls_on_a_plateau():
    tr = comparator(
        Waveform(SR, np.ones(16384), SignalUnit.VOLTS), DemodParams(reference_gain=1.0)
    )
    assert len(tr.rising_times()) == 1
    assert tr.edge_levels.all()


def test_comparator_latches_inside_the_hysteresis_band():
    # drive high, then wiggle inside +/- hysteresis: the level must hold
    params = DemodParams(reference_gain=1.0, hysteresis=0.2)
    rng = np.random.default_rng(9)
    x = np.concatenate([np.ones(4096), 1.0 + 0.01 * rng.normal(size=4096)])
    tr = comparator(Waveform(SR, x, SignalUnit.VOLTS), params)
    assert list(tr.edge_levels) == [True]


def test_comparator_can_be_high_from_the_first_sample():
    # the drive's first sample, about 6.6e-4 x a constant input, exceeds
    # hysteresis at once: edge reported at t = 0
    tr = comparator(Waveform(SR, np.full(512, 50.0), SignalUnit.VOLTS), DemodParams())
    assert tr.edge_times[0] == 0.0
    assert bool(tr.edge_levels[0]) is True


# stretches of constant drive; a leading 0.0 stretch keeps diff exactly 0
stretch = st.tuples(st.sampled_from([0.0, 0.02, 1.0]) | st.floats(0.0, 2.0), st.integers(1, 300))
stretches = st.lists(stretch, min_size=1, max_size=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    stretches=stretches,
    hysteresis=st.sampled_from([0.0, 5e-3]) | st.floats(0.0, 0.05),
    fast_samples=st.integers(1, 40),
    slow_ratio=st.floats(1.5, 20.0),
    reference_gain=st.sampled_from([1.0]) | st.floats(0.9, 1.1),
)
def test_comparator_matches_a_per_sample_latch(
    stretches, hysteresis, fast_samples, slow_ratio, reference_gain
):
    x = np.concatenate([np.full(n, v) for v, n in stretches])
    params = DemodParams(
        fast_tau=fast_samples / SR,
        slow_tau=slow_ratio * fast_samples / SR,
        hysteresis=hysteresis,
        reference_gain=reference_gain,
    )
    tr = comparator(Waveform(SR, x, SignalUnit.VOLTS), params)
    env = one_pole_lowpass(x, params.envelope_tau, SR)
    times, levels, _, _ = latch(two_rc_drive(env, params, SR), params.hysteresis, SR)
    assert tr.edge_times.tolist() == times.tolist()
    assert tr.edge_levels.tolist() == levels.tolist()


def assert_same_edges(trace, state, want) -> None:
    times, levels, level, offset = want
    assert trace.edge_times.dtype == times.dtype and trace.edge_times.tobytes() == times.tobytes()
    assert trace.edge_levels.dtype == levels.dtype
    assert trace.edge_levels.tobytes() == levels.tobytes()
    assert (state.level, state.offset) == (level, offset)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    hysteresis=st.sampled_from([0.0, 5e-3]) | st.floats(0.0, 0.05),
    level=st.booleans(),
    offset=st.integers(0, 2**40),
    data=st.data(),
)
def test_edge_extraction_matches_the_per_sample_latch(hysteresis, level, offset, data):
    # drive values on and around the band's edges, NaN among them; empty and
    # 1-sample blocks included
    edges = st.sampled_from([math.nan, 0.0, -0.0, hysteresis, -hysteresis])
    values = data.draw(st.lists(edges | st.floats(-0.05, 0.05), max_size=40))
    diff = np.array(values, dtype=float)
    state = frontend.ComparatorState(level=level, offset=offset)
    want = latch(diff, hysteresis, SR, level, offset)
    trace = frontend._latched_edges(diff, hysteresis, state, SR)
    assert_same_edges(trace, state, want)


@pytest.mark.parametrize("carried", ["agrees", "disagrees"])
@pytest.mark.parametrize("shape", ["one_run", "same_side_split", "any"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    hysteresis=st.sampled_from([0.0, 5e-3]) | st.floats(0.0, 0.05),
    offset=st.integers(0, 2**40),
    data=st.data(),
)
def test_edge_extraction_matches_the_per_sample_latch_on_runs(
    shape, carried, hysteresis, offset, data
):
    # the drive as a block shows it, runs of one value 1 to 2000 samples long:
    # above the band, below it, or inside it (its edges, NaN and +-0 among them).
    # `one_run` fills the block with one run, `same_side_split` splits runs of
    # one side by in-band gaps; the carried level agrees or disagrees with the
    # block's first run outside the band
    above = st.floats(hysteresis, 1.0, exclude_min=True)
    below = above.map(lambda v: -v)
    inside = st.sampled_from([hysteresis, -hysteresis, math.nan, 0.0, -0.0])
    inside |= st.floats(-hysteresis, hysteresis)
    value, length = above | below | inside, st.integers(1, 2000)
    if shape == "one_run":
        runs = [(data.draw(value), data.draw(length))]
    elif shape == "same_side_split":
        side = data.draw(st.sampled_from([above, below]))
        runs = [(data.draw(side), data.draw(length))]
        for _ in range(data.draw(st.integers(1, 3))):
            runs += [(data.draw(inside), data.draw(length)), (data.draw(side), data.draw(length))]
    else:
        runs = data.draw(st.lists(st.tuples(value, length), max_size=6))
    diff = np.concatenate([np.empty(0), *(np.full(n, v) for v, n in runs)])
    decided = diff[np.abs(diff) > hysteresis]
    first_high = len(decided) > 0 and bool(decided[0] > 0)
    level = first_high == (carried == "agrees")
    state = frontend.ComparatorState(level=level, offset=offset)
    want = latch(diff, hysteresis, SR, level, offset)
    trace = frontend._latched_edges(diff, hysteresis, state, SR)
    assert_same_edges(trace, state, want)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    stretches=st.lists(stretch, max_size=6),
    hysteresis=st.sampled_from([0.0, 5e-3]) | st.floats(0.0, 0.05),
    level=st.booleans(),
    offset=st.integers(0, 2**40),
    carried=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_comparator_matches_the_reference_edges_of_its_drive(
    stretches, hysteresis, level, offset, carried
):
    # empty and 1-sample blocks included; the drive is formed as the comparator forms it
    x = np.concatenate([np.empty(0), *(np.full(n, v) for v, n in stretches)])
    params = DemodParams.for_bit_rate(200.0, hysteresis=hysteresis)
    zi = np.array(carried)
    p = params
    b, a = frontend._drive_coeffs(p.envelope_tau, p.fast_tau, p.slow_tau, p.reference_gain, SR)
    want = latch(frontend._lfilter(b, a, x, zi.copy()), hysteresis, SR, level, offset)
    state = frontend.ComparatorState(zi, level, offset)
    assert_same_edges(comparator(Waveform(SR, x, SignalUnit.VOLTS), params, state), state, want)


@pytest.mark.parametrize("offset", [math.nan, -1, 0.5], ids=["nan", "negative", "fraction"])
def test_comparator_state_rejects_an_offset_that_is_not_a_sample_count(offset):
    # the latch turns (index + offset) / rate into edge times without the trace's checks
    with pytest.raises(ConfigurationError, match="^comparator offset must be a sample count >= 0"):
        frontend.ComparatorState(offset=offset)


def test_comparator_requires_volts():
    with pytest.raises(UnitMismatchError):
        comparator(Waveform(SR, np.zeros(16), SignalUnit.PRESSURE), DemodParams())


@pytest.mark.parametrize(
    "stage, model, unit",
    [
        (transduce, TransducerModel(), SignalUnit.VOLTS),
        (rectify, RectifierModel(), SignalUnit.PRESSURE),
        (bandpass, DemodParams(), SignalUnit.PRESSURE),
        (comparator, DemodParams(), SignalUnit.PRESSURE),
    ],
    ids=["transduce", "rectify", "bandpass", "comparator"],
)
def test_every_stage_rejects_the_wrong_unit(stage, model, unit):
    with pytest.raises(UnitMismatchError, match=f"must be .*, got {unit.value}$"):
        stage(Waveform(SR, np.zeros(16), unit), model)


# chain-level pulse counting


def chain_trace(uuid: int, bit_rate: float, preamble: float = 0.0, guard: float = 0.0):
    frame = WakeupFrame(
        uuid=uuid, bit_rate=bit_rate, preamble_duration=preamble, guard_duration=guard
    )
    tx = modulate_frame(frame, ModulationParams(tx_amplitude=10.0))
    padded = Waveform(SR, np.concatenate([tx.samples, np.zeros(2048)]), tx.unit)
    demod = DemodParams.for_bit_rate(bit_rate)
    filtered = rectify(bandpass(transduce(padded, TransducerModel()), demod), RectifierModel())
    return comparator(filtered, demod)


@pytest.mark.parametrize("bit_rate", [100.0, 200.0, 400.0])
def test_rising_edge_count_equals_one_bit_count(bit_rate):
    """One comparator rise per transmitted burst, for every uuid."""
    for uuid in range(256):
        tr = chain_trace(uuid, bit_rate)
        want = 2 + bin(uuid).count("1")
        assert len(tr.rising_times()) == want, f"uuid {uuid:#04x} at {bit_rate} bps"


def test_preamble_contributes_exactly_one_extra_rise():
    bare = chain_trace(0xA5, 200.0)
    with_preamble = chain_trace(0xA5, 200.0, preamble=0.050, guard=0.0025)
    assert len(with_preamble.rising_times()) == len(bare.rising_times()) + 1


def filter_cases():
    """Seeded one-pole and band-pass biquad inputs, 1 to 5000 samples long,
    with magnitudes log-uniform over 1e-5..1e5 within each signal."""
    rng = np.random.default_rng(9)
    for n in [1, 2, 5000, *rng.integers(1, 5001, size=147).tolist()]:
        x = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-5.0, 5.0, size=n)
        beta = np.exp(-1.0 / (rng.uniform(1e-5, 1e-2) * SR))
        yield [1.0 - beta], [1.0, -beta], x
        b, a = frontend._biquad_bandpass_coeffs(
            rng.uniform(1e3, 1e5), rng.uniform(0.5, 50.0), SR, "center"
        )
        yield b, a, x


def assert_filter_route_matches_lfilter():
    for b, a, x in filter_cases():
        got, want = frontend._lfilter(b, a, x), signal.lfilter(b, a, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"b={b} a={a} n={len(x)}"


def test_filters_run_on_scipys_private_kernel_byte_for_byte():
    # fails if scipy renames the kernel, so the fallback is never silently taken
    from scipy.signal import _sigtools

    assert frontend._linear_filter is _sigtools._linear_filter
    assert_filter_route_matches_lfilter()


def test_the_public_lfilter_fallback_gives_the_same_bytes(monkeypatch):
    monkeypatch.setattr(frontend, "_linear_filter", signal.lfilter)
    assert_filter_route_matches_lfilter()


def test_the_loader_falls_back_to_lfilter_without_scipys_kernel(monkeypatch):
    with monkeypatch.context() as patch:
        find_spec = importlib.util.find_spec
        patch.setattr(
            importlib.util, "find_spec",
            lambda name, package=None: None if name == "scipy" else find_spec(name, package),
        )
        assert frontend._load_linear_filter() is signal.lfilter

    class FinderWithoutSigtools(importlib.machinery.FileFinder):
        def find_spec(self, fullname, target=None):
            if fullname == "scipy.signal._sigtools":
                return None
            return super().find_spec(fullname, target)

    monkeypatch.setattr(importlib.machinery, "FileFinder", FinderWithoutSigtools)
    assert frontend._load_linear_filter() is signal.lfilter


def test_import_leaves_scipy_signal_unloaded():
    src = str(Path(frontend.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import aquawake; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "aquawake.frontend" in loaded
    assert "scipy.signal" not in loaded
    assert "scipy.stats" not in loaded
