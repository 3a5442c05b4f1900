import numpy as np
import pytest

from aquawake import (
    ChannelModel,
    ConfigurationError,
    Echo,
    SignalUnit,
    Waveform,
    critical_reflection_distance,
    echo_delay,
    propagate,
)

SR = 224_000.0


def noise_free(**kw) -> ChannelModel:
    kw.setdefault("noise_rms", 0.0)
    return ChannelModel(**kw)


def test_echo_delay_values():
    assert echo_delay(5.053, 1630.0) == pytest.approx(3.1e-3, rel=1e-12)
    assert echo_delay(0.001, 1630.0) == pytest.approx(0.001 / 1630.0, rel=1e-12)
    assert echo_delay(8.15, 1630.0) == pytest.approx(5.0e-3, rel=1e-12)


def test_the_echo_helpers_default_to_the_channels_sound_speed():
    assert echo_delay(5.053) == 5.053 / ChannelModel().sound_speed
    assert critical_reflection_distance(200.0) == ChannelModel().sound_speed / 200.0


@pytest.mark.parametrize(
    "args", [(0.0, 1630.0), (-1.0, 1630.0), (5.0, 0.0), (np.nan, 1630.0), (5.0, np.nan)]
)
def test_echo_delay_rejects_nonpositive_inputs(args):
    with pytest.raises(ValueError):
        echo_delay(*args)


def test_a_huge_int_argument_is_named_by_its_size():
    # str() of an int past 4300 digits raises a ValueError of its own
    with pytest.raises(ValueError, match="^extra_path must be positive, got <int of "):
        echo_delay(-(10**5000), 1630.0)
    with pytest.raises(ValueError, match="^bit_rate must be positive, got <int of "):
        critical_reflection_distance(-(10**5000), 1630.0)


def test_critical_reflection_distance_values():
    assert critical_reflection_distance(200.0, 1630.0) == 8.15
    assert critical_reflection_distance(1.0, 1630.0) == pytest.approx(1630.0)
    assert critical_reflection_distance(400.0, 1500.0) == pytest.approx(3.75)


@pytest.mark.parametrize(
    "args", [(0.0, 1630.0), (200.0, -5.0), (np.nan, 1630.0), (200.0, np.nan), (200.0, 0.0)]
)
def test_critical_reflection_distance_rejects_nonpositive_inputs(args):
    with pytest.raises(ValueError):
        critical_reflection_distance(*args)


def test_direct_gain_hand_values():
    assert noise_free(distance=1.0).direct_gain() == pytest.approx(0.993**2, rel=1e-12)
    assert noise_free(distance=2.0).direct_gain() == pytest.approx(
        0.993**2 / 4.0, rel=1e-12
    )
    # 20 dB/km over 1000 m is 20 dB, i.e. an extra factor 0.1 in amplitude
    ch = noise_free(distance=1000.0, absorption_db_per_km=20.0)
    assert ch.direct_gain() == pytest.approx(0.993**2 * 1e-6 * 0.1, rel=1e-12)


def test_lossless_passthrough_is_a_pure_delay():
    ch = noise_free(distance=16.30, spreading_exponent=0.0, coupling=1.0)
    x = np.zeros(100)
    x[0] = 1.0
    out = propagate(Waveform(SR, x, SignalUnit.PRESSURE), ch)
    delay = round(16.30 / 1630.0 * SR)  # 10 ms -> 2240 samples
    assert delay == 2240
    assert out.samples[delay] == 1.0
    assert np.count_nonzero(out.samples) == 1


def test_two_tap_output_matches_direct_convolution():
    rng = np.random.default_rng(42)
    x = rng.normal(size=4096)
    ch = noise_free(
        distance=2.0,
        coupling=0.9,
        absorption_db_per_km=100.0,
        echoes=[Echo(extra_path=3.26, gain=0.5)],
    )
    out = propagate(Waveform(SR, x, SignalUnit.PRESSURE), ch)

    g0 = 0.9**2 / 4.0 * 10.0 ** (-100.0 * 2.0 / 1000.0 / 20.0)
    n0 = round(2.0 / 1630.0 * SR)
    n1 = round((2.0 + 3.26) / 1630.0 * SR)
    kernel = np.zeros(n1 + 1)
    kernel[n0] = g0
    kernel[n1] = 0.5 * g0
    expected = np.convolve(x, kernel)
    assert out.samples == pytest.approx(expected, abs=1e-15)


def test_propagate_is_linear_without_noise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=2048)
    ch = noise_free(distance=1.5, echoes=[Echo(extra_path=1.0, gain=0.3)])
    ya = propagate(Waveform(SR, 3.0 * x, SignalUnit.PRESSURE), ch).samples
    yb = 3.0 * propagate(Waveform(SR, x, SignalUnit.PRESSURE), ch).samples
    assert ya == pytest.approx(yb, abs=1e-12)


def test_passivity_when_tap_gains_sum_below_one():
    rng = np.random.default_rng(11)
    x = Waveform(SR, rng.normal(size=8192), SignalUnit.PRESSURE)
    ch = noise_free(distance=1.0, echoes=[Echo(extra_path=0.5, gain=0.01)])
    assert propagate(x, ch).energy() <= x.energy()


def test_output_holds_the_latest_tap_in_full():
    x = Waveform(SR, np.ones(1000), SignalUnit.PRESSURE)
    ch = noise_free(distance=1.0, echoes=[Echo(extra_path=8.15, gain=0.5)])
    out = propagate(x, ch)
    assert len(out.samples) == 1000 + round((1.0 + 8.15) / 1630.0 * SR)
    assert out.unit is SignalUnit.PRESSURE


def test_an_empty_range_gives_no_samples_and_draws_no_noise():
    x = Waveform(SR, np.ones(1000), SignalUnit.PRESSURE)
    ch = ChannelModel(noise_rms=0.5)
    whole = propagate(x, ch, np.random.default_rng(7)).samples
    rng = np.random.default_rng(7)
    head = propagate(x, ch, rng, 0, 400).samples
    empty = propagate(x, ch, rng, 400, 400)
    assert len(empty.samples) == 0 and empty.unit is SignalUnit.PRESSURE
    tail = propagate(x, ch, rng, 400).samples
    assert np.concatenate([head, tail]).tobytes() == whole.tobytes()


def test_same_seed_is_bit_identical_different_seed_is_not():
    x = Waveform(SR, np.zeros(2048), SignalUnit.PRESSURE)
    a = propagate(x, ChannelModel(noise_rms=0.5), seed=3).samples
    b = propagate(x, ChannelModel(noise_rms=0.5), seed=3).samples
    c = propagate(x, ChannelModel(noise_rms=0.5), seed=4).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_level_matches_configured_rms():
    x = Waveform(SR, np.zeros(200_000), SignalUnit.PRESSURE)
    out = propagate(x, ChannelModel(noise_rms=0.25), seed=0)
    assert np.std(out.samples) == pytest.approx(0.25, rel=0.02)


def test_channel_validation():
    with pytest.raises(ConfigurationError):
        ChannelModel(distance=0.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(coupling=0.0)
    with pytest.raises(ConfigurationError):
        ChannelModel(coupling=1.2)
    with pytest.raises(ConfigurationError):
        ChannelModel(noise_rms=-0.1)
    with pytest.raises(ConfigurationError):
        ChannelModel(sound_speed=0.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(distance=1e-300),
        dict(distance=0.1, spreading_exponent=400.0),
        dict(distance=1000.0, absorption_db_per_km=-1e6),
        dict(distance=1e100, spreading_exponent=-2.0, absorption_db_per_km=-4e-94),
    ],
    ids=["tiny_distance", "steep_spreading", "negative_absorption", "product"],
)
def test_direct_gain_beyond_float_range_is_rejected(kw):
    with pytest.raises(ConfigurationError, match="direct-path gain overflows"):
        ChannelModel(**kw)


def test_echo_validation_and_tuple_coercion():
    with pytest.raises(ConfigurationError):
        Echo(extra_path=0.0, gain=0.5)
    with pytest.raises(ConfigurationError):
        Echo(extra_path=1.0, gain=1.0)
    with pytest.raises(ConfigurationError):
        Echo(extra_path=1.0, gain=-0.1)
    ch = ChannelModel(echoes=[(2.0, 0.5)])
    assert ch.echoes == [Echo(extra_path=2.0, gain=0.5)]
