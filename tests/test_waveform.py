import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import ConfigurationError, DigitalTrace, SignalUnit, Waveform


# NaN passes every `<=` test; an int past 4300 digits has no str()
@pytest.mark.parametrize(
    "rate", [0.0, -8.0, float("nan"), -(10**5000)], ids=["0.0", "-8.0", "nan", "huge_int"]
)
def test_waveform_rejects_nonpositive_sample_rate(rate):
    with pytest.raises(ConfigurationError, match="^sample_rate must be positive, got "):
        Waveform(rate, np.zeros(4))


def test_waveform_rejects_multidim_samples():
    with pytest.raises(ConfigurationError):
        Waveform(8.0, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_rejects_nonfinite_samples(bad):
    with pytest.raises(ConfigurationError):
        Waveform(8.0, [0.0, bad, 1.0])


def test_waveform_casts_samples_to_float64():
    w = Waveform(1.0, [1, 2, 3])
    assert w.samples.dtype == np.float64
    assert w.unit is SignalUnit.VOLTS


def test_waveform_duration_times_energy():
    w = Waveform(2.0, [1.0, 2.0, 3.0])
    assert w.energy() == pytest.approx((1.0 + 4.0 + 9.0) / 2.0)


def test_trace_rejects_mismatched_edge_arrays():
    with pytest.raises(ConfigurationError):
        DigitalTrace(edge_times=[0.0, 1.0], edge_levels=[True])


def test_trace_rejects_decreasing_edge_times():
    with pytest.raises(ConfigurationError, match="^edge times must be nondecreasing$"):
        DigitalTrace(edge_times=[1.0, 0.5], edge_levels=[True, False])


# a NaN compares false with every time, so it would hide the times out of order around it
@pytest.mark.parametrize(
    "times", [[np.nan], [0.5, np.nan, 0.1], [np.nan, 0.1], [0.1, np.nan]],
    ids=["alone", "between_times_out_of_order", "first", "last"],
)
def test_trace_rejects_a_nan_edge_time(times):
    with pytest.raises(ConfigurationError, match="^edge times must not be NaN$"):
        DigitalTrace(edge_times=times, edge_levels=[True] * len(times))


# a row of edges, a column of edges, and one edge as scalars: none is a list of edges
@pytest.mark.parametrize(
    "times, levels",
    [([[0.1, 0.2]], [[True, False]]), ([[0.1], [0.2]], [[True], [False]]), (0.5, True)],
    ids=["row", "column", "scalar"],
)
def test_trace_rejects_edge_arrays_that_are_not_one_dimensional(times, levels):
    with pytest.raises(
        ConfigurationError, match="^edge_times and edge_levels must be one-dimensional$"
    ):
        DigitalTrace(edge_times=times, edge_levels=levels)


def test_trace_partitions_rising_and_falling():
    tr = DigitalTrace(edge_times=[0.1, 0.2, 0.3], edge_levels=[True, False, True])
    assert np.array_equal(tr.rising_times(), [0.1, 0.3])


def test_trace_level_at_applies_edges_at_their_own_timestamp():
    tr = DigitalTrace(edge_times=[0.1, 0.2], edge_levels=[True, False])
    assert tr.level_at(0.0) is False
    assert tr.level_at(0.1) is True
    assert tr.level_at(0.15) is True
    assert tr.level_at(0.2) is False
    assert tr.level_at(5.0) is False


def test_trace_level_before_any_edge_is_initial_level():
    assert DigitalTrace().level_at(123.0) is False


@st.composite
def traces_and_times(draw):
    """A trace with repeated edge times, and times at its edges, before the
    first, after the last and in between."""
    times = draw(st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 0.5]), max_size=12))
    times += draw(st.lists(st.sampled_from(times), max_size=4)) if times else []
    times.sort()
    levels = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
    ends = [np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf)] if times else []
    queries = st.sampled_from(times + ends) if times else st.nothing()
    probes = draw(st.lists(queries | st.floats(-2.0, 2.0) | st.sampled_from([-np.inf, np.inf]),
                           min_size=1, max_size=8))
    return DigitalTrace(times, levels), probes


@settings(max_examples=300, derandomize=True, deadline=None)
@given(traces_and_times())
def test_trace_level_at_is_the_level_of_the_last_edge_at_or_before(case):
    # np.searchsorted's rule: ties go right, so an edge takes effect at its own time
    trace, probes = case
    for t in probes:
        idx = int(np.searchsorted(trace.edge_times, t, side="right"))
        assert trace.level_at(t) is (idx > 0 and bool(trace.edge_levels[idx - 1])), t
