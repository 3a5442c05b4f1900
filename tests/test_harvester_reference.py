"""Reference harvester: `power.Harvester`'s span runner against per-tick loops.

The harvester keeps the cap's energy and advances it in spans, one numpy
accumulate each, through `Harvester.run`. Its cap energies, modes and
energy sums must agree bit for bit with the plain-float energy-domain
oracle in `harvester_oracle`, on random tick inputs and on explicit cases
that the presets do not reach: thresholds at or below 0 V, spans that end
on their first tick or their window's last, a load that empties the cap
partway through a span, and a drain that overflows to inf. Whole runs are
pinned to the same oracle by `test_reference_engine.py`, which also bounds
a voltage-domain loop over it, one that turns the cap voltage into energy
and back on every tick, to rounding drift on every run it draws.
"""

import math
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import HarvesterMode, HarvesterParams
from aquawake.power import Harvester
from harvester_oracle import oracle_ticks, run_spans


def spans_match_the_oracle(
    params, dt, v_in, p_in, load_power, mode=HarvesterMode.DEPLETED, energy=0.0
):
    """Runs both, checks them bit for bit and returns the runner's results."""
    spans = run_spans(params, dt, v_in, p_in, load_power, mode, energy)
    reference = oracle_ticks(params, dt, zip(v_in, p_in, repeat(load_power)), mode, energy)
    assert repr(spans[:4]) == repr(reference)  # float reprs round-trip, so bit for bit
    return spans


@st.composite
def tick_inputs(draw):
    n = draw(st.integers(1, 300))
    v_in = draw(st.lists(st.sampled_from([0.0, 0.05, 0.7, 2.0]), min_size=n, max_size=n))
    p_in = draw(st.lists(st.sampled_from([0.0, 1e-6, 20e-6, 1e-3, 0.1]), min_size=n, max_size=n))
    enable = draw(st.sampled_from([2.2, 0.5, 0.0, -1.0]))
    params = HarvesterParams(
        c_store=draw(st.sampled_from([1e-6, 100e-6])),
        regulation_enable_voltage=enable,
        uvlo=enable - draw(st.sampled_from([0.3, 1.0, 3.0])),  # at or below 0 V for many
    )
    load = draw(st.sampled_from([0.0, 1e-5, 1e-3, 0.1, 1e300]))
    dt = draw(st.sampled_from([1e-3, 0.125, 1e9]))  # 1e300 W over 1e9 s drains inf
    start = draw(st.sampled_from([
        {}, {"mode": HarvesterMode.REGULATING, "energy": 1e-3},
        {"mode": HarvesterMode.COLD_START, "energy": 1e-4},
    ]))
    return params, dt, v_in, p_in, load, start


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tick_inputs())
def test_spans_match_the_oracle_on_random_tick_inputs(case):
    params, dt, v_in, p_in, load, start = case
    spans_match_the_oracle(params, dt, v_in, p_in, load, **start)


def test_an_enable_voltage_at_or_below_zero_rails_up_on_the_first_cold_start_tick():
    for enable in (0.0, -1.0):
        params = HarvesterParams(regulation_enable_voltage=enable, uvlo=enable - 1.0)
        v_in, p_in = [0.0] * 100 + [0.7] * 900, [0.0] * 100 + [20e-6] * 900
        energy, modes, _, consumed, _ = spans_match_the_oracle(params, 1e-3, v_in, p_in, 1e-7)
        assert modes[99:101] == [HarvesterMode.DEPLETED, HarvesterMode.REGULATING]
        assert set(modes[100:]) == {HarvesterMode.REGULATING}
        assert energy[100] > 0.0 and consumed > 0.0


def test_a_uvlo_at_or_below_zero_keeps_the_rail_up_on_an_empty_cap():
    for uvlo in (0.0, -0.5):
        params = HarvesterParams(uvlo=uvlo)
        # the load outdraws the input: the cap empties on the first regulating tick
        v_in, p_in = [0.7] * 1000, [1e-3] * 1000
        energy, modes, _, _, calls = spans_match_the_oracle(
            params, 1e-3, v_in, p_in, 1.0, mode=HarvesterMode.REGULATING, energy=1e-3
        )
        assert energy == [0.0] * 1000
        assert set(modes) == {HarvesterMode.REGULATING}
        assert calls == 1000  # each emptied tick ends its span


def test_a_load_that_empties_the_cap_partway_through_a_span():
    params = HarvesterParams()  # UVLO at 1.9 V holds 180.5 uJ on 100 uF
    # 300 uJ per tick from 1.1 mJ: 800, 500, 200 uJ, then the draw outruns the cap
    v_in, p_in = [0.0] * 10, [0.0] * 10
    energy, modes, _, consumed, calls = spans_match_the_oracle(
        params, 1.0, v_in, p_in, 180e-6, mode=HarvesterMode.REGULATING, energy=1.1e-3
    )
    assert energy[2] > 0.5 * params.c_store * 1.9**2 and energy[3:] == [0.0] * 7
    assert modes[2:4] == [HarvesterMode.REGULATING, HarvesterMode.DEPLETED]
    assert consumed == pytest.approx(1.1e-3, rel=1e-12)  # the last tick drained what was left
    assert calls == 2


def test_a_drain_that_overflows_to_inf_empties_the_cap():
    params = HarvesterParams()
    assert 1e300 * 1e9 / params.boost_efficiency == math.inf
    # 12 kJ banked while regulating, then 1 kJ of cold start per tick: each tick
    # rails up and the draw takes all of it
    v_in, p_in = [0.7] * 6, [20e-6] * 6
    energy, modes, harvested, consumed, _ = spans_match_the_oracle(
        params, 1e9, v_in, p_in, 1e300, mode=HarvesterMode.REGULATING, energy=1e-3
    )
    assert energy == [0.0] * 6
    assert modes == [HarvesterMode.DEPLETED] * 6
    assert harvested == pytest.approx(12e3 + 5 * 1e3, rel=1e-12)
    assert consumed == pytest.approx(1e-3 + harvested, rel=1e-12)


def test_a_rail_down_span_longer_than_a_window_finds_the_enable_tick():
    params = HarvesterParams()
    n = 5000  # past the first windows of 64, 128, 256, ... ticks
    # 50 nJ per tick of cold start reach the 242 uJ enable level after 4840 ticks
    _, modes, _, _, calls = spans_match_the_oracle(params, 1e-3, [0.7] * n, [1e-3] * n, 0.0)
    enabled = modes.index(HarvesterMode.REGULATING)
    assert 64 + 128 + 256 < enabled < n and calls == 2


def first_run(params, dt, v_in, p_in, load_power, mode, e_cap):
    """The harvester after its first `run` over all of `p_in`."""
    h = Harvester(params, dt, v_in, p_in)
    h.mode, h.e_cap = mode, e_cap
    h.run(len(p_in), load_power)
    return h


# UVLO at 1.9 V holds 180.5 uJ and the enable level at 2.2 V 242 uJ on 100 uF
DEFAULTS = (HarvesterParams(), 1e-3)
# binary fractions, so a sum meets a threshold exactly: on 0.5 F the enable level
# at 2 V holds 1 J and UVLO at 1 V 0.25 J; over a 0.5 s tick, P W of input banks
# P / 4 J in cold start and a load of L W draws L J
EXACT = (
    HarvesterParams(
        c_store=0.5,
        regulation_enable_voltage=2.0,
        uvlo=1.0,
        coldstart_efficiency=0.5,
        boost_efficiency=0.5,
    ),
    0.5,
)


@pytest.mark.parametrize(
    "setup, mode, e_cap, input_power, load_power",
    [
        # 1 uJ of draw against 60 nJ banked per tick takes a cap 0.5 uJ over UVLO below it
        (DEFAULTS, HarvesterMode.REGULATING, 181e-6, 1e-4, 6e-4),
        # 0.6 uJ of cold-start charge per tick lifts a cap 0.1 uJ short of the enable level
        (DEFAULTS, HarvesterMode.COLD_START, 241.9e-6, 0.012, 6e-4),
        # no draw, but 7.2 uJ banked leaves the cap below UVLO
        (DEFAULTS, HarvesterMode.REGULATING, 150e-6, 0.012, 0.0),
        # 0.75 + 0.25 J closes the tick at the enable level itself, which rails up
        (EXACT, HarvesterMode.COLD_START, 0.75, 1.0, 0.5),
        # 0.875 + 0.25 J rails up and the 0.875 J draw leaves UVLO itself: the rail holds
        (EXACT, HarvesterMode.COLD_START, 0.875, 1.0, 0.875),
        # a depleted cap whose first tick cold-starts and banks 1.25 J: it rails up
        # at once, with no run of zero depleted ticks before it
        (EXACT, HarvesterMode.DEPLETED, 0.0, 5.0, 0.5),
    ],
    ids=[
        "drain_crosses_uvlo",
        "cold_start_enables",
        "zero_load_below_uvlo",
        "closes_at_the_enable_level",
        "rail_up_draw_leaves_uvlo",
        "depleted_rails_up_on_its_first_tick",
    ],
)
def test_a_span_that_ends_on_its_first_tick(setup, mode, e_cap, input_power, load_power):
    params, dt = setup
    v_in, p_in = [0.7] * 100, [input_power] * 100
    spans_match_the_oracle(params, dt, v_in, p_in, load_power, mode, e_cap)
    h = first_run(params, dt, v_in, p_in, load_power, mode, e_cap)
    assert h.k == 1
    assert all(ticks > 0 for _, ticks in h.modes)


@pytest.mark.parametrize("last", [63, 64 + 128 - 1], ids=["first_window", "second_window"])
def test_a_span_that_ends_on_its_windows_last_tick(last):
    params = HarvesterParams()
    dt, load_power = 1e-3, 6e-4  # 1 uJ of draw per tick against 60 nJ banked
    net = load_power * dt / params.boost_efficiency - 1e-4 * dt * params.boost_efficiency
    # half a tick's net draw over UVLO after the tick before `last`
    e_cap = 0.5 * params.c_store * params.uvlo**2 + (last + 0.5) * net
    args = (params, dt, [0.7] * 300, [1e-4] * 300, load_power, HarvesterMode.REGULATING, e_cap)
    _, modes, harvested, consumed, _ = spans_match_the_oracle(*args)
    assert modes[last - 1 : last + 1] == [HarvesterMode.REGULATING, HarvesterMode.DEPLETED]
    assert harvested > 0.0 and consumed > 0.0
    assert first_run(*args).k == last + 1


# a span inside its first window, one that fills it, and one over three (64 + 128 + 108 ticks)
@pytest.mark.parametrize("ticks", [1, 64, 300])
def test_a_regulating_span_at_zero_load_banks_one_step_per_tick(ticks):
    params = HarvesterParams()
    v_in = [0.7, 0.05, 2.0] * 100
    p_in = [1e-4, 20e-6, 0.0] * 100
    _, modes, harvested, consumed, calls = spans_match_the_oracle(
        params, 1e-3, v_in[:ticks], p_in[:ticks], 0.0, HarvesterMode.REGULATING, 200e-6
    )
    assert set(modes) == {HarvesterMode.REGULATING} and calls == 1
    assert consumed == 0.0 and harvested > 0.0
