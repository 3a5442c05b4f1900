"""Reference harvester: run_scenario's span runner against per-tick loops.

The engine keeps the cap's energy and advances it in spans, one numpy
accumulate each, through `Harvester.run`. Here the `Harvester` is
wrapped to record each span call's load, the run's ticks are replayed one
at a time, and the results are compared:

- through the plain-float energy-domain oracle in `harvester_oracle`, the
  cap energies, modes and energy sums must agree bit for bit;
- through a voltage-domain loop over the same oracle, which turns the cap
  voltage into energy and back on every tick, the cap voltages may drift
  by rounding (at most 1e-12 relative) but the modes and energy sums must
  not move.

Scenarios sit near the echo-free and echo presets, with listening loads
heavy enough to drop the rail after rail-up and harvester decimations from
1 to 64. Explicit cases and random tick inputs cover what the presets do
not reach: thresholds at or below 0 V, a load that empties the cap partway
through a span, and a drain that overflows to inf.
"""

import math
from dataclasses import replace
from itertools import repeat
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import (
    HarvesterMode,
    HarvesterParams,
    cap_energy,
    load_scenario,
    run_scenario,
)
from aquawake.cli import preset_path
from aquawake.power import Harvester
from harvester_oracle import oracle_tick, oracle_ticks, run_spans

PRESETS = {name: load_scenario(preset_path(name)) for name in ("paper_fig5", "paper_echo")}


@st.composite
def scenarios(draw):
    sc = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    # drive from too weak to rail up to twice the preset's level
    drive = sc.modulation.tx_amplitude * draw(st.floats(min_value=0.2, max_value=2.0))
    return replace(
        sc,
        modulation=replace(sc.modulation, tx_amplitude=drive),
        harvester=replace(sc.harvester, c_store=draw(st.floats(min_value=20e-6, max_value=400e-6))),
        load=replace(
            sc.load,
            # up to 50 mW of listening, over a tail of up to 50 ms, drains the
            # cap below UVLO after rail-up
            p_listen=draw(st.sampled_from([50e-3, 10e-3, 1e-3, sc.load.p_listen])),
            p_decode=draw(st.floats(min_value=0.0, max_value=500e-6)),
        ),
        sim=replace(
            sc.sim,
            harvester_decimation=draw(st.integers(1, 64)),
            tail_duration=draw(st.sampled_from([0.05, sc.sim.tail_duration])),
        ),
    )


def run_recording_ticks(sc):
    """The run, its harvester's (params, dt, energy) and each tick's inputs."""
    built = []
    loads = []  # load_power per tick
    real_init, real_run = Harvester.__init__, Harvester.run

    def recording_init(self, params, dt, v_in, p_in):
        real_init(self, params, dt, v_in, p_in)
        built.append((params, dt, self.energy, np.array(v_in).tolist(), np.array(p_in).tolist()))

    def recording_run(self, stop, load_power):
        k = self.k
        assert k == len(loads) < stop  # spans tile the ticks, none empty
        real_run(self, stop, load_power)
        loads.extend(repeat(load_power, self.k - k))

    with patch.object(Harvester, "__init__", recording_init):
        with patch.object(Harvester, "run", recording_run):
            result = run_scenario(sc)
    [(params, dt, energy, v_in, p_in)] = built
    assert len(loads) == len(v_in)
    return result, params, dt, energy, list(zip(v_in, p_in, loads))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenarios())
def test_the_tick_loop_matches_the_per_tick_energy_oracle(sc):
    result, params, dt, energy, inputs = run_recording_ticks(sc)
    assert params == sc.harvester
    assert dt == sc.sim.harvester_decimation / sc.modulation.sample_rate

    energies, modes, harvested, consumed = oracle_ticks(params, dt, inputs)

    assert energy.tolist() == energies  # float equality: bit for bit, 0.0 == -0.0 aside
    vcap = np.sqrt(2.0 * np.array(energies) / params.c_store)
    assert vcap.tobytes() == result.vcap_values.tobytes()
    assert [mode.value for mode in modes] == result.mode_values
    assert harvested.hex() == result.harvested_energy.hex()
    assert consumed.hex() == result.consumed_energy.hex()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(scenarios())
def test_a_voltage_domain_per_tick_loop_drifts_only_by_rounding(sc):
    # the loop rounds the cap energy through a voltage on every tick
    result, params, dt, _, inputs = run_recording_ticks(sc)

    mode, v_cap, harvested, consumed = HarvesterMode.DEPLETED, 0.0, 0.0, 0.0
    vcap, modes = [], []
    for input_voltage, input_power, load_power in inputs:
        mode, energy, banked, drained = oracle_tick(
            params, dt, mode, cap_energy(params.c_store, v_cap),
            input_voltage, input_power, load_power,
        )
        v_cap = math.sqrt(2.0 * energy / params.c_store)
        harvested += banked
        consumed += drained
        vcap.append(v_cap)
        modes.append(mode.value)

    np.testing.assert_allclose(vcap, result.vcap_values, rtol=1e-12, atol=0.0)
    assert modes == result.mode_values
    assert harvested.hex() == result.harvested_energy.hex()
    assert consumed.hex() == result.consumed_energy.hex()


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


def first_run_ticks(params, dt, v_in, p_in, load_power, mode, e_cap):
    """The ticks the first `Harvester.run` over all of `p_in` advances."""
    h = Harvester(params, dt, v_in, p_in)
    h.mode, h.e_cap = mode, e_cap
    h.run(len(p_in), load_power)
    return h.k


# UVLO at 1.9 V holds 180.5 uJ and the enable level at 2.2 V 242 uJ on 100 uF
@pytest.mark.parametrize(
    "mode, e_cap, input_power, load_power",
    [
        # 1 uJ of draw against 60 nJ banked per tick takes a cap 0.5 uJ over UVLO below it
        (HarvesterMode.REGULATING, 181e-6, 1e-4, 6e-4),
        # 0.6 uJ of cold-start charge per tick lifts a cap 0.1 uJ short of the enable level
        (HarvesterMode.COLD_START, 241.9e-6, 0.012, 6e-4),
        # no draw, but 7.2 uJ banked leaves the cap below UVLO
        (HarvesterMode.REGULATING, 150e-6, 0.012, 0.0),
    ],
    ids=["drain_crosses_uvlo", "cold_start_enables", "zero_load_below_uvlo"],
)
def test_a_span_that_ends_on_its_first_tick(mode, e_cap, input_power, load_power):
    params = HarvesterParams()
    v_in, p_in = [0.7] * 100, [input_power] * 100
    spans_match_the_oracle(params, 1e-3, v_in, p_in, load_power, mode, e_cap)
    assert first_run_ticks(params, 1e-3, v_in, p_in, load_power, mode, e_cap) == 1


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
    assert first_run_ticks(*args) == last + 1


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
