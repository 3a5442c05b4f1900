import math

import pytest

from aquawake import (
    ConfigurationError,
    HarvesterMode,
    HarvesterParams,
    HarvesterState,
    LoadProfile,
    cap_energy,
    harvester_step,
)

GOOD_INPUT = dict(input_voltage=0.7, input_power=20e-6)
NO_INPUT = dict(input_voltage=0.0, input_power=0.0)


def run_steps(state, params, n, *, load_power=0.0, dt=1e-3, **inputs):
    for _ in range(n):
        state = harvester_step(state, params, load_power=load_power, dt=dt, **inputs)
    return state


def test_cap_energy_values():
    assert cap_energy(100e-6, 4.12) == pytest.approx(848.72e-6, rel=1e-12)
    assert cap_energy(47e-6, 2.0) == pytest.approx(94e-6, rel=1e-12)
    assert cap_energy(100e-6, 0.0) == 0.0


def test_cap_energy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cap_energy(0.0, 1.0)
    with pytest.raises(ValueError):
        cap_energy(100e-6, -0.1)
    # NaN passes every `<` and `<=` test
    with pytest.raises(ValueError, match="capacitance must be positive, got nan"):
        cap_energy(math.nan, 1.0)
    with pytest.raises(ValueError, match="voltage must be >= 0, got nan"):
        cap_energy(100e-6, math.nan)
    with pytest.raises(ValueError, match="^capacitance must be positive, got <int of "):
        cap_energy(-(10**5000), 1.0)


def test_depleted_with_no_input_is_absorbing():
    state = run_steps(HarvesterState(), HarvesterParams(), 1000, **NO_INPUT)
    assert state.mode is HarvesterMode.DEPLETED
    assert state.v_cap == 0.0
    assert state.harvested_energy == 0.0
    assert state.consumed_energy == 0.0


def test_healthy_input_exits_depleted():
    state = harvester_step(HarvesterState(), HarvesterParams(), 0.7, 20e-6, 0.0, 1e-3)
    assert state.mode is HarvesterMode.COLD_START
    assert state.v_cap > 0.0


@pytest.mark.parametrize(
    "v,p",
    [
        (0.594, 15e-6),  # voltage 1 % under
        (0.6, 14.85e-6),  # power 1 % under
        (0.594, 14.85e-6),
        (0.0, 1.0),
        (100.0, 0.0),
    ],
)
def test_coldstart_gate_rejects_inputs_below_either_threshold(v, p):
    state = run_steps(HarvesterState(), HarvesterParams(), 50, input_voltage=v, input_power=p)
    assert state.mode is HarvesterMode.DEPLETED
    assert state.v_cap == 0.0


@pytest.mark.parametrize("v,p", [(0.6, 15e-6), (0.606, 15.15e-6), (0.6, 1.0)])
def test_coldstart_gate_accepts_at_or_above_both_thresholds(v, p):
    state = harvester_step(
        HarvesterState(), HarvesterParams(), v, p, load_power=0.0, dt=1e-3
    )
    assert state.mode is HarvesterMode.COLD_START


def test_coldstart_ramp_matches_closed_form():
    params = HarvesterParams()
    n, dt, p = 400, 1e-3, 20e-6
    state = run_steps(HarvesterState(), params, n, dt=dt, **GOOD_INPUT)
    v_expected = math.sqrt(2.0 * n * p * params.coldstart_efficiency * dt / params.c_store)
    assert state.mode is HarvesterMode.COLD_START
    assert state.v_cap == pytest.approx(v_expected, rel=1e-9)
    assert state.harvested_energy == pytest.approx(
        n * p * params.coldstart_efficiency * dt, rel=1e-12
    )


def test_regulation_starts_the_tick_the_enable_voltage_is_reached():
    params = HarvesterParams()
    start_v = 2.19
    # one fat tick banks enough to cross 2.2 V; the same tick must already
    # drain the load from the cap
    state = HarvesterState(mode=HarvesterMode.COLD_START, v_cap=start_v)
    need = cap_energy(params.c_store, 2.2) - cap_energy(params.c_store, start_v)
    p_in = need / params.coldstart_efficiency / 1e-3 * 1.01
    state = harvester_step(state, params, 0.7, p_in, load_power=10e-6, dt=1e-3)
    assert state.mode is HarvesterMode.REGULATING
    assert state.consumed_energy == pytest.approx(10e-6 * 1e-3 / params.boost_efficiency)


def test_regulating_discharge_matches_closed_form():
    params = HarvesterParams()
    load, dt, n = 63e-6, 1e-3, 1000  # one second total
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=4.12)
    state = run_steps(state, params, n, load_power=load, dt=dt, **NO_INPUT)
    # 0.5 C (v0^2 - v1^2) == load * t / efficiency
    v_expected = math.sqrt(4.12**2 - 2.0 * load * n * dt / (params.boost_efficiency * params.c_store))
    assert state.mode is HarvesterMode.REGULATING
    assert state.v_cap == pytest.approx(v_expected, rel=1e-9)
    assert state.consumed_energy == pytest.approx(load * n * dt / params.boost_efficiency, rel=1e-12)


def test_regulating_banks_at_boost_efficiency_down_to_the_voltage_floor():
    params = HarvesterParams()
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=3.0)
    stepped = harvester_step(state, params, 0.1, 5e-6, load_power=0.0, dt=1e-3)
    assert stepped.harvested_energy == pytest.approx(5e-6 * 1e-3 * 0.60, rel=1e-12)
    floored = harvester_step(state, params, 0.09, 5e-6, load_power=0.0, dt=1e-3)
    assert floored.harvested_energy == 0.0


def test_rail_collapses_below_uvlo():
    params = HarvesterParams()
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=1.95)
    state = harvester_step(state, params, 0.0, 0.0, load_power=0.02, dt=1e-3)
    assert state.v_cap < params.uvlo
    assert state.mode is HarvesterMode.DEPLETED
    # and stays down without a fresh cold start
    again = harvester_step(state, params, 0.0, 0.0, load_power=0.02, dt=1e-3)
    assert again.mode is HarvesterMode.DEPLETED
    assert again.v_cap == state.v_cap


def test_load_cannot_drain_below_zero_energy():
    params = HarvesterParams()
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=2.0)
    state = harvester_step(state, params, 0.0, 0.0, load_power=10.0, dt=1.0)
    assert state.v_cap == 0.0
    assert state.consumed_energy == pytest.approx(cap_energy(params.c_store, 2.0))


def test_every_step_closes_its_energy_ledger():
    params = HarvesterParams()
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=2.5)
    for i in range(200):
        v_in = 0.3 if i % 3 else 0.05
        before = state
        state = harvester_step(state, params, v_in, 30e-6, load_power=15e-6, dt=1e-3)
        delta = cap_energy(params.c_store, state.v_cap) - cap_energy(
            params.c_store, before.v_cap
        )
        banked = state.harvested_energy - before.harvested_energy
        drained = state.consumed_energy - before.consumed_energy
        assert delta == pytest.approx(banked - drained, abs=1e-15)


def test_charging_is_monotone_with_good_input_and_no_load():
    params = HarvesterParams()
    state = HarvesterState()
    last_v = 0.0
    for _ in range(3000):
        state = harvester_step(state, params, 0.7, 2e-3, load_power=0.0, dt=1e-3)
        assert state.v_cap >= last_v
        last_v = state.v_cap
    assert state.mode is HarvesterMode.REGULATING  # made it through cold start


def test_energy_counters_never_decrease():
    params = HarvesterParams()
    state = HarvesterState(mode=HarvesterMode.REGULATING, v_cap=2.5)
    h, c = 0.0, 0.0
    for i in range(100):
        state = harvester_step(state, params, 0.5, 20e-6, load_power=10e-6, dt=1e-3)
        assert state.harvested_energy >= h and state.consumed_energy >= c
        h, c = state.harvested_energy, state.consumed_energy


def test_step_input_validation():
    with pytest.raises(ValueError):
        harvester_step(HarvesterState(), HarvesterParams(), 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        harvester_step(HarvesterState(), HarvesterParams(), 0.0, -1e-6, 0.0, 1e-3)
    with pytest.raises(ValueError):
        harvester_step(HarvesterState(), HarvesterParams(), 0.0, 0.0, -1e-6, 1e-3)


@pytest.mark.parametrize(
    "input_power, load_power, dt, message",
    [
        (0.0, 0.0, math.nan, "dt must be positive, got nan"),
        (math.nan, 0.0, 1e-3, "input_power and load_power must be >= 0"),
        (0.0, math.nan, 1e-3, "input_power and load_power must be >= 0"),
    ],
    ids=["dt", "input_power", "load_power"],
)
def test_step_rejects_nan_inputs(input_power, load_power, dt, message):
    with pytest.raises(ValueError, match=message):
        harvester_step(HarvesterState(), HarvesterParams(), 0.0, input_power, load_power, dt)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        HarvesterParams(coldstart_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        HarvesterParams(boost_efficiency=1.5)
    with pytest.raises(ConfigurationError):
        HarvesterParams(uvlo=2.3)  # above the regulation-enable voltage
    with pytest.raises(ConfigurationError):
        HarvesterParams(c_store=0.0)


def test_load_profile_defaults_and_validation():
    load = LoadProfile()
    assert load.p_listen == pytest.approx(10.7e-6)
    assert load.p_decode == pytest.approx(63e-6)
    with pytest.raises(ConfigurationError):
        LoadProfile(p_listen=-1e-6)
