import math
from dataclasses import replace

import numpy as np
import pytest

from aquawake import (
    ConfigurationError,
    HarvesterMode,
    HarvesterParams,
    LoadProfile,
    cap_energy,
    load_scenario,
    run_scenario,
)
from aquawake.cli import preset_path
from aquawake.power import Harvester, _threshold_energy
from harvester_oracle import run_spans

DEPLETED = HarvesterMode.DEPLETED
COLD_START = HarvesterMode.COLD_START
REGULATING = HarvesterMode.REGULATING


def tick(params, v_in, p_in, load_power, dt=1e-3, mode=DEPLETED, e_cap=0.0):
    """One tick: `(mode, cap energy, banked, drained)`."""
    energy, modes, harvested, consumed, _ = run_spans(
        params, dt, [v_in], [p_in], load_power, mode, e_cap
    )
    return modes[0], energy[0], harvested, consumed


def volts(params, e_cap):
    return math.sqrt(2.0 * e_cap / params.c_store)


def test_cap_energy_values():
    assert cap_energy(100e-6, 4.12) == pytest.approx(848.72e-6, rel=1e-12)
    assert cap_energy(47e-6, 2.0) == pytest.approx(94e-6, rel=1e-12)
    assert cap_energy(100e-6, 0.0) == 0.0
    # a square past float range is inf, not an OverflowError
    assert cap_energy(100e-6, 1e200) == math.inf
    # any cap meets a threshold at or below 0 V
    assert _threshold_energy(100e-6, 0.0) == -math.inf
    assert _threshold_energy(100e-6, -1.0) == -math.inf


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
    energy, modes, harvested, consumed, _ = run_spans(
        HarvesterParams(), 1e-3, [0.0] * 1000, [0.0] * 1000, 0.0
    )
    assert modes == [DEPLETED] * 1000
    assert energy == [0.0] * 1000
    assert harvested == 0.0
    assert consumed == 0.0


def test_healthy_input_exits_depleted():
    mode, e_cap, _, _ = tick(HarvesterParams(), 0.7, 20e-6, 0.0)
    assert mode is COLD_START
    assert e_cap > 0.0


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
    energy, modes, _, _, _ = run_spans(HarvesterParams(), 1e-3, [v] * 50, [p] * 50, 0.0)
    assert modes[-1] is DEPLETED
    assert energy[-1] == 0.0


@pytest.mark.parametrize("v,p", [(0.6, 15e-6), (0.606, 15.15e-6), (0.6, 1.0)])
def test_coldstart_gate_accepts_at_or_above_both_thresholds(v, p):
    mode, _, _, _ = tick(HarvesterParams(), v, p, load_power=0.0)
    assert mode is COLD_START


def test_coldstart_ramp_matches_closed_form():
    params = HarvesterParams()
    n, dt, p = 400, 1e-3, 20e-6
    energy, modes, harvested, _, _ = run_spans(params, dt, [0.7] * n, [p] * n, 0.0)
    v_expected = math.sqrt(2.0 * n * p * params.coldstart_efficiency * dt / params.c_store)
    assert modes[-1] is COLD_START
    assert volts(params, energy[-1]) == pytest.approx(v_expected, rel=1e-9)
    assert harvested == pytest.approx(n * p * params.coldstart_efficiency * dt, rel=1e-12)


def test_regulation_starts_the_tick_the_enable_voltage_is_reached():
    params = HarvesterParams()
    start = cap_energy(params.c_store, 2.19)
    # one fat tick banks enough to cross 2.2 V; the same tick must already
    # drain the load from the cap
    need = cap_energy(params.c_store, 2.2) - start
    p_in = need / params.coldstart_efficiency / 1e-3 * 1.01
    mode, _, _, drained = tick(params, 0.7, p_in, 10e-6, mode=COLD_START, e_cap=start)
    assert mode is REGULATING
    assert drained == pytest.approx(10e-6 * 1e-3 / params.boost_efficiency)


def test_regulating_discharge_matches_closed_form():
    params = HarvesterParams()
    load, dt, n = 63e-6, 1e-3, 1000  # one second total
    energy, modes, _, consumed, _ = run_spans(
        params, dt, [0.0] * n, [0.0] * n, load, REGULATING, cap_energy(params.c_store, 4.12)
    )
    # 0.5 C (v0^2 - v1^2) == load * t / efficiency
    v_expected = math.sqrt(4.12**2 - 2.0 * load * n * dt / (params.boost_efficiency * params.c_store))
    assert modes[-1] is REGULATING
    assert volts(params, energy[-1]) == pytest.approx(v_expected, rel=1e-9)
    assert consumed == pytest.approx(load * n * dt / params.boost_efficiency, rel=1e-12)


def test_regulating_banks_at_boost_efficiency_down_to_the_voltage_floor():
    params = HarvesterParams()
    start = dict(mode=REGULATING, e_cap=cap_energy(params.c_store, 3.0))
    _, _, banked, _ = tick(params, 0.1, 5e-6, 0.0, **start)
    assert banked == pytest.approx(5e-6 * 1e-3 * 0.60, rel=1e-12)
    _, _, floored, _ = tick(params, 0.09, 5e-6, 0.0, **start)
    assert floored == 0.0


def test_rail_collapses_below_uvlo():
    params = HarvesterParams()
    start = cap_energy(params.c_store, 1.95)
    mode, e_cap, _, _ = tick(params, 0.0, 0.0, 0.02, mode=REGULATING, e_cap=start)
    assert volts(params, e_cap) < params.uvlo
    assert mode is DEPLETED
    # and stays down without a fresh cold start
    again, e_again, _, _ = tick(params, 0.0, 0.0, 0.02, mode=mode, e_cap=e_cap)
    assert again is DEPLETED
    assert e_again == e_cap


def test_load_cannot_drain_below_zero_energy():
    params = HarvesterParams()
    start = cap_energy(params.c_store, 2.0)
    _, e_cap, _, drained = tick(params, 0.0, 0.0, 10.0, dt=1.0, mode=REGULATING, e_cap=start)
    assert e_cap == 0.0
    assert drained == pytest.approx(cap_energy(params.c_store, 2.0))


def test_every_step_closes_its_energy_ledger():
    params = HarvesterParams()
    mode, e_cap = REGULATING, cap_energy(params.c_store, 2.5)
    for i in range(200):
        v_in = 0.3 if i % 3 else 0.05
        before = e_cap
        mode, e_cap, banked, drained = tick(params, v_in, 30e-6, 15e-6, mode=mode, e_cap=e_cap)
        assert e_cap - before == pytest.approx(banked - drained, abs=1e-15)


def test_charging_is_monotone_with_good_input_and_no_load():
    params = HarvesterParams()
    energy, modes, _, _, _ = run_spans(params, 1e-3, [0.7] * 3000, [2e-3] * 3000, 0.0)
    vcap = np.sqrt(2.0 * np.array(energy) / params.c_store)
    assert (np.diff(vcap, prepend=0.0) >= 0).all()
    assert modes[-1] is REGULATING  # made it through cold start


def test_energy_counters_never_decrease():
    params = HarvesterParams()
    mode, e_cap = REGULATING, cap_energy(params.c_store, 2.5)
    for _ in range(100):
        mode, e_cap, banked, drained = tick(params, 0.5, 20e-6, 10e-6, mode=mode, e_cap=e_cap)
        assert banked >= 0 and drained >= 0  # what each tick adds to the two sums


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_the_ticker_rejects_a_dt_that_is_not_positive(dt):
    with pytest.raises(ValueError, match=f"^dt must be positive, got {dt!r}$"):
        Harvester(HarvesterParams(), dt, [0.7], [1e-3])


@pytest.mark.parametrize(
    "v_in, p_in, shapes",
    [
        # numpy would broadcast the one voltage over three ticks, or run one tick of three
        ([0.7], [1e-3] * 3, r"v_in \(1,\) and p_in \(3,\)"),
        ([0.7] * 3, [1e-3], r"v_in \(3,\) and p_in \(1,\)"),
        (0.7, 1e-3, r"v_in \(\) and p_in \(\)"),
        ([[0.7]], [[1e-3]], r"v_in \(1, 1\) and p_in \(1, 1\)"),
    ],
)
def test_the_ticker_rejects_tick_inputs_that_do_not_match(v_in, p_in, shapes):
    with pytest.raises(ValueError, match=f"^{shapes} must be 1-D of equal length$"):
        Harvester(HarvesterParams(), 1e-3, v_in, p_in)


@pytest.mark.parametrize(
    "input_power, load_power",
    [(-1e-6, 0.0), (0.0, -1e-6), (math.nan, 0.0), (0.0, math.nan)],
)
def test_a_tick_rejects_a_negative_or_nan_power(input_power, load_power):
    message = "^input_power and load_power must be >= 0$"
    if not input_power >= 0:
        with pytest.raises(ValueError, match=message):
            Harvester(HarvesterParams(), 1e-3, [0.7], [input_power])
        return
    h = Harvester(HarvesterParams(), 1e-3, [0.7] * 2, [1e-3] * 2)
    h.run(1, 0.0)  # one cold-start tick: not the start state
    before = h.k, h.mode, h.e_cap, h.harvested, h.consumed, list(h.modes)
    with pytest.raises(ValueError, match=message):
        h.run(2, load_power)
    # a rejected run leaves the state as it was
    assert (h.k, h.mode, h.e_cap, h.harvested, h.consumed, h.modes) == before


def test_a_run_rejects_a_stop_past_the_last_tick():
    h = Harvester(HarvesterParams(), 1e-3, [0.7] * 2, [1e-3] * 2)
    with pytest.raises(ValueError, match="^stop 5 is past the last of the 2 ticks$"):
        h.run(5, 0.0)
    # rejected before the first tick: still the start state
    start = (0, HarvesterMode.DEPLETED, 0.0, 0.0, 0.0, [])
    assert (h.k, h.mode, h.e_cap, h.harvested, h.consumed, h.modes) == start
    h.run(2, 0.0)  # the end of the last tick is a valid stop
    assert h.k == 2 and h.mode is HarvesterMode.COLD_START


def advance_lengths(monkeypatch, scenario) -> tuple[list[int], int]:
    """The ticks each `Harvester._advance` call of one run covers, and the run's
    ticks; the run's `Harvester.run` spans must tile its ticks, none empty."""
    lengths, tiled = [], [0]  # tiled: the tick after each span
    advance, run = Harvester._advance, Harvester.run

    def counted(self, end, drain):
        lengths.append(end - self.k)
        return advance(self, end, drain)

    def spanned(self, stop, load_power):
        assert self.k == tiled[-1] < stop  # spans tile the ticks, none empty
        run(self, stop, load_power)
        tiled.append(self.k)

    monkeypatch.setattr(Harvester, "_advance", counted)
    monkeypatch.setattr(Harvester, "run", spanned)
    ticks = len(run_scenario(scenario).vcap_values)
    assert tiled[-1] == ticks
    return lengths, ticks


def test_a_flapping_rail_keeps_its_windows_short(monkeypatch):
    # a 1 nF cap under a 1 W listening load drops the rail on the tick it comes
    # up, so nearly every span is a tick or two long
    sc = load_scenario(preset_path("paper_fig5"))
    sc = replace(
        sc,
        harvester=replace(sc.harvester, c_store=1e-9),
        load=replace(sc.load, p_listen=1.0),
        sim=replace(sc.sim, harvester_decimation=1),
    )
    lengths, ticks = advance_lengths(monkeypatch, sc)
    assert ticks == 24217
    assert len(lengths) > 10_000
    # 64-tick first windows cover 31.9x the run's ticks; a window the length of
    # the span's rest would cover thousands of times them
    assert sum(lengths) <= 2 * 31.9 * ticks


def test_a_long_run_starts_its_next_span_from_the_last_spans_length(monkeypatch):
    sc = load_scenario(preset_path("paper_echo"))
    sc = replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    lengths, ticks = advance_lengths(monkeypatch, sc)
    assert ticks == 3114
    # with every span's first window at 64 ticks the run takes 16 calls
    assert len(lengths) < 16


def test_params_validation():
    with pytest.raises(ConfigurationError):
        HarvesterParams(coldstart_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        HarvesterParams(boost_efficiency=1.5)
    with pytest.raises(ConfigurationError):
        HarvesterParams(uvlo=2.3)  # above the regulation-enable voltage
    with pytest.raises(ConfigurationError, match="uvlo must sit below regulation_enable_voltage"):
        HarvesterParams(uvlo=2.2)  # at it: no hysteresis left
    with pytest.raises(ConfigurationError):
        HarvesterParams(c_store=0.0)


def test_load_profile_defaults_and_validation():
    load = LoadProfile()
    assert load.p_listen == pytest.approx(10.7e-6)
    assert load.p_decode == pytest.approx(63e-6)
    with pytest.raises(ConfigurationError):
        LoadProfile(p_listen=-1e-6)
