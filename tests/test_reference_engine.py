"""Whole runs against `reference_engine.reference_run`, field by field.

Every `ScenarioResult` field of `run_scenario` must equal the reference
run's (`assert_same_run`: the bytes of each array and of the edge trace, the
`repr` of each other value). This one check pins the whole chain, from the
transmit to the wake decision, through no seam of `sim`: on the tests' one
whole-run draw (`reference_engine.scenarios`, around the three presets over
range, preamble, address, sample offset, bit rate, noise, echo, drive, cap,
loads, decimation and seed), and on the presets at 20, 50, 200 and 1000 bps,
with no hysteresis and with the preset's.

Each run, computed once with its reference, also keeps the engine's
invariants: a second run gives the same bytes; the energy ledger closes
from outside; a wake means the assigned address, at the decision time; and
rail-up, first sync and decision come in that order. A voltage-domain loop
over `harvester_oracle.oracle_tick`, which turns the cap voltage into energy
and back on every tick, fed the reference run's per-tick inputs and loads,
may move the run's cap voltages by rounding only, and neither its modes nor
its energy sums: by tick j, the cap energy of its voltage may be j + 1 ulps
of the run's peak so far off (a drift of one ulp of voltage per tick fails).

`assert_same_run` itself fails on a one-ulp or one-bit change to any one
field or on a run of `mode_runs` split in two, and the draw reaches the
axes the paper varies: wakes at another range, preamble, address and
sample offset, and a frame decoded for another address.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings

from aquawake import (
    DigitalTrace, HarvesterMode, LoadProfile, ScenarioResult, cap_energy, run_scenario,
)
from harvester_oracle import oracle_tick
from reference_engine import PRESETS, assert_same_run, at_bit_rate, reference_run, scenarios


def assert_the_invariants(sc, r):
    final = cap_energy(sc.harvester.c_store, float(r.vcap_values[-1]))
    closure = r.harvested_energy - r.consumed_energy - final
    assert abs(closure) <= 1e-9 * r.harvested_energy

    if r.woke:
        assert r.decoded_uuid == sc.decoder.assigned_uuid
        assert r.time_to_wake == r.decision_time
    else:
        assert r.time_to_wake is None

    if r.decision_time is not None:
        assert r.first_sync_time is not None
        assert r.first_sync_time <= r.decision_time
    if r.first_sync_time is not None:
        assert r.rail_up_time is not None
        assert r.rail_up_time <= r.first_sync_time


def assert_a_voltage_domain_loop_drifts_only_by_rounding(sc, r, ticks):
    dt, v_in, p_in, loads = ticks
    params = sc.harvester
    mode, v_cap, harvested, consumed = HarvesterMode.DEPLETED, 0.0, 0.0, 0.0
    vcap, modes = [], []
    for input_voltage, input_power, load_power in zip(v_in.tolist(), p_in.tolist(), loads):
        mode, energy, banked, drained = oracle_tick(
            params, dt, mode, cap_energy(params.c_store, v_cap),
            input_voltage, input_power, load_power,
        )
        v_cap = math.sqrt(2.0 * energy / params.c_store)
        harvested += banked
        consumed += drained
        vcap.append(v_cap)
        modes.append(mode.value)

    # every tick rounds the cap energy through a voltage, drained or not, so by
    # tick j the loop may have moved the cap energy by j + 1 ulps of the peak so far
    run_energy = 0.5 * params.c_store * (r.vcap_values * r.vcap_values)
    vcap = np.array(vcap)
    drift = np.abs(0.5 * params.c_store * (vcap * vcap) - run_energy)
    bound = np.arange(1, len(vcap) + 1) * 2.0**-52 * np.maximum.accumulate(run_energy)
    worst = int(np.argmax(drift - bound))
    assert drift[worst] <= bound[worst], (
        f"tick {worst}: the cap energy drifts {drift[worst]:g} J, over {bound[worst]:g} J")
    assert modes == r.mode_values
    assert harvested.hex() == r.harvested_energy.hex()
    assert consumed.hex() == r.consumed_energy.hex()


def assert_matches_the_reference_run(sc):
    result = run_scenario(sc)
    reference, ticks = reference_run(sc)
    assert_same_run(result, reference)
    assert_same_run(run_scenario(sc), result)
    assert_the_invariants(sc, result)
    assert_a_voltage_domain_loop_drifts_only_by_rounding(sc, result, ticks)


# no shrink phase: a failure reports its first failing draw (reproducible, as
# derandomized) in seconds, where shrinking whole runs took minutes
@settings(max_examples=50, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(scenarios())
def test_a_run_matches_the_reference_run(sc):
    assert_matches_the_reference_run(sc)


@pytest.mark.parametrize("hysteresis", ["zero", "preset"])
@pytest.mark.parametrize("bit_rate", [20.0, 50.0, 200.0, 1000.0])
@pytest.mark.parametrize("name", list(PRESETS))
def test_a_preset_at_a_bit_rate_matches_the_reference_run(name, bit_rate, hysteresis):
    sc = PRESETS[name]
    level = 0.0 if hysteresis == "zero" else sc.resolved_demod().hysteresis
    assert_matches_the_reference_run(at_bit_rate(sc, bit_rate, level))


def heavy_drain():
    """`paper_fig5` charged to 24.7 V on a 20 uF cap, then drained by 50 mW
    loads over most of its 19 885 ticks (decimation 2). Its voltage-domain
    loop drifts by rounding only, yet by 2.7e-12 relative on 819 ticks."""
    sc = at_bit_rate(PRESETS["paper_fig5"], 136.49, 0.0373)
    return replace(
        sc,
        modulation=replace(sc.modulation, tx_amplitude=83.28),
        harvester=replace(sc.harvester, c_store=20e-6),
        load=LoadProfile(p_listen=50e-3, p_decode=50e-3),
        sim=replace(sc.sim, harvester_decimation=2, tail_duration=0.05, seed=2),
    )


def test_a_long_heavy_drain_matches_the_reference_run():
    assert_matches_the_reference_run(heavy_drain())


@pytest.mark.parametrize("name", ["paper_fig5", "heavy_drain"])
def test_a_drift_of_one_ulp_per_tick_fails_the_drift_check(name):
    sc = heavy_drain() if name == "heavy_drain" else PRESETS[name]
    result, ticks = reference_run(sc)
    assert_a_voltage_domain_loop_drifts_only_by_rounding(sc, result, ticks)
    # tick j's voltage j + 1 ulps off: its cap energy about twice that
    values = result.vcap_values
    ulps = np.arange(1, len(values) + 1) * np.spacing(values)
    drifted = replace(result, vcap_values=values + ulps)
    with pytest.raises(AssertionError, match="drifts"):
        assert_a_voltage_domain_loop_drifts_only_by_rounding(sc, drifted, ticks)


def one_field_changed(result, name):
    """A copy of `result` with field `name` (or one array of the edge trace)
    moved by one ulp or one bit, or with a run of its `mode_runs` split in two."""
    changed = replace(result)
    if name.startswith("edge_trace."):
        times, levels = result.edge_trace.edge_times.copy(), result.edge_trace.edge_levels.copy()
        if name == "edge_trace.edge_times":
            times[-1] = np.nextafter(times[-1], np.inf)
        else:
            levels[0] = not levels[0]
        changed.edge_trace = DigitalTrace(times, levels)
        return changed
    value = getattr(result, name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[-1] = np.nextafter(value[-1], np.inf)
    elif isinstance(value, bool):
        value = not value
    elif isinstance(value, int):
        value ^= 1
    elif isinstance(value, float):
        value = np.nextafter(value, np.inf).item()
    else:  # mode_runs: the first run of two or more ticks split in two
        i = next(i for i, (_, ticks) in enumerate(value) if ticks > 1)
        mode, ticks = value[i]
        value = (*value[:i], (mode, 1), (mode, ticks - 1), *value[i + 1 :])
    setattr(changed, name, value)
    return changed


RESULT_FIELDS = [f.name for f in fields(ScenarioResult) if f.name != "edge_trace"]


@pytest.mark.parametrize(
    "name", [*RESULT_FIELDS, "edge_trace.edge_times", "edge_trace.edge_levels"]
)
def test_a_change_to_one_field_fails_the_same_run_check(name):
    result = run_scenario(PRESETS["paper_fig5"])  # woke: no field is None
    assert_same_run(replace(result), result)
    changed = one_field_changed(result, name)
    if name == "mode_runs":  # the same mode at every tick, in another run list
        assert changed.mode_values == result.mode_values
    with pytest.raises(AssertionError):
        assert_same_run(changed, result)
    with pytest.raises(AssertionError):
        assert_same_run(result, changed)


def preset_values(read):
    return {read(sc) for sc in PRESETS.values()}


def wakes(sc):
    return run_scenario(sc).woke


def decodes_for_another_address(sc):
    listens_elsewhere = sc.decoder.assigned_uuid != sc.frame.uuid
    return listens_elsewhere and run_scenario(sc).decoded_uuid == sc.frame.uuid


REACHED = {
    "a wake at another range": lambda sc: (
        sc.channel.distance not in preset_values(lambda p: p.channel.distance) and wakes(sc)),
    "a wake after another preamble": lambda sc: (
        sc.frame.preamble_duration not in preset_values(lambda p: p.frame.preamble_duration)
        and wakes(sc)),
    "a wake on another address": lambda sc: (
        sc.frame.uuid not in preset_values(lambda p: p.frame.uuid) and wakes(sc)),
    "a wake at another sample offset": lambda sc: (
        sc.decoder.sample_offset not in preset_values(lambda p: p.decoder.sample_offset)
        and wakes(sc)),
    "a frame decoded for another address": decodes_for_another_address,
    "an echo beyond 10 m": lambda sc: any(e.extra_path > 10.0 for e in sc.channel.echoes),
    "decimation 1": lambda sc: sc.sim.harvester_decimation == 1,
}


@pytest.mark.parametrize("what", list(REACHED))
def test_the_draw_reaches(what):
    # generation only: a found example is not worth shrinking
    find(scenarios(), REACHED[what],
         settings=settings(max_examples=200, derandomize=True, database=None,
                           phases=[Phase.generate]))
