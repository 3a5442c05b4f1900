"""Reference harvester: one tick at a time on plain floats, in the cap-energy domain.

`oracle_tick` states the arithmetic `power.Harvester`'s span runner
vectorises, in the form of the per-tick rule that `Harvester` documents:
the cold-start gate, the regime's charging efficiency, the enable check
after banking, the load's draw through the output converter (never more
than the cap holds), then UVLO. Each product keeps its order,
and the voltage thresholds are compared as the cap energies at them, so a
span runner and this loop must agree bit for bit.

`run_spans` is the tests' one helper over `Harvester.run` itself: a single
tick is a span over one-element inputs.
"""

from math import inf

from aquawake import HarvesterMode
from aquawake.power import Harvester

# bound once: each lookup of a member through its enum class takes about 0.2 us
DEPLETED, COLD_START, REGULATING = HarvesterMode


def threshold_energy(c_store, voltage):
    """The cap energy at a voltage threshold; one at or below 0 V always holds."""
    return 0.5 * c_store * (voltage * voltage) if voltage > 0 else -inf


def oracle_tick(params, dt, mode, energy, input_voltage, input_power, load_power):
    """One tick: returns `(mode, energy, banked, drained)` with energies in J."""
    cold_input_ok = (
        input_voltage >= params.coldstart_min_voltage
        and input_power >= params.coldstart_min_power
    )
    if mode is DEPLETED and cold_input_ok:
        mode = COLD_START

    if mode is COLD_START and cold_input_ok:
        banked = input_power * dt * params.coldstart_efficiency
    elif mode is REGULATING and input_voltage >= params.boost_min_voltage:
        banked = input_power * dt * params.boost_efficiency
    else:
        banked = 0.0
    energy += banked

    enable = threshold_energy(params.c_store, params.regulation_enable_voltage)
    if mode is COLD_START and energy >= enable:
        mode = REGULATING

    drained = 0.0
    if mode is REGULATING and load_power > 0:
        drained = min(load_power * dt / params.boost_efficiency, energy)
        energy -= drained

    if mode is REGULATING and energy < threshold_energy(params.c_store, params.uvlo):
        mode = DEPLETED  # rail collapses, load sheds next tick
    return mode, energy, banked, drained


def oracle_ticks(params, dt, inputs, mode=HarvesterMode.DEPLETED, energy=0.0):
    """`oracle_tick` over `(input_voltage, input_power, load_power)` per tick.

    Returns the per-tick energies and modes and the two energy sums, added
    up tick by tick.
    """
    energies, modes = [], []
    harvested = consumed = 0.0
    for input_voltage, input_power, load_power in inputs:
        mode, energy, banked, drained = oracle_tick(
            params, dt, mode, energy, input_voltage, input_power, load_power
        )
        harvested += banked
        consumed += drained
        energies.append(energy)
        modes.append(mode)
    return energies, modes, harvested, consumed


def run_spans(params, dt, v_in, p_in, load_power, mode=HarvesterMode.DEPLETED, e_cap=0.0):
    """`Harvester.run` over every tick under one load, called again after each early return.

    Returns the per-tick cap energies and modes, the two energy sums of
    these ticks, and the number of `run` calls.
    """
    h = Harvester(params, dt, v_in, p_in)
    h.mode, h.e_cap = mode, e_cap
    calls = 0
    while h.k < len(p_in):
        h.run(len(p_in), load_power)
        calls += 1
    per_tick = [m for m, count in h.modes for _ in range(count)]
    return h.energy.tolist(), per_tick, h.harvested, h.consumed, calls
