"""Harvester intermittency model.

The storage cap is the receiver's only energy reserve. The harvester has
three regimes: Depleted (nothing runs), ColdStart (inefficient charge pump,
needs a healthy input), and Regulating (boost charger plus the regulated
rail that feeds the listening/decoding loads). Transitions depend only on
cap voltage and the windowed input, which keeps the step function pure and
cheap enough to call on a decimated tick.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from math import sqrt

from .config import Config, Fraction, NonNegative, Positive, shown
from .errors import ConfigurationError


class HarvesterMode(Enum):
    DEPLETED = "depleted"
    COLD_START = "cold_start"
    REGULATING = "regulating"


@dataclass
class HarvesterParams(Config):
    coldstart_min_power: NonNegative = 15e-6  # W needed to leave Depleted
    coldstart_min_voltage: NonNegative = 0.6  # V needed to leave Depleted
    boost_min_voltage: float = 0.1  # V floor for the boost charger
    c_store: Positive = 100e-6  # F storage cap
    coldstart_efficiency: Fraction = 0.05
    boost_efficiency: Fraction = 0.60
    regulation_enable_voltage: float = 2.2  # V cap level that turns the rail on
    uvlo: float = 1.9  # V cap level that collapses the rail

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.uvlo >= self.regulation_enable_voltage:
            raise ConfigurationError(
                "uvlo must sit below regulation_enable_voltage for hysteresis"
            )


@dataclass
class LoadProfile(Config):
    p_listen: NonNegative = 10.7e-6  # W, armed and waiting for a sync edge
    p_decode: NonNegative = 63e-6  # W, sampling the UUID


@dataclass
class HarvesterState:
    mode: HarvesterMode = HarvesterMode.DEPLETED
    v_cap: float = 0.0  # V
    harvested_energy: float = 0.0  # J banked into the cap so far
    consumed_energy: float = 0.0  # J drained from the cap so far


def cap_energy(capacitance: float, voltage: float) -> float:
    """Energy stored on a capacitor, 0.5 * C * V^2."""
    if not capacitance > 0:
        raise ValueError(f"capacitance must be positive, got {shown(capacitance)}")
    if not voltage >= 0:
        raise ValueError(f"voltage must be >= 0, got {shown(voltage)}")
    return 0.5 * capacitance * voltage**2


def harvester_ticker(
    params: HarvesterParams, dt: float
) -> Callable[..., tuple[HarvesterMode, float, float, float, int]]:
    """The harvester over a span of ticks of duration dt, on plain floats.

    `run(mode, v_cap, harvested, consumed, v_in, p_in, k, stop, load_power,
    vcap, modes)` advances ticks `k..stop-1` under one load, tick `j` fed
    `v_in[j]` (V) and `p_in[j]` (W), and appends each tick's cap voltage and
    mode to `vcap` and `modes`. It returns `(mode, v_cap, harvested, consumed,
    k)`, with the two energy sums (J) carried on tick by tick and `k` the
    next tick, after the first tick whose mode crosses the rail boundary
    (regulating or not), or `stop`. It is the arithmetic `harvester_step`
    describes, with dt checked once here, the load once per span and the
    input power on every tick.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {shown(dt)}")
    min_voltage = params.coldstart_min_voltage
    min_power = params.coldstart_min_power
    boost_min_voltage = params.boost_min_voltage
    c_store = params.c_store
    coldstart_efficiency = params.coldstart_efficiency
    boost_efficiency = params.boost_efficiency
    enable_voltage = params.regulation_enable_voltage
    uvlo = params.uvlo
    depleted = HarvesterMode.DEPLETED
    cold_start = HarvesterMode.COLD_START
    regulating = HarvesterMode.REGULATING

    def run(mode, v_cap, harvested, consumed, v_in, p_in, k, stop, load_power, vcap, modes):
        if not load_power >= 0:
            raise ValueError("input_power and load_power must be >= 0")
        railed = mode is regulating
        append_v_cap, append_mode = vcap.append, modes.append
        for j in range(k, stop):
            input_voltage = v_in[j]
            input_power = p_in[j]
            if not input_power >= 0:
                raise ValueError("input_power and load_power must be >= 0")
            cold_input_ok = input_voltage >= min_voltage and input_power >= min_power
            if mode is depleted and cold_input_ok:
                mode = cold_start

            # keep each product's order: a hoisted dt * efficiency rounds differently
            if mode is cold_start and cold_input_ok:
                banked = input_power * dt * coldstart_efficiency
            elif mode is regulating and input_voltage >= boost_min_voltage:
                banked = input_power * dt * boost_efficiency
            else:
                banked = 0.0

            energy = 0.5 * c_store * v_cap**2 + banked
            if mode is cold_start and sqrt(max(0.0, 2.0 * energy / c_store)) >= enable_voltage:
                mode = regulating

            drained = 0.0
            if mode is regulating and load_power > 0:
                drained = min(load_power * dt / boost_efficiency, energy)
                energy -= drained

            v_cap = sqrt(max(0.0, 2.0 * energy / c_store))
            if mode is regulating and v_cap < uvlo:
                mode = depleted  # rail collapses, load sheds next tick
            harvested += banked
            consumed += drained
            append_v_cap(v_cap)
            append_mode(mode)
            if (mode is regulating) is not railed:
                return mode, v_cap, harvested, consumed, j + 1
        return mode, v_cap, harvested, consumed, stop

    return run


def harvester_step(
    state: HarvesterState,
    params: HarvesterParams,
    input_voltage: float,
    input_power: float,
    load_power: float,
    dt: float,
) -> HarvesterState:
    """Advance the harvester by one tick of duration dt.

    Charging happens at the regime's efficiency, the load drains the cap
    through the output converter (boost_efficiency), and mode transitions
    use the post-step cap voltage. The per-step energy ledger is exact:
    delta cap energy == banked - drained.
    """
    run = harvester_ticker(params, dt)
    cap_energy(params.c_store, state.v_cap)  # checks the state, which a span trusts
    mode, v_cap, harvested, consumed, _ = run(
        state.mode, state.v_cap, state.harvested_energy, state.consumed_energy,
        [input_voltage], [input_power], 0, 1, load_power, [], [],
    )
    return HarvesterState(mode, v_cap, harvested, consumed)
