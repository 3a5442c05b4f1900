"""Harvester intermittency model.

The storage cap is the receiver's only energy reserve. The harvester has
three regimes: Depleted (nothing runs), ColdStart (inefficient charge pump,
needs a healthy input), and Regulating (boost charger plus the regulated
rail that feeds the listening/decoding loads). Transitions depend only on
the cap's charge and the windowed input. The model keeps the cap's energy,
so a run of ticks under one load is a running sum and the voltage
thresholds are compared as the energies at them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from math import inf, sqrt

import numpy as np

from .config import Config, Fraction, NonNegative, Positive, shown
from .errors import ConfigurationError


# ticks in a span's first window; each further window is twice the last
_FIRST_WINDOW = 64


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


def _threshold_energy(c_store: float, voltage: float) -> float:
    """The cap energy at a voltage threshold; -inf for one at or below 0 V, which any cap meets.

    `voltage * voltage`, not `voltage**2`: a float square that overflows is inf, not an error.
    """
    return 0.5 * c_store * (voltage * voltage) if voltage > 0 else -inf


def harvester_ticker(
    params: HarvesterParams, dt: float, v_in, p_in
) -> tuple[Callable[..., tuple[HarvesterMode, float, float, float, int]], np.ndarray, list]:
    """The harvester over a run of ticks of duration dt, in the cap-energy domain.

    Tick `j` is fed `v_in[j]` (V) and `p_in[j]` (W). Returns `(run, energy,
    modes)`. `run(mode, e_cap, harvested, consumed, k, stop, load_power)`
    advances ticks from `k` under one load and returns `(mode, e_cap,
    harvested, consumed, k)`, with `e_cap` the cap energy and `k` the next
    tick: `stop`, or the tick after the first whose mode crosses the rail
    boundary (regulating or not) or whose load empties the cap. It writes
    each tick's closing cap energy (J) to `energy[j]` and appends the ticks'
    modes to `modes` as `(mode, run length)` pairs.

    It is the arithmetic `harvester_step` describes. The banked energy of
    every tick is computed once here. A span is one `np.add.accumulate` per
    window of ticks, which adds left to right like a scalar loop, so the cap
    energy and the two energy sums (J) add up tick by tick. Cap-voltage
    thresholds are compared as energies. Like plain floats, the sums
    overflow to inf; call `run` under `np.errstate(over="ignore",
    invalid="ignore")`.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {shown(dt)}")
    v_in = np.asarray(v_in, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    if not (p_in >= 0).all():
        raise ValueError("input_power and load_power must be >= 0")
    boost_efficiency = params.boost_efficiency
    cold_ok = (v_in >= params.coldstart_min_voltage) & (p_in >= params.coldstart_min_power)
    with np.errstate(over="ignore"):
        # keep each product's order: a hoisted dt * efficiency rounds differently
        b_cold = np.where(cold_ok, p_in * dt * params.coldstart_efficiency, 0.0)
        b_reg = np.where(v_in >= params.boost_min_voltage, p_in * dt * boost_efficiency, 0.0)
    e_enable = _threshold_energy(params.c_store, params.regulation_enable_voltage)
    e_uvlo = _threshold_energy(params.c_store, params.uvlo)
    floor = max(e_uvlo, 0.0)  # below it a rail-up tick ends the span: UVLO, or an emptied cap
    depleted = HarvesterMode.DEPLETED
    cold_start = HarvesterMode.COLD_START
    regulating = HarvesterMode.REGULATING
    energy = np.empty(len(p_in))
    modes: list[tuple[HarvesterMode, int]] = []

    def advance(mode, e_cap, harvested, consumed, k, end, drain):
        # ticks k..end-1 on one accumulate; the returned flag says a tick ended the span
        if mode is regulating:
            banked, steps = b_reg, 2 if drain > 0 else 1  # a bank row, then a drain row
        else:
            if mode is depleted:  # nothing banks until the input can cold-start
                woke = k + int(cold_ok[k:end].argmax())
                if not cold_ok[woke]:
                    woke = end
                energy[k:woke] = e_cap
                if woke > k:
                    modes.append((depleted, woke - k))
                if woke == end:
                    return mode, e_cap, harvested, consumed, end, False
                mode, k = cold_start, woke
            banked, steps = b_cold, 1
        rows = np.zeros((steps * (end - k) + 1, 3))  # cap energy, harvested, consumed
        rows[0] = e_cap, harvested, consumed
        rows[1::steps, :2] = banked[k:end, None]
        if steps == 2:
            rows[2::2, 0] = -drain
            rows[2::2, 2] = drain
        np.add.accumulate(rows, out=rows)
        closing = rows[steps::steps, 0]
        hit = closing < floor if mode is regulating else closing >= e_enable
        i = int(hit.argmax())
        if not hit[i]:
            energy[k:end] = closing
            modes.append((mode, end - k))
            return (mode, *rows[-1].tolist(), end, False)
        energy[k : k + i] = closing[:i]
        if i:
            modes.append((mode, i))
        # the tick that ends the span: cold start reaches the enable level and the
        # load draws from this tick on, or the draw empties the cap or crosses UVLO
        opened, harvested, consumed = rows[steps * i + 1].tolist()
        drained = min(drain, opened)
        e_cap = opened - drained
        mode = depleted if e_cap < e_uvlo else regulating  # rail collapses, load sheds next tick
        energy[k + i] = e_cap
        modes.append((mode, 1))
        return mode, e_cap, harvested, consumed + drained, k + i + 1, True

    def run(mode, e_cap, harvested, consumed, k, stop, load_power):
        if not load_power >= 0:
            raise ValueError("input_power and load_power must be >= 0")
        drain = load_power * dt / boost_efficiency
        # windows that double: a span that ends early, as one does each time the
        # rail comes up, costs at most about twice its length, not the run's rest
        window, hit = _FIRST_WINDOW, False
        while k < stop and not hit:
            end = min(stop, k + window)
            mode, e_cap, harvested, consumed, k, hit = advance(
                mode, e_cap, harvested, consumed, k, end, drain
            )
            window *= 2
        return mode, e_cap, harvested, consumed, k

    return run, energy, modes


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
    run, _, _ = harvester_ticker(params, dt, [input_voltage], [input_power])
    e_cap = cap_energy(params.c_store, state.v_cap)  # checks the state, which a span trusts
    with np.errstate(over="ignore", invalid="ignore"):
        mode, e_cap, harvested, consumed, _ = run(
            state.mode, e_cap, state.harvested_energy, state.consumed_energy, 0, 1, load_power
        )
    return HarvesterState(mode, sqrt(2.0 * e_cap / params.c_store), harvested, consumed)
