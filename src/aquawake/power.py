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

from dataclasses import dataclass
from enum import Enum
from math import inf

import numpy as np

from .config import Config, Fraction, NonNegative, Positive, shown
from .errors import ConfigurationError


# the fewest ticks in a span's first window; each further window is twice the last
_FIRST_WINDOW = 64


class HarvesterMode(Enum):
    DEPLETED = "depleted"
    COLD_START = "cold_start"
    REGULATING = "regulating"


# the members as module constants: a read through the Enum class costs about
# ten times a global's on Python 3.11, and each harvester window tests them
_DEPLETED = HarvesterMode.DEPLETED
_COLD_START = HarvesterMode.COLD_START
_REGULATING = HarvesterMode.REGULATING


@dataclass(slots=True)
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
        Config.__post_init__(self)
        if self.uvlo >= self.regulation_enable_voltage:
            raise ConfigurationError(
                "uvlo must sit below regulation_enable_voltage for hysteresis"
            )


@dataclass(slots=True)
class LoadProfile(Config):
    p_listen: NonNegative = 10.7e-6  # W, armed and waiting for a sync edge
    p_decode: NonNegative = 63e-6  # W, sampling the UUID


def cap_energy(capacitance: float, voltage: float) -> float:
    """Energy stored on a capacitor, 0.5 * C * V^2.

    `voltage * voltage`, not `voltage**2`: a float square that overflows is inf, not an error.
    """
    if not capacitance > 0:
        raise ValueError(f"capacitance must be positive, got {shown(capacitance)}")
    if not voltage >= 0:
        raise ValueError(f"voltage must be >= 0, got {shown(voltage)}")
    return 0.5 * capacitance * (voltage * voltage)


def _threshold_energy(c_store: float, voltage: float) -> float:
    """The cap energy at a voltage threshold; -inf for one at or below 0 V, which any cap meets."""
    return cap_energy(c_store, voltage) if voltage > 0 else -inf


class Harvester:
    """The harvester over a run of ticks of duration dt, in the cap-energy domain.

    Tick `j` is fed `v_in[j]` (V) and `p_in[j]` (W). The state, `mode`, cap
    energy `e_cap`, energy sums `harvested` and `consumed` (J) and next tick
    `k`, starts depleted on an empty cap. `run` writes each tick's closing cap
    energy (J) to `energy[j]` and adds each run of ticks to `modes`, a list of
    `(mode, run length)` pairs in which no two adjacent pairs share a mode, so
    they do not depend on the window sizes below.

    Each tick follows one rule, in order:
    - a depleted harvester whose input reaches both `coldstart_min_voltage`
      and `coldstart_min_power` enters cold start;
    - cold start banks `p_in * dt * coldstart_efficiency` while that input
      holds, and regulation banks `p_in * dt * boost_efficiency` while
      `v_in` reaches `boost_min_voltage`;
    - cold start turns to regulating once the cap reaches the enable level;
    - while regulating, the load draws `load_power * dt / boost_efficiency`
      from the cap, never more than it holds;
    - a regulating cap left below UVLO collapses the rail to depleted, and
      the load sheds from the next tick.

    The banked energy of every tick is computed once here. A `run` advances
    in windows of ticks: the first is twice the ticks the last `run`
    advanced, never below 64, and each further window doubles. Each window
    adds its terms with `np.add.accumulate`, left to right as a scalar loop
    does, in two calls: the cap energy over each tick's bank and then its
    drain, and one array of two rows, `harvested` over the banks and
    `consumed` over the drains. A drain term of 0.0, every cold-start tick's
    (the load draws from the enable tick on) or a zero load's, adds -0.0 to
    the cap and +0.0 to `consumed`, which moves neither: no sum here is ever
    -0.0. The cap energy finds the tick that ends the span, and each sum is
    read at that tick, or at the window's end. So the three add up tick by
    tick, as one loop over the ticks would.
    Cap-voltage thresholds are compared as energies. Like plain floats, the
    sums overflow to inf, without a numpy warning.
    """

    def __init__(self, params: HarvesterParams, dt: float, v_in, p_in) -> None:
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {shown(dt)}")
        v_in = np.asarray(v_in, dtype=float)
        p_in = np.asarray(p_in, dtype=float)
        if not (v_in.ndim == p_in.ndim == 1 and len(v_in) == len(p_in)):
            raise ValueError(f"v_in {v_in.shape} and p_in {p_in.shape} must be 1-D of equal length")
        if not (p_in >= 0).all():
            raise ValueError("input_power and load_power must be >= 0")
        self._dt, self._boost_efficiency = dt, params.boost_efficiency
        cold_ok = (v_in >= params.coldstart_min_voltage) & (p_in >= params.coldstart_min_power)
        self._cold_ok = cold_ok
        with np.errstate(over="ignore"):
            # keep each product's order: a hoisted dt * efficiency rounds differently
            self._b_cold = np.where(cold_ok, p_in * dt * params.coldstart_efficiency, 0.0)
            boosting = v_in >= params.boost_min_voltage
            self._b_reg = np.where(boosting, p_in * dt * params.boost_efficiency, 0.0)
        self._e_enable = _threshold_energy(params.c_store, params.regulation_enable_voltage)
        self._e_uvlo = _threshold_energy(params.c_store, params.uvlo)
        self._floor = max(self._e_uvlo, 0.0)  # below it a rail-up tick ends the span
        self.mode, self.k = _DEPLETED, 0
        self._window = _FIRST_WINDOW  # the next span's first window
        self.e_cap = self.harvested = self.consumed = 0.0
        self.energy = np.empty(len(p_in))
        self.modes: list[tuple[HarvesterMode, int]] = []

    def run(self, stop: int, load_power: float) -> None:
        """Advance from tick `k` under one load, up to `stop` or past the first
        tick whose mode crosses the rail boundary or whose load empties the cap."""
        if stop > len(self.energy):
            raise ValueError(f"stop {stop} is past the last of the {len(self.energy)} ticks")
        if not load_power >= 0:
            raise ValueError("input_power and load_power must be >= 0")
        drain = load_power * self._dt / self._boost_efficiency
        # windows that double, the first one twice the last run's length: a span
        # covers at most that first window or about twice its own length, so a
        # long run takes few calls and a rail that flaps every tick, ending each
        # span early, keeps _FIRST_WINDOW-tick windows
        start, window, hit = self.k, self._window, False
        with np.errstate(over="ignore", invalid="ignore"):
            while self.k < stop and not hit:
                hit = self._advance(min(stop, self.k + window), drain)
                window *= 2
        self._window = max(2 * (self.k - start), _FIRST_WINDOW)

    def _advance(self, end: int, drain: float) -> bool:  # ticks k..end-1 as one window
        k, mode, energy = self.k, self.mode, self.energy
        regulating = mode is _REGULATING
        if regulating:
            banked, load = self._b_reg, drain
        else:
            if mode is _DEPLETED:  # nothing banks until the input can cold-start
                woke = k + int(self._cold_ok[k:end].argmax())
                if not self._cold_ok[woke]:
                    woke = end
                energy[k:woke] = self.e_cap
                if woke > k:
                    self._log(mode, woke - k)
                self.k = k = woke
                if woke == end:
                    return False
                mode = self.mode = _COLD_START
            banked, load = self._b_cold, 0.0  # the load draws from the enable tick on
        n = end - k
        cap = np.empty(2 * n + 1)  # the cap energy over each tick's bank, then its drain
        cap[0] = self.e_cap
        cap[1::2] = banked[k:end]
        cap[2::2] = -load
        np.add.accumulate(cap, out=cap)
        ledgers = np.empty((2, n + 1))  # harvested over the banks, consumed over the drains
        ledgers[:, 0] = self.harvested, self.consumed
        ledgers[0, 1:] = banked[k:end]
        ledgers[1, 1:] = load
        np.add.accumulate(ledgers, axis=1, out=ledgers)
        closing = cap[2::2]
        hit = closing < self._floor if regulating else closing >= self._e_enable
        i = int(hit.argmax())
        if not hit[i]:
            energy[k:end] = closing
            self._log(mode, n)
            self.e_cap, self.k = float(cap[-1]), end
            self.harvested, self.consumed = ledgers[:, n].tolist()
            return False
        energy[k : k + i] = closing[:i]
        if i:
            self._log(mode, i)
        # the tick that ends the span: cold start reaches the enable level and the
        # load draws from this tick on, or the draw empties the cap or crosses UVLO
        opened, self.harvested = float(cap[2 * i + 1]), float(ledgers[0, i + 1])
        drained = min(drain, opened)
        self.e_cap = energy[k + i] = opened - drained
        # consumed before this tick's drain, then the drain
        self.consumed, self.k = float(ledgers[1, i]) + drained, k + i + 1
        collapsed = self.e_cap < self._e_uvlo  # the rail collapses: the load sheds next tick
        self.mode = _DEPLETED if collapsed else _REGULATING
        self._log(self.mode, 1)
        return True

    def _log(self, mode: HarvesterMode, ticks: int) -> None:
        """Add `ticks` ticks of `mode` to `modes`, merged into the last run if it is `mode`'s."""
        modes = self.modes
        if modes and modes[-1][0] is mode:
            modes[-1] = (mode, modes[-1][1] + ticks)
        else:
            modes.append((mode, ticks))
