"""End-to-end scenario engine.

run_scenario wires the whole receive path together on one sample clock:

    modulate -> channel -> transducer -> { rectifier -> harvester
                                         { band-pass -> rectifier -> envelope
                                           -> comparator -> decoder

The analog chain is computed vectorized over the full run; the harvester
advances on a decimated tick and gates the decoder, which only sees
comparator events while the regulated rail is up. The load steps from
listening to decoding at the first accepted sync edge and back after the
decision, mirroring how the real receiver spends its budget. Like the
receiver, the engine is event-driven: the harvester advances in spans of
ticks between decoder events and rail-boundary crossings, and only a span
boundary costs an engine iteration. The harvester keeps the cap's energy,
not its voltage: a span is one running sum of the ticks' banked and
drained energy, computed by numpy, and the cap-voltage trace is one square
root over the per-tick energies after the loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from math import inf

import numpy as np

from . import decoder as dec
from .channel import ChannelModel, propagate
from .config import Config, Count, NonNegative, NonNegativeInt, Positive, is_finite, shown
from .errors import ConfigurationError, InvariantError, SignalRangeError
from .frame import ModulationParams, WakeupFrame, modulate_frame
from .frontend import (
    BIT_PERIOD_SHARES,
    DemodParams,
    RectifierModel,
    TransducerModel,
    bandpass,
    comparator,
    envelope,
    rectify,
    transduce,
)
from .power import HarvesterMode, HarvesterParams, LoadProfile, harvester_ticker
from .waveform import DigitalTrace, Waveform

# a placeholder, never called: perfbench/tracing.py still names
# `sim.harvester_step` as a patch point, which must resolve. The benchmark-only
# change of ROADMAP item 1 deletes both.
harvester_step = None

# sweep parameter -> (Scenario section, field) it sets
_SWEEP_TARGETS = {
    "distance": ("channel", "distance"),
    "preamble_duration": ("frame", "preamble_duration"),
    "bit_rate": ("frame", "bit_rate"),
    "noise_rms": ("channel", "noise_rms"),
    "echo_delay": ("channel", "echoes"),  # s; moves the first echo
}
SWEEPABLE_PARAMETERS = tuple(_SWEEP_TARGETS)

# samples one run may allocate per signal, about 37 s at the default 224 kHz
MAX_SAMPLES = 2**23
# runs one sweep may make, values times trials: about 50x the 1256-run
# criterion-4 sweep; rows are kept in memory until the sweep ends
MAX_SWEEP_RUNS = 2**16


@dataclass
class SimOptions(Config):
    seed: NonNegativeInt = 0
    harvester_decimation: Count = 64  # harvester tick every N samples
    input_resistance: Positive = 10_000.0  # ohm, harvester input equivalent
    tail_duration: NonNegative = 0.005  # s of silence appended after the frame


@dataclass
class Scenario:
    frame: WakeupFrame
    decoder: dec.DecoderConfig
    modulation: ModulationParams = field(default_factory=ModulationParams)
    channel: ChannelModel = field(default_factory=ChannelModel)
    transducer: TransducerModel = field(default_factory=TransducerModel)
    rectifier: RectifierModel = field(default_factory=RectifierModel)
    demod: DemodParams | None = None  # None: derived from frame.bit_rate
    harvester: HarvesterParams = field(default_factory=HarvesterParams)
    load: LoadProfile = field(default_factory=LoadProfile)
    sim: SimOptions = field(default_factory=SimOptions)

    def resolved_demod(self) -> DemodParams:
        return self.demod if self.demod is not None else DemodParams.for_bit_rate(
            self.frame.bit_rate
        )


@dataclass
class ScenarioResult:
    woke: bool
    decoded_uuid: int | None
    time_to_wake: float | None
    peak_v_cap: float
    harvested_energy: float
    consumed_energy: float
    vcap_times: np.ndarray
    vcap_values: np.ndarray
    mode_values: list[str]
    edge_trace: DigitalTrace
    rail_up_time: float | None
    first_sync_time: float | None
    decision_time: float | None
    seed: int


def _validate(sc: Scenario, demod: DemodParams) -> None:
    # checked before anything is allocated: frame + tail + the latest path,
    # plus the padding of the last harvester tick
    ch = sc.channel
    detour = max((e.extra_path for e in ch.echoes), default=0.0)
    seconds = sc.frame.duration + sc.sim.tail_duration + (ch.distance + detour) / ch.sound_speed
    n_samples = seconds * sc.modulation.sample_rate + sc.sim.harvester_decimation
    if n_samples > MAX_SAMPLES:
        raise ConfigurationError(
            f"scenario needs {n_samples:g} samples per signal, above the limit of {MAX_SAMPLES}: "
            f"{seconds:g} s of frame.preamble_duration, frame.guard_duration, the bits at "
            "frame.bit_rate, sim.tail_duration and the path delay (channel.distance plus echo "
            f"extra_path over channel.sound_speed) at modulation.sample_rate "
            f"{sc.modulation.sample_rate:g} Hz, plus sim.harvester_decimation"
        )
    # an envelope_tau the scenario leaves unset follows frame.bit_rate (for_bit_rate)
    tau = demod.envelope_tau
    bit_period = sc.frame.bit_period
    carrier_period = 1.0 / sc.modulation.carrier_freq
    if tau >= bit_period:
        raise ConfigurationError(
            f"demod.envelope_tau {tau:g} s must sit below the bit period {bit_period:g} s "
            "(1 / frame.bit_rate)"
        )
    if tau <= carrier_period:
        raise ConfigurationError(
            f"demod.envelope_tau {tau:g} s must sit above the carrier period "
            f"{carrier_period:g} s (1 / modulation.carrier_freq); left unset, it is a "
            "share of the bit period (1 / frame.bit_rate)"
        )


def _run_ticks(sc: Scenario, trace: DigitalTrace, dt: float, ends, v_in, p_in):
    """The harvester and decoder over the ticks ending at `ends`, fed `v_in`/`p_in`.

    The harvester advances in spans: each rail-up span starts by feeding
    the decoder its events due in that tick, and runs on while no event
    falls due; a rail-down span runs until the rail comes up. Returns the
    final decoder state, the per-tick cap energies, the tick modes as
    `(mode, run length)` pairs, the harvested and consumed energy sums, and
    the rail-up and first-sync times.
    """
    n_ticks = len(ends)
    rising = [*trace.rising_times().tolist(), inf]  # inf: no edge left
    edge_idx = 0
    dec_state = dec.DecoderState()
    decided = dec.DecoderPhase.DECIDED
    run, energy, modes = harvester_ticker(sc.harvester, dt, v_in, p_in)
    mode, e_cap, harvested, consumed = HarvesterMode.DEPLETED, 0.0, 0.0, 0.0
    regulating = HarvesterMode.REGULATING

    rail_up_time: float | None = None
    first_sync_time: float | None = None

    k = 0
    while k < n_ticks:
        railed = mode is regulating
        if railed:
            if rail_up_time is None:
                rail_up_time = k * dt  # the tick's start, as np.arange(n_ticks) * dt rounds it
            # feed rising edges and due level samples in time order; ties go to the edge
            t1 = ends[k]
            nxt = inf  # the earliest event left after this tick's; none once decided
            while dec_state.phase is not decided:
                due = dec_state.next_sample_time
                edge = rising[edge_idx]
                if due is not None and due < t1 and due < edge:
                    event = dec.LevelSample(due, trace.level_at(due))
                elif edge < t1:
                    event = dec.RisingEdge(edge)
                    edge_idx += 1
                else:
                    nxt = edge if due is None else min(due, edge)
                    break
                dec_state = dec.decoder_feed(dec_state, sc.decoder, event)
                if first_sync_time is None:
                    first_sync_time = dec_state.first_edge_time
            # decode draw applies while the decoder is mid-frame, listen otherwise
            if dec_state.mid_frame:
                load = sc.load.p_decode
            else:
                load = sc.load.p_listen
            # tick j feeds an event only when it falls before ends[j]
            stop = bisect_right(ends, nxt, k + 1)
        else:
            # rail down: the passive receiver draws nothing, comparator events
            # are lost and any progress is gone
            load = 0.0
            if dec_state.mid_frame:
                dec_state = dec.DecoderState()
            stop = n_ticks
        mode, e_cap, harvested, consumed, k = run(mode, e_cap, harvested, consumed, k, stop, load)
        if not railed:
            edge_idx = bisect_left(rising, ends[k - 1], edge_idx)
    return dec_state, energy, modes, harvested, consumed, rail_up_time, first_sync_time


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Simulate one frame against one receiver; deterministic per seed."""
    demod = sc.resolved_demod()
    _validate(sc, demod)
    sr = sc.modulation.sample_rate

    tx = modulate_frame(sc.frame, sc.modulation)
    tail = np.zeros(round(sc.sim.tail_duration * sr))
    tx = Waveform(sr, np.concatenate([tx.samples, tail]), tx.unit)
    decim = sc.sim.harvester_decimation
    # overflow shows as a non-finite waveform or input power, named below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rx = propagate(tx, sc.channel, sc.sim.seed)
            v_xdcr = transduce(rx, sc.transducer)
            v_harv = rectify(v_xdcr, sc.rectifier)
            env = envelope(rectify(bandpass(v_xdcr, demod), sc.rectifier), demod)
            trace = comparator(env, demod)

            # per-tick input stats for the harvester
            n = len(v_harv.samples)
            n_ticks = (n + decim - 1) // decim
            padded = np.zeros(n_ticks * decim)
            padded[:n] = v_harv.samples
            windows = padded.reshape(n_ticks, decim)
            v_in = windows.mean(axis=1)
            p_in = (windows**2).mean(axis=1) / sc.sim.input_resistance
        if not np.isfinite(p_in).all():
            raise SignalRangeError("harvester input power is not finite")
    except SignalRangeError as exc:
        raise ConfigurationError(
            f"signal level leaves float range ({exc}; direct-path gain "
            f"{sc.channel.direct_gain():g}); lower modulation.tx_amplitude, "
            "transducer.sensitivity or channel.noise_rms, raise sim.input_resistance, or "
            "lower the direct-path gain through channel.distance, channel.spreading_exponent "
            "or channel.absorption_db_per_km"
        ) from exc
    dt = decim / sr
    ends = np.arange(n_ticks) * dt + dt
    # the harvester's sums overflow to inf without a numpy warning, as plain floats
    # would, and so does the voltage of a cap too small for its charge: named below
    with np.errstate(over="ignore", invalid="ignore"):
        dec_state, energy, modes, harvested, consumed, rail_up_time, first_sync_time = (
            _run_ticks(sc, trace, dt, ends.tolist(), v_in, p_in)
        )
        vcap_values = np.sqrt(2.0 * energy / sc.harvester.c_store)
    mode_values: list[str] = []
    for mode, count in modes:
        mode_values += [mode.value] * count

    # the outcome is the decoder's: DECIDED is terminal and never reset
    decided = dec_state.phase is dec.DecoderPhase.DECIDED
    decision_time = dec_state.last_event_time if decided else None
    woke = dec.wake_output(dec_state)

    peak_v_cap = float(vcap_values.max())
    if not np.isfinite(peak_v_cap):
        raise ConfigurationError(
            f"storage cap voltage leaves float range (peak {peak_v_cap:g} V); "
            "raise harvester.c_store"
        )

    # energy ledger must close: banked - drained == E_final, as the ticks start on
    # an empty cap; NaN fails it too
    closure = harvested - consumed - float(energy[-1])
    if not abs(closure) <= 1e-3 * harvested:
        raise InvariantError(f"energy ledger violation: {closure} J unaccounted")
    if woke and dec_state.decoded_uuid != sc.decoder.assigned_uuid:
        raise InvariantError("wake asserted without a matching UUID")

    return ScenarioResult(
        woke=woke,
        decoded_uuid=dec_state.decoded_uuid,
        time_to_wake=decision_time if woke else None,
        peak_v_cap=peak_v_cap,
        harvested_energy=harvested,
        consumed_energy=consumed,
        vcap_times=ends,
        vcap_values=vcap_values,
        mode_values=mode_values,
        edge_trace=trace,
        rail_up_time=rail_up_time,
        first_sync_time=first_sync_time,
        decision_time=decision_time,
        seed=sc.sim.seed,
    )


def _with_parameter(sc: Scenario, name: str, value: float) -> Scenario:
    """`sc` with the swept value set, checked as a run of it would be."""
    if name not in _SWEEP_TARGETS:
        raise ConfigurationError(
            f"unknown sweep parameter {name!r}; choose from {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    section, key = _SWEEP_TARGETS[name]
    part = getattr(sc, section)
    if name == "echo_delay":
        if not part.echoes:
            raise ConfigurationError("echo_delay sweep needs at least one configured echo")
        extra_path = value * part.sound_speed
        if not 0 < extra_path < inf:  # Echo.extra_path's rule, named by the seconds swept
            msg = f"echo_delay must give the first echo a positive, finite extra_path, got {value}"
            raise ConfigurationError(msg)
        value = [replace(part.echoes[0], extra_path=extra_path), *part.echoes[1:]]
    sc = replace(sc, **{section: replace(part, **{key: value})})
    if name == "bit_rate":
        # the guard and explicit taus keep their share of the bit period (a demod
        # of None follows the rate by itself); the replace above checked the rate
        scale = part.bit_rate / value
        demod = sc.demod
        if demod is not None:
            demod = replace(demod, **{t: getattr(demod, t) * scale for t in BIT_PERIOD_SHARES})
        frame = replace(sc.frame, guard_duration=part.guard_duration * scale)
        sc = replace(sc, frame=frame, demod=demod)
    _validate(sc, sc.resolved_demod())
    return sc


def _trial_seed(base_seed: int, value_index: int, trial: int) -> int:
    seq = np.random.SeedSequence([base_seed, value_index, trial])
    return int(seq.generate_state(1)[0])


@dataclass
class _SweepTrials(Config):  # sweep's trials, checked as a config field is
    trials: Count


# the ScenarioResult fields each trial row copies
_ROW_FIELDS = ("woke", "decoded_uuid", "time_to_wake", "peak_v_cap", "harvested_energy",
               "consumed_energy")


@dataclass
class SweepResult:
    rows: list[dict]  # one per (value, trial)
    aggregates: list[dict]  # one per value


def sweep(base: Scenario, parameter: str, values: list[float], trials: int = 1) -> SweepResult:
    """Run `trials` seeded runs per parameter value and tabulate outcomes."""
    trials = int(_SweepTrials(trials).trials)
    if len(values) == 0:
        raise ConfigurationError("values must be non-empty")
    runs = len(values) * trials
    if runs > MAX_SWEEP_RUNS:
        raise ConfigurationError(
            f"trials {trials} over {len(values)} values make {runs} runs, "
            f"above the limit of {MAX_SWEEP_RUNS}"
        )
    plan = []  # every value's scenario, built and checked before the first run
    for value in values:
        if not is_finite(value):
            raise ConfigurationError(f"{parameter} values must be finite, got {shown(value)}")
        value = float(value)
        plan.append((value, _with_parameter(base, parameter, value)))
    rows: list[dict] = []
    aggregates: list[dict] = []
    for vi, (value, sc_v) in enumerate(plan):
        for trial in range(trials):
            seed = _trial_seed(base.sim.seed, vi, trial)
            result = run_scenario(replace(sc_v, sim=replace(sc_v.sim, seed=seed)))
            row = {"parameter": parameter, "value": value, "trial": trial, "seed": seed}
            rows.append(row | {k: getattr(result, k) for k in _ROW_FIELDS})
        value_rows = rows[-trials:]
        times = [r["time_to_wake"] for r in value_rows if r["time_to_wake"] is not None]
        aggregates.append(
            {
                "parameter": parameter,
                "value": value,
                "trials": trials,
                "wake_success_rate": sum(r["woke"] for r in value_rows) / trials,
                "mean_peak_v_cap": float(np.mean([r["peak_v_cap"] for r in value_rows])),
                "mean_time_to_wake": float(np.mean(times)) if times else None,
            }
        )
    return SweepResult(rows=rows, aggregates=aggregates)


def calibrate_tx_amplitude(
    sc: Scenario,
    target_peak_v: float,
    rel_tol: float = 1e-3,
    max_iter: int = 60,
) -> float:
    """Fit tx_amplitude so the run's peak cap voltage hits a target.

    Peak cap voltage is monotone in drive amplitude, so a bracket-and-bisect
    on amplitude converges without derivatives.
    """
    if not (is_finite(target_peak_v) and target_peak_v > 0):
        raise ConfigurationError(
            f"target_peak_v must be positive and finite, got {shown(target_peak_v)}"
        )
    if not max_iter >= 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {shown(max_iter)}")

    def peak(amp: float) -> float:
        mod = replace(sc.modulation, tx_amplitude=amp)
        return run_scenario(replace(sc, modulation=mod)).peak_v_cap

    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        if peak(hi) >= target_peak_v:
            break
        lo = hi
        hi *= 4.0
    else:
        raise ConfigurationError("calibration failed to bracket the target peak")

    for _ in range(max_iter):
        amp = 0.5 * (lo + hi)
        p = peak(amp)
        if abs(p - target_peak_v) <= rel_tol * target_peak_v:
            return amp
        if p < target_peak_v:
            lo = amp
        else:
            hi = amp
    raise ConfigurationError(
        f"calibration did not converge to rel_tol={rel_tol} within {max_iter} bisections"
    )
