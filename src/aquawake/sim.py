"""End-to-end scenario engine.

run_scenario wires the whole receive path together on one sample clock:

    modulate -> channel -> transducer -> { rectifier -> harvester
                                         { band-pass -> rectifier -> comparator
                                           (envelope and drive in one filter) -> decoder

The analog chain handles the received signal as it arrives, as the
receiver's does: in blocks of one whole-tick length, as many as bring each
block nearest BLOCK_SAMPLES samples, each stage carrying its state from one
block to the next, so the result is the same bytes as one pass over the
whole run. Each block modulates only the transmit samples its channel taps
read, so no stage holds a whole-run sample array. The harvester advances on
a decimated tick and gates the decoder, which only sees comparator events
while the regulated rail is up. The load steps from listening to decoding
at the first accepted sync edge and back after the decision, mirroring how
the real receiver spends its budget. Like the receiver, the engine is
event-driven: the decoder is fed ahead to the next load change, and the
harvester advances in spans of ticks between load changes and
rail-boundary crossings, so only a span boundary costs a harvester call.
The tick loop finds those boundaries in the numpy array of tick ends, with
no Python list of them. The run's `power.Harvester` keeps the cap's energy,
not its voltage: a span is a running sum of the cap energy over the ticks'
banks and drains, computed by numpy, and the cap-voltage trace is one
square root over the per-tick energies after the loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from math import inf

import numpy as np

from . import decoder as dec
from .channel import ChannelModel, _taps, propagate
from .config import Config, Count, NonNegative, NonNegativeInt, Positive, is_finite, shown
from .errors import ConfigurationError, InvariantError, SignalRangeError
from .frame import ModulationParams, WakeupFrame, frame_length, modulate_frame
from .frontend import (
    BIT_PERIOD_SHARES,
    ComparatorState,
    DemodParams,
    RectifierModel,
    TransducerModel,
    bandpass,
    comparator,
    rectify,
    transduce,
)
from .power import Harvester, HarvesterMode, HarvesterParams, LoadProfile
from .waveform import DigitalTrace

# never called (the envelope RC is in the comparator's drive): perfbench/tracing.py
# names both as patch points, which must resolve; ROADMAP item 1 deletes them.
harvester_step = envelope = None

# sweep parameter -> (Scenario section, field) it sets
_SWEEP_TARGETS = {
    "distance": ("channel", "distance"),
    "preamble_duration": ("frame", "preamble_duration"),
    "bit_rate": ("frame", "bit_rate"),
    "noise_rms": ("channel", "noise_rms"),
    "echo_delay": ("channel", "echoes"),  # s; moves the first echo
}
SWEEPABLE_PARAMETERS = tuple(_SWEEP_TARGETS)

# the members the tick loop tests, as module constants: a read through the
# Enum class costs about ten times a global's on Python 3.11
_DECIDED = dec.DecoderPhase.DECIDED
_REGULATING = HarvesterMode.REGULATING

# samples one run may span, about 37 s at the default 224 kHz; the per-tick
# harvester arrays and the tick ends (a numpy array; no per-tick Python list)
# are the only whole-run arrays, as the transmit is made per block from a
# carrier table as long as the preamble. Per tick, the result keeps 8 B (the
# cap voltage) and a long run peaks near 66 B (tracemalloc, decimation 1),
# which ROADMAP item 7 bounds. Per sample, each stage's arrays span one block
# however long the run: 1.5 x BLOCK_SAMPLES rounded up to whole ticks at most
MAX_SAMPLES = 2**23
# samples the receive chain aims to take per block: a run of n samples splits
# into max(round(n / BLOCK_SAMPLES), 1) blocks of one whole-tick length, the
# last ending with the run, so no block exceeds 1.5 x BLOCK_SAMPLES rounded up
# to whole ticks and no short tail block pays a block's fixed cost (about
# 65-70 us). Equal blocks let the allocator reuse each block's arrays for the
# next. Fewer blocks pay up to a cliff where the allocator stops reusing them.
# In perfbench's process (2-CPU Xeon, Python 3.11, numpy 2.4, glibc malloc) a
# run of one block took 1.63 ms at 20 457 samples and 2.16 ms at 21 481, its
# page faults 41 -> 294 per run, as each float64 temporary passes the mmap
# threshold that earlier frees have raised; a fresh process starts at glibc's
# 128 KiB (16 384 samples). 12288 is the largest size swept whose longest
# block, 18 432 samples at 64 per tick, stays clear of the cliff: perfbench
# selectivity call_ms_p50 read 1.63 / 1.52 / 1.52 / 1.52 / 2.00 ms at 8192 /
# 10240 / 12288 / 14336 / 16384 (a 200 bps run becomes one 24 256-sample
# block at 16384; 14336 allows blocks of 21 504 samples)
BLOCK_SAMPLES = 12288
# runs one sweep may make, values times trials: about 50x the 1256-run
# criterion-4 sweep; rows are kept in memory until the sweep ends
MAX_SWEEP_RUNS = 2**16


@dataclass(slots=True)
class SimOptions(Config):
    seed: NonNegativeInt = 0
    harvester_decimation: Count = 64  # harvester tick every N samples
    input_resistance: Positive = 10_000.0  # ohm, harvester input equivalent
    tail_duration: NonNegative = 0.005  # s of silence appended after the frame


@dataclass(slots=True)
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
    """One run's outcome and traces; times are in s from the transmit's first sample.

    - `woke`: the wake output asserted; `decoded_uuid`: the address the decoder
      decided on (None: no decision);
    - `time_to_wake`, `decision_time`: the decision's time, the first only on a
      wake; `rail_up_time`: the first tick's start with the rail up;
      `first_sync_time`: the first accepted sync edge (each None if never);
    - `peak_v_cap` (V), `harvested_energy` and `consumed_energy` (J): the cap's
      peak voltage and the energy banked into it and drawn from it;
    - `tick_duration` (s): one harvester tick, `harvester_decimation` samples;
    - `vcap_values` (V): the cap voltage at each tick's end;
    - `mode_runs`: `(HarvesterMode, ticks)` pairs over the run's ticks in
      order, no two adjacent ones of one mode;
    - `edge_trace`: the comparator's edges; `seed`: the run's noise seed.

    `vcap_times` (each tick's end, s) and `mode_values` (each tick's mode
    value) are built from these on each read, not stored.
    """

    woke: bool
    decoded_uuid: int | None
    time_to_wake: float | None
    peak_v_cap: float
    harvested_energy: float
    consumed_energy: float
    tick_duration: float
    vcap_values: np.ndarray
    mode_runs: tuple[tuple[HarvesterMode, int], ...]
    edge_trace: DigitalTrace
    rail_up_time: float | None
    first_sync_time: float | None
    decision_time: float | None
    seed: int

    @property
    def vcap_times(self) -> np.ndarray:
        """Each tick's end (s), as the engine's tick loop computes it."""
        dt = self.tick_duration
        return np.arange(len(self.vcap_values)) * dt + dt

    @property
    def mode_values(self) -> list[str]:
        """Each tick's harvester mode, as its `HarvesterMode` value."""
        values: list[str] = []
        for mode, ticks in self.mode_runs:
            values += [mode.value] * ticks
        return values


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


# the unroll of numpy's pairwise sum: add.reduce sums a row of exactly this
# many values as ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))
_PAIRWISE_UNROLL = 8


def _tick_sums(windows: np.ndarray, out: np.ndarray) -> None:
    """Each row's sum into `out`: the bytes of `np.add.reduce(windows, axis=1)`
    for values >= +0.0 (rectified samples and their squares).

    The reduce makes one inner-loop call per row, so for rows of exactly
    numpy's pairwise unroll the same adds in the same order over whole columns
    take less time: per 8304-sample block, 8.0 against 21 us at 8 samples per
    tick. Other widths keep the reduce: 4.8 against 43 us for column adds at
    64 samples per tick."""
    if windows.shape[1] == _PAIRWISE_UNROLL:
        pairs = windows[:, 0::2] + windows[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        np.add(quads[:, 0], quads[:, 1], out=out)
    else:
        np.add.reduce(windows, axis=1, out=out)


def _run_ticks(sc: Scenario, trace: DigitalTrace, dt: float, ends, v_in, p_in):
    """The harvester and decoder over the ticks ending at `ends`, fed `v_in`/`p_in`.

    Tick j feeds the decoder the events due before `ends[j]` while the rail
    is up at its start, and its load follows the decoder after them. The
    `Harvester` advances in spans between load changes: from a rail-up tick
    the decoder is fed ahead once, up to the event that flips `mid_frame`,
    and the span runs under one load up to that event's tick, which starts
    the next span. Decoder states are immutable, so the state after the
    span's first tick is held; a span the rail leaves early resumes from it,
    fed again up to the last tick that ran with the rail up. A rail-down
    span runs until the rail comes up. Returns the final decoder state, the
    harvester after the last tick, and the rail-up and first-sync times.
    """
    n_ticks = len(ends)
    rising = [*trace.rising_times().tolist(), inf]  # inf: no edge left
    level_at, cfg = trace.level_at, sc.decoder
    harvester = Harvester(sc.harvester, dt, v_in, p_in)

    def feed(fed, t1, until=None):
        """`fed`, a (decoder state, next edge index, first-sync time), after the
        events due before t1, in time order with ties to the edge, or right after
        the first of them that sets `mid_frame` to `until`; and that event's time
        (inf: none)."""
        state, edge_idx, first_sync_time = fed
        while state.phase is not _DECIDED:
            due = state.next_sample_time
            edge = rising[edge_idx]
            if due is not None and due < t1 and due < edge:
                event = dec.LevelSample(due, level_at(due))
            elif edge < t1:
                event = dec.RisingEdge(edge)
                edge_idx += 1
            else:
                break
            state = dec.decoder_feed(state, cfg, event)
            if first_sync_time is None:
                first_sync_time = state.first_edge_time
            if state.mid_frame is until:
                return (state, edge_idx, first_sync_time), event.time
        return (state, edge_idx, first_sync_time), inf

    fed = (dec.DecoderState(), 0, None)
    rail_up_time: float | None = None
    while harvester.k < n_ticks:
        k = harvester.k
        if harvester.mode is _REGULATING:
            if rail_up_time is None:
                rail_up_time = k * dt  # the tick's start, as np.arange(n_ticks) * dt rounds it
            held, _ = feed(fed, ends[k])  # the rest of tick k's events
            mid_frame = held[0].mid_frame
            fed, flip = feed(held, ends[-1], not mid_frame)
            stop = bisect_right(ends, flip, k + 1)  # the flip's tick; n_ticks if none
            # decode draw applies while the decoder is mid-frame, listen otherwise
            load = sc.load.p_decode if mid_frame else sc.load.p_listen
            # a run also ends where the load empties the cap; the rail may hold there
            while harvester.k < stop and harvester.mode is _REGULATING:
                harvester.run(stop, load)
            if harvester.mode is not _REGULATING:
                # the state after the last tick that ran with the rail up
                fed, _ = feed(held, ends[harvester.k - 1])
        else:
            # rail down: the passive receiver draws nothing, comparator events
            # are lost and any progress is gone
            state, edge_idx, first_sync_time = fed
            if state.mid_frame:
                state = dec.DecoderState()
            harvester.run(n_ticks, 0.0)
            fed = (state, bisect_left(rising, ends[harvester.k - 1], edge_idx), first_sync_time)
    dec_state, _, first_sync_time = fed
    return dec_state, harvester, rail_up_time, first_sync_time


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Simulate one frame against one receiver; deterministic per seed."""
    demod = sc.resolved_demod()
    _validate(sc, demod)
    sr = sc.modulation.sample_rate

    # the transmit is the frame and then the tail's silence, which modulate_frame
    # gives past the frame; the received signal holds its latest tap in full
    n_tx = frame_length(sc.frame, sc.modulation) + round(sc.sim.tail_duration * sr)
    delays = [d for d, _ in _taps(sc.channel, sr)]
    early, late = min(delays), max(delays)
    decim = sc.sim.harvester_decimation
    r_in = sc.sim.input_resistance
    n = n_tx + late
    n_ticks = (n + decim - 1) // decim
    # blocks of one whole-tick length; see BLOCK_SAMPLES
    n_blocks = max(round(n / BLOCK_SAMPLES), 1)
    block = (n_ticks + n_blocks - 1) // n_blocks * decim
    # one noise stream, drawn block by block; a silent channel needs no generator
    noise = np.random.default_rng(sc.sim.seed) if sc.channel.noise_rms > 0 else sc.sim.seed
    xdcr_zi, bandpass_zi = np.zeros(2), np.zeros(2)
    comparator_state = ComparatorState()
    edge_times, edge_levels = [], []
    v_in, p_in = np.empty(n_ticks), np.empty(n_ticks)  # per-tick input stats for the harvester
    # overflow shows as a non-finite waveform or input power, named below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, block):
                stop = min(start + block, n)
                # only the transmit samples this block's taps read
                lo = max(start - late, 0)
                hi = max(min(stop - early, n_tx), lo)
                tx = modulate_frame(sc.frame, sc.modulation, lo, hi)
                rx = propagate(tx, sc.channel, noise, start - lo, stop - lo)
                v_xdcr = transduce(rx, sc.transducer, xdcr_zi)
                v_harv = rectify(v_xdcr, sc.rectifier).samples
                filtered = rectify(bandpass(v_xdcr, demod, bandpass_zi), sc.rectifier)
                edges = comparator(filtered, demod, comparator_state)
                edge_times.append(edges.edge_times)
                edge_levels.append(edges.edge_levels)

                k0, k1 = start // decim, (stop + decim - 1) // decim
                pad = (k1 - k0) * decim - len(v_harv)
                if pad:  # the run's last tick, padded with zeros
                    v_harv = np.concatenate([v_harv, np.zeros(pad)])
                # each tick's sums over its samples and their squares, in the
                # reduce's order: column adds at _PAIRWISE_UNROLL samples per
                # tick, where the reduce pays a call per tick, and the reduce otherwise
                windows = v_harv.reshape(k1 - k0, decim)
                _tick_sums(windows, v_in[k0:k1])
                windows *= windows
                _tick_sums(windows, p_in[k0:k1])
            # the sums to means and power, once per run: elementwise, the bytes of once per block
            v_in /= decim
            p_in /= decim
            p_in /= r_in
        # checked after the last block: a non-finite waveform in any block is named first
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
    trace = DigitalTrace(np.concatenate(edge_times), np.concatenate(edge_levels))
    dt = decim / sr
    ends = np.arange(n_ticks) * dt + dt
    dec_state, harvester, rail_up_time, first_sync_time = _run_ticks(
        sc, trace, dt, ends, v_in, p_in
    )
    # a cap too small for its charge has a voltage of inf, named below
    with np.errstate(over="ignore", invalid="ignore"):
        vcap_values = np.sqrt(2.0 * harvester.energy / sc.harvester.c_store)

    # the outcome is the decoder's: DECIDED is terminal and never reset
    decided = dec_state.phase is _DECIDED
    decision_time = dec_state.last_event_time if decided else None
    woke = dec.wake_output(dec_state)

    peak_v_cap = float(vcap_values.max())
    if not np.isfinite(peak_v_cap):
        raise ConfigurationError(
            f"storage cap voltage leaves float range (peak {peak_v_cap:g} V); "
            "raise harvester.c_store"
        )

    # energy ledger must close: banked - drained == E_final, as the ticks start on
    # an empty cap, up to the rounding of sums that add once per tick. The bound,
    # 4 * n_ticks * 2**-52 * harvested, is 24x or more the closures measured on the
    # presets and far below one tick's bank left out (about harvested / n_ticks);
    # NaN fails it too
    closure = harvester.harvested - harvester.consumed - float(harvester.energy[-1])
    if not abs(closure) <= 4 * n_ticks * 2**-52 * harvester.harvested:
        raise InvariantError(f"energy ledger violation: {closure} J unaccounted")
    if woke and dec_state.decoded_uuid != sc.decoder.assigned_uuid:
        raise InvariantError("wake asserted without a matching UUID")

    return ScenarioResult(
        woke=woke,
        decoded_uuid=dec_state.decoded_uuid,
        time_to_wake=decision_time if woke else None,
        peak_v_cap=peak_v_cap,
        harvested_energy=harvester.harvested,
        consumed_energy=harvester.consumed,
        tick_duration=dt,
        vcap_values=vcap_values,
        mode_runs=tuple(harvester.modes),
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class _Bisection(Config):  # calibrate_tx_amplitude's arguments, checked as config fields are
    rel_tol: Positive
    max_iter: Count


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
    _Bisection(rel_tol, max_iter)

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
