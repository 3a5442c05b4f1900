"""A whole-run reference: `reference_run(sc)` builds every `ScenarioResult`
field of `run_scenario(sc)` from whole-signal calls and test-side oracles.

Where `run_scenario` streams blocks, forms the comparator's drive in one
filter and advances the harvester in spans, this runs `sine_frame` and the
tail's zeros through one `propagate` (noise from
`np.random.default_rng(seed)`) and whole `transduce`, `rectify`,
`bandpass` and `rectify` calls. The envelope RC (`one_pole_lowpass`),
`two_rc_drive` and the per-sample `latch` make the edges; per-tick
`v_in`/`p_in` are reduced over the zero-padded rectified signal;
`per_tick_run_ticks` runs the decoder and `harvester_oracle.oracle_tick`
one tick at a time. It names nothing private of `aquawake`, so it holds
whichever of `sim`'s seams a refactor moves. `assert_same_run` is the one
whole-result comparison, and `scenarios` is the tests' one draw of whole
runs: around the three presets, over range, preamble, the transmitted and
assigned address, sample offset, bit rate, noise, echo, drive, cap, loads,
decimation and seed.
"""

import math
from bisect import bisect_left
from dataclasses import replace
from itertools import groupby
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st
from scipy import signal

from aquawake import (
    DecoderPhase, DecoderState, DemodParams, DigitalTrace, Echo, HarvesterMode, LevelSample,
    LoadProfile, ModulationParams, RisingEdge, ScenarioResult, SignalUnit, WakeupFrame, Waveform,
    bandpass, decoder_feed, load_scenario, propagate, rectify, transduce, wake_output,
)
from aquawake.cli import preset_path
from harvester_oracle import oracle_tick


def sine_frame(frame: WakeupFrame, params: ModulationParams) -> np.ndarray:
    """The transmit as one array with an `np.sin` of its own per run: the
    preamble, then one burst copied into every 1-slot, clamped to the slot."""
    sr = params.sample_rate
    spb = sr / frame.bit_rate
    n_pre = round(frame.preamble_duration * sr)
    data_start = n_pre + round(frame.guard_duration * sr)
    slots = [data_start + round(k * spb) for k in range(len(frame.bits()) + 1)]
    omega = 2.0 * np.pi * params.carrier_freq / sr
    amp = params.tx_amplitude
    out = np.zeros(slots[-1])
    out[:n_pre] = amp * np.sin(omega * np.arange(n_pre))
    burst = amp * np.sin(omega * np.arange(round(params.pulse_duty * spb)))
    for bit, a, b in zip(frame.bits(), slots, slots[1:]):
        if bit:
            n = min(len(burst), b - a)
            out[a : a + n] = burst[:n]
    return out


def one_pole_lowpass(x, tau, sr, zi=None) -> np.ndarray:
    """Unity-DC-gain RC low-pass at `tau`; a one-value zi array passed in is carried in place."""
    beta = np.exp(-1.0 / (tau * sr))
    zi = np.zeros(1) if zi is None else zi
    y, zi[...] = signal.lfilter([1.0 - beta], [1.0, -beta], x, zi=zi)
    return y


def two_rc_drive(x, params, sr, fast_zi=None, slow_zi=None) -> np.ndarray:
    """Fast RC less reference_gain x slow RC; zi arrays passed in are carried in place."""
    plus = one_pole_lowpass(x, params.fast_tau, sr, fast_zi)
    return plus - params.reference_gain * one_pole_lowpass(x, params.slow_tau, sr, slow_zi)


def latch(diff: np.ndarray, hysteresis: float, sr: float, level=False, offset=0):
    """The comparator's level over its drive `diff`, one sample at a time, from
    `level` with `offset` samples before `diff`: a low level goes high above
    `hysteresis`, a high one low below `-hysteresis`; it holds in between and
    at NaN. Returns the edges' times and levels and the final level and offset."""
    times, levels = [], []
    for i, d in enumerate(diff.tolist(), offset):
        if d < -hysteresis if level else d > hysteresis:
            level = not level
            times.append(i / sr)
            levels.append(level)
    return np.array(times, dtype=float), np.array(levels, dtype=bool), level, offset + len(diff)


def per_tick_run_ticks(sc, trace, dt, ends, v_in, p_in):
    """The harvester and decoder over the ticks ending at `ends`, one loop
    iteration and one `oracle_tick` per tick: the final decoder state, the
    harvester (per-tick `energy`, `loads` and `(mode, 1)` `modes`, and the
    energy sums), and the rail-up and first-sync times."""
    starts = (np.arange(len(ends)) * dt).tolist()
    rising = [*trace.rising_times().tolist(), math.inf]
    edge_idx = 0
    dec_state = DecoderState()
    mode, energy, harvested, consumed = HarvesterMode.DEPLETED, 0.0, 0.0, 0.0
    energies, modes, loads = [], [], []
    rail_up_time = first_sync_time = None
    regulating, decided = HarvesterMode.REGULATING, DecoderPhase.DECIDED
    ticks = (np.asarray(a, dtype=float).tolist() for a in (ends, v_in, p_in))
    for t0, t1, tick_v_in, tick_p_in in zip(starts, *ticks):
        if mode is regulating:
            if rail_up_time is None:
                rail_up_time = t0
            while dec_state.phase is not decided:
                due = dec_state.next_sample_time
                edge = rising[edge_idx]
                if due is not None and due < t1 and due < edge:
                    event = LevelSample(due, trace.level_at(due))
                elif edge < t1:
                    event = RisingEdge(edge)
                    edge_idx += 1
                else:
                    break
                dec_state = decoder_feed(dec_state, sc.decoder, event)
                if first_sync_time is None:
                    first_sync_time = dec_state.first_edge_time
            load = sc.load.p_decode if dec_state.mid_frame else sc.load.p_listen
        else:
            load = 0.0
            edge_idx = bisect_left(rising, t1, edge_idx)
            if dec_state.mid_frame:
                dec_state = DecoderState()
        mode, energy, banked, drained = oracle_tick(
            sc.harvester, dt, mode, energy, tick_v_in, tick_p_in, load
        )
        harvested += banked
        consumed += drained
        energies.append(energy)
        modes.append((mode, 1))
        loads.append(load)
    harvester = SimpleNamespace(energy=np.array(energies), modes=modes, loads=loads,
                                harvested=harvested, consumed=consumed)
    return dec_state, harvester, rail_up_time, first_sync_time


def front_end(sc):
    """The run's edge trace, tick length, tick ends and per-tick input voltage and power."""
    demod, sr = sc.resolved_demod(), sc.modulation.sample_rate
    tail = np.zeros(round(sc.sim.tail_duration * sr))
    tx = Waveform(sr, np.concatenate([sine_frame(sc.frame, sc.modulation), tail]),
                  SignalUnit.PRESSURE)
    v_xdcr = transduce(propagate(tx, sc.channel, np.random.default_rng(sc.sim.seed)),
                       sc.transducer)
    env = one_pole_lowpass(rectify(bandpass(v_xdcr, demod), sc.rectifier).samples,
                           demod.envelope_tau, sr)
    times, levels, _, _ = latch(two_rc_drive(env, demod, sr), demod.hysteresis, sr)

    decim = sc.sim.harvester_decimation
    v_harv = rectify(v_xdcr, sc.rectifier).samples
    windows = np.zeros((math.ceil(len(v_harv) / decim), decim))  # the last tick zero-padded
    windows.flat[: len(v_harv)] = v_harv
    v_in = windows.sum(axis=1) / decim
    p_in = (windows * windows).sum(axis=1) / decim / sc.sim.input_resistance
    dt = decim / sr
    return DigitalTrace(times, levels), dt, np.arange(len(windows)) * dt + dt, v_in, p_in


def merged_runs(modes):
    """`(mode, ticks)` pairs as one tuple, each run of one mode in one pair."""
    return tuple((mode, sum(n for _, n in run)) for mode, run in groupby(modes, lambda p: p[0]))


def reference_run(sc):
    """What `run_scenario(sc)` returns, for a scenario it runs without an error,
    and the ticks it ran: the tick length and each tick's input voltage, input
    power and load."""
    trace, dt, _, v_in, p_in = inputs = front_end(sc)
    dec_state, h, rail_up_time, first_sync_time = per_tick_run_ticks(sc, *inputs)
    vcap_values = np.sqrt(2.0 * h.energy / sc.harvester.c_store)
    decision_time = dec_state.last_event_time if dec_state.phase is DecoderPhase.DECIDED else None
    woke = wake_output(dec_state)
    result = ScenarioResult(
        woke=woke, decoded_uuid=dec_state.decoded_uuid,
        time_to_wake=decision_time if woke else None, peak_v_cap=float(vcap_values.max()),
        harvested_energy=h.harvested, consumed_energy=h.consumed,
        tick_duration=dt, vcap_values=vcap_values,
        mode_runs=merged_runs(h.modes), edge_trace=trace,
        rail_up_time=rail_up_time, first_sync_time=first_sync_time,
        decision_time=decision_time, seed=sc.sim.seed,
    )
    return result, (dt, v_in, p_in, h.loads)


def assert_same_run(got, want):
    """Each field of two `ScenarioResult`s equal: the bytes of every array and
    of the edge trace, the `repr` of every other value."""
    for name, value in vars(got).items():
        other = getattr(want, name)
        if name == "edge_trace":
            for array in ("edge_times", "edge_levels"):
                assert getattr(value, array).tobytes() == getattr(other, array).tobytes(), array
        elif isinstance(value, np.ndarray):
            assert value.tobytes() == other.tobytes(), name
        else:
            assert repr(value) == repr(other), name


PRESETS = {name: load_scenario(preset_path(name))
           for name in ("paper_fig5", "paper_echo", "paper_critical_distance")}


def at_bit_rate(sc, bit_rate, hysteresis):
    """`sc` at `bit_rate`, its guard half a bit period and its demod taus following the rate."""
    frame = replace(sc.frame, bit_rate=bit_rate, guard_duration=0.5 / bit_rate)
    return replace(sc, frame=frame, demod=DemodParams.for_bit_rate(bit_rate, hysteresis=hysteresis))


@st.composite
def scenarios(draw):
    """Runs around the presets, each axis at the preset's value or drawn.
    Decimation 1 comes only at 100 bps and above and with at most the
    presets' 50 ms preamble, as `per_tick_run_ticks` loops once per tick in
    Python."""
    sc = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    decimation = draw(st.sampled_from([1, 8, 64]) | st.integers(2, 64))
    bit_rate = draw(st.floats(100.0 if decimation == 1 else 20.0, 1000.0))
    sc = at_bit_rate(sc, bit_rate, draw(st.floats(0.0, 0.05)))
    uuid = draw(st.just(sc.frame.uuid) | st.integers(0, 0xFF))
    decoder = replace(
        sc.decoder,
        # one run in four listens for another address
        assigned_uuid=uuid ^ draw(st.sampled_from([0, 0, 0, 0x5A])),
        sample_offset=draw(st.sampled_from([sc.decoder.sample_offset, 0.4])),
    )
    distance = draw(st.just(sc.channel.distance) | st.floats(0.5, 2.0))
    longest = 0.05 if decimation == 1 else 0.12
    preamble = draw(st.just(sc.frame.preamble_duration) | st.floats(0.0, longest))
    echo = st.builds(Echo, extra_path=st.floats(0.1, 20.0), gain=st.floats(0.0, 0.9))
    noise_rms = draw(st.just(0.0) | st.floats(0.0, 0.5))
    echoes = draw(st.lists(echo, max_size=1))
    drive = sc.modulation.tx_amplitude * draw(st.floats(0.2, 2.0))
    return replace(
        sc,
        frame=replace(sc.frame, uuid=uuid, preamble_duration=preamble),
        decoder=decoder,
        channel=replace(sc.channel, distance=distance, noise_rms=noise_rms, echoes=echoes),
        modulation=replace(sc.modulation, tx_amplitude=drive),
        harvester=replace(sc.harvester, c_store=draw(st.floats(20e-6, 400e-6))),
        # heavy loads drop the rail after rail-up, mid-frame when it is the decode draw
        load=LoadProfile(
            p_listen=draw(st.sampled_from([50e-3, 10e-3, 1e-3, sc.load.p_listen])),
            p_decode=draw(st.sampled_from([50e-3, 5e-3, sc.load.p_decode])
                          | st.floats(0.0, 500e-6)),
        ),
        sim=replace(
            sc.sim,
            harvester_decimation=decimation,
            tail_duration=draw(st.sampled_from([0.05, sc.sim.tail_duration])),
            seed=draw(st.integers(0, 2**32 - 1)),
        ),
    )
