"""Reference tick loop: `sim._run_ticks`'s span engine against a per-tick loop.

`sim._run_ticks` feeds the decoder ahead to the next load change and
advances the harvester over whole spans of ticks between load changes.
`reference_engine.per_tick_run_ticks` is the loop it replaced: one
iteration per tick, the event merge checked on every rail-up tick, and the
plain-float energy-domain harvester of `harvester_oracle` one tick at a
time. Both must agree bit for bit, on synthetic tick inputs whose edges
and sampling instants fall on exact tick ends or crowd whole frames into
one tick, on hand-built ties, a mid-frame rail-down reset inside a
look-ahead, a rail drop in the run's last tick and a rail that holds on an
empty cap. Whole runs are pinned to the same loop by
`test_reference_engine.py`.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import DecoderConfig, HarvesterMode, HarvesterParams, LoadProfile, decoder_feed, sim
from aquawake.decoder import DecoderPhase
from aquawake.waveform import DigitalTrace
from helpers import reference_scenario
from reference_engine import per_tick_run_ticks


def per_tick(out):
    """A `_run_ticks` result with the energies as floats and one mode per tick."""
    dec_state, h, *rest = out
    modes = [m for m, count in h.modes for _ in range(count)]
    return dec_state, h.energy.tolist(), modes, h.harvested, h.consumed, *rest


DT = 0.125  # s; tick ends and the 1/32 s edge grid below are exact binary fractions
GRID = DT / 4


def tick_ends(n):
    return (np.arange(n) * DT + DT).tolist()


def alternating_trace(grid_steps, grid=GRID):
    """Rising at even entries, falling at odd ones, times in `grid` steps."""
    levels = [i % 2 == 0 for i in range(len(grid_steps))]
    return DigitalTrace(np.array(grid_steps, dtype=float) * grid, np.array(levels))


def base_scenario(load, decoder):
    # a 1 uF cap rails up within a tick of 1 mW input and empties under 10 mW of load
    harvester = HarvesterParams(c_store=1e-6)
    return replace(reference_scenario(), harvester=harvester, load=load, decoder=decoder)


def both(sc, trace, v_in, p_in):
    ends = tick_ends(len(v_in))
    spans = per_tick(sim._run_ticks(sc, trace, DT, ends, v_in, p_in))
    reference = per_tick(per_tick_run_ticks(sc, trace, DT, ends, v_in, p_in))
    assert repr(spans) == repr(reference)  # float reprs round-trip, so bit for bit
    return spans


@st.composite
def tick_cases(draw):
    n = draw(st.integers(1, 120))
    v_in = draw(st.lists(st.sampled_from([1.0, 0.0]), min_size=n, max_size=n))
    p_in = draw(st.lists(st.sampled_from([1e-3, 0.0, 1e-5, 0.1]), min_size=n, max_size=n))
    # on a half-tick grid, every other edge and many sampling instants sit on a tick
    # end; on a 1/64-tick grid the edges crowd into a quarter tick from a drawn
    # tick's start, so one tick can hold a whole frame and its decision
    grid = draw(st.sampled_from([2 * GRID, GRID, DT / 64]))
    if grid < GRID:
        first, last = draw(st.integers(0, n - 1)) * 64, 16
    else:
        first, last = 0, round(n * DT / grid) + 8
    steps = draw(st.lists(st.integers(0, last), unique=True, max_size=40))
    load = LoadProfile(
        p_listen=draw(st.sampled_from([1e-5, 0.0, 1e-2])),
        p_decode=draw(st.sampled_from([1e-4, 1e-2, 0.0])),
    )
    decoder = DecoderConfig(
        assigned_uuid=draw(st.integers(0, 0xFF)),
        max_sync_interval=draw(st.sampled_from([100.0, 0.3])),
        sample_offset=draw(st.sampled_from([0.5, 0.25, 1.0])),
    )
    trace = alternating_trace([first + m for m in sorted(steps)], grid)
    return base_scenario(load, decoder), trace, v_in, p_in


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tick_cases())
def test_the_span_engine_matches_the_per_tick_loop(case):
    sc, trace, v_in, p_in = case
    both(sc, trace, v_in, p_in)


STEADY = LoadProfile(p_listen=1e-5, p_decode=1e-4)  # the rail stays up on 1 mW


def test_an_edge_on_a_tick_end_is_fed_in_the_next_tick():
    ends = tick_ends(12)
    sc = base_scenario(STEADY, DecoderConfig(assigned_uuid=0xA5, max_sync_interval=1.0))
    # first sync edge exactly at ends[3], the second exactly at ends[5]
    trace = alternating_trace([16, 17, 24, 25])
    assert ends[3] == 16 * GRID and ends[5] == 24 * GRID
    dec_state, _, _, _, consumed, rail_up_time, first_sync_time = both(
        sc, trace, [1.0] * 12, [1e-3] * 12
    )
    assert rail_up_time == 0.125  # tick 1 starts regulating
    assert first_sync_time == ends[3]
    assert dec_state.phase is DecoderPhase.SAMPLING and dec_state.reference_period == 0.25
    # the decode draw starts in tick 4, not in tick 3 whose end the edge sits on
    listen, decode = (p * DT / sc.harvester.boost_efficiency for p in (1e-5, 1e-4))
    assert consumed == pytest.approx(3 * listen + 8 * decode, rel=1e-12)


def test_a_sample_due_on_a_tick_end_is_fed_in_the_next_tick():
    ends = tick_ends(40)
    sc = base_scenario(
        STEADY, DecoderConfig(assigned_uuid=0xA5, max_sync_interval=1.0, sample_offset=0.5)
    )
    # sync at 0.5 s and 0.75 s: bit k is due at 0.75 + (k + 1.5) * 0.25 s, each a tick end
    bits = [1, 0, 1, 0, 0, 1, 0, 1]  # 0xA5, MSB first
    steps = [16, 17, 24, 25]
    for k, bit in enumerate(bits):
        if bit:
            slot = 24 + 8 * (k + 1)  # rising at the slot's start, falling after the sample
            steps += [slot, slot + 7]
    dec_state, *_ = both(sc, alternating_trace(steps), [1.0] * 40, [1e-3] * 40)
    assert all(t in ends for t in dec_state.sample_times)
    assert dec_state.phase is DecoderPhase.DECIDED and dec_state.match
    assert dec_state.last_event_time == dec_state.sample_times[-1] == ends[22]


def rail_drop_case():
    # 1 mW charges the cap, 10 mW of decode drains it in a tick, then 100 mW holds the rail
    v_in, p_in = [1.0] * 60, [1e-3] * 6 + [0.1] * 54
    sc = base_scenario(
        LoadProfile(p_listen=1e-5, p_decode=1e-2),
        DecoderConfig(assigned_uuid=0xA5, max_sync_interval=1.0, sample_offset=0.5),
    )
    # a lone edge at 0.3125 s starts a frame that the drop cuts, then a clean 0xA5 frame
    steps = [10, 11, 64, 65, 72, 73]
    for k, bit in enumerate([1, 0, 1, 0, 0, 1, 0, 1]):
        if bit:
            steps += [72 + 8 * (k + 1), 72 + 8 * (k + 1) + 7]
    return sc, alternating_trace(steps), v_in, p_in


def test_a_rail_drop_mid_frame_resets_the_decoder():
    dec_state, _, modes, _, _, _, first_sync_time = both(*rail_drop_case())
    assert modes[1:4] == [HarvesterMode.REGULATING, HarvesterMode.DEPLETED,
                          HarvesterMode.REGULATING]
    assert first_sync_time == 10 * GRID  # the cut frame's edge, kept across the reset
    assert dec_state.first_edge_time == 64 * GRID
    assert dec_state.phase is DecoderPhase.DECIDED and dec_state.match


@pytest.fixture
def feeds(monkeypatch):
    """The event times `sim` feeds the decoder; the per-tick loop feeds through its own import."""
    times = []

    def counting(state, cfg, event):
        times.append(event.time)
        return decoder_feed(state, cfg, event)

    monkeypatch.setattr(sim.dec, "decoder_feed", counting)
    return times


def test_a_rail_drop_inside_a_look_ahead_resumes_from_the_last_rail_up_tick(monkeypatch, feeds):
    runs = []  # (first tick, stop, next tick, mode after) per Harvester.run

    class Recording(sim.Harvester):
        def run(self, stop, load_power):
            k = self.k
            super().run(stop, load_power)
            runs.append((k, stop, self.k, self.mode))

    monkeypatch.setattr(sim, "Harvester", Recording)
    both(*rail_drop_case())
    # tick 2 feeds the lone edge and the decode span is fed ahead through the
    # clean frame to its decision in tick 35; the rail drops in tick 2, so those
    # feeds lapse and the frame is fed again once the rail is back up
    assert (2, 35, 3, HarvesterMode.DEPLETED) in runs
    assert feeds[:3] == [10 * GRID, 64 * GRID, 72 * GRID]
    assert feeds.count(64 * GRID) == 2


def test_a_rail_drop_in_the_last_tick_keeps_the_events_fed_before_it():
    # a cap charged in tick 0 drains under the decode draw and empties in tick 4,
    # the last; the span from tick 2 is fed ahead to the end of the run
    sc = base_scenario(
        LoadProfile(p_listen=0.0, p_decode=1e-5),
        DecoderConfig(assigned_uuid=0xA5, max_sync_interval=1.0, sample_offset=0.5),
    )
    rising = [0.3, 0.4, 0.5]  # sync at 0.3 s and 0.4 s, then bit 0 sampled low at 0.55 s
    times = sorted(rising + [t + 0.03 for t in rising])
    trace = DigitalTrace(np.array(times), np.array([i % 2 == 0 for i in range(len(times))]))
    dec_state, _, modes, *_ = both(sc, trace, [1.0] * 5, [1e-3] + [0.0] * 4)
    assert modes == [HarvesterMode.REGULATING] * 4 + [HarvesterMode.DEPLETED]
    # ticks 3 and 4 ran with the rail up, so their events stand with no reset after
    assert dec_state.phase is DecoderPhase.SAMPLING and dec_state.bits == (0,)


def test_a_rail_that_holds_on_an_empty_cap_feeds_each_event_once(feeds):
    # at uvlo 0 the decode draw empties the cap from tick 2 on and the rail holds
    sc, trace, v_in, p_in = rail_drop_case()
    sc = replace(sc, harvester=replace(sc.harvester, uvlo=0.0))
    dec_state, _, modes, *_ = both(sc, trace, v_in, p_in)
    assert set(modes[1:]) == {HarvesterMode.REGULATING}
    assert dec_state.phase is DecoderPhase.DECIDED and dec_state.match
    assert len(feeds) == len(set(feeds)) == 15  # lone edge, 2 sync and 4 bit edges, 8 samples


# `feed` settles a tie three ways: a sample due exactly at a tick's end and an
# edge exactly there both wait for the next tick, and a sample due at an edge's
# time follows the edge. The cases below put the event on the end of a tick
# whose events the span engine holds in `held`: a span's first tick, and the
# last tick that ran with the rail up before a drop, where `held` is fed again
FRAME_DECODER = DecoderConfig(assigned_uuid=0xA5, max_sync_interval=1.0, sample_offset=0.5)


def frame_steps(sync, period, high):
    """The grid steps of a 0xA5 frame: rising sync edges at `sync` and `sync +
    period`, then each 1-bit's slot high for its first `high` steps. At
    `FRAME_DECODER`'s offset the decision is due at `sync + 9.5 * period`."""
    steps = [sync, sync + 1, sync + period, sync + period + 1]
    for k, bit in enumerate([1, 0, 1, 0, 0, 1, 0, 1]):
        if bit:
            slot = sync + period * (k + 2)
            steps += [slot, slot + high]
    return steps


@pytest.mark.parametrize(
    "steps, grid, tie, decode_ticks",
    [
        # the rail comes up in tick 1, and the first sync edge sits on its end
        ([8, 9, 16, 17], GRID, 8, 10),
        # a frame crowded into tick 4, whose first sync edge starts a decode span
        (frame_steps(282, 4, 3), DT / 64, 320, 1),
    ],
    ids=["first_sync_edge", "decision"],
)
def test_an_event_on_the_end_of_a_spans_first_tick_is_fed_in_the_next_tick(
    steps, grid, tie, decode_ticks
):
    ends = tick_ends(12)
    sc = base_scenario(STEADY, FRAME_DECODER)
    _, _, modes, _, consumed, rail_up_time, _ = both(
        sc, alternating_trace(steps, grid), [1.0] * 12, [1e-3] * 12
    )
    assert rail_up_time == ends[0] and set(modes) == {HarvesterMode.REGULATING}
    assert tie * grid in ends
    # the event counts from the next tick on: the decode draw starts after the
    # sync edge's tick, and the decision's tick still draws it
    listen, decode = (p * DT / sc.harvester.boost_efficiency for p in (1e-5, 1e-4))
    assert consumed == pytest.approx((11 - decode_ticks) * listen + decode_ticks * decode,
                                     rel=1e-12)


@pytest.mark.parametrize(
    "steps, load, tick, tie, first_sync",
    [
        ([24, 25], 3e-4, 5, 24, None),
        (frame_steps(16, 8, 7), 3.5e-4, 22, 92, 16 * GRID),
    ],
    ids=["first_sync_edge", "decision"],
)
def test_an_event_on_the_end_of_the_last_tick_before_a_rail_drop_is_lost(
    steps, load, tick, tie, first_sync
):
    # 1 mW runs out at tick `tick`; the draw of `load` keeps the rail up on it
    # until then and empties the cap in that tick
    n = tick + 8
    ends = tick_ends(n)
    sc = base_scenario(LoadProfile(p_listen=load, p_decode=load), FRAME_DECODER)
    dec_state, _, modes, _, _, _, first_sync_time = both(
        sc, alternating_trace(steps), [1.0] * n, [1e-3] * tick + [0.0] * (n - tick)
    )
    assert modes[tick - 1] is HarvesterMode.REGULATING
    assert set(modes[tick:]) == {HarvesterMode.DEPLETED}
    assert tie * GRID == ends[tick]
    # the event falls in the first rail-down tick: it is never fed, and a frame
    # in progress is reset
    assert first_sync_time == first_sync
    assert dec_state.phase is DecoderPhase.AWAIT_FIRST_EDGE
