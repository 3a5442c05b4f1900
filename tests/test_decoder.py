import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import (
    ConfigurationError,
    DecoderConfig,
    DecoderPhase,
    DecoderState,
    LevelSample,
    ProtocolError,
    RisingEdge,
    decoder_feed,
    wake_output,
)
from helpers import feed_all, frame_bits


def ideal_events(uuid: int, period: float, offset: float = 0.4, t0: float = 0.0):
    """Edge/level stream a clean frame produces: two sync rises, then one
    level per payload slot at the configured sampling phase."""
    bits = frame_bits(uuid)[2:]
    events = [RisingEdge(t0), RisingEdge(t0 + period)]
    for k, bit in enumerate(bits):
        t = t0 + period + (k + 1 + offset) * period
        events.append(LevelSample(t, bool(bit)))
    return events


def decode(uuid: int, assigned: int, period: float = 5e-3, **cfg_kw) -> DecoderState:
    cfg = DecoderConfig(assigned_uuid=assigned, **cfg_kw)
    return feed_all(cfg, ideal_events(uuid, period, cfg.sample_offset))


def test_matching_stream_decides_true():
    state = decode(0xA5, assigned=0xA5)
    assert state.phase is DecoderPhase.DECIDED
    assert state.decoded_uuid == 0xA5
    assert state.match is True
    assert wake_output(state) is True


def test_mismatched_stream_decides_false():
    state = decode(0xA5, assigned=0x5A)
    assert state.phase is DecoderPhase.DECIDED
    assert state.decoded_uuid == 0xA5
    assert state.match is False
    assert wake_output(state) is False


@pytest.mark.parametrize("period", [2.5e-3, 4e-3, 5e-3, 7.5e-3, 10e-3])
@pytest.mark.parametrize("uuid", [0x00, 0x01, 0x80, 0xA5, 0x5A, 0x0F, 0xFF])
def test_rate_adaptivity_with_one_fixed_config(period, uuid):
    state = decode(uuid, assigned=uuid, period=period)
    assert wake_output(state) is True
    assert state.reference_period == pytest.approx(period)


def test_exactly_one_of_256_streams_wakes_any_assigned_uuid():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    woke = [
        wake_output(feed_all(cfg, ideal_events(uuid, 5e-3, cfg.sample_offset)))
        for uuid in range(256)
    ]
    assert sum(woke) == 1
    assert woke[0xA5] is True


def test_delayed_copies_between_sampling_instants_are_ignored():
    """A high level echoed a fixed lag after each burst must not change any
    decision as long as the lag misses the sampling instants."""
    lag = 3.1e-3
    period = 5e-3
    for uuid in range(256):
        cfg = DecoderConfig(assigned_uuid=uuid)
        events = ideal_events(uuid, period, cfg.sample_offset)
        ghosts = [
            LevelSample(k * period + lag, True)
            for k, bit in enumerate(frame_bits(uuid))
            if bit
        ]
        merged = sorted(events + ghosts, key=lambda e: e.time)
        assert feed_all(cfg, merged).decoded_uuid == uuid, f"uuid {uuid:#04x}"


def test_spurious_edges_while_sampling_are_ignored():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    events = ideal_events(0xA5, 5e-3, cfg.sample_offset)
    spiked = events[:2] + [RisingEdge(11e-3), RisingEdge(24e-3)] + events[2:]
    state = feed_all(cfg, sorted(spiked, key=lambda e: e.time))
    assert wake_output(state) is True


def test_levels_before_any_edge_are_ignored():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    state = feed_all(cfg, [LevelSample(0.0, True), LevelSample(1e-3, True)])
    assert state.phase is DecoderPhase.AWAIT_FIRST_EDGE


def test_early_level_samples_are_not_consumed():
    cfg = DecoderConfig(assigned_uuid=0xFF)
    events = ideal_events(0xFF, 5e-3, cfg.sample_offset)
    # a premature high level in the middle of sync must not become bit 0
    early = LevelSample(events[1].time + 1e-4, True)
    state = feed_all(cfg, events[:2] + [early])
    assert state.bit_index == 0
    state = feed_all(cfg, sorted(events + [early], key=lambda e: e.time))
    assert wake_output(state) is True


def test_duplicate_second_edge_does_not_zero_the_period():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    events = ideal_events(0xA5, 5e-3, cfg.sample_offset)
    doubled = [events[0], events[0]] + events[1:]
    state = feed_all(cfg, doubled)
    assert state.reference_period == pytest.approx(5e-3)
    assert wake_output(state) is True


def test_sync_timeout_resets_and_accepts_the_next_frame():
    cfg = DecoderConfig(assigned_uuid=0x3C)
    stale = RisingEdge(0.0)
    # second edge arrives beyond max_sync_interval: it becomes the new first
    fresh = ideal_events(0x3C, 5e-3, cfg.sample_offset, t0=0.050)
    state = feed_all(cfg, [stale] + fresh)
    assert wake_output(state) is True
    assert state.reference_period == pytest.approx(5e-3)


def test_decided_is_terminal():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    state = feed_all(cfg, ideal_events(0xA5, 5e-3, cfg.sample_offset))
    after = decoder_feed(state, cfg, RisingEdge(1.0))
    after = decoder_feed(after, cfg, LevelSample(1.1, False))
    assert after.phase is DecoderPhase.DECIDED
    assert after.decoded_uuid == 0xA5


def test_decided_state_is_returned_unchanged():
    # run_scenario reads the decision time from last_event_time
    cfg = DecoderConfig(assigned_uuid=0xA5)
    state = feed_all(cfg, ideal_events(0xA5, 5e-3, cfg.sample_offset))
    decided_at = state.last_event_time
    assert decoder_feed(state, cfg, RisingEdge(1.0)) == state
    assert decoder_feed(state, cfg, LevelSample(1.1, True)).last_event_time == decided_at
    with pytest.raises(ProtocolError):
        decoder_feed(state, cfg, RisingEdge(decided_at - 1e-3))


def fed(count: int) -> DecoderState:
    """The state after the first `count` events of a clean 5 ms frame."""
    cfg = DecoderConfig(assigned_uuid=0xA5)
    return feed_all(cfg, ideal_events(0xA5, 5e-3, cfg.sample_offset)[:count])


# (state, event, the phase and bit count it leads to), one per branch of
# decoder_feed; the frame's sync edges are at 0 and 5 ms, its bit k due at
# 5 + (k + 1.4) * 5 ms
TRANSITIONS = {
    "first edge": (DecoderState(), RisingEdge(0.0), DecoderPhase.AWAIT_SECOND_EDGE, 0),
    "level while awaiting": (DecoderState(), LevelSample(0.0, True),
                             DecoderPhase.AWAIT_FIRST_EDGE, 0),
    "level while awaiting the second edge": (fed(1), LevelSample(1e-3, True),
                                             DecoderPhase.AWAIT_SECOND_EDGE, 0),
    "duplicate second edge": (fed(1), RisingEdge(0.0), DecoderPhase.AWAIT_SECOND_EDGE, 0),
    "stale sync restart": (fed(1), RisingEdge(0.5), DecoderPhase.AWAIT_SECOND_EDGE, 0),
    "stale sync level": (fed(1), LevelSample(0.5, True), DecoderPhase.AWAIT_FIRST_EDGE, 0),
    "sync completes": (fed(1), RisingEdge(5e-3), DecoderPhase.SAMPLING, 0),
    "level not yet due": (fed(2), LevelSample(6e-3, True), DecoderPhase.SAMPLING, 0),
    "edge while sampling": (fed(2), RisingEdge(13e-3), DecoderPhase.SAMPLING, 0),
    "bit sampled": (fed(2), LevelSample(13e-3, True), DecoderPhase.SAMPLING, 1),
    "decision": (fed(9), LevelSample(0.05, True), DecoderPhase.DECIDED, 8),
    "decided": (fed(10), RisingEdge(1.0), DecoderPhase.DECIDED, 8),
}


@pytest.mark.parametrize("name", list(TRANSITIONS))
def test_a_feed_leaves_its_input_state_as_it_was(name):
    # the tick loop holds a state and feeds it again after a rail drop
    state, event, phase, bits = TRANSITIONS[name]
    before = copy.deepcopy(state)
    after = decoder_feed(state, DecoderConfig(assigned_uuid=0xA5), event)
    assert (after.phase, after.bit_index) == (phase, bits)
    assert state == before
    if state.phase is DecoderPhase.DECIDED:
        assert after is state
    else:
        assert after is not state
        assert after.last_event_time == event.time


def test_out_of_order_events_raise():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    state = decoder_feed(DecoderState(), cfg, RisingEdge(1.0))
    with pytest.raises(ProtocolError):
        decoder_feed(state, cfg, RisingEdge(0.5))


@pytest.mark.parametrize("event", [RisingEdge(math.nan), LevelSample(math.nan, True)])
def test_an_event_at_nan_raises(event):
    # NaN compares false against every time, so it is named as no number, not as out of order
    cfg = DecoderConfig(assigned_uuid=0xA5)
    message = "^event time must be a number, got nan$"
    with pytest.raises(ProtocolError, match=message):
        decoder_feed(DecoderState(), cfg, event)
    with pytest.raises(ProtocolError, match=message):
        decoder_feed(decoder_feed(DecoderState(), cfg, RisingEdge(1.0)), cfg, event)


def test_next_sample_time_only_while_sampling():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    state = DecoderState()
    assert state.next_sample_time is None
    state = decoder_feed(state, cfg, RisingEdge(0.0))
    assert state.next_sample_time is None
    state = decoder_feed(state, cfg, RisingEdge(5e-3))
    assert state.next_sample_time == pytest.approx(5e-3 + (1 + cfg.sample_offset) * 5e-3)


def test_decoded_uuid_is_none_until_all_bits_arrive():
    cfg = DecoderConfig(assigned_uuid=0xA5)
    events = ideal_events(0xA5, 5e-3, cfg.sample_offset)
    state = feed_all(cfg, events[:-1])
    assert state.phase is DecoderPhase.SAMPLING
    assert state.decoded_uuid is None
    assert state.bit_index == 7


def test_wake_output_false_while_undecided():
    assert wake_output(DecoderState()) is False


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DecoderConfig(assigned_uuid=256)
    with pytest.raises(ConfigurationError):
        DecoderConfig(assigned_uuid=0xA5, sample_offset=0.0)
    with pytest.raises(ConfigurationError):
        DecoderConfig(assigned_uuid=0xA5, sample_offset=1.2)
    with pytest.raises(ConfigurationError):
        DecoderConfig(assigned_uuid=0xA5, max_sync_interval=0.0)


class ReferenceDecoder:
    """The module docstring's rules as a plain mutable machine: time the gap
    between two sync edges (restarting when it exceeds max_sync_interval or
    is zero), then take the level of each payload slot at its sampling
    instant, one due level per event, and decide after the last bit."""

    def __init__(self, cfg: DecoderConfig):
        self.cfg = cfg
        self.phase = DecoderPhase.AWAIT_FIRST_EDGE
        self.last_event_time = -math.inf
        self.first_edge_time = self.second_edge_time = self.reference_period = None
        self.bits: list[int] = []
        self.match = None

    @property
    def bit_index(self) -> int:
        return len(self.bits)

    @property
    def next_sample_time(self):
        if self.phase is not DecoderPhase.SAMPLING:
            return None
        slot = self.bit_index + 1 + self.cfg.sample_offset
        return self.second_edge_time + slot * self.reference_period

    @property
    def decoded_uuid(self):
        return int("".join(map(str, self.bits)), 2) if len(self.bits) == 8 else None

    def feed(self, event) -> None:
        if self.phase is DecoderPhase.DECIDED:
            return
        t = event.time
        self.last_event_time = t
        edge = isinstance(event, RisingEdge)
        if self.phase is DecoderPhase.AWAIT_SECOND_EDGE:
            if t - self.first_edge_time > self.cfg.max_sync_interval:
                self.phase, self.first_edge_time = DecoderPhase.AWAIT_FIRST_EDGE, None
            elif edge and t != self.first_edge_time:
                self.phase = DecoderPhase.SAMPLING
                self.second_edge_time, self.reference_period = t, t - self.first_edge_time
                return
        if self.phase is DecoderPhase.AWAIT_FIRST_EDGE:
            if edge:
                self.phase, self.first_edge_time = DecoderPhase.AWAIT_SECOND_EDGE, t
        elif self.phase is DecoderPhase.SAMPLING and not edge and t >= self.next_sample_time:
            self.bits.append(int(event.level))
            if len(self.bits) == 8:
                self.phase = DecoderPhase.DECIDED
                self.match = self.decoded_uuid == self.cfg.assigned_uuid


COMPARED = (
    "phase",
    "last_event_time",
    "first_edge_time",
    "reference_period",
    "bit_index",
    "next_sample_time",
    "decoded_uuid",
    "match",
)


def retimed(event, dt: float):
    if isinstance(event, RisingEdge):
        return RisingEdge(event.time + dt)
    return LevelSample(event.time + dt, event.level)


@st.composite
def altered_streams(draw):
    """An ideal frame with events dropped, delayed past the sync window or
    duplicated, ghost edges and levels inserted, and events after the decision."""
    uuid = draw(st.integers(0, 255))
    period = draw(st.floats(2e-3, 10e-3))
    offset = draw(st.sampled_from([0.25, 0.4, 0.5, 0.75]))
    cfg = DecoderConfig(
        assigned_uuid=draw(st.sampled_from([uuid, uuid ^ 0x01, 0xA5])), sample_offset=offset
    )
    events = ideal_events(uuid, period, offset, t0=draw(st.floats(0.0, 0.05)))
    end = events[-1].time
    dropped = draw(st.sets(st.integers(0, len(events) - 1), max_size=3))
    events = [e for i, e in enumerate(events) if i not in dropped]
    if draw(st.booleans()):
        # the events from `cut` on wait out the sync window
        cut = draw(st.integers(1, len(events)))
        lag = draw(st.floats(cfg.max_sync_interval, 3 * cfg.max_sync_interval))
        events = events[:cut] + [retimed(e, lag) for e in events[cut:]]
        end += lag
    for index in draw(st.lists(st.integers(0, len(events) - 1), max_size=3)):
        events.append(events[index])
    # or just as the sync window of the first edge closes
    times = st.floats(0.0, end + 2 * period) | st.just(events[0].time + cfg.max_sync_interval)
    for time, kind, level in draw(st.lists(st.tuples(times, st.booleans(), st.booleans()))):
        events.append(RisingEdge(time) if kind else LevelSample(time, level))
    events.sort(key=lambda e: e.time)
    return cfg, events


@settings(max_examples=200, derandomize=True, deadline=None)
@given(altered_streams())
def test_feed_matches_a_reference_decoder_after_every_event(stream):
    cfg, events = stream
    state, reference = DecoderState(), ReferenceDecoder(cfg)
    for event in events:
        state = decoder_feed(state, cfg, event)
        reference.feed(event)
        for name in COMPARED:
            assert getattr(state, name) == getattr(reference, name), (name, event)
