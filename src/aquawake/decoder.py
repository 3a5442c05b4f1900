"""Adaptive-rate UUID decoder.

The decoder never learns the transmitter's bit rate ahead of time. It times
the gap between the two sync pulses, then samples the comparator level once
per payload bit at instants derived from that measured period. Everything is
an explicit event (rising edge or level sample) with a timestamp, so the
module is independent of any sample clock and easy to drive from tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import inf

from .config import Byte, Config, Fraction, Positive
from .errors import ProtocolError
from .frame import UUID_BITS


class DecoderPhase(Enum):
    AWAIT_FIRST_EDGE = "await_first_edge"
    AWAIT_SECOND_EDGE = "await_second_edge"
    SAMPLING = "sampling"
    DECIDED = "decided"


@dataclass(frozen=True)
class RisingEdge:
    time: float


@dataclass(frozen=True)
class LevelSample:
    time: float
    level: bool


@dataclass
class DecoderConfig(Config):
    assigned_uuid: Byte
    max_sync_interval: Positive = 0.040  # s, 4x the longest supported bit period
    sample_offset: Fraction = 0.4  # fraction of the period into each bit slot


@dataclass
class DecoderState:
    phase: DecoderPhase = DecoderPhase.AWAIT_FIRST_EDGE
    last_event_time: float = -inf
    first_edge_time: float | None = None
    reference_period: float | None = None
    sample_times: tuple[float, ...] = ()
    bits: tuple[int, ...] = ()
    match: bool | None = None

    @property
    def mid_frame(self) -> bool:
        """Between the first sync edge and the decision."""
        return self.phase in (DecoderPhase.AWAIT_SECOND_EDGE, DecoderPhase.SAMPLING)

    @property
    def bit_index(self) -> int:
        return len(self.bits)

    @property
    def next_sample_time(self) -> float | None:
        """Next scheduled sampling instant, None unless sampling."""
        if self.phase is DecoderPhase.SAMPLING and self.bit_index < UUID_BITS:
            return self.sample_times[self.bit_index]
        return None

    @property
    def decoded_uuid(self) -> int | None:
        """Shift-register contents once all payload bits are in (MSB first)."""
        if len(self.bits) < UUID_BITS:
            return None
        value = 0
        for bit in self.bits:
            value = (value << 1) | bit
        return value


def decoder_feed(
    state: DecoderState, cfg: DecoderConfig, event: RisingEdge | LevelSample
) -> DecoderState:
    """Consume one timed event and return the next state.

    Events must arrive in nondecreasing time order. Rising edges drive sync
    acquisition; once the period is measured the decoder only reacts to
    level samples that are due per its schedule, so stray edges or early
    levels (echo artifacts) cannot move it.
    """
    t = event.time
    if t < state.last_event_time:
        raise ProtocolError(
            f"event at t={t} arrived after t={state.last_event_time}; "
            "events must be fed in time order"
        )
    state = replace(state, last_event_time=t)

    if state.phase is DecoderPhase.AWAIT_SECOND_EDGE:
        assert state.first_edge_time is not None
        if t - state.first_edge_time > cfg.max_sync_interval:
            # sync never completed; drop back and let this event start over
            state = replace(
                state, phase=DecoderPhase.AWAIT_FIRST_EDGE, first_edge_time=None
            )

    if state.phase is DecoderPhase.AWAIT_FIRST_EDGE:
        if isinstance(event, RisingEdge):
            return replace(state, phase=DecoderPhase.AWAIT_SECOND_EDGE, first_edge_time=t)
        return state

    if state.phase is DecoderPhase.AWAIT_SECOND_EDGE:
        if not isinstance(event, RisingEdge):
            return state
        period = t - state.first_edge_time
        if period == 0.0:  # duplicate report of the same edge
            return state
        # payload bit k lives one slot per period after the second sync bit
        schedule = tuple(
            t + (k + 1 + cfg.sample_offset) * period for k in range(UUID_BITS)
        )
        return replace(
            state,
            phase=DecoderPhase.SAMPLING,
            reference_period=period,
            sample_times=schedule,
            bits=(),
        )

    if state.phase is DecoderPhase.SAMPLING:
        if not isinstance(event, LevelSample):
            return state  # edges between sampling instants are irrelevant
        if t < state.sample_times[state.bit_index]:
            return state  # not due yet
        bits = state.bits + (1 if event.level else 0,)
        state = replace(state, bits=bits)
        if len(bits) == UUID_BITS:
            return replace(
                state,
                phase=DecoderPhase.DECIDED,
                match=state.decoded_uuid == cfg.assigned_uuid,
            )
        return state

    return state  # DECIDED is terminal


def wake_output(state: DecoderState) -> bool:
    """True only after a completed decode that matched the assigned UUID."""
    return state.phase is DecoderPhase.DECIDED and bool(state.match)
