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

from .config import Byte, Config, Fraction, Positive, shown
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
        return _shift_in(self.bits) if len(self.bits) == UUID_BITS else None


def _shift_in(bits: tuple[int, ...]) -> int:
    value = 0
    for bit in bits:
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
    if t != t:  # NaN, which no order test could place
        raise ProtocolError(f"event time must be a number, got {shown(t)}")
    if not t >= state.last_event_time:
        raise ProtocolError(
            f"event at t={t} arrived after t={state.last_event_time}; "
            "events must be fed in time order"
        )
    phase = state.phase
    if phase is DecoderPhase.DECIDED:
        return state  # terminal: last_event_time stays the decision time
    edge = isinstance(event, RisingEdge)

    if phase is DecoderPhase.AWAIT_SECOND_EDGE:
        period = t - state.first_edge_time
        if period > cfg.max_sync_interval:
            # sync never completed; drop back and let this event start over
            phase = DecoderPhase.AWAIT_FIRST_EDGE
        elif not edge or period == 0.0:  # a level, or a duplicate report of the edge
            return replace(state, last_event_time=t)
        else:
            # payload bit k lives one slot per period after the second sync bit
            schedule = tuple(t + (k + 1 + cfg.sample_offset) * period for k in range(UUID_BITS))
            return replace(
                state,
                phase=DecoderPhase.SAMPLING,
                last_event_time=t,
                reference_period=period,
                sample_times=schedule,
            )

    if phase is DecoderPhase.AWAIT_FIRST_EDGE:
        if edge:
            phase = DecoderPhase.AWAIT_SECOND_EDGE
        return replace(state, phase=phase, last_event_time=t, first_edge_time=t if edge else None)

    # SAMPLING, the one phase left; edges between sampling instants are irrelevant
    if edge or t < state.sample_times[state.bit_index]:
        return replace(state, last_event_time=t)  # an edge, or a level not due yet
    bits = state.bits + (1 if event.level else 0,)
    if len(bits) < UUID_BITS:
        return replace(state, last_event_time=t, bits=bits)
    match = _shift_in(bits) == cfg.assigned_uuid
    return replace(state, phase=DecoderPhase.DECIDED, last_event_time=t, bits=bits, match=match)


def wake_output(state: DecoderState) -> bool:
    """True only after a completed decode that matched the assigned UUID."""
    return state.phase is DecoderPhase.DECIDED and bool(state.match)
