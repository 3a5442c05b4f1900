"""What each config field accepts, declared once in its annotation.

`Config.__post_init__` checks every `float`/`int` field in order: its kind (no
bools or strings; an integer where the annotation says `int`), finiteness for
floats (NaN passes every `<= 0` test), then the range of its alias, if any.
"""

from __future__ import annotations

import functools
import math
import reprlib
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError


class FieldError(ConfigurationError):
    """A field value its annotation rejects; the message starts with the field name."""


# each alias carries its rule text (completing "<field> must be ...") and predicate
Positive = Annotated[float, "positive", lambda v: v > 0]
NonNegative = Annotated[float, ">= 0", lambda v: v >= 0]
Fraction = Annotated[float, "in (0, 1]", lambda v: 0 < v <= 1]
Gain = Annotated[float, "in [0, 1)", lambda v: 0 <= v < 1]
Count = Annotated[int, ">= 1", lambda v: v >= 1]
NonNegativeInt = Annotated[int, ">= 0", lambda v: v >= 0]
Byte = Annotated[int, "in [0, 255]", lambda v: 0 <= v <= 0xFF]

# accepted classes per annotated kind; concrete, as isinstance on numbers.Real is slower
_KINDS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


class _Shown(reprlib.Repr):
    """repr cut short at every level: a few items per container, a few levels deep."""

    def repr_int(self, x, level):
        # repr raises beyond sys.get_int_max_str_digits(); its middle digits would go anyway
        if x.bit_length() > 1000:
            return f"<int of {x.bit_length()} bits>"
        return super().repr_int(x, level)

    def repr_instance(self, x, level):
        # a numpy number prints as its value, as a Python number does
        return str(x) if isinstance(x, np.number) else super().repr_instance(x, level)


_SHOWN = _Shown()
_SHOWN.maxlevel = 3
_SHOWN.maxlist = _SHOWN.maxtuple = _SHOWN.maxdict = _SHOWN.maxset = 4


def shown(value) -> str:
    """`value` as an error message prints it: its repr, cut short to at most 200
    characters; never raises."""
    text = _SHOWN.repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def is_finite(value) -> bool:
    """math.isfinite, counting an int beyond float range as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@functools.cache
def _checks(cls: type) -> tuple[tuple, ...]:
    """(name, int or float, rule text, predicate) for each float/int field of `cls`."""
    checks = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        text = holds = None
        if get_origin(hint) is Annotated:
            hint, text, holds = get_args(hint)
        if hint in _KINDS:
            checks.append((name, hint, text, holds))
    return tuple(checks)


class Config:
    """Base of the slotted config dataclasses; a cross-field check calls
    `Config.__post_init__(self)` first."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for name, hint, text, holds in _checks(type(self)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _KINDS[hint]):
                kind = "an integer" if hint is int else "a number"
                raise FieldError(f"{name} must be {kind}, got {shown(value)}")
            if hint is float and not is_finite(value):
                raise FieldError(f"{name} must be a finite number, got {shown(value)}")
            if holds is not None and not holds(value):
                raise FieldError(f"{name} must be {text}, got {shown(value)}")
