"""The comparator's one-filter drive against the two-RC drive it stands for.

`frontend.comparator` forms its drive, the fast RC less `reference_gain` x
the slow RC, in one pass of one second-order filter (`_drive_coeffs`). That
filter is the two RCs' exact algebraic sum, so the two forms differ only by
rounding, which grows as the poles near 1, that is as the taus lengthen.
The two-RC form, `reference_engine.two_rc_drive`, is the oracle: the
drive, read where the comparator hands it to `_latched_edges`, stays
within a stated bound x max|env| of the oracle's, on step, noise and
on-off-keyed envelope inputs fed in blocks with the state carried. Whole
runs, whose edges the reference run takes from the two-RC drive, are
pinned by `test_reference_engine.py`.
"""

from unittest.mock import patch

import numpy as np
import pytest

from aquawake import DemodParams, SignalUnit, Waveform, comparator, frontend
from aquawake.frontend import _one_pole_lowpass
from reference_engine import two_rc_drive

SR = 224_000.0

# largest |one-filter drive - two-RC drive| / max|env| allowed. Measured on
# these inputs: 1.23e-10 at 5 bps (the step), 6.9e-12 at 20 bps and 4.1e-14
# at 200 bps; 3.5e-10 with slow_tau 1 s and 9.5e-8 with fast_tau 0.5 s and
# slow_tau 1 s (both the on-off envelope)
BIT_RATE_BOUND = 5e-10
BIT_RATES = (5.0, 20.0, 50.0, 100.0, 200.0, 400.0, 1000.0, 2000.0)
# (params, bound, samples fed in whole blocks); the long taus get long inputs,
# as their rounding builds up over a slow time constant
CASES = {
    **{f"{rate:g}bps": (DemodParams.for_bit_rate(rate), BIT_RATE_BOUND, 24_576)
       for rate in BIT_RATES},
    "slow_tau=1s": (DemodParams.for_bit_rate(200.0, slow_tau=1.0), 2e-9, 196_608),
    "fast_tau=0.5s,slow_tau=1s": (
        DemodParams.for_bit_rate(200.0, fast_tau=0.5, slow_tau=1.0), 1e-6, 196_608
    ),
}
# block size -> samples fed in it (None: all of the case's); tiny blocks run
# on a prefix only, so that a case stays about 500 calls
FED = {1: 512, 7: 3_584, 8_192: None}


def envelopes(params: DemodParams, n: int) -> dict[str, np.ndarray]:
    """A step, rectified noise, and an on-off-keyed envelope whose on and off
    stretches are one slow tau long, so the drive swings in full."""
    stretch = max(round(params.slow_tau * SR), 1)
    keyed = np.resize(np.repeat([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], stretch), n)
    return {
        "step": np.full(n, 0.7),
        "noise": np.abs(np.random.default_rng(3).normal(size=n)),
        "ook": _one_pole_lowpass(2.0 * keyed, params.envelope_tau, SR),
    }


def fed_in_blocks(x: np.ndarray, size: int, params: DemodParams) -> tuple[np.ndarray, np.ndarray]:
    """The comparator's drive and the two-RC drive over `x` in blocks of `size`."""
    drives = []
    latched = frontend._latched_edges

    def record(diff, *rest):
        drives.append(diff.copy())
        return latched(diff, *rest)

    state = frontend.ComparatorState()
    fast_zi, slow_zi = np.zeros(1), np.zeros(1)
    want = []
    with patch.object(frontend, "_latched_edges", record):
        for start in range(0, len(x), size):
            block = x[start : start + size]
            comparator(Waveform(SR, block, SignalUnit.VOLTS), params, state)
            want.append(two_rc_drive(block, params, SR, fast_zi, slow_zi))
    return np.concatenate(drives), np.concatenate(want)


@pytest.mark.parametrize("size", list(FED), ids=str)
@pytest.mark.parametrize("case", list(CASES))
def test_the_drive_is_the_two_rc_drive_up_to_rounding(case, size):
    params, bound, n = CASES[case]
    for name, env in envelopes(params, n).items():
        x = env[: FED[size]]
        got, want = fed_in_blocks(x, size, params)
        assert len(got) == len(want) == len(x)
        error = float(np.abs(got - want).max()) / float(np.abs(x).max())
        assert error <= bound, f"{name}: {error:.3g} x max|env| above {bound:g}"
