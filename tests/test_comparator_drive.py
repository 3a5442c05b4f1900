"""The comparator's one-filter drive against the three RCs it stands for.

`frontend.comparator` takes the rectified band-pass output and forms its
drive, the RC envelope through the fast RC less `reference_gain` x the
slow RC, in one pass of one third-order filter (`_drive_coeffs`). That
filter is the three RCs' exact product and sum, so the two forms differ
only by rounding, which grows as the poles near 1, that is as the taus
lengthen. The oracle is the envelope RC (`reference_engine.one_pole_lowpass`
at `envelope_tau`) and then `reference_engine.two_rc_drive`: the drive, read
where the comparator hands it to `_latched_edges`, stays within a stated
bound x max|x| of the oracle's, on step, rectified-noise and on-off-keyed
inputs fed in blocks with the state carried. Whole runs, whose edges the
reference run takes from the same envelope RC and two-RC drive, are pinned
by `test_reference_engine.py`.
"""

from unittest.mock import patch

import numpy as np
import pytest

from aquawake import DemodParams, ModulationParams, SignalUnit, Waveform, comparator, frontend
from reference_engine import one_pole_lowpass, two_rc_drive

SR = 224_000.0

# largest |one-filter drive - three-RC drive| / max|x| allowed, per bit rate.
# Measured on these inputs: 2.67e-7 at 5 bps (the step), 1.06e-8 at 20 bps,
# 5.3e-10 at 50 bps and 4.4e-11 at 100 bps (the on-off input), and 1.9e-12
# or less from 400 bps
BIT_RATE_BOUNDS = {
    5.0: 1e-6, 20.0: 5e-8, 50.0: 2e-9,
    **dict.fromkeys((100.0, 200.0, 400.0, 1000.0, 2000.0), 5e-10),
}
CARRIER_PERIOD = 1.0 / ModulationParams().carrier_freq
# (params, bound, samples fed in whole blocks); the long taus get long inputs,
# as their rounding builds up over a slow time constant. Measured: 1.41e-8
# with slow_tau 1 s (the step), 1.39e-5 with fast_tau 0.5 s and slow_tau 1 s
# (the on-off input); at 200 bps, 2.3e-11 with envelope_tau 0.9 bit period and
# 3.7e-12 at 2 carrier periods (the step), near the loader's two bounds on it
CASES = {
    **{f"{rate:g}bps": (DemodParams.for_bit_rate(rate), bound, 24_576)
       for rate, bound in BIT_RATE_BOUNDS.items()},
    "slow_tau=1s": (DemodParams.for_bit_rate(200.0, slow_tau=1.0), 5e-8, 196_608),
    "fast_tau=0.5s,slow_tau=1s": (
        DemodParams.for_bit_rate(200.0, fast_tau=0.5, slow_tau=1.0), 5e-5, 196_608
    ),
    "envelope_tau=0.9bit": (
        DemodParams.for_bit_rate(200.0, envelope_tau=0.9 / 200.0), 5e-10, 24_576
    ),
    "envelope_tau=2carrier": (
        DemodParams.for_bit_rate(200.0, envelope_tau=2.0 * CARRIER_PERIOD), 5e-10, 24_576
    ),
}
# block size -> samples fed in it (None: all of the case's); tiny blocks run
# on a prefix only, so that a case stays about 500 calls
FED = {1: 512, 7: 3_584, 8_192: None}


def inputs(params: DemodParams, n: int) -> dict[str, np.ndarray]:
    """A step, rectified noise, and an on-off-keyed input whose on and off
    stretches are one slow tau long, so the drive swings in full."""
    stretch = max(round(params.slow_tau * SR), 1)
    keyed = np.resize(np.repeat([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0], stretch), n)
    return {
        "step": np.full(n, 0.7),
        "noise": np.abs(np.random.default_rng(3).normal(size=n)),
        "ook": 2.0 * keyed,
    }


def fed_in_blocks(x: np.ndarray, size: int, params: DemodParams) -> tuple[np.ndarray, np.ndarray]:
    """The comparator's drive and the three-RC drive over `x` in blocks of `size`."""
    drives = []
    latched = frontend._latched_edges

    def record(diff, *rest):
        drives.append(diff.copy())
        return latched(diff, *rest)

    state = frontend.ComparatorState()
    envelope_zi, fast_zi, slow_zi = np.zeros(1), np.zeros(1), np.zeros(1)
    want = []
    with patch.object(frontend, "_latched_edges", record):
        for start in range(0, len(x), size):
            block = x[start : start + size]
            comparator(Waveform(SR, block, SignalUnit.VOLTS), params, state)
            env = one_pole_lowpass(block, params.envelope_tau, SR, envelope_zi)
            want.append(two_rc_drive(env, params, SR, fast_zi, slow_zi))
    return np.concatenate(drives), np.concatenate(want)


@pytest.mark.parametrize("size", list(FED), ids=str)
@pytest.mark.parametrize("case", list(CASES))
def test_the_drive_is_the_two_rc_drive_up_to_rounding(case, size):
    params, bound, n = CASES[case]
    for name, full in inputs(params, n).items():
        x = full[: FED[size]]
        got, want = fed_in_blocks(x, size, params)
        assert len(got) == len(want) == len(x)
        error = float(np.abs(got - want).max()) / float(np.abs(x).max())
        assert error <= bound, f"{name}: {error:.3g} x max|x| above {bound:g}"
