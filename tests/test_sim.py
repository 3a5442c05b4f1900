import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aquawake import (
    ConfigurationError,
    DemodParams,
    Echo,
    LoadProfile,
    SimOptions,
    calibrate_tx_amplitude,
    cap_energy,
    frontend,
    load_scenario,
    modulate_frame,
    run_scenario,
    sim,
    sweep,
)
from aquawake.channel import _taps
from aquawake.cli import preset_path
from aquawake.frame import frame_length
from aquawake.frontend import transduce
from helpers import REFERENCE_AMPLITUDE, echo_scenario, reference_scenario
from reference_engine import assert_same_run

# frozen outputs of the reference run; any drift here is a behavior change
REF_PEAK_V = 4.116177026321453
REF_HARVESTED_J = 8.52113237029403e-4
REF_RAIL_UP_S = 0.04742857142857143
REF_DECISION_S = 0.09929375


def test_reference_run_reproduces_frozen_metrics():
    r = run_scenario(reference_scenario())
    assert r.woke is True
    assert r.decoded_uuid == 0xA5
    assert r.time_to_wake == pytest.approx(REF_DECISION_S, rel=1e-9)
    assert r.peak_v_cap == pytest.approx(REF_PEAK_V, rel=1e-6)
    assert r.harvested_energy == pytest.approx(REF_HARVESTED_J, rel=1e-6)
    assert r.rail_up_time == pytest.approx(REF_RAIL_UP_S, rel=1e-9)
    assert r.rail_up_time < r.first_sync_time < r.time_to_wake
    assert r.consumed_energy < 0.01 * r.harvested_energy


def test_identical_scenarios_give_bit_identical_results():
    sc = echo_scenario(seed=7)
    assert_same_run(run_scenario(sc), run_scenario(sc))


def test_different_seeds_differ_under_noise():
    a = run_scenario(echo_scenario(seed=1))
    b = run_scenario(echo_scenario(seed=2))
    assert not np.array_equal(a.vcap_values, b.vcap_values)


def test_zero_amplitude_never_wakes():
    r = run_scenario(reference_scenario(amplitude=0.0))
    assert r.woke is False
    assert r.peak_v_cap == 0.0
    assert r.harvested_energy == 0.0
    assert r.rail_up_time is None and r.first_sync_time is None


def test_mismatched_uuid_same_energy_no_wake():
    matched = reference_scenario()
    mismatched = replace(
        matched, decoder=replace(matched.decoder, assigned_uuid=0x5A)
    )
    rm, rx = run_scenario(matched), run_scenario(mismatched)
    assert rm.woke is True and rx.woke is False
    assert rx.decoded_uuid == 0xA5  # heard the frame, just not addressed
    assert rx.time_to_wake is None
    assert np.array_equal(rm.vcap_values, rx.vcap_values)


def test_wake_implies_uuid_match_and_decision_time():
    r = run_scenario(reference_scenario(uuid=0x3C))
    assert r.woke is True
    assert r.decoded_uuid == 0x3C
    assert r.time_to_wake == r.decision_time


def test_decoder_is_gated_off_while_the_rail_is_down():
    sc = reference_scenario()
    sc = replace(sc, harvester=replace(sc.harvester, coldstart_min_voltage=1e6))
    r = run_scenario(sc)
    # comparator still sees the frame (preamble + 2 sync + 4 payload rises),
    # but the receiver never powers
    assert len(r.edge_trace.rising_times()) == 7
    assert r.rail_up_time is None
    assert r.first_sync_time is None
    assert r.decoded_uuid is None and r.woke is False
    assert set(r.mode_values) == {"depleted"}


def test_rail_collapse_mid_frame_discards_decoder_progress():
    sc = reference_scenario(preamble=0.048)
    sc = replace(sc, load=LoadProfile(p_decode=0.05))
    r = run_scenario(sc)
    assert r.rail_up_time is not None
    assert r.first_sync_time is not None  # decode began...
    assert r.decision_time is None and r.woke is False  # ...and died with the rail
    modes = r.mode_values
    assert "regulating" in modes
    assert "depleted" in modes[modes.index("regulating") :]


def test_a_run_modulates_per_block_only_the_transmit_its_taps_read(monkeypatch):
    sc = load_scenario(preset_path("paper_echo"))
    calls = []

    def recording(frame, params, start=0, stop=None):
        tx = modulate_frame(frame, params, start, stop)
        calls.append((start, start + len(tx.samples)))
        return tx

    monkeypatch.setattr(sim, "modulate_frame", recording)
    run_scenario(sc)
    sr, ch = sc.modulation.sample_rate, sc.channel
    direct = round(ch.distance / ch.sound_speed * sr)
    echo = round((ch.distance + ch.echoes[0].extra_path) / ch.sound_speed * sr)
    decim = sc.sim.harvester_decimation
    n_tx = len(modulate_frame(sc.frame, sc.modulation).samples) + round(sc.sim.tail_duration * sr)
    # the run's block length: its ticks shared out over round(n / BLOCK_SAMPLES) blocks
    n = n_tx + echo
    block = math.ceil(math.ceil(n / decim) / max(round(n / sim.BLOCK_SAMPLES), 1)) * decim
    assert block <= math.ceil(1.5 * sim.BLOCK_SAMPLES / decim) * decim
    # each block's window: from its start less the latest tap to its stop less
    # the earliest, within the transmit
    windows = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        lo = max(start - echo, 0)
        windows.append((lo, max(min(stop - direct, n_tx), lo)))
    assert len(windows) > 1
    assert calls == windows


def transduced_lengths(monkeypatch, sc):
    """The run of `sc` and the length of each block its transducer stage took."""
    lengths = []

    def recording(pressure, model, zi=None):
        lengths.append(len(pressure.samples))
        return transduce(pressure, model, zi)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "transduce", recording)
        return run_scenario(sc), lengths


def with_samples(sc, n: int):
    """`sc` with the tail that makes its run `n` samples long."""
    sr = sc.modulation.sample_rate
    late = max(d for d, _ in _taps(sc.channel, sr))
    tail = n - frame_length(sc.frame, sc.modulation) - late
    assert tail >= 0
    return replace(sc, sim=replace(sc.sim, tail_duration=tail / sr))


def test_paper_echo_at_decimation_8_runs_in_two_equal_blocks(monkeypatch):
    sc = load_scenario(preset_path("paper_echo"))
    sc = replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    _, lengths = transduced_lengths(monkeypatch, sc)
    # 3114 ticks of 8 samples over round(24912 / 12288) = 2 blocks, with no short
    # third block of 336 samples
    assert lengths == [12456] * 2


def test_a_block_makes_three_filter_passes(monkeypatch):
    # transduce, band-pass and the comparator's drive, which holds the envelope RC
    sc = load_scenario(preset_path("paper_echo"))
    sc = replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    passes = []
    lfilter = frontend._lfilter

    def counting(b, a, x, zi=None):
        passes.append(len(x))
        return lfilter(b, a, x, zi)

    monkeypatch.setattr(frontend, "_lfilter", counting)
    _, lengths = transduced_lengths(monkeypatch, sc)
    assert len(lengths) == 2
    assert passes == [n for n in lengths for _ in range(3)]


@pytest.mark.parametrize(
    "decimation, share", [(1, 0.4), (8, 1.49), (64, 1.51), (7, 2.3), (64, 3.49), (100, 4.7)]
)
def test_a_run_splits_into_equal_blocks_of_at_most_one_and_a_half_block_samples(
    monkeypatch, decimation, share
):
    sc = reference_scenario(bit_rate=1000.0, preamble=0.001)
    sc = replace(sc, sim=replace(sc.sim, harvester_decimation=decimation))
    n = round(share * sim.BLOCK_SAMPLES)
    _, lengths = transduced_lengths(monkeypatch, with_samples(sc, n))
    assert sum(lengths) == n and len(lengths) == max(round(share), 1)
    # blocks of one whole-tick length; the last ends with the run, short of that
    # length by less than a tick per block
    *full, last = lengths
    block = full[0] if full else math.ceil(n / decimation) * decimation
    assert block % decimation == 0 and full == [block] * len(full)
    assert block - len(lengths) * decimation < last <= block
    assert block <= math.ceil(1.5 * sim.BLOCK_SAMPLES / decimation) * decimation


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("side", [-1, 1], ids=["under", "over"])
def test_a_run_either_side_of_a_half_block_gives_the_bytes_of_one_block(
    monkeypatch, blocks, side
):
    # noise and an echo carry the generator and the taps across the block ends
    sc = reference_scenario(
        bit_rate=400.0, preamble=0.012, noise_rms=0.05, echoes=[Echo(5.053, 0.5)], seed=5
    )
    sc = replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    n = round((blocks + 0.5) * sim.BLOCK_SAMPLES) + 5 * side
    sc = with_samples(sc, n)
    got, lengths = transduced_lengths(monkeypatch, sc)
    assert sum(lengths) == n and len(lengths) == blocks + (side > 0)
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", sim.MAX_SAMPLES)
    want, [whole] = transduced_lengths(monkeypatch, sc)
    assert whole == n
    assert_same_run(got, want)


# the per-tick sums' domain, values >= +0.0 (rectified samples and their squares):
# +0.0, subnormals and values whose squares overflow to inf among the rest
TICK_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-160, 1e154, 1e160, 1.7e308]),
    st.floats(min_value=0.0, allow_infinity=False),
)


# both sides of numpy's 8-wide pairwise unroll, the first width past it, and the
# width of the default decimation
@pytest.mark.parametrize("width", [*range(1, 10), 64])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_tick_sums_give_the_bytes_of_numpys_reduce(width, data):
    rows = data.draw(st.integers(1, 12), label="rows")
    windows = data.draw(arrays(np.float64, (rows, width), elements=TICK_VALUES), label="windows")
    assert not np.signbit(windows).any()
    with np.errstate(over="ignore"):
        for _ in range(2):  # the samples, then their squares, as run_scenario sums them
            got = np.empty(rows)
            sim._tick_sums(windows, got)
            assert got.tobytes() == np.add.reduce(windows, axis=1).tobytes()
            windows *= windows


def test_eight_sample_tick_sums_keep_the_pairwise_grouping():
    # each row rounds 1 + 2**-52 to 1 or not by which two 2**-53 meet first, so
    # any other association of ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))
    # gives other bytes: halves first, quads across, mirrored pairs, or the last
    # level's pairs added one by one
    half_ulp = 2.0**-53
    windows = np.zeros((3, 8))
    windows[:, 0] = 1.0
    windows[0, [2, 6]] = half_ulp
    windows[1, [4, 6]] = half_ulp
    windows[2, [3, 4]] = half_ulp
    got = np.empty(3)
    sim._tick_sums(windows, got)
    assert got.tolist() == [1.0, 1.0 + 2 * half_ulp, 1.0]
    assert got.tobytes() == np.add.reduce(windows, axis=1).tobytes()


def test_mode_trace_passes_through_cold_start():
    modes = run_scenario(reference_scenario()).mode_values
    assert modes[0] == "depleted"
    i_cold = modes.index("cold_start")
    i_reg = modes.index("regulating")
    assert 0 < i_cold < i_reg


def test_a_result_stores_its_mode_runs_merged_and_builds_the_per_tick_traces_on_read():
    sc = load_scenario(preset_path("paper_fig5"))
    for decim in (1, 8, 64):
        r = run_scenario(replace(sc, sim=replace(sc.sim, harvester_decimation=decim)))
        stored = vars(r)
        assert "vcap_times" not in stored and "mode_values" not in stored
        assert r.tick_duration == decim / sc.modulation.sample_rate
        assert [mode.value for mode, _ in r.mode_runs] == ["depleted", "cold_start", "regulating"]
        assert sum(ticks for _, ticks in r.mode_runs) == len(r.vcap_values)
        assert len(r.mode_values) == len(r.vcap_times) == len(r.vcap_values)
        assert r.vcap_times[-1] == pytest.approx(len(r.vcap_values) * r.tick_duration, rel=1e-12)


def held_bytes(value) -> int:
    """The bytes of an array, or of a list or tuple and the containers in it."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sys.getsizeof(value) + sum(map(held_bytes, value))
    return 0


def test_a_result_holds_eight_bytes_per_tick():
    # the cap voltage is the one per-tick array a result keeps; the tick ends
    # and per-tick modes are built on read (the edge trace is per edge)
    sc = load_scenario(preset_path("paper_fig5"))
    r = run_scenario(replace(sc, sim=replace(sc.sim, harvester_decimation=1)))
    n_ticks = len(r.vcap_values)
    assert n_ticks == 24_217
    held = sum(held_bytes(value) for name, value in vars(r).items() if name != "edge_trace")
    assert held <= 8 * n_ticks + 1024


def test_energy_ledger_closes_externally():
    for sc in (reference_scenario(), echo_scenario(seed=3)):
        r = run_scenario(sc)
        final = cap_energy(sc.harvester.c_store, float(r.vcap_values[-1]))
        closure = r.harvested_energy - r.consumed_energy - final
        assert abs(closure) <= 1e-9 * r.harvested_energy


def test_decimation_refinement_barely_moves_the_peak():
    sc = reference_scenario()
    coarse = run_scenario(sc).peak_v_cap
    fine = run_scenario(
        replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    ).peak_v_cap
    assert abs(fine - coarse) / coarse < 0.01


@pytest.mark.parametrize(
    "taus, message",
    [
        (lambda sc: {"envelope_tau": 6e-3}, "must sit below the bit period"),
        (lambda sc: {"envelope_tau": sc.frame.bit_period}, "must sit below the bit period"),
        (lambda sc: {"envelope_tau": 1.0 / sc.modulation.carrier_freq, "fast_tau": 1e-5},
         "must sit above the carrier period"),
        (lambda sc: {"envelope_tau": 3e-5, "fast_tau": 1e-5}, "must sit above the carrier period"),
    ],
    ids=["too_slow", "at_the_bit_period", "at_the_carrier_period", "too_fast"],
)
def test_envelope_tau_must_sit_between_carrier_and_bit_period(taus, message):
    sc = reference_scenario()
    with pytest.raises(ConfigurationError, match=message):
        run_scenario(replace(sc, demod=replace(sc.demod, **taus(sc))))


def test_a_run_may_span_exactly_max_samples():
    # binary fractions throughout, so the count is exact: 2**18 samples per s, a
    # 256 bps frame, a path of 2**-10 s, and 32 s less one tick in all
    sc = reference_scenario(bit_rate=256.0, preamble=0.25)
    sr = 2.0**18
    sc = replace(sc, modulation=replace(sc.modulation, sample_rate=sr),
                 channel=replace(sc.channel, distance=sc.channel.sound_speed / 1024))
    tail = (sim.MAX_SAMPLES - sc.sim.harvester_decimation) / sr - sc.frame.duration - 2.0**-10
    at_limit = replace(sc, sim=replace(sc.sim, tail_duration=tail))
    sim._validate(at_limit, at_limit.resolved_demod())
    one_more = replace(sc, sim=replace(sc.sim, tail_duration=tail + 1 / sr))
    with pytest.raises(ConfigurationError, match="above the limit of 8388608"):
        sim._validate(one_more, one_more.resolved_demod())


def test_resolved_demod_defaults_to_the_frame_bit_rate():
    sc = replace(reference_scenario(bit_rate=400.0), demod=None)
    assert sc.resolved_demod() == DemodParams.for_bit_rate(400.0)


def test_sim_options_validation():
    with pytest.raises(ConfigurationError):
        SimOptions(harvester_decimation=0)
    with pytest.raises(ConfigurationError):
        SimOptions(input_resistance=0.0)
    with pytest.raises(ConfigurationError):
        SimOptions(tail_duration=-0.001)


# sweeps


def test_sweep_row_and_aggregate_shapes():
    res = sweep(reference_scenario(), "preamble_duration", [0.01, 0.05], trials=3)
    assert len(res.rows) == 6
    assert len(res.aggregates) == 2
    assert [a["value"] for a in res.aggregates] == [0.01, 0.05]
    assert {r["trial"] for r in res.rows} == {0, 1, 2}
    assert all(r["parameter"] == "preamble_duration" for r in res.rows)


def test_sweep_seeds_are_deterministic_and_distinct():
    a = sweep(reference_scenario(), "noise_rms", [0.0, 0.1], trials=3)
    b = sweep(reference_scenario(), "noise_rms", [0.0, 0.1], trials=3)
    seeds_a = [r["seed"] for r in a.rows]
    assert seeds_a == [r["seed"] for r in b.rows]
    assert len(set(seeds_a)) == len(seeds_a)


def test_preamble_sweep_harvests_monotonically_more():
    res = sweep(reference_scenario(), "preamble_duration",
                [0.01, 0.05, 0.1, 0.4], trials=1)
    harvested = [r["harvested_energy"] for r in res.rows]
    assert all(x < y for x, y in zip(harvested, harvested[1:]))


def test_distance_sweep_success_rate_is_nonincreasing():
    res = sweep(reference_scenario(), "distance", [1.0, 1.5, 2.5], trials=2)
    rates = [a["wake_success_rate"] for a in res.aggregates]
    assert rates[0] == 1.0
    assert all(x >= y for x, y in zip(rates, rates[1:]))


def test_echo_delay_sweep_dips_at_one_bit_period():
    res = sweep(echo_scenario(), "echo_delay", [3.1e-3, 5.0e-3], trials=2)
    near, aliased = (a["wake_success_rate"] for a in res.aggregates)
    assert near == 1.0
    assert aliased == 0.0


def test_echo_delay_sweep_moves_only_the_first_of_two_echoes():
    first, second = Echo(5.053, 0.5), Echo(9.0, 0.4)
    sc = reference_scenario(echoes=[first, second])
    delays = [3.1e-3, 5.0e-3]
    res = sweep(sc, "echo_delay", delays, trials=1)
    for delay, row in zip(delays, res.rows):
        moved = [Echo(delay * sc.channel.sound_speed, first.gain), second]
        direct = replace(sc, channel=replace(sc.channel, echoes=moved),
                         sim=replace(sc.sim, seed=row["seed"]))
        want = run_scenario(direct)
        assert {k: row[k] for k in sim._ROW_FIELDS} == {k: getattr(want, k) for k in sim._ROW_FIELDS}


def test_echo_delay_sweep_requires_a_configured_echo():
    with pytest.raises(ConfigurationError):
        sweep(reference_scenario(), "echo_delay", [3.1e-3], trials=1)


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        sweep(reference_scenario(), "salinity", [1.0], trials=1)
    with pytest.raises(ConfigurationError):
        sweep(reference_scenario(), "distance", [], trials=1)
    with pytest.raises(ConfigurationError):
        sweep(reference_scenario(), "distance", [1.0], trials=0)
    with pytest.raises(ConfigurationError, match="distance values must be finite"):
        sweep(reference_scenario(), "distance", [10**400], trials=1)
    # past 4300 digits an int has no str(); the message gives its size
    with pytest.raises(ConfigurationError, match="^distance values must be finite, got <int of"):
        sweep(reference_scenario(), "distance", [10**5000], trials=1)
    # trials follows a Count field's rule
    for trials in (1.5, True, "2", None):
        with pytest.raises(ConfigurationError, match="^trials must be an integer, got "):
            sweep(reference_scenario(), "distance", [1.0], trials=trials)
    # checked before the rescale divides by it
    with pytest.raises(ConfigurationError, match="^bit_rate must be positive, got 0.0"):
        sweep(reference_scenario(), "bit_rate", [0.0], trials=1)
    # the seconds given are named, not the extra_path metres they become; the
    # last overflows to an infinite extra_path
    for delay in (-0.001, 0.0, 1e306):
        with pytest.raises(ConfigurationError, match=f"^echo_delay .*, got {re.escape(str(delay))}$"):
            sweep(echo_scenario(), "echo_delay", [delay], trials=1)


def test_sweep_rejects_too_many_runs_before_the_first(monkeypatch):
    ran = []
    real = sim.run_scenario
    monkeypatch.setattr(sim, "run_scenario", lambda sc: ran.append(sc) or real(sc))
    # a small limit, so a sweep at it can run here
    monkeypatch.setattr(sim, "MAX_SWEEP_RUNS", 4)
    rejected = "^trials 3 over 2 values make 6 runs, above the limit of 4$"
    with pytest.raises(ConfigurationError, match=rejected):
        sweep(reference_scenario(), "distance", [1.0, 2.0], trials=3)
    assert ran == []
    assert len(sweep(reference_scenario(), "distance", [1.0, 2.0], trials=2).rows) == 4
    assert len(ran) == 4


def test_sweep_trials_may_be_a_numpy_int():
    with pytest.raises(ConfigurationError, match="^trials must be >= 1, got 0$"):
        sweep(reference_scenario(), "distance", [1.0], trials=np.int64(0))
    res = sweep(reference_scenario(), "distance", [1.0], trials=np.int64(2))
    assert [r["trial"] for r in res.rows] == [0, 1]
    assert type(res.aggregates[0]["trials"]) is int


def test_sweep_values_may_be_any_sequence():
    listed = sweep(reference_scenario(), "distance", [1.0, 1.5], trials=1)
    for values in (np.array([1.0, 1.5]), (1, 1.5)):
        res = sweep(reference_scenario(), "distance", values, trials=1)
        assert res == listed
        assert all(type(r["value"]) is float for r in res.rows + res.aggregates)
    with pytest.raises(ConfigurationError, match="^values must be non-empty$"):
        sweep(reference_scenario(), "distance", np.array([]), trials=1)


def test_sweep_rows_keep_their_keys():
    res = sweep(reference_scenario(), "distance", [1.0], trials=1)
    assert list(res.rows[0]) == [
        "parameter", "value", "trial", "seed", "woke", "decoded_uuid", "time_to_wake",
        "peak_v_cap", "harvested_energy", "consumed_energy",
    ]
    assert list(res.aggregates[0]) == [
        "parameter", "value", "trials", "wake_success_rate", "mean_peak_v_cap",
        "mean_time_to_wake",
    ]


def test_bit_rate_sweep_rederives_demod_per_value():
    # demod left unset: each swept rate gets time constants scaled to its
    # own bit period, and the shorter frame wakes sooner
    base = replace(reference_scenario(), demod=None)
    res = sweep(base, "bit_rate", [200.0, 400.0], trials=1)
    slow, fast = res.rows
    assert slow["woke"] and fast["woke"]
    assert fast["time_to_wake"] < slow["time_to_wake"]


def test_bit_rate_sweep_keeps_the_timing_on_the_bit_period(monkeypatch):
    # paper_echo states a demod section, whose taus are scaled; paper_fig5
    # has none and resolves it per run. Both scale the guard.
    ran = []
    real = sim.run_scenario
    monkeypatch.setattr(sim, "run_scenario", lambda sc: ran.append(sc) or real(sc))
    for name in ("paper_echo", "paper_fig5"):
        sweep(load_scenario(preset_path(name)), "bit_rate", [400.0], trials=1)
    echo, fig5 = ran
    want = DemodParams.for_bit_rate(400.0, hysteresis=5.0)
    taus = ("envelope_tau", "fast_tau", "slow_tau")
    for key in taus:
        assert getattr(echo.demod, key) == pytest.approx(getattr(want, key), rel=1e-12)
    assert replace(echo.demod, **{key: getattr(want, key) for key in taus}) == want
    assert fig5.demod is None
    for sc in ran:
        assert sc.frame.bit_rate == 400.0
        assert sc.frame.guard_duration == pytest.approx(0.5 / 400.0, rel=1e-12)


def test_a_tiny_cap_runs_while_its_voltage_stays_finite():
    # c_store has no floor short of float range: 1e-300 F peaks near 1e148 V
    sc = reference_scenario()
    r = run_scenario(replace(sc, harvester=replace(sc.harvester, c_store=1e-300)))
    assert 1e100 < r.peak_v_cap < float("inf")
    assert np.isfinite(r.harvested_energy) and np.isfinite(r.consumed_energy)


def test_calibration_recovers_the_reference_amplitude():
    sc = reference_scenario(amplitude=1.0)
    amp = calibrate_tx_amplitude(sc, 4.12)
    assert amp == pytest.approx(REFERENCE_AMPLITUDE, rel=0.01)
    r = run_scenario(replace(sc, modulation=replace(sc.modulation, tx_amplitude=amp)))
    assert r.peak_v_cap == pytest.approx(4.12, rel=1e-3)


def test_calibration_reports_bracket_failure():
    sc = reference_scenario(distance=100.0)
    with pytest.raises(ConfigurationError, match="bracket"):
        calibrate_tx_amplitude(sc, 4.12, max_iter=3)


def test_calibration_reports_no_convergence():
    sc = reference_scenario(amplitude=1.0)
    with pytest.raises(ConfigurationError, match="did not converge"):
        calibrate_tx_amplitude(sc, 4.12, rel_tol=1e-15, max_iter=5)


def no_run(sc):
    raise AssertionError("a run was made")


@pytest.mark.parametrize(
    "target, max_iter, message",
    [
        (math.nan, 60, "^target_peak_v must be positive and finite, got nan$"),
        (math.inf, 60, "^target_peak_v must be positive and finite, got inf$"),
        (-1.0, 60, "^target_peak_v must be positive and finite, got -1.0$"),
        (0.0, 60, "^target_peak_v must be positive and finite, got 0.0$"),
        (4.12, 0, "^max_iter must be >= 1, got 0$"),
        (4.12, 2.5, "^max_iter must be an integer, got 2.5$"),
        (4.12, True, "^max_iter must be an integer, got True$"),
    ],
)
def test_calibration_names_a_bad_argument_before_the_first_run(
    target, max_iter, message, monkeypatch
):
    monkeypatch.setattr(sim, "run_scenario", no_run)
    with pytest.raises(ConfigurationError, match=message):
        calibrate_tx_amplitude(reference_scenario(amplitude=1.0), target, max_iter=max_iter)


@pytest.mark.parametrize(
    "rel_tol, message",
    [
        (math.nan, "^rel_tol must be a finite number, got nan$"),
        (-1.0, "^rel_tol must be positive, got -1.0$"),
        (0.0, "^rel_tol must be positive, got 0.0$"),
    ],
)
def test_calibration_names_a_bad_rel_tol_before_the_first_run(rel_tol, message, monkeypatch):
    monkeypatch.setattr(sim, "run_scenario", no_run)
    with pytest.raises(ConfigurationError, match=message):
        calibrate_tx_amplitude(reference_scenario(amplitude=1.0), 4.12, rel_tol=rel_tol)

