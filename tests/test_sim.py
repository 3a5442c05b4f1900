import math
from dataclasses import replace

import numpy as np
import pytest

from aquawake import (
    ConfigurationError,
    DemodParams,
    Echo,
    HarvesterParams,
    LoadProfile,
    Scenario,
    SimOptions,
    calibrate_tx_amplitude,
    cap_energy,
    load_scenario,
    run_scenario,
    sim,
    sweep,
)
from aquawake.cli import preset_path
from helpers import (
    REFERENCE_AMPLITUDE,
    echo_scenario,
    reference_scenario,
    with_seed,
)

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
    a, b = run_scenario(sc), run_scenario(sc)
    assert np.array_equal(a.vcap_values, b.vcap_values)
    assert np.array_equal(a.edge_trace.edge_times, b.edge_trace.edge_times)
    assert a.mode_values == b.mode_values
    assert (a.woke, a.decoded_uuid, a.time_to_wake) == (b.woke, b.decoded_uuid, b.time_to_wake)


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


def test_mode_trace_passes_through_cold_start():
    modes = run_scenario(reference_scenario()).mode_values
    assert modes[0] == "depleted"
    i_cold = modes.index("cold_start")
    i_reg = modes.index("regulating")
    assert 0 < i_cold < i_reg


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


def test_envelope_tau_must_sit_between_carrier_and_bit_period():
    sc = reference_scenario()
    too_slow = replace(sc, demod=replace(sc.demod, envelope_tau=6e-3))
    with pytest.raises(ConfigurationError):
        run_scenario(too_slow)
    too_fast = replace(sc, demod=replace(sc.demod, envelope_tau=3e-5, fast_tau=1e-5))
    with pytest.raises(ConfigurationError):
        run_scenario(too_fast)


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
    # the seconds given are named, not the extra_path metres they become
    for delay in (-0.001, 0.0):
        with pytest.raises(ConfigurationError, match=f"^echo_delay .*, got {delay}$"):
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


@pytest.mark.parametrize(
    "target, max_iter, message",
    [
        (math.nan, 60, "^target_peak_v must be positive and finite, got nan$"),
        (math.inf, 60, "^target_peak_v must be positive and finite, got inf$"),
        (-1.0, 60, "^target_peak_v must be positive and finite, got -1.0$"),
        (0.0, 60, "^target_peak_v must be positive and finite, got 0.0$"),
        (4.12, 0, "^max_iter must be >= 1, got 0$"),
    ],
)
def test_calibration_names_a_bad_argument_before_the_first_run(
    target, max_iter, message, monkeypatch
):
    def no_run(sc):
        raise AssertionError("a run was made")

    monkeypatch.setattr(sim, "run_scenario", no_run)
    with pytest.raises(ConfigurationError, match=message):
        calibrate_tx_amplitude(reference_scenario(amplitude=1.0), target, max_iter=max_iter)
