"""End-to-end acceptance gate.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers so a plain pytest run doubles as a conformance report. Tolerances
are stated inline next to each check.
"""

import math
import time
from dataclasses import replace

import numpy as np

from aquawake import (
    HarvesterMode,
    HarvesterParams,
    calibrate_tx_amplitude,
    cap_energy,
    critical_reflection_distance,
    echo_delay,
    run_scenario,
)
from harvester_oracle import run_spans
from helpers import (
    ALIASED_EXTRA_PATH,
    IMMUNE_EXTRA_PATH,
    TARGET_PEAK_V,
    TARGET_STORED_J,
    echo_scenario,
    reference_scenario,
)


def report(criterion: int, ok: bool, name: str, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_1_storage_energy_identity():
    stored = cap_energy(100e-6, TARGET_PEAK_V)
    err = abs(stored - TARGET_STORED_J) / TARGET_STORED_J
    report(
        1, err < 1e-3, "storage energy identity",
        f"cap_energy(100uF, {TARGET_PEAK_V}V) = {stored * 1e6:.2f}uJ, "
        f"target 849uJ, err {err:.2%} (tol 0.1%)",
    )


def test_criterion_2_echo_geometry_identities():
    d_crit = critical_reflection_distance(200.0, 1630.0)
    delay = echo_delay(IMMUNE_EXTRA_PATH, 1630.0)
    err = abs(delay - 3.1e-3) / 3.1e-3
    ok = d_crit == 8.15 and err < 5e-3
    report(
        2, ok, "echo geometry identities",
        f"critical distance {d_crit}m (want 8.15m exactly), "
        f"echo_delay({IMMUNE_EXTRA_PATH}m) = {delay * 1e3:.4f}ms, "
        f"err {err:.2%} (tol 0.5%)",
    )


def test_criterion_3_calibrated_reference_link():
    t0 = time.perf_counter()
    sc = reference_scenario(amplitude=1.0)
    amp = calibrate_tx_amplitude(sc, TARGET_PEAK_V)
    r = run_scenario(replace(sc, modulation=replace(sc.modulation, tx_amplitude=amp)))
    elapsed = time.perf_counter() - t0
    peak_err = abs(r.peak_v_cap - TARGET_PEAK_V) / TARGET_PEAK_V
    stored_err = abs(r.harvested_energy - TARGET_STORED_J) / TARGET_STORED_J
    ok = r.woke and peak_err < 0.02 and stored_err < 0.05 and elapsed < 5.0
    report(
        3, ok, "calibrated reference link",
        f"tx_amplitude {amp:.4f}Pa, peak {r.peak_v_cap:.4f}V "
        f"(err {peak_err:.2%}, tol 2%), harvested "
        f"{r.harvested_energy * 1e6:.1f}uJ (err {stored_err:.2%}, tol 5%), "
        f"woke={r.woke}, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_4_uuid_selectivity():
    t0 = time.perf_counter()
    own_failures = []
    for uuid in range(256):
        r = run_scenario(reference_scenario(uuid=uuid, seed=uuid))
        if not (r.woke and r.decoded_uuid == uuid):
            own_failures.append(uuid)
    rng = np.random.default_rng(42)
    false_wakes = 0
    n_pairs = 1000
    for trial in range(n_pairs):
        tx, assigned = rng.integers(0, 256, size=2)
        while assigned == tx:
            assigned = rng.integers(0, 256)
        sc = reference_scenario(uuid=int(tx), seed=trial)
        sc = replace(sc, decoder=replace(sc.decoder, assigned_uuid=int(assigned)))
        if run_scenario(sc).woke:
            false_wakes += 1
    elapsed = time.perf_counter() - t0
    ok = not own_failures and false_wakes == 0 and elapsed < 120.0
    report(
        4, ok, "uuid selectivity",
        f"{256 - len(own_failures)}/256 own-frame wakes, "
        f"{false_wakes}/{n_pairs} false wakes on mismatched pairs, "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_5_rate_adaptivity():
    trials = 100
    rates = (100.0, 200.0, 400.0)
    per_rate = {}
    rng = np.random.default_rng(5)
    for rate in rates:
        good = 0
        for trial in range(trials):
            uuid = int(rng.integers(0, 256))
            r = run_scenario(reference_scenario(uuid=uuid, bit_rate=rate, seed=trial))
            good += r.woke and r.decoded_uuid == uuid
        per_rate[rate] = good
    ok = all(v == trials for v in per_rate.values())
    report(
        5, ok, "rate adaptivity",
        ", ".join(f"{int(r)}bps {per_rate[r]}/{trials}" for r in rates)
        + " clean decodes with one decoder config",
    )


def test_criterion_6_echo_immunity_and_aliasing_corruption():
    trials = 100
    rng = np.random.default_rng(6)
    changes = 0
    for trial in range(trials):
        uuid = int(rng.integers(0, 256))
        with_echo = run_scenario(echo_scenario(uuid=uuid, seed=trial))
        without = run_scenario(
            replace(
                echo_scenario(uuid=uuid, seed=trial),
                channel=replace(echo_scenario(uuid=uuid).channel, echoes=()),
            )
        )
        if (with_echo.woke, with_echo.decoded_uuid) != (without.woke, without.decoded_uuid):
            changes += 1

    # a delayed copy landing exactly one bit period late turns every 1->0
    # pattern into 1->1, so any frame containing that pattern must corrupt
    uncorrupted = []
    for uuid in range(256):
        if uuid == 0xFF:  # the lone bit stream with no 1->0 transition
            continue
        r = run_scenario(
            echo_scenario(uuid=uuid, extra_path=ALIASED_EXTRA_PATH, seed=uuid)
        )
        if r.decoded_uuid is None or r.decoded_uuid == uuid:
            uncorrupted.append(uuid)
    ok = changes == 0 and not uncorrupted
    report(
        6, ok, "echo immunity and aliasing corruption",
        f"3.1ms echo: {changes}/{trials} decision changes (want 0); "
        f"one-bit-period echo: {255 - len(uncorrupted)}/255 susceptible "
        f"frames corrupted",
    )


def test_criterion_7_cold_start_gate():
    params = HarvesterParams()
    v_on, p_on = params.coldstart_min_voltage, params.coldstart_min_power

    def exits_depleted(v_in: float, power: float) -> bool:
        _, [mode], _, _, _ = run_spans(params, 1e-3, [v_in], [power], 0.0)
        return mode is not HarvesterMode.DEPLETED

    below = [
        (v_on * 0.99, p_on), (v_on, p_on * 0.99), (v_on * 0.99, p_on * 0.99),
        (0.0, p_on * 10), (v_on * 10, 0.0),
    ]
    at_or_above = [
        (v_on, p_on), (v_on * 1.01, p_on), (v_on, p_on * 1.01),
        (v_on * 1.01, p_on * 1.01),
    ]
    stuck = [vp for vp in below if exits_depleted(*vp)]
    missed = [vp for vp in at_or_above if not exits_depleted(*vp)]
    ok = not stuck and not missed
    report(
        7, ok, "cold start gate",
        f"0/{len(below)} exits below ({v_on}V, {p_on * 1e6}uW) and "
        f"{len(at_or_above) - len(missed)}/{len(at_or_above)} at or above, "
        f"probed at 1% resolution",
    )


def test_criterion_8_energy_ledger_and_decimation():
    worst = 0.0
    for sc in (
        reference_scenario(),
        echo_scenario(seed=3),
        reference_scenario(noise_rms=0.1, seed=11),
    ):
        r = run_scenario(sc)
        final = cap_energy(sc.harvester.c_store, float(r.vcap_values[-1]))
        closure = abs(r.harvested_energy - r.consumed_energy - final)
        worst = max(worst, closure / r.harvested_energy)

    sc = reference_scenario()
    coarse = run_scenario(sc).peak_v_cap
    fine = run_scenario(
        replace(sc, sim=replace(sc.sim, harvester_decimation=8))
    ).peak_v_cap
    drift = abs(fine - coarse) / coarse
    ok = worst < 1e-3 and drift < 0.01
    report(
        8, ok, "energy ledger and decimation",
        f"worst ledger closure {worst:.2e} of harvested (tol 0.1%); "
        f"peak_v_cap drift {drift:.2%} at 8x finer harvester step (tol 1%)",
    )


def _wakes(distance: float, preamble: float) -> bool:
    return run_scenario(
        reference_scenario(distance=distance, preamble=preamble)
    ).woke


def _min_preamble(distance: float) -> float:
    hi = 0.05
    while not _wakes(distance, hi):
        hi *= 2
        if hi > 3.2:
            return math.inf
    lo = hi / 2
    while (hi - lo) / hi > 0.05:  # 5% resolution
        mid = (lo + hi) / 2
        if _wakes(distance, mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_9_range_scaling():
    distances = (1.0, 1.3, 1.7, 2.2)
    ladder = [_min_preamble(d) for d in distances]
    monotone = all(a <= b for a, b in zip(ladder, ladder[1:]))
    far_asleep = not _wakes(5.0, 0.05) and not _wakes(5.0, 0.4)

    r = run_scenario(reference_scenario())
    frugal = r.woke and r.consumed_energy < 0.10 * r.harvested_energy
    ok = monotone and far_asleep and frugal
    report(
        9, ok, "range scaling",
        "min preamble "
        + ", ".join(f"{d}m:{p * 1e3:.0f}ms" for d, p in zip(distances, ladder))
        + f" ({'monotone' if monotone else 'NOT monotone'}); "
        f"5x distance stays asleep at 50/400ms preamble: {far_asleep}; "
        f"decode spends {r.consumed_energy / r.harvested_energy:.1%} of "
        f"harvested (tol 10%)",
    )
