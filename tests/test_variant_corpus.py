"""A wide corpus of preset variants, pinned by digest.

The golden digests pin three presets and one noisy sweep. This file pins
about 200 deterministic variants of those presets, grouped in families:
harvester decimations, drive levels, storage caps, listening loads, bit
rates and echo delays (both through the sweep's `_with_parameter`),
mismatched addresses, links too long to rail up, and listening loads that
drop the rail after rail-up. Each family has one SHA-256 over every
`ScenarioResult` field of its runs in order: float reprs, the bytes of the
vcap and edge arrays, and the mode names.

A change that keeps output bytes must leave every digest here as it is. A
change that alters numbers on purpose updates a digest by hand and states
why in its own change; there is deliberately no regenerate switch. A field
added to `ScenarioResult` later is not covered until it joins `FIELDS`.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aquawake import load_scenario, run_scenario
from aquawake.cli import preset_path
from aquawake.sim import _with_parameter

PRESETS = {
    name: load_scenario(preset_path(name))
    for name in ("paper_fig5", "paper_echo", "paper_critical_distance")
}
ECHO_PRESETS = ("paper_echo", "paper_critical_distance")

FIELDS = (
    "woke", "decoded_uuid", "time_to_wake", "peak_v_cap", "harvested_energy",
    "consumed_energy", "vcap_times", "vcap_values", "mode_values", "edge_trace",
    "rail_up_time", "first_sync_time", "decision_time", "seed",
)


def with_sim(sc, **changes):
    return replace(sc, sim=replace(sc.sim, **changes))


def with_load(sc, **changes):
    return replace(sc, load=replace(sc.load, **changes))


def drive(sc, factor):
    amplitude = sc.modulation.tx_amplitude * factor
    return replace(sc, modulation=replace(sc.modulation, tx_amplitude=amplitude))


def decimation(sc, decim):
    return with_sim(sc, harvester_decimation=decim)


FAMILIES = {
    "decimation": [
        decimation(sc, decim) for sc in PRESETS.values() for decim in (1, 3, 8, 64)
    ],
    "drive": [
        decimation(drive(sc, factor), decim)
        for sc in PRESETS.values()
        for factor in (0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0)
        for decim in (8, 64)
    ],
    "c_store": [
        replace(sc, harvester=replace(sc.harvester, c_store=c_store))
        for sc in PRESETS.values()
        for c_store in (20e-6, 33e-6, 47e-6, 68e-6, 100e-6, 150e-6, 220e-6, 330e-6, 400e-6)
    ],
    "listen_load": [
        decimation(with_load(sc, p_listen=p_listen), decim)
        for sc in PRESETS.values()
        for p_listen in (0.0, 10.7e-6, 100e-6, 1e-3, 5e-3, 20e-3)
        for decim in (8, 64)
    ],
    "bit_rate": [
        _with_parameter(sc, "bit_rate", bit_rate)
        for sc in PRESETS.values()
        for bit_rate in (50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0)
    ],
    # 5 ms is one bit period at the presets' 200 bps
    "echo_delay": [
        _with_parameter(PRESETS[name], "echo_delay", delay)
        for name in ECHO_PRESETS
        for delay in (0.5e-3, 1e-3, 2e-3, 3.1e-3, 5e-3, 7.5e-3, 10e-3)
    ],
    "address": [
        with_sim(replace(sc, decoder=replace(sc.decoder, assigned_uuid=uuid)), seed=seed)
        for sc in PRESETS.values()
        for seed, uuid in enumerate((0x00, 0x5A, 0xA4, 0xFF))
    ],
    "long_link": [
        replace(sc, channel=replace(sc.channel, distance=distance))
        for sc in PRESETS.values()
        for distance in (1.5, 2.0, 3.0, 5.0, 10.0)
    ],
    # 20 mW of listening over a long tail; the echo presets at half drive, which
    # peaks near the echo-free preset's 4 V
    "rail_drop": [
        with_sim(
            with_load(drive(PRESETS[name], factor), p_listen=20e-3),
            tail_duration=tail,
            harvester_decimation=decim,
        )
        for name, factor in zip(PRESETS, (1.0, 0.5, 0.5))
        for tail in (0.05, 0.1)
        for decim in (1, 8, 64)
    ],
}

DIGESTS = {
    "decimation": "1bd7c06f0f5995912ce90aef3a2e5f87473c4151fcaf5b889da4ee72e542fb8d",
    "drive": "bc7bfe1603aa8cefeb53ff0c05864159063098b30ffb0c13dd4009d4bbd415c1",
    "c_store": "d07b17a99f619bd9fca3ed386544e12d26a30769c2ae86af884d61c447361369",
    "listen_load": "88fee2865b553c383e1a097c73fa92192e9207f990f2e996ae2aeb04967f46b0",
    "bit_rate": "6d15004ca9ee7f13c4c8009d77404ebc297402a6250c7d26c39009124dd8dba2",
    "echo_delay": "72d05d10dd256ca27d019b53ffd437ffee8052ce2e068fd59fbafda3c842abf3",
    "address": "ca94765a732169575ea3840ed7fa09aff83076f9e638bb80dfa320430a1b8b9f",
    "long_link": "b847719574353ce05b9285fde3dc309cff14950b3414e4c7acece828a470dbab",
    "rail_drop": "e8743ffacc8697e3e84814959bc4ed9b1ed6fd14ae04e7ec384a5285efa21100",
}


def feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(value.tobytes())
    elif hasattr(value, "edge_times"):  # a DigitalTrace
        feed(h, value.edge_times)
        feed(h, value.edge_levels)
    elif isinstance(value, list):
        h.update(",".join(value).encode())
    else:
        h.update(repr(value).encode())
    h.update(b";")


def test_the_corpus_has_about_200_variants():
    assert set(FAMILIES) == set(DIGESTS)
    assert 190 <= sum(map(len, FAMILIES.values())) <= 230


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_outputs_match_their_digest(family):
    h = hashlib.sha256()
    results = []
    for sc in FAMILIES[family]:
        r = run_scenario(sc)
        results.append(r)
        for name in FIELDS:
            h.update(name.encode())
            feed(h, getattr(r, name))
    # each family reaches what it is there for
    if family == "long_link":
        assert any(r.rail_up_time is None for r in results)
    if family == "rail_drop":
        assert all(
            "depleted" in r.mode_values[r.mode_values.index("regulating"):] for r in results
        )
    if family == "address":
        assert not any(r.woke for r in results)
    assert h.hexdigest() == DIGESTS[family]
