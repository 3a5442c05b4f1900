"""Property test: the engine's invariants over random valid scenarios.

The golden digests pin three presets; this draws bit rate, range, preamble,
noise, an optional echo, tick decimation and seed, and checks what must hold
for every run: determinism, a closed energy ledger, a wake only on the
assigned UUID, and rail-up, sync and decision times in order.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import DecoderConfig, Echo, cap_energy, run_scenario
from helpers import reference_scenario

echoes = st.one_of(
    st.none(),
    st.builds(
        Echo,
        extra_path=st.floats(min_value=0.1, max_value=20.0),
        gain=st.floats(min_value=0.0, max_value=0.9),
    ),
)


@st.composite
def scenarios(draw):
    bit_rate = draw(st.floats(min_value=100.0, max_value=400.0))
    uuid = draw(st.integers(0, 0xFF))
    echo = draw(echoes)
    sc = reference_scenario(
        uuid,
        bit_rate,
        preamble=draw(st.floats(min_value=0.0, max_value=0.12)),
        distance=draw(st.floats(min_value=0.5, max_value=2.0)),
        noise_rms=draw(st.floats(min_value=0.0, max_value=0.2)),
        echoes=[] if echo is None else [echo],
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # one run in four listens for another address
    assigned = uuid ^ draw(st.sampled_from([0, 0, 0, 0x5A]))
    return replace(
        sc,
        decoder=DecoderConfig(assigned_uuid=assigned),
        sim=replace(sc.sim, harvester_decimation=draw(st.integers(8, 64))),
    )


def outcome(r):
    return (
        r.woke, r.decoded_uuid, r.time_to_wake, r.peak_v_cap,
        r.harvested_energy, r.consumed_energy,
        r.rail_up_time, r.first_sync_time, r.decision_time, r.seed,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scenarios())
def test_random_scenarios_keep_the_engine_invariants(sc):
    r = run_scenario(sc)
    again = run_scenario(sc)
    assert outcome(again) == outcome(r)
    assert np.array_equal(again.vcap_values, r.vcap_values)
    assert again.mode_values == r.mode_values
    assert np.array_equal(again.edge_trace.edge_times, r.edge_trace.edge_times)

    final = cap_energy(sc.harvester.c_store, float(r.vcap_values[-1]))
    closure = r.harvested_energy - r.consumed_energy - final
    assert abs(closure) <= 1e-9 * r.harvested_energy

    if r.woke:
        assert r.decoded_uuid == sc.decoder.assigned_uuid
        assert r.time_to_wake == r.decision_time
    else:
        assert r.time_to_wake is None

    if r.decision_time is not None:
        assert r.first_sync_time is not None
        assert r.first_sync_time <= r.decision_time
    if r.first_sync_time is not None:
        assert r.rail_up_time is not None
        assert r.rail_up_time <= r.first_sync_time
