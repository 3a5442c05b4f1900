"""Reference harvester: run_scenario's tick loop against harvester_step.

The loop keeps the harvester's mode, cap voltage and energy sums as plain
locals and advances them in spans through the runner `harvester_ticker`
returns. Here every span call's inputs are recorded through a wrapper around
that runner, expanded to one entry per tick, replayed through a plain
per-tick loop over the public `harvester_step`, and the traces and sums must
agree bit for bit, over scenarios near the echo-free and echo presets,
listening loads heavy enough to drop the rail after rail-up, and harvester
decimations from 1 to 64.
"""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aquawake import (
    HarvesterMode,
    HarvesterParams,
    HarvesterState,
    harvester_step,
    load_scenario,
    run_scenario,
    sim,
)
from aquawake.cli import preset_path
from aquawake.power import harvester_ticker

PRESETS = {name: load_scenario(preset_path(name)) for name in ("paper_fig5", "paper_echo")}


@st.composite
def scenarios(draw):
    sc = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    # drive from too weak to rail up to twice the preset's level
    drive = sc.modulation.tx_amplitude * draw(st.floats(min_value=0.2, max_value=2.0))
    return replace(
        sc,
        modulation=replace(sc.modulation, tx_amplitude=drive),
        harvester=replace(sc.harvester, c_store=draw(st.floats(min_value=20e-6, max_value=400e-6))),
        load=replace(
            sc.load,
            # up to 50 mW of listening, over a tail of up to 50 ms, drains the
            # cap below UVLO after rail-up
            p_listen=draw(st.sampled_from([50e-3, 10e-3, 1e-3, sc.load.p_listen])),
            p_decode=draw(st.floats(min_value=0.0, max_value=500e-6)),
        ),
        sim=replace(
            sc.sim,
            harvester_decimation=draw(st.integers(1, 64)),
            tail_duration=draw(st.sampled_from([0.05, sc.sim.tail_duration])),
        ),
    )


def run_recording_ticks(sc):
    """The run, its runner's (params, dt), and each tick's non-state inputs."""
    built = []
    inputs = []  # (input_voltage, input_power, load_power) per tick
    real = sim.harvester_ticker

    def recording_ticker(params, dt):
        run = real(params, dt)
        built.append((params, dt))

        def recording_run(mode, v_cap, harvested, consumed, v_in, p_in, k, stop, load_power,
                          vcap, modes):
            assert k == len(inputs) < stop  # spans tile the ticks, none empty
            out = run(mode, v_cap, harvested, consumed, v_in, p_in, k, stop, load_power,
                      vcap, modes)
            inputs.extend((v_in[j], p_in[j], load_power) for j in range(k, out[-1]))
            return out

        return recording_run

    with patch.object(sim, "harvester_ticker", recording_ticker):
        result = run_scenario(sc)
    [(params, dt)] = built
    return result, params, dt, inputs


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenarios())
def test_the_tick_loop_matches_a_per_tick_harvester_step_loop(sc):
    result, params, dt, inputs = run_recording_ticks(sc)
    assert params == sc.harvester
    assert dt == sc.sim.harvester_decimation / sc.modulation.sample_rate

    state = HarvesterState()
    vcap, modes = [], []
    for input_voltage, input_power, load_power in inputs:
        state = harvester_step(state, params, input_voltage, input_power, load_power, dt)
        vcap.append(state.v_cap)
        modes.append(state.mode.value)

    assert np.array(vcap).tobytes() == result.vcap_values.tobytes()
    assert modes == result.mode_values
    assert state.harvested_energy.hex() == result.harvested_energy.hex()
    assert state.consumed_energy.hex() == result.consumed_energy.hex()


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_the_ticker_rejects_a_dt_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="^dt must be positive, got "):
        harvester_ticker(HarvesterParams(), dt)


@pytest.mark.parametrize(
    "input_power, load_power",
    [(-1e-6, 0.0), (0.0, -1e-6), (math.nan, 0.0), (0.0, math.nan)],
)
def test_a_tick_rejects_a_negative_or_nan_power(input_power, load_power):
    run = harvester_ticker(HarvesterParams(), 1e-3)
    vcap, modes = [], []
    with pytest.raises(ValueError, match="^input_power and load_power must be >= 0$"):
        run(HarvesterMode.DEPLETED, 0.0, 0.0, 0.0, [0.7], [input_power], 0, 1, load_power,
            vcap, modes)
    assert vcap == modes == []
