"""Shared scenario builders and frozen calibration constants for the tests.

The reference link mirrors the bundled 1 m / 50 ms preset: REFERENCE_AMPLITUDE
and COLDSTART_EFFICIENCY are the fitted pair under which a cold receiver rails
up during the preamble and the storage cap peaks at TARGET_PEAK_V. The echo
link uses a hotter drive plus a large comparator hysteresis so the inter-burst
dip a strong reflection produces cannot register as a spurious sync edge.
"""

from __future__ import annotations

from aquawake import (
    ChannelModel,
    DecoderConfig,
    DecoderState,
    DemodParams,
    Echo,
    HarvesterParams,
    ModulationParams,
    Scenario,
    SimOptions,
    WakeupFrame,
    decoder_feed,
)

REFERENCE_AMPLITUDE = 34.6064  # Pa at 1 m
TARGET_PEAK_V = 4.12
TARGET_STORED_J = 849e-6
COLDSTART_EFFICIENCY = 0.09

ECHO_AMPLITUDE = 50.0
ECHO_NOISE_RMS = 0.2
ECHO_HYSTERESIS = 5.0  # V
IMMUNE_EXTRA_PATH = 5.053  # m, 3.1 ms at 1630 m/s; dies before the next sample
ALIASED_EXTRA_PATH = 8.15  # m, exactly one bit period at 200 bps


def reference_scenario(
    uuid: int = 0xA5,
    bit_rate: float = 200.0,
    *,
    preamble: float = 0.050,
    distance: float = 1.0,
    noise_rms: float = 0.0,
    amplitude: float = REFERENCE_AMPLITUDE,
    hysteresis: float = 5e-3,
    echoes: list[Echo] | None = None,
    seed: int = 0,
) -> Scenario:
    period = 1.0 / bit_rate
    return Scenario(
        frame=WakeupFrame(
            uuid=uuid,
            bit_rate=bit_rate,
            preamble_duration=preamble,
            guard_duration=0.5 * period,
        ),
        decoder=DecoderConfig(assigned_uuid=uuid, sample_offset=0.2),
        modulation=ModulationParams(tx_amplitude=amplitude),
        channel=ChannelModel(
            distance=distance, noise_rms=noise_rms, echoes=list(echoes or [])
        ),
        demod=DemodParams.for_bit_rate(bit_rate, hysteresis=hysteresis),
        harvester=HarvesterParams(coldstart_efficiency=COLDSTART_EFFICIENCY),
        sim=SimOptions(seed=seed),
    )


def echo_scenario(
    uuid: int = 0xA5, extra_path: float | None = IMMUNE_EXTRA_PATH, seed: int = 0
) -> Scenario:
    echoes = [] if extra_path is None else [Echo(extra_path=extra_path, gain=0.8)]
    return reference_scenario(
        uuid,
        noise_rms=ECHO_NOISE_RMS,
        amplitude=ECHO_AMPLITUDE,
        hysteresis=ECHO_HYSTERESIS,
        echoes=echoes,
        seed=seed,
    )


def frame_bits(uuid: int) -> list[int]:
    return [1, 1] + [(uuid >> (7 - k)) & 1 for k in range(8)]


def feed_all(cfg: DecoderConfig, events) -> DecoderState:
    state = DecoderState()
    for event in events:
        state = decoder_feed(state, cfg, event)
    return state
