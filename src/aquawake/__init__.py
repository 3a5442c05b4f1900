"""Simulator for a passive, energy-harvesting underwater acoustic wake-up receiver.

The package follows the receive path end to end: OOK frame synthesis, a
shallow-water multipath channel, the behavioral analog front end, the
harvester intermittency state machine, and an adaptive-rate UUID decoder,
all on one shared sample clock.
"""

from .channel import ChannelModel, Echo, critical_reflection_distance, echo_delay, propagate
from .decoder import (
    DecoderConfig,
    DecoderPhase,
    DecoderState,
    LevelSample,
    RisingEdge,
    decoder_feed,
    wake_output,
)
from .errors import (
    ConfigurationError,
    InvariantError,
    ProtocolError,
    SchemaError,
    SignalRangeError,
    UnitMismatchError,
)
from .frame import ModulationParams, WakeupFrame, frame_energy, modulate_frame
from .frontend import (
    DemodParams,
    RectifierModel,
    TransducerModel,
    bandpass,
    comparator,
    rectify,
    transduce,
)
from .power import HarvesterMode, HarvesterParams, LoadProfile, cap_energy
from .scenario_io import load_scenario, scenario_from_dict
from .sim import (
    Scenario,
    ScenarioResult,
    SimOptions,
    SweepResult,
    calibrate_tx_amplitude,
    run_scenario,
    sweep,
)
from .waveform import DigitalTrace, SignalUnit, Waveform

__version__ = "0.1.0"
