"""Error types shared across the simulator."""


class ConfigurationError(ValueError):
    """A config object or scenario file is internally inconsistent."""


class UnitMismatchError(TypeError):
    """A waveform with the wrong physical unit was passed to a stage."""


class ProtocolError(RuntimeError):
    """Event stream violated ordering or state-machine expectations."""


class SignalRangeError(ConfigurationError):
    """A waveform holds a sample beyond float range (inf or NaN)."""


class SchemaError(ConfigurationError):
    """A scenario document does not match the expected schema."""


class InvariantError(RuntimeError):
    """A run broke an invariant the engine checks, such as the energy ledger."""
