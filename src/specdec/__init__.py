"""Speculative decoding with early-exit drafting and hierarchical verification."""

from .backend import Backend, TokenDistribution
from .costs import CostLedger, relative_throughput
from .engine import (
    DecodeResult,
    DecodeSession,
    DecodeTrace,
    default_layer_placement,
    replay_ledger,
    speculative_decode,
    vanilla_decode,
)
from .errors import (
    AlignmentError,
    CapacityError,
    ConfigError,
    ProtocolError,
    SpecdecError,
    UndefinedRatioError,
)
from .model import ModelConfig, ToyTransformer
from .state import LayeredState, consistency_check
from .synthetic import (
    PRESET_NAMES,
    SyntheticBackend,
    SyntheticModelSpec,
    calibrate_preset,
    interpolated_profile,
    mix64,
    uniform_profile,
)


__all__ = [
    "AlignmentError",
    "Backend",
    "CapacityError",
    "ConfigError",
    "CostLedger",
    "DecodeResult",
    "DecodeSession",
    "DecodeTrace",
    "LayeredState",
    "ModelConfig",
    "PRESET_NAMES",
    "ProtocolError",
    "SpecdecError",
    "SyntheticBackend",
    "SyntheticModelSpec",
    "TokenDistribution",
    "ToyTransformer",
    "UndefinedRatioError",
    "calibrate_preset",
    "consistency_check",
    "default_layer_placement",
    "interpolated_profile",
    "mix64",
    "relative_throughput",
    "replay_ledger",
    "speculative_decode",
    "uniform_profile",
    "vanilla_decode",
]
