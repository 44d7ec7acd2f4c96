"""Speculative decoding with early-exit drafting and hierarchical verification."""

from .backend import Backend, TokenDistribution
from .costs import CostLedger, relative_throughput
from .engine import (
    GREEDY,
    AcceptancePolicy,
    DecodeResult,
    DecodeSession,
    DecodeTrace,
    HierarchicalConfig,
    default_layer_placement,
    hierarchical_decode,
    replay_ledger,
    selfspec_decode,
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
    "AcceptancePolicy",
    "AlignmentError",
    "Backend",
    "CapacityError",
    "ConfigError",
    "CostLedger",
    "DecodeResult",
    "DecodeSession",
    "DecodeTrace",
    "GREEDY",
    "HierarchicalConfig",
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
    "hierarchical_decode",
    "interpolated_profile",
    "mix64",
    "relative_throughput",
    "replay_ledger",
    "selfspec_decode",
    "speculative_decode",
    "uniform_profile",
    "vanilla_decode",
]
