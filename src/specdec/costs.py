"""Two-metric cost accounting for decode phases.

sequential_depth_units is the latency proxy: layers traversed per forward
pass, independent of how many positions the pass covers in parallel.
position_layer_units is the compute proxy: layers times positions. The
throughput numbers quoted anywhere in this package are ratios of
committed tokens per sequential unit; prefill is tracked separately and
excluded from those ratios.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UndefinedRatioError

PHASES = ("prefill", "draft", "intermediate_verify", "target_verify")


@dataclass
class PhaseCost:
    sequential_depth_units: int = 0
    position_layer_units: int = 0
    pass_count: int = 0


@dataclass
class CostLedger:
    phases: dict[str, PhaseCost] = field(
        default_factory=lambda: {name: PhaseCost() for name in PHASES}
    )

    def record_pass(self, phase: str, layers: int, positions: int) -> None:
        if layers <= 0 or positions <= 0:
            raise ValueError("layers and positions must be positive")
        if phase not in self.phases:
            raise ValueError(f"unknown phase {phase!r}")
        cost = self.phases[phase]
        cost.sequential_depth_units += layers
        cost.position_layer_units += layers * positions
        cost.pass_count += 1

    def sequential_units(self) -> int:
        return sum(
            cost.sequential_depth_units for name, cost in self.phases.items() if name != "prefill"
        )

    def position_layer_units(self) -> int:
        return sum(
            cost.position_layer_units for name, cost in self.phases.items() if name != "prefill"
        )

    def merge(self, other: "CostLedger") -> None:
        for name, cost in other.phases.items():
            mine = self.phases[name]
            mine.sequential_depth_units += cost.sequential_depth_units
            mine.position_layer_units += cost.position_layer_units
            mine.pass_count += cost.pass_count


def verification_wall_ratio(draft_layers: int, target_layers: int) -> float:
    """Sequential cost of one verify pass over the per-token draft cost.

    Under the latency proxy a verify pass costs its layer count no matter
    how many positions it covers. Structural proxy only, not a wall-clock
    prediction.
    """
    if draft_layers <= 0 or target_layers <= 0:
        raise ValueError("inputs must be positive")
    return target_layers / draft_layers


def relative_throughput(
    subject_tokens: int,
    subject_ledger: CostLedger,
    baseline_tokens: int,
    baseline_ledger: CostLedger,
) -> float:
    """(subject tokens per sequential unit) / (baseline tokens per unit)."""
    if baseline_tokens <= 0:
        raise UndefinedRatioError("baseline committed no tokens")
    subject_units = subject_ledger.sequential_units()
    baseline_units = baseline_ledger.sequential_units()
    if subject_units == 0 or baseline_units == 0:
        raise UndefinedRatioError("zero-cost ledger has no defined throughput")
    return (subject_tokens / subject_units) / (baseline_tokens / baseline_units)


# Draft/target depth pairs mirroring common public decoder checkpoints in
# the 1B-405B range (OPT 1.3b/2.7b/6.7b against 66b; Llama 1B/3B/8B against
# 70B and 405B). Used by the `wall` report.
WALL_DEPTH_PAIRS: tuple[tuple[str, int, str, int], ...] = (
    ("opt-1.3b", 24, "opt-66b", 64),
    ("opt-2.7b", 32, "opt-66b", 64),
    ("opt-6.7b", 32, "opt-66b", 64),
    ("llama-1b", 16, "llama-70b", 80),
    ("llama-3b", 28, "llama-70b", 80),
    ("llama-8b", 32, "llama-70b", 80),
    ("llama-1b", 16, "llama-405b", 126),
    ("llama-3b", 28, "llama-405b", 126),
    ("llama-8b", 32, "llama-405b", 126),
)
