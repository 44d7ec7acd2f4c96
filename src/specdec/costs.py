"""Two-metric cost accounting for decode phases, priced from a pass histogram.

sequential_depth_units is the latency proxy: layers traversed per forward
pass, independent of how many positions the pass covers in parallel.
position_layer_units is the compute proxy: layers times positions. The
throughput numbers quoted anywhere in this package are ratios of
committed tokens per sequential unit; prefill is tracked separately and
excluded from those ratios.
"""
from __future__ import annotations

from collections import Counter
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
    """The forward passes of one or more decodes, as a histogram.

    `passes` maps (phase, first layer, last layer, positions) to how many
    passes of that phase ran those layers, inclusive, over that many
    positions at once. Every cost is priced from it on read. `phases` is
    such a priced view: fresh `PhaseCost`s for all of `PHASES`, built on
    each read, which nothing may write to; only `passes` changes a ledger.
    """

    passes: Counter[tuple[str, int, int, int]] = field(default_factory=Counter)

    @property
    def phases(self) -> dict[str, PhaseCost]:
        phases = {name: PhaseCost() for name in PHASES}
        for (phase, first, last, positions), count in self.passes.items():
            cost, layers = phases[phase], last - first + 1
            cost.sequential_depth_units += layers * count
            cost.position_layer_units += layers * positions * count
            cost.pass_count += count
        return phases

    def sequential_units(self) -> int:
        return sum(c.sequential_depth_units for p, c in self.phases.items() if p != "prefill")

    def position_layer_units(self) -> int:
        return sum(c.position_layer_units for p, c in self.phases.items() if p != "prefill")

    def merge(self, other: "CostLedger") -> None:
        self.passes.update(other.passes)


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
