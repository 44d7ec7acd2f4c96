"""Common backend interface for decode strategies.

A backend is anything that can run layer ranges over a LayeredState and
expose next-token distributions at arbitrary exit layers. Two
implementations exist: the toy transformer (real tensors) and the
synthetic layered oracle (closed form, bookkeeping only). Both are
immutable after construction and safe to share across decode sessions;
all per-session mutation lives in the LayeredState.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .state import LayeredState


@dataclass(frozen=True)
class TokenDistribution:
    """Next-token logits produced at an exit layer.

    `position` is the context position whose exit hidden state produced
    the logits, i.e. the distribution predicts the token at position + 1.
    `degenerate` marks one-hot oracle distributions whose top-k semantics
    collapse to top-1.
    """

    logits: np.ndarray
    position: int
    source_layer: int
    degenerate: bool = field(default=False)

    def argmax(self) -> int:
        # np.argmax returns the first maximum: ties break to the lowest id.
        return int(np.argmax(self.logits))

    def top_ids(self, k: int) -> list[int]:
        order = np.argsort(-self.logits, kind="stable")
        return [int(i) for i in order[:k]]


@runtime_checkable
class Backend(Protocol):
    n_layers: int
    vocab_size: int
    max_seq_len: int

    def new_state(self, buffered_layers: Sequence[int] = ()) -> LayeredState:
        ...

    def forward_range(
        self,
        state: LayeredState,
        start_layer: int,
        end_layer: int,
        start_pos: int,
        end_pos: int,
    ):
        ...

    def exit_distribution(self, state: LayeredState, layer: int, position: int) -> TokenDistribution:
        ...

    def reference_state(self, tokens: Sequence[int], fills: Sequence[int], buffered_layers: Sequence[int]) -> LayeredState:
        ...
