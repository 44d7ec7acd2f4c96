"""Common backend interface for decode strategies.

A backend is anything that can run layer ranges over a LayeredState and
answer, at arbitrary exit layers, with its greedy next token. Two
implementations exist: the toy transformer (real tensors) and the
synthetic layered oracle (closed form, bookkeeping only). Answers are
pure, and a backend is safe to share across sequential decode sessions:
all per-session mutation lives in the LayeredState, and what the
synthetic oracle caches on first use changes no answer. A backend without
tensors, such as the synthetic oracle, may hold `LayeredState.advance`
itself as its `forward_range`: the state's fills are all a pass changes.

The toy transformer answers with a `TokenDistribution` over real
logits. The synthetic oracle answers with the int token, which stands
exactly for its one-hot distribution, so a synthetic exit query builds
no object. numpy appears here only in annotations, so importing this
module does not load it: a synthetic run never needs numpy.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from .state import LayeredState

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class TokenDistribution:
    """Next-token logits produced at an exit layer.

    `position` is the context position whose exit hidden state produced
    the logits, i.e. the distribution predicts the token at position + 1.
    The toy transformer's exits answer with one; the engine reads only its
    `argmax`, as verification is greedy top-1 only. `degenerate` marks a
    one-hot distribution, and the engine does not read it either. It and
    the four-argument constructor stay because the benchmark's
    token-flipping proxy (perfbench/test_smoke.py) rebuilds the toy's
    distributions through them; the class can go once ROADMAP item 7
    moves perfbench onto the current API and the toy answers with tokens.

    The fields are read-only.
    """

    __slots__ = ("_logits", "_position", "_source_layer", "_degenerate")

    def __init__(
        self, logits: np.ndarray, position: int, source_layer: int, degenerate: bool = False
    ) -> None:
        self._logits = logits
        self._position = position
        self._source_layer = source_layer
        self._degenerate = degenerate

    @property
    def logits(self) -> np.ndarray:
        return self._logits

    @property
    def position(self) -> int:
        return self._position

    @property
    def source_layer(self) -> int:
        return self._source_layer

    @property
    def degenerate(self) -> bool:
        return self._degenerate

    def argmax(self) -> int:
        # The first maximum: ties break to the lowest id.
        return int(self._logits.argmax())


class Backend(Protocol):
    """What a decode asks of a backend. One whose states hold tensors also offers
    `reference_state(tokens, fills, buffered_layers)` for `consistency_check`."""

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

    def exit_distribution(
        self, state: LayeredState, layer: int, position: int
    ) -> int | TokenDistribution:
        """The greedy token of `layer` for the position after `position`:
        the token itself, or a `TokenDistribution` whose argmax is that token."""
        ...
