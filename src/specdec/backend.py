"""Common backend interface for decode strategies.

A backend is anything that can run layer ranges over a LayeredState and
expose next-token distributions at arbitrary exit layers. Two
implementations exist: the toy transformer (real tensors) and the
synthetic layered oracle (closed form, bookkeeping only). Both are
immutable after construction and safe to share across decode sessions;
all per-session mutation lives in the LayeredState.

The toy transformer's distributions carry real logits. The synthetic
oracle's are one-hot (`TokenDistribution.one_hot`): they hold only the
token, and their logits array is made only when read.
"""
from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .state import LayeredState


class TokenDistribution:
    """Next-token logits produced at an exit layer.

    `position` is the context position whose exit hidden state produced
    the logits, i.e. the distribution predicts the token at position + 1.
    `degenerate` marks one-hot oracle distributions. The engine does not
    read it: verification is greedy top-1 only. It and the four-argument
    constructor stay because the benchmark's token-flipping proxy
    (perfbench/test_smoke.py) rebuilds distributions through them; they
    can go once ROADMAP item 7 moves perfbench onto the current API.

    A distribution made by `one_hot` holds only its token: `argmax`
    returns it, and the full-vocab `logits` array is built on first read,
    so a greedy decode that only takes argmaxes never allocates one.
    The fields are read-only.
    """

    __slots__ = ("_logits", "_token", "_vocab_size", "_position", "_source_layer", "_degenerate")

    def __init__(
        self, logits: np.ndarray, position: int, source_layer: int, degenerate: bool = False
    ) -> None:
        self._logits = logits
        self._token = None
        self._vocab_size = len(logits)
        self._position = position
        self._source_layer = source_layer
        self._degenerate = degenerate

    @classmethod
    def one_hot(
        cls, token: int, vocab_size: int, position: int, source_layer: int
    ) -> TokenDistribution:
        """The degenerate distribution with logit 1.0 at `token` and 0.0 elsewhere.

        `token` must lie in [0, vocab_size).
        """
        dist = cls.__new__(cls)
        dist._logits = None
        dist._token = token
        dist._vocab_size = vocab_size
        dist._position = position
        dist._source_layer = source_layer
        dist._degenerate = True
        return dist

    @property
    def logits(self) -> np.ndarray:
        if self._logits is None:
            logits = np.zeros(self._vocab_size)
            logits[self._token] = 1.0
            self._logits = logits
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
        if self._token is not None:
            return self._token
        # The first maximum: ties break to the lowest id.
        return int(self._logits.argmax())


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
