"""Layered KV cache and exit hidden-state buffers with expand/prune semantics.

The draft, the intermediate verifier and the full model share one
`LayeredState`. It records, per layer, how many positions have been
computed (the layer's fill). Two methods change that record, and both
check the fill protocol before they change anything:

- `advance(start_layer, end_layer, start_pos, end_pos)` records one
  forward pass over a layer range and a position span. The span must be
  non-empty, end within `max_seq_len` and the recorded tokens, continue
  every layer of the range exactly where it stopped, and lie within the
  fill of the layer below. Lower layers may therefore run ahead of higher
  ones, never the reverse: fills never increase with depth. The backend
  then writes the span's K/V rows (and hidden rows at buffered exits).
- `prune_all(keep_len)` drops every entry at positions >= keep_len, with
  the tokens there, and never a committed position.

The fills are a plain list of Python ints. Because they never increase
with depth, `advance` checks a range's contiguity on its first and last
fill alone, and `prune_all` finds the layers filled past `keep_len`, a
prefix of the fills, by bisection.

Every tensor row past a layer's fill is zero. That invariant lets
`prune_all` clear one block of positions across all layers at once, and
makes a pruned-then-recomputed state bit-identical to one that never
speculated. Each live entry is computed exactly once: `advance` rejects
any pass that does not start at every layer's fill, and the tests assert
it by counting backend passes (`conftest.CountingBackend`).
"""
from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import AlignmentError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from .backend import Backend


@dataclass(frozen=True)
class LayerReport:
    layer: int
    max_abs_discrepancy: float
    worst_position: int | None


def check_layer_range(n_layers: int, start_layer: int, end_layer: int) -> None:
    if not (1 <= start_layer <= end_layer <= n_layers):
        raise AlignmentError(
            f"invalid layer range [{start_layer}, {end_layer}] for {n_layers} layers"
        )


def fill_runs(fills: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(start_layer, end_layer, fill) for each run of layers with one non-zero fill.

    An empty state reaches `fills` with one `advance` from position 0 per run.
    """
    start_layer = 1
    for fill, run in itertools.groupby(fills):
        end_layer = start_layer + len(list(run)) - 1
        if fill:
            yield start_layer, end_layer, fill
        start_layer = end_layer + 1


class LayeredState:
    """Per-layer KV cache plus hidden-state buffers at selected exit layers.

    Tensor storage is allocated only when `d_model` is given. The synthetic
    backend passes None: its state has no arrays (`kv_k == kv_v == []`,
    `hidden == {}`) and uses the fill bookkeeping alone.
    Single-session: never share one instance across concurrent decodes.
    """

    def __init__(
        self,
        n_layers: int,
        max_seq_len: int,
        d_model: int | None = None,
        buffered_layers: Sequence[int] = (),
    ) -> None:
        if n_layers < 1 or max_seq_len < 1:
            raise ValueError("n_layers and max_seq_len must be positive")
        self.n_layers = n_layers
        self.max_seq_len = max_seq_len
        self.d_model = d_model
        self.buffered_layers = tuple(sorted(set(int(l) for l in buffered_layers)))
        for layer in self.buffered_layers:
            if not 1 <= layer <= n_layers:
                raise ValueError(f"buffered layer {layer} outside [1, {n_layers}]")
        self.tokens: list[int] = []
        self.committed_len = 0
        self._fill = [0] * n_layers
        layers = () if d_model is None else range(n_layers)
        buffered = () if d_model is None else self.buffered_layers
        self.kv_k = [np.zeros((max_seq_len, d_model)) for _ in layers]
        self.kv_v = [np.zeros((max_seq_len, d_model)) for _ in layers]
        self.hidden = {layer: np.zeros((max_seq_len, d_model)) for layer in buffered}

    # -- bookkeeping -------------------------------------------------

    def filled(self, layer: int) -> int:
        if 0 < layer <= self.n_layers:
            return self._fill[layer - 1]
        raise AlignmentError(f"no layer {layer}: layers are 1..{self.n_layers}")

    def fills(self) -> tuple[int, ...]:
        return tuple(self._fill)

    def set_tokens(self, tokens: Sequence[int]) -> None:
        if len(tokens) > self.max_seq_len:
            raise AlignmentError(f"token sequence of {len(tokens)} exceeds max_seq_len")
        self.tokens = [int(t) for t in tokens]

    def append_token(self, token: int) -> int:
        """Place a token at the next free position and return that position."""
        if len(self.tokens) >= self.max_seq_len:
            raise AlignmentError("no free position for token")
        self.tokens.append(int(token))
        return len(self.tokens) - 1

    def mark_committed(self, new_len: int) -> None:
        if new_len < self.committed_len:
            raise ProtocolError(
                f"cannot lower committed length {self.committed_len} to {new_len}"
            )
        if new_len > len(self.tokens):
            raise ProtocolError(f"cannot commit {new_len} with only {len(self.tokens)} tokens")
        self.committed_len = new_len

    # -- expand ------------------------------------------------------

    def advance(self, start_layer: int, end_layer: int, start_pos: int, end_pos: int) -> None:
        """Record a pass of layers [start_layer, end_layer] over positions [start_pos, end_pos).

        Raises before changing anything when the pass breaks the fill
        protocol; otherwise the span becomes live in every layer of the
        range. A pass must start at every layer's fill, so it neither
        recomputes a live entry nor leaves a gap. Fills never increase with
        depth, so every layer of the range is filled to `start_pos` exactly
        when its first and last layers are; the layers between are read
        only to name the first one that is not.
        """
        check_layer_range(self.n_layers, start_layer, end_layer)
        if end_pos <= start_pos:
            raise AlignmentError("empty position span")
        if end_pos > self.max_seq_len:
            raise AlignmentError(f"position {end_pos - 1} beyond max_seq_len")
        if end_pos > len(self.tokens):
            raise AlignmentError(f"no token recorded at position {end_pos - 1}")
        fill = self._fill
        if fill[start_layer - 1] != start_pos or fill[end_layer - 1] != start_pos:
            layer = next(l for l in range(start_layer, end_layer + 1) if fill[l - 1] != start_pos)
            raise AlignmentError(
                f"non-contiguous pass at layer {layer}: "
                f"filled to {fill[layer - 1]}, expected {start_pos}"
            )
        if start_layer > 1 and fill[start_layer - 2] < end_pos:
            raise AlignmentError(
                f"missing hidden state at (layer {start_layer - 1}, "
                f"position {fill[start_layer - 2]})"
            )
        fill[start_layer - 1 : end_layer] = [end_pos] * (end_layer - start_layer + 1)

    def hidden_at(self, layer: int, position: int) -> np.ndarray:
        """The hidden row buffered at (layer, position)."""
        if layer not in self.hidden:
            raise AlignmentError(f"no hidden buffer at layer {layer}")
        if not 0 <= position < self._fill[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        return self.hidden[layer][position]

    def arrays(self) -> list[tuple[int, np.ndarray]]:
        """(layer, rows) for every K, V and hidden buffer, K and V first."""
        return [*enumerate(self.kv_k, 1), *enumerate(self.kv_v, 1), *self.hidden.items()]

    # -- prune -------------------------------------------------------

    def prune_all(self, keep_len: int) -> None:
        """Drop every entry and token at positions >= keep_len, in all layers.

        Later passes recompute the dropped positions from the lowered fills.
        """
        if keep_len < 0:
            raise ProtocolError(f"keep_len must be >= 0, got {keep_len}")
        if keep_len < self.committed_len:
            raise ProtocolError(
                f"prune to {keep_len} would discard committed positions "
                f"(committed_len {self.committed_len})"
            )
        top = self._fill[0]  # fills never increase with depth
        if top > keep_len:
            # So the layers filled past keep_len are a prefix of the fills.
            above = bisect.bisect_left(self._fill, -keep_len, key=operator.neg)
            self._fill[:above] = [keep_len] * above
            # Rows past each layer's old fill are zero already, so clearing
            # positions [keep_len, top) everywhere clears exactly the pruned ones.
            for _, rows in self.arrays():
                rows[keep_len:top] = 0.0
        del self.tokens[keep_len:]


def consistency_check(
    state: LayeredState, backend: "Backend", token_sequence: Sequence[int]
) -> list[LayerReport]:
    """Recompute the state from scratch and report per-layer discrepancies.

    The reference is a monolithic forward over `token_sequence` brought to
    the same per-layer fill extents, and each of the state's arrays is
    compared with the reference's over its layer's fill. In deterministic
    math the report must be all zeros; any nonzero cell pinpoints a
    corrupted (layer, position). A state without tensors has no arrays and
    reports zeros for any token sequence.
    """
    fills = state.fills()
    reference = backend.reference_state(token_sequence, fills, state.buffered_layers)
    worst: list[tuple[float, int | None]] = [(0.0, None)] * state.n_layers
    for (layer, mine), (_, theirs) in zip(state.arrays(), reference.arrays(), strict=True):
        fill = fills[layer - 1]
        if fill == 0:
            continue
        per_pos = np.abs(mine[:fill] - theirs[:fill]).max(axis=1)
        if per_pos.max() > worst[layer - 1][0]:
            worst[layer - 1] = (float(per_pos.max()), int(per_pos.argmax()))
    return [LayerReport(layer, *pair) for layer, pair in enumerate(worst, 1)]
