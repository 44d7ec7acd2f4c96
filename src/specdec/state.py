"""Layered KV cache and exit hidden-state buffers with expand/prune semantics.

The draft, the intermediate verifier and the full model share one
`LayeredState`. It records, per layer, how many positions have been
computed (the layer's fill) and how often each (layer, position) entry
was computed. Two methods change that record, and both check the fill
protocol before they change anything:

- `advance(start_layer, end_layer, start_pos, end_pos)` records one
  forward pass over a layer range and a position span. The span must be
  non-empty, end within `max_seq_len` and the recorded tokens, continue
  every layer of the range exactly where it stopped, and lie within the
  fill of the layer below. Lower layers may therefore run ahead of higher
  ones, never the reverse: fills never increase with depth. The backend
  then writes the span's K/V rows (and hidden rows at buffered exits).
- `prune_all(keep_len)` drops every entry at positions >= keep_len, with
  the tokens there, and never a committed position.

Every tensor row and counter past a layer's fill is zero. That invariant
lets `prune_all` clear one block of positions across all layers at once,
and makes a pruned-then-recomputed state bit-identical to one that never
speculated. While an entry is live it must be computed exactly once;
pruning resets its counter because the position's occupant is discarded
with it.
"""
from __future__ import annotations

import itertools
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
        raise ValueError(
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

    Tensor storage is allocated only when `d_model` is given; the synthetic
    backend passes None and uses the fill/counter bookkeeping alone.
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
        self._fill = np.zeros(n_layers, dtype=np.intp)
        self._compute_count = np.zeros((n_layers, max_seq_len), dtype=np.int32)
        if d_model is not None:
            self.kv_k = [np.zeros((max_seq_len, d_model)) for _ in range(n_layers)]
            self.kv_v = [np.zeros((max_seq_len, d_model)) for _ in range(n_layers)]
            self.hidden = {
                layer: np.zeros((max_seq_len, d_model)) for layer in self.buffered_layers
            }
        else:
            self.kv_k = None
            self.kv_v = None
            self.hidden = None

    # -- bookkeeping -------------------------------------------------

    def filled(self, layer: int) -> int:
        return int(self._fill[layer - 1])

    def fills(self) -> tuple[int, ...]:
        return tuple(self._fill.tolist())

    def compute_counts(self, layer: int) -> np.ndarray:
        return self._compute_count[layer - 1, : self._fill[layer - 1]]

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
        range and each of its entries counts one more compute.
        """
        check_layer_range(self.n_layers, start_layer, end_layer)
        if end_pos <= start_pos:
            raise AlignmentError("empty position span")
        if end_pos > self.max_seq_len:
            raise AlignmentError(f"position {end_pos - 1} beyond max_seq_len")
        if end_pos > len(self.tokens):
            raise AlignmentError(f"no token recorded at position {end_pos - 1}")
        fills = self._fill[start_layer - 1 : end_layer]
        behind = fills != start_pos
        if behind.any():
            offset = int(behind.argmax())
            raise AlignmentError(
                f"non-contiguous pass at layer {start_layer + offset}: "
                f"filled to {fills[offset]}, expected {start_pos}"
            )
        if start_layer > 1 and self._fill[start_layer - 2] < end_pos:
            raise AlignmentError(
                f"missing hidden state at (layer {start_layer - 1}, "
                f"position {self._fill[start_layer - 2]})"
            )
        fills[:] = end_pos
        self._compute_count[start_layer - 1 : end_layer, start_pos:end_pos] += 1

    def hidden_at(self, layer: int, position: int) -> np.ndarray:
        """The hidden row buffered at (layer, position)."""
        if self.hidden is None or layer not in self.hidden:
            raise AlignmentError(f"no hidden buffer at layer {layer}")
        if position >= self._fill[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        return self.hidden[layer][position]

    # -- prune -------------------------------------------------------

    def prune_all(self, keep_len: int) -> None:
        """Drop every entry and token at positions >= keep_len, in all layers."""
        if keep_len < self.committed_len:
            raise ProtocolError(
                f"prune to {keep_len} would discard committed positions "
                f"(committed_len {self.committed_len})"
            )
        top = int(self._fill[0])  # fills never increase with depth
        if top > keep_len:
            np.minimum(self._fill, keep_len, out=self._fill)
            # Entries past each layer's old fill are zero already, so clearing
            # positions [keep_len, top) everywhere clears exactly the pruned ones.
            self._compute_count[:, keep_len:top] = 0
            if self.kv_k is not None:
                for rows in itertools.chain(self.kv_k, self.kv_v, self.hidden.values()):
                    rows[keep_len:top] = 0.0
        del self.tokens[keep_len:]

    # -- snapshots (test support) -------------------------------------

    def snapshot(self) -> dict:
        snap = {
            "tokens": list(self.tokens),
            "fill": self.fills(),
            "committed": self.committed_len,
            "counts": self._compute_count.copy(),
        }
        if self.kv_k is not None:
            snap["kv_k"] = [a.copy() for a in self.kv_k]
            snap["kv_v"] = [a.copy() for a in self.kv_v]
            snap["hidden"] = {l: a.copy() for l, a in self.hidden.items()}
        return snap

    def equals_snapshot(self, snap: dict) -> bool:
        if self.tokens != snap["tokens"] or self.fills() != snap["fill"]:
            return False
        if self.committed_len != snap["committed"]:
            return False
        if not np.array_equal(self._compute_count, snap["counts"]):
            return False
        if self.kv_k is not None:
            for mine, theirs in zip(self.kv_k, snap["kv_k"]):
                if not np.array_equal(mine, theirs):
                    return False
            for mine, theirs in zip(self.kv_v, snap["kv_v"]):
                if not np.array_equal(mine, theirs):
                    return False
            for layer, arr in self.hidden.items():
                if not np.array_equal(arr, snap["hidden"][layer]):
                    return False
        return True


def consistency_check(
    state: LayeredState, backend: "Backend", token_sequence: Sequence[int]
) -> list[LayerReport]:
    """Recompute the state from scratch and report per-layer discrepancies.

    The reference is a monolithic forward over `token_sequence` brought to
    the same per-layer fill extents. In deterministic math the report must
    be all zeros; any nonzero cell pinpoints a corrupted (layer, position).
    """
    fills = state.fills()
    reference = backend.reference_state(token_sequence, fills, state.buffered_layers)
    reports: list[LayerReport] = []
    for layer in range(1, state.n_layers + 1):
        fill = fills[layer - 1]
        if fill == 0:
            reports.append(LayerReport(layer=layer, max_abs_discrepancy=0.0, worst_position=None))
            continue
        worst = 0.0
        worst_pos: int | None = None
        if state.kv_k is not None:
            for mine, theirs in (
                (state.kv_k[layer - 1][:fill], reference.kv_k[layer - 1][:fill]),
                (state.kv_v[layer - 1][:fill], reference.kv_v[layer - 1][:fill]),
            ):
                diff = np.abs(mine - theirs)
                per_pos = diff.max(axis=1)
                if per_pos.max() > worst:
                    worst = float(per_pos.max())
                    worst_pos = int(per_pos.argmax())
            if layer in state.buffered_layers:
                diff = np.abs(state.hidden[layer][:fill] - reference.hidden[layer][:fill])
                per_pos = diff.max(axis=1)
                if per_pos.size and per_pos.max() > worst:
                    worst = float(per_pos.max())
                    worst_pos = int(per_pos.argmax())
        else:
            # Structural backend: the recorded tokens are the whole state.
            if list(state.tokens[:fill]) != list(token_sequence[:fill]):
                worst = 1.0
                worst_pos = next(
                    i for i, (a, b) in enumerate(zip(state.tokens, token_sequence)) if a != b
                )
        reports.append(
            LayerReport(layer=layer, max_abs_discrepancy=worst, worst_position=worst_pos)
        )
    return reports
