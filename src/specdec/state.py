"""Layered KV cache and exit hidden-state buffers with expand/prune semantics.

The state tracks, per layer, how many positions have been computed
(`filled`). Speculation expands layers ahead of the committed context;
verification prunes rejected positions back. Lower layers may run ahead
of higher ones, never the reverse. A per-(layer, position) compute
counter backs the no-redundant-work invariant: while an entry is live it
must be computed exactly once; pruning resets the counter because the
position's occupant is discarded with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AlignmentError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from .backend import Backend


@dataclass(frozen=True)
class CommitMark:
    """Last committed position and where the tentative buffer begins."""

    position: int
    buffer_start: int


@dataclass(frozen=True)
class HiddenState:
    position: int
    layer: int
    values: np.ndarray


@dataclass(frozen=True)
class LayerReport:
    layer: int
    max_abs_discrepancy: float
    worst_position: int | None


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
        self._fill = [0] * n_layers
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
        return self._fill[layer - 1]

    def fills(self) -> tuple[int, ...]:
        return tuple(self._fill)

    def compute_counts(self, layer: int) -> np.ndarray:
        return self._compute_count[layer - 1, : self._fill[layer - 1]]

    @property
    def commit_mark(self) -> CommitMark:
        return CommitMark(position=self.committed_len - 1, buffer_start=self.committed_len)

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

    def append_kv(self, layer: int, start_pos: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append the K/V rows of positions [start_pos, start_pos + len(k))."""
        self.append_bookkeeping(layer, start_pos, len(k))
        end_pos = start_pos + len(k)
        self.kv_k[layer - 1][start_pos:end_pos] = k
        self.kv_v[layer - 1][start_pos:end_pos] = v

    def append_bookkeeping(self, layer: int, start_pos: int, count: int) -> None:
        """Advance the fill of one layer by count positions and count their computes."""
        if self._fill[layer - 1] != start_pos:
            raise AlignmentError(
                f"non-contiguous extend at (layer {layer}, position {start_pos}); "
                f"filled to {self._fill[layer - 1]}"
            )
        end_pos = start_pos + count
        if end_pos > self.max_seq_len:
            raise AlignmentError(f"extend past max_seq_len at position {end_pos - 1}")
        self._fill[layer - 1] = end_pos
        self._compute_count[layer - 1, start_pos:end_pos] += 1

    def buffer_hidden(self, layer: int, start_pos: int, values: np.ndarray) -> None:
        """Record the hidden rows of positions [start_pos, start_pos + len(values))."""
        if layer not in self.buffered_layers:
            raise AlignmentError(f"layer {layer} has no hidden buffer")
        self.hidden[layer][start_pos : start_pos + len(values)] = values

    def hidden_at(self, layer: int, position: int) -> HiddenState:
        if self.hidden is None or layer not in self.buffered_layers:
            raise AlignmentError(f"no hidden buffer at layer {layer}")
        if position >= self._fill[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        return HiddenState(position=position, layer=layer, values=self.hidden[layer][position])

    # -- prune -------------------------------------------------------

    def prune_to(self, start_layer: int, end_layer: int, keep_len: int) -> None:
        """Drop entries at positions >= keep_len for every layer in the range."""
        if keep_len < 0:
            raise ProtocolError("keep_len must be non-negative")
        if keep_len < self.committed_len:
            raise ProtocolError(
                f"prune to {keep_len} would discard committed positions "
                f"(committed_len {self.committed_len})"
            )
        for layer in range(start_layer, end_layer + 1):
            fill = self._fill[layer - 1]
            if keep_len > fill:
                raise ProtocolError(
                    f"prune keep_len {keep_len} beyond fill {fill} at layer {layer}"
                )
            if keep_len == fill:
                continue
            self._compute_count[layer - 1, keep_len:fill] = 0
            if self.kv_k is not None:
                self.kv_k[layer - 1][keep_len:fill] = 0.0
                self.kv_v[layer - 1][keep_len:fill] = 0.0
            if self.hidden is not None and layer in self.hidden:
                self.hidden[layer][keep_len:fill] = 0.0
            self._fill[layer - 1] = keep_len

    def truncate_tokens(self, keep_len: int) -> None:
        if keep_len < self.committed_len:
            raise ProtocolError("cannot truncate committed tokens")
        if max(self._fill) > keep_len:
            raise ProtocolError("truncate would orphan filled positions; prune layers first")
        del self.tokens[keep_len:]

    def prune_all(self, keep_len: int) -> None:
        """Prune every layer above keep_len and drop the tokens with them."""
        for layer in range(1, self.n_layers + 1):
            if self._fill[layer - 1] > keep_len:
                self.prune_to(layer, layer, keep_len)
        self.truncate_tokens(max(keep_len, self.committed_len))

    # -- snapshots (test support) -------------------------------------

    def snapshot(self) -> dict:
        snap = {
            "tokens": list(self.tokens),
            "fill": list(self._fill),
            "committed": self.committed_len,
            "counts": self._compute_count.copy(),
        }
        if self.kv_k is not None:
            snap["kv_k"] = [a.copy() for a in self.kv_k]
            snap["kv_v"] = [a.copy() for a in self.kv_v]
            snap["hidden"] = {l: a.copy() for l, a in self.hidden.items()}
        return snap

    def equals_snapshot(self, snap: dict) -> bool:
        if self.tokens != snap["tokens"] or self._fill != snap["fill"]:
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
