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

A state with tensors keeps them all in one private anonymous `mmap` of
shape (2·n_layers + len(buffered_layers), max_seq_len, d_model), float64:
`kv_k`, `kv_v` and the `hidden` buffers are views into it, each a
C-contiguous (max_seq_len, d_model) array. The kernel hands out zeroed
pages only when first touched, so a state costs one mapping and pays
memory only for the rows it writes; most states (every consistency
reference, every short decode) touch a small prefix of `max_seq_len`.
Separate `np.zeros` arrays cost one allocation each, and the allocator
may clear reused heap for them in full. One `np.zeros` block is no
better: numpy asks for huge pages on an array of 4 MB or more, and a
huge page is made resident whole, the likely reason such a block raised
peak memory. The mapping is therefore madvised `MADV_NOHUGEPAGE` where
`mmap` offers it. Because the views alias the mapping, a state must not
be copied or pickled: a copy of one array would no longer be part of it.

Every tensor row past a layer's fill is zero. That invariant lets
`prune_all` clear positions [keep_len, old top) of the whole mapping in
one assignment: in every layer filled past `keep_len` these are exactly
the pruned rows, and everywhere else they are zero already. It also
makes a pruned-then-recomputed state bit-identical to one that never
speculated. Each live entry is computed exactly once: `advance` rejects
any pass that does not start at every layer's fill, and the tests assert
it by counting backend passes (`conftest.CountingBackend`).
"""
from __future__ import annotations

import bisect
import itertools
import math
import mmap
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, ProtocolError

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


def zeroed_block(shape: tuple[int, int, int]) -> np.ndarray:
    """A writable float64 array of `shape` over a fresh private anonymous mapping.

    Its pages read as zeros and take memory only once written.
    """
    buffer = mmap.mmap(-1, math.prod(shape) * 8, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float64).reshape(shape)


class LayeredState:
    """Per-layer KV cache plus hidden-state buffers at selected exit layers.

    Tensor storage is allocated only when `d_model` is given, as one
    zero-filled mapping (`zeroed_block`) that `kv_k`, `kv_v` and `hidden`
    view; the module docstring says why. The views alias the mapping, so
    never copy or pickle a state. The synthetic backend passes None: its
    state has no arrays (`kv_k == kv_v == []`, `hidden == {}`), allocates
    and clears nothing, and uses the fill bookkeeping alone.
    Single-session: never share one instance across concurrent decodes.
    """

    def __init__(
        self,
        n_layers: int,
        max_seq_len: int,
        d_model: int | None = None,
        buffered_layers: Sequence[int] = (),
    ) -> None:
        sizes = {"n_layers": n_layers, "max_seq_len": max_seq_len, "d_model": d_model}
        for field, value in sizes.items():
            if value is not None and value < 1:
                raise ConfigError(f"{field} must be >= 1, got {value}")
        self.n_layers = n_layers
        self.max_seq_len = max_seq_len
        self.d_model = d_model
        self.buffered_layers = tuple(sorted(set(int(l) for l in buffered_layers)))
        for layer in self.buffered_layers:
            if not 1 <= layer <= n_layers:
                raise AlignmentError(f"buffered layer {layer} outside 1..{n_layers}")
        self.tokens: list[int] = []
        self.committed_len = 0
        self._fill = [0] * n_layers
        if d_model is None:
            self._block = None
            self.kv_k: list[np.ndarray] = []
            self.kv_v: list[np.ndarray] = []
            self.hidden: dict[int, np.ndarray] = {}
        else:
            n_arrays = 2 * n_layers + len(self.buffered_layers)
            self._block = zeroed_block((n_arrays, max_seq_len, d_model))
            self.kv_k = list(self._block[:n_layers])
            self.kv_v = list(self._block[n_layers : 2 * n_layers])
            self.hidden = dict(zip(self.buffered_layers, self._block[2 * n_layers :]))

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
            if self._block is not None:
                self._block[:, keep_len:top] = 0.0
        del self.tokens[keep_len:]


def consistency_check(
    state: LayeredState, backend: "Backend", token_sequence: Sequence[int]
) -> list[LayerReport]:
    """Recompute the state from scratch and report per-layer discrepancies.

    The reference is a monolithic forward over `token_sequence` brought to
    the same per-layer fill extents, and each of the state's arrays is
    compared with the reference's over its layer's fill. In deterministic
    math the report must be all zeros; any nonzero cell pinpoints a
    corrupted (layer, position). A NaN difference reads as infinity at its
    first position, so it fails the check too. A state without tensors has
    no arrays and reports zeros for any token sequence.
    """
    fills = state.fills()
    reference = backend.reference_state(token_sequence, fills, state.buffered_layers)
    worst: list[tuple[float, int | None]] = [(0.0, None)] * state.n_layers
    for (layer, mine), (_, theirs) in zip(state.arrays(), reference.arrays(), strict=True):
        fill = fills[layer - 1]
        if fill == 0:
            continue
        per_pos = np.abs(mine[:fill] - theirs[:fill]).max(axis=1)
        position = int(per_pos.argmax())  # the first NaN, if there is one
        gap = float(per_pos[position])
        if math.isnan(gap):
            gap = math.inf
        if gap > worst[layer - 1][0]:
            worst[layer - 1] = (gap, position)
    return [LayerReport(layer, *pair) for layer, pair in enumerate(worst, 1)]
