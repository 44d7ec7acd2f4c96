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

The fills are one plain list of Python ints, `live_fills` (layer l at
index l-1), and `fills()` copies them into a tuple. Only `advance` and
`prune_all` write the list, in place, so the decode engine binds it once
per session and the synthetic exit query reads it unchecked; nothing
else may mutate it. Because fills never increase with depth, `advance`
checks a range's contiguity on its first and last fill alone, and
`prune_all` finds the layers filled past `keep_len`, a prefix of the
fills, by bisection.

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
`kv_heads` splits every layer's K and V into heads as further views of
the mapping, built once per state and handed out per layer, so a forward
pass neither reshapes the block nor indexes a 5-D view per layer.

Every tensor row past a layer's fill is zero. That invariant lets
`prune_all` clear positions [keep_len, old top) of the whole mapping in
one assignment: in every layer filled past `keep_len` these are exactly
the pruned rows, and everywhere else they are zero already. It also
makes a pruned-then-recomputed state bit-identical to one that never
speculated. Each live entry is computed exactly once: `advance` rejects
any pass that does not start at every layer's fill, and the tests assert
it by counting backend passes (`conftest.CountingBackend`).

`consistency_check` compares a state with a recompute from its tokens
alone. The first check of a state builds that reference by the backend's
monolithic `reference_state` and holds it in the state's private
`_reference` slot, with the backend, for as long as the state lives.
Each later check with the same backend prunes the held reference to the
first position whose token changed, and no further than the lowest fill
of either state, then extends it over the new positions: one
`forward_range` per run of layers with equal target fills, so at a
decode's boundaries, where every layer shares one fill, one pass. The
determinism contract gives a position the same bits however its passes
are split, so the extended reference equals a fresh one, and a check
costs the new positions rather than the whole prefix. A run that can
resume neither from the embeddings nor from a buffered layer, or a check
with another backend, gets a fresh monolithic reference instead. The
reference reads only tokens, never the live tensors, so a corrupted live
entry is reported at every check that still holds it. A sound state
equals its reference, so a check first compares the two blocks whole
over the positions of the first layer's fill, which cover every array's
fill, and returns the all-zero report when they are equal. Only a gap, a
NaN or blocks of another shape fall through to one comparison per array,
which locates the gap. A boundary's check therefore costs one extension
pass and one block comparison.

numpy is imported only where tensors are made (`zeroed_block`), and
`consistency_check` compares them through array methods alone, so a
state without tensors, and a synthetic `check`, never load it.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import mmap
import operator
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Sequence

from .errors import AlignmentError, ConfigError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .backend import Backend


@dataclass(frozen=True)
class LayerReport:
    layer: int
    max_abs_discrepancy: float
    worst_position: int | None


def as_token(token: object, what: str = "token") -> int:
    """`token` as an int; numpy integers pass, floats, bools and strings are named.
    Callers skip it for an exact int (`type(t) is int`): the ABC check is slow."""
    if isinstance(token, bool) or not isinstance(token, Integral):
        raise ConfigError(f"{what} {token!r} must be an integer")
    return int(token)


def zeroed_block(shape: tuple[int, int, int]) -> np.ndarray:
    """A writable float64 array of `shape` over a fresh private anonymous mapping.

    Its pages read as zeros and take memory only once written.
    """
    import numpy as np

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
    `live_fills` is read-only outside `advance` and `prune_all`, which
    update it in place; `fills()` is a tuple copy of it. `tokens` is
    read-only outside `set_tokens`, `append_token` and `prune_all`, which
    check every token they place. Only `consistency_check` reads or writes
    `_reference`, the reference it holds for the state, and only `kv_heads`
    reads or writes `_heads`, the head views it hands out.
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
        layers = {l if type(l) is int else as_token(l, "buffered layer") for l in buffered_layers}
        self.buffered_layers = tuple(sorted(layers))
        for layer in self.buffered_layers:
            if not 1 <= layer <= n_layers:
                raise AlignmentError(f"buffered layer {layer} outside 1..{n_layers}")
        self.tokens: list[int] = []
        self.committed_len = 0
        self.live_fills = [0] * n_layers
        # (backend, reference state) of the last consistency_check, or None.
        self._reference: tuple[Backend, LayeredState] | None = None
        # (n_heads, per-layer (K, V) head views) of the last kv_heads call, or None.
        self._heads: tuple[int, list[tuple[np.ndarray, np.ndarray]]] | None = None
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

    def fills(self) -> tuple[int, ...]:
        return tuple(self.live_fills)

    def set_tokens(self, tokens: Sequence[int]) -> None:
        if len(tokens) > self.max_seq_len:
            raise AlignmentError(f"token sequence of {len(tokens)} exceeds max_seq_len")
        self.tokens = [t if type(t) is int else as_token(t) for t in tokens]

    def append_token(self, token: int) -> int:
        """Place a token at the next free position and return that position."""
        if len(self.tokens) >= self.max_seq_len:
            raise AlignmentError("no free position for token")
        self.tokens.append(token if type(token) is int else as_token(token))
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
        if not 1 <= start_layer <= end_layer <= self.n_layers:
            raise AlignmentError(
                f"invalid layer range [{start_layer}, {end_layer}] for {self.n_layers} layers"
            )
        if end_pos <= start_pos:
            raise AlignmentError("empty position span")
        if end_pos > self.max_seq_len:
            raise AlignmentError(f"position {end_pos - 1} beyond max_seq_len")
        if end_pos > len(self.tokens):
            raise AlignmentError(f"no token recorded at position {end_pos - 1}")
        fill = self.live_fills
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
        if not 0 <= position < self.live_fills[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        return self.hidden[layer][position]

    def kv_heads(self, n_heads: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer (layer l at index l-1), its K and V split into heads: two
        read-only (n_heads, max_seq_len, d_head) views of a state with tensors.

        The views are built on the first call and again only for another
        `n_heads`. They alias the block, so they always show its current rows.
        """
        if self._heads is None or self._heads[0] != n_heads:
            shape = (2, self.n_layers, self.max_seq_len, n_heads, self.d_model // n_heads)
            heads = self._block[: 2 * self.n_layers].reshape(shape).transpose(0, 1, 3, 2, 4)
            heads.flags.writeable = False
            self._heads = (n_heads, list(zip(heads[0], heads[1])))
        return self._heads[1]

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
        top = self.live_fills[0]  # fills never increase with depth
        if top > keep_len:
            # So the layers filled past keep_len are a prefix of the fills.
            above = bisect.bisect_left(self.live_fills, -keep_len, key=operator.neg)
            self.live_fills[:above] = [keep_len] * above
            # Rows past each layer's old fill are zero already, so clearing
            # positions [keep_len, top) everywhere clears exactly the pruned ones.
            if self._block is not None:
                self._block[:, keep_len:top] = 0.0
        del self.tokens[keep_len:]


def consistency_check(
    state: LayeredState, backend: "Backend", token_sequence: Sequence[int]
) -> list[LayerReport]:
    """Compare the state with a recompute from `token_sequence` and report
    per-layer discrepancies.

    The reference is a forward over `token_sequence` alone, brought to the
    state's per-layer fill extents, and each of the state's arrays is
    compared with the reference's over its layer's fill. The first check of
    a state builds it by the backend's monolithic `reference_state`; the
    state holds it, and each later check with the same backend extends it
    over the new positions (`_extend`). Another backend, or fills it cannot
    extend to, gets a fresh monolithic reference. Either way it reads no
    live tensor, so in deterministic math the report must be all zeros; any
    nonzero cell pinpoints a corrupted (layer, position). A NaN difference
    reads as infinity at its first position, so it fails the check too. A
    state without tensors reports zeros at once, asking its backend nothing.
    """
    if not state.kv_k:
        return [*_zero_reports(state.n_layers)]
    held = state._reference
    if held is not None and held[0] is backend:
        if _extend(held[1], backend, token_sequence, state.live_fills):
            return _layer_reports(state, held[1])
    reference = backend.reference_state(token_sequence, state.fills(), state.buffered_layers)
    state._reference = (backend, reference)
    return _layer_reports(state, reference)


def _extend(
    reference: LayeredState, backend: "Backend", tokens: Sequence[int], fills: Sequence[int]
) -> bool:
    """Bring a held reference to `fills` over `tokens`, computing only what it lacks.

    Every layer of the reference is pruned to one fill, `keep`: its first
    position whose token differs from `tokens`, at most the lowest fill of
    the reference and of `fills`. Then each run of layers that share a
    target fill advances from `keep` in one pass, from layer 1 up; a run
    above layer 1 resumes from the buffered hidden rows of the layer below
    it. Returns False, with the reference unchanged, when such a run starts
    above a layer the reference does not buffer.
    """
    keep = min(reference.live_fills[-1], fills[-1], len(tokens))  # fills fall with depth
    held = reference.tokens
    keep = next((p for p in range(keep) if held[p] != tokens[p]), keep)
    runs, first = [], 1
    for fill, layers in itertools.groupby(fills):
        last = first + len(list(layers)) - 1
        if fill > keep:
            if first > 1 and first - 1 not in reference.hidden:
                return False
            runs.append((first, last, fill))
        first = last + 1
    reference.prune_all(keep)
    reference.set_tokens(tokens)
    for first, last, fill in runs:
        backend.forward_range(reference, first, last, keep, fill)
    return True


def _layer_reports(state: LayeredState, reference: LayeredState) -> list[LayerReport]:
    """Per layer, the worst absolute gap between `state`'s arrays and
    `reference`'s over the layer's fill, with its first position.

    Fills never increase with depth, so positions [0, fills[0]) cover every
    array's fill. When both blocks have one shape and are equal there, the
    report is all zeros, and one comparison of the whole blocks gives it.
    Otherwise (a gap, a NaN, or blocks of another shape) each array is
    compared over its own fill: a NaN gap reads as infinity at its first
    position, and arrays that do not pair up raise ValueError.
    """
    fills = state.live_fills
    block, held = state._block, reference._block
    if block.shape == held.shape and (block[:, : fills[0]] == held[:, : fills[0]]).all():
        return [*_zero_reports(state.n_layers)]  # -0.0 == 0.0, and its gap is 0.0 too
    worst: list[tuple[float, int | None]] = [(0.0, None)] * state.n_layers
    for (layer, rows), (_, theirs) in zip(state.arrays(), reference.arrays(), strict=True):
        fill = fills[layer - 1]
        if fill == 0:
            continue
        per_pos = abs(rows[:fill] - theirs[:fill]).max(axis=1)  # abs is np.absolute
        position = int(per_pos.argmax())  # the first NaN, if there is one
        gap = float(per_pos[position])
        if math.isnan(gap):
            gap = math.inf
        if gap > worst[layer - 1][0]:
            worst[layer - 1] = (gap, position)
    return [LayerReport(layer, *pair) for layer, pair in enumerate(worst, 1)]


@functools.cache
def _zero_reports(n_layers: int) -> tuple[LayerReport, ...]:
    """The report of a sound state of `n_layers` layers, built once per depth."""
    return tuple(LayerReport(layer, 0.0, None) for layer in range(1, n_layers + 1))
