"""Minimal deterministic decoder-only transformer with partial forward passes.

The model exists to exercise cache management and decode strategies, not
to be good at language: weights are a pure function of the seed and there
is no training. Every exit layer shares one unembedding head, with the
final normalization applied before it at every exit.

Determinism contract: all math is float64 and every position gets the
same bits however work is batched into forward calls. Splitting a layer
range or re-running a prefix therefore reproduces results bit for bit,
which is what makes the recompute-based consistency oracle meaningful.
A layer takes one position as a (d,) vector and a span of n as (n, 1, d)
stacked rows, and both give a position the same bits:

- Every projection is `x @ W`: one gemv for a vector, and one gemv per
  row, on the same operands, for stacked rows. A plain 2-D `X @ W` sums in
  another order (matrix-matrix), so a row's bits would depend on the batch.
- Attention (`_attend_span`) makes three length-dependent steps over each
  position's own prefix: the scores product, the sum of the softmax
  weights and the value product. Each is one batched `np.matmul` or
  reduce over all heads, which makes the same products and sums as a
  loop over heads (`np.einsum` does not). One query runs them once on an
  unpadded (heads, prefix, 1) column, whose sum is the same pairwise sum
  over a unit-stride prefix. A span runs them per position into one (n,
  heads, span end) buffer that is -inf past each prefix; the scale, max,
  subtraction, `exp` and division then run once over it. They are exact
  per element, and -inf becomes a weight of exactly 0.
- Batching the three per-position steps further is not bit-exact. On
  OpenBLAS 0.3.31 with numpy 2.4.6 (4 heads of 16, every prefix <=
  length <= 128), the scores product over the span's full length gave a
  prefix's rows other bits in 5,909 of 8,256 (prefix, length) cases,
  because a gemv row's bits depend on the call's row count; and a value
  product over weights zero-padded to the full length differed in 2,016
  of them. A sum over the padded row moves the prefix's tail into
  numpy's pairwise blocks and changes its bits too.

Norms and softmax sums reduce along unit-stride rows, so numpy's pairwise
summation adds the same operands in the same order at any batch size. A
(d,) vector's norm makes that sum, then divides, adds and takes the square
root on numpy float64 scalars: correctly rounded IEEE operations, like the
row form's elementwise ones, so its bits are the row's.
These are properties of numpy and the installed BLAS, not guarantees;
`tests/test_batching.py` checks them (with prefixes that cross the
pairwise sum's blocks of 8 and 128) and names this contract when a
platform breaks them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import TokenDistribution
from .errors import AlignmentError, ConfigError
from .state import LayeredState

_NORM_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    vocab_size: int
    max_seq_len: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ConfigError("n_layers must be >= 3")
        if self.d_model < 1:
            raise ConfigError("d_model must be positive")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model not divisible by n_heads")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be positive")


def _rms_norm(x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:  # the same pairwise sum, then numpy float64 scalar ops
        return x / np.sqrt(np.add.reduce(x * x) / x.shape[0] + _NORM_EPS)
    # np.mean divides the same pairwise sum by d; one call fewer per norm.
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + _NORM_EPS)


def _attend_span(
    keys: np.ndarray, values: np.ndarray, q: np.ndarray, start_pos: int
) -> np.ndarray:
    """Causal softmax attention of a span of positions, all heads at once.

    `keys` and `values` are (heads, rows, d_head) with rows >= the span's
    end, and `q` is (n, heads, d_head, 1) for the positions start_pos ..
    start_pos + n - 1; returns (n, heads, 1, d_head). Each position attends
    over its own prefix and gets the bits a per-head loop at that prefix
    would give (see the determinism contract).
    """
    n, n_heads = q.shape[:2]
    if n == 1:  # one (1, heads, prefix, 1) column of scores, softmaxed in place
        w = keys[:, : start_pos + 1] @ q
        w *= 1.0 / math.sqrt(keys.shape[-1])
        w -= np.maximum.reduce(w, axis=2, keepdims=True)
        w /= np.add.reduce(np.exp(w, out=w), axis=2, keepdims=True)
        return w.swapaxes(2, 3) @ values[:, : start_pos + 1]
    ends = range(start_pos + 1, start_pos + n + 1)
    # Row i holds position i's scores over its prefix and -inf past it.
    scores = np.full((n, n_heads, start_pos + n), -np.inf)
    for i, end in enumerate(ends):
        np.matmul(keys[:, :end], q[i], out=scores[i, :, :end, None])
    scores *= 1.0 / math.sqrt(keys.shape[-1])
    scores -= np.maximum.reduce(scores, axis=2, keepdims=True, initial=-np.inf)
    w = np.exp(scores, out=scores)
    sums = np.empty((n, n_heads, 1))
    for i, end in enumerate(ends):
        np.add.reduce(w[i, :, :end], axis=1, keepdims=True, out=sums[i])
    w /= sums
    attended = np.empty((n, n_heads, 1, keys.shape[-1]))
    for i, end in enumerate(ends):
        np.matmul(w[i, :, None, :end], values[:, :end], out=attended[i])
    return attended


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


class ToyTransformer:
    """Decoder-only transformer over float64, bit-exact under any batching of positions."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.n_layers = config.n_layers
        self.vocab_size = config.vocab_size
        self.max_seq_len = config.max_seq_len
        self.d_model = config.d_model
        self._d_head = config.d_model // config.n_heads
        rng = np.random.default_rng(config.seed)
        d, d_ff = config.d_model, 4 * config.d_model
        scale = 1.0 / np.sqrt(d)
        self.embedding = rng.normal(0.0, scale, size=(config.vocab_size, d))
        self.pos_table = rng.normal(0.0, scale, size=(config.max_seq_len, d))
        self.layers: list[tuple[np.ndarray, ...]] = []  # (w_qkv, w_o, w_up, w_down)
        for _ in range(config.n_layers):
            w_qkv = np.concatenate([rng.normal(0.0, scale, size=(d, d)) for _ in range(3)], axis=1)
            w_o = rng.normal(0.0, scale, size=(d, d))
            w_up = rng.normal(0.0, scale, size=(d, d_ff))
            w_down = rng.normal(0.0, 1.0 / np.sqrt(d_ff), size=(d_ff, d))
            self.layers.append((w_qkv, w_o, w_up, w_down))
        self.unembedding = rng.normal(0.0, scale, size=(d, config.vocab_size))

    # -- state -------------------------------------------------------

    def new_state(self, buffered_layers: Sequence[int] = ()) -> LayeredState:
        return LayeredState(
            n_layers=self.n_layers,
            max_seq_len=self.max_seq_len,
            d_model=self.d_model,
            buffered_layers=buffered_layers,
        )

    # -- forward -----------------------------------------------------

    def _embed(self, tokens: list[int], start_pos: int) -> np.ndarray:
        if len(tokens) == 1 and 0 <= tokens[0] < self.vocab_size:  # one token: a (d,) vector
            return self.embedding[tokens[0]] + self.pos_table[start_pos]
        if tokens and (min(tokens) < 0 or max(tokens) >= self.vocab_size):
            bad = next(t for t in tokens if not 0 <= t < self.vocab_size)
            raise AlignmentError(f"token {bad} outside vocabulary")
        rows = self.embedding[tokens] + self.pos_table[start_pos : start_pos + len(tokens)]
        return rows[:, None]  # (n, 1, d) stacked rows

    def _run_layer(
        self,
        state: LayeredState,
        layer: int,
        start_pos: int,
        x: np.ndarray,
        kv_heads: tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """One layer over a (d,) position or (n, 1, d) span starting at start_pos.

        The state must have advanced over the span; `kv_heads` is the layer's
        (keys, values) pair of head views, `state.kv_heads(n_heads)[layer - 1]`.
        """
        w_qkv, w_o, w_up, w_down = self.layers[layer - 1]
        d = self.d_model
        rows = start_pos if x.ndim == 1 else (slice(start_pos, start_pos + len(x)), None)
        qkv = _rms_norm(x) @ w_qkv
        state.kv_k[layer - 1][rows] = qkv[..., d : 2 * d]
        state.kv_v[layer - 1][rows] = qkv[..., 2 * d :]
        q_heads = qkv[..., :d].reshape(-1, self.config.n_heads, self._d_head, 1)
        attended = _attend_span(*kv_heads, q_heads, start_pos)
        x = x + attended.reshape(x.shape) @ w_o
        x = x + _silu(_rms_norm(x) @ w_up) @ w_down
        if layer in state.hidden:
            state.hidden[layer][rows] = x
        return x

    def forward_range(
        self,
        state: LayeredState,
        start_layer: int,
        end_layer: int,
        start_pos: int,
        end_pos: int,
    ) -> np.ndarray:
        """Run layers [start_layer, end_layer] over positions [start_pos, end_pos).

        Inputs come from token embeddings when starting at layer 1, else
        from the buffered hidden states at start_layer - 1. Produced K/V
        pairs are appended as tentative entries; buffered exit layers in
        the range also record their outputs. Returns the end-layer hidden
        states for the span.
        """
        # The state's shape, the range and the inputs are checked before the
        # state advances, so a rejected call leaves the state untouched.
        if (state.n_layers, state.d_model) != (self.n_layers, self.d_model):
            field = "n_layers" if state.n_layers != self.n_layers else "d_model"
            raise AlignmentError(f"state {field} {getattr(state, field)} is not the model's")
        if not 1 <= start_layer <= end_layer <= self.n_layers:
            raise AlignmentError(
                f"invalid layer range [{start_layer}, {end_layer}] for {self.n_layers} layers"
            )
        resume = start_layer - 1
        if start_layer == 1:
            x = self._embed(state.tokens[start_pos:end_pos], start_pos)
        elif resume in state.buffered_layers:
            x = state.hidden[resume][start_pos:end_pos]
            x = x[0] if len(x) == 1 else x[:, None]  # a (d,) vector or (n, 1, d) stacked rows
        else:
            raise AlignmentError(f"missing hidden state at (layer {resume}, position {start_pos})")
        kv_heads = state.kv_heads(self.config.n_heads)
        state.advance(start_layer, end_layer, start_pos, end_pos)
        for layer in range(start_layer, end_layer + 1):
            x = self._run_layer(state, layer, start_pos, x, kv_heads[layer - 1])
        return x.reshape(-1, self.d_model)

    # -- heads -------------------------------------------------------

    def exit_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Logits of the shared unembedding head, after the final norm, of a (d,) state."""
        if hidden.shape != (self.d_model,):
            raise AlignmentError(f"hidden state must have {self.d_model} entries")
        return _rms_norm(hidden) @ self.unembedding

    def exit_distribution(self, state: LayeredState, layer: int, position: int) -> TokenDistribution:
        logits = self.exit_logits(state.hidden_at(layer, position))
        return TokenDistribution(logits, position, layer)

    # -- consistency oracle --------------------------------------------

    def reference_state(
        self,
        tokens: Sequence[int],
        fills: Sequence[int],
        buffered_layers: Sequence[int],
    ) -> LayeredState:
        """Fresh monolithic recompute brought to the given per-layer extents."""
        ref = self.new_state(buffered_layers)
        ref.set_tokens(tokens)
        x = self._embed(ref.tokens[: fills[0]], 0).reshape(-1, 1, self.d_model)
        kv_heads = ref.kv_heads(self.config.n_heads)
        for layer, fill in enumerate(fills, 1):
            if fill:
                ref.advance(layer, layer, 0, fill)
                x = self._run_layer(ref, layer, 0, x[:fill], kv_heads[layer - 1])
        return ref
