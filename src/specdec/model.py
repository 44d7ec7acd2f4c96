"""Minimal deterministic decoder-only transformer with partial forward passes.

The model exists to exercise cache management and decode strategies, not
to be good at language: weights are a pure function of the seed and there
is no training. Every exit layer shares one unembedding head, with the
final normalization applied before it at every exit.

Determinism contract: all math is float64 and every position gets the
same bits however work is batched into forward calls. Splitting a layer
range or re-running a prefix therefore reproduces results bit for bit,
which is what makes the recompute-based consistency oracle meaningful.
A layer processes a span of positions as one (n, d) array and keeps the
contract with two kernels:

- Projections are stacks of vector-matrix products,
  `np.matmul(X[:, None, :], W)`. Each row takes the path a single
  `x @ W` takes. A plain 2-D `X @ W` does not: its matrix-matrix kernel
  sums in another order, so a row's bits would depend on the batch.
- Attention runs per position, because prefix lengths differ. Within a
  position all heads go through one batched `np.matmul`, which makes the
  same products and sums as a loop over heads (`np.einsum` does not).

Norms and softmax sums reduce along contiguous rows, so numpy's pairwise
summation adds the same operands in the same order at any batch size.
Both kernels are properties of numpy and the installed BLAS, not
guarantees; `tests/test_batching.py` checks them and names this contract
when a platform breaks them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import TokenDistribution
from .errors import AlignmentError, ConfigError
from .state import LayeredState, fill_runs

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
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


def _rms_norm(x: np.ndarray) -> np.ndarray:
    # np.mean divides the same pairwise sum by d; one call fewer per norm.
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + _NORM_EPS)


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`x[i] @ w` for every row i, bit for bit (see the determinism contract)."""
    return np.matmul(x[:, None, :], w)[:, 0, :]


def _attend_heads(keys: np.ndarray, values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Softmax attention of one position, all heads in one batched product.

    `keys` and `values` are (heads, prefix, d_head) and `q` is
    (heads, d_head, 1); returns (heads, 1, d_head). Each head's products
    and sums are the ones a per-head loop would make, bit for bit.
    """
    scores = np.matmul(keys, q)[:, :, 0] * (1.0 / math.sqrt(keys.shape[-1]))
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= np.add.reduce(w, axis=1, keepdims=True)
    return np.matmul(w[:, None, :], values)


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
        self.layers = []
        for _ in range(config.n_layers):
            w_qkv = np.concatenate([rng.normal(0.0, scale, size=(d, d)) for _ in range(3)], axis=1)
            self.layers.append(
                {
                    "w_qkv": w_qkv,
                    "w_q": w_qkv[:, :d],
                    "w_k": w_qkv[:, d : 2 * d],
                    "w_v": w_qkv[:, 2 * d :],
                    "w_o": rng.normal(0.0, scale, size=(d, d)),
                    "w_up": rng.normal(0.0, scale, size=(d, d_ff)),
                    "w_down": rng.normal(0.0, 1.0 / np.sqrt(d_ff), size=(d_ff, d)),
                }
            )
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

    def _embed(self, tokens: Sequence[int], start_pos: int) -> np.ndarray:
        ids = np.asarray(tokens, dtype=np.intp)
        bad = (ids < 0) | (ids >= self.vocab_size)
        if bad.any():
            raise AlignmentError(f"token {ids[bad][0]} outside vocabulary")
        return self.embedding[ids] + self.pos_table[start_pos : start_pos + len(ids)]

    def _run_layer(
        self, state: LayeredState, layer: int, start_pos: int, x: np.ndarray
    ) -> np.ndarray:
        """One layer over the span of positions starting at start_pos, as an (n, d) array.

        The state must already have advanced over the span. Its K/V rows
        are written first; each position then attends causally over its own
        prefix, all heads in one batched product.
        """
        weights = self.layers[layer - 1]
        d, n_heads, d_head = self.d_model, self.config.n_heads, self._d_head
        qkv = _rows_matmul(_rms_norm(x), weights["w_qkv"])
        end_pos = start_pos + len(x)
        state.kv_k[layer - 1][start_pos:end_pos] = qkv[:, d : 2 * d]
        state.kv_v[layer - 1][start_pos:end_pos] = qkv[:, 2 * d :]
        keys = state.kv_k[layer - 1].reshape(-1, n_heads, d_head).transpose(1, 0, 2)
        values = state.kv_v[layer - 1].reshape(-1, n_heads, d_head).transpose(1, 0, 2)
        q_heads = qkv[:, :d].reshape(-1, n_heads, d_head, 1)
        attended = np.empty((len(x), n_heads, 1, d_head))
        for i, q in enumerate(q_heads):
            end = start_pos + i + 1
            attended[i] = _attend_heads(keys[:, :end], values[:, :end], q)
        x = x + _rows_matmul(attended.reshape(len(x), d), weights["w_o"])
        x = x + _rows_matmul(_silu(_rows_matmul(_rms_norm(x), weights["w_up"])), weights["w_down"])
        if layer in state.hidden:
            state.hidden[layer][start_pos:end_pos] = x
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
        # Inputs are taken (and token ids checked) before the state advances,
        # so a rejected call leaves the state untouched.
        resume = start_layer - 1
        if start_layer == 1:
            x = self._embed(state.tokens[start_pos:end_pos], start_pos)
        elif resume in state.buffered_layers:
            x = state.hidden[resume][start_pos:end_pos]
        else:
            raise AlignmentError(f"missing hidden state at (layer {resume}, position {start_pos})")
        state.advance(start_layer, end_layer, start_pos, end_pos)
        for layer in range(start_layer, end_layer + 1):
            x = self._run_layer(state, layer, start_pos, x)
        return x

    # -- heads -------------------------------------------------------

    def exit_logits(self, hidden: np.ndarray, position: int, source_layer: int) -> TokenDistribution:
        """Shared unembedding head applied after the final normalization."""
        if hidden.shape != (self.d_model,):
            raise AlignmentError(f"hidden state must have {self.d_model} entries")
        logits = _rms_norm(hidden) @ self.unembedding
        return TokenDistribution(logits=logits, position=position, source_layer=source_layer)

    def exit_distribution(self, state: LayeredState, layer: int, position: int) -> TokenDistribution:
        hidden = state.hidden_at(layer, position)
        return self.exit_logits(hidden, position=position, source_layer=layer)

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
        x = self._embed(ref.tokens[: fills[0]], 0)
        for start_layer, end_layer, fill in fill_runs(fills):
            ref.advance(start_layer, end_layer, 0, fill)
        for layer in range(1, self.n_layers + 1):
            x = self._run_layer(ref, layer, 0, x[: ref.filled(layer)])
        return ref
