"""Batching invariance of the toy forward, and the kernels it rests on.

The property test cuts one position span into random `forward_range`
calls and the layer stack at random split points, runs them in either
position-major or layer-major order, and requires outputs and every
KV/hidden buffer to be bit-identical to a single call over the whole
span. The kernel guards check the two numpy/BLAS facts that make this
hold: a stacked vector-matrix product equals `x @ W` row by row, and the
span attention (one query or many) gives each position the bits of a loop
over heads at that position's own prefix.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import ModelConfig, ToyTransformer
from specdec.model import _attend_span, _rms_norm

N_LAYERS = 5
MAX_SEQ_LEN = 20

CONTRACT = (
    "the installed BLAS breaks the float64 determinism contract in specdec.model: "
    "{what} are not bit-identical, so batched and per-position forwards would differ"
)


MODELS = [
    ToyTransformer(
        ModelConfig(
            n_layers=N_LAYERS, d_model=d_model, n_heads=n_heads,
            vocab_size=12, max_seq_len=MAX_SEQ_LEN, seed=d_model * n_heads,
        )
    )
    for d_model, n_heads in [(8, 1), (8, 2), (16, 4), (24, 3)]
]


def _cuts(draw, lo, hi, max_cuts):
    """Sorted distinct interior cut points of the range [lo, hi)."""
    inner = draw(st.lists(st.integers(lo + 1, hi - 1), max_size=max_cuts, unique=True))
    return [lo] + sorted(inner) + [hi]


@st.composite
def batching_cases(draw):
    model = draw(st.sampled_from(MODELS))
    span = draw(st.integers(1, 14))
    tokens = draw(st.lists(st.integers(0, model.vocab_size - 1), min_size=span, max_size=span))
    positions = _cuts(draw, 0, span, 5) if span > 1 else [0, span]
    layers = _cuts(draw, 1, N_LAYERS + 1, 3)
    return model, tokens, positions, layers, draw(st.booleans())


def _buffers(state):
    return state.kv_k + state.kv_v + [state.hidden[layer] for layer in sorted(state.hidden)]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(batching_cases())
def test_any_batching_is_bit_identical_to_one_call(case):
    model, tokens, positions, layers, layer_major = case
    buffered = tuple(layer - 1 for layer in layers[1:])
    whole = model.new_state(buffered)
    whole.set_tokens(tokens)
    expected = model.forward_range(whole, 1, N_LAYERS, 0, len(tokens))

    state = model.new_state(buffered)
    state.set_tokens(tokens)
    pos_spans = list(zip(positions, positions[1:]))
    layer_spans = [(lo, hi - 1) for lo, hi in zip(layers, layers[1:])]
    calls = (
        [(l, p) for l in layer_spans for p in pos_spans]
        if layer_major
        else [(l, p) for p in pos_spans for l in layer_spans]
    )
    top = {}
    for (l0, l1), (p0, p1) in calls:
        out = model.forward_range(state, l0, l1, p0, p1)
        if l1 == N_LAYERS:
            top[p0] = out
    got = np.concatenate([top[p0] for p0, _ in pos_spans])

    assert np.array_equal(got, expected)
    assert state.fills() == whole.fills()
    for mine, theirs in zip(_buffers(state), _buffers(whole)):
        assert np.array_equal(mine, theirs)


def test_one_position_steps_equal_one_prefill_past_128():
    # One-position passes take the vector path and attention's one-query
    # branch; here their prefixes cross 8 and 128, which the cases above do not.
    model = ToyTransformer(
        ModelConfig(n_layers=N_LAYERS, d_model=16, n_heads=2, vocab_size=12, max_seq_len=160, seed=7)
    )
    tokens = np.random.default_rng(7).integers(0, model.vocab_size, 140).tolist()
    every_layer = range(1, N_LAYERS + 1)
    steps, whole = model.new_state(every_layer), model.new_state(every_layer)
    for state in (steps, whole):
        state.set_tokens(tokens)
    model.forward_range(whole, 1, N_LAYERS, 0, len(tokens))
    for pos in range(len(tokens)):
        model.forward_range(steps, 1, N_LAYERS, pos, pos + 1)
    assert steps.fills() == whole.fills()
    for mine, theirs in zip(_buffers(steps), _buffers(whole)):
        assert np.array_equal(mine, theirs), CONTRACT.format(
            what="140 one-position passes and one 140-position pass"
        )


@pytest.mark.parametrize("d", [8, 16, 32, 64])
def test_stacked_matmul_equals_per_row_products(d):
    rng = np.random.default_rng(d)
    for shape in [(d, d), (d, 3 * d), (d, 4 * d), (4 * d, d)]:
        w = rng.normal(size=shape)
        for n in (1, 2, 3, 7):
            x = rng.normal(size=(n, shape[0]))
            per_row = np.stack([row @ w for row in x])
            # The model's stacked rows: a span of n positions as (n, 1, d).
            assert np.array_equal((x[:, None, :] @ w)[:, 0], per_row), CONTRACT.format(
                what=f"stacked ({n}, 1, {shape[0]}) @ {shape} and per-row x @ W"
            )


@pytest.mark.parametrize("d", [1, 7, 8, 9, 64, 127, 128, 129, 200])
def test_vector_norm_equals_its_row_of_stacked_norm(d):
    # A one-position pass norms a (d,) vector with scalar ops after the sum;
    # d crosses the pairwise sum's blocks of 8 and 128.
    rng = np.random.default_rng(d)
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        rows = rng.normal(scale=scale, size=(5, 1, d))
        stacked = _rms_norm(rows)
        for i in range(len(rows)):
            assert np.array_equal(_rms_norm(rows[i, 0].copy()), stacked[i, 0]), CONTRACT.format(
                what=f"the norm of a ({d},) vector at scale {scale} and its row of (5, 1, {d})"
            )


def _per_head_loop(keys, values, q, prefix):
    """Softmax attention of one query at one prefix, one head at a time."""
    n_heads, d_head = q.shape[:2]
    out = np.empty((n_heads, d_head))
    for h in range(n_heads):
        scores = (keys[:prefix, h, :] @ q[h, :, 0]) * (1.0 / np.sqrt(d_head))
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[h] = w @ values[:prefix, h, :]
    return out


@pytest.mark.parametrize("n_heads, d_head", [(1, 16), (2, 8), (4, 4), (4, 16), (8, 8)])
def test_head_batched_attention_equals_head_loop(n_heads, d_head):
    rng = np.random.default_rng(n_heads * d_head)
    d = n_heads * d_head
    # Caches laid out as in LayeredState: one (max_seq_len, d_model) array per layer.
    kv_k, kv_v = rng.normal(size=(2, 160, d))
    keys = kv_k.reshape(-1, n_heads, d_head)
    values = kv_v.reshape(-1, n_heads, d_head)
    # Prefixes cross 8 and 128, where numpy's pairwise sum changes its blocking;
    # n = 1 takes the one-query branch.
    for n in (0, 1, 3, 16):
        for start_pos in (0, 6, 30, 120, 127, 140):
            # Rows of the fused QKV product, viewed per head as in the model.
            q = rng.normal(size=(n, 3 * d))[:, :d].reshape(-1, n_heads, d_head, 1)
            span = _attend_span(
                keys.transpose(1, 0, 2), values.transpose(1, 0, 2), q, start_pos
            )
            assert span.shape == (n, n_heads, 1, d_head)
            for i in range(n):
                prefix = start_pos + i + 1
                loop = _per_head_loop(keys, values, q[i], prefix)
                assert np.array_equal(span[i, :, 0, :], loop), CONTRACT.format(
                    what=f"span attention and the per-head loop ({n_heads} heads, "
                    f"{n} positions from {start_pos}, prefix {prefix})"
                )
