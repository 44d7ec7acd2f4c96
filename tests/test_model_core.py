import numpy as np
import pytest

from specdec import AlignmentError, ConfigError, LayeredState, ModelConfig, ToyTransformer


def make_config(**overrides):
    params = dict(n_layers=8, d_model=32, n_heads=4, vocab_size=64, max_seq_len=64, seed=1)
    params.update(overrides)
    return ModelConfig(**params)


PROMPT = [3, 14, 15, 9, 26, 5]


def full_forward(backend, tokens, end_layer=None):
    state = backend.new_state(buffered_layers=(backend.n_layers,))
    state.set_tokens(tokens)
    end = end_layer or backend.n_layers
    return backend.forward_range(state, 1, end, 0, len(tokens)), state


class TestModelConfig:
    def test_too_few_layers(self):
        with pytest.raises(ConfigError, match="n_layers must be >= 3"):
            make_config(n_layers=2)

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError, match="not divisible"):
            make_config(d_model=30, n_heads=4)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            make_config(vocab_size=3)

    @pytest.mark.parametrize("field", ["d_model", "n_heads", "max_seq_len"])
    def test_zero_size_is_named(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be positive$"):
            make_config(**{field: 0})


class TestDeterminism:
    def test_same_seed_same_logits(self):
        a = ToyTransformer(make_config())
        b = ToyTransformer(make_config())
        ha, _ = full_forward(a, PROMPT)
        hb, _ = full_forward(b, PROMPT)
        assert np.array_equal(ha, hb)

    def test_different_seed_differs(self):
        a = ToyTransformer(make_config())
        b = ToyTransformer(make_config(seed=2))
        ha, _ = full_forward(a, PROMPT)
        hb, _ = full_forward(b, PROMPT)
        assert not np.array_equal(ha, hb)


class TestForwardRange:
    def test_split_equals_monolithic_bitwise(self):
        backend = ToyTransformer(make_config())
        whole, _ = full_forward(backend, PROMPT)
        for split in range(1, backend.n_layers):
            state = backend.new_state(buffered_layers=(split, backend.n_layers))
            state.set_tokens(PROMPT)
            backend.forward_range(state, 1, split, 0, len(PROMPT))
            parts = backend.forward_range(state, split + 1, backend.n_layers, 0, len(PROMPT))
            assert np.array_equal(parts, whole), f"split at layer {split} diverged"

    def test_position_split_equals_monolithic_bitwise(self):
        backend = ToyTransformer(make_config())
        every_layer = range(1, backend.n_layers + 1)
        states = []
        for cuts in ((0, len(PROMPT)), (0, 1, 3, len(PROMPT))):
            state = backend.new_state(buffered_layers=every_layer)
            state.set_tokens(PROMPT)
            output = np.concatenate(
                [
                    backend.forward_range(state, 1, backend.n_layers, start, end)
                    for start, end in zip(cuts, cuts[1:])
                ]
            )
            states.append((output, state))
        (whole, whole_state), (parts, state) = states
        assert np.array_equal(parts, whole)
        for layer in every_layer:
            assert np.array_equal(state.kv_k[layer - 1], whole_state.kv_k[layer - 1])
            assert np.array_equal(state.kv_v[layer - 1], whole_state.kv_v[layer - 1])
            assert np.array_equal(state.hidden[layer], whole_state.hidden[layer])

    def test_causality_under_truncation(self):
        backend = ToyTransformer(make_config())
        whole, _ = full_forward(backend, PROMPT)
        shorter, _ = full_forward(backend, PROMPT[:4])
        assert np.array_equal(whole[:4], shorter)

    def test_missing_resume_hidden_is_alignment_error(self):
        backend = ToyTransformer(make_config())
        state = backend.new_state(buffered_layers=(backend.n_layers,))
        state.set_tokens(PROMPT)
        with pytest.raises(AlignmentError, match="layer 2"):
            backend.forward_range(state, 3, 5, 0, len(PROMPT))

    def test_non_contiguous_span_is_alignment_error(self):
        backend = ToyTransformer(make_config())
        state = backend.new_state(buffered_layers=(backend.n_layers,))
        state.set_tokens(PROMPT)
        with pytest.raises(AlignmentError, match="expected"):
            backend.forward_range(state, 1, 2, 3, len(PROMPT))

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize(
        "state_model, tokens, layers, match",
        [
            (None, PROMPT, (1, 2), "state d_model None is not the model's"),
            (dict(d_model=32), PROMPT, (1, 2), "state d_model 32 is not the model's"),
            (dict(n_layers=5), PROMPT, (1, 2), "state n_layers 5 is not the model's"),
            ({}, PROMPT, (0, 2), r"invalid layer range \[0, 2\] for 4 layers"),
            ({}, PROMPT, (5, 5), r"invalid layer range \[5, 5\] for 4 layers"),
            # At width 1 these two are one-position passes at layer 1.
            ({}, [], (1, 1), "no token recorded at position {last}$"),
            ({}, [64, *PROMPT[1:]], (1, 1), "token 64 outside vocabulary$"),
        ],
        ids=[
            "tensorless", "d_model", "n_layers", "layers-0-2", "layers-5-5",
            "past-the-tokens", "token-outside-vocabulary",
        ],
    )
    def test_rejected_call_leaves_the_state_untouched(
        self, state_model, tokens, layers, match, width
    ):
        # A 4-layer model with vocabulary 64; each state is made by a model
        # with the overrides applied, or has no tensors (None). Layer 4 is not buffered.
        shape = dict(n_layers=4, d_model=16)
        backend = ToyTransformer(make_config(**shape))
        if state_model is None:
            state = LayeredState(4, 64, buffered_layers=(2,))
        else:
            state = ToyTransformer(make_config(**{**shape, **state_model})).new_state((2,))
        state.set_tokens(tokens)
        fills = state.fills()
        with pytest.raises(AlignmentError, match=match.format(last=width - 1)):
            backend.forward_range(state, *layers, 0, width)
        assert state.fills() == fills
        assert state.tokens == tokens

    def test_negative_exit_position_is_alignment_error(self):
        # Row -1 of a hidden buffer is its last, zero row: never a valid read.
        backend = ToyTransformer(make_config())
        _, state = full_forward(backend, PROMPT)
        with pytest.raises(AlignmentError, match="position -1"):
            backend.exit_distribution(state, backend.n_layers, -1)

    @pytest.mark.parametrize("layer", [0, -1, 9])
    def test_exit_layer_outside_the_stack_is_named(self, layer):
        backend = ToyTransformer(make_config())
        _, state = full_forward(backend, PROMPT)
        with pytest.raises(AlignmentError, match=f"no hidden buffer at layer {layer}$"):
            backend.exit_distribution(state, layer, 2)


def textbook_exit_logits(model, tokens):
    """The exit logits of `model` at every layer and position of `tokens`,
    shaped (layers, positions, vocab): a plain transformer forward over the
    model's public weights that shares no kernel with `model.py`."""

    def norm(x):  # RMS norm, the epsilon inside the square root
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)

    n, d, n_heads = len(tokens), model.d_model, model.config.n_heads
    d_head = d // n_heads
    causal = np.tril(np.ones((n, n), dtype=bool))  # query i sees keys 0..i
    x = model.embedding[tokens] + model.pos_table[:n]
    logits = []
    for w_qkv, w_o, w_up, w_down in model.layers:
        q, k, v = (m.reshape(n, n_heads, d_head) for m in np.split(norm(x) @ w_qkv, 3, axis=-1))
        scores = np.einsum("qhe,khe->hqk", q, k) / np.sqrt(d_head)
        scores = np.where(causal, scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        x = x + np.einsum("hqk,khe->qhe", weights, v).reshape(n, d) @ w_o
        up = norm(x) @ w_up
        x = x + (up / (1.0 + np.exp(-up))) @ w_down  # SiLU
        logits.append(norm(x) @ model.unembedding)  # the shared head after a final norm
    return np.stack(logits)


class TestTextbookReference:
    """The toy matches a transformer written from the textbook, not only
    itself: a kernel bug that every toy path shares fails here."""

    @pytest.mark.parametrize("seed", range(40))
    def test_exit_logits_match_at_every_layer_and_position(self, seed):
        rng = np.random.default_rng(seed)
        n_heads, n_tokens = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        config = ModelConfig(
            n_layers=int(rng.integers(3, 9)),
            d_model=n_heads * int(rng.integers(1, 17)),
            n_heads=n_heads,
            vocab_size=int(rng.integers(4, 64)),
            max_seq_len=n_tokens + int(rng.integers(0, 8)),
            seed=seed,
        )
        model = ToyTransformer(config)
        tokens = [int(t) for t in rng.integers(0, config.vocab_size, size=n_tokens)]
        layers = range(1, config.n_layers + 1)
        state = model.new_state(buffered_layers=layers)
        state.set_tokens(tokens)
        start = 0
        while start < n_tokens:  # random position chunks through every layer
            end = min(n_tokens, start + int(rng.integers(1, 9)))
            model.forward_range(state, 1, config.n_layers, start, end)
            start = end
        got = np.array(
            [[model.exit_distribution(state, l, p).logits for p in range(n_tokens)] for l in layers]
        )
        want = textbook_exit_logits(model, tokens)
        assert (abs(got - want).max(axis=-1) <= 1e-12 * abs(want).max(axis=-1)).all()
        assert np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1))


class TestExitLogits:
    def test_zero_hidden_gives_uniform_logits_and_tiebreak(self):
        backend = ToyTransformer(make_config())
        logits = backend.exit_logits(np.zeros(32))
        assert isinstance(logits, np.ndarray) and logits.shape == (64,)
        assert np.allclose(logits, logits[0])
        assert int(logits.argmax()) == 0

    def test_exit_distribution_reads_the_shared_head(self):
        # Every buffered exit reads the one head: its distribution is the
        # head's logits of the exit's hidden row, bit for bit.
        backend = ToyTransformer(make_config())
        state = backend.new_state(buffered_layers=(2, 7))
        state.set_tokens(PROMPT)
        backend.forward_range(state, 1, 7, 0, len(PROMPT))
        for layer in (2, 7):
            dist = backend.exit_distribution(state, layer, 4)
            logits = backend.exit_logits(state.hidden_at(layer, 4))
            assert np.array_equal(dist.logits, logits)
            assert (dist.position, dist.source_layer) == (4, layer)

    def test_golden_argmax_snapshot(self):
        # Frozen from a deterministic run of this exact configuration.
        backend = ToyTransformer(make_config())
        hiddens, _ = full_forward(backend, PROMPT)
        assert int(backend.exit_logits(hiddens[-1]).argmax()) == 1

    def test_wrong_width_rejected(self):
        backend = ToyTransformer(make_config())
        with pytest.raises(AlignmentError):
            backend.exit_logits(np.zeros(31))
