import numpy as np
import pytest

from specdec import AlignmentError, ConfigError, ModelConfig, init_model


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


class TestDeterminism:
    def test_same_seed_same_logits(self):
        a = init_model(make_config())
        b = init_model(make_config())
        ha, _ = full_forward(a, PROMPT)
        hb, _ = full_forward(b, PROMPT)
        assert np.array_equal(ha, hb)

    def test_different_seed_differs(self):
        a = init_model(make_config())
        b = init_model(make_config(seed=2))
        ha, _ = full_forward(a, PROMPT)
        hb, _ = full_forward(b, PROMPT)
        assert not np.array_equal(ha, hb)


class TestForwardRange:
    def test_split_equals_monolithic_bitwise(self):
        backend = init_model(make_config())
        whole, _ = full_forward(backend, PROMPT)
        for split in range(1, backend.n_layers):
            state = backend.new_state(buffered_layers=(split, backend.n_layers))
            state.set_tokens(PROMPT)
            backend.forward_range(state, 1, split, 0, len(PROMPT))
            parts = backend.forward_range(state, split + 1, backend.n_layers, 0, len(PROMPT))
            assert np.array_equal(parts, whole), f"split at layer {split} diverged"

    def test_position_split_equals_monolithic_bitwise(self):
        backend = init_model(make_config())
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
        backend = init_model(make_config())
        whole, _ = full_forward(backend, PROMPT)
        shorter, _ = full_forward(backend, PROMPT[:4])
        assert np.array_equal(whole[:4], shorter)

    def test_missing_resume_hidden_is_alignment_error(self):
        backend = init_model(make_config())
        state = backend.new_state(buffered_layers=(backend.n_layers,))
        state.set_tokens(PROMPT)
        with pytest.raises(AlignmentError, match="layer 2"):
            backend.forward_range(state, 3, 5, 0, len(PROMPT))

    def test_non_contiguous_span_is_alignment_error(self):
        backend = init_model(make_config())
        state = backend.new_state(buffered_layers=(backend.n_layers,))
        state.set_tokens(PROMPT)
        with pytest.raises(AlignmentError, match="expected"):
            backend.forward_range(state, 1, 2, 3, len(PROMPT))


class TestExitLogits:
    def test_zero_hidden_gives_uniform_logits_and_tiebreak(self):
        backend = init_model(make_config())
        dist = backend.exit_logits(np.zeros(32), position=0, source_layer=3)
        assert np.allclose(dist.logits, dist.logits[0])
        assert dist.argmax() == 0

    def test_head_is_shared_across_layers(self):
        backend = init_model(make_config())
        hidden = np.linspace(-1.0, 1.0, 32)
        a = backend.exit_logits(hidden, position=0, source_layer=2)
        b = backend.exit_logits(hidden, position=0, source_layer=7)
        assert np.array_equal(a.logits, b.logits)

    def test_golden_argmax_snapshot(self):
        # Frozen from a deterministic run of this exact configuration.
        backend = init_model(make_config())
        hiddens, _ = full_forward(backend, PROMPT)
        dist = backend.exit_logits(hiddens[-1], position=len(PROMPT) - 1, source_layer=8)
        assert dist.argmax() == 1

    def test_wrong_width_rejected(self):
        backend = init_model(make_config())
        with pytest.raises(AlignmentError):
            backend.exit_logits(np.zeros(31), position=0, source_layer=1)
