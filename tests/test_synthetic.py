import random
import tracemalloc

import numpy as np
import pytest

from specdec import (
    AlignmentError,
    ConfigError,
    ModelConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    TokenDistribution,
    ToyTransformer,
    calibrate_preset,
    speculative_decode,
    vanilla_decode,
)
from specdec.synthetic import PRESET_NAMES, interpolated_profile, mix64, uniform_profile

from conftest import decode_record, predict_token, reference_draw


def make_backend(n_layers=8, vocab=64, seed=7, profile=None):
    profile = profile or uniform_profile(n_layers, 0.5)
    return SyntheticBackend(
        SyntheticModelSpec(
            n_layers=n_layers, vocab_size=vocab, seed=seed, agreement_profile=profile
        )
    )


class TestSpecValidation:
    def test_final_layer_alpha_must_be_one(self):
        profile = uniform_profile(8, 0.5)
        profile[8] = 0.9
        with pytest.raises(ConfigError, match="final layer"):
            SyntheticModelSpec(n_layers=8, vocab_size=16, seed=0, agreement_profile=profile)

    def test_profile_must_cover_all_layers(self):
        with pytest.raises(ConfigError, match="every layer"):
            SyntheticModelSpec(n_layers=8, vocab_size=16, seed=0, agreement_profile={8: 1.0})

    @pytest.mark.parametrize("max_seq_len", [0, -1])
    def test_max_seq_len_must_be_positive(self, max_seq_len):
        # Rejected at construction, not at the backend's first new_state.
        with pytest.raises(ConfigError, match="max_seq_len"):
            SyntheticModelSpec(
                n_layers=8, vocab_size=16, seed=0, agreement_profile=uniform_profile(8, 1.0),
                max_seq_len=max_seq_len,
            )


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_layers", 2, "n_layers must be >= 3"),
            ("vocab_size", 3, "vocab_size must be >= 4"),
            ("context_window", 0, "context_window must be positive"),
            ("agreement_profile", {**uniform_profile(8, 0.5), 3: 1.5}, r"alpha\(3\) outside \[0, 1\]"),
        ],
        ids=["n_layers", "vocab_size", "context_window", "alpha"],
    )
    def test_bad_field_is_named(self, field, value, message):
        spec = dict(n_layers=8, vocab_size=16, seed=0, agreement_profile=uniform_profile(8, 0.5))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SyntheticModelSpec(**{**spec, field: value})


def exit_tokens(backend, context):
    """What every exit of `backend` predicts after `context`, layer 1 first,
    the tokens `exit_distribution` answers on a state filled over `context`."""
    state = backend.new_state()
    state.set_tokens(context)
    backend.forward_range(state, 1, backend.n_layers, 0, len(context))
    return [
        backend.exit_distribution(state, layer, len(context) - 1)
        for layer in range(1, backend.n_layers + 1)
    ]


class TestPredictions:
    def test_pure_function_across_instances(self):
        a = make_backend(seed=21)
        b = make_backend(seed=21)
        ctx = [5, 1, 2, 9, 9]
        expected = [predict_token(a, layer, ctx) for layer in range(1, 9)]
        assert exit_tokens(a, ctx) == exit_tokens(b, ctx) == expected

    def test_full_agreement_always_matches_truth(self):
        backend = make_backend(profile=uniform_profile(8, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            ctx = [int(t) for t in rng.integers(0, 64, size=5)]
            assert exit_tokens(backend, ctx) == [predict_token(backend, 8, ctx)] * 8

    def test_zero_agreement_never_matches_truth(self):
        profile = uniform_profile(8, 0.0)
        backend = make_backend(profile=profile)
        rng = np.random.default_rng(1)
        for _ in range(200):
            ctx = [int(t) for t in rng.integers(0, 64, size=5)]
            *tokens, truth = exit_tokens(backend, ctx)
            assert truth == predict_token(backend, 8, ctx)
            assert truth not in tokens

    @pytest.mark.parametrize("alpha, n_layers", [(1.0, 4), (0.999, 4), (1.0, 8)])
    def test_a_draw_of_one_agrees_only_where_alpha_is_one(self, alpha, n_layers):
        # The shared draw is a 64-bit hash over 2**64, which rounds to exactly
        # 1.0 for the top 1024 values; it must not turn an alpha of 1.0 into a decoy.
        backend = make_backend(n_layers=n_layers, profile=uniform_profile(n_layers, alpha))
        state = backend.new_state()
        state.set_tokens([1, 2, 3])
        backend.forward_range(state, 1, n_layers, 0, 3)
        backend._window_cache[(1, 2, 3)] = (5, 1.0, 6)
        tokens = [backend.exit_distribution(state, l, 2) for l in range(1, n_layers + 1)]
        assert tokens == [5 if alpha == 1.0 else 6] * (n_layers - 1) + [5]

    def test_monte_carlo_agreement_tracks_profile(self):
        # alpha(l) = l / n_layers, 10k contexts, within +/-2% absolute.
        n_layers = 8
        profile = {l: l / n_layers for l in range(1, n_layers + 1)}
        backend = make_backend(seed=13, profile=profile)
        rng = np.random.default_rng(99)
        contexts = [[int(t) for t in rng.integers(0, 64, size=6)] for _ in range(10_000)]
        predictions = [exit_tokens(backend, c) for c in contexts]
        for layer in range(1, n_layers):
            hits = sum(1 for tokens in predictions if tokens[layer - 1] == tokens[-1])
            assert abs(hits / len(contexts) - profile[layer]) < 0.02

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_exit_queries_match_the_hash_construction(self, preset):
        # Every layer and position of seeded contexts, the first positions'
        # windows shorter than context_window; each window is asked twice, so
        # both a cache miss and a cache hit are checked.
        backend = SyntheticBackend(calibrate_preset(preset, seed=11))
        rng = np.random.default_rng(2024)
        for _ in range(6):
            size = int(rng.integers(1, 9))
            ctx = [int(t) for t in rng.integers(0, backend.vocab_size, size=size)]
            state = backend.new_state()
            state.set_tokens(ctx)
            backend.forward_range(state, 1, backend.n_layers, 0, size)
            for _ in range(2):
                for layer in range(1, backend.n_layers + 1):
                    got = [backend.exit_distribution(state, layer, p) for p in range(size)]
                    want = [predict_token(backend, layer, ctx[: p + 1]) for p in range(size)]
                    assert got == want

    @pytest.mark.parametrize("vocab", [4, 1000, 2**40])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_cold_exit_queries_match_the_hash_construction(self, vocab, seed):
        # Every query goes to a fresh backend, so each is a first-time miss:
        # at every layer, with alphas that give both truths and decoys, and
        # at the first positions, whose windows are shorter than context_window.
        profile = {l: l / 8 for l in range(1, 9)}
        spec = SyntheticModelSpec(n_layers=8, vocab_size=vocab, seed=seed, agreement_profile=profile)
        rng = np.random.default_rng(31)
        for size in (1, 3, 6):
            ctx = [int(t) for t in rng.integers(0, vocab, size=size)]
            ctx[-1] = vocab - 1
            state = SyntheticBackend(spec).new_state()
            state.set_tokens(ctx)
            state.advance(1, 8, 0, size)
            for layer in range(1, 9):
                for p in range(size):
                    cold = SyntheticBackend(spec)
                    got = cold.exit_distribution(state, layer, p)
                    assert got == predict_token(cold, layer, ctx[: p + 1])
                    assert len(cold._window_cache) == 1

    @pytest.mark.parametrize("context_window", [1, 4, 7])
    @pytest.mark.parametrize("vocab", [4, 256, 2**40])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_draw_equals_the_mix64_reference(self, context_window, vocab, seed):
        # Every window length up to context_window, over the edge tokens and
        # random ones. Cold: each window on a fresh backend, all caches empty.
        # Warm: one backend for all windows, asked again once the window cache
        # is cleared, so the token caches serve every fold step.
        spec = SyntheticModelSpec(
            n_layers=4, vocab_size=vocab, seed=seed, agreement_profile=uniform_profile(4, 0.5),
            context_window=context_window,
        )
        rng = random.Random(context_window * vocab + seed)
        edges = (0, 1, vocab - 1)
        windows = [
            tuple(rng.choice(edges) if rng.random() < 0.5 else rng.randrange(vocab) for _ in range(n))
            for n in range(1, context_window + 1)
            for _ in range(12)
        ] + [(token,) * context_window for token in edges]
        warm = SyntheticBackend(spec)
        for window in windows:
            want = reference_draw(spec, window)
            assert SyntheticBackend(spec)._draw(window) == want
            assert warm._draw(window) == want
        warm._window_cache.clear()
        assert [warm._draw(window) for window in windows] == [reference_draw(spec, w) for w in windows]

    def test_exit_distribution_matches_predict_token(self):
        backend = make_backend()
        state = backend.new_state()
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 4)
        direct = predict_token(backend, 3, [4, 5, 6, 7])
        via_state = backend.exit_distribution(state, 3, 3)
        # The answer is the token itself, a plain int.
        assert type(via_state) is int and via_state == direct

    def test_negative_exit_position_is_alignment_error(self):
        # Position -1 would predict from an empty context window.
        backend = make_backend()
        state = backend.new_state()
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 4)
        with pytest.raises(AlignmentError, match="position -1"):
            backend.exit_distribution(state, 3, -1)

    @pytest.mark.parametrize("layer", [0, -1, 9])
    def test_exit_layer_outside_the_stack_is_named(self, layer):
        # Layer 0 or -1 would read the fill of the last layer.
        backend = make_backend()
        state = backend.new_state()
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 4)
        with pytest.raises(AlignmentError, match=rf"no exit at layer {layer}: layers are 1\.\.8"):
            backend.exit_distribution(state, layer, 3)
        # The layer is named first, even where no fill covers the position.
        with pytest.raises(AlignmentError, match=rf"no exit at layer {layer}: layers are 1\.\.8"):
            backend.exit_distribution(state, layer, 4)


class TestExitQueryFill:
    """An exit query reads only positions its layer has computed."""

    def new_backend(self):
        return make_backend()

    def missing(self, layer, position):
        return rf"^missing hidden state at \(layer {layer}, position {position}\)$"

    def test_position_at_the_fill_is_missing(self):
        backend = self.new_backend()
        state = backend.new_state(range(1, 9))
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 3)
        backend.exit_distribution(state, 3, 2)
        with pytest.raises(AlignmentError, match=self.missing(3, 3)):
            backend.exit_distribution(state, 3, 3)

    def test_deep_layer_lagging_a_shallow_one_is_missing(self):
        backend = self.new_backend()
        state = backend.new_state(range(1, 9))
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 2, 0, 4)
        backend.forward_range(state, 3, 8, 0, 2)
        backend.exit_distribution(state, 2, 3)
        backend.exit_distribution(state, 5, 1)
        with pytest.raises(AlignmentError, match=self.missing(5, 2)):
            backend.exit_distribution(state, 5, 2)
        with pytest.raises(AlignmentError, match=self.missing(8, 3)):
            backend.exit_distribution(state, 8, 3)

    def test_pruned_position_is_missing_though_its_token_is_back(self):
        backend = self.new_backend()
        state = backend.new_state(range(1, 9))
        state.set_tokens([4, 5, 6, 7])
        backend.forward_range(state, 1, 8, 0, 4)
        state.prune_all(2)
        state.append_token(6)
        state.append_token(7)
        backend.exit_distribution(state, 3, 1)
        for layer in (1, 3, 8):
            with pytest.raises(AlignmentError, match=self.missing(layer, 2)):
                backend.exit_distribution(state, layer, 2)


class TestToyExitQueryFill(TestExitQueryFill):
    """The same queries on the toy transformer, every layer buffered: it
    reads a hidden row, which past the fill is zero rather than absent."""

    def new_backend(self):
        config = ModelConfig(n_layers=8, d_model=8, n_heads=2, vocab_size=8, max_seq_len=8, seed=5)
        return ToyTransformer(config)


class FlipFullDepthToken:
    """Backend proxy that answers every full-depth exit query with a one-hot
    distribution built from the token, and at one position puts another
    token on top."""

    def __init__(self, backend, position):
        self._backend = backend
        self._position = position

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def exit_distribution(self, state, layer, position):
        token = self._backend.exit_distribution(state, layer, position)
        if layer != self._backend.n_layers:
            return token
        logits = np.zeros(self._backend.vocab_size)
        logits[token] = 1.0
        if position == self._position:
            logits[(token + 1) % len(logits)] = logits.max() + 1.0
        return TokenDistribution(logits, position, layer, degenerate=True)


class NumpyTokens:
    """Backend proxy whose exits answer with the token as `np.int64`. A
    numpy scalar has an `argmax()` too, which returns 0."""

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def exit_distribution(self, state, layer, position):
        return np.int64(self._backend.exit_distribution(state, layer, position))


class TestOneHotDistribution:
    def test_fields_are_read_only(self):
        dist = TokenDistribution(np.array([0.0, 1.0, 0.0, 0.0]), 0, 1, degenerate=True)
        for name, value in [("logits", np.zeros(4)), ("position", 1), ("degenerate", False)]:
            with pytest.raises(AttributeError):
                setattr(dist, name, value)

    @pytest.mark.parametrize("flip", [False, True])
    def test_logits_rewriting_proxy_sees_the_one_hot(self, oracle_backend, flip):
        # The proxy answers at full depth with one-hot logits built from the
        # token; unflipped it must change nothing, flipped the decode must differ.
        prompt = [3, 1, 4, 1, 5]
        vanilla = vanilla_decode(oracle_backend, prompt, 12).tokens
        proxy = FlipFullDepthToken(oracle_backend, len(prompt) if flip else None)
        result = speculative_decode(proxy, prompt, (2, 4, 8), (2, 2), 12).tokens
        assert speculative_decode(oracle_backend, prompt, (2, 4, 8), (2, 2), 12).tokens == vanilla
        assert (result != vanilla) is flip
        if flip:
            # Position len(prompt) predicts the second generated token.
            assert result[0] == vanilla[0]
            assert result[1] == (vanilla[1] + 1) % oracle_backend.vocab_size


class TestExitAnswers:
    @pytest.mark.parametrize(
        "exits, bursts", [((8,), ()), ((3, 8), (2,)), ((2, 4, 8), (2, 2)), ((1, 3, 5, 8), (1, 2, 3))]
    )
    def test_numpy_integer_answers_are_tokens(self, oracle_backend, exits, bursts):
        # Only a TokenDistribution is read through argmax(): a numpy integer
        # answer is the token, so the decode equals the plain backend's.
        prompt = [3, 1, 4, 1, 5]
        plain = speculative_decode(oracle_backend, prompt, exits, bursts, 24, eos_token=9)
        numpy = speculative_decode(NumpyTokens(oracle_backend), prompt, exits, bursts, 24, eos_token=9)
        assert numpy.tokens == plain.tokens
        assert numpy.trace.records == plain.trace.records
        assert numpy.trace.finalize_processed == plain.trace.finalize_processed


class TestPresets:
    def test_quarter_depth_anchor(self):
        spec = calibrate_preset("quarter-depth-69", n_layers=32)
        assert spec.alpha(8) == 0.69
        assert spec.alpha(32) == 1.0
        assert all(spec.alpha(l) <= spec.alpha(l + 1) + 1e-12 for l in range(1, 32))

    def test_quarter_depth_keeps_three_anchors_at_9_layers(self):
        spec = calibrate_preset("quarter-depth-69", n_layers=9)
        assert [spec.alpha(l) for l in (1, 2, 3, 9)] == [0.01, 0.55, 0.69, 1.0]

    @pytest.mark.parametrize("n_layers", range(3, 9))
    def test_quarter_depth_needs_9_layers(self, n_layers):
        # Below 9 layers the eighth-depth anchor (or at 3-4 the quarter-depth
        # one) would land on layer 1 and overwrite its alpha.
        with pytest.raises(ConfigError, match="^quarter-depth-69 preset needs at least 9 layers$"):
            calibrate_preset("quarter-depth-69", n_layers=n_layers)

    def test_llama70b_anchors(self):
        spec = calibrate_preset("llama70b-sharegpt")
        assert spec.n_layers == 80
        assert spec.alpha(10) == 0.397
        assert spec.alpha(20) == 0.581
        assert spec.alpha(80) == 1.0

    def test_tensorless_state_does_not_grow_with_max_seq_len(self):
        # A state of the 80-layer, 4096-position preset keeps its fills and
        # nothing per position: an (n_layers, max_seq_len) array would be 1.3 MB.
        backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt"))
        assert backend.max_seq_len == 4096
        tracemalloc.start()
        try:
            state = backend.new_state(buffered_layers=(10, 20, 80))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.n_layers == 80
        assert peak < 64 * 1024

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="quarter-depth-69.*llama70b-sharegpt"):
            calibrate_preset("nope")


class TestVocabularySize:
    # A backend's cost must not depend on vocab_size: the first fold step and
    # the token operands are cached per token on first use, never built per
    # vocabulary entry.

    def test_fresh_token_caches_are_empty(self):
        backend = make_backend(vocab=2**40)
        assert backend._first_fold == {} and backend._token_operand == {}

    def test_token_caches_hold_only_queried_tokens(self):
        backend = make_backend(vocab=2**40)
        state = backend.new_state()
        state.set_tokens([9, 2**40 - 1, 9, 5, 7, 3])
        backend.forward_range(state, 1, 8, 0, 6)
        for position in (0, 1, 4):
            backend.exit_distribution(state, 3, position)
        # Windows (9,), (9, 2**40 - 1) and (2**40 - 1, 9, 5, 7): the first
        # tokens start a fold, the later ones are folded in.
        assert set(backend._first_fold) == {9, 2**40 - 1}
        assert set(backend._token_operand) == {2**40 - 1, 9, 5, 7}

    def test_selfspec_decode_on_a_vocabulary_of_2_to_the_40(self):
        backend = make_backend(vocab=2**40)
        prompt = [2**40 - 1, 0, 12345678901]
        result = speculative_decode(backend, prompt, (2, 8), (3,), 24)
        assert result.tokens == vanilla_decode(backend, prompt, 24).tokens
        assert len(result.tokens) == 24 and all(0 <= t < 2**40 for t in result.tokens)


class TestProfiles:
    @pytest.mark.parametrize(
        "anchors, expected",
        [
            ({2: 0.2, 6: 0.6, 10: 1.0}, {2: 0.2, 4: 0.4, 6: 0.6, 10: 1.0}),
            # One anchor has no slope: its alpha holds at every layer but the last.
            ({3: 0.4}, {**dict.fromkeys(range(1, 10), 0.4), 10: 1.0}),
        ],
        ids=["three-anchors", "one-anchor"],
    )
    def test_interpolation_hits_anchors_and_clamps(self, anchors, expected):
        profile = interpolated_profile(10, anchors)
        assert all(0.0 <= alpha <= 1.0 for alpha in profile.values())
        for layer, alpha in expected.items():
            assert profile[layer] == pytest.approx(alpha)
        assert profile[10] == 1.0

    def test_interpolation_needs_an_anchor(self):
        with pytest.raises(ConfigError, match="^at least one anchor required$"):
            interpolated_profile(10, {})

    def test_mix64_reference_values(self):
        # fmix64 with the published constants; spot values pin the construction.
        assert mix64(0) == 0
        assert mix64(1) == 12994781566227106604
        assert mix64(2**64 - 1) == 7256831767414464289
