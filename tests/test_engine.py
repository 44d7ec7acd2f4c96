import numpy as np
import pytest

from specdec import (
    AcceptancePolicy,
    CapacityError,
    ConfigError,
    DecodeSession,
    GREEDY,
    HierarchicalConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    TokenDistribution,
    consistency_check,
    default_layer_placement,
    hierarchical_decode,
    replay_ledger,
    selfspec_decode,
    top_predictions,
    vanilla_decode,
)
from specdec.engine import Commit, DraftStep, IntermediateVerify, TargetVerify
from specdec.synthetic import uniform_profile

from conftest import all_agree_backend, random_prompt


def profile_backend(profile, n_layers=8, vocab=32, seed=7, max_seq_len=512):
    return SyntheticBackend(
        SyntheticModelSpec(
            n_layers=n_layers,
            vocab_size=vocab,
            seed=seed,
            agreement_profile=profile,
            max_seq_len=max_seq_len,
        )
    )


class TestTopPredictions:
    def dist(self, logits):
        return TokenDistribution(logits=np.array(logits, dtype=float), position=0, source_layer=1)

    def test_greedy_tiebreak_lowest_id(self):
        assert top_predictions(self.dist([0.1, 3.0, 3.0, -1.0]), GREEDY) == (1,)

    def test_top2_includes_tied_pair(self):
        got = top_predictions(self.dist([0.1, 3.0, 3.0, -1.0]), AcceptancePolicy("top_k", k=2))
        assert set(got) == {1, 2}

    def test_topk_full_vocab_accepts_anything(self):
        got = top_predictions(self.dist([0.1, 3.0, 3.0, -1.0]), AcceptancePolicy("top_k", k=4))
        assert set(got) == {0, 1, 2, 3}


class TestDefaults:
    def test_layer_placement_rule(self):
        assert default_layer_placement(32) == (4, 8)
        assert default_layer_placement(48) == (6, 12)
        assert default_layer_placement(80) == (10, 20)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            HierarchicalConfig(draft_layer=4, intermediate_layer=4, full_layer=8)
        with pytest.raises(ConfigError):
            HierarchicalConfig(draft_layer=0, intermediate_layer=2, full_layer=8)
        with pytest.raises(ConfigError):
            HierarchicalConfig(draft_layer=1, intermediate_layer=2, full_layer=8, draft_len=0)

    def test_defaults_match_paper_style_values(self):
        config = HierarchicalConfig.with_defaults(32)
        assert (config.draft_layer, config.intermediate_layer) == (4, 8)
        assert config.draft_len == 2
        assert config.accept_window == 4


class TestGenerateNext:
    def test_advances_fill_by_n(self, oracle_backend):
        session = DecodeSession(oracle_backend, exits=(2, 4, 8))
        session.prefill([1, 2, 3])
        before = session.state.filled(2)
        tokens, _ = session.generate_next(2)
        assert len(tokens) == 2
        assert session.state.filled(2) == before + 2

    def test_matches_closed_form_draft_oracle(self, oracle_backend):
        # Independent oracle: walk the closed-form argmax chain directly.
        prompt = [4, 9, 2, 2]
        ctx = list(prompt)
        expected = []
        for _ in range(3):
            token = oracle_backend.predict_token(2, ctx)
            expected.append(token)
            ctx.append(token)
        session = DecodeSession(oracle_backend, exits=(2, 4, 8))
        session.prefill(prompt)
        tokens, _ = session.generate_next(3)
        assert tokens == expected

    def test_single_step_at_full_depth_equals_vanilla(self, oracle_backend):
        prompt = [3, 3, 7]
        session = DecodeSession(oracle_backend, exits=(8,))
        session.prefill(prompt)
        tokens, _ = session.generate_next(1)
        assert tokens == vanilla_decode(oracle_backend, prompt, 1).tokens


class TestLeadingSubstringVerify:
    def test_empty_draft_returns_verifier_token(self, oracle_backend):
        prompt = [1, 2, 3, 4]
        session = DecodeSession(oracle_backend, exits=(2, 4, 8))
        session.prefill(prompt)
        accepted, bonus, mismatch, _ = session.leading_substring_verify(
            [], level=1, phase="intermediate_verify", draft_start=len(prompt)
        )
        assert accepted == [] and not mismatch
        assert bonus == oracle_backend.predict_token(4, prompt)

    def test_full_agreement_accepts_all_with_bonus(self):
        backend = all_agree_backend()
        prompt = [5, 6]
        session = DecodeSession(backend, exits=(2, 4, 8))
        session.prefill(prompt)
        drafted, _ = session.generate_next(3)
        accepted, bonus, mismatch, _ = session.leading_substring_verify(
            drafted, level=1, phase="intermediate_verify"
        )
        assert accepted == drafted and not mismatch
        assert bonus == backend.predict_token(4, prompt + drafted)

    def test_prefix_matches_bruteforce_oracle(self):
        # Draft at the bottom layer, verify at a 50% layer; expected prefix
        # comes from enumerating the closed-form argmaxes position by position.
        profile = uniform_profile(8, 0.5)
        profile[4] = 0.5
        backend = profile_backend(profile, seed=7)
        prompt = [9, 1, 4, 4, 2]
        session = DecodeSession(backend, exits=(2, 4, 8))
        session.prefill(prompt)
        drafted, _ = session.generate_next(4)

        ctx = list(prompt)
        expected_prefix = []
        for token in drafted:
            if backend.predict_token(4, ctx) != token:
                break
            expected_prefix.append(token)
            ctx.append(token)
        expected_bonus = backend.predict_token(4, ctx)

        accepted, bonus, mismatch, _ = session.leading_substring_verify(
            drafted, level=1, phase="intermediate_verify"
        )
        assert accepted == expected_prefix
        assert bonus == expected_bonus
        assert mismatch == (len(expected_prefix) < len(drafted))

    def test_mismatch_prunes_rejected_positions(self, oracle_backend):
        prompt = [2, 8, 8]
        session = DecodeSession(oracle_backend, exits=(2, 4, 8))
        session.prefill(prompt)
        drafted, _ = session.generate_next(4)
        accepted, _, mismatch, _ = session.leading_substring_verify(
            drafted, level=1, phase="intermediate_verify"
        )
        if mismatch:
            keep = len(prompt) + len(accepted)
            assert len(session.state.tokens) == keep
            assert session.state.filled(2) == keep
            assert session.state.filled(4) == keep


class TestVanilla:
    def test_deterministic_across_runs(self, toy_backend):
        a = vanilla_decode(toy_backend, [1, 2, 3], 12)
        b = vanilla_decode(toy_backend, [1, 2, 3], 12)
        assert a.tokens == b.tokens

    def test_sequential_cost_is_tokens_times_depth(self):
        backend = all_agree_backend(n_layers=32, max_seq_len=128)
        result = vanilla_decode(backend, [1, 2, 3], 10)
        assert result.ledger.sequential_units() == 10 * 32
        assert result.ledger.phases["prefill"].sequential_depth_units == 32

    def test_perfect_intermediate_layer_decodes_identically(self):
        profile = uniform_profile(8, 0.3)
        profile[4] = 1.0
        backend = profile_backend(profile)
        full = vanilla_decode(backend, [1, 2, 3], 16)
        early = vanilla_decode(backend, [1, 2, 3], 16, layer=4)
        assert full.tokens == early.tokens

    def test_capacity_guard(self, toy_backend):
        with pytest.raises(CapacityError):
            vanilla_decode(toy_backend, [1] * 100, 100)

    def test_eos_stops_decode(self):
        backend = all_agree_backend()
        free = vanilla_decode(backend, [1, 2], 16)
        eos = free.tokens[4]
        stopped = vanilla_decode(backend, [1, 2], 16, eos_token=eos)
        assert stopped.tokens == free.tokens[:5]


class TestSelfspec:
    def test_all_accept_round_cost(self):
        backend = all_agree_backend(n_layers=32, max_seq_len=256)
        result = selfspec_decode(backend, [1, 2, 3], draft_layer=4, draft_len=2, max_new_tokens=24)
        rounds = sum(1 for e in result.trace.events if isinstance(e, TargetVerify))
        assert result.stats.flushed == 0
        # Per round: N_d single-position draft passes + one (L_f - L_d) verify pass.
        assert result.ledger.phases["draft"].sequential_depth_units == rounds * 2 * 4
        assert result.ledger.phases["target_verify"].sequential_depth_units == rounds * (32 - 4)

    def test_zero_agreement_commits_one_per_round(self):
        backend = profile_backend(uniform_profile(8, 0.0), seed=3)
        result = selfspec_decode(backend, [1, 2], draft_layer=2, draft_len=3, max_new_tokens=12)
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        assert all(e.mismatch and len(e.accepted) == 0 for e in verifies)
        commits = [e for e in result.trace.events if isinstance(e, Commit)]
        assert all(len(e.tokens) == 1 for e in commits)

    def test_matches_vanilla_over_many_prompts(self, toy_backend):
        rng = np.random.default_rng(5)
        for _ in range(60):
            prompt = random_prompt(rng, toy_backend.vocab_size)
            want = vanilla_decode(toy_backend, prompt, 16).tokens
            got = selfspec_decode(
                toy_backend, prompt, draft_layer=2, draft_len=2, max_new_tokens=16
            ).tokens
            assert got == want


class TestHierarchical:
    def test_all_accept_structure(self):
        backend = all_agree_backend(n_layers=32, max_seq_len=256)
        config = HierarchicalConfig(
            draft_layer=4, intermediate_layer=8, full_layer=32, draft_len=2,
            accept_window=4, max_new_tokens=24,
        )
        result = hierarchical_decode(backend, [1, 2, 3], config)
        assert result.tokens == vanilla_decode(backend, [1, 2, 3], 24).tokens
        assert result.stats.drafted == result.stats.accepted_intermediate
        assert result.stats.flushed == 0
        # Rounds add draft_len + 1 tokens; the window check fires once the
        # buffer holds >= accept_window, i.e. every two rounds here.
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        per_cycle = 2 * (config.draft_len + 1)
        assert len(verifies) == -(-24 // per_cycle)
        assert all(e.reason in ("window", "budget") for e in verifies)

    def test_forced_path_draft_wrong_intermediate_right(self):
        profile = uniform_profile(8, 0.0)
        profile[4] = 1.0
        backend = profile_backend(profile)
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8, max_new_tokens=16
        )
        result = hierarchical_decode(backend, [1, 2, 3], config)
        # Every draft token is rejected at the intermediate level, every
        # intermediate token is accepted by the full model.
        assert result.stats.accepted_intermediate == 0
        assert result.stats.accepted_target == result.stats.checked_target
        assert result.stats.flushed == 0
        assert result.tokens == vanilla_decode(backend, [1, 2, 3], 16).tokens

    def test_matches_vanilla_over_many_prompts(self, toy_backend):
        rng = np.random.default_rng(6)
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=6, max_new_tokens=16
        )
        for _ in range(60):
            prompt = random_prompt(rng, toy_backend.vocab_size)
            want = vanilla_decode(toy_backend, prompt, 16).tokens
            assert hierarchical_decode(toy_backend, prompt, config).tokens == want

    def test_trace_soundness(self, oracle_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8, max_new_tokens=20
        )
        result = hierarchical_decode(oracle_backend, [7, 7, 1], config)
        assert result.trace.committed_tokens() == result.tokens
        # Every flushed or committed token must originate from a draft
        # acceptance or a bonus emission in a preceding event.
        sourced = []
        for event in result.trace.events:
            if isinstance(event, IntermediateVerify):
                sourced.extend(event.accepted)
                if event.bonus is not None:
                    sourced.append(event.bonus)
            if isinstance(event, TargetVerify):
                take = len(event.accepted) + event.flushed
                assert take <= len(sourced)
                del sourced[:take]
        assert sourced == []

    def test_window_discipline(self, oracle_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8,
            accept_window=4, max_new_tokens=20,
        )
        result = hierarchical_decode(oracle_backend, [2, 4, 6], config)
        for event in result.trace.events:
            if isinstance(event, TargetVerify):
                if event.reason == "window":
                    assert event.presented >= config.accept_window
                else:
                    assert event.reason in ("eos", "budget", "capacity")

    def test_mismatch_flushes_buffer_and_commits_one(self):
        profile = uniform_profile(8, 0.4)
        profile[4] = 0.9  # intermediate often wrong vs target: forces flushes
        backend = profile_backend(profile, seed=17)
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8, max_new_tokens=24
        )
        result = hierarchical_decode(backend, [3, 1, 2], config)
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        mismatches = [e for e in verifies if e.mismatch]
        assert mismatches, "profile should force at least one target mismatch"
        events = result.trace.events
        for event in mismatches:
            assert event.flushed == event.presented - len(event.accepted)
            commit = events[events.index(event) + 1]
            if event.bonus is not None:
                assert commit.tokens[-1] == event.bonus

    def test_buffer_never_exceeds_window_plus_draft(self, oracle_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8,
            draft_len=3, accept_window=5, max_new_tokens=24,
        )
        result = hierarchical_decode(oracle_backend, [1, 5, 9], config)
        for event in result.trace.events:
            if isinstance(event, TargetVerify):
                assert event.presented <= config.accept_window + config.draft_len

    def test_tentative_eos_forces_verification(self):
        backend = all_agree_backend()
        free = vanilla_decode(backend, [1, 2], 20)
        eos = free.tokens[2]
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8,
            accept_window=6, max_new_tokens=20, eos_token=eos,
        )
        result = hierarchical_decode(backend, [1, 2], config)
        assert result.tokens == free.tokens[:3]
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        assert verifies[-1].reason in ("eos", "window")
        assert verifies[-1].presented < config.accept_window or verifies[-1].reason == "window"

    def test_replay_reproduces_ledger(self, oracle_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=8, max_new_tokens=20
        )
        prompt = [4, 4, 4]
        result = hierarchical_decode(oracle_backend, prompt, config)
        replay = replay_ledger(result.trace, len(prompt), (2, 4, 8))
        for phase, cost in result.ledger.phases.items():
            assert cost == replay.phases[phase], phase

    def test_wrong_full_layer_rejected(self, oracle_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=16, max_new_tokens=4
        )
        with pytest.raises(ConfigError, match="full_layer"):
            hierarchical_decode(oracle_backend, [1], config)

    def test_topk_policy_runs_but_is_lossy_by_contract(self, toy_backend):
        # Output equivalence is only claimed for greedy; top-k must still
        # produce a legal decode (right length, in-vocab tokens).
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=6,
            max_new_tokens=12, policy=AcceptancePolicy("top_k", k=3),
        )
        result = hierarchical_decode(toy_backend, [1, 2, 3], config)
        assert len(result.tokens) == 12
        assert all(0 <= t < toy_backend.vocab_size for t in result.tokens)

    def test_corrupted_kv_mid_decode_is_located(self, toy_backend):
        # Corrupt one K/V entry of the full model's level at the second
        # verification boundary; the recompute oracle must name it there.
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=6, max_new_tokens=12
        )
        reports_per_boundary = []
        corrupted = []

        def hook(session):
            state = session.state
            if len(reports_per_boundary) == 1:
                position = state.filled(5) - 2
                state.kv_v[4][position, 3] += 1e-3
                corrupted.append((5, position))
            reports_per_boundary.append(consistency_check(state, toy_backend, state.tokens))

        hierarchical_decode(toy_backend, [8, 1, 30, 4], config, boundary_hook=hook)
        assert len(reports_per_boundary) > 2
        assert all(r.max_abs_discrepancy == 0.0 for r in reports_per_boundary[0])
        flagged = [r for r in reports_per_boundary[1] if r.max_abs_discrepancy > 0]
        assert [(r.layer, r.worst_position) for r in flagged] == corrupted
