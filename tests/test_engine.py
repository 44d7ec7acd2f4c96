import dataclasses
import re

import numpy as np
import pytest

from specdec import (
    CapacityError,
    ConfigError,
    DecodeSession,
    SyntheticBackend,
    SyntheticModelSpec,
    TokenDistribution,
    consistency_check,
    default_layer_placement,
    replay_ledger,
    speculative_decode,
    vanilla_decode,
)
from specdec import engine
from specdec.engine import DEFAULT_BURSTS, Commit, DraftStep, IntermediateVerify, TargetVerify
from specdec.synthetic import uniform_profile

from conftest import (
    all_agree_backend,
    assert_ledger_counts_passes,
    counted,
    predict_token,
    random_prompt,
)


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


class StateCounting:
    """Forwards every attribute to `backend` and counts its `new_state` calls."""

    def __init__(self, backend):
        self.backend, self.states = backend, 0

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def new_state(self, buffered_layers=()):
        self.states += 1
        return self.backend.new_state(buffered_layers)


class TestTopPredictions:
    """What a verifier accepts: its distribution's `argmax()`."""

    def dist(self, logits):
        return TokenDistribution(logits=np.array(logits, dtype=float), position=0, source_layer=1)

    def test_greedy_tiebreak_lowest_id(self):
        assert self.dist([0.1, 3.0, 3.0, -1.0]).argmax() == 1


H, B = (2, 4, 8), DEFAULT_BURSTS  # hierarchical exits and bursts on the 8-layer oracle


class TestDefaults:
    def test_layer_placement_rule(self):
        assert default_layer_placement(32) == (4, 8)
        assert default_layer_placement(48) == (6, 12)
        assert default_layer_placement(80) == (10, 20)

    def test_config_invariants(self, oracle_backend):
        # Exits and bursts are plain tuples; decoding them checks them.
        for exits, bursts in (
            ((4, 4, 8), DEFAULT_BURSTS),
            ((0, 2, 8), DEFAULT_BURSTS),
            ((1, 2, 8), (0, DEFAULT_BURSTS[1])),
        ):
            with pytest.raises(ConfigError):
                speculative_decode(oracle_backend, [1, 2, 3], exits, bursts, 64)

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize(
        "decode",
        [
            lambda b, p, n: vanilla_decode(b, p, n),
            lambda b, p, n: speculative_decode(b, p, (2, 8), (2,), n),
            lambda b, p, n: speculative_decode(b, p, (2, 4, 8), DEFAULT_BURSTS, n),
            lambda b, p, n: speculative_decode(b, p, (2, 4, 6, 8), (1, 2, 3), n),
        ],
        ids=["vanilla", "selfspec", "hierarchical", "speculative"],
    )
    def test_budget_below_one_is_a_config_error(self, oracle_backend, decode, budget):
        with pytest.raises(ConfigError, match="max_new_tokens"):
            decode(oracle_backend, [1, 2, 3], budget)

    @pytest.mark.parametrize(
        "prompt, exits, bursts, budget, eos, error, message",
        [
            ([1, 2, 3], H, (0, 4), 8, None, ConfigError, "bursts (0, 4) must give one length >= 1"),
            ([1, 2, 3], H, B, 0, None, ConfigError, "max_new_tokens must be >= 1, got 0"),
            ([1, 2, 3], H, B, 510, None, CapacityError, "plus 510 new tokens exceeds"),
            ([], H, B, 8, None, ConfigError, "prompt must be non-empty"),
            ([1, 32], H, B, 8, None, ConfigError, "prompt token 32 outside vocabulary"),
            ([1, 2, 3], (2.5, 8), (2,), 4, None, ConfigError, "exit 2.5 must be an integer"),
            ([1, 2, 3], (True, 8), (2,), 4, None, ConfigError, "exit True must be an integer"),
            ([1, 2, 3], ("2", 8), (2,), 4, None, ConfigError, "exit '2' must be an integer"),
            ([1, 2, 3], H, (2.0, 4), 8, None, ConfigError, "burst 2.0 must be an integer"),
            ([1, 2, 3], H, B, 4.5, None, ConfigError, "max_new_tokens 4.5 must be"),
            ([1, 2, 3], H, B, "4", None, ConfigError, "max_new_tokens '4' must be"),
            ([1, 2, 3], H, B, 8, 1.5, ConfigError, "eos_token 1.5 must be an integer"),
        ],
        ids=[
            "bursts", "budget", "capacity", "empty-prompt", "prompt-token", "float-exit",
            "bool-exit", "str-exit", "float-burst", "float-budget", "str-budget", "float-eos",
        ],
    )
    def test_bad_input_is_rejected_before_a_state_is_allocated(
        self, oracle_backend, prompt, exits, bursts, budget, eos, error, message
    ):
        backend = StateCounting(oracle_backend)
        with pytest.raises(error, match=re.escape(message)):
            speculative_decode(backend, prompt, exits, bursts, budget, eos)
        assert backend.states == 0
        speculative_decode(backend, [1, 2, 3], (2, 4, 8), DEFAULT_BURSTS, 8)
        assert backend.states == 1

    @pytest.mark.parametrize("exits, bursts", [((8,), ()), (H, B)], ids=["vanilla", "hierarchical"])
    def test_a_decode_checks_its_prompt_once(self, oracle_backend, monkeypatch, exits, bursts):
        checked = []
        check = engine._check_prompt

        def counting(backend, prompt):
            checked.append(list(prompt))
            check(backend, prompt)

        monkeypatch.setattr(engine, "_check_prompt", counting)
        speculative_decode(oracle_backend, [1, 2, 3], exits, bursts, 8)
        assert checked == [[1, 2, 3]]

    @pytest.mark.parametrize(
        "token, rejected",
        [
            (1.7, True),
            (2.0, True),
            (True, True),
            ("3", True),
            (np.float64(2.0), True),
            (np.bool_(True), True),
            (np.int64(2), False),
            (np.uint8(2), False),
        ],
        ids=["float", "integral-float", "bool", "str", "np-float", "np-bool", "np-int64", "np-uint8"],
    )
    def test_non_integer_prompt_token_is_named(self, oracle_backend, token, rejected):
        prompt = [1, token, 3]
        if rejected:
            with pytest.raises(ConfigError, match=re.escape(f"prompt token {token!r} must be")):
                speculative_decode(oracle_backend, prompt, (2, 4, 8), DEFAULT_BURSTS, 8)
        else:
            got = speculative_decode(oracle_backend, prompt, (2, 4, 8), DEFAULT_BURSTS, 8)
            want = speculative_decode(oracle_backend, [1, 2, 3], (2, 4, 8), DEFAULT_BURSTS, 8)
            assert got.tokens == want.tokens

    def test_defaults_match_paper_style_values(self):
        assert default_layer_placement(32) == (4, 8)
        assert DEFAULT_BURSTS == (2, 4)


class TestTraceEvents:
    # One keyword construction per event type, fields in declaration order.
    EVENTS = [
        (DraftStep, {"start_pos": 3, "tokens": (5, 6), "processed": (3, 5)}),
        (
            IntermediateVerify,
            {"accepted": (5,), "bonus": 7, "rejected": 1, "processed": ((3, 5), (2, 5))},
        ),
        (
            TargetVerify,
            {
                "accepted": (5, 7),
                "bonus": None,
                "presented": 2,
                "flushed": 0,
                "mismatch": False,
                "reason": "window",
                "processed": ((5, 6), (5, 6), (1, 5)),
            },
        ),
        (Commit, {"tokens": (5, 7)}),
    ]

    @pytest.mark.parametrize("cls, fields", EVENTS, ids=[cls.__name__ for cls, _ in EVENTS])
    def test_frozen_slotted_and_positional(self, cls, fields):
        event = cls(**fields)
        assert [f.name for f in dataclasses.fields(cls)] == list(fields)
        assert cls(*fields.values()) == event
        assert dataclasses.asdict(event) == fields
        assert not hasattr(event, "__dict__")
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, None)

    def test_a_decode_builds_no_event_until_read(self, oracle_backend, monkeypatch):
        built = []

        def counting(init):
            def counted_init(self, *args):
                built.append(type(self))
                init(self, *args)

            return counted_init

        classes = (DraftStep, IntermediateVerify, TargetVerify, Commit)
        for cls in classes:
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        prompt, exits = [4, 9, 2, 2], (2, 4, 8)
        result = speculative_decode(oracle_backend, prompt, exits, DEFAULT_BURSTS, 24)
        replay_ledger(result.trace, len(prompt), exits)
        assert built == []
        trace = result.trace
        events = trace.events
        assert len(built) == len(trace.records)
        assert {type(event) for event in events} == set(classes)
        assert events == [record[0](*record[1:]) for record in trace.records]
        # The view is fresh on each read: changing it leaves the records be.
        events.clear()
        assert len(trace.events) == len(trace.records) > 0


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
            token = predict_token(oracle_backend, 2, ctx)
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
            [], level=1, phase="intermediate_verify"
        )
        assert accepted == [] and not mismatch
        assert bonus == predict_token(oracle_backend, 4, prompt)

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
        assert bonus == predict_token(backend, 4, prompt + drafted)

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
            if predict_token(backend, 4, ctx) != token:
                break
            expected_prefix.append(token)
            ctx.append(token)
        expected_bonus = predict_token(backend, 4, ctx)

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
        early = speculative_decode(backend, [1, 2, 3], (4,), (), 16)
        assert full.tokens == early.tokens

    def test_capacity_guard(self, toy_backend):
        with pytest.raises(CapacityError):
            vanilla_decode(toy_backend, [1] * 100, 100)

    def test_prefill_beyond_max_seq_len_is_rejected(self):
        backend = StateCounting(all_agree_backend(max_seq_len=4))
        session = DecodeSession(backend, exits=(8,))
        with pytest.raises(CapacityError, match="^prompt exceeds max_seq_len$"):
            session.prefill([1, 2, 3, 4, 5])
        # The prompt is checked before the session makes its state.
        assert backend.states == 0 and not hasattr(session, "state")

    def test_exit_below_layer_one_is_a_config_error(self, oracle_backend):
        with pytest.raises(ConfigError, match="exits"):
            speculative_decode(oracle_backend, [1, 2], (0,), (), 4)
        with pytest.raises(ConfigError, match="exits"):
            DecodeSession(oracle_backend, exits=(0, 8))

    def test_eos_stops_decode(self):
        backend = all_agree_backend()
        free = vanilla_decode(backend, [1, 2], 16)
        eos = free.tokens[4]
        stopped = speculative_decode(backend, [1, 2], (8,), (), 16, eos)
        assert stopped.tokens == free.tokens[:5]


class TestSelfspec:
    @pytest.mark.parametrize(
        "draft_layer, draft_len", [(0, 2), (8, 2), (2, 0)], ids=["layer-0", "full-depth", "len-0"]
    )
    def test_invalid_draft_is_a_config_error(self, oracle_backend, draft_layer, draft_len):
        with pytest.raises(ConfigError):
            speculative_decode(oracle_backend, [1, 2], (draft_layer, 8), (draft_len,), 4)

    def test_all_accept_round_cost(self):
        backend = all_agree_backend(n_layers=32, max_seq_len=256)
        result = speculative_decode(backend, [1, 2, 3], (4, 32), (2,), 24)
        rounds = sum(1 for e in result.trace.events if isinstance(e, TargetVerify))
        assert result.stats.flushed == 0
        # Per round: N_d single-position draft passes + one (L_f - L_d) verify pass.
        assert result.ledger.phases["draft"].sequential_depth_units == rounds * 2 * 4
        assert result.ledger.phases["target_verify"].sequential_depth_units == rounds * (32 - 4)
        # 24 tokens in rounds of 2: each round's verify covers its 2 drafts,
        # and finalize finds every level at the committed end.
        assert result.ledger.passes == {
            ("prefill", 1, 32, 3): 1,
            ("draft", 1, 4, 1): 24,
            ("target_verify", 5, 32, 2): 12,
        }

    def test_zero_agreement_commits_one_per_round(self):
        backend = profile_backend(uniform_profile(8, 0.0), seed=3)
        result = speculative_decode(backend, [1, 2], (2, 8), (3,), 12)
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        assert all(e.mismatch and len(e.accepted) == 0 for e in verifies)
        commits = [e for e in result.trace.events if isinstance(e, Commit)]
        assert all(len(e.tokens) == 1 for e in commits)
        # 12 rounds. The first drafts from the prefilled end: 3 draft passes
        # and a 3-position verify. Each later one first runs the last bonus
        # through both levels: 4 draft passes and a 4-position verify.
        # Finalize runs the last bonus through both levels.
        assert result.ledger.passes == {
            ("prefill", 1, 8, 2): 1,
            ("draft", 1, 2, 1): 3 + 11 * 4,
            ("target_verify", 3, 8, 3): 1,
            ("target_verify", 3, 8, 4): 11,
            ("target_verify", 1, 2, 1): 1,
            ("target_verify", 3, 8, 1): 1,
        }

    def test_matches_vanilla_over_many_prompts(self, toy_backend):
        rng = np.random.default_rng(5)
        for _ in range(60):
            prompt = random_prompt(rng, toy_backend.vocab_size)
            want = vanilla_decode(toy_backend, prompt, 16).tokens
            got = speculative_decode(toy_backend, prompt, (2, 6), (2,), 16).tokens
            assert got == want


class TestHierarchical:
    def test_all_accept_structure(self):
        backend = all_agree_backend(n_layers=32, max_seq_len=256)
        draft_len = 2
        result = speculative_decode(backend, [1, 2, 3], (4, 8, 32), (draft_len, 4), 24)
        assert result.tokens == vanilla_decode(backend, [1, 2, 3], 24).tokens
        assert result.stats.drafted == result.stats.accepted_intermediate
        assert result.stats.flushed == 0
        # Rounds add draft_len + 1 tokens; the window check fires once the
        # buffer holds >= accept_window, i.e. every two rounds here.
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        per_cycle = 2 * (draft_len + 1)
        assert len(verifies) == -(-24 // per_cycle)
        assert all(e.reason in ("window", "budget") for e in verifies)
        # Each of the 4 cycles drafts 2 then 3 tokens (the second burst first
        # runs the bonus), screens 2 then 3 positions, and the top verify
        # runs the last bonus through levels 0 and 1 and the cycle's 6
        # positions through the top level.
        assert result.ledger.passes == {
            ("prefill", 1, 32, 3): 1,
            ("draft", 1, 4, 1): 4 * 5,
            ("intermediate_verify", 5, 8, 2): 4,
            ("intermediate_verify", 5, 8, 3): 4,
            ("target_verify", 1, 4, 1): 4,
            ("target_verify", 5, 8, 1): 4,
            ("target_verify", 9, 32, 6): 4,
        }

    def test_forced_path_draft_wrong_intermediate_right(self):
        profile = uniform_profile(8, 0.0)
        profile[4] = 1.0
        backend = profile_backend(profile)
        result = speculative_decode(backend, [1, 2, 3], (2, 4, 8), DEFAULT_BURSTS, 16)
        # Every draft token is rejected at the intermediate level, every
        # intermediate token is accepted by the full model.
        assert result.stats.accepted_intermediate == 0
        assert result.stats.accepted_target == result.stats.checked_target
        assert result.stats.flushed == 0
        assert result.tokens == vanilla_decode(backend, [1, 2, 3], 16).tokens

    def test_matches_vanilla_over_many_prompts(self, toy_backend):
        rng = np.random.default_rng(6)
        for _ in range(60):
            prompt = random_prompt(rng, toy_backend.vocab_size)
            want = vanilla_decode(toy_backend, prompt, 16).tokens
            got = speculative_decode(toy_backend, prompt, (2, 4, 6), DEFAULT_BURSTS, 16).tokens
            assert got == want

    def test_trace_soundness(self, oracle_backend):
        result = speculative_decode(oracle_backend, [7, 7, 1], (2, 4, 8), DEFAULT_BURSTS, 20)
        commits = [e.tokens for e in result.trace.events if isinstance(e, Commit)]
        assert [t for tokens in commits for t in tokens] == result.tokens
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
        accept_window = 4
        result = speculative_decode(oracle_backend, [2, 4, 6], (2, 4, 8), (2, accept_window), 20)
        for event in result.trace.events:
            if isinstance(event, TargetVerify):
                if event.reason == "window":
                    assert event.presented >= accept_window
                else:
                    assert event.reason in ("eos", "budget")

    def test_mismatch_flushes_buffer_and_commits_one(self):
        profile = uniform_profile(8, 0.4)
        profile[4] = 0.9  # intermediate often wrong vs target: forces flushes
        backend = profile_backend(profile, seed=17)
        result = speculative_decode(backend, [3, 1, 2], (2, 4, 8), DEFAULT_BURSTS, 24)
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
        draft_len, accept_window = 3, 5
        result = speculative_decode(
            oracle_backend, [1, 5, 9], (2, 4, 8), (draft_len, accept_window), 24
        )
        for event in result.trace.events:
            if isinstance(event, TargetVerify):
                assert event.presented <= accept_window + draft_len

    def test_tentative_eos_forces_verification(self):
        backend = all_agree_backend()
        free = vanilla_decode(backend, [1, 2], 20)
        eos = free.tokens[2]
        accept_window = 6
        result = speculative_decode(backend, [1, 2], (2, 4, 8), (2, accept_window), 20, eos)
        assert result.tokens == free.tokens[:3]
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        assert verifies[-1].reason in ("eos", "window")
        assert verifies[-1].presented < accept_window or verifies[-1].reason == "window"

    def test_ledger_counts_every_forward_pass(self, oracle_backend):
        result, counter = counted(
            speculative_decode, oracle_backend, [4, 4, 4], (2, 4, 8), DEFAULT_BURSTS, 20
        )
        assert result.trace.finalize_processed
        assert_ledger_counts_passes(result.ledger, counter.passes)

    def test_wrong_full_layer_rejected(self, oracle_backend):
        with pytest.raises(ConfigError, match="full_layer"):
            speculative_decode(oracle_backend, [1], (2, 4, 16), DEFAULT_BURSTS, 4)

    def test_corrupted_kv_mid_decode_is_located(self, toy_backend):
        # Corrupt one K/V entry of the full model's level at the second
        # verification boundary; the recompute oracle must name it there.
        reports_per_boundary = []
        corrupted = []

        def hook(session):
            state = session.state
            if len(reports_per_boundary) == 1:
                position = state.filled(5) - 2
                state.kv_v[4][position, 3] += 1e-3
                corrupted.append((5, position))
            reports_per_boundary.append(consistency_check(state, toy_backend, state.tokens))

        speculative_decode(
            toy_backend, [8, 1, 30, 4], (2, 4, 6), DEFAULT_BURSTS, 12, boundary_hook=hook
        )
        assert len(reports_per_boundary) > 2
        assert all(r.max_abs_discrepancy == 0.0 for r in reports_per_boundary[0])
        flagged = [r for r in reports_per_boundary[1] if r.max_abs_discrepancy > 0]
        assert [(r.layer, r.worst_position) for r in flagged] == corrupted


class TestCascade:
    def test_all_accept_structure(self):
        # Exits (2, 4, 6, 8) with bursts (1, 2, 4): level 1 passes on one
        # draft token plus its bonus, level 2 screens two such pairs and adds
        # its own bonus to each, so every top verification sees 6 tokens.
        backend = all_agree_backend()
        result = speculative_decode(backend, [1, 2, 3], (2, 4, 6, 8), (1, 2, 4), 24)
        assert result.tokens == vanilla_decode(backend, [1, 2, 3], 24).tokens
        verifies = [e for e in result.trace.events if isinstance(e, TargetVerify)]
        assert [e.presented for e in verifies] == [6, 6, 6, 6]
        assert all(e.reason == "window" and not e.mismatch for e in verifies)
        screens = [e for e in result.trace.events if isinstance(e, IntermediateVerify)]
        assert len(screens) == 4 * (2 + 2)  # per round: two screens at each level
        assert all(e.rejected == 0 and e.bonus is not None for e in screens)

    @pytest.mark.parametrize(
        "n_layers, exits, bursts",
        [
            (8, (2, 8), (0,)),
            (8, (2, 4, 8), (2,)),
            (8, (2, 4, 8), (2, 4, 1)),
            (8, (2, 4, 8), (2, -1)),
            (16, (2, 4, 8), (2, 4)),
            (8, (4, 6), (2,)),
            (8, (8,), (2,)),
            (8, (4, 2, 8), (2, 4)),
        ],
        ids=[
            "zero-burst", "burst-short", "burst-extra", "negative-burst", "top-below-full",
            "two-exits-below-full", "one-exit-with-burst", "decreasing",
        ],
    )
    def test_malformed_shape_is_a_config_error(self, n_layers, exits, bursts):
        backend = all_agree_backend(n_layers=n_layers)
        with pytest.raises(ConfigError):
            speculative_decode(backend, [1, 2, 3], exits, bursts, 8)
