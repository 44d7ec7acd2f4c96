import numpy as np
import pytest

from specdec import (
    AlignmentError,
    HierarchicalConfig,
    ProtocolError,
    consistency_check,
    hierarchical_decode,
    vanilla_decode,
)

from conftest import all_agree_backend


def prepared_state(backend, tokens, upto_layer=None):
    state = backend.new_state(buffered_layers=(backend.n_layers,))
    state.set_tokens(tokens)
    backend.forward_range(state, 1, upto_layer or backend.n_layers, 0, len(tokens))
    return state


class TestExtend:
    def test_extend_advances_only_target_layers(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        state.tokens.extend([4, 5])
        toy_backend.forward_range(state, 1, 2, 3, 5)
        assert state.filled(1) == 5 and state.filled(2) == 5
        assert all(state.filled(layer) == 3 for layer in range(3, 7))

    def test_non_contiguous_extend_rejected(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        state.tokens.extend([4, 5])
        with pytest.raises(AlignmentError, match="expected 4"):
            toy_backend.forward_range(state, 1, 2, 4, 5)

    def test_rejected_token_leaves_state_untouched(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        state.tokens.extend([4, toy_backend.vocab_size])
        before = state.snapshot()
        with pytest.raises(AlignmentError, match="outside vocabulary"):
            toy_backend.forward_range(state, 1, 6, 3, 5)
        assert state.equals_snapshot(before)

    def test_bookkeeping_extend_contiguity(self, toy_backend):
        state = toy_backend.new_state()
        state.set_tokens([1, 2, 3])
        with pytest.raises(AlignmentError, match="non-contiguous"):
            state.advance(1, 1, 2, 3)

    def test_extend_then_prune_restores_snapshot_bitwise(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        before = state.snapshot()
        state.tokens.extend([4, 5])
        toy_backend.forward_range(state, 1, 4, 3, 5)
        assert not state.equals_snapshot(before)
        state.prune_all(3)
        assert state.equals_snapshot(before)


class TestPrune:
    def test_prune_to_fill_is_noop(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        before = state.snapshot()
        state.prune_all(3)
        assert state.equals_snapshot(before)

    def test_cannot_prune_below_committed(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        state.mark_committed(3)
        with pytest.raises(ProtocolError, match="committed"):
            state.prune_all(2)

    def test_prune_then_recompute_matches_untouched_run(self, toy_backend):
        # Rejected speculation must leave no trace: recomputing the same
        # positions afterwards gives bit-identical state to a run that
        # never speculated.
        tokens = [4, 9, 2]
        state = prepared_state(toy_backend, tokens)
        state.tokens.extend([7, 7, 7])
        toy_backend.forward_range(state, 1, 6, 3, 6)
        state.prune_all(3)
        state.tokens.extend([5, 6])
        toy_backend.forward_range(state, 1, 6, 3, 5)

        clean = prepared_state(toy_backend, [4, 9, 2, 5, 6])
        for layer in range(1, 7):
            assert np.array_equal(state.kv_k[layer - 1], clean.kv_k[layer - 1])
            assert np.array_equal(state.kv_v[layer - 1], clean.kv_v[layer - 1])

    def test_prune_resets_compute_counter(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        state.tokens.extend([4])
        toy_backend.forward_range(state, 1, 6, 3, 4)
        state.prune_all(3)
        state.tokens.extend([5])
        toy_backend.forward_range(state, 1, 6, 3, 4)
        for layer in range(1, 7):
            assert (state.compute_counts(layer) == 1).all()


class TestConsistencyCheck:
    def test_engine_states_are_clean(self, toy_backend):
        config = HierarchicalConfig(
            draft_layer=2, intermediate_layer=4, full_layer=6, max_new_tokens=12
        )
        result = hierarchical_decode(toy_backend, [8, 1, 30], config)
        reports = consistency_check(result.state, toy_backend, result.state.tokens)
        assert all(r.max_abs_discrepancy == 0.0 for r in reports)

    def test_perturbed_entry_is_located(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3, 4, 5])
        state.kv_v[2][3] += 1e-3
        reports = consistency_check(state, toy_backend, state.tokens)
        flagged = [r for r in reports if r.max_abs_discrepancy > 0]
        assert len(flagged) == 1
        assert flagged[0].layer == 3
        assert flagged[0].worst_position == 3

    def test_empty_state_empty_report(self, toy_backend):
        state = toy_backend.new_state()
        reports = consistency_check(state, toy_backend, [])
        assert all(r.max_abs_discrepancy == 0.0 and r.worst_position is None for r in reports)

    def test_structural_backend_reports_zeros(self):
        backend = all_agree_backend()
        result = vanilla_decode(backend, [1, 2], 8)
        reports = consistency_check(result.state, backend, result.state.tokens)
        assert all(r.max_abs_discrepancy == 0.0 for r in reports)


class TestNoLeak:
    def test_session_end_state_is_tight(self, toy_backend):
        config = HierarchicalConfig(
            draft_layer=1, intermediate_layer=3, full_layer=6, max_new_tokens=10
        )
        result = hierarchical_decode(toy_backend, [2, 2, 2], config)
        final_len = len(result.state.tokens)
        assert final_len == 3 + len(result.tokens)
        assert all(result.state.filled(layer) == final_len for layer in range(1, 7))
