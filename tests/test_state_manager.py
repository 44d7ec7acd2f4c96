import math
import mmap

import numpy as np
import pytest

from specdec import (
    AlignmentError,
    ConfigError,
    LayeredState,
    ProtocolError,
    consistency_check,
    speculative_decode,
    vanilla_decode,
)

from conftest import (
    CountingBackend,
    all_agree_backend,
    equals_snapshot,
    live_counts_are_one,
    snapshot,
)


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
        before = snapshot(state)
        with pytest.raises(AlignmentError, match="outside vocabulary"):
            toy_backend.forward_range(state, 1, 6, 3, 5)
        assert equals_snapshot(state, before)

    def test_bookkeeping_extend_contiguity(self, toy_backend):
        state = toy_backend.new_state()
        state.set_tokens([1, 2, 3])
        with pytest.raises(AlignmentError, match="non-contiguous"):
            state.advance(1, 1, 2, 3)

    @pytest.mark.parametrize(
        "runs, span, layer, message",
        [
            # (end layer, fill) per run of layers, pass (start_layer, end_layer, start_pos, end_pos)
            ([(3, 5), (6, 3)], (1, 6, 5, 6), 4, "filled to 3, expected 5"),
            ([(2, 5), (4, 3), (6, 1)], (2, 5, 5, 6), 3, "filled to 3, expected 5"),
            ([(1, 6), (3, 4), (6, 2)], (2, 5, 4, 5), 4, "filled to 2, expected 4"),
        ],
    )
    def test_non_contiguous_message_names_the_first_layer_behind(self, runs, span, layer, message):
        # Each offending layer lies inside the pass's range, past its first layer.
        state = all_agree_backend(n_layers=6).new_state()
        state.set_tokens(range(8))
        start_layer = 1
        for end_layer, fill in runs:
            state.advance(start_layer, end_layer, 0, fill)
            start_layer = end_layer + 1
        before = snapshot(state)
        with pytest.raises(AlignmentError) as exc:
            state.advance(*span)
        assert str(exc.value) == f"non-contiguous pass at layer {layer}: {message}"
        assert equals_snapshot(state, before)

    def test_extend_then_prune_restores_snapshot_bitwise(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        before = snapshot(state)
        state.tokens.extend([4, 5])
        toy_backend.forward_range(state, 1, 4, 3, 5)
        assert not equals_snapshot(state, before)
        state.prune_all(3)
        assert equals_snapshot(state, before)


def mapping_of(rows):
    """The object that owns an array's memory, at the root of its chain of views."""
    while isinstance(rows.base, np.ndarray):
        rows = rows.base
    return rows.base.obj  # np.frombuffer's base is a memoryview of the buffer


class TestMapping:
    def test_every_array_is_a_disjoint_part_of_one_mapping(self, toy_backend):
        state = toy_backend.new_state(buffered_layers=(2, 6))
        arrays = [rows for _, rows in state.arrays()]
        assert len(arrays) == 2 * 6 + 2
        buffer = mapping_of(arrays[0])
        assert isinstance(buffer, mmap.mmap)
        whole = np.frombuffer(buffer, dtype=np.float64)
        assert whole.size == sum(rows.size for rows in arrays)
        assert all(np.shares_memory(rows, whole) for rows in arrays)
        for i, rows in enumerate(arrays):
            assert not any(np.shares_memory(rows, other) for other in arrays[i + 1 :])

    def test_arrays_are_writable_contiguous_float64_zeros(self, toy_backend):
        state = toy_backend.new_state(buffered_layers=(3,))
        for _, rows in state.arrays():
            assert rows.shape == (128, 32) and rows.dtype == np.float64
            assert rows.flags.writeable and rows.flags.c_contiguous
            assert not rows.any()

    def test_prune_clears_exactly_the_pruned_rows(self, toy_backend):
        state = toy_backend.new_state(buffered_layers=(2, 4, 6))
        state.set_tokens(range(12))
        for end_layer, start_pos, end_pos in ((6, 0, 5), (4, 5, 7), (2, 7, 12)):
            toy_backend.forward_range(state, 1, end_layer, start_pos, end_pos)
        assert state.fills() == (12, 12, 7, 7, 5, 5)
        before = [rows.copy() for _, rows in state.arrays()]
        state.prune_all(6)
        assert state.fills() == (6, 6, 6, 6, 5, 5)
        for (_, rows), old in zip(state.arrays(), before, strict=True):
            assert not rows[6:12].any()
            assert np.array_equal(rows[:6], old[:6]) and np.array_equal(rows[12:], old[12:])


class TestConstruction:
    @pytest.mark.parametrize("field", ["n_layers", "max_seq_len", "d_model"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_size_below_one_is_named(self, field, value):
        sizes = {"n_layers": 4, "max_seq_len": 16, "d_model": 8, field: value}
        with pytest.raises(ConfigError, match=rf"^{field} must be >= 1, got {value}$"):
            LayeredState(**sizes)

    @pytest.mark.parametrize("layer", [0, -2, 5])
    @pytest.mark.parametrize("d_model", [None, 8])
    def test_buffered_layer_outside_the_stack_is_named(self, layer, d_model):
        with pytest.raises(AlignmentError, match=rf"^buffered layer {layer} outside 1\.\.4$"):
            LayeredState(n_layers=4, max_seq_len=16, d_model=d_model, buffered_layers=(2, layer))


class TestLayerRange:
    @pytest.mark.parametrize("layer", [0, -1, 7, 100])
    def test_filled_outside_the_stack_is_named(self, toy_backend, layer):
        # Layer 0 or -1 would read a deep layer's fill through negative indexing.
        state = prepared_state(toy_backend, [1, 2, 3], upto_layer=2)
        with pytest.raises(AlignmentError, match=rf"^no layer {layer}: layers are 1\.\.6$"):
            state.filled(layer)
        assert [state.filled(inside) for inside in range(1, 7)] == [3, 3, 0, 0, 0, 0]


class TestPrune:
    def test_prune_to_fill_is_noop(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        before = snapshot(state)
        state.prune_all(3)
        assert equals_snapshot(state, before)

    def test_negative_keep_len_is_named(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        before = snapshot(state)
        with pytest.raises(ProtocolError, match=r"keep_len must be >= 0, got -1"):
            state.prune_all(-1)
        assert equals_snapshot(state, before)

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
        # A pruned position is computed afresh, so the recompute counts once.
        counter = CountingBackend(toy_backend)
        state = prepared_state(counter, [1, 2, 3])
        state.tokens.extend([4])
        counter.forward_range(state, 1, 6, 3, 4)
        state.prune_all(3)
        state.tokens.extend([5])
        counter.forward_range(state, 1, 6, 3, 4)
        assert live_counts_are_one(counter, state)


class TestConsistencyCheck:
    def test_engine_states_are_clean(self, toy_backend):
        result = speculative_decode(toy_backend, [8, 1, 30], (2, 4, 6), (2, 4), 12)
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

    @pytest.mark.parametrize(
        "rows_of, layer",
        [
            (lambda state: state.kv_k[2], 3),
            (lambda state: state.kv_v[1], 2),
            (lambda state: state.hidden[6], 6),
        ],
        ids=["kv_k", "kv_v", "hidden"],
    )
    def test_nan_entry_is_infinite_at_its_first_position(self, toy_backend, rows_of, layer):
        # A NaN difference compares false with everything, so it must not read as 0.0.
        state = prepared_state(toy_backend, [1, 2, 3, 4, 5])
        rows = rows_of(state)
        rows[3, 5] = rows[4, 0] = math.nan
        reports = consistency_check(state, toy_backend, state.tokens)
        flagged = [r for r in reports if r.max_abs_discrepancy != 0.0]
        assert [(r.layer, r.max_abs_discrepancy, r.worst_position) for r in flagged] == [
            (layer, math.inf, 3)
        ]

    def test_empty_state_empty_report(self, toy_backend):
        state = toy_backend.new_state()
        reports = consistency_check(state, toy_backend, [])
        assert all(r.max_abs_discrepancy == 0.0 and r.worst_position is None for r in reports)

    def test_structural_backend_reports_zeros(self):
        # A state without tensors has no arrays to compare, whatever the tokens.
        backend = all_agree_backend()
        state = vanilla_decode(backend, [1, 2], 8).state
        assert state.kv_k == state.kv_v == [] and state.hidden == {}
        for tokens in (state.tokens, [(t + 1) % backend.vocab_size for t in state.tokens]):
            reports = consistency_check(state, backend, tokens)
            assert all(r.max_abs_discrepancy == 0.0 and r.worst_position is None for r in reports)


class TestNoLeak:
    def test_session_end_state_is_tight(self, toy_backend):
        result = speculative_decode(toy_backend, [2, 2, 2], (1, 3, 6), (2, 4), 10)
        final_len = len(result.state.tokens)
        assert final_len == 3 + len(result.tokens)
        assert all(result.state.filled(layer) == final_len for layer in range(1, 7))
