import math
import mmap
import re

import numpy as np
import pytest

from specdec import (
    AlignmentError,
    ConfigError,
    LayeredState,
    ModelConfig,
    ProtocolError,
    SyntheticBackend,
    ToyTransformer,
    calibrate_preset,
    consistency_check,
    speculative_decode,
    vanilla_decode,
)
from specdec.state import LayerReport, _layer_reports

from conftest import (
    CountingBackend,
    MaskBackend,
    all_agree_backend,
    equals_snapshot,
    live_counts_are_one,
    per_array_reports,
    snapshot,
)


def prepared_state(backend, tokens, upto_layer=None):
    state = backend.new_state(buffered_layers=(backend.n_layers,))
    state.set_tokens(tokens)
    backend.forward_range(state, 1, upto_layer or backend.n_layers, 0, len(tokens))
    return state


def append_tokens(state, tokens):
    for token in tokens:
        state.append_token(token)


class TestExtend:
    def test_extend_advances_only_target_layers(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        append_tokens(state, [4, 5])
        toy_backend.forward_range(state, 1, 2, 3, 5)
        assert state.fills() == (5, 5, 3, 3, 3, 3)

    def test_non_contiguous_extend_rejected(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        append_tokens(state, [4, 5])
        with pytest.raises(AlignmentError, match="expected 4"):
            toy_backend.forward_range(state, 1, 2, 4, 5)

    def test_rejected_token_leaves_state_untouched(self, toy_backend):
        state = prepared_state(toy_backend, [1, 2, 3])
        append_tokens(state, [4, toy_backend.vocab_size])
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
        append_tokens(state, [4, 5])
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

    @pytest.mark.parametrize(
        "layer", [2.7, True, "2", np.float64(2.0)], ids=["float", "bool", "str", "np-float"]
    )
    def test_non_integer_buffered_layer_is_named(self, layer):
        # int() would buffer layer 2 for 2.7 and layer 1 for True.
        message = re.escape(f"buffered layer {layer!r} must be an integer")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            LayeredState(6, 16, 8, buffered_layers=(layer, 6))


NON_INTEGERS = [1.9, 2.0, True, "3", np.float64(2.0), np.bool_(True)]
NON_INTEGER_IDS = ["float", "integral-float", "bool", "str", "np-float", "np-bool"]


class TestTokens:
    @pytest.mark.parametrize("token", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_non_integer_token_is_named_and_not_recorded(self, token):
        # int() would truncate 1.9 to 1 and record True as token 1.
        state = LayeredState(n_layers=4, max_seq_len=16)
        state.set_tokens([4, 5])
        message = re.escape(f"token {token!r} must be an integer")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            state.set_tokens([1, token, 3])
        with pytest.raises(ConfigError, match=f"^{message}$"):
            state.append_token(token)
        assert state.tokens == [4, 5]

    def test_numpy_integers_are_recorded_as_ints(self):
        state = LayeredState(n_layers=4, max_seq_len=16)
        state.set_tokens([np.int64(1), np.uint8(2), 3])
        assert state.append_token(np.int32(4)) == 3
        assert state.tokens == [1, 2, 3, 4]
        assert all(type(t) is int for t in state.tokens)

    def test_capacity_and_commit_bounds_are_named(self):
        state = LayeredState(n_layers=4, max_seq_len=3)
        with pytest.raises(AlignmentError, match="^token sequence of 4 exceeds max_seq_len$"):
            state.set_tokens([1, 2, 3, 4])
        state.set_tokens([1, 2, 3])
        with pytest.raises(AlignmentError, match="^no free position for token$"):
            state.append_token(4)
        state.mark_committed(2)
        with pytest.raises(ProtocolError, match="^cannot lower committed length 2 to 1$"):
            state.mark_committed(1)
        with pytest.raises(ProtocolError, match="^cannot commit 4 with only 3 tokens$"):
            state.mark_committed(4)
        assert (state.tokens, state.committed_len) == ([1, 2, 3], 2)


class TestLayerRange:
    @pytest.mark.parametrize("layer", [0, -1, 7, 100])
    def test_filled_outside_the_stack_is_named(self, toy_backend, layer):
        # A pass at layer 0 or -1 would read a deep layer's fill through
        # negative indexing; it is named, and no fill changes.
        state = prepared_state(toy_backend, [1, 2, 3], upto_layer=2)
        message = rf"^invalid layer range \[{layer}, {layer}\] for 6 layers$"
        with pytest.raises(AlignmentError, match=message):
            state.advance(layer, layer, 3, 4)
        assert state.fills() == (3, 3, 0, 0, 0, 0)


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
        append_tokens(state, [7, 7, 7])
        toy_backend.forward_range(state, 1, 6, 3, 6)
        state.prune_all(3)
        append_tokens(state, [5, 6])
        toy_backend.forward_range(state, 1, 6, 3, 5)

        clean = prepared_state(toy_backend, [4, 9, 2, 5, 6])
        for layer in range(1, 7):
            assert np.array_equal(state.kv_k[layer - 1], clean.kv_k[layer - 1])
            assert np.array_equal(state.kv_v[layer - 1], clean.kv_v[layer - 1])

    def test_prune_resets_compute_counter(self, toy_backend):
        # A pruned position is computed afresh, so the recompute counts once.
        counter = CountingBackend(toy_backend)
        state = prepared_state(counter, [1, 2, 3])
        append_tokens(state, [4])
        counter.forward_range(state, 1, 6, 3, 4)
        state.prune_all(3)
        append_tokens(state, [5])
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

    def test_non_integer_sequence_is_named_not_truncated(self, toy_backend):
        # Truncated to [1, 2, 3], this sequence would report 0.0 on every layer.
        state = prepared_state(toy_backend, [1, 2, 3])
        with pytest.raises(ConfigError, match=re.escape("token 1.9 must be an integer")):
            consistency_check(state, toy_backend, [1.9, 2.2, 3.7])

    @pytest.mark.parametrize(
        "fills, message",
        [
            ((3, 0, 2, 0), "missing hidden state at (layer 2, position 0)"),
            ((3, 5, 0, 0), "missing hidden state at (layer 1, position 3)"),
            ((3, 3, 2, 2), None),
        ],
        ids=["gap", "deeper-ahead", "monotone"],
    )
    def test_reference_state_reaches_only_monotone_fills(self, fills, message):
        # A fill of 0 above a layer does not end the recompute: a deeper
        # non-zero fill has no input there and is rejected by `advance`.
        config = ModelConfig(n_layers=4, d_model=8, n_heads=2, vocab_size=8, max_seq_len=8, seed=0)
        backend = ToyTransformer(config)
        if message is None:
            assert backend.reference_state(range(6), fills, (2, 4)).fills() == fills
        else:
            with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
                backend.reference_state(range(6), fills, (2, 4))

    def test_empty_state_empty_report(self, toy_backend):
        state = toy_backend.new_state()
        reports = consistency_check(state, toy_backend, [])
        assert all(r.max_abs_discrepancy == 0.0 and r.worst_position is None for r in reports)

    @pytest.mark.parametrize("kind", ["synthetic", "mask"])
    def test_structural_backend_reports_zeros(self, kind):
        # A state without tensors has no arrays to compare, whatever the tokens,
        # so the check recomputes nothing: a sequence shorter than the fills
        # passes, and a backend without `reference_state` can be checked.
        if kind == "synthetic":
            backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt"))
        else:
            backend = MaskBackend(4, lambda layer, position: 1, max_seq_len=16)
            assert not hasattr(backend, "reference_state")
        state = vanilla_decode(backend, [1, 2, 0], 8).state
        assert state.fills() == (11,) * backend.n_layers
        assert state.kv_k == state.kv_v == [] and state.hidden == {}
        shifted = [(t + 1) % backend.vocab_size for t in state.tokens]
        for tokens in (state.tokens, shifted, state.tokens[:4], []):
            reports = consistency_check(state, backend, tokens)
            assert [(r.max_abs_discrepancy, r.worst_position) for r in reports] == [
                (0.0, None)
            ] * backend.n_layers


def uneven_state(backend, buffered=(3, 6)):
    """A toy state whose layers 1-3 are filled to 5 and layers 4-6 to 4."""
    state = backend.new_state(buffered_layers=buffered)
    state.set_tokens([1, 2, 3, 4, 5])
    backend.forward_range(state, 1, 6, 0, 4)
    backend.forward_range(state, 1, 3, 4, 5)
    return state


def put(rows, index, value):
    rows[index] = value


# name: (what it does to a state and its reference, the layers then flagged)
CORRUPTIONS = {
    "k-gap": (lambda state, ref: put(state.kv_k[2], (3, 7), state.kv_k[2][3, 7] + 1e-3), [3]),
    "v-gap": (lambda state, ref: put(state.kv_v[4], (1, 0), state.kv_v[4][1, 0] - 0.5), [5]),
    "hidden-gap": (
        lambda state, ref: put(state.hidden[6], (3, 2), state.hidden[6][3, 2] + 1e-12),
        [6],
    ),
    # Position 4 lies within the fills of layers 1-3 only.
    "gap-past-a-deeper-fill": (
        lambda state, ref: put(state.kv_k[0], (4, 1), state.kv_k[0][4, 1] + 1e-3),
        [1],
    ),
    "nan": (lambda state, ref: put(state.kv_v[0], (2, 5), math.nan), [1]),
    "nan-in-both": (
        lambda state, ref: [put(rows.kv_k[1], (0, 0), math.nan) for rows in (state, ref)],
        [2],
    ),
    "signed-zero": (
        lambda state, ref: (put(state.kv_k[1], (0, 0), -0.0), put(ref.kv_k[1], (0, 0), 0.0)),
        [],
    ),
    # Layer 6 is filled to 4 and layer 1 to 5: rows no array's fill covers.
    "row-past-a-deeper-fill": (lambda state, ref: put(state.kv_v[5], 4, 1.0), []),
    "row-past-every-fill": (lambda state, ref: put(state.kv_k[0], 5, 1.0), []),
    "equal": (lambda state, ref: None, []),
}


class TestBlockComparison:
    """`_layer_reports` against `conftest.per_array_reports`, the oracle that
    compares each array over its own fill, on a state whose fills differ by
    layer and its fresh reference."""

    @pytest.mark.parametrize("corrupt, flagged", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_report_equals_the_per_array_oracle(self, toy_backend, corrupt, flagged):
        state = uneven_state(toy_backend)
        reference = toy_backend.reference_state(state.tokens, state.fills(), state.buffered_layers)
        corrupt(state, reference)
        reports = _layer_reports(state, reference)
        assert reports == per_array_reports(state, reference)
        assert [r.layer for r in reports if r.max_abs_discrepancy != 0.0] == flagged

    def test_all_fills_zero(self, toy_backend):
        state = toy_backend.new_state(buffered_layers=(3, 6))
        state.set_tokens([1, 2, 3])
        reference = toy_backend.reference_state(state.tokens, state.fills(), state.buffered_layers)
        reports = _layer_reports(state, reference)
        assert reports == per_array_reports(state, reference) == all_zero_reports(6)

    def test_blocks_of_another_shape_raise(self, toy_backend):
        state = uneven_state(toy_backend)
        reference = toy_backend.reference_state(state.tokens, state.fills(), (6,))
        with pytest.raises(ValueError):
            _layer_reports(state, reference)

    def test_an_all_equal_check_never_reads_the_arrays(self, toy_backend, monkeypatch):
        def arrays(state):
            raise AssertionError("an all-equal check compared the arrays one by one")

        monkeypatch.setattr(LayeredState, "arrays", arrays)
        boundaries = []

        def hook(session):
            state = session.state
            boundaries.append(consistency_check(state, toy_backend, state.tokens))

        speculative_decode(toy_backend, [8, 1, 30], (2, 4, 6), (2, 4), 12, boundary_hook=hook)
        assert len(boundaries) > 1
        assert all(reports == all_zero_reports(6) for reports in boundaries)


def all_zero_reports(n_layers):
    return [LayerReport(layer, 0.0, None) for layer in range(1, n_layers + 1)]


def all_zero(reports):
    return all(r.max_abs_discrepancy == 0.0 and r.worst_position is None for r in reports)


class TestHeldReference:
    """The reference a state holds between checks, seen through the passes
    and `reference_state` builds of the CountingBackend handed to the check."""

    def test_changed_tokens_are_pruned_and_re_advanced(self, toy_backend):
        counter = CountingBackend(toy_backend)
        state = prepared_state(toy_backend, [1, 2, 3, 4, 5, 6])
        assert all_zero(consistency_check(state, counter, state.tokens))
        # Positions 3.. now hold other tokens than the ones the reference was built on.
        state.prune_all(3)
        append_tokens(state, [7, 8, 9, 10])
        toy_backend.forward_range(state, 1, 6, 3, 7)
        assert all_zero(consistency_check(state, counter, state.tokens))
        [reference] = counter.references
        assert counter.passes == [(6, 4)]  # every layer over positions 3..6, once
        assert reference.tokens == state.tokens and reference.fills() == state.fills()
        assert live_counts_are_one(counter, reference)

    def test_another_backend_gets_a_fresh_reference(self, toy_backend):
        first, second = CountingBackend(toy_backend), CountingBackend(toy_backend)
        state = prepared_state(toy_backend, [1, 2, 3])
        for counter, tokens in ((first, [4]), (second, [5]), (first, [6])):
            assert all_zero(consistency_check(state, counter, state.tokens))
            start = len(state.tokens)
            append_tokens(state, tokens)
            toy_backend.forward_range(state, 1, 6, start, len(state.tokens))
        assert (len(first.references), len(second.references)) == (2, 1)
        assert first.passes == second.passes == []

    @pytest.mark.parametrize(
        "buffered, references, passes",
        [((6,), 2, []), ((3, 6), 1, [(3, 2), (3, 1)])],
        ids=["unbuffered-break", "buffered-break"],
    )
    def test_a_run_resumes_only_above_a_buffered_layer(
        self, toy_backend, buffered, references, passes
    ):
        # Layers 4-6 lag layers 1-3, so their run must resume from layer 3's hidden rows.
        counter = CountingBackend(toy_backend)
        state = toy_backend.new_state(buffered_layers=buffered)
        state.set_tokens([1, 2, 3])
        toy_backend.forward_range(state, 1, 6, 0, 3)
        assert all_zero(consistency_check(state, counter, state.tokens))
        append_tokens(state, [4, 5])
        toy_backend.forward_range(state, 1, 6, 3, 4)
        toy_backend.forward_range(state, 1, 3, 4, 5)
        assert state.fills() == (5, 5, 5, 4, 4, 4)
        assert all_zero(consistency_check(state, counter, state.tokens))
        assert (len(counter.references), counter.passes) == (references, passes)
        assert live_counts_are_one(counter, counter.references[-1])


class TestNoLeak:
    def test_session_end_state_is_tight(self, toy_backend):
        result = speculative_decode(toy_backend, [2, 2, 2], (1, 3, 6), (2, 4), 10)
        final_len = len(result.state.tokens)
        assert final_len == 3 + len(result.tokens)
        assert result.state.fills() == (final_len,) * 6
