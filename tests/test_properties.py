"""Property tests: speculative decoding over random synthetic and toy models.

Each synthetic example draws an agreement profile, prompt, exits, N_d,
N_i, eos and budget, plus a fourth exit and its burst length when the
model has a layer left for one. It then checks the invariants the engine
promises for every input, on 2-, 3- and 4-exit sessions: greedy
speculative output equals vanilla output, the ledger derived from the
trace sums to the forward passes a counting backend saw, every live
(layer, position) entry was computed exactly once at every verification
boundary and at the end, the trace-derived acceptance counts never
exceed what was checked, each exit answered the exit queries its trace
events imply, and the tallied ledger equals a per-pass replay of the
same trace, phase by phase. Each trace example draws the event
records and finalize spans of a 2-, 3- or 4-exit session directly and
checks that same equality. The synthetic examples also check the tokens
and every event field but the processed spans against `reference_decode`,
which recomputes each exit's prediction from the context alone and keeps
no state. Each toy example draws a small random-weight
transformer and checks, at every verification boundary of a hierarchical
and a 4-exit decode, that a recompute from scratch matches the live
state exactly, and that the ledger of every decode, vanilla included,
sums to its counted passes. The same toy examples check that the reference
a state holds between checks equals a fresh recompute bit for bit at every
boundary of the 2-, 3- and 4-exit decodes, and that it is built once and
then extended only over the positions each boundary adds. Each bookkeeping example drives a state of
either backend, with 1 to 4 exits, through random passes and prunes, and
checks every call against a layer-by-layer reference of the fill rules.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import (
    AlignmentError,
    ModelConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    ToyTransformer,
    consistency_check,
    replay_ledger,
    speculative_decode,
)
from specdec.costs import PHASES, PhaseCost
from specdec.engine import Commit, DecodeTrace, DraftStep, IntermediateVerify, TargetVerify

from conftest import (
    CountingBackend,
    all_agree_backend,
    assert_ledger_counts_passes,
    counted,
    equals_snapshot,
    live_counts_are_one,
    per_array_reports,
    reference_decode,
    snapshot,
    trace_queries,
    unspanned,
)


def decode_shapes(draw, n_layers, vocab, max_seq_len, prompt_len):
    """Budget, eos and the (exits, bursts) of an example's 1-, 2- and 3-exit
    decodes, plus a 4-exit one, the 3-exit exits and one more below the full
    depth, when a layer is free for it."""
    budget = draw(st.integers(1, max_seq_len - prompt_len))
    draft = draw(st.integers(1, n_layers - 2))
    intermediate = draw(st.integers(draft + 1, n_layers - 1))
    draft_len, accept_window = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    eos = draw(st.none() | st.integers(0, vocab - 1))
    shapes = [
        ((n_layers,), ()),
        ((draft, n_layers), (draft_len,)),
        ((draft, intermediate, n_layers), (draft_len, accept_window)),
    ]
    free = sorted(set(range(1, n_layers)) - {draft, intermediate})
    if free:
        extra = draw(st.sampled_from(free))
        exits = tuple(sorted((draft, intermediate, extra, n_layers)))
        shapes.append((exits, (draft_len, accept_window, draw(st.integers(1, 8)))))
    return budget, eos, shapes


def per_pass_replay(trace, prompt_len, exits):
    """The per-phase costs of `trace` priced one pass at a time, in trace
    order, with no ledger: the reference for `replay_ledger`'s histogram."""
    phases = {phase: PhaseCost() for phase in PHASES}
    widths = [exits[0]] + [exits[i] - exits[i - 1] for i in range(1, len(exits))]

    def price(phase, layers, positions):
        cost = phases[phase]
        cost.sequential_depth_units += layers
        cost.position_layer_units += layers * positions
        cost.pass_count += 1

    def price_spans(phase, spans):
        for level, (a, b) in enumerate(spans):
            if b > a:
                price(phase, widths[level], b - a)

    price("prefill", exits[-1], prompt_len)
    for event in trace.events:
        if isinstance(event, DraftStep):
            a, b = event.processed
            for _ in range(b - a):
                price("draft", widths[0], 1)
        elif isinstance(event, IntermediateVerify):
            price_spans("intermediate_verify", event.processed)
        elif isinstance(event, TargetVerify):
            price_spans("target_verify", event.processed)
    price_spans("target_verify", trace.finalize_processed)
    return phases


def assert_same_phases(ledger, reference):
    for phase in PHASES:
        assert ledger.phases[phase] == reference[phase], phase


@st.composite
def decode_cases(draw):
    n_layers = draw(st.integers(3, 10))
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=n_layers - 1, max_size=n_layers - 1))
    profile = dict(enumerate(alphas, start=1))
    profile[n_layers] = 1.0
    vocab = draw(st.integers(4, 12))
    max_seq_len = draw(st.integers(2, 40))
    backend = SyntheticBackend(
        SyntheticModelSpec(
            n_layers=n_layers,
            vocab_size=vocab,
            seed=draw(st.integers(0, 2**32)),
            agreement_profile=profile,
            context_window=draw(st.integers(1, 4)),
            max_seq_len=max_seq_len,
        )
    )
    prompt = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=min(8, max_seq_len - 1)))
    return (backend, prompt, *decode_shapes(draw, n_layers, vocab, max_seq_len, len(prompt)))


@st.composite
def toy_cases(draw):
    n_layers = draw(st.integers(3, 6))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    vocab = draw(st.integers(4, 16))
    max_seq_len = draw(st.integers(2, 24))
    backend = ToyTransformer(
        ModelConfig(
            n_layers=n_layers,
            d_model=n_heads * draw(st.integers(1, 4)),
            n_heads=n_heads,
            vocab_size=vocab,
            max_seq_len=max_seq_len,
            seed=draw(st.integers(0, 2**32)),
        )
    )
    prompt = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=min(8, max_seq_len - 1)))
    return (backend, prompt, *decode_shapes(draw, n_layers, vocab, max_seq_len, len(prompt)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(decode_cases())
def test_speculative_decodes_keep_engine_invariants(case):
    backend, prompt, budget, eos, shapes = case
    boundaries_clean = []

    def hook(session):
        # The session decodes on the counting wrapper that `counted` made.
        boundaries_clean.append(live_counts_are_one(session.backend, session.state))

    decodes = [
        counted(speculative_decode, backend, prompt, exits, bursts, budget, eos, boundary_hook=hook)
        for exits, bursts in shapes
    ]
    reference = decodes[0][0].tokens
    assert all(boundaries_clean)
    for (result, counter), (session_exits, bursts) in zip(decodes, shapes):
        assert result.tokens == reference
        assert_ledger_counts_passes(result.ledger, counter.passes)
        assert_same_phases(result.ledger, per_pass_replay(result.trace, len(prompt), session_exits))
        assert live_counts_are_one(counter, result.state)
        stats = result.stats
        # With a verifier every DraftStep is shown to it; vanilla shows none.
        drafts = [e for e in result.trace.events if type(e) is DraftStep]
        shown = sum(len(e.tokens) for e in drafts) if len(session_exits) > 1 else 0
        assert stats.drafted == shown
        assert stats.accepted_intermediate <= stats.checked_intermediate
        assert stats.accepted_target <= stats.checked_target
        # Every round has room: each draft holds a token, and the top exit is
        # shown at least one and at most the levels' burst lengths together.
        assert all(e.tokens for e in drafts)
        for event in result.trace.events:
            if type(event) is TargetVerify:
                assert 1 <= event.presented <= sum(bursts)
                assert event.reason in ("round", "window", "eos", "budget")
        # `_walk` reads finalize's spans as levels 0, 1, ...: that holds
        # because finalize runs every level or none, and keeps no empty span.
        spans = result.trace.finalize_processed
        assert len(spans) in (0, len(session_exits)) and all(b > a for a, b in spans)
        assert counter.queries == trace_queries(result.trace, session_exits)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(decode_cases())
def test_events_match_a_stateless_reference(case):
    backend, prompt, budget, eos, shapes = case
    for exits, bursts in shapes:
        result = speculative_decode(backend, prompt, exits, bursts, budget, eos)
        tokens, events = reference_decode(backend, prompt, exits, bursts, budget, eos)
        assert result.tokens == tokens
        assert [unspanned(event) for event in result.trace.events] == events


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(toy_cases())
def test_toy_boundaries_recompute_exactly(case):
    backend, prompt, budget, eos, shapes = case
    boundaries = []

    def hook(session):
        state = session.state
        reports = consistency_check(state, backend, state.tokens)
        boundaries.append(
            (
                max(r.max_abs_discrepancy for r in reports),
                live_counts_are_one(session.backend, state),
            )
        )

    # The 3-exit decode and the 4-exit one, if any.
    decodes = [
        counted(speculative_decode, backend, prompt, exits, bursts, budget, eos, boundary_hook=hook)
        for exits, bursts in shapes[2:]
    ]
    assert len(boundaries) >= len(decodes)
    assert all(worst == 0.0 and counts_ok for worst, counts_ok in boundaries)
    vanilla, vanilla_counter = counted(speculative_decode, backend, prompt, *shapes[0], budget, eos)
    for result, counter in [(vanilla, vanilla_counter), *decodes]:
        assert result.tokens == vanilla.tokens
        assert_ledger_counts_passes(result.ledger, counter.passes)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(toy_cases())
def test_held_reference_equals_a_fresh_recompute(case):
    # At a decode's boundaries every layer shares one fill, so the check holds
    # one reference over each 2-, 3- and 4-exit decode: built once by
    # `reference_state`, then extended by one pass of every layer over the
    # positions each boundary adds, never computing an entry twice.
    backend, prompt, budget, eos, shapes = case
    for exits, bursts in shapes[1:]:
        counter = CountingBackend(backend)
        fills = []  # the one fill of each boundary

        def hook(session):
            state = session.state
            held = consistency_check(state, counter, state.tokens)
            fresh = backend.reference_state(state.tokens, state.fills(), state.buffered_layers)
            assert held == per_array_reports(state, fresh)
            assert equals_snapshot(counter.references[0], snapshot(fresh))  # bit for bit
            [fill] = set(state.fills())
            fills.append(fill)

        speculative_decode(backend, prompt, exits, bursts, budget, eos, boundary_hook=hook)
        [reference] = counter.references
        grown = [(backend.n_layers, b - a) for a, b in zip(fills, fills[1:]) if b > a]
        assert counter.passes == grown
        assert reference.fills() == (fills[-1],) * backend.n_layers
        assert live_counts_are_one(counter, reference)


@st.composite
def traces(draw):
    """A trace of a 2-, 3- or 4-exit session: draft steps, verify events of
    random levels, commits and 1 to N non-empty finalize spans, each span
    at most 5 positions wide and some of them empty."""
    n_layers = draw(st.integers(2, 12))
    below = draw(st.sets(st.integers(1, n_layers - 1), min_size=1, max_size=min(3, n_layers - 1)))
    exits = (*sorted(below), n_layers)
    span = st.tuples(st.integers(0, 40), st.integers(0, 5)).map(lambda t: (t[0], t[0] + t[1]))

    def spans(levels):
        return st.lists(span, min_size=levels, max_size=levels).map(tuple)

    record = st.one_of(
        span.map(lambda processed: (DraftStep, processed[0], (), processed)),
        st.integers(2, len(exits)).flatmap(spans).map(
            lambda processed: (IntermediateVerify, (), None, 0, processed)
        ),
        spans(len(exits)).map(
            lambda processed: (TargetVerify, (), None, 0, 0, False, "round", processed)
        ),
        st.just((Commit, ())),
    )
    finalize = st.lists(
        span.filter(lambda s: s[1] > s[0]), min_size=1, max_size=len(exits)
    ).map(tuple)
    records = draw(st.lists(record, max_size=25))
    trace = DecodeTrace(records=records, finalize_processed=draw(finalize))
    return trace, draw(st.integers(1, 40)), exits


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(traces())
def test_tallied_ledger_equals_a_per_pass_replay(case):
    trace, prompt_len, exits = case
    ledger = replay_ledger(trace, prompt_len, exits)
    assert_same_phases(ledger, per_pass_replay(trace, prompt_len, exits))


def advance_error(fills, n_tokens, max_seq_len, start_layer, end_layer, start_pos, end_pos):
    """What `advance` must reject this pass for, read layer by layer with no
    shortcut: the full message of a non-contiguous pass, the start of any
    other, or None for a valid pass."""
    if not 1 <= start_layer <= end_layer <= len(fills):
        return "invalid layer range"
    if end_pos <= start_pos:
        return "empty position span"
    if end_pos > max_seq_len:
        return f"position {end_pos - 1} beyond max_seq_len"
    if end_pos > n_tokens:
        return f"no token recorded at position {end_pos - 1}"
    for layer in range(start_layer, end_layer + 1):
        if fills[layer - 1] != start_pos:
            return (
                f"non-contiguous pass at layer {layer}: "
                f"filled to {fills[layer - 1]}, expected {start_pos}"
            )
    if start_layer > 1 and fills[start_layer - 2] < end_pos:
        return f"missing hidden state at (layer {start_layer - 1}, position {fills[start_layer - 2]})"
    return None


@st.composite
def bookkeeping_cases(draw):
    """A backend of either kind, 1 to 4 exits and a list of operations.

    A pass runs the layers from just above one exit (or from layer 1) up
    through 1 to 3 exits (0 makes an empty range), so the toy backend
    always has its input. It starts at its first layer's fill, nudged off
    by one now and then, and covers 0 to 3 positions. A prune keeps a
    drawn number of positions.
    """
    n_layers = draw(st.integers(3, 8))
    max_seq_len = draw(st.integers(2, 16))
    vocab = 8
    if draw(st.booleans()):
        backend = ToyTransformer(
            ModelConfig(
                n_layers=n_layers, d_model=4, n_heads=2, vocab_size=vocab,
                max_seq_len=max_seq_len, seed=draw(st.integers(0, 2**32)),
            )
        )
    else:
        backend = all_agree_backend(n_layers, vocab, max_seq_len=max_seq_len)
    below = draw(st.sets(st.integers(1, n_layers - 1), max_size=min(3, n_layers - 1)))
    exits = (*sorted(below), n_layers)
    levels = len(exits)
    op = st.one_of(
        st.tuples(
            st.just("pass"),
            st.integers(0, levels - 1),
            st.sampled_from((1, 1, 1, 2, 3, 0)),
            st.sampled_from((0, 0, -1, 1)),
            st.sampled_from((1, 1, 2, 3, 0)),
        ),
        st.tuples(st.just("prune"), st.integers(0, max_seq_len)),
    )
    return backend, exits, draw(st.lists(op, min_size=5, max_size=30))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(bookkeeping_cases())
def test_fills_stay_monotone_ints_and_rejected_passes_change_nothing(case):
    backend, exits, ops = case
    counter = CountingBackend(backend)
    state = backend.new_state(buffered_layers=exits)
    bounds = (0, *exits)
    expected = [0] * state.n_layers  # the fills by the reference rules
    for op in ops:
        if op[0] == "prune":
            keep = min(op[1], len(state.tokens))
            state.prune_all(keep)
            expected = [min(fill, keep) for fill in expected]
        else:
            _, lo, levels, nudge, length = op
            start_layer, end_layer = bounds[lo] + 1, bounds[min(lo + levels, len(exits))]
            start_pos = max(0, state.fills()[start_layer - 1] + nudge)
            end_pos = start_pos + length
            while len(state.tokens) < min(end_pos, state.max_seq_len):
                state.append_token(len(state.tokens) % backend.vocab_size)
            error = advance_error(
                expected, len(state.tokens), state.max_seq_len,
                start_layer, end_layer, start_pos, end_pos,
            )
            before = snapshot(state)
            try:
                counter.forward_range(state, start_layer, end_layer, start_pos, end_pos)
            except AlignmentError as exc:
                assert error is not None and str(exc).startswith(error)
                assert equals_snapshot(state, before)
            else:
                assert error is None
                expected[start_layer - 1 : end_layer] = [end_pos] * (end_layer - start_layer + 1)
        fills = state.fills()
        assert fills == tuple(expected)
        assert all(type(fill) is int for fill in fills)
        assert all(upper >= lower for upper, lower in zip(fills, fills[1:]))
        assert live_counts_are_one(counter, state)
