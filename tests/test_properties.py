"""Property tests: speculative decoding over random synthetic and toy models.

Each synthetic example draws an agreement profile, prompt, exits, N_d,
N_i, eos and budget, plus a fourth exit and its burst length when the
model has a layer left for one. It then checks the invariants the engine
promises for every input, on 2-, 3- and 4-exit sessions: greedy
speculative output equals vanilla output, the ledger derived from the
trace sums to the forward passes a counting backend saw, every live
(layer, position) entry was computed exactly once at every verification
boundary and at the end, and the trace-derived acceptance counts never
exceed what was checked. Each toy example draws a small random-weight
transformer and checks, at every verification boundary of a hierarchical
and a 4-exit decode, that a recompute from scratch matches the live
state exactly, and that the ledger of every decode, vanilla included,
sums to its counted passes.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import (
    HierarchicalConfig,
    ModelConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    ToyTransformer,
    consistency_check,
    hierarchical_decode,
    selfspec_decode,
    speculative_decode,
    vanilla_decode,
)

from conftest import assert_ledger_counts_passes, counted


def hierarchical_config(draw, n_layers, vocab, max_seq_len, prompt_len):
    budget = draw(st.integers(1, max_seq_len - prompt_len))
    draft = draw(st.integers(1, n_layers - 2))
    return HierarchicalConfig(
        draft_layer=draft,
        intermediate_layer=draw(st.integers(draft + 1, n_layers - 1)),
        full_layer=n_layers,
        draft_len=draw(st.integers(1, 5)),
        accept_window=draw(st.integers(1, 8)),
        max_new_tokens=budget,
        eos_token=draw(st.none() | st.integers(0, vocab - 1)),
    )


def cascade(draw, config):
    """Exits and burst lengths of a 4-exit session: the config's exits plus
    one more below the full depth, or None when no layer is free."""
    n_layers = config.full_layer
    free = sorted(set(range(1, n_layers)) - {config.draft_layer, config.intermediate_layer})
    if not free:
        return None
    extra = draw(st.sampled_from(free))
    exits = tuple(sorted((config.draft_layer, config.intermediate_layer, extra, n_layers)))
    return exits, (config.draft_len, config.accept_window, draw(st.integers(1, 8)))


def cascade_decode(backend, prompt, config, exits, bursts, boundary_hook=None):
    return speculative_decode(
        backend, prompt, exits, bursts, config.max_new_tokens, config.eos_token,
        boundary_hook=boundary_hook,
    )


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
    config = hierarchical_config(draw, n_layers, vocab, max_seq_len, len(prompt))
    return backend, prompt, config, cascade(draw, config)


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
    config = hierarchical_config(draw, n_layers, vocab, max_seq_len, len(prompt))
    return backend, prompt, config, cascade(draw, config)


def live_counts_are_one(state):
    return all((state.compute_counts(layer) == 1).all() for layer in range(1, state.n_layers + 1))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(decode_cases())
def test_speculative_decodes_keep_engine_invariants(case):
    backend, prompt, config, four_exits = case
    eos, budget = config.eos_token, config.max_new_tokens
    boundaries_clean = []

    def hook(session):
        boundaries_clean.append(live_counts_are_one(session.state))

    decodes = [
        counted(vanilla_decode, backend, prompt, budget, eos_token=eos),
        counted(
            selfspec_decode, backend, prompt, config.draft_layer, config.draft_len, budget,
            eos_token=eos, boundary_hook=hook,
        ),
        counted(hierarchical_decode, backend, prompt, config, boundary_hook=hook),
    ]
    if four_exits is not None:
        decodes.append(counted(cascade_decode, backend, prompt, config, *four_exits, hook))
    reference = decodes[0][0].tokens
    assert all(boundaries_clean)
    for result, passes in decodes:
        assert result.tokens == reference
        assert_ledger_counts_passes(result.ledger, passes)
        assert live_counts_are_one(result.state)
        stats = result.stats
        assert stats.accepted_intermediate <= stats.checked_intermediate
        assert stats.accepted_target <= stats.checked_target


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(toy_cases())
def test_toy_boundaries_recompute_exactly(case):
    backend, prompt, config, four_exits = case
    boundaries = []

    def hook(session):
        state = session.state
        reports = consistency_check(state, backend, state.tokens)
        boundaries.append(
            (max(r.max_abs_discrepancy for r in reports), live_counts_are_one(state))
        )

    decodes = [counted(hierarchical_decode, backend, prompt, config, boundary_hook=hook)]
    if four_exits is not None:
        decodes.append(counted(cascade_decode, backend, prompt, config, *four_exits, hook))
    assert len(boundaries) >= len(decodes)
    assert all(worst == 0.0 and counts_ok for worst, counts_ok in boundaries)
    vanilla, vanilla_passes = counted(
        vanilla_decode, backend, prompt, config.max_new_tokens, eos_token=config.eos_token
    )
    for result, passes in [(vanilla, vanilla_passes), *decodes]:
        assert result.tokens == vanilla.tokens
        assert_ledger_counts_passes(result.ledger, passes)
