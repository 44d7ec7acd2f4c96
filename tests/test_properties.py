"""Property tests: speculative decoding over random synthetic models.

Each example draws an agreement profile, prompt, exits, N_d, N_i, eos and
budget, then checks the invariants the engine promises for every input:
greedy speculative output equals vanilla output, the live ledger equals
its replay from the trace, every live (layer, position) entry was
computed exactly once at every verification boundary and at the end,
and the trace-derived acceptance counts never exceed what was checked.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import (
    HierarchicalConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    hierarchical_decode,
    replay_ledger,
    selfspec_decode,
    vanilla_decode,
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
    budget = draw(st.integers(1, max_seq_len - len(prompt)))
    draft = draw(st.integers(1, n_layers - 2))
    config = HierarchicalConfig(
        draft_layer=draft,
        intermediate_layer=draw(st.integers(draft + 1, n_layers - 1)),
        full_layer=n_layers,
        draft_len=draw(st.integers(1, 5)),
        accept_window=draw(st.integers(1, 8)),
        max_new_tokens=budget,
        eos_token=draw(st.none() | st.integers(0, vocab - 1)),
    )
    return backend, prompt, config


def live_counts_are_one(state):
    return all((state.compute_counts(layer) == 1).all() for layer in range(1, state.n_layers + 1))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(decode_cases())
def test_speculative_decodes_keep_engine_invariants(case):
    backend, prompt, config = case
    eos, budget = config.eos_token, config.max_new_tokens
    boundaries_clean = []

    def hook(session):
        boundaries_clean.append(live_counts_are_one(session.state))

    decodes = {
        (backend.n_layers,): vanilla_decode(backend, prompt, budget, eos_token=eos),
        (config.draft_layer, backend.n_layers): selfspec_decode(
            backend, prompt, config.draft_layer, config.draft_len, budget, eos_token=eos
        ),
        (config.draft_layer, config.intermediate_layer, backend.n_layers): hierarchical_decode(
            backend, prompt, config, boundary_hook=hook
        ),
    }
    reference = decodes[(backend.n_layers,)].tokens
    assert all(boundaries_clean)
    for exits, result in decodes.items():
        assert result.tokens == reference
        assert result.ledger == replay_ledger(result.trace, len(prompt), exits)
        assert live_counts_are_one(result.state)
        stats = result.stats
        assert stats.accepted_intermediate <= stats.checked_intermediate
        assert stats.accepted_target <= stats.checked_target
