import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from specdec import ModelConfig, SyntheticBackend, SyntheticModelSpec, ToyTransformer
from specdec.costs import PhaseCost
from specdec.engine import Commit, DraftStep, IntermediateVerify, TargetVerify
from specdec.errors import AlignmentError
from specdec.state import LayeredState, LayerReport
from specdec.synthetic import (
    _GOLDEN,
    _MASK64,
    _TAG_AGREE,
    _TAG_DECOY,
    _TAG_TRUTH,
    mix64,
    uniform_profile,
)


@pytest.fixture(scope="session")
def toy_backend():
    config = ModelConfig(
        n_layers=6, d_model=32, n_heads=4, vocab_size=32, max_seq_len=128, seed=11
    )
    return ToyTransformer(config)


@pytest.fixture(scope="session")
def oracle_backend():
    """Synthetic backend with a mid-agreement rising profile."""
    profile = {l: min(1.0, 0.1 + 0.12 * l) for l in range(1, 9)}
    profile[8] = 1.0
    spec = SyntheticModelSpec(
        n_layers=8, vocab_size=32, seed=7, agreement_profile=profile, max_seq_len=512
    )
    return SyntheticBackend(spec)


def all_agree_backend(n_layers=8, vocab_size=32, seed=3, max_seq_len=512):
    spec = SyntheticModelSpec(
        n_layers=n_layers,
        vocab_size=vocab_size,
        seed=seed,
        agreement_profile=uniform_profile(n_layers, 1.0),
        max_seq_len=max_seq_len,
    )
    return SyntheticBackend(spec)


def reference_draw(spec, window):
    """The (truth, draw, decoy) of a context window under a
    SyntheticModelSpec, from `mix64` alone: the window's hash folds `mix64`
    over the seed's hash and each token, and each tag mixes that hash once
    more."""
    h = mix64(spec.seed ^ _GOLDEN)
    for token in window:
        h = mix64(h ^ ((token + _GOLDEN) & _MASK64))
    truth = mix64(h ^ _TAG_TRUTH) % spec.vocab_size
    decoy = (truth + 1 + mix64(h ^ _TAG_DECOY) % (spec.vocab_size - 1)) % spec.vocab_size
    return truth, mix64(h ^ _TAG_AGREE) / 2**64, decoy


def predict_token(backend, layer, context):
    """The token a SyntheticBackend's exit at `layer` predicts after
    `context`, recomputed from the hash construction alone: the trailing
    window's `reference_draw` and alpha(layer), of which 1.0 always agrees.
    It calls nothing of the backend, so it checks `exit_distribution`
    rather than repeating it."""
    spec = backend.spec
    truth, draw, decoy = reference_draw(spec, list(context)[-spec.context_window :])
    alpha = spec.agreement_profile[layer]
    return truth if alpha == 1.0 or draw < alpha else decoy


class MaskBackend:
    """A backend over the tokens 0, 1 and 2 whose lower exits are right or
    wrong by a mask. After `position`, the top exit answers the truth,
    `sum(context) % 3`, and the exit at a lower `layer` answers `(truth +
    mask(layer, position)) % 3`, so two wrong exits can agree or differ.
    Its state is bookkeeping only: its `forward_range` is
    `LayeredState.advance`, bound as `SyntheticBackend` binds it."""

    vocab_size = 3

    def __init__(self, n_layers, mask, max_seq_len):
        self.n_layers, self.mask, self.max_seq_len = n_layers, mask, max_seq_len
        self.forward_range = LayeredState.advance

    def new_state(self, buffered_layers=()):
        return LayeredState(self.n_layers, self.max_seq_len, None, buffered_layers)

    def predict(self, layer, context):
        truth = sum(context) % 3
        if layer == self.n_layers:
            return truth
        return (truth + self.mask(layer, len(context) - 1)) % 3

    def exit_distribution(self, state, layer, position):
        if not 0 <= position < state.live_fills[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        return self.predict(layer, state.tokens[: position + 1])


def random_prompt(rng: np.random.Generator, vocab_size: int, lo=2, hi=10) -> list[int]:
    length = int(rng.integers(lo, hi + 1))
    return [int(t) for t in rng.integers(0, vocab_size, size=length)]


class CountingBackend:
    """Forwards every attribute to `backend`, records each forward_range
    call as (layers, positions) and counts the exit_distribution calls per
    layer in `queries`: counts of the work done that do not read the trace.
    Each state that its `reference_state` returns is kept in `references`.

    It also counts how often each (state, layer, position) entry was
    computed, without reading anything the state keeps but its fills:
    before each pass, the entries at or past a layer's fill were pruned
    and are dropped; after a pass that succeeded, each entry it covered
    counts one more compute. A reference state starts with one compute of
    each entry it was built with. `live_counts_are_one` reads the result."""

    def __init__(self, backend):
        self.backend = backend
        self.passes: list[tuple[int, int]] = []
        self.queries: Counter = Counter()
        self.references: list = []
        # state -> per layer, the compute count of each position from 0
        self.computes: dict[object, list[list[int]]] = {}

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def forward_range(self, state, start_layer, end_layer, start_pos, end_pos):
        self.passes.append((end_layer - start_layer + 1, end_pos - start_pos))
        per_layer = self.computes.setdefault(state, [[] for _ in range(state.n_layers)])
        for counts, fill in zip(per_layer, state.fills()):
            del counts[fill:]
        result = self.backend.forward_range(state, start_layer, end_layer, start_pos, end_pos)
        for counts in per_layer[start_layer - 1 : end_layer]:
            counts.extend([0] * (end_pos - len(counts)))
            for position in range(start_pos, end_pos):
                counts[position] += 1
        return result

    def reference_state(self, tokens, fills, buffered_layers):
        reference = self.backend.reference_state(tokens, fills, buffered_layers)
        self.references.append(reference)
        self.computes[reference] = [[1] * fill for fill in fills]
        return reference

    def exit_distribution(self, state, layer, position):
        self.queries[layer] += 1
        return self.backend.exit_distribution(state, layer, position)


def live_counts_are_one(counter, state):
    """Every live (layer, position) of `state` was computed exactly once by
    `counter`'s passes: none twice, none missing."""
    per_layer = counter.computes.get(state, [[] for _ in range(state.n_layers)])
    return all(counts[:fill] == [1] * fill for counts, fill in zip(per_layer, state.fills()))


def counted(decode, backend, *args, **kwargs):
    """Run `decode` on a counting wrapper of `backend`; return the result and
    the wrapper, which holds the passes it made."""
    counter = CountingBackend(backend)
    return decode(counter, *args, **kwargs), counter


def assert_ledger_counts_passes(ledger, passes):
    """The ledger sums to the counted passes, holds each of them as a
    (layers, positions) pass, and prefill is the first one."""
    costs = ledger.phases.values()
    assert sum(cost.pass_count for cost in costs) == len(passes)
    assert sum(cost.sequential_depth_units for cost in costs) == sum(l for l, _ in passes)
    assert sum(cost.position_layer_units for cost in costs) == sum(l * p for l, p in passes)
    shapes = Counter()
    for (_, first, last, positions), count in ledger.passes.items():
        shapes[last - first + 1, positions] += count
    assert shapes == Counter(passes)
    layers, positions = passes[0]
    assert ledger.phases["prefill"] == PhaseCost(layers, layers * positions, 1)


def trace_queries(trace, exits):
    """The exit queries per exit layer that a decode's trace implies: the
    draft exit answers one per drafted token; a screening exit one per
    accepted token and one for the mismatch or the bonus, which it asks
    even when capacity drops the bonus; the top exit one per accepted token
    and one on a mismatch."""
    queries = Counter()
    for event in trace.events:
        if type(event) is DraftStep:
            queries[exits[0]] += len(event.tokens)
        elif type(event) is IntermediateVerify:  # its spans run through its level
            queries[exits[len(event.processed) - 1]] += len(event.accepted) + 1
        elif type(event) is TargetVerify:
            queries[exits[-1]] += len(event.accepted) + event.mismatch
    return queries


def snapshot(state):
    """A copy of what a LayeredState holds: tokens, fills, committed length
    and every K, V and hidden array."""
    return (
        list(state.tokens),
        state.fills(),
        state.committed_len,
        [rows.copy() for _, rows in state.arrays()],
    )


def equals_snapshot(state, snap):
    """`state` holds exactly what `snap` recorded, bit for bit."""
    tokens, fills, committed_len, arrays = snapshot(state)
    return (
        (tokens, fills, committed_len) == snap[:3]
        and len(arrays) == len(snap[3])
        and all(map(np.array_equal, arrays, snap[3]))
    )


def per_array_reports(state, reference):
    """The report `consistency_check` gives `state` against `reference`,
    from one comparison per K, V and hidden array: per layer, the worst
    absolute gap over the layer's fill and its first position, or (0.0,
    None), with a NaN gap read as infinity. It never compares the blocks
    whole, so it is the oracle of `state._layer_reports`."""
    fills = state.live_fills
    worst = [(0.0, None)] * state.n_layers
    for (layer, rows), (_, theirs) in zip(state.arrays(), reference.arrays(), strict=True):
        fill = fills[layer - 1]
        if fill == 0:
            continue
        per_pos = np.abs(rows[:fill] - theirs[:fill]).max(axis=1)
        position = int(per_pos.argmax())  # the first NaN, if there is one
        gap = float(per_pos[position])
        if math.isnan(gap):
            gap = math.inf
        if gap > worst[layer - 1][0]:
            worst[layer - 1] = (gap, position)
    return [LayerReport(layer, *pair) for layer, pair in enumerate(worst, 1)]


def decode_record(result, boundaries=()) -> str:
    """Everything a decode records, as canonical JSON: tokens, trace events,
    finalize spans, the per-phase ledger, stats, the final per-layer fills
    and the given verification `boundaries`."""
    payload = {
        "tokens": result.tokens,
        "events": [[type(e).__name__, dataclasses.asdict(e)] for e in result.trace.events],
        "finalize": result.trace.finalize_processed,
        "ledger": {name: dataclasses.asdict(c) for name, c in result.ledger.phases.items()},
        "stats": dataclasses.asdict(result.stats),
        "fills": result.state.fills(),
        "boundaries": list(boundaries),
    }
    return json.dumps(payload, sort_keys=True)


def unspanned(event):
    """An event's class and its fields but `processed`, in field order."""
    names = [f.name for f in dataclasses.fields(event) if f.name != "processed"]
    return (type(event), *(getattr(event, name) for name in names))


def reference_decode(
    backend, prompt, exits, bursts, max_new_tokens, eos=None, predict=predict_token
):
    """The committed tokens and the trace events, each as `unspanned` gives
    it, of a decode on `backend`, from the round algorithm of `engine.py`'s
    module docstring run over a plain token list.

    Every prediction is `predict(backend, layer, context)`, of the context
    before the position: by default `predict_token`'s, for a
    SyntheticBackend. Nothing is kept between predictions, so no state,
    prune or span takes part. No level grows the context past
    `max_seq_len`: a draft stops there, and a screening level there adds
    no token.
    """
    context, events, top = list(prompt), [], len(exits) - 1

    def draft(n):
        start, tokens = len(context), []
        while len(tokens) < n and len(context) < backend.max_seq_len:
            tokens.append(predict(backend, exits[0], context))
            context.append(tokens[-1])
            if tokens[-1] == eos:
                break
        events.append((DraftStep, start, tuple(tokens)))
        return tokens

    def verify(level, offered):
        """The prefix of `offered`, the newest tokens of the context, that
        the level's exit agrees with, its own token and whether it disagreed;
        a disagreement cuts the rest from the context."""
        start = len(context) - len(offered)
        for j, token in enumerate(offered):
            own = predict(backend, exits[level], context[: start + j])
            if own != token:
                del context[start + j :]
                return offered[:j], own, True
        own = predict(backend, exits[level], context) if level < top else None
        return list(offered), own, False

    def gather(level, room):
        if level == 0:
            return draft(bursts[0]), "round"
        gathered = []
        while len(gathered) < bursts[level] and eos not in gathered and len(gathered) < room:
            offered, _ = gather(level - 1, room - len(gathered))
            accepted, bonus, _ = verify(level, offered)
            gathered += accepted
            if len(context) < backend.max_seq_len:
                context.append(bonus)
                gathered.append(bonus)
            else:
                bonus = None
            rejected = len(offered) - len(accepted)
            events.append((IntermediateVerify, tuple(accepted), bonus, rejected))
        if len(gathered) >= bursts[level]:
            return gathered, "window"
        return gathered, "eos" if eos in gathered else "budget"

    if top == 0:  # vanilla: one draft as long as the budget, committed unverified
        committed = draft(max_new_tokens)
        events.append((Commit, tuple(committed)))
        return committed, events
    committed, room = [], max_new_tokens
    while room > 0:
        tentative, reason = gather(top - 1, room)
        accepted, bonus, mismatch = verify(top, tentative)
        kept = accepted[:room]
        if eos in kept:
            kept = kept[: kept.index(eos) + 1]
        flushed = len(tentative) - len(kept)
        if mismatch and eos not in kept and len(kept) < room:
            kept.append(bonus)
        else:
            bonus = None
        events.append(
            (TargetVerify, tuple(accepted), bonus, len(tentative), flushed, mismatch, reason)
        )
        events.append((Commit, tuple(kept)))
        committed += kept
        context[len(prompt) :] = committed
        room -= len(kept)
        if eos in kept:
            break
    return committed, events
