"""Bounded-exhaustive decodes: every accept and reject pattern up to a horizon.

On a `MaskBackend` of 4 layers, a mask decides at each lower exit and
each of the first HORIZON generated tokens whether that exit predicts it
right and, if not, which of the two wrong tokens it gives; from then on
every exit is right. The settings are a 2-exit shape with bursts 1, 2 or
3 and a 3-exit shape with bursts in {1, 2}; budgets 1 to HORIZON - 1;
eos 2 or none; and a prompt [1] with ample room past the budget (its
truth runs 1, 2, 1, ...) or a prompt [1, 1] with none (2, 1, 2, ...).
For each, the test runs every mask and checks each decode: its tokens
equal vanilla's, every event field but `processed` equals
`reference_decode`'s, the ledger sums to the passes a counting backend
saw, every live entry was computed once, and each exit answered the
queries its trace events imply.

The masks are enumerated lazily. The engine's decode and then the
reference's read one shared mask; the first read of an entry takes the
next value of a choice sequence, or 0 once the sequence is spent, and
each run queues, for every entry it read past its sequence, the runs
that give that entry each other value. An entry that neither decode reads
cannot change either, so this runs each class of masks that agree on all
read entries exactly once: every mask, with no run repeated.

Bound: at HORIZON 4, 626 2-exit and 19,280 3-exit decodes, about 6 s on
a two-core machine. A 4-exit shape would take about 300,000 decodes at
HORIZON 4 and 160,000 at 3.
"""
import itertools

import pytest

from specdec import speculative_decode

from conftest import (
    MaskBackend,
    assert_ledger_counts_passes,
    counted,
    live_counts_are_one,
    reference_decode,
    trace_queries,
    unspanned,
)

HORIZON = 4
N_LAYERS = 4
# exit count -> (exits, burst lengths)
SHAPES = {2: ((2, 4), (1, 2, 3)), 3: ((1, 3, 4), (1, 2))}


class LazyMask:
    """A mask whose entries are chosen on first read from `choices`, 0 once
    they are spent; `read` lists the values chosen, in order of first read.
    The entry of a lower exit's prediction of generated token g is
    (layer, g)."""

    def __init__(self, choices, prompt_len):
        self.choices, self.offset, self.values, self.read = choices, prompt_len - 1, {}, []

    def __call__(self, layer, position):
        generated = position - self.offset
        if generated >= HORIZON:
            return 0
        key = (layer, generated)
        if key not in self.values:
            n = len(self.read)
            self.values[key] = self.choices[n] if n < len(self.choices) else 0
            self.read.append(self.values[key])
        return self.values[key]


def each_mask(run, prompt_len):
    """Call `run(mask)` once for each class of masks that agree on the
    entries read; return the number of runs."""
    pending, runs = [()], 0
    while pending:
        mask = LazyMask(pending.pop(), prompt_len)
        run(mask)
        runs += 1
        for n in range(len(mask.choices), len(mask.read)):
            pending += [(*mask.read[:n], value) for value in (1, 2)]
    return runs


def decode_settings(n_exits):
    """(bursts, budget, eos, prompt, max_seq_len) of each decode setting."""
    for bursts in itertools.product(SHAPES[n_exits][1], repeat=n_exits - 1):
        for budget, eos, (prompt, room) in itertools.product(
            range(1, HORIZON), (None, 2), (([1], 8), ([1, 1], 0))
        ):
            yield bursts, budget, eos, prompt, len(prompt) + budget + room


@pytest.mark.parametrize("n_exits", sorted(SHAPES))
def test_every_mask_decodes_as_the_reference(n_exits):
    exits, runs = SHAPES[n_exits][0], 0
    for bursts, budget, eos, prompt, max_seq_len in decode_settings(n_exits):
        vanilla = speculative_decode(
            MaskBackend(N_LAYERS, None, max_seq_len), prompt, (N_LAYERS,), (), budget, eos
        ).tokens

        def run(mask):
            backend = MaskBackend(N_LAYERS, mask, max_seq_len)
            result, counter = counted(
                speculative_decode, backend, prompt, exits, bursts, budget, eos
            )
            tokens, events = reference_decode(
                backend, prompt, exits, bursts, budget, eos, predict=MaskBackend.predict
            )
            assert result.tokens == tokens == vanilla
            assert [unspanned(event) for event in result.trace.events] == events
            assert_ledger_counts_passes(result.ledger, counter.passes)
            assert live_counts_are_one(counter, result.state)
            assert counter.queries == trace_queries(result.trace, exits)

        runs += each_mask(run, len(prompt))
    print(f"{n_exits} exits: {runs} decodes")
