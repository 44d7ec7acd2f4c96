"""Deterministic hot-path gate: Python calls into `specdec` per committed token.

On the synthetic path a decode is pure interpreter work, so the number of
Python function calls it makes per token is a machine-independent proxy
for its cost. This gate counts the `sys.setprofile` "call" events of code
whose module is in the `specdec` package (`frame.f_globals["__name__"]`),
which includes the `__init__`s that dataclasses generate for it, for one
fixed case: the llama70b-sharegpt preset (seed 0) at its default
placement (10, 20) with bursts (2, 4), 50 prompts of 4-12 tokens
(`random_prompts`, seed 0) and 64 new tokens each, on a backend whose
window cache an unprofiled pass has warmed. Each count must stay at or
below its budget.

The counts per committed token were 6.53 (vanilla), 22.71 (selfspec) and
40.64 (hierarchical) when the budgets were set, once the ledger became a
pass histogram. An earlier rule counted by the code's file name, which
misses generated `__init__`s; it read 6.58, 20.61 and 37.81 against
budgets of 7, 22 and 40, down from 10.64, 36.62 and 68.42 before the
per-session level table and the live fill list.
Like a golden digest, a budget is raised only for a deliberate change
that is recorded in CHANGES.md, with the old and the new counts.
"""
import sys

import pytest

from specdec import SyntheticBackend, calibrate_preset, speculative_decode
from specdec.prompts import random_prompts

BUDGETS = {"vanilla": 7.0, "selfspec": 24.0, "hierarchical": 43.0}
SHAPES = {
    "vanilla": ((80,), ()),
    "selfspec": ((10, 80), (2,)),
    "hierarchical": ((10, 20, 80), (2, 4)),
}


def calls_per_token(exits, bursts) -> float:
    backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt", seed=0))
    prompts = random_prompts(50, backend.vocab_size, 4, 12, seed=0)
    for prompt in prompts:  # warm the window cache
        speculative_decode(backend, prompt, exits, bursts, 64)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("specdec"):
            calls += 1

    tokens = 0
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for prompt in prompts:
            tokens += len(speculative_decode(backend, prompt, exits, bursts, 64).tokens)
    finally:
        sys.setprofile(previous)
    assert tokens == 50 * 64
    return calls / tokens


@pytest.mark.parametrize("strategy", list(SHAPES))
def test_calls_per_token_within_budget(strategy):
    count = calls_per_token(*SHAPES[strategy])
    assert count <= BUDGETS[strategy], f"{strategy}: {count:.2f} calls per token"
