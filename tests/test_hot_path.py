"""Deterministic hot-path gate: calls into and from `specdec` per committed token.

On the synthetic path a decode is pure interpreter work, so the number of
Python function calls it makes per token is a machine-independent proxy
for its cost. This gate counts the `sys.setprofile` "call" events of code
whose module is in the `specdec` package (`frame.f_globals["__name__"]`),
which includes the `__init__`s that dataclasses generate for it, for one
fixed case: the llama70b-sharegpt preset (seed 0) at its default
placement (10, 20) with bursts (2, 4), 50 prompts of 4-12 tokens
(`random_prompts`, seed 0) and 64 new tokens each, on a backend whose
window cache an unprofiled pass has warmed. Each count must stay at or
below its budget. Each test prints its counts, so a run with `-rP` records
them.

The counts per committed token were 4.47 (vanilla), 15.57 (selfspec) and
26.88 (hierarchical) when the budgets were last set, once a synthetic exit
answered with its int token rather than a one-hot distribution that the
engine read through `argmax()`, and a decode checked its prompt once. Before
that they read 6.48, 20.50 and 37.68 against budgets of 7, 22 and 40, set
once a decode recorded its trace events as tuples and built no event
object. Before that they read 6.52, 22.68 and 40.59 against budgets of 7, 24 and 43, set
at 6.53, 22.71 and 40.64 once the ledger became a pass histogram. An
earlier rule counted by the code's file name, which misses generated
`__init__`s; it read 6.58, 20.61 and 37.81 against budgets of 7, 22 and
40, down from 10.64, 36.62 and 68.42 before the per-session level table
and the live fill list.

On the toy transformer the same gate also counts "c_call" events made
from `specdec` frames, for vanilla and hierarchical decodes of a 16-layer,
d_model 64 model (4 heads, vocabulary 256, seed 0) over 4 prompts of 32
tokens (`random_prompts`, seed 0) with 32 new tokens each. A c_call is a
call of a built-in function or of a method such as `reshape` or `reduce`;
a ufunc call (`np.exp`, `+` on arrays, `@`) raises no event, so the count
is a lower bound on numpy dispatches. Nor does an operator or ufunc on a
numpy scalar, while `math.sqrt` does: a norm written with it would add
one C call per norm, 33 per vanilla token.

Python / C calls per token read 94.53 / 163.91 (vanilla) and 342.48 /
655.40 (hierarchical) once an exit's answer was read through `argmax()`
only when it is a `TokenDistribution`: that `isinstance` adds one C call
per exit query, and a `TokenDistribution` no longer takes the `len` of
its logits, one fewer. They read 94.56 / 163.97 and 342.51 / 655.46 when the hierarchical Python budget was lowered
from 372 to 363, once trace events were recorded as tuples; it read
350.26 before. The other budgets were set at 94.66 / 163.94 and 350.35 /
658.51, once a one-position norm ran on numpy float64 scalars and one
token was embedded by row. Before that the budgets were 100 / 177 and
372 / 730, over counts of 94.66 / 166.94 and 350.35 / 688.06. Before a one-position pass ran on a (d,)
vector and skipped the span machinery, the counts were 159.62 / 277.31
and 491.16 / 867.28.

Like a golden digest, a budget is raised only for a deliberate change
that is recorded in CHANGES.md, with the old and the new counts.
"""
import sys
from collections import Counter

import pytest

from specdec import (
    ModelConfig,
    SyntheticBackend,
    ToyTransformer,
    calibrate_preset,
    speculative_decode,
)
from specdec.prompts import random_prompts

BUDGETS = {"vanilla": 5.0, "selfspec": 17.0, "hierarchical": 29.0}
SHAPES = {
    "vanilla": ((80,), ()),
    "selfspec": ((10, 80), (2,)),
    "hierarchical": ((10, 20, 80), (2, 4)),
}
# (Python calls, C calls) per committed token on the toy transformer.
TOY_BUDGETS = {"vanilla": (100.0, 174.0), "hierarchical": (363.0, 698.0)}
TOY_SHAPES = {"vanilla": ((16,), ()), "hierarchical": ((2, 4, 16), (2, 4))}


def events_per_token(backend, prompts, exits, bursts, max_new_tokens) -> dict[str, float]:
    """"call" and "c_call" events of `specdec` frames per committed token,
    after one unprofiled pass over the prompts."""
    for prompt in prompts:  # warm any cache the backend keeps
        speculative_decode(backend, prompt, exits, bursts, max_new_tokens)
    events = Counter()

    def profile(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("specdec"):
            events[event] += 1

    tokens = 0
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for prompt in prompts:
            tokens += len(speculative_decode(backend, prompt, exits, bursts, max_new_tokens).tokens)
    finally:
        sys.setprofile(previous)
    assert tokens == len(prompts) * max_new_tokens
    return {event: events[event] / tokens for event in ("call", "c_call")}


@pytest.mark.parametrize("strategy", list(SHAPES))
def test_calls_per_token_within_budget(strategy):
    backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt", seed=0))
    prompts = random_prompts(50, backend.vocab_size, 4, 12, seed=0)
    count = events_per_token(backend, prompts, *SHAPES[strategy], 64)["call"]
    print(f"synthetic {strategy}: {count:.2f} calls per token, budget {BUDGETS[strategy]}")
    assert count <= BUDGETS[strategy], f"{strategy}: {count:.2f} calls per token"


@pytest.mark.parametrize("strategy", list(TOY_SHAPES))
def test_toy_calls_per_token_within_budget(strategy):
    model = ToyTransformer(
        ModelConfig(n_layers=16, d_model=64, n_heads=4, vocab_size=256, max_seq_len=256, seed=0)
    )
    prompts = random_prompts(4, model.vocab_size, 32, 32, seed=0)
    counts = events_per_token(model, prompts, *TOY_SHAPES[strategy], 32)
    calls, c_calls = TOY_BUDGETS[strategy]
    print(
        f"toy {strategy}: {counts['call']:.2f} / {counts['c_call']:.2f} Python / C calls "
        f"per token, budgets {calls} / {c_calls}"
    )
    assert counts["call"] <= calls, f"{strategy}: {counts['call']:.2f} Python calls per token"
    assert counts["c_call"] <= c_calls, f"{strategy}: {counts['c_call']:.2f} C calls per token"
