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

The counts per committed token read 3.45 (vanilla), 12.75 (selfspec) and
21.56 (hierarchical) when the budgets were last set.

On the toy transformer the same gate also counts "c_call" events made
from `specdec` frames, for vanilla and hierarchical decodes of a 16-layer,
d_model 64 model (4 heads, vocabulary 256, seed 0) over 4 prompts of 32
tokens (`random_prompts`, seed 0) with 32 new tokens each. A c_call is a
call of a built-in function or of a method such as `reshape` or `reduce`;
a ufunc call (`np.exp`, `+` on arrays, `@`) raises no event, so the count
is a lower bound on numpy dispatches. Nor does an operator or ufunc on a
numpy scalar, while `math.sqrt` does: a norm written with it would add
one C call per norm, 33 per vanilla token.

Python / C calls per token read 94.53 / 161.91 (vanilla) and 342.48 /
626.09 (hierarchical) when the budgets were last set. They read 163.91 and
655.40 C calls when `kv_heads` built its head views on every
`forward_range` call, and those counts fail today's budgets.

A further toy gate counts the c_calls of `specdec` frames inside each
`consistency_check` that a boundary hook runs at every top-exit
verification of those 4 hierarchical decodes (113 boundaries), after one
decode that builds what a check builds once per process. A check extends
the state's held reference over the new positions (one pass of 16 layers)
and compares the two states' blocks once. It read 164.42 C calls per check
when the budget was set; comparing every K, V and hidden array separately,
as the check did before, read 307.35 and fails it.

The window cache keeps `SyntheticBackend._draw`, which hashes a window
the cache misses, out of those counts, though every pass on a fresh
backend pays it once per new window. Another gate counts the
arithmetic bytecodes that `_draw` executes per miss, traced with
`sys.settrace` and `f_trace_opcodes`: the `BINARY_OP` instructions, one
per binary or in-place operator (a subscript is `BINARY_SUBSCR` and is
not counted). It runs over 64 fixed 4-token windows of the
llama70b-sharegpt preset (seed 0) whose token caches an earlier miss of
each window has filled, the window cache cleared in between, so each
count is one fold of three tokens past the first and the three tags.
The count read 55 per miss when the budget was set; the fold that
carried fmix64's closing xorshifts read 79.

Like a golden digest, a budget is raised only for a deliberate change
that is recorded in CHANGES.md, with the old and the new counts.
"""
import dis
import functools
import random
import sys
from collections import Counter

import pytest

from specdec import (
    ModelConfig,
    SyntheticBackend,
    ToyTransformer,
    calibrate_preset,
    consistency_check,
    speculative_decode,
)
from specdec.prompts import random_prompts

BUDGETS = {"vanilla": 4.0, "selfspec": 14.0, "hierarchical": 24.0}
SHAPES = {
    "vanilla": ((80,), ()),
    "selfspec": ((10, 80), (2,)),
    "hierarchical": ((10, 20, 80), (2, 4)),
}
# (Python calls, C calls) per committed token on the toy transformer.
TOY_BUDGETS = {"vanilla": (100.0, 163.0), "hierarchical": (363.0, 640.0)}
TOY_SHAPES = {"vanilla": ((16,), ()), "hierarchical": ((2, 4, 16), (2, 4))}
# C calls per consistency_check at the boundaries of the toy's hierarchical decodes.
CHECK_BUDGET = 175.0
# Arithmetic bytecodes per window that SyntheticBackend._draw hashes.
DRAW_BUDGET = 55


def specdec_events(run) -> Counter:
    """The "call" and "c_call" events of `specdec` frames during `run()`."""
    events = Counter()

    def profile(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("specdec"):
            events[event] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return events


def events_per_token(backend, prompts, exits, bursts, max_new_tokens) -> dict[str, float]:
    """"call" and "c_call" events of `specdec` frames per committed token,
    after one unprofiled pass over the prompts."""
    for prompt in prompts:  # warm any cache the backend keeps
        speculative_decode(backend, prompt, exits, bursts, max_new_tokens)
    results = []

    def decode_all():
        for prompt in prompts:
            results.append(speculative_decode(backend, prompt, exits, bursts, max_new_tokens))

    events = specdec_events(decode_all)
    tokens = sum(len(result.tokens) for result in results)
    assert tokens == len(prompts) * max_new_tokens
    return {event: events[event] / tokens for event in ("call", "c_call")}


def toy_model_and_prompts():
    model = ToyTransformer(
        ModelConfig(n_layers=16, d_model=64, n_heads=4, vocab_size=256, max_seq_len=256, seed=0)
    )
    return model, random_prompts(4, model.vocab_size, 32, 32, 0, model.max_seq_len)


@pytest.mark.parametrize("strategy", list(SHAPES))
def test_calls_per_token_within_budget(strategy):
    backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt", seed=0))
    prompts = random_prompts(50, backend.vocab_size, 4, 12, 0, backend.max_seq_len)
    count = events_per_token(backend, prompts, *SHAPES[strategy], 64)["call"]
    print(f"synthetic {strategy}: {count:.2f} calls per token, budget {BUDGETS[strategy]}")
    assert count <= BUDGETS[strategy], f"{strategy}: {count:.2f} calls per token"


@pytest.mark.parametrize("strategy", list(TOY_SHAPES))
def test_toy_calls_per_token_within_budget(strategy):
    model, prompts = toy_model_and_prompts()
    counts = events_per_token(model, prompts, *TOY_SHAPES[strategy], 32)
    calls, c_calls = TOY_BUDGETS[strategy]
    print(
        f"toy {strategy}: {counts['call']:.2f} / {counts['c_call']:.2f} Python / C calls "
        f"per token, budgets {calls} / {c_calls}"
    )
    assert counts["call"] <= calls, f"{strategy}: {counts['call']:.2f} Python calls per token"
    assert counts["c_call"] <= c_calls, f"{strategy}: {counts['c_call']:.2f} C calls per token"


def test_toy_check_calls_within_budget():
    model, prompts = toy_model_and_prompts()
    per_check = []  # the C calls of each boundary's check

    def hook(session):
        check = functools.partial(consistency_check, session.state, model, session.state.tokens)
        per_check.append(specdec_events(check)["c_call"])

    # One decode first, so that what a check builds once per process is built.
    speculative_decode(model, prompts[0], *TOY_SHAPES["hierarchical"], 32, boundary_hook=hook)
    per_check.clear()
    for prompt in prompts:
        speculative_decode(model, prompt, *TOY_SHAPES["hierarchical"], 32, boundary_hook=hook)
    count = sum(per_check) / len(per_check)
    print(
        f"toy check: {count:.2f} C calls per consistency_check over {len(per_check)} "
        f"boundaries, budget {CHECK_BUDGET}"
    )
    assert count <= CHECK_BUDGET, f"{count:.2f} C calls per consistency_check"


def arithmetic_ops(code, run) -> int:
    """The `BINARY_OP` bytecodes that frames of `code` execute during `run()`."""
    offsets = {op.offset for op in dis.get_instructions(code) if op.opname == "BINARY_OP"}
    count = 0

    def trace_opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode" and frame.f_lasti in offsets:
            count += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return trace_opcodes

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.skipif(sys.version_info < (3, 11), reason="BINARY_OP is Python 3.11's")
def test_arithmetic_per_window_miss_within_budget():
    backend = SyntheticBackend(calibrate_preset("llama70b-sharegpt", seed=0))
    rng = random.Random(0)
    windows = [tuple(rng.randrange(backend.vocab_size) for _ in range(4)) for _ in range(64)]

    def miss_every_window():
        backend._window_cache.clear()
        for window in windows:
            backend._draw(window)

    miss_every_window()  # fills the token caches
    count = arithmetic_ops(SyntheticBackend._draw.__code__, miss_every_window) / len(windows)
    print(f"synthetic window miss: {count:.2f} arithmetic bytecodes, budget {DRAW_BUDGET}")
    assert count <= DRAW_BUDGET, f"{count:.2f} arithmetic bytecodes per window miss"
