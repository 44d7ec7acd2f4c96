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

Python / C calls per token read 94.53 / 163.91 (vanilla) and 342.48 /
655.40 (hierarchical).

The window cache keeps `SyntheticBackend._draw`, which hashes a window
the cache misses, out of those counts, though every pass on a fresh
backend pays it once per new window. A second gate counts the
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
import random
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

BUDGETS = {"vanilla": 4.0, "selfspec": 14.0, "hierarchical": 24.0}
SHAPES = {
    "vanilla": ((80,), ()),
    "selfspec": ((10, 80), (2,)),
    "hierarchical": ((10, 20, 80), (2, 4)),
}
# (Python calls, C calls) per committed token on the toy transformer.
TOY_BUDGETS = {"vanilla": (100.0, 174.0), "hierarchical": (363.0, 698.0)}
TOY_SHAPES = {"vanilla": ((16,), ()), "hierarchical": ((2, 4, 16), (2, 4))}
# Arithmetic bytecodes per window that SyntheticBackend._draw hashes.
DRAW_BUDGET = 55


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
    prompts = random_prompts(50, backend.vocab_size, 4, 12, 0, backend.max_seq_len)
    count = events_per_token(backend, prompts, *SHAPES[strategy], 64)["call"]
    print(f"synthetic {strategy}: {count:.2f} calls per token, budget {BUDGETS[strategy]}")
    assert count <= BUDGETS[strategy], f"{strategy}: {count:.2f} calls per token"


@pytest.mark.parametrize("strategy", list(TOY_SHAPES))
def test_toy_calls_per_token_within_budget(strategy):
    model = ToyTransformer(
        ModelConfig(n_layers=16, d_model=64, n_heads=4, vocab_size=256, max_seq_len=256, seed=0)
    )
    prompts = random_prompts(4, model.vocab_size, 32, 32, 0, model.max_seq_len)
    counts = events_per_token(model, prompts, *TOY_SHAPES[strategy], 32)
    calls, c_calls = TOY_BUDGETS[strategy]
    print(
        f"toy {strategy}: {counts['call']:.2f} / {counts['c_call']:.2f} Python / C calls "
        f"per token, budgets {calls} / {c_calls}"
    )
    assert counts["call"] <= calls, f"{strategy}: {counts['call']:.2f} Python calls per token"
    assert counts["c_call"] <= c_calls, f"{strategy}: {counts['c_call']:.2f} C calls per token"


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
