"""Decoding over N >= 1 early exits of one model: vanilla decoding at one
exit and speculation through any number of verifying exits.

A `DecodeSession` owns one decode's layered state and trace.
Its exits split the layer stack into levels; lower levels run ahead of
higher ones, and verification prunes rejected positions before the next
phase. It binds each level's (lo, hi) layer range, and in its prefill,
once the prompt is checked, makes the state and binds its live fill list,
so each pass reads them rather than re-deriving them.

Every strategy is `speculative_decode` over its exits, and every decode
takes the same four steps: it checks the budget and the capacity and
prefills the prompt, `_fill` drafts (and screens), `DecodeSession.commit`
commits tokens, and `_finish` runs finalize and builds the result.
Vanilla decoding is the N = 1 case: it drafts one burst as long as the
budget at its one exit and commits it unverified. Over N >= 2 exits, the
last at full depth, it is one round loop with one burst length per level
below the top:

- level 0 drafts a burst of greedy tokens at the lowest exit;
- each level k between the draft and the top screens bursts from level
  k-1: it keeps the longest prefix its exit agrees with, adds one token
  of its own (on mismatch the rejected tail is pruned first), and stops
  once it holds its burst length of tokens or an end condition is
  pending;
- the top exit verifies what level N-2 gathered.

Self-speculation is the 2-exit case (draft, full) with no screening
level, and speculation with an intermediate verifier the 3-exit case
(draft, intermediate, full), whose screening burst is `accept_window`.
The top exit commits the agreeing prefix and flushes everything from the
first disagreement, committing its own token in its place. Every verifier
accepts only its own greedy top-1 token, so speculative decoding is
lossless: the output matches vanilla decoding token for token.

The trace is the one record of a decode: one walk over its records
yields the committed tokens, the acceptance and flush counts and the
ledger's histogram of passes, prefill included, which `CostLedger` prices
on read; no cost is kept by hand. A decode records each event as a
positional tuple and builds no event object; `DecodeTrace.events` builds
the typed events from the tuples when it is read.

An exit answers with its greedy token: the toy transformer's comes as a
`TokenDistribution`, the synthetic oracle's as the token itself. Each of
the three exit queries reads `argmax` inline, only of a `TokenDistribution`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass, field
from typing import Sequence

from .backend import Backend, TokenDistribution
from .costs import CostLedger
from .errors import CapacityError, ConfigError
from .state import LayeredState, as_token


def default_layer_placement(full_layer: int) -> tuple[int, int]:
    """Draft at one eighth of the depth, intermediate verifier at one quarter."""
    return math.ceil(full_layer / 8), math.ceil(full_layer / 4)


# Burst lengths of the draft and intermediate levels when none are given.
DEFAULT_BURSTS = (2, 4)


Span = tuple[int, int]


# The trace's events are frozen, slotted records: a boundary hook cannot
# change them. The engine records each as a tuple of its class and its
# fields in field order, and `DecodeTrace.events` builds them from those.
@dataclass(frozen=True, slots=True)
class DraftStep:
    start_pos: int
    tokens: tuple[int, ...]
    processed: Span


@dataclass(frozen=True, slots=True)
class IntermediateVerify:
    accepted: tuple[int, ...]
    bonus: int | None
    rejected: int
    processed: tuple[Span, ...]


@dataclass(frozen=True, slots=True)
class TargetVerify:
    accepted: tuple[int, ...]
    bonus: int | None
    presented: int
    flushed: int
    mismatch: bool
    reason: str
    processed: tuple[Span, ...]


@dataclass(frozen=True, slots=True)
class Commit:
    tokens: tuple[int, ...]


@dataclass
class DecodeTrace:
    """`records` holds one `(event class, *fields)` tuple per event, in
    order and with the fields in field order; `finalize_processed` holds the
    spans finalize ran.

    `events` builds the typed events from the records on each read, so it
    is a fresh list: appending to it changes nothing.
    """

    records: list = field(default_factory=list)
    finalize_processed: tuple[Span, ...] = ()

    @property
    def events(self) -> list:
        return [record[0](*record[1:]) for record in self.records]


@dataclass(frozen=True)
class DecodeStats:
    """Acceptance rates count tokens actually compared against a verifier:
    the tail flushed after a mismatch was never checked and is excluded
    from the rate denominators (it still counts as flushed work).

    `drafted` sums the DraftSteps' tokens: with a verifier, the event after
    each is a verify event (every draft is non-empty, and `_fill`'s caller
    verifies it at once). Vanilla has no verifier and counts zero
    everywhere; the intermediate counts sum over every screening level.
    """

    drafted: int = 0
    checked_intermediate: int = 0
    accepted_intermediate: int = 0
    presented_target: int = 0
    checked_target: int = 0
    accepted_target: int = 0
    flushed: int = 0

    @property
    def acceptance_rate_intermediate(self) -> float | None:
        if self.checked_intermediate == 0:
            return None
        return self.accepted_intermediate / self.checked_intermediate

    @property
    def acceptance_rate_target(self) -> float | None:
        if self.checked_target == 0:
            return None
        return self.accepted_target / self.checked_target

    def __add__(self, other: "DecodeStats") -> "DecodeStats":
        return DecodeStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class DecodeResult:
    tokens: list[int]
    trace: DecodeTrace
    ledger: CostLedger
    stats: DecodeStats
    state: LayeredState


def _check_prompt(backend: Backend, prompt: Sequence[int]) -> None:
    if len(prompt) < 1:
        raise ConfigError("prompt must be non-empty")
    for token in prompt:
        if type(token) is not int:
            as_token(token, "prompt token")
        if not 0 <= token < backend.vocab_size:
            raise ConfigError(f"prompt token {token} outside vocabulary")
    if len(prompt) > backend.max_seq_len:
        raise CapacityError("prompt exceeds max_seq_len")


class DecodeSession:
    """One decode over one backend; strictly sequential, owns its state and trace.

    `exits` are the exit layers splitting the stack into levels, e.g.
    (draft, intermediate, full). Level i covers layers exits[i-1]+1 to
    exits[i]; level 0 starts at layer 1. `prefill` makes the state.
    """

    def __init__(
        self,
        backend: Backend,
        exits: Sequence[int],
        eos_token: int | None = None,
    ) -> None:
        exits = tuple(exits)
        for exit_layer in exits:
            if type(exit_layer) is not int:
                as_token(exit_layer, "exit")
        if not exits or list(exits) != sorted(set(exits)):
            raise ConfigError("exits must be strictly increasing")
        if exits[0] < 1 or exits[-1] > backend.n_layers:
            raise ConfigError(f"exits {exits} outside the model's layers 1 to {backend.n_layers}")
        self.backend = backend
        self.exits = exits
        self.eos_token = eos_token
        self.trace = DecodeTrace()
        self._levels = _level_ranges(exits)

    # -- level plumbing ----------------------------------------------

    def _ensure_through(self, level: int, upto: int) -> tuple[Span, ...]:
        """Run every level through `level` up to `upto`; the span each ran,
        (fill, fill) for a level already there."""
        state, fills, forward_range = self.state, self._fills, self.backend.forward_range
        spans = []
        for lo, hi in self._levels[: level + 1]:
            start = fills[hi - 1]
            if start < upto:
                forward_range(state, lo, hi, start, upto)
                spans.append((start, upto))
            else:
                spans.append((start, start))
        return tuple(spans)

    # -- operations ----------------------------------------------------

    def prefill(self, prompt: Sequence[int]) -> None:
        _check_prompt(self.backend, prompt)
        self.state = state = self.backend.new_state(buffered_layers=self.exits)
        # The state's live fill list, which only the state writes (in place).
        self._fills = state.live_fills
        state.set_tokens(prompt)
        self.backend.forward_range(state, 1, self.exits[-1], 0, len(prompt))
        state.mark_committed(len(prompt))

    def generate_next(self, n: int) -> tuple[list[int], Span]:
        """Emit up to n greedy tokens at the lowest exit, extending its layers.

        Each emission processes the newest context position through the
        draft level if it is not already there; after the last emission
        the produced token is processed too, so a following verification
        pass can cover every emitted position in one batch.
        """
        state, (lo, hi), eos, backend = self.state, self._levels[0], self.eos_token, self.backend
        tokens, max_seq_len = state.tokens, backend.max_seq_len
        forward_range, exit_distribution = backend.forward_range, backend.exit_distribution
        start_fill = fill = self._fills[hi - 1]
        emitted: list[int] = []
        for _ in range(n):
            if len(tokens) >= max_seq_len:
                break
            pos = len(tokens) - 1
            if fill <= pos:
                forward_range(state, lo, hi, fill, pos + 1)
                fill = pos + 1
            token = exit_distribution(state, hi, pos)
            if isinstance(token, TokenDistribution):
                token = token.argmax()
            state.append_token(token)
            emitted.append(token)
            if token == eos:  # None never equals a token
                break
        if emitted and fill < len(tokens):
            forward_range(state, lo, hi, fill, len(tokens))
            fill = len(tokens)
        return emitted, (start_fill, fill)

    def leading_substring_verify(
        self, draft_tokens: Sequence[int], level: int, phase: str
    ) -> tuple[list[int], int | None, bool, tuple[Span, ...]]:
        """Longest prefix of the draft the level's verifier agrees with.

        The draft is the newest tokens of the context. Runs one batched
        pass of the level's layers over every position it is behind on,
        then checks tokens left to right: a token is accepted only if it
        is the exit's argmax. On the first mismatch the rejected positions
        are pruned from all filled layers and the verifier's own greedy
        token is returned as the bonus; on full acceptance below the top
        exit the bonus is the verifier's prediction for the position after
        the draft, and at the top exit there is none. `phase` names the
        verification for observers; the engine does not read it.
        """
        state, exit_layer = self.state, self.exits[level]
        exit_distribution = self.backend.exit_distribution
        upto = len(state.tokens)
        draft_start = upto - len(draft_tokens)
        spans = self._ensure_through(level, upto)
        accepted: list[int] = []
        for j, token in enumerate(draft_tokens):
            top = exit_distribution(state, exit_layer, draft_start + j - 1)
            if isinstance(top, TokenDistribution):
                top = top.argmax()
            if token == top:
                accepted.append(token)
                continue
            state.prune_all(draft_start + j)
            return accepted, top, True, spans
        bonus = None
        if level < len(self.exits) - 1:
            bonus = exit_distribution(state, exit_layer, upto - 1)
            if isinstance(bonus, TokenDistribution):
                bonus = bonus.argmax()
        return accepted, bonus, False, spans

    def finalize(self) -> None:
        """Drop tentative work and bring every level up to the committed end."""
        final_len = self.state.committed_len
        self.state.prune_all(final_len)
        spans = self._ensure_through(len(self.exits) - 1, final_len)
        self.trace.finalize_processed = tuple(s for s in spans if s[1] > s[0])

    def commit(self, tokens: Sequence[int]) -> None:
        """Commit `tokens`, the context's tokens after the committed ones."""
        self.state.mark_committed(self.state.committed_len + len(tokens))
        self.trace.records.append((Commit, tuple(tokens)))


# Legacy wrappers over `speculative_decode`, cut to the exact call shapes of
# the benchmark harness (perfbench/workloads.py); its tracer patches them by
# name and reads `leading_substring_verify`'s `phase`. Once ROADMAP item 7
# moves perfbench onto `speculative_decode`, they and `phase` can go; only
# `vanilla_decode` may stay, as the documented full-depth reference.
def vanilla_decode(backend: Backend, prompt: Sequence[int], max_new_tokens: int) -> DecodeResult:
    """Greedy decoding at full depth, the reference output of every
    strategy: the full-depth 1-exit case of `speculative_decode`."""
    return speculative_decode(backend, prompt, (backend.n_layers,), (), max_new_tokens)


def selfspec_decode(
    backend: Backend,
    prompt: Sequence[int],
    draft_layer: int,
    draft_len: int,
    max_new_tokens: int,
) -> DecodeResult:
    exits = (draft_layer, backend.n_layers)
    return speculative_decode(backend, prompt, exits, (draft_len,), max_new_tokens)


@dataclass(frozen=True)
class HierarchicalConfig:
    draft_layer: int
    intermediate_layer: int
    full_layer: int
    draft_len: int
    accept_window: int
    max_new_tokens: int


def hierarchical_decode(
    backend: Backend,
    prompt: Sequence[int],
    config: HierarchicalConfig,
    boundary_hook=None,
) -> DecodeResult:
    exits = (config.draft_layer, config.intermediate_layer, config.full_layer)
    bursts = (config.draft_len, config.accept_window)
    return speculative_decode(
        backend, prompt, exits, bursts, config.max_new_tokens, boundary_hook=boundary_hook
    )


def speculative_decode(
    backend: Backend,
    prompt: Sequence[int],
    exits: Sequence[int],
    bursts: Sequence[int],
    max_new_tokens: int,
    eos_token: int | None = None,
    boundary_hook=None,
) -> DecodeResult:
    """Decoding over N >= 1 strictly increasing exits.

    One exit is vanilla decoding: it drafts one burst as long as the
    budget and commits it unverified. Two or more exits, the last at full
    depth, run the speculative round loop. `bursts[k] >= 1` is the burst
    length of level k, one for each level below the top exit. Each round
    fills the tentative buffer through level N-2 (`_fill`), verifies it
    at the top exit, commits the agreeing prefix capped at eos and the
    budget, and on a mismatch commits the top exit's own token instead.
    `boundary_hook(session)` runs after every top-exit verification.
    """
    exits, bursts = tuple(exits), tuple(bursts)
    for burst in bursts:
        if type(burst) is not int:
            as_token(burst, "burst")
    if type(max_new_tokens) is not int:
        as_token(max_new_tokens, "max_new_tokens")
    if eos_token is not None and type(eos_token) is not int:
        as_token(eos_token, "eos_token")
    if len(exits) > 1 and exits[-1] != backend.n_layers:
        raise ConfigError(f"exits {exits} must end at the full_layer {backend.n_layers}")
    if len(bursts) != len(exits) - 1 or min(bursts, default=1) < 1:
        raise ConfigError(
            f"bursts {bursts} must give one length >= 1 for each of the "
            f"{len(exits) - 1} levels below the top exit"
        )
    if max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    # Every round has room: it starts with len(tokens) + room <= max_seq_len
    # and room >= 1, and `_fill` calls each level below with room left, so
    # every draft and every screening level gathers at least one token.
    if len(prompt) + max_new_tokens > backend.max_seq_len:
        raise CapacityError(
            f"prompt of {len(prompt)} plus {max_new_tokens} new tokens exceeds "
            f"max_seq_len {backend.max_seq_len}"
        )
    session = DecodeSession(backend, exits, eos_token=eos_token)
    session.prefill(prompt)
    if len(exits) == 1:  # vanilla: one burst as long as the budget, committed unverified
        budget = (max_new_tokens,)
        drafted, _ = _fill(session, 0, budget, max_new_tokens)
        session.commit(drafted)
        return _finish(session, len(prompt))
    top = len(exits) - 1
    eos = eos_token
    room = max_new_tokens
    while room > 0:
        tentative, reason = _fill(session, top - 1, bursts, room)
        accepted, bonus, mismatch, spans = session.leading_substring_verify(
            tentative, level=top, phase="target_verify"
        )
        kept = accepted[:room]
        if eos in kept:
            kept = kept[: kept.index(eos) + 1]
        flushed = len(tentative) - len(kept)
        if mismatch and eos not in kept and len(kept) < room:
            session.state.append_token(bonus)
            kept.append(bonus)
        else:
            bonus = None
        room -= len(kept)
        session.trace.records.append(
            (TargetVerify, tuple(accepted), bonus, len(tentative), flushed, mismatch, reason, spans)
        )
        session.commit(kept)
        if boundary_hook is not None:
            boundary_hook(session)
        if eos in kept:
            break
    return _finish(session, len(prompt))


def _fill(
    session: DecodeSession, level: int, bursts: Sequence[int], room: int
) -> tuple[list[int], str]:
    """Gather tentative tokens through `level`; return them and why they are due.

    Level 0 drafts one burst of `bursts[0]` tokens, recorded as a
    DraftStep with reason "round". Level k screens bursts from level k-1
    until it holds `bursts[k]` tokens ("window"), holds eos ("eos"), or
    reaches the remaining budget `room` ("budget"). The gathered tokens
    are always the newest tokens of the context.
    """
    if level == 0:
        start = len(session.state.tokens)
        drafted, span = session.generate_next(bursts[0])
        session.trace.records.append((DraftStep, start, tuple(drafted), span))
        return drafted, "round"
    eos = session.eos_token
    gathered: list[int] = []
    while len(gathered) < bursts[level] and eos not in gathered and len(gathered) < room:
        offered, _ = _fill(session, level - 1, bursts, room - len(gathered))
        accepted, bonus, _, spans = session.leading_substring_verify(
            offered, level=level, phase="intermediate_verify"
        )
        gathered.extend(accepted)
        if len(session.state.tokens) < session.backend.max_seq_len:
            session.state.append_token(bonus)
            gathered.append(bonus)
        else:
            bonus = None
        session.trace.records.append(
            (IntermediateVerify, tuple(accepted), bonus, len(offered) - len(accepted), spans)
        )
    if len(gathered) >= bursts[level]:
        return gathered, "window"
    if eos in gathered:
        return gathered, "eos"
    return gathered, "budget"


def _finish(session: DecodeSession, prompt_len: int) -> DecodeResult:
    session.finalize()
    trace = session.trace
    tokens, stats, ledger = _walk(trace, prompt_len, session._levels)
    return DecodeResult(tokens=tokens, trace=trace, ledger=ledger, stats=stats, state=session.state)


def replay_ledger(trace: DecodeTrace, prompt_len: int, exits: Sequence[int]) -> CostLedger:
    """The cost ledger of a decode, derived from its trace alone: the one
    place a decode's costs are recorded."""
    return _walk(trace, prompt_len, _level_ranges(exits))[2]


def _level_ranges(exits: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (first, last) layers of each level, as `DecodeSession` defines them."""
    return tuple(zip((1, *(e + 1 for e in exits[:-1])), exits))


def _walk(
    trace: DecodeTrace, prompt_len: int, levels: Sequence[tuple[int, int]]
) -> tuple[list[int], DecodeStats, CostLedger]:
    """The committed tokens, the `DecodeStats` and the `CostLedger` of a
    trace, in one pass over its records.

    The ledger holds the prefill of `prompt_len` positions through every
    level, one one-position pass per drafted position, and one pass over
    each non-empty verify or finalize span at its level; finalize's passes
    count as target_verify. Verify passes are tallied by width and keyed
    once, after the walk; `drafted` sums every DraftStep (see `DecodeStats`).

    `finalize_processed` keeps only non-empty spans, read as levels 0, 1,
    ...: finalize runs every level or none, as the last verification (or
    vanilla's draft) ran every level to the context's end, so the prune
    leaves all at the committed end, or all short of the top exit's bonus.
    """
    tokens: list[int] = []
    drafted = checked_i = accepted_i = presented = checked_t = accepted_t = flushed = 0
    draft_passes = 0
    intermediate, target = [{} for _ in levels], [{} for _ in levels]
    # A record is its event class and the event's fields in field order
    # (see the classes above); the class picks its branch.
    for record in trace.records:
        kind = record[0]
        if kind is DraftStep:  # start_pos, tokens, processed
            a, b = record[3]
            draft_passes += b - a
            drafted += len(record[2])
            continue
        if kind is Commit:  # tokens
            tokens.extend(record[1])
            continue
        accepted = len(record[1])
        if kind is IntermediateVerify:  # accepted, bonus, rejected, processed
            checked_i += accepted + (record[3] > 0)
            accepted_i += accepted
            counts, spans = intermediate, record[4]
        else:  # TargetVerify: accepted, bonus, presented, flushed, mismatch, reason, processed
            presented += record[3]
            checked_t += accepted + record[5]
            accepted_t += accepted
            flushed += record[4]
            counts, spans = target, record[7]
        for level, (a, b) in enumerate(spans):
            if b > a:
                widths = counts[level]
                widths[b - a] = widths.get(b - a, 0) + 1
    for level, (a, b) in enumerate(trace.finalize_processed):
        if b > a:
            widths = target[level]
            widths[b - a] = widths.get(b - a, 0) + 1
    if len(levels) == 1:  # vanilla: no verifier was shown the draft
        drafted = 0
    stats = DecodeStats(drafted, checked_i, accepted_i, presented, checked_t, accepted_t, flushed)
    passes = Counter()
    passes["prefill", 1, levels[-1][1], prompt_len] = 1
    if draft_passes:
        first, last = levels[0]
        passes["draft", first, last, 1] = draft_passes
    for phase, counts in (("intermediate_verify", intermediate), ("target_verify", target)):
        for (first, last), widths in zip(levels, counts):
            for positions, count in widths.items():
                passes[phase, first, last, positions] = count
    return tokens, stats, CostLedger(passes)
