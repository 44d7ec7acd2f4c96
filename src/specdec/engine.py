"""Decoding over N >= 1 early exits of one model: vanilla decoding at one
exit and speculation through any number of verifying exits.

A `DecodeSession` owns one decode's layered state and trace.
Its exits split the layer stack into levels; lower levels run ahead of
higher ones, and verification prunes rejected positions before the next
phase.

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

The trace is the one record of a decode: one walk over its events yields
the committed tokens, the acceptance and flush counts and the per-level
pass tallies that `replay_ledger` prices; no cost is kept by hand.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Sequence

from .backend import Backend
from .costs import CostLedger
from .errors import CapacityError, ConfigError, ProtocolError
from .state import LayeredState


def default_layer_placement(full_layer: int) -> tuple[int, int]:
    """Draft at one eighth of the depth, intermediate verifier at one quarter."""
    return math.ceil(full_layer / 8), math.ceil(full_layer / 4)


# Burst lengths of the draft and intermediate levels when none are given.
DEFAULT_BURSTS = (2, 4)


Span = tuple[int, int]


# The trace's events are frozen, slotted records: a boundary hook cannot
# change them, and the engine builds them positionally, in field order.
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
    events: list = field(default_factory=list)
    finalize_processed: tuple[Span, ...] = ()


@dataclass(frozen=True)
class DecodeStats:
    """Acceptance rates count tokens actually compared against a verifier:
    the tail flushed after a mismatch was never checked and is excluded
    from the rate denominators (it still counts as flushed work).

    `drafted` counts the draft tokens shown to the first verifier, i.e.
    each DraftStep directly followed by a verify event; a vanilla trace
    has no verifier and counts zero everywhere. The intermediate counts
    sum over every screening level between the draft and the top exit.
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


class DecodeSession:
    """One decode over one backend; strictly sequential, owns its state and trace.

    `exits` are the exit layers splitting the stack into levels, e.g.
    (draft, intermediate, full). Level i covers layers exits[i-1]+1 to
    exits[i]; level 0 starts at layer 1.
    """

    def __init__(
        self,
        backend: Backend,
        exits: Sequence[int],
        eos_token: int | None = None,
    ) -> None:
        exits = tuple(exits)
        if not exits or list(exits) != sorted(set(exits)):
            raise ConfigError("exits must be strictly increasing")
        if exits[0] < 1 or exits[-1] > backend.n_layers:
            raise ConfigError(f"exits {exits} outside the model's layers 1 to {backend.n_layers}")
        self.backend = backend
        self.exits = exits
        self.eos_token = eos_token
        self.state = backend.new_state(buffered_layers=exits)
        self.trace = DecodeTrace()

    # -- level plumbing ----------------------------------------------

    def _advance(self, level: int, upto: int) -> Span:
        hi = self.exits[level]
        start = self.state.filled(hi)
        if start >= upto:
            return (start, start)
        lo = 1 if level == 0 else self.exits[level - 1] + 1
        self.backend.forward_range(self.state, lo, hi, start, upto)
        return (start, upto)

    def _ensure_through(self, level: int, upto: int) -> tuple[Span, ...]:
        return tuple(self._advance(lvl, upto) for lvl in range(level + 1))

    # -- operations ----------------------------------------------------

    def prefill(self, prompt: Sequence[int]) -> None:
        if len(prompt) < 1:
            raise ConfigError("prompt must be non-empty")
        for token in prompt:
            if not 0 <= int(token) < self.backend.vocab_size:
                raise ConfigError(f"prompt token {token} outside vocabulary")
        if len(prompt) > self.backend.max_seq_len:
            raise CapacityError("prompt exceeds max_seq_len")
        self.state.set_tokens(prompt)
        self.backend.forward_range(self.state, 1, self.exits[-1], 0, len(prompt))
        self.state.mark_committed(len(prompt))

    def generate_next(self, n: int) -> tuple[list[int], Span]:
        """Emit up to n greedy tokens at the lowest exit, extending its layers.

        Each emission processes the newest context position through the
        draft level if it is not already there; after the last emission
        the produced token is processed too, so a following verification
        pass can cover every emitted position in one batch.
        """
        state, hi, eos = self.state, self.exits[0], self.eos_token
        tokens, max_seq_len = state.tokens, self.backend.max_seq_len
        exit_distribution = self.backend.exit_distribution
        start_fill = fill = state.filled(hi)
        emitted: list[int] = []
        for _ in range(n):
            if len(tokens) >= max_seq_len:
                break
            pos = len(tokens) - 1
            if fill <= pos:
                fill = self._advance(0, pos + 1)[1]
            token = exit_distribution(state, hi, pos).argmax()
            state.append_token(token)
            emitted.append(token)
            if token == eos:  # None never equals a token
                break
        if emitted and fill < len(tokens):
            fill = self._advance(0, len(tokens))[1]
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
            top = exit_distribution(state, exit_layer, draft_start + j - 1).argmax()
            if token == top:
                accepted.append(token)
                continue
            state.prune_all(draft_start + j)
            return accepted, top, True, spans
        bonus = None
        if level < len(self.exits) - 1:
            bonus = exit_distribution(state, exit_layer, upto - 1).argmax()
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
        self.trace.events.append(Commit(tuple(tokens)))


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
    if len(exits) > 1 and exits[-1] != backend.n_layers:
        raise ConfigError(f"exits {exits} must end at the full_layer {backend.n_layers}")
    session = DecodeSession(backend, exits, eos_token=eos_token)
    if len(bursts) != len(exits) - 1 or min(bursts, default=1) < 1:
        raise ConfigError(
            f"bursts {bursts} must give one length >= 1 for each of the "
            f"{len(exits) - 1} levels below the top exit"
        )
    if max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if len(prompt) + max_new_tokens > backend.max_seq_len:
        raise CapacityError(
            f"prompt of {len(prompt)} plus {max_new_tokens} new tokens exceeds "
            f"max_seq_len {backend.max_seq_len}"
        )
    session.prefill(prompt)
    if len(exits) == 1:  # vanilla: one burst as long as the budget, committed unverified
        drafted, _ = _fill(session, 0, (max_new_tokens,), max_new_tokens)
        session.commit(drafted)
        return _finish(session, len(prompt))
    top = len(exits) - 1
    eos = eos_token
    room = max_new_tokens
    while room > 0:
        tentative, reason = _fill(session, top - 1, bursts, room)
        if not tentative:
            raise CapacityError("no room left to draft")
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
        session.trace.events.append(
            TargetVerify(tuple(accepted), bonus, len(tentative), flushed, mismatch, reason, spans)
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
    until it holds `bursts[k]` tokens ("window"), holds eos ("eos"),
    reaches the remaining budget `room` ("budget"), or no position is
    left to draft into ("capacity"). The gathered tokens are always the
    newest tokens of the context.
    """
    if level == 0:
        start = len(session.state.tokens)
        drafted, span = session.generate_next(bursts[0])
        if drafted:
            session.trace.events.append(DraftStep(start, tuple(drafted), span))
        return drafted, "round"
    eos = session.eos_token
    gathered: list[int] = []
    while len(gathered) < bursts[level] and eos not in gathered and len(gathered) < room:
        offered, _ = _fill(session, level - 1, bursts, room - len(gathered))
        if not offered:
            break
        accepted, bonus, _, spans = session.leading_substring_verify(
            offered, level=level, phase="intermediate_verify"
        )
        gathered.extend(accepted)
        if bonus is not None and len(session.state.tokens) < session.backend.max_seq_len:
            session.state.append_token(bonus)
            gathered.append(bonus)
        else:
            bonus = None
        session.trace.events.append(
            IntermediateVerify(tuple(accepted), bonus, len(offered) - len(accepted), spans)
        )
        if len(gathered) > sum(bursts[: level + 1]):
            raise ProtocolError(
                f"level {level} gathered {len(gathered)} tokens, "
                f"more than the burst lengths {tuple(bursts[: level + 1])} allow"
            )
    if len(gathered) >= bursts[level]:
        return gathered, "window"
    if eos in gathered:
        return gathered, "eos"
    if len(gathered) >= room:
        return gathered, "budget"
    return gathered, "capacity"


def _finish(session: DecodeSession, prompt_len: int) -> DecodeResult:
    session.finalize()
    trace = session.trace
    tokens, stats, tally = _walk(trace, len(session.exits))
    return DecodeResult(
        tokens=tokens,
        trace=trace,
        ledger=_price(tally, prompt_len, session.exits),
        stats=stats,
        state=session.state,
    )


def replay_ledger(
    trace: DecodeTrace,
    prompt_len: int,
    exits: Sequence[int],
) -> CostLedger:
    """The cost ledger of a decode, derived from its trace alone: the one
    place a decode's costs are recorded."""
    exits = tuple(exits)
    return _price(_walk(trace, len(exits))[2], prompt_len, exits)


def _walk(trace: DecodeTrace, n_levels: int) -> tuple[list[int], DecodeStats, dict]:
    """The committed tokens, the `DecodeStats` and the pass tallies of a
    trace, in one pass over its events.

    The tallies map each phase to [passes, positions] per level: a draft
    span is one pass per position, a verify or finalize span one pass
    over its positions at its level.
    """
    tokens: list[int] = []
    drafted = checked_i = accepted_i = presented = checked_t = accepted_t = flushed = 0
    draft, intermediate, target = ([[0, 0] for _ in range(n_levels)] for _ in range(3))
    shown = 0  # tokens of the DraftStep just before this event, else 0
    for event in trace.events:
        if isinstance(event, DraftStep):
            a, b = event.processed
            draft[0][0] += b - a
            draft[0][1] += b - a
            shown = len(event.tokens)
            continue
        if isinstance(event, Commit):
            tokens.extend(event.tokens)
        else:
            drafted += shown
            if isinstance(event, IntermediateVerify):
                checked_i += len(event.accepted) + (event.rejected > 0)
                accepted_i += len(event.accepted)
                _count_spans(intermediate, event.processed)
            else:
                presented += event.presented
                checked_t += len(event.accepted) + event.mismatch
                accepted_t += len(event.accepted)
                flushed += event.flushed
                _count_spans(target, event.processed)
        shown = 0
    _count_spans(target, trace.finalize_processed)
    stats = DecodeStats(
        drafted=drafted,
        checked_intermediate=checked_i,
        accepted_intermediate=accepted_i,
        presented_target=presented,
        checked_target=checked_t,
        accepted_target=accepted_t,
        flushed=flushed,
    )
    tally = {"draft": draft, "intermediate_verify": intermediate, "target_verify": target}
    return tokens, stats, tally


def _count_spans(counts: list[list[int]], spans: Sequence[Span]) -> None:
    for level, (a, b) in enumerate(spans):
        if b > a:
            counts[level][0] += 1
            counts[level][1] += b - a


def _price(tally: dict, prompt_len: int, exits: Sequence[int]) -> CostLedger:
    """The ledger of a prefill of `prompt_len` at full depth plus each
    tally priced once at its level's width."""
    ledger = CostLedger()
    ledger.record_pass("prefill", exits[-1], prompt_len)
    level_widths = [exits[0]] + [exits[i] - exits[i - 1] for i in range(1, len(exits))]
    for phase, counts in tally.items():
        cost = ledger.phases[phase]
        for width, (passes, positions) in zip(level_widths, counts):
            cost.sequential_depth_units += width * passes
            cost.position_layer_units += width * positions
            cost.pass_count += passes
    return ledger
