"""Decoding strategies over early exits: vanilla, self-speculation, and
speculation with an intermediate verifier.

A `DecodeSession` owns one decode's layered state, cost ledger and trace.
Its exits split the layer stack into levels; lower levels run ahead of
higher ones, and verification prunes rejected positions before the next
phase. Vanilla decoding emits greedy tokens at a single exit. Both
speculative strategies run one round loop, `_speculate`:

- with exits (draft, full), each round drafts a burst at the draft exit
  and the full model verifies it;
- with exits (draft, intermediate, full), each draft burst is first
  screened by the intermediate exit, which keeps the longest agreeing
  prefix and adds one token of its own (on mismatch the rejected tail is
  pruned first); once the tentative buffer holds `accept_window` tokens,
  or an end condition is pending, the full model verifies it.

The full model commits the agreeing prefix and flushes everything from
the first disagreement, committing its own token in its place. Under the
greedy top-1 policy the speculative strategies are therefore lossless:
the output matches vanilla decoding token for token. Top-k acceptance is
available but lossy by construction.

The trace is the record of a decode: `DecodeTrace.stats()` derives the
acceptance and flush counts from its events, and `replay_ledger` rebuilds
the cost ledger from it.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Sequence

from .backend import Backend, TokenDistribution
from .costs import CostLedger
from .errors import CapacityError, ConfigError, ProtocolError
from .state import LayeredState


@dataclass(frozen=True)
class AcceptancePolicy:
    """greedy: verifier accepts only its own argmax. top_k: any of its k best."""

    mode: str = "greedy"
    k: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "top_k"):
            raise ConfigError(f"unknown acceptance mode {self.mode!r}")
        if self.mode == "top_k" and self.k < 1:
            raise ConfigError("top_k policy needs k >= 1")


GREEDY = AcceptancePolicy()


def top_predictions(dist: TokenDistribution, policy: AcceptancePolicy) -> tuple[int, ...]:
    """Token ids the verifier would accept at this position."""
    if policy.mode == "greedy" or dist.degenerate:
        return (dist.argmax(),)
    return tuple(dist.top_ids(policy.k))


def default_layer_placement(full_layer: int) -> tuple[int, int]:
    """Draft at one eighth of the depth, intermediate verifier at one quarter."""
    return math.ceil(full_layer / 8), math.ceil(full_layer / 4)


@dataclass(frozen=True)
class HierarchicalConfig:
    draft_layer: int
    intermediate_layer: int
    full_layer: int
    draft_len: int = 2
    accept_window: int = 4
    max_new_tokens: int = 64
    eos_token: int | None = None
    policy: AcceptancePolicy = GREEDY

    def __post_init__(self) -> None:
        if not 1 <= self.draft_layer < self.intermediate_layer < self.full_layer:
            raise ConfigError(
                "layers must satisfy 1 <= draft_layer < intermediate_layer < full_layer"
            )
        if self.draft_len < 1:
            raise ConfigError("draft_len must be >= 1")
        if self.accept_window < 1:
            raise ConfigError("accept_window must be >= 1")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")

    @classmethod
    def with_defaults(cls, full_layer: int, **overrides) -> "HierarchicalConfig":
        draft, intermediate = default_layer_placement(full_layer)
        params = dict(
            draft_layer=draft, intermediate_layer=intermediate, full_layer=full_layer
        )
        params.update(overrides)
        return cls(**params)


Span = tuple[int, int]


@dataclass(frozen=True)
class DraftStep:
    start_pos: int
    tokens: tuple[int, ...]
    processed: Span


@dataclass(frozen=True)
class IntermediateVerify:
    accepted: tuple[int, ...]
    bonus: int | None
    rejected: int
    processed: tuple[Span, ...]


@dataclass(frozen=True)
class TargetVerify:
    accepted: tuple[int, ...]
    bonus: int | None
    presented: int
    flushed: int
    mismatch: bool
    reason: str
    processed: tuple[Span, ...]


@dataclass(frozen=True)
class Commit:
    tokens: tuple[int, ...]


@dataclass
class DecodeTrace:
    events: list = field(default_factory=list)
    finalize_processed: tuple[Span, ...] = ()

    def committed_tokens(self) -> list[int]:
        out: list[int] = []
        for event in self.events:
            if isinstance(event, Commit):
                out.extend(event.tokens)
        return out

    def stats(self) -> DecodeStats:
        """Acceptance and flush counts, derived from the events alone.

        `drafted` counts the draft tokens shown to the first verifier, i.e.
        each DraftStep directly followed by a verify event; a vanilla trace
        has no verifier and counts zero everywhere.
        """
        drafted = checked_i = accepted_i = presented = checked_t = accepted_t = flushed = 0
        previous = None
        for event in self.events:
            if isinstance(previous, DraftStep) and isinstance(
                event, (IntermediateVerify, TargetVerify)
            ):
                drafted += len(previous.tokens)
            if isinstance(event, IntermediateVerify):
                checked_i += len(event.accepted) + int(event.rejected > 0)
                accepted_i += len(event.accepted)
            elif isinstance(event, TargetVerify):
                presented += event.presented
                checked_t += len(event.accepted) + int(event.mismatch)
                accepted_t += len(event.accepted)
                flushed += event.flushed
            previous = event
        return DecodeStats(
            drafted=drafted,
            checked_intermediate=checked_i,
            accepted_intermediate=accepted_i,
            presented_target=presented,
            checked_target=checked_t,
            accepted_target=accepted_t,
            flushed=flushed,
        )


@dataclass(frozen=True)
class DecodeStats:
    """Acceptance rates count tokens actually compared against a verifier:
    the tail flushed after a mismatch was never checked and is excluded
    from the rate denominators (it still counts as flushed work)."""

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
    """One decode over one backend; strictly sequential, owns its state.

    `exits` are the exit layers splitting the stack into levels, e.g.
    (draft, intermediate, full). Level i covers layers exits[i-1]+1 to
    exits[i]; level 0 starts at layer 1.
    """

    def __init__(
        self,
        backend: Backend,
        exits: Sequence[int],
        policy: AcceptancePolicy = GREEDY,
        eos_token: int | None = None,
    ) -> None:
        exits = tuple(exits)
        if not exits or list(exits) != sorted(set(exits)):
            raise ConfigError("exits must be strictly increasing")
        if exits[-1] > backend.n_layers:
            raise ConfigError("exit beyond the model depth")
        self.backend = backend
        self.exits = exits
        self.policy = policy
        self.eos_token = eos_token
        self.state = backend.new_state(buffered_layers=exits)
        self.ledger = CostLedger()
        self.trace = DecodeTrace()

    # -- level plumbing ----------------------------------------------

    def _advance(self, level: int, upto: int, phase: str) -> Span:
        hi = self.exits[level]
        start = self.state.filled(hi)
        if start >= upto:
            return (start, start)
        lo = 1 if level == 0 else self.exits[level - 1] + 1
        self.backend.forward_range(self.state, lo, hi, start, upto)
        self.ledger.record_pass(phase, hi - lo + 1, upto - start)
        return (start, upto)

    def _ensure_through(self, level: int, upto: int, phase: str) -> tuple[Span, ...]:
        return tuple(self._advance(lvl, upto, phase) for lvl in range(level + 1))

    def dist(self, level: int, position: int) -> TokenDistribution:
        return self.backend.exit_distribution(self.state, self.exits[level], position)

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
        self.ledger.record_pass("prefill", self.exits[-1], len(prompt))
        self.state.mark_committed(len(prompt))

    def generate_next(self, n: int, phase: str = "draft") -> tuple[list[int], Span]:
        """Emit up to n greedy tokens at the lowest exit, extending its layers.

        Each emission processes the newest context position through the
        draft level if it is not already there; after the last emission
        the produced token is processed too, so a following verification
        pass can cover every emitted position in one batch.
        """
        hi = self.exits[0]
        start_fill = self.state.filled(hi)
        emitted: list[int] = []
        for _ in range(n):
            if len(self.state.tokens) >= self.backend.max_seq_len:
                break
            pos = len(self.state.tokens) - 1
            if self.state.filled(hi) <= pos:
                self._advance(0, pos + 1, phase)
            token = self.dist(0, pos).argmax()
            self.state.append_token(token)
            emitted.append(token)
            if self.eos_token is not None and token == self.eos_token:
                break
        if emitted and self.state.filled(hi) < len(self.state.tokens):
            self._advance(0, len(self.state.tokens), phase)
        return emitted, (start_fill, self.state.filled(hi))

    def leading_substring_verify(
        self,
        draft_tokens: Sequence[int],
        level: int,
        phase: str,
        full_accept_bonus: bool = True,
        draft_start: int | None = None,
    ) -> tuple[list[int], int | None, bool, tuple[Span, ...]]:
        """Longest prefix of the draft the level's verifier agrees with.

        Runs one batched pass of the level's layers over every position it
        is behind on, then checks tokens left to right. On the first
        mismatch the rejected positions are pruned from all filled layers
        and the verifier's own greedy token is returned as the bonus; on
        full acceptance the bonus (when requested) is the verifier's
        prediction for the position after the draft.
        """
        if draft_start is None:
            draft_start = len(self.state.tokens) - len(draft_tokens)
        upto = draft_start + len(draft_tokens)
        spans = self._ensure_through(level, upto, phase)
        accepted: list[int] = []
        for j, token in enumerate(draft_tokens):
            dist = self.dist(level, draft_start + j - 1)
            if token in top_predictions(dist, self.policy):
                accepted.append(token)
                continue
            bonus = dist.argmax()
            self.state.prune_all(draft_start + j)
            return accepted, bonus, True, spans
        bonus = None
        if full_accept_bonus:
            bonus = self.dist(level, upto - 1).argmax()
        return accepted, bonus, False, spans

    def finalize(self) -> None:
        """Drop tentative work and bring every level up to the committed end."""
        final_len = self.state.committed_len
        self.state.prune_all(final_len)
        spans = self._ensure_through(len(self.exits) - 1, final_len, "target_verify")
        self.trace.finalize_processed = tuple(s for s in spans if s[1] > s[0])


def _check_capacity(backend: Backend, prompt: Sequence[int], max_new_tokens: int) -> None:
    if len(prompt) + max_new_tokens > backend.max_seq_len:
        raise CapacityError(
            f"prompt of {len(prompt)} plus {max_new_tokens} new tokens exceeds "
            f"max_seq_len {backend.max_seq_len}"
        )


def vanilla_decode(
    backend: Backend,
    prompt: Sequence[int],
    max_new_tokens: int,
    layer: int | None = None,
    eos_token: int | None = None,
) -> DecodeResult:
    """Greedy autoregressive decoding at a single exit layer.

    The full-depth instance defines reference output for the speculative
    strategies.
    """
    _check_capacity(backend, prompt, max_new_tokens)
    exit_layer = backend.n_layers if layer is None else layer
    session = DecodeSession(backend, exits=(exit_layer,), eos_token=eos_token)
    session.prefill(prompt)
    start = len(prompt)
    tokens, span = session.generate_next(max_new_tokens)
    session.state.mark_committed(len(session.state.tokens))
    session.trace.events.append(DraftStep(start_pos=start, tokens=tuple(tokens), processed=span))
    session.trace.events.append(Commit(tokens=tuple(tokens)))
    return _result(session)


def selfspec_decode(
    backend: Backend,
    prompt: Sequence[int],
    draft_layer: int,
    draft_len: int,
    max_new_tokens: int,
    eos_token: int | None = None,
    policy: AcceptancePolicy = GREEDY,
) -> DecodeResult:
    """Single-layer self-speculation: draft at an early exit, verify at full depth."""
    if not 1 <= draft_layer < backend.n_layers:
        raise ConfigError("draft_layer must lie strictly below the full depth")
    if draft_len < 1:
        raise ConfigError("draft_len must be >= 1")
    _check_capacity(backend, prompt, max_new_tokens)
    session = DecodeSession(
        backend, exits=(draft_layer, backend.n_layers), policy=policy, eos_token=eos_token
    )
    return _speculate(session, prompt, max_new_tokens, draft_len)


def hierarchical_decode(
    backend: Backend,
    prompt: Sequence[int],
    config: HierarchicalConfig,
    boundary_hook=None,
) -> DecodeResult:
    """Draft -> intermediate verify -> full-model verify decoding loop.

    The intermediate verifier tentatively accepts draft tokens and adds
    one token of its own per round; once the tentative buffer holds at
    least `accept_window` tokens (or an end condition is pending) the full
    model verifies the buffer against the committed context, committing
    the agreeing prefix and flushing the rest from the first mismatch,
    where exactly one full-model token is committed instead.
    `boundary_hook(session)` runs after every full-model verification.
    """
    if config.full_layer != backend.n_layers:
        raise ConfigError(
            f"config.full_layer {config.full_layer} != backend depth {backend.n_layers}"
        )
    _check_capacity(backend, prompt, config.max_new_tokens)
    session = DecodeSession(
        backend,
        exits=(config.draft_layer, config.intermediate_layer, config.full_layer),
        policy=config.policy,
        eos_token=config.eos_token,
    )
    return _speculate(
        session, prompt, config.max_new_tokens, config.draft_len, config.accept_window,
        boundary_hook,
    )


def _speculate(
    session: DecodeSession,
    prompt: Sequence[int],
    max_new_tokens: int,
    draft_len: int,
    accept_window: int = 1,
    boundary_hook=None,
) -> DecodeResult:
    """The speculative round loop over a 2- or 3-exit session.

    Each round gathers tentative tokens (one draft burst with two exits,
    screened bursts up to `accept_window` with three), verifies them at
    the top exit, commits the agreeing prefix capped at eos and the
    budget, and on a mismatch commits the top exit's own token instead.
    `accept_window` matters only with three exits; `boundary_hook(session)`
    runs after every top-exit verification.
    """
    session.prefill(prompt)
    top = len(session.exits) - 1
    eos = session.eos_token
    committed = 0
    while committed < max_new_tokens:
        room = max_new_tokens - committed
        if top == 1:
            tentative, reason = _draft(session, draft_len), "round"
        else:
            tentative, reason = _screen(session, draft_len, accept_window, room)
        if not tentative:
            raise CapacityError("no room left to draft")
        accepted, bonus, mismatch, spans = session.leading_substring_verify(
            tentative,
            level=top,
            phase="target_verify",
            full_accept_bonus=False,
            draft_start=session.state.committed_len,
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
        session.state.mark_committed(session.state.committed_len + len(kept))
        committed += len(kept)
        session.trace.events.append(
            TargetVerify(
                accepted=tuple(accepted),
                bonus=bonus,
                presented=len(tentative),
                flushed=flushed,
                mismatch=mismatch,
                reason=reason,
                processed=spans,
            )
        )
        session.trace.events.append(Commit(tokens=tuple(kept)))
        if boundary_hook is not None:
            boundary_hook(session)
        if eos in kept:
            break
    session.finalize()
    return _result(session)


def _draft(session: DecodeSession, draft_len: int) -> list[int]:
    """One draft burst at the lowest exit, recorded as a DraftStep."""
    start = len(session.state.tokens)
    drafted, span = session.generate_next(draft_len)
    if drafted:
        session.trace.events.append(
            DraftStep(start_pos=start, tokens=tuple(drafted), processed=span)
        )
    return drafted


def _screen(
    session: DecodeSession, draft_len: int, accept_window: int, room: int
) -> tuple[list[int], str]:
    """Fill the tentative buffer through the intermediate exit.

    Draft bursts are screened until the buffer holds `accept_window`
    tokens, holds eos, reaches the remaining budget `room`, or no position
    is left to draft into. Returns the buffer and the reason it is due.
    """
    eos = session.eos_token
    tentative: list[int] = []
    while len(tentative) < accept_window and eos not in tentative and len(tentative) < room:
        drafted = _draft(session, draft_len)
        if not drafted:
            break
        accepted, bonus, _, spans = session.leading_substring_verify(
            drafted, level=1, phase="intermediate_verify", full_accept_bonus=True
        )
        tentative.extend(accepted)
        if bonus is not None and len(session.state.tokens) < session.backend.max_seq_len:
            session.state.append_token(bonus)
            tentative.append(bonus)
        else:
            bonus = None
        session.trace.events.append(
            IntermediateVerify(
                accepted=tuple(accepted),
                bonus=bonus,
                rejected=len(drafted) - len(accepted),
                processed=spans,
            )
        )
        if len(tentative) > accept_window + draft_len:
            raise ProtocolError(
                f"tentative buffer of {len(tentative)} exceeds accept_window + draft_len"
            )
    if len(tentative) >= accept_window:
        return tentative, "window"
    if eos in tentative:
        return tentative, "eos"
    if len(tentative) >= room:
        return tentative, "budget"
    return tentative, "capacity"


def _result(session: DecodeSession) -> DecodeResult:
    trace = session.trace
    return DecodeResult(
        tokens=trace.committed_tokens(),
        trace=trace,
        ledger=session.ledger,
        stats=trace.stats(),
        state=session.state,
    )


def replay_ledger(
    trace: DecodeTrace,
    prompt_len: int,
    exits: Sequence[int],
) -> CostLedger:
    """Reconstruct the cost ledger from the trace alone.

    The live ledger must equal this replay exactly; that property pins the
    accounting to the recorded events rather than incidental code paths.
    """
    exits = tuple(exits)
    ledger = CostLedger()
    ledger.record_pass("prefill", exits[-1], prompt_len)
    level_widths = [exits[0]] + [exits[i] - exits[i - 1] for i in range(1, len(exits))]

    def record_spans(phase: str, spans: Sequence[Span]) -> None:
        for level, (a, b) in enumerate(spans):
            if b > a:
                ledger.record_pass(phase, level_widths[level], b - a)

    for event in trace.events:
        if isinstance(event, DraftStep):
            a, b = event.processed
            for _ in range(b - a):
                ledger.record_pass("draft", level_widths[0], 1)
        elif isinstance(event, IntermediateVerify):
            record_spans("intermediate_verify", event.processed)
        elif isinstance(event, TargetVerify):
            record_spans("target_verify", event.processed)
    record_spans("target_verify", trace.finalize_processed)
    return ledger
