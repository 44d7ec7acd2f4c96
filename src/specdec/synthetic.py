"""Closed-form layered oracle with controllable per-layer agreement.

Every layer's argmax prediction is a pure function of (seed, layer,
trailing context window). The final layer defines the ground-truth token;
layer `l` reproduces it with probability alpha(l) and otherwise emits a
deterministic decoy. One uniform draw in [0, 1] per context is shared by
all layers (layer `l` is right when the draw falls below alpha(l)), so
with a monotone profile the layers' correct sets are nested: whatever an
early exit gets right, every deeper exit gets right too. That correlation
mirrors how early-exit checkpoints behave and is what makes an
intermediate verifier raise the acceptance rate seen by the full model to
alpha(intermediate) rather than the product of independent agreements.
A layer whose alpha is 1.0, the final layer among them, always emits the
truth, even for a draw that rounds to exactly 1.0.

The mixer is the 64-bit finalizer from MurmurHash3 (fmix64), chosen so
results reproduce across implementations from the published constants.
`mix64` is its reference definition: a window's hash folds it over the
seed's hash and the window's tokens, and each tag mixes that hash once
more. The tests' `predict_token` recomputes every prediction from `mix64`
alone. `SyntheticBackend` computes the same values with fmix64 written
out, and skips the work that fmix64 undoes: its closing xorshift
`x ^ (x >> 33)` is its own inverse on 64-bit words and xor-linear, so the
next mix's opening xorshift cancels it. The backend carries each fold
step's value from before that closing xorshift instead of the hash.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AlignmentError, ConfigError
from .state import LayeredState

_MASK64 = (1 << 64) - 1
_MIX_A = 0xFF51AFD7ED558CCD
_MIX_B = 0xC4CEB9FE1A85EC53
_GOLDEN = 0x9E3779B97F4A7C15
_TAG_TRUTH = 0x74727574  # "trut"
_TAG_AGREE = 0x61677265  # "agre"
_TAG_DECOY = 0x6465636F  # "deco"
_CACHE_LIMIT = 1_000_000  # entries per backend cache

PRESET_NAMES = ("quarter-depth-69", "llama70b-sharegpt")


def mix64(x: int) -> int:
    """MurmurHash3 fmix64 finalizer over unsigned 64-bit integers."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 33
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 33
    return x


@dataclass(frozen=True)
class SyntheticModelSpec:
    n_layers: int
    vocab_size: int
    seed: int
    agreement_profile: Mapping[int, float]
    context_window: int = 4
    max_seq_len: int = 4096

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ConfigError("n_layers must be >= 3")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4")
        if self.context_window < 1:
            raise ConfigError("context_window must be positive")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be positive")
        profile = dict(self.agreement_profile)
        if set(profile) != set(range(1, self.n_layers + 1)):
            raise ConfigError("agreement_profile must cover every layer 1..n_layers")
        for layer, alpha in profile.items():
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError(f"alpha({layer}) outside [0, 1]")
        if profile[self.n_layers] != 1.0:
            raise ConfigError("alpha at the final layer must be 1.0")
        object.__setattr__(self, "agreement_profile", profile)

    def __hash__(self) -> int:
        # The profile is a dict; equal specs share these fields, and == tells apart the rest.
        return hash((self.n_layers, self.vocab_size, self.seed))

    def alpha(self, layer: int) -> float:
        return self.agreement_profile[layer]


def interpolated_profile(n_layers: int, anchors: Mapping[int, float]) -> dict[int, float]:
    """Piecewise-linear per-layer agreement through the given anchor points.

    Slopes extrapolate beyond the outermost anchors; values clamp to [0, 1]
    and the final layer is forced to 1.0.
    """
    pts = sorted((int(l), float(a)) for l, a in anchors.items())
    if not pts:
        raise ConfigError("at least one anchor required")
    profile: dict[int, float] = {}
    for layer in range(1, n_layers + 1):
        if layer <= pts[0][0]:
            lo, hi = pts[0], pts[1] if len(pts) > 1 else pts[0]
        elif layer >= pts[-1][0]:
            lo, hi = (pts[-2] if len(pts) > 1 else pts[-1]), pts[-1]
        else:
            idx = max(i for i, (l, _) in enumerate(pts) if l <= layer)
            lo, hi = pts[idx], pts[idx + 1]
        if hi[0] == lo[0]:
            value = lo[1]
        else:
            slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
            value = lo[1] + slope * (layer - lo[0])
        profile[layer] = min(1.0, max(0.0, value))
    profile[n_layers] = 1.0
    return profile


def uniform_profile(n_layers: int, alpha: float) -> dict[int, float]:
    profile = {layer: float(alpha) for layer in range(1, n_layers + 1)}
    profile[n_layers] = 1.0
    return profile


def calibrate_preset(
    name: str,
    n_layers: int | None = None,
    vocab_size: int = 256,
    seed: int = 0,
    context_window: int = 4,
) -> SyntheticModelSpec:
    """Build one of the named calibrated agreement profiles.

    quarter-depth-69: quarter-depth exit agrees with the final layer on
    69% of tokens, the eighth-depth draft on 55%, layer 1 on 1%. It needs
    9 layers, so that layer 1, the eighth-depth and the quarter-depth
    exit are three layers.
    llama70b-sharegpt: 80 layers with measured acceptance anchors of
    0.397 at layer 10 and 0.581 at layer 20; other layers interpolated.
    """
    if name == "quarter-depth-69":
        layers = 32 if n_layers is None else n_layers
        if layers < 9:
            raise ConfigError("quarter-depth-69 preset needs at least 9 layers")
        quarter = -(-layers // 4)
        eighth = -(-layers // 8)
        anchors = {1: 0.01, eighth: 0.55, quarter: 0.69, layers: 1.0}
        profile = interpolated_profile(layers, anchors)
    elif name == "llama70b-sharegpt":
        layers = 80 if n_layers is None else n_layers
        if layers < 21:
            raise ConfigError("llama70b-sharegpt preset needs at least 21 layers")
        profile = interpolated_profile(layers, {10: 0.397, 20: 0.581, layers: 1.0})
    else:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return SyntheticModelSpec(
        n_layers=layers,
        vocab_size=vocab_size,
        seed=seed,
        agreement_profile=profile,
        context_window=context_window,
    )


class SyntheticBackend:
    """Backend over a SyntheticModelSpec; pure and freely shareable.

    KV plumbing is simulated: the state's fills are all it keeps, so a
    backend's `forward_range` is `LayeredState.advance` itself, held by
    the instance, and a pass is the state's protocol check and fill
    update alone. Predictions read the recorded token sequence. An exit
    answers with its int token, which stands exactly for a one-hot
    distribution, so a query builds no object. The method keeps the
    protocol's name, `exit_distribution`, until ROADMAP item 13 renames it.

    The per-layer alpha table and the seed's hash are built once here. A
    layer with alpha 1.0 is stored as infinity, so that it agrees with
    the truth at every draw. An exit query is then one lookup of its
    context window's (truth, draw, decoy) and one comparison of the draw
    with the layer's entry. A window missing from the cache, which keeps
    up to a million windows, is hashed on the spot by `_draw`, one
    straight-line function with fmix64 written out on a carried state:
    each fold step's value before fmix64's closing xorshift, which the
    next step's opening xorshift would undo. Two more caches keyed by
    token serve it: the carried state after a window's first fold step,
    which depends only on its first token, and a later token's operand
    `k ^ (k >> 33)`, `k = (token + _GOLDEN) & _MASK64`. Each is filled on
    first use, never at construction, and bounded like the window cache,
    so a backend costs O(1) in `vocab_size`.
    """

    def __init__(self, spec: SyntheticModelSpec) -> None:
        self.spec = spec
        self.n_layers = spec.n_layers
        self.vocab_size = spec.vocab_size
        self.max_seq_len = spec.max_seq_len
        # Indexed by layer; entry 0 is never read.
        self._alpha = [0.0] + [
            math.inf if spec.alpha(layer) == 1.0 else spec.alpha(layer)
            for layer in range(1, spec.n_layers + 1)
        ]
        self._seed_hash = mix64(spec.seed ^ _GOLDEN)
        self._context_window = spec.context_window
        # Window hashes recur heavily across levels and verification passes;
        # caching them is safe because predictions are pure.
        self._window_cache: dict[tuple[int, ...], tuple[int, float, int]] = {}
        # Carried state after a window's first fold step, by its first token,
        # and each later token's operand `k ^ (k >> 33)`: both filled on first use.
        self._first_fold: dict[int, int] = {}
        self._token_operand: dict[int, int] = {}
        # A plain function held by the instance binds nothing, so
        # `forward_range(state, ...)` is `state.advance(...)` in one frame.
        self.forward_range = LayeredState.advance

    def new_state(self, buffered_layers: Sequence[int] = ()) -> LayeredState:
        return LayeredState(
            n_layers=self.n_layers,
            max_seq_len=self.max_seq_len,
            d_model=None,
            buffered_layers=buffered_layers,
        )

    # -- backend protocol ------------------------------------------------

    def exit_distribution(self, state: LayeredState, layer: int, position: int) -> int:
        """The token `layer` predicts after `position`, from the trailing
        `context_window` tokens through `position`."""
        if not 1 <= layer <= self.n_layers:
            raise AlignmentError(f"no exit at layer {layer}: layers are 1..{self.n_layers}")
        # The layer is checked, so its fill is read unchecked, once.
        if not 0 <= position < state.live_fills[layer - 1]:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        lo = position + 1 - self._context_window
        window = tuple(state.tokens[lo if lo > 0 else 0 : position + 1])
        drawn = self._window_cache.get(window)
        if drawn is None:
            drawn = self._draw(window)
        truth, agree_draw, decoy = drawn
        return truth if agree_draw < self._alpha[layer] else decoy

    def _draw(self, window: tuple[int, ...]) -> tuple[int, float, int]:
        """Hash a window missing from the cache into its (truth, draw, decoy)
        and cache it: `mix64`'s values, computed on the carried state `g`.

        `g` is a fold step's value before fmix64's closing xorshift, so the
        hash is `g ^ (g >> 33)`. That xorshift is its own inverse and xor-
        linear, so the next step's opening xorshift of `hash ^ k` is
        `g ^ k ^ (k >> 33)`, and of `hash ^ tag` is `g ^ tag`, as every
        tag is below 2**33: both xorshifts drop out."""
        mask, mul_a, mul_b, vocab = _MASK64, _MIX_A, _MIX_B, self.vocab_size
        g = self._first_fold.get(window[0])
        if g is None:
            h = mix64(self._seed_hash ^ ((window[0] + _GOLDEN) & mask))
            g = h ^ (h >> 33)
            if len(self._first_fold) < _CACHE_LIMIT:
                self._first_fold[window[0]] = g
        operands = self._token_operand
        for token in window[1:]:
            k = operands.get(token)
            if k is None:
                k = (token + _GOLDEN) & mask
                k ^= k >> 33
                if len(operands) < _CACHE_LIMIT:
                    operands[token] = k
            x = ((g ^ k) * mul_a) & mask
            x ^= x >> 33
            g = (x * mul_b) & mask
        x = ((g ^ _TAG_TRUTH) * mul_a) & mask
        x ^= x >> 33
        x = (x * mul_b) & mask
        truth = (x ^ (x >> 33)) % vocab
        # Single draw shared by all layers: nested correctness sets.
        x = ((g ^ _TAG_AGREE) * mul_a) & mask
        x ^= x >> 33
        x = (x * mul_b) & mask
        agree_draw = (x ^ (x >> 33)) / 2.0**64
        x = ((g ^ _TAG_DECOY) * mul_a) & mask
        x ^= x >> 33
        x = (x * mul_b) & mask
        drawn = (truth, agree_draw, (truth + 1 + (x ^ (x >> 33)) % (vocab - 1)) % vocab)
        if len(self._window_cache) < _CACHE_LIMIT:
            self._window_cache[window] = drawn
        return drawn
