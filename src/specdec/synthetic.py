"""Closed-form layered oracle with controllable per-layer agreement.

Every layer's argmax prediction is a pure function of (seed, layer,
trailing context window). The final layer defines the ground-truth token;
layer `l` reproduces it with probability alpha(l) and otherwise emits a
deterministic decoy. One uniform draw per context is shared by all
layers (layer `l` is right when the draw falls below alpha(l)), so with a
monotone profile the layers' correct sets are nested: whatever an early
exit gets right, every deeper exit gets right too. That correlation
mirrors how early-exit checkpoints behave and is what makes an
intermediate verifier raise the acceptance rate seen by the full model to
alpha(intermediate) rather than the product of independent agreements.

The mixer is the 64-bit finalizer from MurmurHash3 (fmix64), chosen so
results reproduce across implementations from the published constants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .backend import TokenDistribution
from .errors import AlignmentError, ConfigError
from .state import LayeredState, check_layer_range, fill_runs

_MASK64 = (1 << 64) - 1
_MIX_A = 0xFF51AFD7ED558CCD
_MIX_B = 0xC4CEB9FE1A85EC53
_GOLDEN = 0x9E3779B97F4A7C15
_TAG_TRUTH = 0x74727574  # "trut"
_TAG_AGREE = 0x61677265  # "agre"
_TAG_DECOY = 0x6465636F  # "deco"

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


def _window_hash(seed: int, window: Sequence[int]) -> int:
    h = mix64(seed ^ _GOLDEN)
    for token in window:
        h = mix64(h ^ ((token + _GOLDEN) & _MASK64))
    return h


@dataclass(frozen=True)
class SyntheticModelSpec:
    n_layers: int
    vocab_size: int
    seed: int
    agreement_profile: Mapping[int, float]
    context_window: int = 4
    max_seq_len: int = 4096
    name: str = field(default="custom", compare=False)

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ConfigError("n_layers must be >= 3")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4")
        if self.context_window < 1:
            raise ConfigError("context_window must be positive")
        profile = dict(self.agreement_profile)
        if set(profile) != set(range(1, self.n_layers + 1)):
            raise ConfigError("agreement_profile must cover every layer 1..n_layers")
        for layer, alpha in profile.items():
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError(f"alpha({layer}) outside [0, 1]")
        if profile[self.n_layers] != 1.0:
            raise ConfigError("alpha at the final layer must be 1.0")
        object.__setattr__(self, "agreement_profile", profile)

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
    69% of tokens, the eighth-depth draft on 55%, layer 1 on 1%.
    llama70b-sharegpt: 80 layers with measured acceptance anchors of
    0.397 at layer 10 and 0.581 at layer 20; other layers interpolated.
    """
    if name == "quarter-depth-69":
        layers = 32 if n_layers is None else n_layers
        quarter = -(-layers // 4)
        eighth = -(-layers // 8)
        anchors = {1: 0.01, eighth: 0.55, quarter: 0.69, layers: 1.0}
        profile = interpolated_profile(layers, anchors)
        profile[quarter] = 0.69
    elif name == "llama70b-sharegpt":
        layers = 80 if n_layers is None else n_layers
        if layers < 21:
            raise ConfigError("llama70b-sharegpt preset needs at least 21 layers")
        profile = interpolated_profile(layers, {10: 0.397, 20: 0.581, layers: 1.0})
        profile[10] = 0.397
        profile[20] = 0.581
    else:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return SyntheticModelSpec(
        n_layers=layers,
        vocab_size=vocab_size,
        seed=seed,
        agreement_profile=profile,
        context_window=context_window,
        name=name,
    )


class SyntheticBackend:
    """Backend over a SyntheticModelSpec; pure and freely shareable.

    KV plumbing is simulated: layer ranges advance fill counters and
    compute counts so the cache protocol is exercised structurally, but
    no tensors are stored. Predictions read the recorded token sequence.
    """

    def __init__(self, spec: SyntheticModelSpec) -> None:
        self.spec = spec
        self.n_layers = spec.n_layers
        self.vocab_size = spec.vocab_size
        self.max_seq_len = spec.max_seq_len
        # Window hashes recur heavily across levels and verification passes;
        # caching them is safe because predictions are pure.
        self._window_cache: dict[tuple[int, ...], tuple[int, float, int]] = {}

    def new_state(self, buffered_layers: Sequence[int] = ()) -> LayeredState:
        return LayeredState(
            n_layers=self.n_layers,
            max_seq_len=self.max_seq_len,
            d_model=None,
            buffered_layers=buffered_layers,
        )

    # -- closed-form predictions ----------------------------------------

    def _window_draw(self, window: tuple[int, ...]) -> tuple[int, float, int]:
        cached = self._window_cache.get(window)
        if cached is None:
            h = _window_hash(self.spec.seed, window)
            truth = mix64(h ^ _TAG_TRUTH) % self.vocab_size
            # Single draw shared by all layers: nested correctness sets.
            agree_draw = mix64(h ^ _TAG_AGREE) / float(1 << 64)
            decoy_step = mix64(h ^ _TAG_DECOY) % (self.vocab_size - 1)
            decoy = (truth + 1 + decoy_step) % self.vocab_size
            cached = (truth, agree_draw, decoy)
            if len(self._window_cache) < 1_000_000:
                self._window_cache[window] = cached
        return cached

    def _predict(self, layer: int, window: tuple[int, ...]) -> int:
        """Truth when the window's shared draw falls below alpha(layer), else the decoy."""
        truth, agree_draw, decoy = self._window_draw(window)
        if layer == self.n_layers or agree_draw < self.spec.alpha(layer):
            return truth
        return decoy

    def predict_token(self, layer: int, context: Sequence[int]) -> int:
        """Argmax token layer `layer` emits after `context`."""
        check_layer_range(self.n_layers, layer, layer)
        if len(context) == 0:
            raise AlignmentError("context must be non-empty")
        return self._predict(layer, tuple(context[-self.spec.context_window :]))

    # -- backend protocol ------------------------------------------------

    def forward_range(
        self,
        state: LayeredState,
        start_layer: int,
        end_layer: int,
        start_pos: int,
        end_pos: int,
    ) -> None:
        state.advance(start_layer, end_layer, start_pos, end_pos)

    def exit_distribution(self, state: LayeredState, layer: int, position: int) -> TokenDistribution:
        if state.filled(layer) <= position:
            raise AlignmentError(f"missing hidden state at (layer {layer}, position {position})")
        lo = max(0, position + 1 - self.spec.context_window)
        token = self._predict(layer, tuple(state.tokens[lo : position + 1]))
        logits = np.zeros(self.vocab_size)
        logits[token] = 1.0
        return TokenDistribution(
            logits=logits, position=position, source_layer=layer, degenerate=True
        )

    def reference_state(
        self,
        tokens: Sequence[int],
        fills: Sequence[int],
        buffered_layers: Sequence[int],
    ) -> LayeredState:
        ref = self.new_state(buffered_layers)
        ref.set_tokens(tokens)
        for start_layer, end_layer, fill in fill_runs(fills):
            ref.advance(start_layer, end_layer, 0, fill)
        return ref
