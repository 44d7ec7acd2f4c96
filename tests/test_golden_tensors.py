"""Golden digests of the toy model's tensor bytes.

`test_golden.py` pins tokens, traces and reports; these digests pin the
float64 bytes under them: the `forward_range` output and every
`kv_k`/`kv_v`/`hidden` buffer, for several model shapes. The same span
is run as one prefill call, in steps of 1, 2 and 3 positions, and split
by layer; all of these must give the parent digest bit for bit, which
is the determinism contract stated in `specdec.model`. A separate digest
pins `reference_state` brought to partial fills with the top layers
empty.

Update a digest only for a deliberate change of the model's arithmetic,
and say so in the change log.
"""
import hashlib
import random

import numpy as np
import pytest

from specdec import ModelConfig, ToyTransformer

N_LAYERS = 6
SPAN = 11
BUFFERED = (2, 3, N_LAYERS)
SPLIT_LAYER = 3
REFERENCE_FILLS = (SPAN, SPAN, SPAN - 3, 4, 0, 0)


def _model(d_model, n_heads):
    return ToyTransformer(
        ModelConfig(
            n_layers=N_LAYERS, d_model=d_model, n_heads=n_heads,
            vocab_size=16, max_seq_len=24, seed=d_model + n_heads,
        )
    )


def _tokens(model):
    rng = random.Random(model.d_model * 10 + model.config.n_heads)
    return [rng.randrange(model.vocab_size) for _ in range(SPAN)]


def _digest(output, state):
    h = hashlib.sha256()
    if output is not None:
        h.update(np.ascontiguousarray(output).tobytes())
    for layer in range(state.n_layers):
        h.update(state.kv_k[layer].tobytes())
        h.update(state.kv_v[layer].tobytes())
    for layer in sorted(state.hidden):
        h.update(state.hidden[layer].tobytes())
    return h.hexdigest()


def _stepped(model, tokens, steps):
    """Feed the span through all layers in calls of the given position counts."""
    state = model.new_state(BUFFERED)
    state.set_tokens(tokens)
    outputs, pos = [], 0
    while pos < len(tokens):
        end = min(pos + steps[len(outputs) % len(steps)], len(tokens))
        outputs.append(model.forward_range(state, 1, N_LAYERS, pos, end))
        pos = end
    return np.concatenate(outputs), state


def _layer_split(model, tokens):
    state = model.new_state(BUFFERED)
    state.set_tokens(tokens)
    model.forward_range(state, 1, SPLIT_LAYER, 0, len(tokens))
    return model.forward_range(state, SPLIT_LAYER + 1, N_LAYERS, 0, len(tokens)), state


FORWARD_VARIANTS = {
    "prefill": lambda model, tokens: _stepped(model, tokens, [SPAN]),
    "steps-1": lambda model, tokens: _stepped(model, tokens, [1]),
    "steps-2": lambda model, tokens: _stepped(model, tokens, [2]),
    "steps-3": lambda model, tokens: _stepped(model, tokens, [3]),
    "steps-1-2-3": lambda model, tokens: _stepped(model, tokens, [1, 2, 3]),
    "layer-split": _layer_split,
}

# (d_model, n_heads) -> (forward digest, reference_state digest)
TENSOR_GOLDEN = {
    (16, 1): (
        "ee35f05253939956777e40e28c531c34190b4b947b7efcedc6b66ca3b2a73b81",
        "3f3741c4a4eaab22e38058521bcd6cd41a15307cf4c3f3b401bee28c7d69e6a7",
    ),
    (16, 2): (
        "b6936dcb476efdf80e6b4aaa2957bc393e6181d457f21925d7e3f32940eb6ae8",
        "7814210b78da22bdf04f8ebd45bc8d6671b23b3351d01c5bac1b441b8ea6c391",
    ),
    (16, 4): (
        "2322587f4a646d9dfba4870980a7746e96a64675d8c20140e20d73315188a42c",
        "56f1bedf84c689fc7c95b646b80be70773e3180f23e8357230f7081a32af7f0a",
    ),
    (32, 1): (
        "aef362512c4d8118a53a973cf3ae22db188f7e15f2ec60af693e6690fd40a8e4",
        "853fededc3f6ca382428ee4e014d87e09a7a5fd59f0a0ade2545d8eee84d827d",
    ),
    (32, 2): (
        "da67ab1a3b6ca18ac650c356055fcd96b75233c7ddac443d4616141bc57610f7",
        "c178db9f18d5fc2aec4bfdfba2cb2c29982a2f2f3b80bf104002fe536e6c35fd",
    ),
    (32, 4): (
        "f4d847f44ce0f929689448e2405d98b25aadbac4b3a621a2eaeb822c6cc3b9f2",
        "3a12f752a198649331bca872287f9695de05fc1f905acba4dd65437611249b33",
    ),
}


@pytest.mark.parametrize("variant", sorted(FORWARD_VARIANTS))
@pytest.mark.parametrize("shape", sorted(TENSOR_GOLDEN))
def test_forward_tensors_match_golden(shape, variant):
    model = _model(*shape)
    output, state = FORWARD_VARIANTS[variant](model, _tokens(model))
    assert _digest(output, state) == TENSOR_GOLDEN[shape][0]


@pytest.mark.parametrize("shape", sorted(TENSOR_GOLDEN))
def test_reference_state_tensors_match_golden(shape):
    model = _model(*shape)
    ref = model.reference_state(_tokens(model), REFERENCE_FILLS, BUFFERED)
    assert ref.fills() == REFERENCE_FILLS
    assert _digest(None, ref) == TENSOR_GOLDEN[shape][1]
