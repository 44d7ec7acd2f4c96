"""Property test of config parsing: a bad field is named when the config loads.

Each example takes a valid config of one section kind (a toy, preset or
profile backend; text or random prompts; decode; the root;
a strategy entry), replaces one of that kind's fields, given or left to its
default, with a value from a small fixed pool, and loads it. Either
`ExperimentConfig.from_dict` raises a ConfigError whose message holds the
field's path, or it returns and both builders succeed on what it returned.
The only errors a builder may raise are for an unreadable `prompts.text_path`
and for a `backend.max_seq_len` shorter than a drawn random prompt.
The pool holds no large integer: a toy backend allocates
n_layers x max_seq_len x d_model arrays.
"""
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.errors import ConfigError
from specdec.experiments import ExperimentConfig, build_backend, build_prompts

POOL = (-1, 0, 1, 2, 2.5, True, None, "x", "3", [], {}, [1])

BACKENDS = {
    "toy": {
        "type": "toy", "n_layers": 4, "d_model": 8, "n_heads": 2, "vocab_size": 16,
        "max_seq_len": 32,
    },
    "preset": {"type": "synthetic", "preset": "llama70b-sharegpt", "n_layers": 24},
    "profile": {"type": "synthetic", "n_layers": 3, "profile": {"1": 0.3, "2": 0.6, "3": 1.0}},
}
PROMPTS = {
    "text": {"text_path": None, "max_len": 8},  # the path is filled in per test
    "random": {"count": 2, "min_len": 2, "max_len": 4},
}

# (section kind, path of the section in the config, the kind's fields)
SECTIONS = [
    ("toy", ("backend",), ("type", "n_layers", "d_model", "n_heads", "vocab_size", "max_seq_len")),
    ("preset", ("backend",), ("type", "preset", "n_layers", "vocab_size", "context_window")),
    (
        "profile", ("backend",),
        ("type", "profile", "n_layers", "vocab_size", "context_window", "max_seq_len"),
    ),
    ("text", ("prompts",), ("text_path", "max_len")),
    ("random", ("prompts",), ("count", "min_len", "max_len")),
    ("random", ("decode",), ("max_new_tokens",)),
    ("random", (), ("seed", "backend", "prompts", "decode", "strategies")),
    (
        "random", ("strategies", 0),
        ("name", "draft_layer", "intermediate_layer", "draft_len", "accept_window"),
    ),
]
FIELDS = [(kind, where, field) for kind, where, fields in SECTIONS for field in fields]


def valid_config(kind: str, text_path: str) -> dict:
    """A config that loads and builds, with the backend or prompts of `kind`."""
    prompts = dict(PROMPTS["text" if kind == "text" else "random"])
    if kind == "text":
        prompts["text_path"] = text_path
    return {
        "seed": 1,
        "backend": copy.deepcopy(BACKENDS.get(kind, BACKENDS["toy"])),
        "prompts": prompts,
        "decode": {"max_new_tokens": 4},
        "strategies": [{"name": "hierarchical", "draft_layer": [1], "draft_len": 2}],
    }


def field_path(where: tuple, field: str) -> str:
    path = ""
    for key in (*where, field):
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prompts") / "prompts.txt"
    path.write_text("the first prompt\nanother one\n", encoding="utf-8")
    return str(path)


# More examples than (field, value) pairs, so the search exhausts every pair.
@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(POOL))
def test_a_replaced_field_is_named_or_the_config_builds(text_path, case, value):
    kind, where, field = case
    raw = valid_config(kind, text_path)
    section = raw
    for key in where:
        section = section[key]
    section[field] = copy.deepcopy(value)
    path = field_path(where, field)
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        assert path in str(exc), f"{path} = {value!r}: {exc}"
        return
    backend = build_backend(config.backend, config.seed)
    try:
        prompts = build_prompts(config, backend.vocab_size)
    except ConfigError as exc:  # no readable file, or no room for a drawn prompt
        named = path in ("prompts.text_path", "backend.max_seq_len") and path in str(exc)
        assert named, f"{path} = {value!r}: {exc}"
        return
    assert prompts and backend.n_layers == config.backend.n_layers
