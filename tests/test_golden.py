"""Golden digests of whole decodes and of CLI report bytes.

Each decode case hashes everything the decode records: tokens, trace
events, finalize spans, the per-phase ledger, stats, the per-layer fills
at every verification boundary and at the end. A change to the decode
loops that moves a single event, span or counter fails here, even when
the committed tokens stay the same. The report cases pin the bytes the
CLI writes for `compare`, `sweep --matrix` and `ablate`, in csv and
jsonl, at one and two jobs, for a synthetic preset, a synthetic profile
with text prompts, a toy model and a config that leaves every
defaultable field unset.

Update a digest only for a deliberate change of decode or report
behaviour, and say so in the change log.
"""
import hashlib
import json
import random

import pytest

from specdec import (
    ModelConfig,
    SyntheticBackend,
    SyntheticModelSpec,
    ToyTransformer,
    speculative_decode,
    vanilla_decode,
)
from specdec.cli import main
from specdec.synthetic import uniform_profile

from conftest import decode_record

N_LAYERS = 10
MAX_SEQ_LEN = 40


def _synthetic(profile, seed):
    return SyntheticBackend(
        SyntheticModelSpec(
            n_layers=N_LAYERS,
            vocab_size=24,
            seed=seed,
            agreement_profile=profile,
            max_seq_len=MAX_SEQ_LEN,
        )
    )


def _random_profile(seed):
    rng = random.Random(seed)
    profile = {layer: round(rng.random(), 3) for layer in range(1, N_LAYERS + 1)}
    profile[N_LAYERS] = 1.0
    return profile


def _backend(name):
    if name == "toy":
        return ToyTransformer(
            ModelConfig(
                n_layers=6, d_model=16, n_heads=2, vocab_size=16, max_seq_len=24, seed=5
            )
        )
    profiles = {
        "never": uniform_profile(N_LAYERS, 0.0),
        "always": uniform_profile(N_LAYERS, 1.0),
        "half": uniform_profile(N_LAYERS, 0.5),
        "rising": {layer: layer / N_LAYERS for layer in range(1, N_LAYERS + 1)},
        "random": _random_profile(41),
    }
    return _synthetic(profiles[name], seed=sum(map(ord, name)))


def _cases(backend, seed, count):
    """Seeded decode cases; every third one ends exactly at max_seq_len."""
    rng = random.Random(seed)
    n = backend.n_layers
    for index in range(count):
        prompt = [rng.randrange(backend.vocab_size) for _ in range(rng.randint(1, 6))]
        room = backend.max_seq_len - len(prompt)
        budget = room if index % 3 == 0 else rng.randint(1, min(room, 20))
        draft = rng.randint(1, n - 2)
        intermediate = rng.randint(draft + 1, n - 1)
        eos_mode = rng.choice(("none", "hit", "random"))
        n_d, n_i = rng.randint(1, 4), rng.randint(1, 6)
        yield prompt, budget, draft, intermediate, n_d, n_i, eos_mode, rng


def _group_records(name, count):
    backend = _backend(name)
    n = backend.n_layers
    records = []
    for prompt, budget, draft, inter, n_d, n_i, eos_mode, rng in _cases(
        backend, seed=len(name) * 7 + 1, count=count
    ):
        reference = vanilla_decode(backend, prompt, budget)
        eos = None
        if eos_mode == "hit":
            eos = reference.tokens[rng.randrange(len(reference.tokens))]
        elif eos_mode == "random":
            eos = rng.randrange(backend.vocab_size)
        records.append(decode_record(speculative_decode(backend, prompt, (n,), (), budget, eos)))
        records.append(decode_record(speculative_decode(backend, prompt, (draft,), (), budget)))
        records.append(
            decode_record(speculative_decode(backend, prompt, (draft, n), (n_d,), budget, eos))
        )
        boundaries = []

        def hook(session):
            boundaries.append([session.state.fills(), session.state.committed_len])

        result = speculative_decode(
            backend, prompt, (draft, inter, n), (n_d, n_i), budget, eos, hook
        )
        records.append(decode_record(result, boundaries))
    return records


def _digest(parts):
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


DECODE_GOLDEN = {
    "never": "f672b16d2f9bc48134304e4fe34e2fa692cc77b7914077608930c68d1faddbfa",
    "always": "e3ddd1de21f947f1d79190c6d1a49efcea48bf6c454b39e58b038bd6befd41cd",
    "half": "63fe4617042536dc76d1a72298b99059c08526778f89b2eb55a3c603247eb043",
    "rising": "642140e728d959d7a319ea590901ebfa13d63bc59077c236017c08c24ce1f588",
    "random": "14f07338dc75c94881c483ba56ef6a4c23f106d367841fd4d08d0d8a2b5329fe",
    "toy": "15f74a83a1c4eba3147a072ce3963d39efdfacb4f0faf29776e01121a9850bd1",
}


# Each id keeps the "-greedy" suffix it had when a second acceptance rule
# existed, so a case's id names the same digest across versions.
@pytest.mark.parametrize(
    "backend_name", sorted(DECODE_GOLDEN), ids=lambda name: f"{name}-greedy"
)
def test_decode_records_match_golden(backend_name):
    count = 8 if backend_name == "toy" else 18
    assert _digest(_group_records(backend_name, count)) == DECODE_GOLDEN[backend_name]


@pytest.mark.parametrize("backend_name", ["toy", "random"])
def test_one_exit_speculative_decode_is_vanilla(backend_name):
    # Vanilla decoding is the 1-exit case: one draft committed unverified,
    # at full depth and at an early exit, with and without eos. With eos it
    # is the eos-free decode cut just after the first eos.
    backend = _backend(backend_name)
    n = backend.n_layers
    for prompt, budget, draft, _, _, _, eos_mode, rng in _cases(backend, seed=5, count=6):
        eos = None if eos_mode == "none" else rng.randrange(backend.vocab_size)
        full = speculative_decode(backend, prompt, (n,), (), budget)
        assert decode_record(full) == decode_record(vanilla_decode(backend, prompt, budget))
        for layer in (n, draft):
            free = speculative_decode(backend, prompt, (layer,), (), budget).tokens
            got = speculative_decode(backend, prompt, (layer,), (), budget, eos)
            assert got.tokens == (free[: free.index(eos) + 1] if eos in free else free)
            assert [type(e).__name__ for e in got.trace.events] == ["DraftStep", "Commit"]
            assert got.trace.finalize_processed == ()


REPORT_CONFIGS = {
    "synthetic": {
        "seed": 4,
        "backend": {"type": "synthetic", "preset": "quarter-depth-69", "n_layers": 16},
        "prompts": {"count": 5, "min_len": 2, "max_len": 7},
        "decode": {"max_new_tokens": 12},
        "strategies": [
            {"name": "selfspec", "draft_layer": [1, 3], "draft_len": [1, 3]},
            {"name": "hierarchical", "draft_layer": [1, 2], "intermediate_layer": [4, 8]},
        ],
    },
    "toy": {
        "seed": 6,
        "backend": {
            "type": "toy", "n_layers": 6, "d_model": 16, "n_heads": 2,
            "vocab_size": 16, "max_seq_len": 32,
        },
        "prompts": {"count": 3, "min_len": 2, "max_len": 5},
        "decode": {"max_new_tokens": 8},
        "strategies": [{"name": "selfspec", "draft_layer": [2]}, {"name": "hierarchical"}],
    },
    "profile-text": {
        "seed": 8,
        "backend": {
            "type": "synthetic", "n_layers": 8, "vocab_size": 32, "context_window": 2,
            "max_seq_len": 64,
            "profile": {
                "1": 0.2, "2": 0.35, "3": 0.5, "4": 0.6, "5": 0.7, "6": 0.8, "7": 0.9, "8": 1.0,
            },
        },
        "prompts": {"text_path": "prompts.txt", "max_len": 6},
        "decode": {"max_new_tokens": 10},
        "strategies": [
            {"name": "selfspec", "draft_layer": [1, 3]},
            {"name": "hierarchical", "draft_layer": [1, 2], "intermediate_layer": [4, 6]},
        ],
    },
    # Every defaultable field unset: 50 random prompts, 32 new tokens, the
    # hierarchical default placement and the preset's own depth.
    "defaults": {"backend": {"type": "synthetic", "preset": "quarter-depth-69"}},
}

# The file the profile-text config's prompts name, beside the config.
PROMPT_TEXT = "the quick brown fox\njumps over\n\n  \nthe lazy dog\nspeculative decoding\n"

COMMANDS = {
    "compare": (["compare"], ["compare"]),
    "sweep": (["sweep", "--matrix"], ["sweep", "matrix"]),
    "ablate": (["ablate", "--parameter", "N_d", "--values", "1,3"], ["ablate_N_d"]),
}

REPORT_GOLDEN = {
    ("synthetic", "compare"):
        "8d10c76f5453d4265a26c0ccfed4d7d05bb4248696ee839e92645eda26b65ff3",
    ("synthetic", "sweep"):
        "3b969ba48da3e916f46222601d36bcf89c495c36b91c4c3d2e000ee85bad2688",
    ("synthetic", "ablate"):
        "90aa783f578ff897517526d1932bb063eeaf405776d9f9254f5cdd40c8dc4c23",
    ("toy", "compare"):
        "f3cf33ca1418e76c8ff1223b7622b93a154e68b9b20d549f1694852ab7c4620d",
    ("toy", "sweep"):
        "edc491e20fea0b2d241c4d0bba8a81ad94fd1202a857e57684639a436718f7db",
    ("toy", "ablate"):
        "22e79d1b55bd76e992a5f221538fbbe8285bba8158b6bde11682c3d6f2becf20",
    ("profile-text", "compare"):
        "9ae8840ec03430f07b231f34b44d85cb81898cd8e48047aa6f2bdfb6782d8845",
    ("profile-text", "sweep"):
        "707d37d3a8abc5fd3d1e221f13abe543e0b4a5b5af7f77b656392c3c0bd4e979",
    ("profile-text", "ablate"):
        "7c47699817d52d03322467326cc7b99b8fc4227e7dc6866a66c1d144983834d4",
    ("defaults", "compare"):
        "710bf16d4fc6c66efa6a56daa8efa7d2cc01d1b0facdda6c469c1b3000120e36",
    ("defaults", "sweep"):
        "e6c779d4b6765dcf531736a11744abc3be0d6343cc9bf523219bc92e1e6f7dd8",
    ("defaults", "ablate"):
        "8f480cb0417f1d5d4a6e10b6610bfb471787f402e92a1717f57e76b754fad457",
}


@pytest.mark.parametrize("config_name, command", sorted(REPORT_GOLDEN))
def test_report_bytes_match_golden(tmp_path, monkeypatch, config_name, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prompts.txt").write_text(PROMPT_TEXT, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(REPORT_CONFIGS[config_name]), encoding="utf-8")
    args, stems = COMMANDS[command]
    by_jobs = {}
    for jobs in (1, 2):
        blobs = []
        for fmt in ("csv", "jsonl"):
            out = tmp_path / f"{fmt}-{jobs}"
            argv = args + ["--config", str(config_path), "--out", str(out), "--format", fmt]
            assert main(argv + ["--jobs", str(jobs)]) == 0
            for stem in stems:
                name = "matrix.txt" if stem == "matrix" else f"{stem}.{fmt}"
                blobs.append((out / name).read_text(encoding="utf-8"))
        by_jobs[jobs] = blobs
    assert by_jobs[1] == by_jobs[2]
    assert _digest(by_jobs[1]) == REPORT_GOLDEN[(config_name, command)]
