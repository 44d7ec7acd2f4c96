import numpy as np
import pytest

from specdec.errors import ConfigError
from specdec.prompts import Pcg64Stream, byte_tokenize, prompts_from_text, random_prompts

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1]
# Ranges on the 32-bit Lemire path (3 * 2**30 redraws a quarter of its draws; 2**32 is
# the full 32-bit range) and on the 64-bit path (3 * 2**61 redraws; 2**63 is int64's top).
VOCABS = [4, 256, 3 * 2**30, 2**32, 2**32 + 1, 3 * 2**61, 2**63]


def assert_same_state(stream: Pcg64Stream, numpy_rng: np.random.Generator) -> None:
    """The PCG64 state and the buffered high half of a 64-bit draw are numpy's."""
    state = numpy_rng.bit_generator.state
    assert (stream._state, stream._inc) == (state["state"]["state"], state["state"]["inc"])
    assert stream._half == (state["uinteger"] if state["has_uint32"] else None)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_numpy_draw_for_draw(seed):
    numpy_rng, stream = np.random.default_rng(seed), Pcg64Stream(seed)
    assert_same_state(stream, numpy_rng)
    for vocab in VOCABS:
        # (5, 6) holds one value, for which numpy makes no draw.
        for low, high in ((3, 10), (5, 6)):
            assert stream.integers(low, high, 1) == [int(numpy_rng.integers(low, high))]
            assert_same_state(stream, numpy_rng)
            # An odd count leaves a high half buffered for the next 32-bit draw.
            drawn = numpy_rng.integers(0, vocab, size=17).tolist()
            assert stream.integers(0, vocab, 17) == drawn
            assert_same_state(stream, numpy_rng)


@pytest.mark.parametrize("vocab, bits", [(3 * 2**30, 32), (3 * 2**61, 64)])
def test_stream_redraws_biased_draws(vocab, bits):
    stream, calls = Pcg64Stream(0), []
    draw = getattr(stream, f"next{bits}")
    setattr(stream, f"next{bits}", lambda: calls.append(1) or draw())
    assert len(stream.integers(0, vocab, 64)) == 64
    assert len(calls) > 64


def test_random_prompts_equal_numpy_corpus():
    corpus = random_prompts(6, vocab_size=1000, min_len=2, max_len=30, seed=11, max_seq_len=30)
    rng = np.random.default_rng(11)
    expected = []
    for _ in range(6):
        length = int(rng.integers(2, 31))
        expected.append(rng.integers(0, 1000, size=length).tolist())
    assert corpus == expected


def test_random_prompts_stop_at_a_length_beyond_max_seq_len():
    message = "prompts.max_len 10000000000000 drew a prompt of 6369616873215 tokens"
    with pytest.raises(ConfigError, match=f"^{message}"):
        random_prompts(2, 64, 1, 10**13, seed=0, max_seq_len=4096)


def test_stream_rejects_what_numpy_rejects():
    for seed in (-1, 2**128):  # numpy takes larger seeds; the config stops below 2**64
        with pytest.raises(ValueError):
            Pcg64Stream(seed)
    for low, high in ((0, 2**63 + 1), (-(2**63) - 1, 0), (4, 4)):
        with pytest.raises(ValueError):
            Pcg64Stream(0).integers(low, high, 1)


def test_random_prompts_deterministic():
    a = random_prompts(20, vocab_size=64, min_len=3, max_len=9, seed=5, max_seq_len=9)
    b = random_prompts(20, vocab_size=64, min_len=3, max_len=9, seed=5, max_seq_len=9)
    assert a == b
    assert all(3 <= len(p) <= 9 for p in a)
    assert all(0 <= t < 64 for p in a for t in p)


def test_random_prompts_vary_with_seed():
    assert random_prompts(5, 64, 4, 4, 1, 4) != random_prompts(5, 64, 4, 4, 2, 4)


@pytest.mark.parametrize(
    "count, min_len, max_len, message",
    [(0, 3, 9, "prompt count must be >= 1"), (5, 9, 3, "need 1 <= min_len <= max_len")],
    ids=["no-prompts", "min-above-max"],
)
def test_random_prompts_reject_bad_sizes(count, min_len, max_len, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        random_prompts(count, 64, min_len, max_len, seed=0, max_seq_len=9)


def test_byte_tokenize_folds_into_vocab():
    tokens = byte_tokenize("hi", vocab_size=16)
    assert tokens == [ord("h") % 16, ord("i") % 16]
    with pytest.raises(ConfigError):
        byte_tokenize("", vocab_size=16)


def test_prompts_from_text(tmp_path):
    path = tmp_path / "prompts.txt"
    path.write_text("hello world\n\nsecond line\n", encoding="utf-8")
    prompts = prompts_from_text(path, vocab_size=256, max_len=5)
    assert len(prompts) == 2
    assert prompts[0] == [ord(c) for c in "hello"]
