import pytest

from specdec.errors import ConfigError
from specdec.prompts import byte_tokenize, prompts_from_text, random_prompts


def test_random_prompts_deterministic():
    a = random_prompts(20, vocab_size=64, min_len=3, max_len=9, seed=5)
    b = random_prompts(20, vocab_size=64, min_len=3, max_len=9, seed=5)
    assert a == b
    assert all(3 <= len(p) <= 9 for p in a)
    assert all(0 <= t < 64 for p in a for t in p)


def test_random_prompts_vary_with_seed():
    assert random_prompts(5, 64, 4, 4, seed=1) != random_prompts(5, 64, 4, 4, seed=2)


@pytest.mark.parametrize(
    "count, min_len, max_len, message",
    [(0, 3, 9, "prompt count must be >= 1"), (5, 9, 3, "need 1 <= min_len <= max_len")],
    ids=["no-prompts", "min-above-max"],
)
def test_random_prompts_reject_bad_sizes(count, min_len, max_len, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        random_prompts(count, 64, min_len, max_len, seed=0)


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
