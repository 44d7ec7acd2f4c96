"""Prompt corpora: seeded random token sequences and a byte-level text shim.

Random prompts are numpy's `default_rng(seed).integers` stream, computed
in pure Python by `Pcg64Stream`, so every corpus, report and golden digest
keeps the bytes numpy gave it, while a synthetic run never imports numpy:
only the toy transformer's tensors need it.
"""
from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _seed_state(seed: int) -> list[int]:
    """`numpy.random.SeedSequence(seed).generate_state(4, np.uint64)` of a seed
    below 2**128: its little-endian 32-bit words hashed into a pool of 4, then drawn out."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64Stream:
    """The draws of `numpy.random.default_rng(seed)` (PCG64 with XSL-RR output,
    seeded through `SeedSequence`) in pure Python, draw for draw."""

    def __init__(self, seed: int) -> None:
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {seed}")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = inc = (i0 << 64 | i1) << 1 & _M128 | 1
        # srandom: step from state 0, add the seed, step again
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
        self._half: int | None = None  # the high half of a 64-bit draw, buffered by next32

    def next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self.next64()
        self._half = value >> 32
        return value & _M32

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """`Generator.integers(low, high, size)` of int64: Lemire's bounded
        draws, on 32-bit draws when the range fits them, with no draw for one value."""
        if not -(2**63) <= low < high <= 2**63:
            raise ValueError(f"[{low}, {high}) is not a non-empty int64 range")
        span = high - low
        if span == 1:
            return [low] * size
        bits, draw = (32, self.next32) if span <= 2**32 else (64, self.next64)
        mask, threshold = (1 << bits) - 1, (1 << bits) % span
        out = []
        for _ in range(size):
            scaled = draw() * span
            while scaled & mask < threshold:
                scaled = draw() * span
            out.append(low + (scaled >> bits))
        return out


def random_prompts(
    count: int,
    vocab_size: int,
    min_len: int,
    max_len: int,
    seed: int,
    max_seq_len: int,
) -> list[list[int]]:
    """Deterministic prompt set; same arguments always produce the same corpus.

    A drawn length beyond the model's `max_seq_len` is an error before that
    prompt's tokens are drawn, so an oversized `max_len` fails at once.
    """
    if count < 1:
        raise ConfigError("prompt count must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ConfigError("need 1 <= min_len <= max_len")
    rng = Pcg64Stream(seed)
    prompts = []
    for _ in range(count):
        [length] = rng.integers(min_len, max_len + 1, 1)
        if length > max_seq_len:
            raise ConfigError(
                f"prompts.max_len {max_len} drew a prompt of {length} tokens, "
                f"beyond backend.max_seq_len {max_seq_len}"
            )
        prompts.append(rng.integers(0, vocab_size, length))
    return prompts


def byte_tokenize(text: str, vocab_size: int) -> list[int]:
    """Byte-level tokens folded into the vocabulary."""
    data = text.encode("utf-8")
    if not data:
        raise ConfigError("cannot tokenize empty text")
    return [b % vocab_size for b in data]


def prompts_from_text(path: str | Path, vocab_size: int, max_len: int) -> list[list[int]]:
    """One prompt per non-empty line, byte-tokenized and truncated to max_len."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    prompts = [byte_tokenize(line, vocab_size)[:max_len] for line in lines if line.strip()]
    if not prompts:
        raise ConfigError(f"no usable lines in {path}")
    return prompts
