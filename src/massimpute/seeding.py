"""The seed words of many ``SeedSequence`` streams in one pass.

``seed_words(seed, ks, tag, attempt)`` gives, for every k, the four 64-bit
words that ``np.random.SeedSequence([seed, k, tag, attempt])`` gives as
``generate_state(4, uint64)``, the words from which PCG64 seeds itself.
NumPy's stream-compatibility policy fixes the algorithm re-implemented here:
how ``SeedSequence`` mixes a list of integers into its pool of four 32-bit
words and draws those words from it.

The hash constants are one fixed sequence whatever the entropy, so each hash
step is one array operation over all k.  Words are kept in int64 arrays
below 2^32.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` makes of an integer."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mul(x, c: int):
    """x * c mod 2^32 for x and c below 2^32, x an int or an int64 array: an
    array's product wraps modulo 2^64, which keeps its low 32 bits."""
    return (x * c) & _MASK32


def _mix(x, y):
    z = (_mul(x, _MIX_MULT_L) - _mul(y, _MIX_MULT_R)) & _MASK32
    return z ^ (z >> 16)


class _HashMix:
    """``SeedSequence``'s hashmix with its running multiplier."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * _MULT_A) & _MASK32
        value = _mul(value, self.const)
        return value ^ (value >> 16)


def seed_words(seed: int, ks, tag: int, attempt: int = 0) -> np.ndarray:
    """The len(ks) x 4 native-endian uint64 array whose row j is
    ``SeedSequence([seed, ks[j], tag, attempt]).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and (ks.min() < 0 or ks.max() > _MASK32):
        # a k of 2^32 or more is two entropy words, not the one assumed here
        raise ValidationError("replicate index must lie in [0, 2^32)")
    entropy = [*_words(int(seed)), ks, *_words(int(tag)), *_words(int(attempt))]

    hashmix = _HashMix()
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # read in pairs as little-endian 64-bit words
    out = []
    const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = _mul(value, const)
        out.append(value ^ (value >> 16))
    return np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64, copy=False)
