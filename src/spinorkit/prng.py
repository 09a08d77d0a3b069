"""Deterministic counter-based pseudorandom generator for the property suites.

SplitMix64: a 64-bit counter advanced by a fixed odd constant, with a bijective
output mix.  The stream is a pure function of the seed, independent of Python's
hash randomization, so suite reports are byte-identical across runs and
platforms.  Random scalars keep numerators and denominators in [-9, 9] to bound
coefficient blow-up in exact computations.

Word k of the stream is ``_mix(seed + k * GAMMA mod 2**64)``, so words can be
computed ahead of the draws that take them.  ``SplitMix64`` computes the next
``_LANES`` words in one pass over one Python int: each word gets a 128-bit
lane, a 64 x 64-bit product fits its lane, and masking with ``_LOW`` after each
step clears what a shift or a product leaves above bit 64.  The words are then
handed out one at a time, in counter order, so every draw is the one that a
word-at-a-time generator makes.  ``random_scalar`` builds its Scalar straight
from the drawn ints, reduced once, with no ``Fraction`` in between.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .exactfield import Scalar, _reduced

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_LANES = 32
_ONES = sum(1 << 128 * j for j in range(_LANES))  # 1 in every lane
_LOW = _MASK * _ONES  # the low 64 bits of every lane
_STEPS = sum(((j + 1) * _GAMMA & _MASK) << 128 * j for j in range(_LANES))  # (j + 1) * GAMMA in lane j
_UNPACK = struct.Struct("<" + "Q8x" * _LANES).unpack  # the low 8 of each lane's 16 bytes


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _fnv1a(data: str) -> int:
    h = 0xCBF29CE484222325
    for byte in data.encode("utf8"):
        h = (h ^ byte) * 0x100000001B3 & _MASK
    return h


class SplitMix64:
    """Seeded deterministic stream of 64-bit words and derived small values.

    ``_words`` holds the words of the current block not yet drawn, the next one
    last; ``_state`` is the counter of the last word computed.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._words = []

    def _next_block(self) -> list:
        """The next _LANES words, computed together (see the module docstring)."""
        state = self._state
        self._state = (state + _LANES * _GAMMA) & _MASK
        z = (state * _ONES + _STEPS) & _LOW
        z = (z ^ (z >> 30)) & _LOW
        z = z * 0xBF58476D1CE4E5B9 & _LOW
        z = (z ^ (z >> 27)) & _LOW
        z = z * 0x94D049BB133111EB & _LOW
        # the last shift's spill into bits 64-127 is skipped by the unpacking
        words = self._words = list(_UNPACK((z ^ (z >> 31)).to_bytes(16 * _LANES, "little")))
        words.reverse()
        return words

    def next_u64(self) -> int:
        return (self._words or self._next_block()).pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive; deterministic."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + (self._words or self._next_block()).pop() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self) -> Fraction:
        """Rational with numerator in [-9, 9] and denominator in [1, 9]."""
        return Fraction(self.randint(-9, 9), self.randint(1, 9))


def stream_for(seed: int, label: str) -> SplitMix64:
    """The canonical substream a suite named `label` draws from."""
    return SplitMix64(_mix((seed & _MASK) ^ _fnv1a(label)))


def random_scalar(rng: SplitMix64) -> Scalar:
    """Random field element; each coordinate is zero half the time, else randint(-9, 9) / randint(1, 9)."""
    randint = rng.randint
    draws = []
    for _ in range(4):
        draws += (0, 1) if randint(0, 1) else (randint(-9, 9), randint(1, 9))
    a, p, b, q, c, r, d, s = draws
    return _reduced(a * q * r * s, b * p * r * s, c * p * q * s, d * p * q * r, p * q * r * s)

