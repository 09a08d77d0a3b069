"""Deterministic counter-based pseudorandom generator for the property suites.

SplitMix64: a 64-bit counter advanced by a fixed odd constant, with a bijective
output mix.  The stream is a pure function of the seed, independent of Python's
hash randomization, so suite reports are byte-identical across runs and
platforms.  Random scalars keep numerators and denominators in [-9, 9] to bound
coefficient blow-up in exact computations.

A draw advances the counter and mixes it in one Python frame: ``randint``
inlines ``next_u64``, so the stream of words, and every draw, is the same.
``random_scalar`` builds its Scalar straight from the drawn ints, reduced
once, with no ``Fraction`` in between.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import Scalar, _reduced

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


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
    """Seeded deterministic stream of 64-bit words and derived small values."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive; deterministic."""
        if hi < lo:
            raise ValueError("empty range")
        # next_u64 and _mix, inlined
        z = self._state = (self._state + _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

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

