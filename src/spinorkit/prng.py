"""Deterministic counter-based pseudorandom generator for the property suites.

SplitMix64: a 64-bit counter advanced by a fixed odd constant, with a bijective
output mix.  The stream is a pure function of the seed, independent of Python's
hash randomization, so suite reports are byte-identical across runs and
platforms.  Random scalars keep numerators and denominators in [-9, 9] to bound
coefficient blow-up in exact computations.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import Scalar

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
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self) -> Fraction:
        """Rational with numerator in [-9, 9] and denominator in [1, 9]."""
        return Fraction(self.randint(-9, 9), self.randint(1, 9))


def stream_for(seed: int, label: str) -> SplitMix64:
    """The canonical substream a suite named `label` draws from."""
    return SplitMix64(_mix((seed & _MASK) ^ _fnv1a(label)))


def random_scalar(rng: SplitMix64) -> Scalar:
    """Random field element; each coordinate is zero half the time."""
    coords = []
    for _ in range(4):
        if rng.randint(0, 1):
            coords.append(Fraction(0))
        else:
            coords.append(rng.fraction())
    return Scalar(*coords)

