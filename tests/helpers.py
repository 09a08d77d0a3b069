"""Shared test helpers: random exact tensors, sympy conversions and refusal checks."""

import re

import pytest
import sympy

from spinorkit.exactfield import Scalar
from spinorkit.prng import SplitMix64
from spinorkit.spintensor import EpsilonStructure
from spinorkit.suites import random_mink, random_spin_frame  # noqa: F401

SY_R2 = sympy.sqrt(2)


def scalar_to_sympy(z: Scalar):
    return (
        sympy.Rational(z.a)
        + sympy.Rational(z.b) * sympy.I
        + sympy.Rational(z.c) * SY_R2
        + sympy.Rational(z.d) * sympy.I * SY_R2
    )


def endw_to_sympy(m):
    return sympy.Matrix(4, 4, lambda i, j: scalar_to_sympy(m.rows[i][j]))


def spin_frame(rng: SplitMix64, eps: EpsilonStructure = None):
    """Random basis of U with eps(b1, b2) = 1 exactly."""
    return random_spin_frame(rng, eps or EpsilonStructure())


def assert_refuses(call, error, message):
    """`call()` raises exactly `error` with exactly `message`."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


def refusal_ids(rows):
    return [message for _, _, message in rows]
