"""Field arithmetic in Q(i, sqrt2), checked against a sympy oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorkit.exactfield import Scalar, format_scalar, parse_scalar

R2 = sympy.sqrt(2)


def to_sympy(z: Scalar):
    return (
        sympy.Rational(z.a) + sympy.Rational(z.b) * sympy.I
        + sympy.Rational(z.c) * R2 + sympy.Rational(z.d) * sympy.I * R2
    )


def from_sympy(expr) -> Scalar:
    expr = sympy.expand(expr)
    d = expr.coeff(sympy.I * R2)
    rest = sympy.expand(expr - d * sympy.I * R2)
    b = rest.coeff(sympy.I)
    rest = sympy.expand(rest - b * sympy.I)
    c = rest.coeff(R2)
    a = sympy.expand(rest - c * R2)
    return Scalar(Fraction(str(a)), Fraction(str(b)), Fraction(str(c)), Fraction(str(d)))


small_fraction = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)
scalars = st.builds(Scalar, small_fraction, small_fraction, small_fraction, small_fraction)


def test_conjugation_examples():
    one_plus_i = Scalar(1, 1)
    assert one_plus_i.conj() == Scalar(1, -1)
    assert Scalar.sqrt2().conj() == Scalar.sqrt2()
    # (1+i)(1-i) = 2, expanded by hand in the basis {1, i, r2, i*r2}
    assert one_plus_i * one_plus_i.conj() == Scalar(2)
    assert (one_plus_i * one_plus_i.conj()).conj() == one_plus_i.conj() * one_plus_i


def test_conj_is_involutive_and_multiplicative():
    x = Scalar(2, -3, Fraction(1, 2), 5)
    y = Scalar(-1, 4, 0, Fraction(7, 3))
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


@settings(max_examples=25)
@given(x=scalars, y=scalars)
def test_multiplication_matches_sympy(x, y):
    assert to_sympy(x * y).expand() == (to_sympy(x) * to_sympy(y)).expand()


@given(x=scalars, y=scalars, z=scalars)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(x=scalars)
def test_field_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == Scalar.one()


@settings(max_examples=25)
@given(x=scalars)
def test_inverse_matches_sympy(x):
    if not x.is_zero():
        product = to_sympy(x.inverse()) * to_sympy(x)
        assert sympy.expand(product - 1) == 0


def test_field_axioms_bulk():
    # 10^4 random scalars: associativity, distributivity, inverses hold exactly.
    from spinorkit.prng import SplitMix64, random_scalar

    rng = SplitMix64(20240817)
    for _ in range(2500):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).conj() == x.conj() * y.conj()
        w = x if not x.is_zero() else x + 1
        assert w * w.inverse() == Scalar.one()


def test_real_sign_exact():
    assert Scalar(0).real_sign() == 0
    assert Scalar(3, 0, -2, 0).real_sign() == 1  # 3 - 2*sqrt2 = 0.17...
    assert Scalar(4, 0, -3, 0).real_sign() == -1  # 4 - 3*sqrt2 < 0
    assert Scalar(-1, 0, 1, 0).real_sign() == 1  # sqrt2 - 1 > 0
    assert Scalar(-4, 0, 2, 0).real_sign() == -1  # 2*sqrt2 - 4 < 0
    assert Scalar(-3, 0, 4, 0).real_sign() == 1
    with pytest.raises(ValueError):
        Scalar(0, 1).real_sign()


def test_text_round_trip_examples():
    cases = [
        Scalar(0),
        Scalar(1),
        Scalar(-1),
        Scalar(Fraction(3, 2), Fraction(-1, 7), 0, 1),
        Scalar(0, 1),
        Scalar(0, 0, -1),
        Scalar(0, 0, 0, Fraction(2, 3)),
        Scalar(-2, -3, -4, -5),
    ]
    for z in cases:
        assert parse_scalar(format_scalar(z)) == z


@given(z=scalars)
def test_text_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


def test_parse_accepts_loose_forms():
    assert parse_scalar("1+i") == Scalar(1, 1)
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("r2") == Scalar(0, 0, 1)
    assert parse_scalar("2/4") == Scalar(Fraction(1, 2))
    assert parse_scalar("3*i*r2") == Scalar(0, 0, 0, 3)
    assert parse_scalar(" 1 - 3/2*i ") == Scalar(1, Fraction(-3, 2))


def test_parse_rejects_garbage():
    for bad in ["", "1+", "i*i", "r2*r2", "1//2", "x"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)

