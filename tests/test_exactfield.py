"""Field arithmetic in Q(i, sqrt2), checked against a sympy oracle and a four-Fraction reference."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorkit.dsl import DslError, Environment, Parser, tokenize
from spinorkit.exactfield import ExactError, Scalar, _accumulate, _dot, format_scalar
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.suites import random_poly

R2 = sympy.sqrt(2)


def parse_scalar(text: str) -> Scalar:
    """Scalar text read by the DSL, the package's one reader of it."""
    parser = Parser(tokenize(text), Environment())
    value = parser.parse_expr()
    parser.expect_eof()
    assert type(value) is Scalar
    return value


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
    for bad in ["", "1+", "1//2", "x"]:
        with pytest.raises(DslError):
            parse_scalar(bad)



def test_constructor_accepts_only_exact_rationals():
    assert Scalar(3, Fraction(1, 2), True, 0) == Scalar(3, Fraction(1, 2), 1)
    for bad in (0.1, "1/3", Decimal("0.5"), None, sympy.Rational(1, 3), 1j):
        with pytest.raises(ExactError):
            Scalar(bad)
        with pytest.raises(ExactError):
            Scalar(1, 0, 0, bad)
        with pytest.raises(ExactError):
            Scalar.coerce(bad)
        with pytest.raises(ExactError):
            Scalar.one() * bad


# -- the integer representation against a reference of four Fractions ----------
#
# Ref is (a, b, c, d) with z = a + b*i + c*sqrt2 + d*i*sqrt2, every coordinate a
# Fraction of its own; its operations are the textbook formulas.


def ref(z: Scalar):
    a, b, c, d, den = z.ints
    return tuple(Fraction(x, den) for x in (a, b, c, d))


def ref_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 + 2 * c1 * d2 + 2 * d1 * c2,
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def ref_sign(a: Fraction, c: Fraction) -> int:
    """Sign of a + c*sqrt2: the sign of the term with the larger magnitude."""
    if a * a > 2 * c * c:
        return (a > 0) - (a < 0)
    if a * a < 2 * c * c:
        return (c > 0) - (c < 0)
    return 0  # a^2 = 2 c^2 has no rational solution but a = c = 0


ONE_REF = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def assert_canonical(z: Scalar):
    a, b, c, d, den = z.ints
    assert all(type(x) is int for x in z.ints)
    assert den > 0 and gcd(a, b, c, d, den) == 1
    if not (a or b or c or d):
        assert z.ints == (0, 0, 0, 0, 1)
    assert (z.a, z.b, z.c, z.d) == ref(z)


# coordinates from tiny to grown: numerators up to 2^200, denominators up to 2^160
big_fraction = st.one_of(
    small_fraction,
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**160)),
    st.just(Fraction(0)),
)
big_scalars = st.builds(Scalar, big_fraction, big_fraction, big_fraction, big_fraction)
# p - q*sqrt2 = (1 - sqrt2)^n has p^2 - 2 q^2 = +-1: near-ties of the sign test
pell_scalars = st.builds(
    lambda n, k: Scalar(1, 0, -1) ** n * k, st.integers(1, 120), big_fraction.filter(bool)
)
real_scalars = st.one_of(st.builds(lambda a, c: Scalar(a, 0, c, 0), big_fraction, big_fraction), pell_scalars)
rationals = st.one_of(st.integers(-(2**160), 2**160), big_fraction)


@settings(max_examples=200, deadline=None)
@given(x=big_scalars, y=big_scalars)
def test_ring_operations_match_fraction_reference(x, y):
    rx, ry = ref(x), ref(y)
    cases = [
        (x + y, ref_add(rx, ry)),
        (x - y, ref_add(rx, tuple(-q for q in ry))),
        (x * y, ref_mul(rx, ry)),
        (-x, tuple(-p for p in rx)),
        (x.conj(), (rx[0], -rx[1], rx[2], -rx[3])),
        (x.conj_sqrt2(), (rx[0], rx[1], -rx[2], -rx[3])),
        (x - x, (0, 0, 0, 0)),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert ref(got) == want
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    # the same value reached two ways is one canonical form: equal and hash-equal
    again = x + y - y
    assert again == x and hash(again) == hash(x) and again.ints == x.ints


@settings(max_examples=200, deadline=None)
@given(x=big_scalars, n=st.integers(0, 5))
def test_inverse_and_powers_match_fraction_reference(x, n):
    want = ONE_REF
    for _ in range(n):
        want = ref_mul(want, ref(x))
    power = x ** n
    assert_canonical(power)
    assert ref(power) == want
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert_canonical(inv)
    assert ref_mul(ref(inv), ref(x)) == ONE_REF
    assert ref_mul(ref(x ** -n), want) == ONE_REF


@settings(max_examples=200, deadline=None)
@given(z=real_scalars)
def test_real_sign_matches_fraction_reference(z):
    a, _, c, _ = ref(z)
    assert z.real_sign() == ref_sign(a, c)
    assert (-z).real_sign() == -ref_sign(a, c)


@settings(max_examples=200, deadline=None)
@given(z=big_scalars)
def test_text_round_trip_grown(z):
    back = parse_scalar(format_scalar(z))
    assert_canonical(back)
    assert back.ints == z.ints and hash(back) == hash(z)


@settings(max_examples=200, deadline=None)
@given(x=big_scalars, k=rationals)
def test_mixed_rational_operands_on_both_sides(x, k):
    rx, rk = ref(x), (Fraction(k), Fraction(0), Fraction(0), Fraction(0))
    cases = [
        (x + k, ref_add(rx, rk)),
        (k + x, ref_add(rx, rk)),
        (x - k, ref_add(rx, tuple(-q for q in rk))),
        (k - x, ref_add(rk, tuple(-p for p in rx))),
        (x * k, ref_mul(rx, rk)),
        (k * x, ref_mul(rx, rk)),
    ]
    if k:
        cases.append((x / k, ref_mul(rx, (1 / Fraction(k), 0, 0, 0))))
    for got, want in cases:
        assert isinstance(got, Scalar)
        assert_canonical(got)
        assert ref(got) == want
    if not x.is_zero():
        quotient = k / x
        assert_canonical(quotient)
        assert ref_mul(ref(quotient), rx) == rk
    assert (x == k) == (rx == rk) and (k == x) == (rx == rk)
    assert Scalar(k) == k and Scalar.coerce(k).ints == Scalar(k).ints


def test_a_unit_factor_returns_the_other_factor():
    rng = SplitMix64(23)
    one = Scalar.one()
    for _ in range(200):
        x = random_scalar(rng)
        for got in (x * one, one * x, x * 1, 1 * x, x * Fraction(1)):
            assert type(got) is Scalar and got == x and got.ints == x.ints
    # a rational factor times the unit is a Scalar too
    for k in (3, -1, 0, Fraction(-2, 7)):
        for got in (one * k, k * one):
            assert type(got) is Scalar and got.ints == Scalar(k).ints
    assert (one * one).ints == one.ints


# -- the fused dot kernel against the chained * + - ---------------------------------


def chained_dot(triples):
    total = Scalar.zero()
    for sign, x, y in triples:
        total = total + x * y if sign > 0 else total - x * y
    return total


def test_dot_of_no_triples_is_canonical_zero():
    assert _dot([]).ints == (0, 0, 0, 0, 1)
    assert _dot(iter(())).ints == (0, 0, 0, 0, 1)


def test_dot_matches_chained_operations_on_seeded_triples():
    rng = SplitMix64(667)
    for n in range(400):
        triples = [(rng.choice((1, -1)), random_scalar(rng), random_scalar(rng)) for _ in range(n % 7)]
        got = _dot(triples)
        assert_canonical(got)
        assert got.ints == chained_dot(triples).ints


def test_dot_sums_that_cancel_are_canonical_zero():
    rng = SplitMix64(1313)
    for _ in range(100):
        x, y, z = random_scalar(rng), random_scalar(rng), random_scalar(rng)
        for triples in ([(1, x, y), (-1, y, x)], [(1, x + z, y), (-1, x, y), (-1, z, y)]):
            assert _dot(triples).ints == (0, 0, 0, 0, 1)


def test_dot_over_mixed_denominators_and_both_signs():
    half, i_third, r2_fifth = Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 3)), Scalar(0, 0, Fraction(1, 5))
    triples = [(1, half, half), (1, i_third, i_third), (-1, r2_fifth, half)]
    # 1/4 - 1/9 - sqrt2/10
    assert _dot(triples).ints == Scalar(Fraction(5, 36), 0, Fraction(-1, 10)).ints == chained_dot(triples).ints
    big = Scalar(Fraction(2**200 + 1, 3**90), 0, Fraction(-(2**199), 7))
    triples = [(1, big, half), (-1, big, i_third), (1, big, big), (-1, r2_fifth, big)]
    got = _dot(triples)
    assert_canonical(got)
    assert got.ints == chained_dot(triples).ints and max(x.bit_length() for x in got.ints) > 200


@settings(max_examples=100, deadline=None)
@given(triples=st.lists(st.tuples(st.sampled_from((1, -1)), big_scalars, big_scalars), max_size=6))
def test_dot_matches_chained_operations_on_grown_coefficients(triples):
    got = _dot(triples)
    assert_canonical(got)
    assert got.ints == chained_dot(triples).ints


# -- adding an int multiple of a term into a result dict ------------------------------


@pytest.mark.parametrize("k", [-3, -2, -1, 1, 2])
def test_accumulate_adds_an_int_multiple(k):
    rng = SplitMix64(380 + k)
    for _ in range(30):
        x, y = random_scalar(rng), random_scalar(rng)
        p, q = random_poly(rng, 2), random_poly(rng, 2)
        out = {}
        for key, value in (("x", x), ("p", p), ("y", y), ("x", y), ("p", q), ("p", p)):
            _accumulate(out, key, value, k)
        assert out["x"].ints == (x * k + y * k).ints and out["y"].ints == (y * k).ints
        assert out["p"] == p.scaled(k) + q.scaled(k) + p.scaled(k)
        assert not any(c.is_zero() for c in out["p"].terms.values())
        # adding -k times the same terms cancels to the canonical zeros
        for key, value in (("x", x), ("x", y), ("y", y), ("p", p), ("p", q), ("p", p)):
            _accumulate(out, key, value, -k)
        assert out["x"].ints == out["y"].ints == (0, 0, 0, 0, 1) and out["p"].terms == {}


# -- printing from the ints and the rational inverse, against the Fraction forms -------


def reference_format_scalar(z: Scalar) -> str:
    """The printer on the reduced Fraction coordinates a to d."""
    parts = []
    for coeff, tail in ((z.a, ""), (z.b, "i"), (z.c, "r2"), (z.d, "i*r2")):
        if coeff == 0:
            continue
        mag = abs(coeff)
        text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = (tail if mag == 1 else f"{text}*{tail}") if tail else text
        parts.append(("-" if coeff < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(sign + body for sign, body in parts[1:])


def four_product_inverse(z: Scalar) -> Scalar:
    """1 / z through |z|^2 and its sqrt2-conjugate: conj(z) * w / (z * conj(z) * w)."""
    zc = z.conj()
    n1 = z * zc
    w = n1.conj_sqrt2()
    norm, _, _, _, den = (n1 * w).ints
    return zc * w * Scalar(Fraction(den, norm))


# magnitude 1, small fractions, and 300-bit numerators and denominators, of both signs
printed_coordinate = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 7)]),
    small_fraction,
    st.integers(-(2**300), 2**300).map(Fraction),
    st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300)),
)
printed_scalars = st.builds(Scalar, printed_coordinate, printed_coordinate, printed_coordinate, printed_coordinate)


def test_format_scalar_examples():
    cases = {
        Scalar(0): "0",
        Scalar(-1): "-1",
        Scalar(0, -1): "-i",
        Scalar(0, 0, 1, -1): "r2-i*r2",
        Scalar(-1, 1, -1, 1): "-1+i-r2+i*r2",
        Scalar(Fraction(-3, 2), 0, 0, Fraction(1, 2)): "-3/2+1/2*i*r2",
        Scalar(Fraction(2, 6), Fraction(-5, 3)): "1/3-5/3*i",
        Scalar(0, 0, Fraction(-(2**300), 3)): f"-{2**300}/3*r2",
    }
    for z, text in cases.items():
        assert format_scalar(z) == reference_format_scalar(z) == text


@settings(max_examples=300, deadline=None)
@given(z=printed_scalars)
def test_format_scalar_matches_fraction_printer(z):
    assert format_scalar(z) == reference_format_scalar(z)


@settings(max_examples=200, deadline=None)
@given(q=printed_coordinate)
def test_rational_inverse_matches_four_product_formula(q):
    z = Scalar(q)
    if not q:
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        return
    for x in (z, -z):
        inv = x.inverse()
        assert_canonical(inv)
        assert inv.ints == four_product_inverse(x).ints
        assert ref(inv) == (1 / ref(x)[0], 0, 0, 0)
