"""Cyclotomic integer arithmetic and the relative norm equation solver."""

import hashlib
import itertools
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import sqrt_mod
from sympy.ntheory.primetest import is_strong_lucas_prp

from spinorkit.dsl import eval_program
from spinorkit.exactfield import Scalar
from spinorkit.normsolve import (
    PRIME_CACHE_SIZE,
    FactorBudgetError,
    _is_prime,
    _lift_prime,
    _normalize_totally_positive,
    _prime_factors,
    _sqrt2_primes_above,
    _sqrt_mod,
    _strong_lucas_prp,
    _strong_prp,
    _unit_sqrt,
    s2_divmod,
    s2_mul,
    s2_norm,
    s2_totally_positive,
    solve_norm,
    solve_norm_s2,
    z8_abs_norm,
    z8_conj,
    z8_divmod,
    z8_from_s2,
    z8_gcd,
    z8_is_zero,
    z8_mul,
    z8_relative_norm,
    z8_sub,
    z8_to_scalar,
)
from spinorkit.prng import SplitMix64, random_scalar


def random_z8(rng, bound=9):
    return tuple(rng.randint(-bound, bound) for _ in range(4))


def test_z8_ring_laws():
    rng = SplitMix64(1)
    for _ in range(300):
        a, b, c = (random_z8(rng) for _ in range(3))
        assert z8_mul(a, z8_mul(b, c)) == z8_mul(z8_mul(a, b), c)
        assert z8_mul(a, b) == z8_mul(b, a)
        assert z8_conj(z8_conj(a)) == a
        assert z8_conj(z8_mul(a, b)) == z8_mul(z8_conj(a), z8_conj(b))
        # absolute norm is multiplicative
        assert z8_abs_norm(z8_mul(a, b)) == z8_abs_norm(a) * z8_abs_norm(b)


def test_z8_division_is_euclidean():
    rng = SplitMix64(2)
    for _ in range(200):
        a = random_z8(rng)
        b = random_z8(rng, 5)
        if z8_is_zero(b):
            continue
        q, r = z8_divmod(a, b)
        assert z8_sub(a, z8_mul(q, b)) == r
        assert abs(z8_abs_norm(r)) < abs(z8_abs_norm(b))


def test_z8_gcd_divides_both():
    rng = SplitMix64(3)
    for _ in range(60):
        g0 = random_z8(rng, 3)
        a = z8_mul(g0, random_z8(rng, 3))
        b = z8_mul(g0, random_z8(rng, 3))
        if z8_is_zero(a) and z8_is_zero(b):
            continue
        g = z8_gcd(a, b)
        for x in (a, b):
            _, r = z8_divmod(x, g)
            assert z8_is_zero(r)
        # g0 divides the gcd
        _, r = z8_divmod(g, g0) if not z8_is_zero(g0) else (None, (0, 0, 0, 0))
        assert z8_is_zero(r)


def _reference_round(x: Fraction) -> int:
    return (x + Fraction(1, 2)).__floor__()


def _reference_z8_mul(a, b):
    """The loop-based product of Z[zeta8], independent of z8_mul."""
    out = [0, 0, 0, 0]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < 4:
                out[i + j] += ai * bj
            else:
                out[i + j - 4] -= ai * bj  # z^4 = -1
    return tuple(out)


def _reference_relative_norm(a):
    """a * conj(a) through the loop-based product, checked to lie in Z[sqrt2]."""
    n = _reference_z8_mul(a, (a[0], -a[3], -a[2], -a[1]))
    assert n[2] == 0 and n[1] == -n[3]
    return (n[0], n[1])


def _reference_abs_norm(a):
    p, q = _reference_relative_norm(a)
    return p * p - 2 * q * q


def _reference_z8_divmod(a, b):
    """Euclidean division as it stood with Fraction rounding and a loop-based product."""
    nb = _reference_abs_norm(b)
    bc, bg = (b[0], -b[3], -b[2], -b[1]), (b[0], -b[1], b[2], -b[3])
    bgc = (bg[0], -bg[3], -bg[2], -bg[1])
    num = _reference_z8_mul(a, _reference_z8_mul(bc, _reference_z8_mul(bg, bgc)))
    base = [_reference_round(Fraction(x, nb)) for x in num]
    best = None
    for off in itertools.product((0, -1, 1), repeat=4):
        q = tuple(x + o for x, o in zip(base, off))
        r = tuple(x - y for x, y in zip(a, _reference_z8_mul(q, b)))
        nr = abs(_reference_abs_norm(r))
        if best is None or nr < best[0]:
            best = (nr, q, r)
        if nr == 0:
            break
    return best[1], best[2]


def _reference_s2_divmod(a, b):
    nb = s2_norm(b)
    num = (a[0] * b[0] - 2 * a[1] * b[1], a[1] * b[0] - a[0] * b[1])  # a * conj(b)
    q = (_reference_round(Fraction(num[0], nb)), _reference_round(Fraction(num[1], nb)))
    best = None
    for off in itertools.product((0, -1, 1), repeat=2):
        qq = (q[0] + off[0], q[1] + off[1])
        r = (a[0] - qq[0] * b[0] - 2 * qq[1] * b[1], a[1] - qq[0] * b[1] - qq[1] * b[0])
        nr = abs(s2_norm(r))
        if best is None or nr < best[0]:
            best = (nr, qq, r)
    return best[1], best[2]


def test_z8_products_and_norms_match_the_loop_reference():
    rng = SplitMix64(11)
    for bound in (3, 40, 2**40, 2**200):
        for _ in range(150):
            a, b = random_z8(rng, bound), random_z8(rng, bound)
            assert z8_mul(a, b) == _reference_z8_mul(a, b)
            assert z8_relative_norm(a) == _reference_relative_norm(a)
            assert z8_abs_norm(a) == _reference_abs_norm(a)


def test_divmod_matches_fraction_rounding():
    rng = SplitMix64(12)
    signs = set()
    for bound in (3, 40, 2**40, 2**200):
        for _ in range(150):
            a, b = random_z8(rng, bound), random_z8(rng, bound)
            if not z8_is_zero(b):
                assert z8_divmod(a, b) == _reference_z8_divmod(a, b)
            a2, b2 = random_z8(rng, bound)[:2], random_z8(rng, bound)[2:]
            if s2_norm(b2) != 0:
                signs.add(s2_norm(b2) > 0)
                assert s2_divmod(a2, b2) == _reference_s2_divmod(a2, b2)
    assert signs == {True, False}


# Divisors with many remainders of equal norm: units, and 1 + z, z - z^2 and
# 1 + i of absolute norm 2, 2 and 4.  Exact multiples end the search early.
TIE_DIVISORS = [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 1, -1, 0), (1, 0, 1, 0)]


def test_divmod_tie_breaks_and_exact_quotients_match_the_reference():
    rng = SplitMix64(15)
    for b in TIE_DIVISORS:
        for bound in (1, 3, 2**40):
            for _ in range(40):
                a = random_z8(rng, bound)
                assert z8_divmod(a, b) == _reference_z8_divmod(a, b)
                multiple = _reference_z8_mul(a, b)
                assert z8_divmod(multiple, b) == _reference_z8_divmod(multiple, b)
                assert z8_divmod(multiple, b)[1] == (0, 0, 0, 0)
        for a in itertools.product((0, 1), repeat=4):
            assert z8_divmod(a, b) == _reference_z8_divmod(a, b)


def test_relative_norm_is_totally_positive():
    rng = SplitMix64(4)
    for _ in range(100):
        a = random_z8(rng)
        if z8_is_zero(a):
            continue
        assert s2_totally_positive(z8_relative_norm(a))


def test_solve_norm_round_trip():
    rng = SplitMix64(5)
    solved = 0
    for _ in range(150):
        z = random_scalar(rng)
        if z.is_zero():
            continue
        target = z * z.conj()
        sigma = solve_norm(target)
        assert sigma is not None
        assert sigma * sigma.conj() == target
        solved += 1
    assert solved > 100


def test_solve_norm_rejects_non_norms():
    # totally positive non-norm, negative, and non-totally-positive targets
    assert solve_norm(Scalar(3, 0, 1, 0)) is None
    assert solve_norm(Scalar(7)) is None
    assert solve_norm(Scalar(-2)) is None
    assert solve_norm(Scalar(0, 0, 1, 0)) is None


def test_z8_to_scalar_basis():
    assert z8_to_scalar((1, 0, 0, 0)) == Scalar(1)
    assert z8_to_scalar((0, 0, 1, 0)) == Scalar.i()
    assert z8_to_scalar((0, 1, 0, -1)) == Scalar.sqrt2()
    zeta = z8_to_scalar((0, 1, 0, 0))
    assert zeta * zeta == Scalar.i()


# Strong pseudoprimes to base 2: the first few, the least ones to all prime
# bases up to 7, 23, 37 and 41 (OEIS A014233), and three Chernick numbers
# (6k+1)(12k+1)(18k+1) above 3.3 * 10^24, where the Lucas half of BPSW decides.
BASE2_PSEUDOPRIMES = [
    2047,
    3277,
    4033,
    4681,
    8321,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
    3557725523452902604315321,
    3559006278089817733841401,
    3560180573160531764146441,
]
# primes of 6 to 39 digits, with every odd residue mod 8 among them
BIG_PRIMES = [sympy.nextprime(7 * 10**k) for k in range(5, 39, 3)]
# two ~20-digit primes, both 1 mod 8
P20, Q20 = 30000000000000000041, 700000000000000000177


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**24))
def test_prime_factors_match_sympy(n):
    want = set(sympy.factorint(n))
    try:
        assert _prime_factors(n) == want
    except FactorBudgetError:
        # the budget splits off every prime below 10^9 but the largest
        assert sorted(want)[-2] > 10**9


def test_prime_factors_of_powers_and_pseudoprimes():
    assert _prime_factors(1) == set()
    assert _prime_factors(P20**4 * 1009**2 * 997) == {P20, 1009, 997}
    # the Chernick numbers, each a product of three primes below 10^9
    for n in BASE2_PSEUDOPRIMES[-3:]:
        assert _prime_factors(n) == set(sympy.factorint(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**40))
def test_is_prime_matches_sympy(n):
    assert _is_prime(n) == sympy.isprime(n)


def test_is_prime_rejects_base2_pseudoprimes():
    for n in BASE2_PSEUDOPRIMES:
        assert _strong_prp(n, 2)
        assert not _is_prime(n) and not sympy.isprime(n)
    assert all(_is_prime(p) for p in BIG_PRIMES + [P20, Q20])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**40))
def test_strong_lucas_matches_sympy(n):
    n = 2 * n + 1
    assert _strong_lucas_prp(n) == is_strong_lucas_prp(n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(sympy.primerange(3, 3000)) + BIG_PRIMES), st.integers(0, 10**40))
def test_sqrt_mod_matches_sympy(p, a):
    square = a * a % p
    assert _sqrt_mod(square, p) == sqrt_mod(square, p)


def test_sqrt_mod_rejects_non_squares():
    with pytest.raises(ArithmeticError):
        _sqrt_mod(3, 7)


def _fund_power(k):
    """(1 + sqrt2)^k in Z[sqrt2], for any integer k; (1 + sqrt2)^-1 = sqrt2 - 1."""
    out, base = (1, 0), (1, 1) if k >= 0 else (-1, 1)
    for _ in range(abs(k)):
        out = s2_mul(out, base)
    return out


def test_unit_squares_take_their_positive_root():
    # the leftover unit of the norm equation is (1 + sqrt2)^(2k), and its root
    # is (1 + sqrt2)^k; k = 2049 and 3000 lie beyond the old 4,096-step unit logarithm
    for k in [*range(-40, 41), 2049, 3000]:
        assert solve_norm_s2(_fund_power(2 * k)) == z8_from_s2(_fund_power(k)), k


def test_unit_sqrt_refuses_non_squares():
    # 1 + sqrt2 and 7 + 5*sqrt2 = (1 + sqrt2)^3 have norm -1; -1 is not totally positive
    for u in [(1, 1), (-1, 0), (7, 5)]:
        assert _unit_sqrt(u) is None, u
    assert _unit_sqrt((3, 2)) == (1, 1) and _unit_sqrt((3, -2)) == (-1, 1)


def test_factor_budget_error_is_bounded_and_not_a_verdict():
    # relative norm P20 * Q20: its absolute norm (P20 * Q20)^2 has two
    # 20-digit prime factors, far beyond the rho budget
    start = time.process_time()
    with pytest.raises(FactorBudgetError, match="budget"):
        solve_norm_s2((P20 * Q20, 0))
    assert time.process_time() - start < 1.0
    # one such prime alone is a perfect square of a prime: solved exactly
    x = solve_norm_s2((P20 * P20, 0))
    assert x is not None


# sha256 of repr(solve_norm_s2(t)) over golden_targets(), recorded before the
# closed-form Z[zeta8] arithmetic replaced the loop-based one: it pins the
# exact associate of every solution, which null_decompose prints.
SOLVE_NORM_GOLDEN = "0a378bf01e94abe6fb58c9b8d481cbb9b0daa43809db65706fe6356c7b8d7b25"


def golden_targets():
    """1,000 targets: relative norms of random elements, as null_decompose asks,
    and every fifth an arbitrary element of Z[sqrt2], mostly not a norm."""
    rng = SplitMix64(14)
    targets = []
    for k in range(1000):
        if k % 5 == 4:
            targets.append((rng.randint(-100, 3000), rng.randint(-2000, 2000)))
        else:
            targets.append(_reference_relative_norm(random_z8(rng, (3, 40, 700)[k % 3])))
    return targets


def test_solve_norm_s2_golden_associates():
    outs = [solve_norm_s2(m) for m in golden_targets()]
    assert 100 < sum(x is None for x in outs) < 300
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == SOLVE_NORM_GOLDEN


# -- the per-prime memos ---------------------------------------------------------

MEMOS = (_sqrt2_primes_above, _lift_prime)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def lift_arguments(p):
    """The (pi, p) that solve_norm_s2 may pass to _lift_prime for the rational prime p."""
    if p == 2 or p % 8 == 7:
        return []
    return [(_normalize_totally_positive(pi), p) for pi in _sqrt2_primes_above(p)]


def test_prime_memos_equal_their_originals():
    clear_memos()
    # every prime above 20,000 that the golden targets or the big primes lift
    large = set(BIG_PRIMES + [P20, Q20])
    for m in golden_targets():
        if s2_totally_positive(m):
            large |= {p for p in _prime_factors(s2_norm(m)) if p >= 20000}
    for p in [*sympy.primerange(2, 20000), *sorted(large)]:
        want = _sqrt2_primes_above.__wrapped__(p)
        assert type(want) is tuple and _sqrt2_primes_above(p) == want and _sqrt2_primes_above(p) == want, p
        for args in lift_arguments(p):
            want = _lift_prime.__wrapped__(*args)
            assert _lift_prime(*args) == want and _lift_prime(*args) == want, args  # a miss, then a hit
    assert all(memo.cache_info().hits > PRIME_CACHE_SIZE for memo in MEMOS)


def test_golden_associates_do_not_depend_on_memo_state():
    clear_memos()
    outs = [solve_norm_s2(m) for m in reversed(golden_targets())][::-1]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == SOLVE_NORM_GOLDEN


def test_prime_memos_stay_within_their_bound():
    clear_memos()
    primes = (p for p in sympy.primerange(3, 10**6) if p % 8 != 7)
    for p in itertools.islice(primes, 2 * PRIME_CACHE_SIZE):
        for args in lift_arguments(p):
            _lift_prime(*args)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.misses > info.maxsize == PRIME_CACHE_SIZE >= info.currsize, (memo, info)


def nulldec_program(seed, count):
    """count nulldec statements of u (x) ubar, u with Z[zeta8] coordinates up to 700."""
    rng = SplitMix64(seed)
    statements = []
    for _ in range(count):
        a, b = (z8_to_scalar(random_z8(rng, 700)) for _ in range(2))
        statements.append(f"let a = {a}\nlet b = {b}\nnulldec((a*e1 + b*e2) * (conj(a)*eb1 + conj(b)*eb2))")
    return "\n".join(statements)


def test_nulldec_prints_the_same_cold_and_warm():
    program = nulldec_program(26, 40)
    clear_memos()
    cold = eval_program(program)
    # warm up on other targets, then on the program itself
    for m in golden_targets():
        solve_norm_s2(m)
    eval_program(nulldec_program(27, 40))
    hits = _lift_prime.cache_info().hits
    assert eval_program(program) == cold
    assert eval_program(program) == cold
    assert len(cold) == 40 and _lift_prime.cache_info().hits > hits
