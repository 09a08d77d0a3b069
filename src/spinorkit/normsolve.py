"""Exact solver for the relative norm equation x * conj(x) = m over Q(i, sqrt2).

Factoring a nonzero isotropic Hermitian element as +/- u (x) ubar requires a
field element whose complex-conjugation norm equals a given totally positive
element of Q(sqrt2).  Q(i, sqrt2) is the 8th cyclotomic field; its ring of
integers Z[zeta8] is a norm-Euclidean PID, so the equation is solved by
factoring the target over Z[sqrt2], lifting each prime through the relative
quadratic extension (via Euclidean gcds with a square root of -1 in the
residue field), and multiplying in the closed-form square root of the
totally positive unit left over.  Returns None when the equation has no
solution in the field, which happens exactly when the target is not totally
positive or some rational prime p = 7 mod 8 divides its norm to an odd
power; that verdict is exact, not a search cutoff.
A broken internal invariant raises ArithmeticError.  Each prime's split and
lift are memoized in LRU tables of PRIME_CACHE_SIZE entries; this is exact,
since each is a pure function of the prime, and no exception is cached.

The rational arithmetic underneath is self-contained.  The absolute norm is
factored by trial division by the primes below 1000, a perfect-power test and
Brent's variant of Pollard rho; the rho steps for one norm are capped at
FACTOR_BUDGET, and running out raises FactorBudgetError, never None.
Primality is deterministic Miller-Rabin on the prime bases 2..41 below
3.3 * 10^24 and strong BPSW above; square roots modulo a prime come from
Tonelli-Shanks, normalized to the root at most p // 2.

Elements of Z[zeta8] are 4-tuples of integers in the basis (1, z, z^2, z^3)
with z^4 = -1; elements of Z[sqrt2] are integer pairs (p, q) = p + q*sqrt2.
Euclidean division in Z[zeta8] rounds a / b coordinate-wise and then tries
the 81 neighbouring quotients in one flat loop of additions, keeping the
first remainder of least absolute norm in product order and stopping at a
remainder 0; the gcds, and so the printed spinors, depend on that order.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Optional, Tuple

from .exactfield import Scalar, _reduced, sqrt2_sign

Z8 = Tuple[int, int, int, int]
S2 = Tuple[int, int]

Z8_ONE: Z8 = (1, 0, 0, 0)
Z8_I: Z8 = (0, 0, 1, 0)  # i = z^2
Z8_ZETA_PLUS_ONE: Z8 = (1, 1, 0, 0)  # 1 + z; relative norm 2 + sqrt2
S2_SQRT2: S2 = (0, 1)
S2_FUND: S2 = (1, 1)  # 1 + sqrt2, the fundamental unit (norm -1)

# Pollard rho steps allowed for factoring one norm: about 0.6 s on a 2-core
# x86_64 machine under Python 3.11.  With near certainty that splits off every
# prime factor below 10^9 but the largest; larger ones may exhaust it.
FACTOR_BUDGET = 1 << 20
# Entries kept by each per-prime memo (_sqrt2_primes_above, _lift_prime).
PRIME_CACHE_SIZE = 1024


class FactorBudgetError(ValueError):
    """Factoring a norm needs more than FACTOR_BUDGET Pollard rho steps."""


# -- rational integers ---------------------------------------------------------

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))]
# Miller-Rabin on the first 13 prime bases is exact below this bound (OEIS A014233).
_MR_EXACT_BOUND = 3317044064679887385961981


def _odd_part(m: int) -> Tuple[int, int]:
    """(d, s) with m = d * 2^s and d odd, for m > 0."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _strong_prp(n: int, base: int) -> bool:
    """Strong probable-prime test of the odd n > 2 to the given base."""
    d, s = _odd_part(n - 1)
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of the odd n > 2, Selfridge's parameters."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = _odd_part(n + 1)

    def half(x: int) -> int:
        x %= n
        return (x if not x & 1 else x + n) >> 1

    u, v, qk = 1, 1, q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Primality: exact below 3.3 * 10^24, strong BPSW above (no known error)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1000 * 1000:
        return True
    if n < _MR_EXACT_BOUND:
        return all(_strong_prp(n, p) for p in _SMALL_PRIMES[:13])
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho(n: int, c: int, steps: int) -> Tuple[int, int]:
    """Brent's Pollard rho on the odd composite n with x -> x^2 + c.

    Returns a divisor g > 1 of n (g == n when this c failed) and the steps
    left of `steps`; raises FactorBudgetError when they run out.
    """
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        steps -= 2 * r  # this round: r steps to move x, at most r more to find g
        if steps < 0:
            raise FactorBudgetError(
                f"factoring a {n.bit_length()}-bit cofactor needs more than "
                f"the {FACTOR_BUDGET}-step Pollard rho budget"
            )
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):  # one gcd per 128 steps
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:  # the batch overshot: step through it again one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g, steps


def _prime_factors(n: int) -> set:
    """The set of primes dividing n >= 1.

    Trial division by the primes below 1000, then perfect powers and Brent's
    Pollard rho under FACTOR_BUDGET steps in all; FactorBudgetError when the
    budget runs out.
    """
    primes = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
    steps = FACTOR_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            primes.add(m)
            continue
        for k in _SMALL_PRIMES:
            root = _iroot(m, k)
            if root < 1000 or root**k == m:  # every prime factor left exceeds 1000
                break
        if root**k == m:
            stack.append(root)
            continue
        c, g = 1, m
        while g == m:
            g, steps = _rho(m, c, steps)
            c += 1
        stack += [g, m // g]
    return primes


def _sqrt_mod(a: int, p: int) -> int:
    """The square root of a modulo the odd prime p that is at most p // 2 (Tonelli-Shanks)."""
    a %= p
    q, s = _odd_part(p - 1)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ArithmeticError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


# -- Z[zeta8] arithmetic -------------------------------------------------------


def z8_sub(a: Z8, b: Z8) -> Z8:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def z8_mul(a: Z8, b: Z8) -> Z8:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (  # z^4 = -1
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def z8_pow(a: Z8, n: int) -> Z8:
    out = Z8_ONE
    base = a
    while n:
        if n & 1:
            out = z8_mul(out, base)
        base = z8_mul(base, base)
        n >>= 1
    return out


def z8_conj(a: Z8) -> Z8:
    """Complex conjugation: z -> z^-1 = -z^3."""
    return (a[0], -a[3], -a[2], -a[1])


def z8_galois(a: Z8) -> Z8:
    """The automorphism sqrt2 -> -sqrt2 (z -> z^5 = -z), fixing i."""
    return (a[0], -a[1], a[2], -a[3])


def z8_is_zero(a: Z8) -> bool:
    return a == (0, 0, 0, 0)


def z8_relative_norm(a: Z8) -> S2:
    """a * conj(a), an element of Z[sqrt2] (totally nonnegative)."""
    c0, c1, c2, c3 = a
    return (c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3, c0 * c1 + c1 * c2 + c2 * c3 - c3 * c0)


def z8_abs_norm(a: Z8) -> int:
    """Product of all four Galois conjugates; the absolute norm to Z (never negative)."""
    p, q = z8_relative_norm(a)
    return p * p - 2 * q * q


def z8_from_s2(m: S2) -> Z8:
    return (m[0], m[1], 0, -m[1])


def _least_remainder(r: Z8, b: Z8) -> Tuple[int, Tuple[int, int, int, int], Z8]:
    """(norm, off, r - sum off[k] * z^k * b): the first off in (0, -1, 1)^4, in
    product order, whose remainder has the least absolute norm; a remainder 0
    ends the search.

    z^k * b is a signed rotation of b, so each loop level adds one rotation
    (off 0 adds nothing, -1 adds it, +1 subtracts it), and the innermost level
    computes the norm p^2 - 2 q^2 of the relative norm p + q*sqrt2 inline.
    """
    b0, b1, b2, b3 = b
    s0, s1, s2, s3 = (
        ((0, 0, 0, 0, 0), (-1, v0, v1, v2, v3), (1, -v0, -v1, -v2, -v3))
        for v0, v1, v2, v3 in ((b0, b1, b2, b3), (-b3, b0, b1, b2), (-b2, -b3, b0, b1), (-b1, -b2, -b3, b0))
    )
    r0, r1, r2, r3 = r
    least = best = None
    for o0, d0, d1, d2, d3 in s0:
        a0, a1, a2, a3 = r0 + d0, r1 + d1, r2 + d2, r3 + d3
        for o1, d0, d1, d2, d3 in s1:
            e0, e1, e2, e3 = a0 + d0, a1 + d1, a2 + d2, a3 + d3
            for o2, d0, d1, d2, d3 in s2:
                f0, f1, f2, f3 = e0 + d0, e1 + d1, e2 + d2, e3 + d3
                for o3, d0, d1, d2, d3 in s3:
                    c0, c1, c2, c3 = f0 + d0, f1 + d1, f2 + d2, f3 + d3
                    p = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
                    q = c0 * c1 + c1 * c2 + c2 * c3 - c3 * c0
                    nr = p * p - 2 * q * q
                    if least is None or nr < least:
                        least, best = nr, ((o0, o1, o2, o3), (c0, c1, c2, c3))
                        if nr == 0:
                            return 0, *best
    return least, *best


def z8_divmod(a: Z8, b: Z8) -> Tuple[Z8, Z8]:
    """Euclidean division a = q * b + r with the least-norm remainder near a / b.

    q is the coordinate-wise rounding of a / b plus an offset in (0, -1, 1)^4.
    One flat search, :func:`_least_remainder`, tries the 81 offsets in product
    order; the first remainder of least absolute norm wins, and a remainder 0
    ends the search.  That choice fixes the associate z8_gcd returns, and
    through it the spinor that null_decompose prints.
    """
    nb = z8_abs_norm(b)
    if nb == 0:
        raise ZeroDivisionError("division by zero in Z[zeta8]")
    num = z8_mul(a, z8_mul(z8_conj(b), z8_mul(z8_galois(b), z8_galois(z8_conj(b)))))
    # floor(x / nb + 1/2) exactly; nb > 0
    base = tuple((2 * x + nb) // (2 * nb) for x in num)
    nr, off, r = _least_remainder(z8_sub(a, z8_mul(base, b)), b)
    if nr >= nb:
        raise ArithmeticError("Euclidean division failed to reduce the norm")
    return (base[0] + off[0], base[1] + off[1], base[2] + off[2], base[3] + off[3]), r


def z8_gcd(a: Z8, b: Z8) -> Z8:
    while not z8_is_zero(b):
        _, r = z8_divmod(a, b)
        a, b = b, r
    return a


# -- Z[sqrt2] arithmetic -------------------------------------------------------


def s2_mul(a: S2, b: S2) -> S2:
    return (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def s2_norm(a: S2) -> int:
    return a[0] * a[0] - 2 * a[1] * a[1]


def s2_conj(a: S2) -> S2:
    return (a[0], -a[1])


def s2_totally_positive(a: S2) -> bool:
    return sqrt2_sign(*a) > 0 and sqrt2_sign(*s2_conj(a)) > 0


def s2_divides_exactly(a: S2, b: S2) -> Optional[S2]:
    nb = s2_norm(b)
    if nb == 0:
        raise ZeroDivisionError
    num = s2_mul(a, s2_conj(b))
    if num[0] % nb or num[1] % nb:
        return None
    return (num[0] // nb, num[1] // nb)


def s2_divmod(a: S2, b: S2) -> Tuple[S2, S2]:
    nb = s2_norm(b)
    num = s2_mul(a, s2_conj(b))
    q = ((2 * num[0] + nb) // (2 * nb), (2 * num[1] + nb) // (2 * nb))
    best = None
    for off0 in (0, -1, 1):
        for off1 in (0, -1, 1):
            qq = (q[0] + off0, q[1] + off1)
            qb = s2_mul(qq, b)
            r = (a[0] - qb[0], a[1] - qb[1])
            nr = abs(s2_norm(r))
            if best is None or nr < best[0]:
                best = (nr, qq, r)
    nr, qq, r = best
    if nr >= abs(nb):
        raise ArithmeticError("Euclidean division failed in Z[sqrt2]")
    return qq, r


def s2_gcd(a: S2, b: S2) -> S2:
    while b != (0, 0):
        _, r = s2_divmod(a, b)
        a, b = b, r
    return a


def _unit_sqrt(u: S2) -> Optional[S2]:
    """The root of the nonzero u that is positive for sqrt2 > 0, or None unless
    u is the square of a unit.  A root a + b*sqrt2 of u = p + q*sqrt2 with
    a^2 - 2b^2 = n = +/-1 has a^2 = (p + n) / 2, b^2 = (p - n) / 4 and ab of
    the sign of q; the square test refuses every other u.
    """
    p, q = u
    for n in (1, -1):
        y = (isqrt(abs(p + n) // 2), isqrt(abs(p - n) // 4) * (1 if q >= 0 else -1))
        if s2_mul(y, y) == u:
            return y if sqrt2_sign(*y) > 0 else (-y[0], -y[1])
    return None


def _normalize_totally_positive(pi: S2) -> S2:
    """Totally positive associate of the nonzero pi."""
    if s2_norm(pi) < 0:
        pi = s2_mul(pi, S2_FUND)  # fundamental unit has norm -1
    if sqrt2_sign(*pi) < 0:
        pi = (-pi[0], -pi[1])
    if not s2_totally_positive(pi):
        raise ArithmeticError(f"no totally positive associate found for {pi}")
    return pi


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def _sqrt2_primes_above(p: int) -> Tuple[S2, ...]:
    """The primes of Z[sqrt2] above a rational prime, in a deterministic order."""
    if p == 2:
        return (S2_SQRT2,)
    if p % 8 in (1, 7):
        pi = s2_gcd((p, 0), (_sqrt_mod(2, p), -1))
        return (pi, s2_conj(pi))
    return ((p, 0),)


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def _lift_prime(pi: S2, p: int) -> Z8:
    """An element sigma of Z[zeta8] with sigma * conj(sigma) = pi times a unit.

    pi must be a totally positive prime of Z[sqrt2] lying over the odd
    rational prime p, with -1 a square in the residue field.  The unit is
    totally positive, so a square; solve_norm_s2 takes its root at the end.
    """
    if p % 4 == 1:
        r: Z8 = (_sqrt_mod(p - 1, p), 0, 0, 0)
    else:  # p = 3 mod 8: the residue field is F_{p^2}; -1/2 is a square mod p
        r = z8_from_s2((0, _sqrt_mod(-pow(2, -1, p), p)))
    sigma = z8_gcd(z8_from_s2(pi), z8_sub(r, Z8_I))
    ratio = s2_divides_exactly(z8_relative_norm(sigma), pi)
    if ratio is None or abs(s2_norm(ratio)) != 1:
        raise ArithmeticError(f"lift of the prime {pi} has relative norm {z8_relative_norm(sigma)}")
    return sigma


def solve_norm_s2(m: S2) -> Optional[Z8]:
    """x in Z[zeta8] with x * conj(x) = m, or None when no solution exists.

    Raises FactorBudgetError when the norm of m is too hard to factor; no
    exception is cached, that one included.  Each prime's split and lift are
    memoized (PRIME_CACHE_SIZE entries each); both are pure functions of the
    prime, so x does not depend on what was solved before.
    """
    if m == (0, 0):
        return (0, 0, 0, 0)
    if not s2_totally_positive(m):
        return None
    big_norm = s2_norm(m)
    x = Z8_ONE
    remaining = m
    for p in sorted(_prime_factors(big_norm)):
        for pi in _sqrt2_primes_above(p):
            exponent = 0
            while True:
                quotient = s2_divides_exactly(remaining, pi)
                if quotient is None:
                    break
                remaining = quotient
                exponent += 1
            if exponent == 0:
                continue
            if p == 2:
                x = z8_mul(x, z8_pow(Z8_ZETA_PLUS_ONE, exponent))
                continue
            pi_pos = _normalize_totally_positive(pi)
            if p % 8 == 7:
                # relatively inert: -1 is not a square mod p
                if exponent % 2:
                    return None
                x = z8_mul(x, z8_pow(z8_from_s2(pi_pos), exponent // 2))
            else:
                x = z8_mul(x, z8_pow(_lift_prime(pi_pos, p), exponent))
    # m / (x * conj(x)) is now a totally positive unit (1 + sqrt2)^(2k); take its root
    residual = s2_divides_exactly(m, z8_relative_norm(x))
    root = None if residual is None else _unit_sqrt(residual)
    if root is None:
        raise ArithmeticError(f"norm equation residual {residual} is not the square of a unit")
    x = z8_mul(x, z8_from_s2(root))
    if z8_relative_norm(x) != m:
        raise ArithmeticError("norm equation postcondition failed")
    return x


# -- field-level interface -----------------------------------------------------


def z8_to_scalar(a: Z8, denominator: int = 1) -> Scalar:
    c0, c1, c2, c3 = a
    return _reduced(2 * c0, 2 * c2, c1 - c3, c1 + c3, 2 * denominator)


def solve_norm(w: Scalar) -> Optional[Scalar]:
    """sigma in Q(i, sqrt2) with sigma * conj(sigma) = w, or None.

    w must be a real element (a + c*sqrt2).  Solutions exist exactly when w is
    a relative norm; totally positive is necessary but not sufficient.
    """
    if not w.is_real():
        raise ValueError("norm targets must be real elements of Q(sqrt2)")
    if w.is_zero():
        return Scalar.zero()
    # w = (A + C*sqrt2) / den, so w * den^2 = A*den + C*den*sqrt2 is integral
    a, _, c, _, den = w.ints
    x = solve_norm_s2((a * den, c * den))
    if x is None:
        return None
    return z8_to_scalar(x, den)
