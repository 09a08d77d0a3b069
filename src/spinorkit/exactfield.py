"""Exact arithmetic in the field Q(i, sqrt2) and rational unit exponents.

Every coefficient in this package is a :class:`Scalar`, an element
``a + b*i + c*sqrt2 + d*i*sqrt2`` with arbitrary-precision rational
``a, b, c, d``.  The set is closed under the four field operations, so all
algebraic identities downstream can be asserted with ``==`` instead of a
tolerance.  Length-unit exponents are plain ``fractions.Fraction`` values;
they add under tensor multiplication and negate under dualization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

# exact rational backend and the rational types a Scalar accepts
_rat = Fraction
_RAT_TYPES = (int, Fraction)


class ExactError(ValueError):
    """Raised on malformed exact-scalar input or an impossible exact operation."""


class Scalar:
    """An element a + b*i + c*sqrt(2) + d*i*sqrt(2) of Q(i, sqrt2)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        object.__setattr__(self, "a", _rat(a))
        object.__setattr__(self, "b", _rat(b))
        object.__setattr__(self, "c", _rat(c))
        object.__setattr__(self, "d", _rat(d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls(0)

    @classmethod
    def one(cls) -> "Scalar":
        return cls(1)

    @classmethod
    def i(cls) -> "Scalar":
        return cls(0, 1)

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return cls(0, 0, 1)

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, _RAT_TYPES):
            return cls(value)
        raise ExactError(f"cannot coerce {value!r} to Scalar")

    # -- ring/field operations --------------------------------------------

    def __add__(self, other) -> "Scalar":
        o = Scalar.coerce(other)
        return Scalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        o = Scalar.coerce(other)
        return Scalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other) -> "Scalar":
        o = Scalar.coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return Scalar(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Scalar")
        # |z|^2 lies in Q(sqrt2); multiplying by its sqrt2-conjugate lands in Q.
        zc = self.conj()
        n1 = self * zc
        w = n1.conj_sqrt2()
        norm = (n1 * w).a
        return zc * w * Scalar(1 / norm)

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- involutions --------------------------------------------------------

    def conj(self) -> "Scalar":
        """Complex conjugation; fixes sqrt2, negates i."""
        return Scalar(self.a, -self.b, self.c, -self.d)

    def conj_sqrt2(self) -> "Scalar":
        """Galois conjugation sqrt2 -> -sqrt2; fixes i."""
        return Scalar(self.a, self.b, -self.c, -self.d)

    def abs2(self) -> "Scalar":
        """z * conj(z); a real element of Q(sqrt2), nonnegative."""
        return self * self.conj()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_real(self) -> bool:
        return self.b == 0 and self.d == 0

    def is_rational(self) -> bool:
        return self.is_real() and self.c == 0

    def real_sign(self) -> int:
        """Exact sign (-1, 0, 1) of a real element a + c*sqrt2."""
        if not self.is_real():
            raise ExactError(f"real_sign of non-real scalar {self}")
        a, c = self.a, self.c
        if a == 0 and c == 0:
            return 0
        if a >= 0 and c >= 0:
            return 1
        if a <= 0 and c <= 0:
            return -1
        # opposite signs: compare a^2 against 2 c^2
        if a > 0:
            return 1 if a * a > 2 * c * c else -1
        return 1 if a * a < 2 * c * c else -1

    # -- hashing and comparison ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _RAT_TYPES):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash(("Scalar", self.a, self.b, self.c, self.d))

    # -- text form -------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_scalar(z: Scalar) -> str:
    """Canonical text encoding ``a+b*i+c*r2+d*i*r2`` with rationals as p/q."""
    parts = []
    for coeff, tail in ((z.a, ""), (z.b, "i"), (z.c, "r2"), (z.d, "i*r2")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if tail and mag == 1:
            body = tail
        elif tail:
            body = f"{_frac_str(mag)}*{tail}"
        else:
            body = _frac_str(mag)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/()":
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
            continue
        if text.startswith("r2", i):
            tokens.append("r2")
            i += 2
            continue
        if ch == "i":
            tokens.append("i")
            i += 1
            continue
        raise ExactError(f"bad character {ch!r} in scalar text {text!r}")
    return tokens


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical text encoding; exact inverse of :func:`format_scalar`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExactError("empty scalar text")
    pos = 0
    total = Scalar.zero()
    sign = 1
    first = True

    def parse_term():
        # term: factors joined by '*'; each factor a rational, 'i' or 'r2'
        nonlocal pos
        coeff = Fraction(1)
        has_i = False
        has_r2 = False
        saw_factor = False
        while True:
            if pos >= len(tokens):
                break
            tok = tokens[pos]
            if tok == "i":
                if has_i:
                    raise ExactError("repeated i factor in term")
                has_i = True
                pos += 1
            elif tok == "r2":
                if has_r2:
                    raise ExactError("repeated r2 factor in term")
                has_r2 = True
                pos += 1
            elif isinstance(tok, int):
                num = tok
                pos += 1
                if pos < len(tokens) and tokens[pos] == "/":
                    pos += 1
                    if pos >= len(tokens) or not isinstance(tokens[pos], int):
                        raise ExactError("missing denominator")
                    den = tokens[pos]
                    pos += 1
                    if den == 0:
                        raise ExactError("zero denominator")
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            else:
                break
            saw_factor = True
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                continue
            break
        if not saw_factor:
            raise ExactError("empty term in scalar text")
        if has_i and has_r2:
            return Scalar(0, 0, 0, coeff)
        if has_i:
            return Scalar(0, coeff)
        if has_r2:
            return Scalar(0, 0, coeff)
        return Scalar(coeff)

    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "+":
            sign = 1
            pos += 1
        elif tok == "-":
            sign = -1
            pos += 1
        elif first:
            sign = 1
        else:
            raise ExactError(f"expected +/- before term at token {tok!r}")
        term = parse_term()
        total = total + (term if sign == 1 else -term)
        first = False
    return total


# -- unit exponents ----------------------------------------------------------
#
# The one-dimensional space of length units enters only through rational
# powers; a power is represented by a reduced Fraction.  Tensor products add
# exponents, dual spaces negate them.

UnitExponent = Fraction


class UnitMismatchError(ValueError):
    """Raised when an operation pairs quantities with incompatible unit exponents."""
