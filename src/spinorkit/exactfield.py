"""Exact arithmetic in the field Q(i, sqrt2) and rational unit exponents.

Every coefficient in this package is a :class:`Scalar`, an element
``(a + b*i + c*sqrt2 + d*i*sqrt2) / den`` of Q(i, sqrt2) held as four Python
ints over one positive int denominator.  The stored form is canonical,
``gcd(a, b, c, d, den) == 1`` with zero as ``(0, 0, 0, 0, 1)``, so ``==`` and
``hash`` compare five ints.  Each ``+``, ``-`` and ``*`` reduces its result
with one ``math.gcd`` over five ints, and with none when the denominator is
1; ``+`` and ``-`` cross-multiply only when the denominators differ, and a
``*`` with a factor equal to 1 returns the other factor.  A sum of
products, such as a matrix entry or a pairing, goes through the fused kernel
:func:`_dot`, which keeps one unreduced numerator over a running denominator
and reduces once, at the end; ``fnforms`` keeps one per coefficient of a
form kernel's result.  The set is closed under the four field operations,
so all algebraic identities downstream can be asserted with ``==`` instead
of a tolerance.  The rational coordinates are read as the reduced
``Fraction`` properties ``a`` to ``d``, the five ints as
:attr:`Scalar.ints`.  :func:`format_scalar` prints each nonzero coordinate
straight from the ints, reduced by one ``gcd`` with the denominator, and
:meth:`Scalar.inverse` of a rational ``a / den`` is ``den / a`` with the sign
moved to the numerator, canonical without a product or a ``gcd``.

Length-unit exponents are plain ``fractions.Fraction`` values; they add under
tensor multiplication and negate under dualization.

Every sparse container of the package (two-spinor tensors, Dirac spinors,
their duals and endomorphisms, polynomials, valued forms, Fock states and
operators) is one notion, a finite linear combination of canonical keys, and
subclasses :class:`Combination`.  It holds the nonzero coefficients in
``terms`` and the space they live in in ``shape``, and it implements ``+``,
``-``, negation, ``scaled``, ``==``, ``hash`` and the check that two operands
live in one space once; a subclass only declares the error that a mismatch
of each shape entry raises.  Results computed from canonical operands go
through its trusted constructor ``_trusted``, which only drops zero
coefficients.  Sums of Scalar products go through ``_dot`` (grouped by key
in ``diracw._sum_products``), form kernels through the accumulator of
``fnforms``, and every other sum of terms, ``+``, ``-`` and the Fock products
included, through ``_accumulate`` with an int factor.  On containers ``*``
means only the algebra product of two elements of one class; a scalar
multiple is always ``scaled``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

Rat = Union[int, Fraction]
Ints = Tuple[int, int, int, int, int]

# exact rational backend and the rational types a Scalar accepts
_rat = Fraction
_RAT_TYPES = (int, Fraction)
_ZERO: Ints = (0, 0, 0, 0, 1)
_UNIT: Ints = (1, 0, 0, 0, 1)


class ExactError(ValueError):
    """Raised on malformed exact-scalar input or an impossible exact operation."""


def _make(v: Ints) -> "Scalar":
    """The Scalar whose canonical ints are `v`; trusts the caller, validates nothing."""
    z = object.__new__(Scalar)
    _set_v(z, v)
    return z


def _reduced(a: int, b: int, c: int, d: int, den: int) -> "Scalar":
    """(a + b*i + c*sqrt2 + d*i*sqrt2) / den for ints with den > 0, in lowest terms."""
    if den != 1:
        g = gcd(a, b, c, d, den)
        if g != 1:
            return _make((a // g, b // g, c // g, d // g, den // g))
    return _make((a, b, c, d, den))


def _dot(triples) -> "Scalar":
    """The sum of sign * x * y over (sign, x, y) triples, sign +1 or -1, x and y Scalars.

    The products are summed as one unreduced numerator 4-tuple over a running
    denominator, and the sum is reduced once at the end; the canonical form is
    unique, so the ints equal those of the chained ``*``, ``+`` and ``-``.
    """
    a = b = c = d = 0
    den = 1
    for sign, x, y in triples:
        a1, b1, c1, d1, n1 = x._v
        a2, b2, c2, d2, n2 = y._v
        pa = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
        pb = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
        pc = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
        pd = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        if sign < 0:
            pa, pb, pc, pd = -pa, -pb, -pc, -pd
        n = n1 * n2
        if n == den:
            a, b, c, d = a + pa, b + pb, c + pc, d + pd
        else:
            a, b, c, d, den = a * n + pa * den, b * n + pb * den, c * n + pc * den, d * n + pd * den, den * n
    return _reduced(a, b, c, d, den)


def _ints(x) -> Ints:
    """The canonical ints of a Scalar, int or Fraction operand."""
    if isinstance(x, Scalar):
        return x._v
    if isinstance(x, int):
        return (int(x), 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0, x.denominator)
    if isinstance(x, Combination):
        x._check_mate(Scalar.one())  # the container's own error, whatever the operand order
    raise ExactError(f"cannot coerce {x!r} to Scalar")


def sqrt2_sign(a: int, c: int) -> int:
    """Exact sign (-1, 0, 1) of a + c*sqrt2 for ints a and c."""
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


def _coordinate(k: int, doc: str) -> property:
    return property(lambda self: Fraction(self._v[k], self._v[4]), doc=doc)


class Immutable:
    """A base whose instances refuse assignment and deletion of attributes.

    Subclasses write their slots once, in construction, through the slot
    descriptors or ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(Immutable):
    """An element a + b*i + c*sqrt(2) + d*i*sqrt(2) of Q(i, sqrt2).

    The coordinates must be ``int`` or ``Fraction``; anything else, a float
    or a string included, raises :class:`ExactError`.
    """

    __slots__ = ("_v",)

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        coords = (a, b, c, d)
        den = 1
        for x in coords:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
            elif not isinstance(x, int):
                raise ExactError(f"Scalar coordinates must be int or Fraction, got {x!r}")
        # den is the lcm of reduced denominators, so the ints are already coprime
        nums = tuple(
            int(x) * den if isinstance(x, int) else x.numerator * (den // x.denominator) for x in coords
        )
        _set_v(self, nums + (den,))

    a = _coordinate(0, "Rational coefficient of 1.")
    b = _coordinate(1, "Rational coefficient of i.")
    c = _coordinate(2, "Rational coefficient of sqrt2.")
    d = _coordinate(3, "Rational coefficient of i*sqrt2.")

    @property
    def ints(self) -> Ints:
        """(a, b, c, d, den): the canonical ints, self = (a + b*i + c*sqrt2 + d*i*sqrt2) / den."""
        return self._v

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return _make(_ZERO)

    @classmethod
    def one(cls) -> "Scalar":
        return _make(_UNIT)

    @classmethod
    def i(cls) -> "Scalar":
        return _make((0, 1, 0, 0, 1))

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return _make((0, 0, 1, 0, 1))

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return _make(_ints(value))

    # -- ring/field operations --------------------------------------------

    def __add__(self, other) -> "Scalar":
        a1, b1, c1, d1, n1 = self._v
        a2, b2, c2, d2, n2 = _ints(other)
        if n1 == n2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1)
        return _reduced(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1, c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        a1, b1, c1, d1, n1 = self._v
        a2, b2, c2, d2, n2 = _ints(other)
        if n1 == n2:
            return _reduced(a1 - a2, b1 - b2, c1 - c2, d1 - d2, n1)
        return _reduced(a1 * n2 - a2 * n1, b1 * n2 - b2 * n1, c1 * n2 - c2 * n1, d1 * n2 - d2 * n1, n1 * n2)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) - self

    def __neg__(self) -> "Scalar":
        a, b, c, d, den = self._v
        return _make((-a, -b, -c, -d, den))

    def __mul__(self, other) -> "Scalar":
        # Scalars are immutable, so returning the other factor of a unit is exact
        a2, b2, c2, d2, n2 = v2 = _ints(other)
        if v2 == _UNIT:
            return self
        a1, b1, c1, d1, n1 = v1 = self._v
        if v1 == _UNIT:
            return other if type(other) is Scalar else _make(v2)
        return _reduced(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            n1 * n2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, c, d, den = self._v
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero Scalar")
            # a / den is in lowest terms, so den / a with its sign on top is canonical
            return _make((den, 0, 0, 0, a) if a > 0 else (-den, 0, 0, 0, -a))
        # |z|^2 lies in Q(sqrt2); multiplying by its sqrt2-conjugate lands in Q.
        zc = self.conj()
        n1 = self * zc
        w = n1.conj_sqrt2()
        norm, _, _, _, den = (n1 * w)._v  # norm / den > 0, already coprime
        return zc * w * _make((den, 0, 0, 0, norm))

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
        a, b, c, d, den = self._v
        return _make((a, -b, c, -d, den))

    def conj_sqrt2(self) -> "Scalar":
        """Galois conjugation sqrt2 -> -sqrt2; fixes i."""
        a, b, c, d, den = self._v
        return _make((a, b, -c, -d, den))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._v == _ZERO

    def __bool__(self) -> bool:
        return self._v != _ZERO

    def is_real(self) -> bool:
        return not (self._v[1] or self._v[3])

    def real_sign(self) -> int:
        """Exact sign (-1, 0, 1) of a real element (a + c*sqrt2) / den."""
        if not self.is_real():
            raise ExactError(f"real_sign of non-real scalar {self}")
        a, _, c, _, _ = self._v  # den > 0 does not change the sign
        return sqrt2_sign(a, c)

    # -- hashing and comparison ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._v == other._v
        if isinstance(other, _RAT_TYPES):
            return self._v == _ints(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._v)

    # -- text form -------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def format_scalar(z: Scalar) -> str:
    """Canonical text encoding ``a+b*i+c*r2+d*i*r2`` with rationals as p/q; the DSL reads it back exactly."""
    *nums, den = z._v
    out = ""
    for n, tail in zip(nums, ("", "i", "r2", "i*r2")):
        if not n:
            continue
        mag = -n if n < 0 else n
        g = gcd(mag, den)
        body = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        if tail:
            body = tail if body == "1" else f"{body}*{tail}"
        out += "-" + body if n < 0 else "+" + body if out else body
    return out or "0"


# the slot setters; construction writes through them because __setattr__ raises
_set_v = Scalar._v.__set__


# -- unit exponents ----------------------------------------------------------
#
# The one-dimensional space of length units enters only through rational
# powers; a power is represented by a reduced Fraction.  Tensor products add
# exponents, dual spaces negate them.

UnitExponent = Fraction


class UnitMismatchError(ValueError):
    """Raised when an operation pairs quantities with incompatible unit exponents."""


# -- finite linear combinations ------------------------------------------------


class _ShapeField(property):
    """A :func:`shape_field`, which also carries the error and the label of its entry's mismatch."""


def shape_field(index: int, doc: str, error: type, label: str) -> property:
    """Entry `index` of a Combination's shape, read-only; operands that differ in it raise `error`."""
    field = _ShapeField(lambda self: self.shape[index], doc=doc)
    field.index, field.error, field.label = index, error, label
    return field


def _accumulate(out: dict, key, value, k: int = 1):
    """out[key] += k * value for an int k, without a zero placeholder; a k of 1 or -1 multiplies nothing."""
    if k != 1 and k != -1:
        value, k = value * k if type(value) is Scalar else value.scaled(k), 1
    prev = out.get(key)
    if prev is None:
        out[key] = value if k > 0 else -value
    else:
        out[key] = prev + value if k > 0 else prev - value


class Combination(Immutable):
    """A finite linear combination of canonical keys in a space fixed by a shape.

    ``terms`` maps keys to nonzero coefficients: :class:`Scalar` values, or
    Combinations themselves (the polynomial components of a form).  Absent
    keys are zero, so ``==`` and ``hash`` compare canonical forms.  ``shape``
    is a tuple that fixes the space, such as a tensor's slots and unit.
    :meth:`_check_mate`, the check behind every sum and product, passes two
    operands of one class and one shape.  A subclass declares the error that
    each shape entry's mismatch raises, naming the entry with
    :func:`shape_field`, and in ``_error`` the error an operand of another
    class raises; beyond that it keeps only a public constructor that
    validates every key and coerces every coefficient, and its products.
    Results that the package computes from canonical operands are canonical
    by construction and go through the trusted constructor :meth:`_trusted`,
    which only drops zero coefficients.  Instances are immutable.
    """

    __slots__ = ("shape", "terms")
    _fields = ()  # a subclass's shape_fields, in shape order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = sorted((f for f in vars(cls).values() if isinstance(f, _ShapeField)), key=lambda f: f.index)
        cls._fields = tuple(fields) or cls._fields

    def _fill(self, shape: tuple, terms: dict):
        _set_shape(self, shape)
        _set_terms(self, {key: c for key, c in terms.items() if not c.is_zero()})

    @classmethod
    def _trusted(cls, shape: tuple, terms: dict):
        """The element of this shape with these canonical terms; drops zero coefficients, validates nothing."""
        self = object.__new__(cls)
        _set_shape(self, shape)
        _set_terms(self, {key: c for key, c in terms.items() if not c.is_zero()})
        return self

    def _like(self, terms: dict):
        return self._trusted(self.shape, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_mate(self, other):
        """Raise the declared error unless `other` lives in this space: this class and this shape."""
        if type(other) is not type(self):
            raise self._error(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.shape != self.shape:
            field = next(f for f in self._fields if f.fget(self) != f.fget(other))
            raise field.error(f"{field.label} mismatch: {field.fget(self)} vs {field.fget(other)}")

    def _combined(self, other, sign: int):
        self._check_mate(other)
        out = dict(self.terms)
        for key, value in other.terms.items():
            _accumulate(out, key, value, sign)
        return self._like(out)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scaled(self, factor):
        """Every coefficient times the scalar `factor`; a Combination coefficient scales its own."""
        factor = Scalar.coerce(factor)
        return self._like(
            {key: c * factor if type(c) is Scalar else c.scaled(factor) for key, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))


_set_shape = Combination.shape.__set__
_set_terms = Combination.terms.__set__
