"""Two-spinor tensors, the complex symplectic form and the generated Minkowski pairing.

The primitive space is a two-dimensional complex vector space U carrying a
half unit of length.  Tensors over U and its dual/conjugate variants are kept
sparse, with a variance tag per slot and a single rational unit exponent:
a :class:`ScaledTensor` is an ``exactfield.Combination`` of multi-indices
whose shape is its slots and unit.  Its public constructor validates every
index; the tensors computed here go through the trusted constructor.  A
normalized symplectic 2-form (fixed up to phase by eps(e1, e2) = 1 in the
standard basis) generates the bilinear pairing g on U (x) Ubar whose restriction
to the Hermitian subspace is a Lorentz metric, the Pauli tetrads, and the null
decomposition of isotropic Hermitian elements.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .exactfield import Combination, Immutable, Scalar, UnitMismatchError, _accumulate, _dot, shape_field


class VarianceError(ValueError):
    """Slot signature of a tensor does not match the operation."""


class DegenerateBasisError(ValueError):
    """The two given spinors do not form a basis."""


class NullDecompositionError(ValueError):
    """Base class for null-decomposition failures."""


class NonNullError(NullDecompositionError):
    """Input is not isotropic; carries the exact value of g(y, y)."""

    def __init__(self, g_value: Scalar):
        super().__init__(f"vector is not null: g(y,y) = {g_value}")
        self.g_value = g_value


class ZeroVectorError(NullDecompositionError):
    """The zero vector has no product decomposition."""


class NotFactorableError(NullDecompositionError):
    """Null over the field, but u with y = +/- u (x) ubar has no exact representative."""


class Variance(enum.Enum):
    U = "U"
    U_DUAL = "U*"
    U_BAR = "Ubar"
    U_BAR_DUAL = "Ubar*"

    @property
    def dual(self) -> "Variance":
        return _DUAL[self]

    @property
    def conjugate(self) -> "Variance":
        return _CONJ[self]

    def __str__(self) -> str:
        return self.value


_DUAL = {
    Variance.U: Variance.U_DUAL,
    Variance.U_DUAL: Variance.U,
    Variance.U_BAR: Variance.U_BAR_DUAL,
    Variance.U_BAR_DUAL: Variance.U_BAR,
}
_CONJ = {
    Variance.U: Variance.U_BAR,
    Variance.U_BAR: Variance.U,
    Variance.U_DUAL: Variance.U_BAR_DUAL,
    Variance.U_BAR_DUAL: Variance.U_DUAL,
}
_PRIMAL = (Variance.U, Variance.U_BAR)

Index = Tuple[int, ...]


def default_unit(slots: Tuple[Variance, ...]) -> Fraction:
    """Half a unit per slot: U and Ubar carry L^(1/2), their duals the opposite exponent."""
    return Fraction(sum(1 if s in _PRIMAL else -1 for s in slots), 2)


class ScaledTensor(Combination):
    """Sparse tensor over the two-spinor space with variance tags and a unit exponent.

    `terms` maps multi-indices (components 1 or 2) to nonzero scalars; absent
    keys are zero.  Instances are immutable.
    """

    __slots__ = ()
    _error = VarianceError
    slots = shape_field(0, "The variance tag of each slot, in order.", VarianceError, "slot")
    unit = shape_field(1, "The length-unit exponent, a Fraction.", UnitMismatchError, "unit")

    def __init__(self, slots: Iterable[Variance], terms: Dict[Index, Scalar], unit: Fraction | None = None):
        slots = tuple(slots)
        if unit is None:
            unit = default_unit(slots)
        clean: Dict[Index, Scalar] = {}
        for key, value in terms.items():
            key = tuple(key)
            if len(key) != len(slots) or any(k not in (1, 2) for k in key):
                raise VarianceError(f"bad index {key} for slots {slots}")
            clean[key] = Scalar.coerce(value)
        self._fill((slots, Fraction(unit)), clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, slots: Iterable[Variance], unit: Fraction | None = None) -> "ScaledTensor":
        return cls(slots, {}, unit)

    @classmethod
    def basis(cls, variance: Variance, index: int, unit: Fraction | None = None) -> "ScaledTensor":
        return cls((variance,), {(index,): Scalar.one()}, unit)

    # -- structure -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.slots)

    def get(self, key: Index) -> Scalar:
        return self.terms.get(tuple(key), Scalar.zero())

    # -- linear operations -----------------------------------------------------

    def tensor(self, other: "ScaledTensor") -> "ScaledTensor":
        terms = {k1 + k2: v1 * v2 for k1, v1 in self.terms.items() for k2, v2 in other.terms.items()}
        return ScaledTensor._trusted((self.slots + other.slots, self.unit + other.unit), terms)

    def conj(self) -> "ScaledTensor":
        """Componentwise conjugate; every slot moves to its conjugate space."""
        slots = tuple(s.conjugate for s in self.slots)
        return ScaledTensor._trusted((slots, self.unit), {k: v.conj() for k, v in self.terms.items()})

    def contract(self, pos1: int, pos2: int) -> "ScaledTensor":
        """Natural pairing of a slot with its dual slot; unit weights cancel."""
        if pos1 == pos2:
            raise VarianceError("cannot contract a slot with itself")
        lo, hi = sorted((pos1, pos2))
        if self.slots[lo].dual is not self.slots[hi]:
            raise VarianceError(
                f"slots {self.slots[lo]} and {self.slots[hi]} are not dual"
            )
        keep = [i for i in range(self.rank) if i not in (lo, hi)]
        slots = tuple(self.slots[i] for i in keep)
        terms: Dict[Index, Scalar] = {}
        for key, value in self.terms.items():
            if key[lo] == key[hi]:
                _accumulate(terms, tuple(key[i] for i in keep), value)
        return ScaledTensor._trusted((slots, self.unit), terms)

    def __str__(self) -> str:
        return format_tensor(self)

    def __repr__(self) -> str:
        return f"ScaledTensor({self})"


def format_tensor(t: ScaledTensor) -> str:
    """Canonical DSL text, e.g. ``tensor [U,Ubar] { (1,1): 1; (1,2): i }``."""
    slots = ",".join(str(s) for s in t.slots)
    body = "; ".join(
        f"({','.join(map(str, key))}): {value}"
        for key, value in sorted(t.terms.items())
    )
    unit = "" if t.unit == default_unit(t.slots) else f" unit={t.unit}"
    return f"tensor [{slots}]{unit} {{ {body} }}" if body else f"tensor [{slots}]{unit} {{ }}"


# -- basis shorthands ---------------------------------------------------------


def e(i: int) -> ScaledTensor:
    return ScaledTensor.basis(Variance.U, i)


def ebar(i: int) -> ScaledTensor:
    return ScaledTensor.basis(Variance.U_BAR, i)


def estar(i: int) -> ScaledTensor:
    return ScaledTensor.basis(Variance.U_DUAL, i)


def ebarstar(i: int) -> ScaledTensor:
    return ScaledTensor.basis(Variance.U_BAR_DUAL, i)


_UU = (Variance.U, Variance.U_BAR)


def _require_uu(t: ScaledTensor, what: str):
    if t.slots != _UU:
        raise VarianceError(f"{what} needs slots [U,Ubar], got {t.slots}")


# -- Hermitian structure (independent of the symplectic form) ------------------


def hermitian_transpose(t: ScaledTensor) -> ScaledTensor:
    """(u (x) vbar)-dagger = v (x) ubar, extended real-linearly."""
    _require_uu(t, "hermitian_transpose")
    return ScaledTensor._trusted((_UU, t.unit), {(b, a): v.conj() for (a, b), v in t.terms.items()})


def is_hermitian(t: ScaledTensor) -> bool:
    return t.slots == _UU and hermitian_transpose(t) == t


def hermitian_split(t: ScaledTensor) -> Tuple[ScaledTensor, ScaledTensor]:
    """Unique (h, h') with t = h + i*h', both dagger-fixed."""
    _require_uu(t, "hermitian_split")
    dag = hermitian_transpose(t)
    half = Scalar(Fraction(1, 2))
    h = (t + dag).scaled(half)
    hp = (t - dag).scaled(half / Scalar.i())
    return h, hp


def mink_trace(y: ScaledTensor) -> Scalar:
    _require_uu(y, "mink_trace")
    return y.get((1, 1)) + y.get((2, 2))


# -- the symplectic form and everything it generates ---------------------------

_INV_R2 = Scalar.one() / Scalar.sqrt2()
_I_INV_R2 = Scalar.i() * _INV_R2


class EpsilonStructure(Immutable):
    """The normalized complex symplectic form on U, fixed up to a phase.

    The phase must be unit-modulus; all phase-invariant derived objects (the
    pairing g, the Dirac map) are unchanged under rephasing, which the test
    suite asserts by rebuilding with phase i.  Instances are immutable, so the
    unit-modulus check binds.
    """

    __slots__ = ("phase",)

    def __init__(self, phase: Scalar | int = 1):
        phase = Scalar.coerce(phase)
        if phase * phase.conj() != Scalar.one():
            raise ValueError(f"epsilon phase must have unit modulus, got {phase}")
        object.__setattr__(self, "phase", phase)

    def eps_value(self, u: ScaledTensor, v: ScaledTensor) -> Scalar:
        if u.slots != (Variance.U,) or v.slots != (Variance.U,):
            raise VarianceError("eps_value needs two [U] tensors")
        # eps(e_a, e_b) is 1 for (1, 2), -1 for (2, 1) and 0 on the diagonal
        mate = v.terms.get
        total = _dot((1 if a == 1 else -1, x, y) for (a,), x in u.terms.items() if (y := mate((3 - a,))) is not None)
        return total * self.phase

    def eps_flat(self, u: ScaledTensor) -> ScaledTensor:
        """U -> U*; <eps_flat(u), v> = eps(u, v)."""
        if u.slots != (Variance.U,):
            raise VarianceError("eps_flat needs a [U] tensor")
        # eps(e_a, .) is phase * e^(3 - a), with sign + iff a == 1
        terms = {(3 - a,): x * self.phase if a == 1 else -(x * self.phase) for (a,), x in u.terms.items()}
        return ScaledTensor._trusted(((Variance.U_DUAL,), u.unit - 1), terms)

    def eps_sharp(self, lam: ScaledTensor) -> ScaledTensor:
        """U* -> U; the inverse of eps_flat with a sign: eps_sharp(eps_flat(u)) = -u."""
        if lam.slots != (Variance.U_DUAL,):
            raise VarianceError("eps_sharp needs a [U*] tensor")
        inv_phase = self.phase.conj()  # unit modulus; the sign rule of eps_flat
        terms = {(3 - b,): x * inv_phase if b == 1 else -(x * inv_phase) for (b,), x in lam.terms.items()}
        return ScaledTensor._trusted(((Variance.U,), lam.unit + 1), terms)

    def epsbar_flat(self, ub: ScaledTensor) -> ScaledTensor:
        """Ubar -> Ubar*, the conjugate of eps_flat."""
        if ub.slots != (Variance.U_BAR,):
            raise VarianceError("epsbar_flat needs a [Ubar] tensor")
        return self.eps_flat(ub.conj()).conj()

    # -- Minkowski pairing ----------------------------------------------------

    def g_pairing(self, y: ScaledTensor, yp: ScaledTensor) -> Scalar:
        """g(u (x) vbar, u' (x) v'bar) = eps(u, u') epsbar(vbar, v'bar).

        In components, g(y, y') = y11 y'22 + y22 y'11 - y12 y'21 - y21 y'12:
        eps(e_a, e_c) epsbar(e_b, e_d) is nonzero only for c = 3 - a and
        d = 3 - b, where it is 1 if a == b and -1 otherwise.  The phase enters
        as |phase|^2 = 1, so g is phase-independent.
        """
        _require_uu(y, "g_pairing")
        _require_uu(yp, "g_pairing")
        unit, unit_p = y.shape[1], yp.shape[1]
        # the common pair (1, 1) is tested first: it skips a Fraction addition, a third of the call's time
        if not (unit == 1 and unit_p == 1) and unit + unit_p != 2:
            raise UnitMismatchError(
                f"g needs total unit exponent 2, got {unit} + {unit_p}"
            )
        mate = yp.terms.get
        return _dot(
            (1 if a == b else -1, x, z) for (a, b), x in y.terms.items() if (z := mate((3 - a, 3 - b))) is not None
        )

    # -- Pauli tetrad -----------------------------------------------------------

    def pauli_tetrad(self, b1: ScaledTensor, b2: ScaledTensor):
        """Four Hermitian elements built from a basis of U via Pauli matrices.

        The Gram matrix under g is |eps(b1,b2)|^2 * diag(1,-1,-1,-1); it equals
        the Minkowski matrix exactly when the basis is eps-unimodular and the
        basis vectors carry the standard half unit.
        """
        for b in (b1, b2):
            if b.slots != (Variance.U,):
                raise VarianceError("pauli_tetrad needs [U] tensors")
        if b1.unit != b2.unit:
            raise UnitMismatchError("basis spinors must carry equal unit exponents")
        if self.eps_value(b1, b2).is_zero():
            raise DegenerateBasisError("basis spinors are linearly dependent")
        c1, c2 = b1.conj(), b2.conj()
        t11, t12 = b1.tensor(c1), b1.tensor(c2)
        t21, t22 = b2.tensor(c1), b2.tensor(c2)
        theta0 = (t11 + t22).scaled(_INV_R2)
        theta1 = (t12 + t21).scaled(_INV_R2)
        theta2 = (t21 - t12).scaled(_I_INV_R2)
        theta3 = (t11 - t22).scaled(_INV_R2)
        return theta0, theta1, theta2, theta3

    # -- null decomposition ------------------------------------------------------

    def null_decompose(self, y: ScaledTensor) -> Tuple[int, ScaledTensor]:
        """Write a nonzero isotropic Hermitian y as sign * u (x) ubar.

        The sign +1 marks the future orientation.  u is determined up to a
        unit-modulus scalar; the representative returned is the deterministic
        output of the exact norm-equation solver.  Raises NonNullError,
        ZeroVectorError, or NotFactorableError (the last when the required
        norm equation has no solution in Q(i, sqrt2)).
        """
        from .normsolve import solve_norm

        _require_uu(y, "null_decompose")
        if not is_hermitian(y):
            raise VarianceError("null_decompose needs a Hermitian (dagger-fixed) element")
        if y.is_zero():
            raise ZeroVectorError("zero vector has no null decomposition")
        # g(y, y) = 2 det of the component matrix, independent of the phase
        det = y.get((1, 1)) * y.get((2, 2)) - y.get((1, 2)) * y.get((2, 1))
        g_yy = det * Scalar(2)
        if not g_yy.is_zero():
            raise NonNullError(g_yy)
        sign = mink_trace(y).real_sign()
        if sign == 0:
            # Hermitian, rank one, nonzero: the trace cannot vanish, and one diagonal entry is nonzero
            raise ArithmeticError("nonzero null Hermitian element with zero trace")
        w = y if sign > 0 else -y
        # pivot column j with W[j][j] != 0 spans the image; v0 = column_j / W[j][j]
        pivot = 1 if not w.get((1, 1)).is_zero() else 2
        w_jj = w.get((pivot, pivot))
        v0 = (w.get((1, pivot)) / w_jj, w.get((2, pivot)) / w_jj)
        sigma = solve_norm(w_jj)
        if sigma is None:
            raise NotFactorableError(
                f"null element with pivot norm {w_jj} has no spinor square root over Q(i,sqrt2)"
            )
        half_unit = y.unit / 2
        u = ScaledTensor._trusted(((Variance.U,), half_unit), {(1,): sigma * v0[0], (2,): sigma * v0[1]})
        check = u.tensor(u.conj())
        if ScaledTensor._trusted((_UU, y.unit), check.terms) != w:
            raise ArithmeticError("norm solver returned an inconsistent factor")
        return sign, u


STANDARD = EpsilonStructure()


def eps_flat(u: ScaledTensor) -> ScaledTensor:
    return STANDARD.eps_flat(u)


def eps_sharp(lam: ScaledTensor) -> ScaledTensor:
    return STANDARD.eps_sharp(lam)


def g_pairing(y: ScaledTensor, yp: ScaledTensor) -> Scalar:
    return STANDARD.g_pairing(y, yp)


def pauli_tetrad(b1: ScaledTensor, b2: ScaledTensor):
    return STANDARD.pauli_tetrad(b1, b2)


def null_decompose(y: ScaledTensor) -> Tuple[int, ScaledTensor]:
    return STANDARD.null_decompose(y)
