"""Dirac 4-spinors W = U + Ubar*, the Clifford map, adjoints and observer splits.

Components live in the induced basis (e1, e2, ebar*1, ebar*2), in this order;
endomorphisms are 4x4 matrices of exact scalars in the same order.  The gamma
map restricted to Hermitian elements satisfies the Clifford relation
gamma[y] gamma[y'] + gamma[y'] gamma[y] = 2 g(y,y') id, with the normalization
fixed by the sqrt2 factor of the defining formula and frozen into the tests by
a matrix oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .exactfield import Scalar, UnitMismatchError
from .spintensor import (
    EpsilonStructure,
    STANDARD,
    ScaledTensor,
    Variance,
    VarianceError,
    is_hermitian,
    mink_trace,
)

_R2 = Scalar.sqrt2()
_J = ((0, 1), (-1, 0))


class ObserverError(ValueError):
    """The tensor does not define a valid observer."""


class DiracVector:
    """Element of W = U + Ubar* as four components plus an overall unit offset."""

    __slots__ = ("components", "unit")

    def __init__(self, components, unit: Fraction = Fraction(0)):
        comps = tuple(Scalar.coerce(c) for c in components)
        if len(comps) != 4:
            raise VarianceError("DiracVector needs 4 components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "unit", Fraction(unit))

    def __setattr__(self, name, value):
        raise AttributeError("DiracVector is immutable")

    @classmethod
    def from_parts(cls, u_part: ScaledTensor, lbar_part: ScaledTensor) -> "DiracVector":
        if u_part.slots != (Variance.U,):
            raise VarianceError("u_part must have slots [U]")
        if lbar_part.slots != (Variance.U_BAR_DUAL,):
            raise VarianceError("lbar_part must have slots [Ubar*]")
        extra_u = u_part.unit - Fraction(1, 2)
        extra_l = lbar_part.unit + Fraction(1, 2)
        if extra_u != extra_l:
            raise UnitMismatchError("parts carry inconsistent unit offsets")
        return cls(
            (u_part.get((1,)), u_part.get((2,)), lbar_part.get((1,)), lbar_part.get((2,))),
            extra_u,
        )

    @property
    def u_part(self) -> ScaledTensor:
        terms = {(1,): self.components[0], (2,): self.components[1]}
        return ScaledTensor._trusted(((Variance.U,), Fraction(1, 2) + self.unit), terms)

    @property
    def lbar_part(self) -> ScaledTensor:
        terms = {(1,): self.components[2], (2,): self.components[3]}
        return ScaledTensor._trusted(((Variance.U_BAR_DUAL,), Fraction(-1, 2) + self.unit), terms)

    def __add__(self, other: "DiracVector") -> "DiracVector":
        if self.unit != other.unit:
            raise UnitMismatchError("cannot add Dirac vectors with different units")
        return DiracVector(
            tuple(a + b for a, b in zip(self.components, other.components)), self.unit
        )

    def __sub__(self, other: "DiracVector") -> "DiracVector":
        return self + -other

    def __neg__(self) -> "DiracVector":
        return DiracVector(tuple(-c for c in self.components), self.unit)

    def scaled(self, factor) -> "DiracVector":
        factor = Scalar.coerce(factor)
        return DiracVector(tuple(c * factor for c in self.components), self.unit)

    def __rmul__(self, factor):
        return self.scaled(factor)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiracVector):
            return NotImplemented
        return self.components == other.components and self.unit == other.unit

    def __hash__(self):
        return hash(("DiracVector", self.components, self.unit))

    def __str__(self) -> str:
        u1, u2, l1, l2 = self.components
        return f"dirac (u: [{u1}, {u2}], lbar: [{l1}, {l2}])"

    __repr__ = __str__


class DualDiracVector:
    """Element of W* = U* + Ubar in components (lambda_1, lambda_2, ubar^1, ubar^2)."""

    __slots__ = ("components", "unit")

    def __init__(self, components, unit: Fraction = Fraction(0)):
        comps = tuple(Scalar.coerce(c) for c in components)
        if len(comps) != 4:
            raise VarianceError("DualDiracVector needs 4 components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "unit", Fraction(unit))

    def __setattr__(self, name, value):
        raise AttributeError("DualDiracVector is immutable")

    def pair(self, psi: DiracVector) -> Scalar:
        """Natural duality pairing with W."""
        return sum(
            (a * b for a, b in zip(self.components, psi.components)), Scalar.zero()
        )

    def compose(self, m: "EndW") -> "DualDiracVector":
        """The functional phi -> self(m phi); row-vector times matrix."""
        comps = tuple(
            sum((self.components[i] * m.rows[i][j] for i in range(4)), Scalar.zero())
            for j in range(4)
        )
        return DualDiracVector(comps, self.unit)

    def scaled(self, factor) -> "DualDiracVector":
        factor = Scalar.coerce(factor)
        return DualDiracVector(tuple(c * factor for c in self.components), self.unit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualDiracVector):
            return NotImplemented
        return self.components == other.components and self.unit == other.unit

    def __hash__(self):
        return hash(("DualDiracVector", self.components, self.unit))

    def __str__(self) -> str:
        l1, l2, u1, u2 = self.components
        return f"dualdirac (lambda: [{l1}, {l2}], ubar: [{u1}, {u2}])"

    __repr__ = __str__


class EndW:
    """Endomorphism of W as an exact 4x4 matrix in the induced basis."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Scalar.coerce(x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise VarianceError("EndW needs a 4x4 matrix")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("EndW is immutable")

    @classmethod
    def identity(cls) -> "EndW":
        return cls([[Scalar(int(i == j)) for j in range(4)] for i in range(4)])

    @classmethod
    def zero(cls) -> "EndW":
        return cls([[Scalar.zero()] * 4 for _ in range(4)])

    def __add__(self, other: "EndW") -> "EndW":
        return EndW(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "EndW") -> "EndW":
        return self + -other

    def __neg__(self) -> "EndW":
        return EndW([[-x for x in row] for row in self.rows])

    def scaled(self, factor) -> "EndW":
        factor = Scalar.coerce(factor)
        return EndW([[x * factor for x in row] for row in self.rows])

    def __mul__(self, other):
        """Composition with another endomorphism, or a scalar multiple."""
        if isinstance(other, EndW):
            return EndW(
                [
                    [
                        sum(
                            (self.rows[i][k] * other.rows[k][j] for k in range(4)),
                            Scalar.zero(),
                        )
                        for j in range(4)
                    ]
                    for i in range(4)
                ]
            )
        return self.scaled(other)

    def __rmul__(self, factor):
        return self.scaled(factor)

    def apply(self, psi: DiracVector) -> DiracVector:
        comps = tuple(
            sum((self.rows[i][j] * psi.components[j] for j in range(4)), Scalar.zero())
            for i in range(4)
        )
        return DiracVector(comps, psi.unit)

    __call__ = apply

    def rank(self) -> int:
        """Exact rank by Gaussian elimination over the field."""
        m = [list(row) for row in self.rows]
        rank = 0
        for col in range(4):
            pivot = next(
                (r for r in range(rank, 4) if not m[r][col].is_zero()), None
            )
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = m[rank][col].inverse()
            m[rank] = [x * inv for x in m[rank]]
            for r in range(4):
                if r != rank and not m[r][col].is_zero():
                    factor = m[r][col]
                    m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndW):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(("EndW", self.rows))

    def __str__(self) -> str:
        return format_endw(self)

    __repr__ = __str__


def format_endw(m: EndW) -> str:
    """Row-major 4x4 matrix of scalar literals."""
    rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m.rows)
    return f"[{rows}]"


# -- the Dirac map ---------------------------------------------------------------


def gamma(y: ScaledTensor, eps: EpsilonStructure = STANDARD) -> EndW:
    """gamma[p (x) qbar](u, lbar) = sqrt2 (<lbar, qbar> p, eps(p, u) epsbar_flat(qbar)).

    Linear in y; on Hermitian y it is the Dirac map, a Clifford map for g.
    """
    if y.slots != (Variance.U, Variance.U_BAR):
        raise VarianceError(f"gamma needs slots [U,Ubar], got {y.slots}")
    if y.unit != 1:
        raise UnitMismatchError("gamma needs the standard unit exponent 1")
    rows = [[Scalar.zero() for _ in range(4)] for _ in range(4)]
    # the phase enters as phase * conj(phase) = 1, so gamma is phase-independent
    for (a, b), v in y.terms.items():
        r2v = _R2 * v
        # upper-right block: out_u^a += sqrt2 * y^{ab} * lbar_b
        rows[a - 1][2 + b - 1] = rows[a - 1][2 + b - 1] + r2v
        # lower-left block: out_lbar_d += sqrt2 * y^{ab} eps_{ac} epsbar_{bd} u^c
        for c in (1, 2):
            ja = _J[a - 1][c - 1]
            if not ja:
                continue
            for d in (1, 2):
                jb = _J[b - 1][d - 1]
                if not jb:
                    continue
                cell = rows[2 + d - 1][c - 1]
                rows[2 + d - 1][c - 1] = cell + r2v if ja * jb > 0 else cell - r2v
    return EndW(rows)


# -- Dirac adjunction and the Hermitian form k -----------------------------------


def dirac_adjoint(psi: DiracVector) -> DualDiracVector:
    """The conjugate-swap map (u, lbar) -> (lambda, ubar), landing in W*."""
    u1, u2, l1, l2 = psi.components
    return DualDiracVector((l1.conj(), l2.conj(), u1.conj(), u2.conj()), -psi.unit)


def k_form(psi: DiracVector, phi: DiracVector) -> Scalar:
    """k(psi, phi) = <dirac_adjoint(psi), phi>; Hermitian of signature (++--)."""
    return dirac_adjoint(psi).pair(phi)


def w_basis() -> Tuple[DiracVector, ...]:
    return tuple(
        DiracVector(tuple(Scalar(int(i == j)) for j in range(4))) for i in range(4)
    )


def k_hermiticity_check(y: ScaledTensor, eps: EpsilonStructure = STANDARD) -> bool:
    """True iff k(gamma[y] psi, phi) = k(psi, gamma[y] phi) on the whole basis.

    On basis vectors the two sides are conj(M[s(j)][i]) and M[s(i)][j], where
    M = gamma[y] and s swaps the two chiral blocks (the Gram matrix of k).
    """
    m = gamma(y, eps).rows
    swap = (2, 3, 0, 1)
    for i in range(4):
        for j in range(4):
            if m[swap[i]][j] != m[swap[j]][i].conj():
                return False
    return True


# -- charge conjugation -----------------------------------------------------------


def charge_conjugate(psi: DiracVector, eps: EpsilonStructure = STANDARD) -> DiracVector:
    """C_eps(u, lbar) = (eps_sharp(lambda), epsbar_flat(ubar)); anti-linear.

    Squares to minus the identity under any unit-modulus phase convention;
    rephasing eps by phi rescales the output by conj(phi).
    """
    lam = psi.lbar_part.conj()  # slots [U*]
    ubar = psi.u_part.conj()  # slots [Ubar]
    new_u = eps.eps_sharp(lam)
    new_lbar = eps.epsbar_flat(ubar)
    return DiracVector.from_parts(new_u, new_lbar)


# -- observers ------------------------------------------------------------------


def is_observer(tau: ScaledTensor, eps: EpsilonStructure = STANDARD) -> bool:
    """g-normalized, future-oriented, timelike Hermitian element with unit 1."""
    if tau.slots != (Variance.U, Variance.U_BAR) or tau.unit != 1:
        return False
    if not is_hermitian(tau):
        return False
    det = tau.get((1, 1)) * tau.get((2, 2)) - tau.get((1, 2)) * tau.get((2, 1))
    if det * Scalar(2) != Scalar.one():  # g(tau, tau) = 2 det
        return False
    return mink_trace(tau).real_sign() > 0


def observer_projectors(
    tau: ScaledTensor, eps: EpsilonStructure = STANDARD
) -> Tuple[EndW, EndW]:
    """The eigenprojectors (1 +/- gamma[tau]) / 2 of a valid observer."""
    if not is_observer(tau, eps):
        raise ObserverError(
            "observer must be Hermitian with g(tau,tau) = 1 and positive trace"
        )
    g_tau = gamma(tau, eps)
    half = Scalar(Fraction(1, 2))
    ident = EndW.identity()
    return (ident + g_tau).scaled(half), (ident - g_tau).scaled(half)


def observer_split(
    tau: ScaledTensor, psi: DiracVector, eps: EpsilonStructure = STANDARD
) -> Tuple[DiracVector, DiracVector]:
    """psi = psi_plus + psi_minus with gamma[tau] psi_pm = +/- psi_pm."""
    p_plus, p_minus = observer_projectors(tau, eps)
    return p_plus(psi), p_minus(psi)


# -- observer Hermitian metrics and the dagger -------------------------------------

_H_SLOTS = (Variance.U_BAR_DUAL, Variance.U_DUAL)


def _h_matrix(h: ScaledTensor):
    if h.slots != _H_SLOTS:
        raise VarianceError(f"observer metric needs slots [Ubar*,U*], got {h.slots}")
    if h.unit != -1:
        raise UnitMismatchError("observer metric needs unit exponent -1")
    m = [[h.get((a, b)) for b in (1, 2)] for a in (1, 2)]
    if m[0][1] != m[1][0].conj() or not m[0][0].is_real() or not m[1][1].is_real():
        raise ObserverError("observer metric must be Hermitian")
    return m


def _h_positivity(m) -> Tuple[Scalar, Scalar]:
    trace = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return trace, det


def check_positive_metric(h: ScaledTensor):
    """Hermitian positivity via exact trace and determinant signs."""
    m = _h_matrix(h)
    trace, det = _h_positivity(m)
    if trace.real_sign() <= 0 or det.real_sign() <= 0:
        raise ObserverError(
            f"observer metric is not positive: trace={trace}, det={det}"
        )
    return m, det


def observer_dagger(h: ScaledTensor, psi: DiracVector) -> DualDiracVector:
    """The anti-isomorphism psi -> psi-dagger induced by a positive metric h.

    Composing with gamma of the associated observer recovers the Dirac adjoint
    (for det h = 1): dirac_adjoint(psi) = observer_dagger(h, psi) o gamma[tau_h].
    """
    m, det = check_positive_metric(h)
    inv_det = det.inverse()
    k = [
        [m[1][1] * inv_det, -m[0][1] * inv_det],
        [-m[1][0] * inv_det, m[0][0] * inv_det],
    ]
    u1, u2, l1, l2 = psi.components
    ub = (u1.conj(), u2.conj())
    lam = (l1.conj(), l2.conj())
    out_l = tuple(
        ub[0] * m[0][b] + ub[1] * m[1][b] for b in range(2)
    )
    out_u = tuple(
        lam[0] * k[0][a] + lam[1] * k[1][a] for a in range(2)
    )
    return DualDiracVector(out_l + out_u, -psi.unit)


def observer_vector(
    h: ScaledTensor, eps: EpsilonStructure = STANDARD
) -> ScaledTensor:
    """The normalized observer identified with a positive metric of determinant 1."""
    m, det = check_positive_metric(h)
    if det != Scalar.one():
        raise ObserverError(
            f"normalized observer needs det h = 1 exactly, got {det}"
        )
    inv_r2 = Scalar.one() / _R2
    terms = {
        (1, 1): m[1][1] * inv_r2,
        (1, 2): -m[0][1] * inv_r2,
        (2, 1): -m[1][0] * inv_r2,
        (2, 2): m[0][0] * inv_r2,
    }
    return ScaledTensor._trusted(((Variance.U, Variance.U_BAR), Fraction(1)), terms)
