"""Dirac 4-spinors W = U + Ubar*, the Clifford map, adjoints and observer splits.

W, its dual W* and End W = W (x) W* are sparse ``exactfield.Combination``s,
built from U like every other tensor space of the package.  A Dirac vector
keys its nonzero components by position 0..3 in the induced basis
(e1, e2, ebar*1, ebar*2), a dual vector by position in the dual basis
(e*1, e*2, ebar1, ebar2), and both carry their unit offset as shape; an
endomorphism keys its nonzero matrix entries by (row, col) in the same order.
``components`` and ``rows`` are their dense views.  The gamma map restricted
to Hermitian elements satisfies the Clifford relation
gamma[y] gamma[y'] + gamma[y'] gamma[y] = 2 g(y,y') id, with the normalization
fixed by the sqrt2 factor of the defining formula and frozen into the tests by
a matrix oracle.  The symplectic form enters gamma only as |phase|^2 = 1, so
the Dirac map and the observer splits take no phase; charge conjugation,
which rephasing does rescale, takes the symplectic form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .exactfield import Combination, Scalar, UnitMismatchError, _dot, _reduced, shape_field
from .spintensor import (
    _INV_R2,
    EpsilonStructure,
    STANDARD,
    ScaledTensor,
    Variance,
    VarianceError,
    _require_uu,
    is_hermitian,
    mink_trace,
)

_ZERO = Scalar.zero()


class ObserverError(ValueError):
    """The tensor does not define a valid observer."""


def _require(operand, kind: type, what: str):
    if not isinstance(operand, kind):
        raise VarianceError(f"{what} takes a {kind.__name__}, not a {type(operand).__name__}")


def _sum_products(products) -> dict:
    """{key: the sum of x * y over the (key, x, y) triples with that key}, each summed by one `_dot`."""
    groups = {}
    for key, x, y in products:
        groups.setdefault(key, []).append((1, x, y))
    return {key: _dot(triples) for key, triples in groups.items()}


class _Spinor(Combination):
    """Four components keyed by basis position 0..3, with the unit offset as shape."""

    __slots__ = ()
    _error = VarianceError
    unit = shape_field(0, "The overall unit offset, a Fraction.", UnitMismatchError, "unit")

    def __init__(self, components, unit: Fraction = Fraction(0)):
        comps = [Scalar.coerce(c) for c in components]
        if len(comps) != 4:
            raise VarianceError(f"{type(self).__name__} needs 4 components")
        self._fill((Fraction(unit),), dict(enumerate(comps)))

    @property
    def components(self) -> Tuple[Scalar, ...]:
        """The four components in basis order, zeros included."""
        return tuple(self.terms.get(k, _ZERO) for k in range(4))


class DiracVector(_Spinor):
    """Element of W = U + Ubar*: components (u^1, u^2, lbar_1, lbar_2) and a unit offset."""

    __slots__ = ()

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
        terms = {k - 1: c for (k,), c in u_part.terms.items()}
        terms.update((k + 1, c) for (k,), c in lbar_part.terms.items())
        return cls._trusted((extra_u,), terms)

    @property
    def u_part(self) -> ScaledTensor:
        terms = {(k + 1,): c for k, c in self.terms.items() if k < 2}
        return ScaledTensor._trusted(((Variance.U,), Fraction(1, 2) + self.unit), terms)

    @property
    def lbar_part(self) -> ScaledTensor:
        terms = {(k - 1,): c for k, c in self.terms.items() if k >= 2}
        return ScaledTensor._trusted(((Variance.U_BAR_DUAL,), Fraction(-1, 2) + self.unit), terms)

    def __str__(self) -> str:
        u1, u2, l1, l2 = self.components
        return f"dirac (u: [{u1}, {u2}], lbar: [{l1}, {l2}])"

    __repr__ = __str__


class DualDiracVector(_Spinor):
    """Element of W* = U* + Ubar in components (lambda_1, lambda_2, ubar^1, ubar^2)."""

    __slots__ = ()

    def pair(self, psi: DiracVector) -> Scalar:
        """Natural duality pairing with W."""
        _require(psi, DiracVector, "pair")
        mate = psi.terms.get
        return _dot((1, a, b) for k, a in self.terms.items() if (b := mate(k)) is not None)

    def compose(self, m: "EndW") -> "DualDiracVector":
        """The functional phi -> self(m phi); row-vector times matrix."""
        _require(m, EndW, "compose")
        mate = self.terms.get
        products = ((j, a, x) for (i, j), x in m.terms.items() if (a := mate(i)) is not None)
        return DualDiracVector._trusted(self.shape, _sum_products(products))

    def __str__(self) -> str:
        l1, l2, u1, u2 = self.components
        return f"dualdirac (lambda: [{l1}, {l2}], ubar: [{u1}, {u2}])"

    __repr__ = __str__


class EndW(Combination):
    """Endomorphism of W: its nonzero matrix entries keyed by (row, col) in the induced basis."""

    __slots__ = ()
    _error = VarianceError

    def __init__(self, rows):
        rows = [[Scalar.coerce(x) for x in row] for row in rows]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise VarianceError("EndW needs a 4x4 matrix")
        self._fill((), {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)})

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The 4x4 matrix, zeros included."""
        return tuple(tuple(self.terms.get((i, j), _ZERO) for j in range(4)) for i in range(4))

    @classmethod
    def identity(cls) -> "EndW":
        return cls._trusted((), {(i, i): Scalar.one() for i in range(4)})

    @classmethod
    def zero(cls) -> "EndW":
        return cls._trusted((), {})

    def __mul__(self, other):
        """Composition with another endomorphism."""
        if not isinstance(other, EndW):
            return NotImplemented
        other_rows = {}
        for (k, j), y in other.terms.items():
            other_rows.setdefault(k, []).append((j, y))
        products = (((i, j), x, y) for (i, k), x in self.terms.items() for j, y in other_rows.get(k, ()))
        return EndW._trusted((), _sum_products(products))

    def apply(self, psi: DiracVector) -> DiracVector:
        _require(psi, DiracVector, "apply")
        mate = psi.terms.get
        products = ((i, x, c) for (i, j), x in self.terms.items() if (c := mate(j)) is not None)
        return DiracVector._trusted(psi.shape, _sum_products(products))

    __call__ = apply

    def __str__(self) -> str:
        """Row-major 4x4 matrix of scalar literals."""
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows) + "]"

    __repr__ = __str__


# -- the Dirac map ---------------------------------------------------------------


def gamma(y: ScaledTensor) -> EndW:
    """gamma[p (x) qbar](u, lbar) = sqrt2 (<lbar, qbar> p, eps(p, u) epsbar_flat(qbar)).

    Linear in y; on Hermitian y it is the Dirac map, a Clifford map for g.
    """
    _require_uu(y, "gamma")
    if y.unit != 1:
        raise UnitMismatchError("gamma needs the standard unit exponent 1")
    terms = {}
    for (a, b), v in y.terms.items():
        # sqrt2 * (p + q i + r sqrt2 + s i sqrt2) / n = (2r + 2s i + p sqrt2 + q i sqrt2) / n
        p, q, r, s, n = v.ints
        r2v = _reduced(2 * r, 2 * s, p, q, n)
        # upper-right block: out_u^a += sqrt2 * y^{ab} * lbar_b
        terms[(a - 1, b + 1)] = r2v
        # lower-left block: out_lbar_d += sqrt2 * y^{ab} eps_{ac} epsbar_{bd} u^c; only
        # c = 3 - a and d = 3 - b contribute, with eps_{12} = 1 and eps_{21} = -1
        # (the phase enters as phase * conj(phase) = 1)
        terms[(4 - b, 2 - a)] = r2v if a == b else -r2v
    return EndW._trusted((), terms)


# -- Dirac adjunction and the Hermitian form k -----------------------------------


def dirac_adjoint(psi: DiracVector) -> DualDiracVector:
    """The conjugate-swap map (u, lbar) -> (lambda, ubar), landing in W*."""
    return DualDiracVector._trusted((-psi.unit,), {(k + 2) % 4: c.conj() for k, c in psi.terms.items()})


def k_form(psi: DiracVector, phi: DiracVector) -> Scalar:
    """k(psi, phi) = <dirac_adjoint(psi), phi>; Hermitian of signature (++--)."""
    return dirac_adjoint(psi).pair(phi)


def w_basis() -> Tuple[DiracVector, ...]:
    return tuple(DiracVector._trusted((Fraction(0),), {i: Scalar.one()}) for i in range(4))


def k_hermiticity_check(y: ScaledTensor) -> bool:
    """True iff k(gamma[y] psi, phi) = k(psi, gamma[y] phi) on the whole basis.

    On basis vectors the two sides are conj(M[s(j)][i]) and M[s(i)][j], where
    M = gamma[y] and s swaps the two chiral blocks (the Gram matrix of k); so
    the check is that conjugating M's entries and moving (r, c) to (s(c), s(r))
    gives M back.
    """
    terms = gamma(y).terms
    return terms == {((c + 2) % 4, (r + 2) % 4): v.conj() for (r, c), v in terms.items()}


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


def is_observer(tau: ScaledTensor) -> bool:
    """g-normalized, future-oriented, timelike Hermitian element with unit 1."""
    if tau.slots != (Variance.U, Variance.U_BAR) or tau.unit != 1 or not is_hermitian(tau):
        return False
    return STANDARD.g_pairing(tau, tau) == Scalar.one() and mink_trace(tau).real_sign() > 0


def observer_projectors(tau: ScaledTensor) -> Tuple[EndW, EndW]:
    """The eigenprojectors (1 +/- gamma[tau]) / 2 of a valid observer."""
    if not is_observer(tau):
        raise ObserverError(
            "observer must be Hermitian with g(tau,tau) = 1 and positive trace"
        )
    g_tau = gamma(tau)
    half = Scalar(Fraction(1, 2))
    ident = EndW.identity()
    return (ident + g_tau).scaled(half), (ident - g_tau).scaled(half)


def observer_split(tau: ScaledTensor, psi: DiracVector) -> Tuple[DiracVector, DiracVector]:
    """psi = psi_plus + psi_minus with gamma[tau] psi_pm = +/- psi_pm."""
    p_plus, p_minus = observer_projectors(tau)
    return p_plus(psi), p_minus(psi)


# -- observer Hermitian metrics and the dagger -------------------------------------

_H_SLOTS = (Variance.U_BAR_DUAL, Variance.U_DUAL)


def check_positive_metric(h: ScaledTensor):
    """h's 2x2 matrix and its determinant, after checking Hermitian positivity by exact trace and det signs."""
    if h.slots != _H_SLOTS:
        raise VarianceError(f"observer metric needs slots [Ubar*,U*], got {h.slots}")
    if h.unit != -1:
        raise UnitMismatchError("observer metric needs unit exponent -1")
    m = [[h.get((a, b)) for b in (1, 2)] for a in (1, 2)]
    if m[0][1] != m[1][0].conj() or not m[0][0].is_real() or not m[1][1].is_real():
        raise ObserverError("observer metric must be Hermitian")
    trace = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if trace.real_sign() <= 0 or det.real_sign() <= 0:
        raise ObserverError(f"observer metric is not positive: trace={trace}, det={det}")
    return m, det


def _adjugate(m):
    """The adjugate [[d, -b], [-c, a]] of the 2x2 matrix [[a, b], [c, d]]: m times it is det(m) id."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def observer_dagger(h: ScaledTensor, psi: DiracVector) -> DualDiracVector:
    """The anti-isomorphism psi -> psi-dagger induced by a positive metric h.

    Composing with gamma of the associated observer recovers the Dirac adjoint
    (for det h = 1): dirac_adjoint(psi) = observer_dagger(h, psi) o gamma[tau_h].
    """
    m, det = check_positive_metric(h)
    inv_det = det.inverse()
    k = [[x * inv_det for x in row] for row in _adjugate(m)]
    u1, u2, l1, l2 = psi.components
    ub = (u1.conj(), u2.conj())
    lam = (l1.conj(), l2.conj())
    out_l = tuple(ub[0] * m[0][b] + ub[1] * m[1][b] for b in range(2))
    out_u = tuple(lam[0] * k[0][a] + lam[1] * k[1][a] for a in range(2))
    return DualDiracVector._trusted((-psi.unit,), dict(enumerate(out_l + out_u)))


def observer_vector(h: ScaledTensor) -> ScaledTensor:
    """The normalized observer identified with a positive metric of determinant 1."""
    m, det = check_positive_metric(h)
    if det != Scalar.one():
        raise ObserverError(f"normalized observer needs det h = 1 exactly, got {det}")
    terms = {(a, b): x * _INV_R2 for a, row in enumerate(_adjugate(m), 1) for b, x in enumerate(row, 1)}
    return ScaledTensor._trusted(((Variance.U, Variance.U_BAR), Fraction(1)), terms)
