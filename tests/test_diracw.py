"""Dirac spinor space: gamma map, adjoint form k, charge conjugation, observers."""

from fractions import Fraction

import pytest
import sympy

from helpers import assert_refuses, endw_to_sympy, random_mink, refusal_ids, spin_frame
from spinorkit.diracw import (
    DiracVector,
    EndW,
    ObserverError,
    charge_conjugate,
    dirac_adjoint,
    gamma,
    is_observer,
    k_form,
    k_hermiticity_check,
    observer_dagger,
    observer_projectors,
    observer_split,
    observer_vector,
    w_basis,
)
from spinorkit.exactfield import Scalar, UnitMismatchError
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.spintensor import (
    EpsilonStructure,
    ScaledTensor,
    Variance,
    VarianceError,
    e,
    ebar,
    ebarstar,
    g_pairing,
    pauli_tetrad,
)

I = Scalar.i()
R2 = Scalar.sqrt2()

T11 = e(1).tensor(ebar(1))
T22 = e(2).tensor(ebar(2))
T0 = T11 + T22
THETA = pauli_tetrad(e(1), e(2))


def dirac(u1=0, u2=0, l1=0, l2=0):
    return DiracVector((Scalar.coerce(u1), Scalar.coerce(u2), Scalar.coerce(l1), Scalar.coerce(l2)))


def random_dirac(rng):
    return DiracVector(tuple(random_scalar(rng) for _ in range(4)))


def test_gamma_on_basis_vector():
    # gamma[e1 (x) ebar1] sends (e2, 0) to (0, sqrt2 ebar*2): direct substitution
    # with eps(e1, e2) = 1 and epsbar_flat(ebar1) = ebar*2
    out = gamma(T11)(dirac(u2=1))
    assert out == dirac(l2=R2)
    assert gamma(T11)(dirac(u1=1)).is_zero()


def test_gamma_null_square_is_zero():
    g11 = gamma(T11)
    assert g11 * g11 == EndW.zero()
    # independent 4x4 oracle through sympy
    m = endw_to_sympy(g11)
    assert (m * m).is_zero_matrix


def test_gamma_t0_squares_to_two():
    gt = gamma(T0)
    two_id = EndW.identity().scaled(Scalar(2))
    assert gt * gt == two_id
    m = endw_to_sympy(gt)
    assert (m * m - 2 * sympy.eye(4)).is_zero_matrix
    assert g_pairing(T0, T0) == Scalar(2)


def test_gamma_is_linear():
    rng = SplitMix64(41)
    y, yp = random_mink(rng), random_mink(rng)
    c = random_scalar(rng)
    lhs = gamma(ScaledTensor(y.slots, {
        k: (y.get(k) * c + yp.get(k)) for k in set(y.terms) | set(yp.terms)
    }, y.unit))
    assert lhs == gamma(y).scaled(c) + gamma(yp)


def test_clifford_relation_random():
    rng = SplitMix64(4242)
    two = Scalar(2)
    for _ in range(100):
        y, yp = random_mink(rng), random_mink(rng)
        gy, gyp = gamma(y), gamma(yp)
        anti = gy * gyp + gyp * gy
        assert anti == EndW.identity().scaled(two * g_pairing(y, yp))


def test_gamma_invariant_under_phase():
    # gamma takes no phase: it must equal the defining formula
    # sqrt2 (<lbar, qbar> p, eps(p, u) epsbar_flat(qbar)) built with eps of phase i
    rot = EpsilonStructure(I)
    for a in (1, 2):
        for b in (1, 2):
            p, qbar = e(a), ebar(b)
            g_y = gamma(p.tensor(qbar))
            for psi in w_basis():
                pairing = psi.lbar_part.tensor(qbar).contract(0, 1).get(())
                expected = DiracVector.from_parts(
                    p.scaled(R2 * pairing),
                    rot.epsbar_flat(qbar).scaled(R2 * rot.eps_value(p, psi.u_part)),
                )
                assert g_y(psi) == expected


def test_k_values_witness_signature():
    # diagonal vectors of the split are null for k; mixed ones give +/-2
    assert k_form(dirac(u1=1), dirac(u1=1)).is_zero()
    psi_plus = dirac(u1=1, l1=1)
    psi_minus = dirac(u1=1, l1=-1)
    assert k_form(psi_plus, psi_plus) == Scalar(2)
    assert k_form(psi_minus, psi_minus) == Scalar(-2)
    # the four witnesses (+2, +2, -2, -2)
    witnesses = [
        dirac(u1=1, l1=1),
        dirac(u2=1, l2=1),
        dirac(u1=1, l1=-1),
        dirac(u2=1, l2=-1),
    ]
    values = [k_form(w, w) for w in witnesses]
    assert values == [Scalar(2), Scalar(2), Scalar(-2), Scalar(-2)]
    # witnesses are k-orthogonal, so they diagonalize k
    for i, a in enumerate(witnesses):
        for b in witnesses[i + 1:]:
            assert k_form(a, b).is_zero()


def test_k_is_hermitian_sesquilinear():
    rng = SplitMix64(77)
    for _ in range(50):
        psi, phi = random_dirac(rng), random_dirac(rng)
        assert k_form(psi, phi) == k_form(phi, psi).conj()
        c = random_scalar(rng)
        assert k_form(psi, phi.scaled(c)) == k_form(psi, phi) * c
        assert k_form(psi.scaled(c), phi) == c.conj() * k_form(psi, phi)


def test_gamma_is_k_hermitian_on_h():
    basis = w_basis()
    for theta in THETA:
        assert k_hermiticity_check(theta)
        # independent oracle: the defining equation on every basis pair
        g_theta = gamma(theta)
        for psi in basis:
            for phi in basis:
                assert k_form(g_theta(psi), phi) == k_form(psi, g_theta(phi))
    rng = SplitMix64(123)
    for _ in range(40):
        y = random_mink(rng)
        assert k_hermiticity_check(y)
        if not y.is_zero():
            assert not k_hermiticity_check(y.scaled(I))


def test_charge_conjugation_examples():
    # (e1, 0) -> (0, epsbar_flat(ebar1)) = (0, ebar*2)
    assert charge_conjugate(dirac(u1=1)) == dirac(l2=1)
    # (0, ebar*1) -> (eps_sharp(e*1), 0) = (e2, 0)
    assert charge_conjugate(dirac(l1=1)) == dirac(u2=1)
    # anti-linearity
    psi = dirac(u1=I)
    assert charge_conjugate(psi) == charge_conjugate(dirac(u1=1)).scaled(-I)


def test_charge_conjugation_squares_to_minus_one():
    rng = SplitMix64(31)
    for _ in range(60):
        psi = random_dirac(rng)
        assert charge_conjugate(charge_conjugate(psi)) == -psi


def test_charge_conjugation_phase_covariance():
    # rebuilding eps with phase i rescales C by conj(i) = -i
    rot = EpsilonStructure(I)
    rng = SplitMix64(37)
    for _ in range(40):
        psi = random_dirac(rng)
        assert charge_conjugate(psi, rot) == charge_conjugate(psi).scaled(-I)


def trace(m: EndW) -> Scalar:
    return sum((m.rows[i][i] for i in range(4)), Scalar.zero())


def test_observer_projectors_algebra():
    p_plus, p_minus = observer_projectors(THETA[0])
    ident = EndW.identity()
    assert p_plus * p_plus == p_plus
    assert p_minus * p_minus == p_minus
    assert p_plus * p_minus == EndW.zero()
    assert p_plus + p_minus == ident
    # an idempotent's rank is its trace
    assert trace(p_plus) == trace(p_minus) == Scalar(2)
    gt = gamma(THETA[0])
    assert gt * gt == ident


def test_observer_split_eigenvectors():
    rng = SplitMix64(55)
    p_plus, _ = observer_projectors(THETA[0])
    g0 = gamma(THETA[0])
    for _ in range(30):
        phi = random_dirac(rng)
        psi = p_plus(phi)
        plus, minus = observer_split(THETA[0], psi)
        assert minus.is_zero()
        assert plus == psi
        assert g0(psi) == psi
        full_plus, full_minus = observer_split(THETA[0], phi)
        assert full_plus + full_minus == phi
        assert g0(full_plus) == full_plus
        assert g0(full_minus) == -full_minus


def test_observer_split_rejects_bad_tau():
    with pytest.raises(ObserverError):
        observer_split(THETA[3], dirac(u1=1))  # spacelike, g = -1
    with pytest.raises(ObserverError):
        observer_split(T0, dirac(u1=1))  # timelike but g = 2
    with pytest.raises(ObserverError):
        observer_split(THETA[0].scaled(Scalar(-1)), dirac(u1=1))  # past-oriented
    assert is_observer(THETA[0])
    assert not is_observer(THETA[1])


def h_metric(h11, h12, h21, h22) -> ScaledTensor:
    return ScaledTensor(
        (Variance.U_BAR_DUAL, Variance.U_DUAL),
        {(1, 1): Scalar.coerce(h11), (1, 2): Scalar.coerce(h12),
         (2, 1): Scalar.coerce(h21), (2, 2): Scalar.coerce(h22)},
        Fraction(-1),
    )


H_STD = h_metric(1, 0, 0, 1)


def random_unit_det_metric(rng):
    """h = A Adag with det A = 1: positive Hermitian with determinant 1."""
    x, y = random_scalar(rng), random_scalar(rng)
    # A = [[1, x], [0, 1]] * [[1, 0], [y, 1]]
    a = [[Scalar.one() + x * y, x], [y, Scalar.one()]]
    rows = [
        [
            sum((a[i][k] * a[j][k].conj() for k in range(2)), Scalar.zero())
            for j in range(2)
        ]
        for i in range(2)
    ]
    return h_metric(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def test_observer_vector_standard():
    assert observer_vector(H_STD) == THETA[0]
    assert is_observer(observer_vector(H_STD))


def test_observer_dagger_positivity():
    psi = dirac(u1=1)
    dag = observer_dagger(H_STD, psi)
    assert dag.pair(psi) == Scalar.one()
    rng = SplitMix64(808)
    for _ in range(40):
        h = random_unit_det_metric(rng)
        phi = random_dirac(rng)
        value = observer_dagger(h, phi).pair(phi)
        assert value.is_real() and value.real_sign() >= 0


def test_dirac_adjoint_factors_through_dagger():
    # dirac_adjoint(psi) = observer_dagger(h, psi) o gamma[tau_h], exactly
    rng = SplitMix64(909)
    for _ in range(100):
        psi = random_dirac(rng)
        lhs = dirac_adjoint(psi)
        rhs = observer_dagger(H_STD, psi).compose(gamma(observer_vector(H_STD)))
        assert lhs == rhs
    for _ in range(25):
        h = random_unit_det_metric(rng)
        tau = observer_vector(h)
        assert is_observer(tau)
        psi = random_dirac(rng)
        assert dirac_adjoint(psi) == observer_dagger(h, psi).compose(gamma(tau))


def test_observer_dagger_rejects_non_positive():
    with pytest.raises(ObserverError):
        observer_dagger(h_metric(1, 0, 0, -1), dirac(u1=1))
    with pytest.raises(ObserverError):
        observer_dagger(h_metric(-1, 0, 0, -1), dirac(u1=1))
    with pytest.raises(ObserverError):
        observer_dagger(h_metric(1, 1, -1, 1), dirac(u1=1))  # not Hermitian
    with pytest.raises(ObserverError):
        observer_vector(h_metric(2, 0, 0, 1))  # positive but det != 1


def test_observer_dagger_scales_with_the_metric():
    # the U* half is linear in h and the Ubar half goes through adj(h) / det h, so h -> c h
    # scales the first two components by c and the last two by 1 / c
    rng = SplitMix64(313)
    for c in (Scalar(2), Scalar(Fraction(1, 3)), Scalar(Fraction(7, 2))):
        for h in (H_STD, h_metric(2, I, -I, 1), random_unit_det_metric(rng), h_metric(3, 1 + I, 1 - I, 5)):
            psi = random_dirac(rng)
            want = observer_dagger(h, psi).components
            got = observer_dagger(h.scaled(c), psi).components
            assert got[:2] == tuple(x * c for x in want[:2])
            assert got[2:] == tuple(x / c for x in want[2:])


def test_observer_metric_refuses_the_wrong_slots_and_unit():
    wrong_slots = ScaledTensor((Variance.U_DUAL, Variance.U_BAR_DUAL), H_STD.terms, Fraction(-1))
    wrong_unit = ScaledTensor(H_STD.slots, H_STD.terms, Fraction(-2))
    for call in (observer_dagger, lambda h, psi: observer_vector(h)):
        with pytest.raises(VarianceError, match=r"observer metric needs slots \[Ubar\*,U\*\]"):
            call(wrong_slots, dirac(u1=1))
        with pytest.raises(UnitMismatchError, match="observer metric needs unit exponent -1"):
            call(wrong_unit, dirac(u1=1))


def test_projector_ranks_for_random_observers():
    rng = SplitMix64(60)
    for _ in range(20):
        b1, b2 = spin_frame(rng)
        tau = pauli_tetrad(b1, b2)[0]
        if mink_future(tau):
            p_plus, p_minus = observer_projectors(tau)
            # idempotents of trace 2, so both of rank 2
            assert p_plus * p_plus == p_plus and p_minus * p_minus == p_minus
            assert trace(p_plus) == trace(p_minus) == Scalar(2)


def mink_future(tau):
    from spinorkit.spintensor import mink_trace

    return mink_trace(tau).real_sign() > 0


def test_basis_is_orthonormal_for_pairing():
    basis = w_basis()
    for i, psi in enumerate(basis):
        adj = dirac_adjoint(psi)
        # adjoint of a basis vector pairs to the k Gram matrix row
        gram_row = [k_form(psi, phi) for phi in basis]
        expected = [Scalar.zero()] * 4
        expected[(i + 2) % 4] = Scalar.one()
        assert gram_row == expected
        assert adj.pair(basis[(i + 2) % 4]) == Scalar.one()


def reference_endw_mul(m: EndW, n: EndW) -> EndW:
    """The product as accumulated products with chained +, kept as a reference."""
    n_rows = {}
    for (k, j), y in n.terms.items():
        n_rows.setdefault(k, []).append((j, y))
    terms = {}
    for (i, k), x in m.terms.items():
        for j, y in n_rows.get(k, ()):
            terms[(i, j)] = terms.get((i, j), Scalar.zero()) + x * y
    return EndW([[terms.get((i, j), 0) for j in range(4)] for i in range(4)])


def test_fused_products_match_chained_references():
    rng = SplitMix64(8080)
    eps = EpsilonStructure()
    for _ in range(60):
        y, yp = random_mink(rng), random_mink(rng)
        tetrad = pauli_tetrad(*spin_frame(rng, eps))
        sparse = EndW([[random_scalar(rng) if rng.randint(0, 2) else 0 for _ in range(4)] for _ in range(4)])
        mats = [gamma(y), gamma(yp), sparse, EndW.zero(), EndW.identity()] + [gamma(t) for t in tetrad]
        for m in mats:
            for n in mats:
                assert m * n == reference_endw_mul(m, n)
        psi, phi = random_dirac(rng), random_dirac(rng)
        for m in mats:
            rows = m.rows
            assert m(psi).components == tuple(
                sum((rows[i][j] * psi.components[j] for j in range(4)), Scalar.zero()) for i in range(4)
            )
        adj = dirac_adjoint(psi)
        assert adj.pair(phi) == sum((a * b for a, b in zip(adj.components, phi.components)), Scalar.zero())


def test_operands_of_the_wrong_space_are_refused():
    # a W* vector is not read as its components in W, nor a W vector as End W
    psi = dirac(u1=1, l2=R2)
    adj = dirac_adjoint(psi)
    g = gamma(T11)
    for call in (
        lambda: g.apply(adj),
        lambda: g(adj),
        lambda: adj.pair(adj),
        lambda: adj.pair(g),
        lambda: adj.compose(psi),
        lambda: adj.compose(adj),
    ):
        with pytest.raises(VarianceError):
            call()
    assert g.apply(psi) == g(psi) and adj.pair(psi) == k_form(psi, psi)
    assert adj.compose(EndW.identity()) == adj


# (call, error, message): each shape, slot and unit refusal of bad input
DIRACW_REFUSALS = [
    (lambda: DiracVector([1, 0, 0]), VarianceError, "DiracVector needs 4 components"),
    (lambda: DiracVector.from_parts(ebar(1), ebarstar(1)), VarianceError, "u_part must have slots [U]"),
    (lambda: DiracVector.from_parts(e(1), ebar(1)), VarianceError, "lbar_part must have slots [Ubar*]"),
    (
        lambda: DiracVector.from_parts(e(1), ScaledTensor((Variance.U_BAR_DUAL,), {(1,): Scalar(1)}, 0)),
        UnitMismatchError, "parts carry inconsistent unit offsets",
    ),
    (lambda: EndW([[1]]), VarianceError, "EndW needs a 4x4 matrix"),
    (
        lambda: gamma(ScaledTensor((Variance.U, Variance.U_BAR), {(1, 1): Scalar(1)}, 0)), UnitMismatchError,
        "gamma needs the standard unit exponent 1",
    ),
]


@pytest.mark.parametrize("call, error, message", DIRACW_REFUSALS, ids=refusal_ids(DIRACW_REFUSALS))
def test_refusals_name_their_error(call, error, message):
    assert_refuses(call, error, message)
