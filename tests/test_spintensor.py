"""Two-spinor tensor algebra: symplectic form, Minkowski pairing, tetrads, null split."""

from fractions import Fraction

import pytest
import sympy

from helpers import assert_refuses, refusal_ids
from spinorkit.exactfield import Scalar, UnitMismatchError
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.spintensor import (
    DegenerateBasisError,
    EpsilonStructure,
    NonNullError,
    NotFactorableError,
    ScaledTensor,
    Variance,
    VarianceError,
    ZeroVectorError,
    e,
    ebar,
    ebarstar,
    eps_flat,
    eps_sharp,
    estar,
    format_tensor,
    g_pairing,
    hermitian_split,
    hermitian_transpose,
    is_hermitian,
    null_decompose,
    pauli_tetrad,
)
from spinorkit.suites import random_mink, random_spin_frame

I = Scalar.i()
R2 = Scalar.sqrt2()

# hand-coded table eps(e_a, e_b) with the standard phase; the oracle below uses
# it directly instead of going through EpsilonStructure
EPS_TABLE = {(1, 1): Scalar(0), (1, 2): Scalar(1), (2, 1): Scalar(-1), (2, 2): Scalar(0)}


def g_oracle(y: ScaledTensor, yp: ScaledTensor) -> Scalar:
    """Term-by-term expansion of g = eps (x) epsbar on decomposables."""
    total = Scalar.zero()
    for (a, b), x in y.terms.items():
        for (c, d), z in yp.terms.items():
            total = total + x * z * EPS_TABLE[(a, c)] * EPS_TABLE[(b, d)].conj()
    return total


def test_variance_involutions():
    for v in Variance:
        assert v.dual.dual is v
        assert v.conjugate.conjugate is v
        assert v.dual.conjugate is v.conjugate.dual


def test_tensor_units_add_and_mismatch_raises():
    t = e(1).tensor(ebar(1))
    assert t.unit == 1
    assert e(1).unit == Fraction(1, 2)
    assert estar(1).unit == Fraction(-1, 2)
    with pytest.raises(UnitMismatchError):
        t + ScaledTensor(t.slots, t.terms, Fraction(0))
    with pytest.raises(VarianceError):
        e(1) + estar(1)


def test_contract_requires_dual_pair():
    t = e(1).tensor(estar(1))
    assert t.contract(0, 1).get(()) == Scalar.one()
    with pytest.raises(VarianceError):
        e(1).tensor(ebar(1)).contract(0, 1)


def test_hermitian_transpose_examples():
    t = e(1).tensor(ebar(2))
    assert hermitian_transpose(t) == e(2).tensor(ebar(1))
    # dagger is real-linear: it conjugates coefficients
    assert hermitian_transpose(t.scaled(I)) == e(2).tensor(ebar(1)).scaled(-I)
    fixed = e(1).tensor(ebar(1))
    assert hermitian_transpose(fixed) == fixed
    assert hermitian_transpose(hermitian_transpose(t)) == t
    with pytest.raises(VarianceError):
        hermitian_transpose(e(1).tensor(e(2)))


def test_hermitian_split_examples():
    t11 = e(1).tensor(ebar(1))
    h, hp = hermitian_split(t11)
    assert h == t11 and hp.is_zero()

    h, hp = hermitian_split(t11.scaled(I))
    assert h.is_zero() and hp == t11

    # solve the two-term split by hand: t = h + i h' with h, h' dagger-fixed
    t = e(1).tensor(ebar(2))
    half = Scalar(Fraction(1, 2))
    expected_h = (e(1).tensor(ebar(2)) + e(2).tensor(ebar(1))).scaled(half)
    expected_hp = (e(1).tensor(ebar(2)) - e(2).tensor(ebar(1))).scaled(half / I)
    h, hp = hermitian_split(t)
    assert h == expected_h and hp == expected_hp
    assert is_hermitian(h) and is_hermitian(hp)


def test_hermitian_split_recombines():
    rng = SplitMix64(7)
    for _ in range(200):
        entries = {
            (a, b): random_scalar(rng) for a in (1, 2) for b in (1, 2)
        }
        t = ScaledTensor((Variance.U, Variance.U_BAR), entries)
        h, hp = hermitian_split(t)
        assert is_hermitian(h) and is_hermitian(hp)
        assert h + hp.scaled(I) == t


def test_eps_flat_and_sharp():
    assert eps_flat(e(1)) == estar(2)
    assert eps_flat(e(2)) == estar(1).scaled(Scalar(-1))
    assert eps_sharp(eps_flat(e(1))) == e(1).scaled(Scalar(-1))
    assert eps_flat(ScaledTensor.zero((Variance.U,))).is_zero()

    # oracle: build the matrix of eps_flat from eps values, invert with sympy,
    # negate; compare against eps_sharp on the dual basis
    eps = EpsilonStructure()
    flat_matrix = sympy.zeros(2, 2)
    for a in (1, 2):
        lam = eps.eps_flat(e(a))
        for b in (1, 2):
            val = lam.get((b,))
            assert val.ints[1:4] == (0, 0, 0)
            flat_matrix[b - 1, a - 1] = sympy.Rational(val.a)
    sharp_matrix = -flat_matrix.inv()
    for b in (1, 2):
        u = eps.eps_sharp(estar(b))
        for a in (1, 2):
            val = u.get((a,))
            assert sympy.Rational(val.a) == sharp_matrix[a - 1, b - 1]


def test_eps_sharp_inverts_flat_for_any_phase():
    rng = SplitMix64(13)
    for phase in (Scalar.one(), I, (Scalar(3, 4) / Scalar(5))):
        eps = EpsilonStructure(phase)
        for _ in range(40):
            u = ScaledTensor(
                (Variance.U,), {(1,): random_scalar(rng), (2,): random_scalar(rng)}
            )
            assert eps.eps_sharp(eps.eps_flat(u)) == u.scaled(Scalar(-1))


def test_g_pairing_examples():
    t11 = e(1).tensor(ebar(1))
    t22 = e(2).tensor(ebar(2))
    assert g_pairing(t11, t22) == Scalar.one()
    assert g_pairing(t11, t11).is_zero()  # isotropic: of the form u (x) ubar
    t0 = t11 + t22
    assert g_pairing(t0, t0) == Scalar(2)
    assert g_pairing(t0, t0) == g_oracle(t0, t0)


def test_g_pairing_matches_oracle_and_is_symmetric():
    rng = SplitMix64(99)
    for _ in range(150):
        y, yp = random_mink(rng), random_mink(rng)
        v = g_pairing(y, yp)
        assert v == g_oracle(y, yp)
        assert v == g_pairing(yp, y)
        # reality on H: no i or i*sqrt2 component
        assert v.is_real()


def reference_g_pairing(y: ScaledTensor, yp: ScaledTensor) -> Scalar:
    """The pairing as a loop over all 16 index pairs with chained + and -, kept as a reference."""
    total = Scalar.zero()
    for (a, b), x in y.terms.items():
        for (c, d), z in yp.terms.items():
            j = EPS_TABLE[(a, c)] * EPS_TABLE[(b, d)]
            if j:
                total = total + x * z if j == 1 else total - x * z
    return total


def test_g_pairing_closed_form_matches_the_pair_loop():
    rng = SplitMix64(4242)
    eps = EpsilonStructure()
    for _ in range(100):
        y, yp = random_mink(rng), random_mink(rng)
        b1, b2 = random_spin_frame(rng, eps)
        tetrad = pauli_tetrad(b1, b2)
        pairs = [(y, yp), (yp, y), (y, y), (y, ScaledTensor.zero(y.slots))]
        for s, t in pairs + [(s, t) for s in tetrad for t in tetrad]:
            assert g_pairing(s, t) == reference_g_pairing(s, t)
        # eps_value sums its products the same way
        chained = Scalar.zero()
        for (a,), x in b1.terms.items():
            for (c,), z in b2.terms.items():
                chained = chained + x * z * EPS_TABLE[(a, c)]
        assert eps.eps_value(b1, b2) == chained == Scalar.one()


def test_g_pairing_unit_mismatch():
    y = e(1).tensor(ebar(1))
    bad = ScaledTensor(y.slots, y.terms, Fraction(0))
    with pytest.raises(UnitMismatchError):
        g_pairing(y, bad)
    # only the total unit exponent counts: 1/2 + 3/2 pairs as 1 + 1 does
    y2 = e(2).tensor(ebar(2))
    half, three_halves = ScaledTensor(y.slots, y.terms, Fraction(1, 2)), ScaledTensor(y2.slots, y2.terms, Fraction(3, 2))
    assert g_pairing(half, three_halves) == g_pairing(y, y2) == Scalar.one()


MINK = [
    [Scalar(1), Scalar(0), Scalar(0), Scalar(0)],
    [Scalar(0), Scalar(-1), Scalar(0), Scalar(0)],
    [Scalar(0), Scalar(0), Scalar(-1), Scalar(0)],
    [Scalar(0), Scalar(0), Scalar(0), Scalar(-1)],
]


def gram(tetrad):
    return [[g_pairing(a, b) for b in tetrad] for a in tetrad]


def test_pauli_tetrad_standard_basis():
    theta = pauli_tetrad(e(1), e(2))
    inv_r2 = Scalar.one() / R2
    assert theta[0] == (e(1).tensor(ebar(1)) + e(2).tensor(ebar(2))).scaled(inv_r2)
    assert g_pairing(theta[0], theta[0]) == Scalar.one()
    assert theta[3] == (e(1).tensor(ebar(1)) - e(2).tensor(ebar(2))).scaled(inv_r2)
    assert g_pairing(theta[3], theta[3]) == Scalar(-1)
    assert gram(theta) == MINK
    for t in theta:
        assert is_hermitian(t)


def test_pauli_tetrad_random_spin_frames():
    rng = SplitMix64(2024)
    for _ in range(40):
        b1, b2 = random_spin_frame(rng, EpsilonStructure())
        assert gram(pauli_tetrad(b1, b2)) == MINK


def test_pauli_tetrad_gram_scales_with_eps_norm():
    # non-unimodular basis: Gram is |eps(b1,b2)|^2 times the Minkowski matrix
    theta = pauli_tetrad(e(1), e(2).scaled(Scalar(2)))
    four = Scalar(4)
    assert gram(theta) == [[four * m for m in row] for row in MINK]


def test_pauli_tetrad_degenerate_basis():
    with pytest.raises(DegenerateBasisError):
        pauli_tetrad(e(1), e(1).scaled(Scalar(5)))
    with pytest.raises(DegenerateBasisError):
        pauli_tetrad(e(1), ScaledTensor.zero((Variance.U,)))


def test_sylvester_sign_pattern():
    # characteristic polynomial of the tetrad Gram matrix: one positive and
    # three negative eigenvalues, read off exactly from coefficient signs
    rng = SplitMix64(5)
    b1, b2 = random_spin_frame(rng, EpsilonStructure())
    matrix = gram(pauli_tetrad(b1, b2))
    m = sympy.Matrix(4, 4, lambda i, j: sympy.Rational(matrix[i][j].a))
    lam = sympy.symbols("lam")
    poly = m.charpoly(lam).all_coeffs()
    changes = sum(
        1
        for x, y in zip(
            [c for c in poly if c != 0], [c for c in poly if c != 0][1:]
        )
        if (x > 0) != (y > 0)
    )
    assert changes == 1  # exactly one positive eigenvalue
    neg_poly = [c * (-1) ** i for i, c in enumerate(poly)]
    neg_changes = sum(
        1
        for x, y in zip(
            [c for c in neg_poly if c != 0], [c for c in neg_poly if c != 0][1:]
        )
        if (x > 0) != (y > 0)
    )
    assert neg_changes == 3  # and three negative ones


def test_null_decompose_examples():
    sign, u = null_decompose(e(1).tensor(ebar(1)))
    assert sign == 1 and u == e(1)
    sign, u = null_decompose(e(2).tensor(ebar(2)).scaled(Scalar(-1)))
    assert sign == -1 and u == e(2)

    theta0 = pauli_tetrad(e(1), e(2))[0]
    with pytest.raises(NonNullError) as exc:
        null_decompose(theta0)
    assert exc.value.g_value == Scalar.one()

    with pytest.raises(ZeroVectorError):
        null_decompose(ScaledTensor.zero((Variance.U, Variance.U_BAR)))
    with pytest.raises(VarianceError):
        null_decompose(e(1).tensor(ebar(2)))  # not Hermitian


def test_null_decompose_recovers_phase_class():
    rng = SplitMix64(31337)
    for _ in range(120):
        comps = {(1,): random_scalar(rng), (2,): random_scalar(rng)}
        u = ScaledTensor((Variance.U,), comps)
        if u.is_zero():
            continue
        y = u.tensor(u.conj())
        sign, v = null_decompose(y)
        assert sign == 1
        assert v.tensor(v.conj()) == y
        # v = phase * u: the two spinors are proportional
        cross = u.get((1,)) * v.get((2,)) - u.get((2,)) * v.get((1,))
        assert cross.is_zero()
        sign, w = null_decompose(y.scaled(Scalar(-1)))
        assert sign == -1 and w.tensor(w.conj()) == y


def test_null_decompose_unfactorable_over_field():
    # diag(3 + sqrt2, 0) is Hermitian and null but 3 + sqrt2 is not a relative
    # norm (it is a prime of Z[sqrt2] over 7, which is inert for i)
    y = ScaledTensor(
        (Variance.U, Variance.U_BAR), {(1, 1): Scalar(3, 0, 1, 0)}
    )
    with pytest.raises(NotFactorableError):
        null_decompose(y)
    y7 = ScaledTensor((Variance.U, Variance.U_BAR), {(1, 1): Scalar(7)})
    with pytest.raises(NotFactorableError):
        null_decompose(y7)


def test_phase_rebuild_leaves_g_unchanged():
    std = EpsilonStructure()
    rot = EpsilonStructure(I)
    rng = SplitMix64(222)
    for _ in range(60):
        y, yp = random_mink(rng), random_mink(rng)
        assert std.g_pairing(y, yp) == rot.g_pairing(y, yp)
    # eps itself does change
    assert rot.eps_value(e(1), e(2)) == I


def test_epsilon_structure_is_immutable():
    # a phase set after construction would skip the unit-modulus check
    s = EpsilonStructure()
    with pytest.raises(AttributeError):
        s.phase = Scalar(2)
    assert s.phase == Scalar.one()
    assert s.eps_value(e(1), e(2)) == Scalar.one()


def test_format_tensor_is_stable():
    t = e(1).tensor(ebar(2)).scaled(I) + e(1).tensor(ebar(1))
    assert format_tensor(t) == "tensor [U,Ubar] { (1,1): 1; (1,2): i }"


STANDARD = EpsilonStructure()
# (call, error, message): each slot, unit and phase refusal of bad input
SPINTENSOR_REFUSALS = [
    (lambda: e(1).tensor(estar(1)).contract(1, 1), VarianceError, "cannot contract a slot with itself"),
    (lambda: EpsilonStructure(2), ValueError, "epsilon phase must have unit modulus, got 2"),
    (lambda: STANDARD.eps_value(ebar(1), e(1)), VarianceError, "eps_value needs two [U] tensors"),
    (lambda: STANDARD.eps_flat(ebar(1)), VarianceError, "eps_flat needs a [U] tensor"),
    (lambda: STANDARD.eps_sharp(e(1)), VarianceError, "eps_sharp needs a [U*] tensor"),
    (lambda: STANDARD.epsbar_flat(e(1)), VarianceError, "epsbar_flat needs a [Ubar] tensor"),
    (lambda: STANDARD.pauli_tetrad(ebar(1), e(2)), VarianceError, "pauli_tetrad needs [U] tensors"),
    (
        lambda: STANDARD.pauli_tetrad(e(1), ScaledTensor((Variance.U,), {(2,): Scalar(1)}, 0)),
        UnitMismatchError, "basis spinors must carry equal unit exponents",
    ),
    (
        lambda: g_pairing(*[ScaledTensor((Variance.U, Variance.U_BAR), {(1, 1): Scalar(1)}, Fraction(1, 2))] * 2),
        UnitMismatchError, "g needs total unit exponent 2, got 1/2 + 1/2",
    ),
]


@pytest.mark.parametrize("call, error, message", SPINTENSOR_REFUSALS, ids=refusal_ids(SPINTENSOR_REFUSALS))
def test_refusals_name_their_error(call, error, message):
    assert_refuses(call, error, message)
