"""Multi-particle states, interior products, CAR/CCR and normal ordering."""

from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import assert_refuses, refusal_ids
from spinorkit.exactfield import ExactError, Scalar, _accumulate
from spinorkit.fockalg import (
    FockState,
    MixedRankError,
    OperatorElement,
    RankError,
    Sector,
    SectorMismatchError,
    Statistics,
    Universe,
    _contract_monomial,
    _times_generator,
    _validate_monomial,
    absorb,
    basis_monomials,
    basis_states,
    emit,
    exterior_product,
    generator_action,
    interior_product,
    monomial_grade,
    monomial_rank,
    normal_order,
    op_apply,
    pairing,
    state_to_json,
    super_bracket,
    word_generators,
)
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.suites import SMALL_UNIVERSE, random_generator_word, random_rank1

FERMI = Universe([Sector("f", Statistics.FERMION, (1, 2, 3))])
BOSE = Universe([Sector("b", Statistics.BOSON, (1, 2, 3))])
MIXED = Universe(
    [
        Sector("f", Statistics.FERMION, (1, 2, 3)),
        Sector("b", Statistics.BOSON, (1, 2, 3)),
    ]
)
# a boson sector between two fermion sectors: an emission passing absorptions
# picks up the fermion count of the sectors on both sides
SANDWICH = Universe(
    [
        Sector("f", Statistics.FERMION, (1, 2)),
        Sector("b", Statistics.BOSON, (1, 2)),
        Sector("g", Statistics.FERMION, (1, 2)),
    ]
)


def st(universe, sector, mode, dual=False):
    return FockState.mode(universe, sector, mode, dual)


def vac(universe):
    return FockState.vacuum(universe)


def random_state(rng, universe, max_rank=3, dual=False, terms=3):
    basis = basis_monomials(universe, max_rank)
    acc = FockState(universe, {}, dual)
    for _ in range(terms):
        mono = basis[rng.randint(0, len(basis) - 1)]
        acc = acc + FockState(universe, {mono: random_scalar(rng)}, dual)
    return acc


# -- exterior product ---------------------------------------------------------


def test_fermion_wedge_signs():
    z1, z2 = st(FERMI, "f", 1), st(FERMI, "f", 2)
    both = exterior_product(z1, z2)
    assert both.terms == {((1, 2),): Scalar.one()}
    assert exterior_product(z2, z1).terms == {((1, 2),): Scalar(-1)}
    assert exterior_product(z1, z1).is_zero()


def test_boson_symmetric_product():
    z1 = st(BOSE, "b", 1)
    twice = exterior_product(z1, z1)
    assert twice.terms == {((1, 1),): Scalar.one()}
    z2 = st(BOSE, "b", 2)
    assert exterior_product(z1, z2) == exterior_product(z2, z1)


def test_vacuum_is_the_unit():
    rng = SplitMix64(1)
    for universe in (FERMI, BOSE, MIXED):
        psi = random_state(rng, universe)
        assert exterior_product(vac(universe), psi) == psi
        assert exterior_product(psi, vac(universe)) == psi


def test_exterior_is_associative():
    rng = SplitMix64(2)
    for universe in (FERMI, MIXED):
        for _ in range(25):
            a = random_state(rng, universe, max_rank=2, terms=2)
            b = random_state(rng, universe, max_rank=2, terms=2)
            c = random_state(rng, universe, max_rank=2, terms=2)
            assert exterior_product(exterior_product(a, b), c) == exterior_product(
                a, exterior_product(b, c)
            )


def test_super_commutativity():
    # psi <> phi = (-1)^{|phi||psi|} phi <> psi on definite-grade monomials
    for universe in (FERMI, MIXED):
        for m1 in basis_monomials(universe, 2):
            for m2 in basis_monomials(universe, 2):
                a = FockState(universe, {m1: Scalar.one()})
                b = FockState(universe, {m2: Scalar.one()})
                g1 = monomial_grade(universe, m1)
                g2 = monomial_grade(universe, m2)
                lhs = exterior_product(a, b)
                rhs = exterior_product(b, a).scaled(Scalar((-1) ** (g1 * g2)))
                assert lhs == rhs


def test_bosonic_factor_commutes_with_everything():
    rng = SplitMix64(3)
    for _ in range(30):
        psi = random_state(rng, MIXED)
        boson = st(MIXED, "b", rng.randint(1, 3))
        assert exterior_product(boson, psi) == exterior_product(psi, boson)


def test_sector_universe_mismatch():
    with pytest.raises(SectorMismatchError):
        exterior_product(st(FERMI, "f", 1), st(BOSE, "b", 1))
    with pytest.raises(SectorMismatchError):
        exterior_product(st(FERMI, "f", 1), st(FERMI, "f", 1, dual=True))


# -- interior product ------------------------------------------------------------


def test_interior_rank1_examples():
    # <zeta1, z1> = 1 gives the vacuum
    out = interior_product(st(FERMI, "f", 1, dual=True), st(FERMI, "f", 1))
    assert out == vac(FERMI)
    # fermi: zeta1 | (z1 <> z2) = z2
    z12 = exterior_product(st(FERMI, "f", 1), st(FERMI, "f", 2))
    assert interior_product(st(FERMI, "f", 1, dual=True), z12) == st(FERMI, "f", 2)
    # and hitting the second slot picks up the Koszul sign
    assert interior_product(st(FERMI, "f", 2, dual=True), z12) == st(FERMI, "f", 1).scaled(
        Scalar(-1)
    )
    # bose: zeta1 | (z1 <> z1) = 2 z1
    z11 = exterior_product(st(BOSE, "b", 1), st(BOSE, "b", 1))
    assert interior_product(st(BOSE, "b", 1, dual=True), z11) == st(BOSE, "b", 1).scaled(
        Scalar(2)
    )


def reference_contract(universe, contractor, target):
    """The peel-one-mode contraction that `_contract_monomial` must match.

    Peels the modes of `contractor` leftmost first, each from the whole
    monomial left so far.  A fermionic hit's factor is the sign (-1)^k, k the
    number of fermions standing to the left of the hit; a bosonic one's is
    the number of occurrences, since bosons cross everything freely.
    """
    is_fermion = universe.is_fermion
    factor, mono = 1, target
    for sector_idx, peel in enumerate(contractor):
        for mode in peel:
            part = mono[sector_idx]
            if mode not in part:
                return None
            position = part.index(mode)
            if is_fermion[sector_idx]:
                left = position + sum(len(mono[i]) for i in range(sector_idx) if is_fermion[i])
                factor *= -1 if left & 1 else 1
            else:
                factor *= part.count(mode)
            mono = tuple(part[:position] + part[position + 1:] if i == sector_idx else p for i, p in enumerate(mono))
    return factor, mono


@pytest.mark.parametrize("universe", (SMALL_UNIVERSE, SANDWICH), ids=("small", "sandwich"))
def test_contract_monomial_matches_the_peel_one_mode_reference(universe):
    basis = basis_monomials(universe, 3)
    factors = Counter()
    for contractor in basis:
        for target in basis:
            got = _contract_monomial(universe, contractor, target)
            assert got == reference_contract(universe, contractor, target), (contractor, target)
            factors[None if got is None else got[0]] += 1
    # misses, both fermion signs and a repeated boson's factor all occur
    assert {None, 1, -1, 2} <= set(factors), factors


def test_interior_is_a_graded_derivation():
    # zeta | (z <> phi) = <zeta, z> phi + (-1)^{|zeta||z|} z <> (zeta | phi),
    # phrased through the absorption operator so the vacuum term is covered
    rng = SplitMix64(4)
    for universe in (FERMI, BOSE, MIXED):
        for _ in range(40):
            zeta = random_rank1(rng, universe, dual=True)
            z = random_rank1(rng, universe)
            phi = random_state(rng, universe, max_rank=2, terms=2)
            if phi.is_zero() or z.is_zero() or zeta.is_zero():
                continue
            lhs = op_apply(absorb(zeta), exterior_product(z, phi))
            scalar = pairing(zeta, z)
            z_grade = z.grades()[0]
            zeta_grade = zeta.grades()[0]
            sign = Scalar((-1) ** (z_grade * zeta_grade))
            inner = op_apply(absorb(zeta), phi)
            rhs = phi.scaled(scalar) + exterior_product(z, inner).scaled(sign)
            assert lhs == rhs
            # on vacuum-free homogeneous states the pure interior product agrees
            top = FockState(
                universe,
                {m: c for m, c in phi.terms.items() if sum(len(p) for p in m) >= 1},
            )
            if not top.is_zero():
                assert interior_product(zeta, top) == op_apply(absorb(zeta), top)


def test_adjunction_identity():
    # (zeta <> xi) | psi = xi | (zeta | psi) whenever the contraction stays on
    # the state side (rank psi >= rank zeta + rank xi)
    rng = SplitMix64(5)
    for universe in (FERMI, BOSE, MIXED):
        for _ in range(60):
            zeta = random_rank1(rng, universe, dual=True)
            xi = random_rank1(rng, universe, dual=True)
            psi = random_state(rng, universe, max_rank=3, terms=3)
            psi = FockState(
                universe,
                {m: c for m, c in psi.terms.items() if sum(len(p) for p in m) >= 2},
            )
            if psi.is_zero() or zeta.is_zero() or xi.is_zero():
                continue
            lhs = interior_product(exterior_product(zeta, xi), psi)
            rhs = interior_product(xi, interior_product(zeta, psi))
            assert lhs == rhs


def test_transpose_property_of_dual_contraction():
    # <lam | psi, phi> = <lam, psi <> phi> for every basis combination
    universe = MIXED
    duals = basis_states(universe, 2, dual=True)
    states1 = basis_states(universe, 1)
    for lam in duals:
        lam_rank = lam.rank()
        for psi in states1:
            if lam_rank <= psi.rank():
                continue
            reduced = interior_product(lam, psi)
            for phi in basis_states(universe, lam_rank - psi.rank()):
                if phi.rank() != lam_rank - psi.rank():
                    continue
                lhs = pairing(reduced, phi)
                rhs = pairing(lam, exterior_product(psi, phi))
                assert lhs == rhs


# -- emission and absorption --------------------------------------------------------


def test_emit_absorb_on_vacuum():
    z1 = st(MIXED, "f", 1)
    zeta1 = st(MIXED, "f", 1, dual=True)
    assert op_apply(emit(z1), vac(MIXED)) == z1
    assert op_apply(absorb(zeta1), vac(MIXED)).is_zero()
    assert op_apply(absorb(zeta1) * emit(z1), vac(MIXED)) == vac(MIXED)


def test_rank_enforcement():
    z12 = exterior_product(st(FERMI, "f", 1), st(FERMI, "f", 2))
    with pytest.raises(RankError):
        emit(z12)
    with pytest.raises(SectorMismatchError):
        emit(st(FERMI, "f", 1, dual=True))
    with pytest.raises(SectorMismatchError):
        absorb(st(FERMI, "f", 1))


def test_transposition_duality_of_operators():
    # <lam, a[zeta] psi> = <a+[zeta] lam, psi>: absorption transposes to
    # exterior multiplication on the dual side
    universe = MIXED
    zeta = st(universe, "f", 2, dual=True)
    for lam in basis_states(universe, 1, dual=True):
        for psi in basis_states(universe, 2):
            if psi.rank() != lam.rank() + 1:
                continue
            lhs = pairing(lam, op_apply(absorb(zeta), psi))
            rhs = pairing(exterior_product(zeta, lam), psi)
            assert lhs == rhs
    # mirror: <lam, a+[z] psi> = <z | lam, psi>; rank-1 lam is plain pairing
    z = st(universe, "b", 1)
    for lam in basis_states(universe, 2, dual=True):
        for psi in basis_states(universe, 1):
            if lam.rank() != psi.rank() + 1 or psi.rank() < 1:
                continue
            lhs = pairing(lam, op_apply(emit(z), psi))
            rhs = pairing(interior_product(lam, z), psi)
            assert lhs == rhs


# -- super-brackets and CAR/CCR -------------------------------------------------------


def identity_of(universe):
    return OperatorElement.identity(universe)


def test_car_ccr_bracket_examples():
    for universe, sector in ((FERMI, "f"), (BOSE, "b")):
        a1 = absorb(st(universe, sector, 1, dual=True))
        c1 = emit(st(universe, sector, 1))
        c2 = emit(st(universe, sector, 2))
        assert super_bracket(a1, c1) == identity_of(universe)
        assert super_bracket(c1, c2).is_zero()
        assert super_bracket(a1, absorb(st(universe, sector, 2, dual=True))).is_zero()


def test_car_nilpotency():
    c1 = emit(st(FERMI, "f", 1))
    assert (c1 * c1).is_zero()
    # bosonic emissions are not nilpotent
    b1 = emit(st(BOSE, "b", 1))
    assert not (b1 * b1).is_zero()


def test_ccr_exhaustive_on_basis():
    # <<a[zeta_i], a+[z_j]>> acts as delta_ij on every basis state
    universe = MIXED
    basis = basis_states(universe, 3)
    for s_name, modes in (("f", (1, 2, 3)), ("b", (1, 2, 3))):
        for i in modes:
            for j in modes:
                bracket = super_bracket(
                    absorb(st(universe, s_name, i, dual=True)),
                    emit(st(universe, s_name, j)),
                )
                expected = (
                    identity_of(universe) if i == j else OperatorElement(universe)
                )
                assert bracket == expected
                for psi in basis:
                    want = psi if i == j else FockState(universe, {})
                    assert op_apply(bracket, psi) == want


def test_super_bracket_golden_value():
    # <<a+[z1] a[zeta2], a+[z2]>> = a+[z1] for fermions; frozen after checking
    # both sides as endomorphisms on the exhaustive basis
    universe = FERMI
    x = emit(st(universe, "f", 1)) * absorb(st(universe, "f", 2, dual=True))
    y = emit(st(universe, "f", 2))
    bracket = super_bracket(x, y)
    golden = emit(st(universe, "f", 1))
    assert bracket == golden
    for psi in basis_states(universe, 3):
        lhs = op_apply(x, op_apply(y, psi)) - op_apply(y, op_apply(x, psi))
        assert lhs == op_apply(golden, psi)


def random_operator(rng, universe, max_words=3):
    """A sum of 0..max_words random normal-ordered words with random scalars; zero and mixed grades occur."""
    acc = OperatorElement(universe)
    for _ in range(rng.randint(0, max_words)):
        word = normal_order(universe, random_generator_word(rng, universe))
        acc = acc + word.scaled(random_scalar(rng))
    return acc


def reference_bracket(x, y):
    """xe*ye - (-1)^{|x||y|} ye*xe over the graded parts, summed with Combination.__add__."""
    out = OperatorElement(x.universe)
    for xe, x_grade in zip(x.graded_parts(), (0, 1)):
        for ye, y_grade in zip(y.graded_parts(), (0, 1)):
            out = out + xe * ye + (ye * xe).scaled(-((-1) ** (x_grade * y_grade)))
    return out


def test_super_bracket_matches_the_reference_sum():
    rng = SplitMix64(11)
    universe = MIXED  # one fermion and one boson sector
    seen_zero = seen_mixed = 0
    for _ in range(150):
        x, y = random_operator(rng, universe), random_operator(rng, universe)
        seen_zero += x.is_zero() or y.is_zero()
        seen_mixed += x.grades() == [0, 1] or y.grades() == [0, 1]
        assert super_bracket(x, y) == reference_bracket(x, y)
    # the draws reach the cases the one-pass sum must get right
    assert seen_zero >= 10 and seen_mixed >= 10, (seen_zero, seen_mixed)


def test_apply_with_the_vacuum_word_is_the_sum_of_its_words():
    rng = SplitMix64(12)
    universe = MIXED
    vac_word = (universe.vacuum, universe.vacuum)
    for _ in range(40):
        c = random_scalar(rng)
        while c.is_zero():
            c = random_scalar(rng)
        x = OperatorElement(universe, {**random_operator(rng, universe).terms, vac_word: c})
        psi = random_state(rng, universe)
        expected = FockState(universe, {})
        for word, coeff in x.terms.items():
            expected = expected + OperatorElement(universe, {word: coeff}).apply(psi)
        assert x.apply(psi) == expected
        assert OperatorElement.identity(universe).scaled(c).apply(psi) == psi.scaled(c)


def reference_mul(x, y):
    """X Y by the plain loop that `_compose` must match: fold each word of y into the terms of x."""
    universe = x.universe
    terms = {}
    for w2, c2 in y.terms.items():
        piece = x.terms
        for gen in word_generators(universe, w2):
            piece = _times_generator(universe, piece, gen)
        for word, coeff in piece.items():
            _accumulate(terms, word, coeff * c2)
    return OperatorElement(universe, terms)


def reference_graded_bracket(x, y):
    """The bracket over graded_parts as OperatorElements, each product through reference_mul."""
    out = {}
    for xe, x_grade in zip(x.graded_parts(), (0, 1)):
        for ye, y_grade in zip(y.graded_parts(), (0, 1)):
            for word, coeff in reference_mul(xe, ye).terms.items():
                _accumulate(out, word, coeff)
            sign = 1 if x_grade and y_grade else -1
            for word, coeff in reference_mul(ye, xe).terms.items():
                _accumulate(out, word, coeff, sign)
    return OperatorElement(x.universe, {w: c for w, c in out.items() if not c.is_zero()})


@pytest.mark.parametrize("universe", (MIXED, SANDWICH))
def test_products_and_brackets_match_the_reference_loops(universe):
    rng = SplitMix64(13)
    seen = {"zero": 0, "mixed": 0, "homogeneous": 0}
    for _ in range(120):
        x, y = random_operator(rng, universe), random_operator(rng, universe)
        # a nonzero graded part of x is a homogeneous operand
        even, odd = x.graded_parts()
        for a, b in ((x, y), (y, x), (even, y), (odd, y), (x, odd)):
            for operand in (a, b):
                grades = operand.grades()
                seen["zero" if not grades else "mixed" if len(grades) == 2 else "homogeneous"] += 1
            assert a * b == reference_mul(a, b)
            assert super_bracket(a, b) == reference_graded_bracket(a, b)
    assert min(seen.values()) >= 20, seen


def test_apply_with_a_unit_vacuum_word_matches_the_scaled_state():
    rng = SplitMix64(14)
    universe = MIXED
    vac_word = (universe.vacuum, universe.vacuum)
    for n in range(60):
        c = Scalar.one() if n % 2 else random_scalar(rng)
        while c.is_zero():
            c = random_scalar(rng)
        others = random_operator(rng, universe).terms if n % 3 else {}
        x = OperatorElement(universe, {**others, vac_word: c})
        psi = random_state(rng, universe)
        # the vacuum word contributes c psi, computed here by Combination.scaled
        expected = psi.scaled(c)
        for word, coeff in others.items():
            if word != vac_word:
                expected = expected + OperatorElement(universe, {word: coeff}).apply(psi)
        assert x.apply(psi) == expected
    assert OperatorElement.identity(universe).apply(psi) == psi


def test_identity_apply_returns_the_state():
    # its refusals of a dual state and a foreign universe are rows of FOCKALG_REFUSALS
    for universe in (MIXED, SANDWICH):
        identity = OperatorElement.identity(universe)
        for psi in basis_states(universe, 3):
            assert identity.apply(psi) is psi


def test_vacuum_monomial_is_the_universe_vacuum():
    for universe in (FERMI, BOSE, MIXED, SANDWICH):
        assert universe.vacuum == tuple(() for _ in universe.sectors)
        assert FockState.vacuum(universe).terms == {universe.vacuum: Scalar.one()}


def test_mixed_sector_operators_super_commute():
    # operators in different sectors super-commute: odd-odd pairs anticommute
    universe = MIXED
    cf = emit(st(universe, "f", 1))
    cb = emit(st(universe, "b", 1))
    assert super_bracket(cf, cb).is_zero()
    assert cf * cb == cb * cf  # boson sector is even: plain commutation
    cf2 = emit(st(universe, "f", 2))
    assert cf * cf2 == (cf2 * cf).scaled(Scalar(-1))


# -- normal ordering -------------------------------------------------------------------


def test_normal_order_contraction_term():
    for universe, sector, swap_sign in ((FERMI, "f", -1), (BOSE, "b", 1)):
        gens = [("-", 0, 1), ("+", 0, 1)]  # a[zeta1] a+[z1]
        ordered = normal_order(universe, gens)
        a_then_c = emit(st(universe, sector, 1)) * absorb(
            st(universe, sector, 1, dual=True)
        )
        expected = a_then_c.scaled(Scalar(swap_sign)) + identity_of(universe)
        assert ordered == expected


def test_normal_order_idempotent_on_normal_words():
    universe = MIXED
    gens = [("+", 0, 1), ("-", 1, 2)]
    element = normal_order(universe, gens)
    again = OperatorElement(universe)
    for word, coeff in element.terms.items():
        again = again + normal_order(universe, word_generators(universe, word)).scaled(coeff)
    assert again == element


def test_absorption_reordering_antisymmetry():
    # [a(zeta1), a(zeta2)] fermionic: the two orders differ by a sign
    one_two = normal_order(FERMI, [("-", 0, 1), ("-", 0, 2)])
    two_one = normal_order(FERMI, [("-", 0, 2), ("-", 0, 1)])
    assert one_two == two_one.scaled(Scalar(-1))
    assert normal_order(FERMI, [("-", 0, 1), ("-", 0, 1)]).is_zero()


def test_normal_order_equals_raw_composition():
    rng = SplitMix64(6)
    for universe, max_len, words in ((MIXED, 4, 40), (SANDWICH, 8, 40)):
        basis = basis_states(universe, 2)
        for _ in range(words):
            gens = random_generator_word(rng, universe, max_len)
            element = normal_order(universe, gens)
            for psi in basis:
                assert op_apply(element, psi) == generator_action(universe, gens)(psi)


def test_normal_order_long_boson_word():
    # a^8 (a+)^8 on one boson mode: sum_j (8-j)! C(8,j)^2 (a+)^j a^j
    universe = Universe([Sector("b", Statistics.BOSON, (1,))])
    gens = [("-", 0, 1)] * 8 + [("+", 0, 1)] * 8
    coeffs = [factorial(8 - j) * comb(8, j) ** 2 for j in range(9)]
    assert coeffs == [40320, 322560, 564480, 376320, 117600, 18816, 1568, 64, 1]
    expected = OperatorElement(
        universe, {(((1,) * j,), ((1,) * j,)): c for j, c in enumerate(coeffs)}
    )
    assert normal_order(universe, gens) == expected


def test_operator_product_is_associative():
    rng = SplitMix64(7)
    universe = MIXED
    for _ in range(20):
        g1, g2, g3 = (random_generator_word(rng, universe, 3) for _ in range(3))
        x, y, z = (normal_order(universe, g) for g in (g1, g2, g3))
        assert (x * y) * z == x * (y * z)
        assert x * y == normal_order(universe, g1 + g2)


def test_op_of_scalar_and_composition():
    universe = MIXED
    rng = SplitMix64(8)
    psi = random_state(rng, universe)
    assert op_apply(OperatorElement.identity(universe).scaled(Scalar(3)), psi) == psi.scaled(
        Scalar(3)
    )
    # emit z1 emit z2 on the vacuum is z1 <> z2
    z1, z2 = st(universe, "f", 1), st(universe, "f", 2)
    assert op_apply(emit(z1) * emit(z2), vac(universe)) == exterior_product(z1, z2)


def test_basis_enumeration_count():
    # fermion parts 8, boson parts 20, filtered by total rank <= 3
    assert len(basis_monomials(MIXED, 3)) == 63
    assert len(basis_monomials(FERMI, 3)) == 8


def test_state_json_dump_is_deterministic():
    state = exterior_product(st(MIXED, "f", 1), st(MIXED, "f", 2)).scaled(
        Scalar(1, 1)
    ) + st(MIXED, "b", 1).scaled(Scalar(0, 0, 1))
    dump = state_to_json(state)
    assert dump == state_to_json(state)
    assert '"f:1^f:2"' in dump and '"b:1"' in dump
    assert '"1+i"' in dump and '"r2"' in dump


def test_universe_validation():
    with pytest.raises(ValueError):
        Sector("f", Statistics.FERMION, (1, 1))
    with pytest.raises(ValueError):
        Universe([Sector("a", Statistics.BOSON, (1,)), Sector("a", Statistics.BOSON, (2,))])
    with pytest.raises(ValueError):
        FockState(FERMI, {((2, 1),): Scalar.one()})
    with pytest.raises(ValueError):
        FockState(FERMI, {((9,),): Scalar.one()})
    vac_m = ((),)
    with pytest.raises(ValueError):  # emit side not strictly increasing
        OperatorElement(FERMI, {(((2, 1),), vac_m): Scalar.one()})
    with pytest.raises(ValueError):  # absorb side repeats a fermion mode
        OperatorElement(FERMI, {(vac_m, ((1, 1),)): Scalar.one()})
    with pytest.raises(ValueError):  # boson side not sorted
        OperatorElement(BOSE, {(((2, 1),), vac_m): Scalar.one()})
    with pytest.raises(SectorMismatchError):  # two sectors for a one-sector universe
        OperatorElement(FERMI, {(((1,), ()), vac_m): Scalar.one()})
    with pytest.raises(SectorMismatchError):
        OperatorElement(MIXED, {(((1,),), ((), ())): Scalar.one()})
    with pytest.raises(ValueError, match="mode 9 not in sector f"):
        OperatorElement(FERMI, {(vac_m, ((9,),)): Scalar.one()})
    with pytest.raises(ExactError):
        OperatorElement(FERMI, {(((1,),), vac_m): 0.5})
    with pytest.raises(ExactError):
        FockState(FERMI, {((1,),): 0.5})
    # generator words: kind, sector index and mode are all checked
    psi = vac(SMALL_UNIVERSE)
    for check in (normal_order, lambda u, gens: generator_action(u, gens)(psi)):
        with pytest.raises(ValueError, match="mode 99 not in sector f"):
            check(SMALL_UNIVERSE, [("+", 0, 99)])
        with pytest.raises(ValueError, match="kind"):
            check(SMALL_UNIVERSE, [("x", 0, 1)])
        with pytest.raises(SectorMismatchError):
            check(SMALL_UNIVERSE, [("+", 5, 1)])
        with pytest.raises(SectorMismatchError):
            check(SMALL_UNIVERSE, [("-", -1, 1)])


# -- trusted construction ----------------------------------------------------------
#
# Results that fockalg builds itself skip the public constructors' validation;
# this test stands in for it: every result is canonical, stores no zero, and
# survives a round trip through the validating constructor unchanged.

SMALL_BASIS = basis_monomials(SMALL_UNIVERSE, 3)
SMALL_MODES = [
    (idx, mode) for idx, sector in enumerate(SMALL_UNIVERSE.sectors) for mode in sector.modes
]
small_ints = hst.integers(-3, 3)
coeffs = hst.builds(Scalar, small_ints, small_ints, small_ints, small_ints)


def fock_states(monomials, dual=False):
    terms = hst.dictionaries(hst.sampled_from(monomials), coeffs, max_size=4)
    return terms.map(lambda t: FockState(SMALL_UNIVERSE, t, dual))


gen_words = hst.lists(
    hst.tuples(hst.sampled_from("+-"), hst.sampled_from(SMALL_MODES)).map(
        lambda g: (g[0],) + g[1]
    ),
    max_size=4,
)
RANK1 = [m for m in SMALL_BASIS if monomial_rank(m) == 1]


def assert_canonical(x):
    universe = x.universe
    for key, coeff in x.terms.items():
        monos = key if isinstance(x, OperatorElement) else (key,)
        for mono in monos:
            assert _validate_monomial(universe, mono) == mono
        assert isinstance(coeff, Scalar) and not coeff.is_zero()
    if isinstance(x, OperatorElement):
        assert x == OperatorElement(universe, x.terms)
    else:
        assert x == FockState(universe, x.terms, x.dual)


@settings(max_examples=60, deadline=None)
@given(
    phi=fock_states(SMALL_BASIS),
    psi=fock_states(SMALL_BASIS),
    lam=fock_states(SMALL_BASIS, dual=True),
    z=fock_states(RANK1),
    zeta=fock_states(RANK1, dual=True),
    w1=gen_words,
    w2=gen_words,
    c=coeffs,
)
def test_internal_results_are_canonical(phi, psi, lam, z, zeta, w1, w2, c):
    universe = SMALL_UNIVERSE
    x, y = normal_order(universe, w1), normal_order(universe, w2)
    results = [phi + psi, phi - psi, -phi, phi.scaled(c), exterior_product(phi, psi)]
    results += [x, y, x + y, x - y, -x, x.scaled(c), x * y, super_bracket(x, y)]
    results += [*x.graded_parts(), emit(z), absorb(zeta), emit(z) * absorb(zeta)]
    results += [x.apply(phi), generator_action(universe, w1)(phi)]
    for contractor in (lam, zeta):
        try:
            results.append(interior_product(contractor, psi))
        except MixedRankError:
            pass
    for result in results:
        assert_canonical(result)


ONE_FERMION = Universe([Sector("f", Statistics.FERMION, (1, 2))])
ONE_BOSON = Universe([Sector("b", Statistics.BOSON, (1,))])
F1, F2 = (FockState.mode(ONE_FERMION, "f", i) for i in (1, 2))
# (call, error, message): each universe, duality and rank refusal of bad input
FOCKALG_REFUSALS = [
    (lambda: ONE_FERMION.sector_index("g"), SectorMismatchError, "unknown sector 'g'"),
    (lambda: (FockState.vacuum(ONE_FERMION) + F1).rank(), RankError, "state has mixed ranks [0, 1]"),
    (
        lambda: interior_product(FockState.mode(ONE_BOSON, "b", 1, dual=True), F1), SectorMismatchError,
        "states live over different universes",
    ),
    (
        lambda: pairing(FockState.mode(ONE_FERMION, "f", 1, dual=True), exterior_product(F1, F2)), RankError,
        "pairing needs equal total ranks",
    ),
    (
        lambda: OperatorElement.identity(ONE_FERMION).apply(FockState.vacuum(ONE_FERMION, dual=True)),
        SectorMismatchError, "operators act on non-dual states",
    ),
    (
        lambda: OperatorElement.identity(ONE_FERMION).apply(FockState.vacuum(ONE_BOSON)), SectorMismatchError,
        "operator and state universes differ",
    ),
]


@pytest.mark.parametrize("call, error, message", FOCKALG_REFUSALS, ids=refusal_ids(FOCKALG_REFUSALS))
def test_refusals_name_their_error(call, error, message):
    assert_refuses(call, error, message)
