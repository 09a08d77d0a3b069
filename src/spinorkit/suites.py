"""Seeded property suites: every identity the kernel asserts, re-checked exactly.

Each suite draws its inputs from a per-trial counter-based substream, so a
(suite, seed, trials) triple always examines the same inputs and reports are
byte-identical across runs.  A failure record carries the offending input
and both sides of the broken identity; the suites are theorem checks, so any
failure is an implementation bug, never a property of the inputs.

The ``trial`` of a failure record is the index of the trial that broke, with
two exceptions.  ``car-ccr`` runs fixed checks instead of trials: a failed
apply records the index of the basis state it was applied to, and a failed
bracket, or a broken witness of ``signature``, records -1.  ``fn-bracket``
numbers its Jacobi rounds after its antisymmetry trials, so round k is
recorded as trial ``k + trials``.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .diracw import DiracVector, EndW, gamma, k_form, k_hermiticity_check
from .exactfield import Scalar, _accumulate, _reduced
from .fnforms import (
    Fibre,
    Poly,
    ValuedForm,
    bianchi_residual,
    covariant_differential,
    curvature,
    fn_bracket,
)
from .fockalg import (
    FockState,
    OperatorElement,
    Sector,
    Statistics,
    Universe,
    absorb,
    basis_states,
    emit,
    exterior_product,
    generator_action,
    interior_product,
    monomial_rank,
    normal_order,
    op_apply,
    super_bracket,
)
from .prng import SplitMix64, random_scalar, stream_for
from .spintensor import EpsilonStructure, ScaledTensor, Variance, g_pairing


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    failures: List[Dict[str, object]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # elapsed is intentionally absent: reports must be byte-identical
        # across runs for identical (suite, seed, trials)
        return {
            "failures": self.failures,
            "seed": self.seed,
            "suite": self.suite,
            "trials": self.trials,
        }


def _failure(trial: int, input: str, expected: str, got: str) -> dict:
    """The record of one broken identity: the trial, its input and both sides."""
    return {"trial": trial, "input": input, "expected": expected, "got": got}


def _map_trials(fn: Callable[[int], Optional[dict]], trials: int) -> List[dict]:
    """Run trials 0..trials-1 in order; the failure records they return."""
    return [r for r in map(fn, range(trials)) if r is not None]


# -- domain samplers -------------------------------------------------------------


_MINK_SHAPE = ((Variance.U, Variance.U_BAR), Fraction(1))
_SPINOR_SHAPE = ((Variance.U,), Fraction(1, 2))


def _random_real(rng: SplitMix64) -> Scalar:
    """p + q*sqrt2 for two `fraction` draws p and q, in that order."""
    randint = rng.randint
    a, p, c, q = randint(-9, 9), randint(1, 9), randint(-9, 9), randint(1, 9)
    return _reduced(a * q, 0, c * p, 0, p * q)


def random_mink(rng: SplitMix64) -> ScaledTensor:
    r1 = _random_real(rng)
    r2 = _random_real(rng)
    z = random_scalar(rng)
    return ScaledTensor._trusted(_MINK_SHAPE, {(1, 1): r1, (2, 2): r2, (1, 2): z, (2, 1): z.conj()})


def random_spinor(rng: SplitMix64) -> ScaledTensor:
    return ScaledTensor._trusted(_SPINOR_SHAPE, {(1,): random_scalar(rng), (2,): random_scalar(rng)})


def random_spin_frame(rng: SplitMix64, eps: EpsilonStructure):
    while True:
        b1 = random_spinor(rng)
        c = random_spinor(rng)
        omega = eps.eps_value(b1, c)
        if b1.is_zero() or omega.is_zero():
            continue
        return b1, c.scaled(omega.inverse())


def random_poly(rng: SplitMix64, dim: int, max_degree: int = 2, terms: int = 2) -> Poly:
    """The sum of `terms` draws of a monomial of degree <= max_degree with a random coefficient.

    A draw takes the dim exponents, then the coefficient, and one whose degree
    is over max_degree is dropped before its coefficient is drawn.  This draw
    order is part of the suite contract: every later draw of a seeded suite,
    and so its report, depends on it.
    """
    acc: dict = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(dim))
        if sum(exps) > max_degree:
            continue
        _accumulate(acc, exps, random_scalar(rng))
    return Poly._trusted((dim,), acc)


def random_tangent_form(rng: SplitMix64, dim: int, degree: int) -> ValuedForm:
    comps = {}
    for axes in itertools.combinations(range(dim), degree):
        for out_axis in range(dim):
            if rng.randint(0, 1):
                comps[(axes, (out_axis,))] = random_poly(rng, dim)
    return ValuedForm._trusted((dim, degree, Fibre("tangent", dim)), comps)


def random_connection(rng: SplitMix64, dim: int = 3, fibre: int = 2) -> ValuedForm:
    comps = {}
    for axis in range(dim):
        for i in range(fibre):
            for j in range(fibre):
                comps[((axis,), (i, j))] = random_poly(rng, dim)
    return ValuedForm._trusted((dim, 1, Fibre("matrix", fibre)), comps)


def random_vector_form(rng: SplitMix64, dim: int, fibre: int, degree: int) -> ValuedForm:
    comps = {}
    for axes in itertools.combinations(range(dim), degree):
        for j in range(fibre):
            comps[(axes, (j,))] = random_poly(rng, dim)
    return ValuedForm._trusted((dim, degree, Fibre("vector", fibre)), comps)


SMALL_UNIVERSE = Universe(
    [
        Sector("f", Statistics.FERMION, (1, 2, 3)),
        Sector("b", Statistics.BOSON, (1, 2, 3)),
    ]
)


@functools.cache
def _small_basis() -> tuple:
    """The basis states of SMALL_UNIVERSE up to rank 3, built on first use.

    Only the immutable inputs are kept; every suite call still runs all of
    its checks on them.
    """
    return tuple(basis_states(SMALL_UNIVERSE, 3))


@functools.cache
def _deep_monomials() -> tuple:
    """The monomials of rank 2 and 3 in `_small_basis`, in basis order."""
    return tuple(m for psi in _small_basis() for m in psi.terms if monomial_rank(m) >= 2)


def random_fock_state(rng: SplitMix64, universe: Universe, monomials, terms=3, dual=False):
    acc = {}
    for _ in range(terms):
        mono = monomials[rng.randint(0, len(monomials) - 1)]
        _accumulate(acc, mono, random_scalar(rng))
    return FockState._trusted((universe, bool(dual)), acc)


def random_rank1(rng: SplitMix64, universe: Universe, dual=False) -> FockState:
    sector_idx = rng.randint(0, len(universe.sectors) - 1)
    parts = [()] * len(universe.sectors)
    terms = {}
    for mode in universe.sectors[sector_idx].modes:
        parts[sector_idx] = (mode,)
        terms[tuple(parts)] = random_scalar(rng)
    return FockState._trusted((universe, bool(dual)), terms)


def random_generator_word(rng: SplitMix64, universe: Universe, max_len: int = 4):
    length = rng.randint(0, max_len)
    gens = []
    for _ in range(length):
        kind = "+" if rng.randint(0, 1) else "-"
        sector_idx = rng.randint(0, len(universe.sectors) - 1)
        modes = universe.sectors[sector_idx].modes
        gens.append((kind, sector_idx, modes[rng.randint(0, len(modes) - 1)]))
    return gens


# -- the suites -------------------------------------------------------------------


def _suite_clifford(seed: int, trials: int) -> List[dict]:
    def one(trial: int):
        rng = stream_for(seed, f"clifford#{trial}")
        y, yp = random_mink(rng), random_mink(rng)
        gy, gyp = gamma(y), gamma(yp)
        got = gy * gyp + gyp * gy
        expected = EndW.identity().scaled(Scalar(2) * g_pairing(y, yp))
        if got != expected:
            return _failure(trial, f"y = {y}; y' = {yp}", str(expected), str(got))
        return None

    return _map_trials(one, trials)


_ZERO = Scalar.zero()
_MINK_DIAG = (Scalar(1), Scalar(-1), Scalar(-1), Scalar(-1))


def _suite_pauli(seed: int, trials: int) -> List[dict]:
    eps = EpsilonStructure()

    def one(trial: int):
        rng = stream_for(seed, f"pauli#{trial}")
        b1, b2 = random_spin_frame(rng, eps)
        tetrad = eps.pauli_tetrad(b1, b2)
        for i, ti in enumerate(tetrad):
            for j, tj in enumerate(tetrad):
                want = _MINK_DIAG[i] if i == j else _ZERO
                got = eps.g_pairing(ti, tj)
                if got != want:
                    return _failure(trial, f"b1 = {b1}; b2 = {b2}; entry = ({i},{j})", str(want), str(got))
        return None

    return _map_trials(one, trials)


# Dirac vectors that diagonalize k, each with its value of k(w, w); built
# once, and k is evaluated on them on every call of the suite
_WITNESSES = tuple(
    (DiracVector(tuple(Scalar(x) for x in comps)), Scalar(value))
    for comps, value in (((1, 0, 1, 0), 2), ((0, 1, 0, 1), 2), ((1, 0, -1, 0), -2), ((0, 1, 0, -1), -2))
)


def _signature_witnesses():
    values = [k_form(w, w) for w, _ in _WITNESSES]
    expected = [v for _, v in _WITNESSES]
    ortho = all(
        k_form(_WITNESSES[i][0], _WITNESSES[j][0]).is_zero()
        for i in range(4)
        for j in range(4)
        if i != j
    )
    return values, expected, ortho


def _suite_signature(seed: int, trials: int) -> List[dict]:
    failures: List[dict] = []
    values, expected, ortho = _signature_witnesses()
    if values != expected or not ortho:
        failures.append(
            _failure(-1, "k-diagonalization witnesses", str([str(v) for v in expected]),
                     str([str(v) for v in values]))
        )

    def one(trial: int):
        rng = stream_for(seed, f"signature#{trial}")
        y = random_mink(rng)
        if not k_hermiticity_check(y):
            return _failure(
                trial, f"y = {y}", "k(gamma[y] psi, phi) = k(psi, gamma[y] phi)", "k-hermiticity failed on H"
            )
        if not y.is_zero() and k_hermiticity_check(y.scaled(Scalar.i())):
            return _failure(
                trial, f"i*y with y = {y}", "k-hermiticity must fail off H", "anti-Hermitian element passed"
            )
        return None

    failures.extend(_map_trials(one, trials))
    return failures


def _suite_fn_bracket(seed: int, trials: int) -> List[dict]:
    def one(trial: int):
        rng = stream_for(seed, f"fn-bracket#{trial}")
        dim = rng.choice((2, 3))
        r = rng.randint(0, dim)
        s = rng.randint(0, dim - r)
        zeta = random_tangent_form(rng, dim, r)
        xi = random_tangent_form(rng, dim, s)
        lhs = fn_bracket(zeta, xi)
        rhs = fn_bracket(xi, zeta).scaled(Scalar(-((-1) ** (r * s))))
        if lhs != rhs:
            return _failure(
                trial, f"dim={dim} r={r} s={s}; zeta = {zeta}; xi = {xi}", "graded antisymmetry",
                f"lhs = {lhs}; rhs = {rhs}",
            )
        return None

    failures = _map_trials(one, trials)

    jacobi_rounds = max(1, trials // 10)

    def jacobi(trial: int):
        rng = stream_for(seed, f"fn-jacobi#{trial}")
        dim = rng.choice((2, 3))
        r = rng.randint(0, dim)
        s = rng.randint(0, dim - r)
        t = rng.randint(0, dim - r - s)
        zeta = random_tangent_form(rng, dim, r)
        xi = random_tangent_form(rng, dim, s)
        eta = random_tangent_form(rng, dim, t)
        lhs = fn_bracket(zeta, fn_bracket(xi, eta))
        rhs = fn_bracket(fn_bracket(zeta, xi), eta) + fn_bracket(
            xi, fn_bracket(zeta, eta)
        ).scaled(Scalar((-1) ** (r * s)))
        if lhs != rhs:
            # numbered after the antisymmetry trials
            return _failure(
                trial + trials, f"dim={dim} degrees=({r},{s},{t})", "graded Jacobi identity",
                f"lhs = {lhs}; rhs = {rhs}",
            )
        return None

    failures.extend(_map_trials(jacobi, jacobi_rounds))
    return failures


def _suite_bianchi(seed: int, trials: int) -> List[dict]:
    def one(trial: int):
        rng = stream_for(seed, f"bianchi#{trial}")
        a = random_connection(rng, dim=3, fibre=2)
        f = curvature(a)
        residual = bianchi_residual(a)
        if not residual.is_zero():
            return _failure(trial, f"A = {a}", "dF + [A, F] = 0", str(residual))
        degree = rng.randint(0, 1)
        phi = random_vector_form(rng, 3, 2, degree)
        lhs = covariant_differential(a, covariant_differential(a, phi))
        rhs = f.wedge(phi)
        if lhs != rhs:
            return _failure(trial, f"A = {a}; phi = {phi}", "d_A d_A phi = F /\\ phi", f"lhs = {lhs}; rhs = {rhs}")
        return None

    return _map_trials(one, trials)


def _suite_car_ccr(seed: int, trials: int) -> List[dict]:
    """The canonical (anti)commutation relations on SMALL_UNIVERSE, exhaustively.

    The checks are fixed, so the suite ignores `seed` and `trials`.  Each call
    builds a table of every mode's absorption a_i and emission a+_i, sector
    by sector, and brackets every same-sector mode pair (i, j), 18 in all:
    [[a_i, a+_j]] must be the identity for i == j and 0 otherwise, and is then
    applied to each of the 63 basis states of rank <= 3 (18 x 63 applies),
    while [[a_i, a_j]] and [[a+_i, a+_j]] must vanish; one cross-sector
    bracket [[a+_f1, a+_b1]] must vanish too.  That makes 55 brackets in all.
    A failed apply records the basis index as its trial; a failed bracket is
    recorded with trial -1.
    """
    universe = SMALL_UNIVERSE
    failures: List[dict] = []
    basis = _small_basis()
    identity = OperatorElement.identity(universe)
    zero = OperatorElement(universe)
    empty = FockState(universe, {})

    def mode_ops(name: str, i: int):
        return i, absorb(FockState.mode(universe, name, i, dual=True)), emit(FockState.mode(universe, name, i))

    # per sector, (i, a_i, a+_i) for each of its modes
    table = {sector.name: [mode_ops(sector.name, i) for i in sector.modes] for sector in universe.sectors}
    for name, ops in table.items():
        for i, a_i, e_i in ops:
            for j, a_j, e_j in ops:
                bracket = super_bracket(a_i, e_j)
                expected = identity if i == j else zero
                if bracket != expected:
                    failures.append(_failure(-1, f"[[a[{name}:{i}], a+[{name}:{j}]]]", str(expected), str(bracket)))
                    continue
                for n, psi in enumerate(basis):
                    want = psi if i == j else empty
                    got = op_apply(bracket, psi)
                    if got != want:
                        failures.append(_failure(n, f"bracket on basis state {psi}", str(want), str(got)))
                if not super_bracket(a_i, a_j).is_zero():
                    failures.append(_failure(-1, f"[[a[{name}:{i}], a[{name}:{j}]]]", "0", "nonzero"))
                if not super_bracket(e_i, e_j).is_zero():
                    failures.append(_failure(-1, f"[[a+[{name}:{i}], a+[{name}:{j}]]]", "0", "nonzero"))
    # cross-sector brackets vanish too
    if not super_bracket(table["f"][0][2], table["b"][0][2]).is_zero():
        failures.append(_failure(-1, "[[a+[f:1], a+[b:1]]]", "0", "nonzero"))
    return failures


def _suite_normal_order(seed: int, trials: int) -> List[dict]:
    universe = SMALL_UNIVERSE
    basis = _small_basis()

    def one(trial: int):
        rng = stream_for(seed, f"normal-order#{trial}")
        gens = random_generator_word(rng, universe)
        element = normal_order(universe, gens)
        reference = generator_action(universe, gens)
        for psi in basis:
            expected = reference(psi)
            got = op_apply(element, psi)
            if got != expected:
                return _failure(trial, f"word = {gens}; psi = {psi}", str(expected), str(got))
        return None

    return _map_trials(one, trials)


def _suite_adjunction(seed: int, trials: int) -> List[dict]:
    universe = SMALL_UNIVERSE
    deep = _deep_monomials()

    def one(trial: int):
        rng = stream_for(seed, f"adjunction#{trial}")
        zeta = random_rank1(rng, universe, dual=True)
        xi = random_rank1(rng, universe, dual=True)
        psi = random_fock_state(rng, universe, deep, terms=3)
        if zeta.is_zero() or xi.is_zero() or psi.is_zero():
            return None
        lhs = interior_product(exterior_product(zeta, xi), psi)
        rhs = interior_product(xi, interior_product(zeta, psi))
        if lhs != rhs:
            return _failure(trial, f"zeta = {zeta}; xi = {xi}; psi = {psi}", str(rhs), str(lhs))
        return None

    return _map_trials(one, trials)


SUITES: Dict[str, Callable[[int, int], List[dict]]] = {
    "adjunction": _suite_adjunction,
    "bianchi": _suite_bianchi,
    "car-ccr": _suite_car_ccr,
    "clifford": _suite_clifford,
    "fn-bracket": _suite_fn_bracket,
    "normal-order": _suite_normal_order,
    "pauli": _suite_pauli,
    "signature": _suite_signature,
}

SUITE_NAMES = tuple(sorted(SUITES))


class UnknownSuiteError(ValueError):
    pass


def run_suite(name: str, seed: int, trials: int) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    if trials <= 0:
        raise ValueError("trials must be positive")
    start = time.monotonic()
    failures = SUITES[name](seed, trials)
    elapsed = time.monotonic() - start
    return SuiteReport(name, seed, trials, failures, elapsed)


def run_all(seed: int, trials: int) -> List[SuiteReport]:
    return [run_suite(name, seed, trials) for name in SUITE_NAMES]
