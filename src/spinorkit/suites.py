"""Seeded property suites: every identity the kernel asserts, re-checked exactly.

A suite is a check per trial plus its label.  A check ``check(rng, trial)``
draws one trial's inputs from ``rng`` and returns that trial's failure
record, or None; :func:`_trials` runs trial k on the counter-based substream
``stream_for(seed, f"{label}#{k}")``.  So a (suite, seed, trials) triple
always examines the same inputs, reports are byte-identical across runs, and
any one trial can be re-run alone.  Adding a suite takes one check function
and one row of :data:`SUITES`.  Checks look up kernels, samplers and classes
as module globals on each call, so rebinding one here reaches every trial.
A failure record carries the offending input and both sides of the broken
identity; the suites are theorem checks, so any failure is an
implementation bug, never a property of the inputs.

The ``trial`` of a failure record is the index of the trial that broke, with
two exceptions.  ``car-ccr`` runs fixed checks instead of trials: a failed
apply records the index of the basis state it was applied to, and a failed
bracket, or a broken witness of ``signature``, records -1.  ``fn-bracket``
runs ``max(1, trials // 10)`` Jacobi rounds after its antisymmetry trials;
round k reads stream ``fn-jacobi#k`` and is recorded as trial ``k + trials``.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from .diracw import DiracVector, EndW, gamma, k_form, k_hermiticity_check
from .exactfield import Scalar, _accumulate, _reduced
from .fnforms import (
    _RANKS,
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
    _mode_monomial,
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


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    trials: int
    failures: List[Dict[str, object]]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # elapsed is intentionally absent: reports must be byte-identical
        # across runs for identical (suite, seed, trials)
        return {name: getattr(self, name) for name in ("failures", "seed", "suite", "trials")}


def _failure(trial: int, input: str, expected: str, got: str) -> dict:
    """The record of one broken identity: the trial, its input and both sides."""
    return {"trial": trial, "input": input, "expected": expected, "got": got}


# -- domain samplers -------------------------------------------------------------


_MINK_SHAPE = ((Variance.U, Variance.U_BAR), Fraction(1))
_SPINOR_SHAPE = ((Variance.U,), Fraction(1, 2))


def _random_real(rng: SplitMix64) -> Scalar:
    """p + q*sqrt2 for rationals p and q, each randint(-9, 9) / randint(1, 9), drawn in that order."""
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
        if not (b1.is_zero() or omega.is_zero()):
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


@functools.cache
def _form_keys(dim: int, degree: int, fibre: Fibre) -> tuple:
    """The keys (axes, fibre index) of a form, in key order; built once per shape."""
    indices = itertools.product(range(fibre.size), repeat=_RANKS[fibre.kind])
    return tuple(itertools.product(itertools.combinations(range(dim), degree), indices))


def random_form(rng: SplitMix64, dim: int, degree: int, fibre: Fibre, sparse: bool = False) -> ValuedForm:
    """A form with a `random_poly` drawn for each key (axes, fibre index), in key order.

    With `sparse`, each key first draws a coin, and only a 1 draws its polynomial.
    """
    keys = _form_keys(dim, degree, fibre)
    comps = {key: random_poly(rng, dim) for key in keys if not sparse or rng.randint(0, 1)}
    return ValuedForm._trusted((dim, degree, fibre), comps)


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
        _accumulate(acc, monomials[rng.randint(0, len(monomials) - 1)], random_scalar(rng))
    return FockState._trusted((universe, bool(dual)), acc)


def random_rank1(rng: SplitMix64, universe: Universe, dual=False) -> FockState:
    sector_idx = rng.randint(0, len(universe.sectors) - 1)
    modes = universe.sectors[sector_idx].modes
    terms = {_mode_monomial(universe, sector_idx, mode): random_scalar(rng) for mode in modes}
    return FockState._trusted((universe, bool(dual)), terms)


def random_generator_word(rng: SplitMix64, universe: Universe, max_len: int = 4):
    gens = []
    for _ in range(rng.randint(0, max_len)):
        kind = "+" if rng.randint(0, 1) else "-"
        sector_idx = rng.randint(0, len(universe.sectors) - 1)
        modes = universe.sectors[sector_idx].modes
        gens.append((kind, sector_idx, modes[rng.randint(0, len(modes) - 1)]))
    return gens


# -- the checks -------------------------------------------------------------------


def _trials(label: str, check: Callable, seed: int, trials: int, first: int = 0) -> List[dict]:
    """The records of `check` on trials 0..trials-1, in order; trial k reads `label#k` and is numbered first + k."""
    return [r for k in range(trials) if (r := check(stream_for(seed, f"{label}#{k}"), first + k)) is not None]


def check_clifford(rng: SplitMix64, trial: int) -> Optional[dict]:
    y, yp = random_mink(rng), random_mink(rng)
    gy, gyp = gamma(y), gamma(yp)
    got = gy * gyp + gyp * gy
    expected = EndW.identity().scaled(Scalar(2) * g_pairing(y, yp))
    if got != expected:
        return _failure(trial, f"y = {y}; y' = {yp}", str(expected), str(got))
    return None


_MINK_GRAM = [[Scalar(v if i == j else 0) for j in range(4)] for i, v in enumerate((1, -1, -1, -1))]


def check_pauli(rng: SplitMix64, trial: int) -> Optional[dict]:
    eps = EpsilonStructure()
    b1, b2 = random_spin_frame(rng, eps)
    tetrad = eps.pauli_tetrad(b1, b2)
    for i, ti in enumerate(tetrad):
        for j, tj in enumerate(tetrad):
            got = eps.g_pairing(ti, tj)
            if got != _MINK_GRAM[i][j]:
                return _failure(trial, f"b1 = {b1}; b2 = {b2}; entry = ({i},{j})", str(_MINK_GRAM[i][j]), str(got))
    return None


# Dirac vectors that diagonalize k, and the Gram matrix of k on them
_WITNESSES = tuple(
    DiracVector(tuple(Scalar(x) for x in comps))
    for comps in ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, -1, 0), (0, 1, 0, -1))
)
_WITNESS_GRAM = [[Scalar(v if i == j else 0) for j in range(4)] for i, v in enumerate((2, 2, -2, -2))]


def check_signature(rng: SplitMix64, trial: int) -> Optional[dict]:
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


def _tangent_forms(rng: SplitMix64, count: int):
    """(dim, degrees, forms) of one trial: dim from (2, 3), then `count` degrees, each at most
    what the ones before leave of dim, then a sparse tangent-valued form of each degree."""
    dim = rng.choice((2, 3))
    degrees: List[int] = []
    for _ in range(count):
        degrees.append(rng.randint(0, dim - sum(degrees)))
    return dim, degrees, [random_form(rng, dim, degree, Fibre("tangent", dim), sparse=True) for degree in degrees]


def check_antisymmetry(rng: SplitMix64, trial: int) -> Optional[dict]:
    dim, (r, s), (zeta, xi) = _tangent_forms(rng, 2)
    lhs = fn_bracket(zeta, xi)
    rhs = fn_bracket(xi, zeta).scaled(Scalar(-((-1) ** (r * s))))
    if lhs != rhs:
        return _failure(
            trial, f"dim={dim} r={r} s={s}; zeta = {zeta}; xi = {xi}", "graded antisymmetry",
            f"lhs = {lhs}; rhs = {rhs}",
        )
    return None


def check_jacobi(rng: SplitMix64, trial: int) -> Optional[dict]:
    dim, (r, s, t), (zeta, xi, eta) = _tangent_forms(rng, 3)
    lhs = fn_bracket(zeta, fn_bracket(xi, eta))
    rhs = fn_bracket(fn_bracket(zeta, xi), eta) + fn_bracket(
        xi, fn_bracket(zeta, eta)
    ).scaled(Scalar((-1) ** (r * s)))
    if lhs != rhs:
        return _failure(
            trial, f"dim={dim} degrees=({r},{s},{t})", "graded Jacobi identity",
            f"lhs = {lhs}; rhs = {rhs}",
        )
    return None


def check_bianchi(rng: SplitMix64, trial: int) -> Optional[dict]:
    a = random_form(rng, 3, 1, Fibre("matrix", 2))
    f = curvature(a)
    residual = bianchi_residual(a)
    if not residual.is_zero():
        return _failure(trial, f"A = {a}", "dF + [A, F] = 0", str(residual))
    phi = random_form(rng, 3, rng.randint(0, 1), Fibre("vector", 2))
    d_phi = covariant_differential(a, phi)
    lhs = covariant_differential(a, d_phi)
    rhs = f.wedge(phi)
    if lhs != rhs:
        return _failure(trial, f"A = {a}; phi = {phi}", "d_A d_A phi = F /\\ phi", f"lhs = {lhs}; rhs = {rhs}")
    # the Leibniz rule is linear in d_A, so it sees a sign that the quadratic identity above keeps
    p = random_poly(rng, 3)
    g = ValuedForm._trusted((3, 0, Fibre("matrix", 2)), {((), (0, 0)): p, ((), (1, 1)): p})
    lhs = covariant_differential(a, g.wedge(phi))
    rhs = g.d().wedge(phi) + g.wedge(d_phi)
    if lhs != rhs:
        return _failure(
            trial, f"A = {a}; phi = {phi}; f = {p}", "d_A (f phi) = df /\\ phi + f d_A phi", f"lhs = {lhs}; rhs = {rhs}"
        )
    return None


def check_normal_order(rng: SplitMix64, trial: int) -> Optional[dict]:
    gens = random_generator_word(rng, SMALL_UNIVERSE)
    element = normal_order(SMALL_UNIVERSE, gens)
    reference = generator_action(SMALL_UNIVERSE, gens)
    for psi in _small_basis():
        expected = reference(psi)
        got = op_apply(element, psi)
        if got != expected:
            return _failure(trial, f"word = {gens}; psi = {psi}", str(expected), str(got))
    return None


def check_adjunction(rng: SplitMix64, trial: int) -> Optional[dict]:
    zeta = random_rank1(rng, SMALL_UNIVERSE, dual=True)
    xi = random_rank1(rng, SMALL_UNIVERSE, dual=True)
    psi = random_fock_state(rng, SMALL_UNIVERSE, _deep_monomials(), terms=3)
    if zeta.is_zero() or xi.is_zero() or psi.is_zero():
        return None
    lhs = interior_product(exterior_product(zeta, xi), psi)
    rhs = interior_product(xi, interior_product(zeta, psi))
    if lhs != rhs:
        return _failure(trial, f"zeta = {zeta}; xi = {xi}; psi = {psi}", str(rhs), str(lhs))
    return None


def _suite_car_ccr(seed: int, trials: int) -> List[dict]:
    """The canonical (anti)commutation relations on SMALL_UNIVERSE, exhaustively.

    The checks are fixed, so the suite ignores `seed` and `trials`.  Each call
    builds a table of every mode's absorption a_i and emission a+_i, sector
    by sector, and brackets every same-sector mode pair (i, j), 18 in all:
    [[a_i, a+_j]] must be the identity for i == j and 0 otherwise, and only
    then is applied to each of the 63 basis states of rank <= 3 (18 x 63
    applies), while [[a_i, a_j]] and [[a+_i, a+_j]] must vanish either way;
    one cross-sector bracket [[a+_f1, a+_b1]] must vanish too.  That makes 55
    brackets in all.  A failed apply records the basis index as its trial; a
    failed bracket is recorded with trial -1.
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
                else:
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


def _suite_fn_bracket(seed: int, trials: int) -> List[dict]:
    antisymmetry = _trials("fn-bracket", check_antisymmetry, seed, trials)
    return antisymmetry + _trials("fn-jacobi", check_jacobi, seed, max(1, trials // 10), first=trials)


def _suite_signature(seed: int, trials: int) -> List[dict]:
    """The Gram matrix of k on the witnesses, one record with trial -1 if it is wrong, then the trials."""
    gram = [[k_form(u, v) for v in _WITNESSES] for u in _WITNESSES]
    failures = []
    if gram != _WITNESS_GRAM:
        expected, got = ([str(row[i]) for i, row in enumerate(g)] for g in (_WITNESS_GRAM, gram))
        failures.append(_failure(-1, "k-diagonalization witnesses", str(expected), str(got)))
    return failures + _trials("signature", check_signature, seed, trials)


# every suite by name, each a function of (seed, trials) to its failure records
SUITES: Dict[str, Callable[[int, int], List[dict]]] = {
    "adjunction": functools.partial(_trials, "adjunction", check_adjunction),
    "bianchi": functools.partial(_trials, "bianchi", check_bianchi),
    "car-ccr": _suite_car_ccr,
    "clifford": functools.partial(_trials, "clifford", check_clifford),
    "fn-bracket": _suite_fn_bracket,
    "normal-order": functools.partial(_trials, "normal-order", check_normal_order),
    "pauli": functools.partial(_trials, "pauli", check_pauli),
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
    return SuiteReport(name, seed, trials, failures, time.monotonic() - start)


def run_all(seed: int, trials: int) -> List[SuiteReport]:
    return [run_suite(name, seed, trials) for name in SUITE_NAMES]
