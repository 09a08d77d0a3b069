"""The Fock suites run every check on every call, on the basis they build once;
every suite reports a broken kernel with the documented trial numbers and the
pinned report, and each failure record is its trial's check run alone."""

import hashlib
import inspect
import json

import pytest

import spinorkit.suites as suites
from spinorkit.cli import PROPERTY_FAILURE, main
from spinorkit.exactfield import Combination, Scalar
from spinorkit.fnforms import ValuedForm
from spinorkit.fockalg import FockState, OperatorElement, basis_monomials, basis_states
from spinorkit.prng import SplitMix64
from spinorkit.spintensor import EpsilonStructure
from spinorkit.suites import SMALL_UNIVERSE, run_suite

FOCK_SUITES = ("adjunction", "car-ccr", "normal-order")


def test_cached_basis_equals_a_fresh_one():
    assert suites._small_basis() == tuple(basis_states(SMALL_UNIVERSE, 3))
    assert suites._small_basis() is suites._small_basis()
    deep = [m for m in basis_monomials(SMALL_UNIVERSE, 3) if sum(len(p) for p in m) >= 2]
    assert suites._deep_monomials() == tuple(deep)


@pytest.fixture
def apply_drops_a_term(monkeypatch):
    """OperatorElement.apply with its least result term dropped."""
    original = OperatorElement.apply

    def broken(self, psi):
        out = original(self, psi)
        kept = dict(sorted(out.terms.items())[1:])
        return FockState(out.universe, kept)

    monkeypatch.setattr(OperatorElement, "apply", broken)
    return monkeypatch


def _check_digest(suite, seed, trials, capsys) -> str:
    """The sha256 of the stdout report of a failing `check --suite suite`."""
    assert main(["check", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]) == PROPERTY_FAILURE
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_car_ccr_reports_a_broken_apply_with_basis_indices(apply_drops_a_term, capsys):
    assert _check_digest("car-ccr", 3, 1, capsys) == "bd32f76a396886f9dffb311774fe356abaeae47a6e8c9c7fd9b72a2c39920c78"
    first = run_suite("car-ccr", 3, 1).to_json_dict()
    second = run_suite("car-ccr", 3, 1).to_json_dict()
    assert first == second
    # each of the 6 same-mode brackets is the identity and loses every basis state
    failures = first["failures"]
    assert len(failures) == 6 * 63
    assert {f["trial"] for f in failures} == set(range(63))
    assert all(f["input"].startswith("bracket on basis state ") for f in failures)
    apply_drops_a_term.undo()
    assert run_suite("car-ccr", 3, 1).passed


def test_normal_order_reports_a_broken_apply_then_passes_again(apply_drops_a_term, capsys):
    digest = _check_digest("normal-order", 5, 6, capsys)
    assert digest == "1d7210fa449df6ec95a3071cca71ef67c155591fb80984d0378df1abf5702add"
    first = run_suite("normal-order", 5, 6).to_json_dict()
    assert first["failures"]
    assert first == run_suite("normal-order", 5, 6).to_json_dict()
    apply_drops_a_term.undo()
    assert run_suite("normal-order", 5, 6).passed


def test_car_ccr_reports_a_broken_bracket_as_trial_minus_one(monkeypatch):
    original = suites.super_bracket
    monkeypatch.setattr(suites, "super_bracket", lambda x, y: original(x, y).scaled(2))
    first = run_suite("car-ccr", 3, 1).to_json_dict()
    assert first == run_suite("car-ccr", 3, 1).to_json_dict()
    # doubling leaves the vanishing brackets at 0 and breaks the 6 that are the identity
    failures = first["failures"]
    assert [f["trial"] for f in failures] == [-1] * 6
    assert [f["input"] for f in failures] == [
        f"[[a[{s}:{i}], a+[{s}:{i}]]]" for s in ("f", "b") for i in (1, 2, 3)
    ]
    monkeypatch.undo()
    assert run_suite("car-ccr", 3, 1).passed


def test_car_ccr_checks_the_other_brackets_of_a_pair_whose_mixed_bracket_fails(monkeypatch, capsys):
    original = suites.super_bracket
    monkeypatch.setattr(suites, "super_bracket", lambda x, y: original(x, y) + OperatorElement.identity(x.universe))
    assert _check_digest("car-ccr", 3, 1, capsys) == "8592fabdea8e736562643b547f50a85cc906e5849ec957fea716b387c23b62d7"
    # every bracket is off by the identity: the 18 mixed ones are not applied, and the
    # 36 same-kind brackets and the cross-sector one each read nonzero
    failures = run_suite("car-ccr", 3, 1).failures
    assert [f["trial"] for f in failures] == [-1] * 55
    assert sum(f["got"] == "nonzero" for f in failures) == 37
    assert [f["input"] for f in failures[:3]] == ["[[a[f:1], a+[f:1]]]", "[[a[f:1], a[f:1]]]", "[[a+[f:1], a+[f:1]]]"]


def test_signature_reports_an_anti_hermitian_element_that_passes(monkeypatch, capsys):
    monkeypatch.setattr(suites, "k_hermiticity_check", lambda y: True)
    digest = _check_digest("signature", 1, 6, capsys)
    assert digest == "a53281bf0c4cbcffd941c34004752052a798cf4fb3f28ddd93e9f5e80c18961d"
    failures = run_suite("signature", 1, 6).failures
    assert [f["trial"] for f in failures] == list(range(6))
    assert all(f["input"].startswith("i*y with y = ") for f in failures)
    assert {f["got"] for f in failures} == {"anti-Hermitian element passed"}
    assert failures == [suites.check_signature(suites.stream_for(1, f"signature#{k}"), k) for k in range(6)]


def test_car_ccr_runs_every_bracket_and_apply_on_each_call(monkeypatch):
    counts = {"super_bracket": 0, "op_apply": 0}
    for name in counts:
        original = getattr(suites, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(suites, name, counted)
    for _ in range(2):
        assert run_suite("car-ccr", 0, 1).passed
    assert counts == {"super_bracket": 2 * 55, "op_apply": 2 * 18 * 63}


@pytest.mark.parametrize("name", FOCK_SUITES)
def test_fock_suites_repeat_in_one_process(name):
    reports = [run_suite(name, 42, 4).to_json_dict() for _ in range(2)]
    assert reports[0] == reports[1]
    assert reports[0]["failures"] == []


def _draw_record(x) -> str:
    return f"{x!r}@{x.shape!r}" if hasattr(x, "shape") else repr(x)


def test_fock_sampler_draws_golden_digest():
    # every Fock sampler's printed draws, shapes and the word that follows each,
    # recorded from the samplers that built through the validating constructor
    universe = SMALL_UNIVERSE
    deep = suites._deep_monomials()
    full = tuple(basis_monomials(universe, 3))
    samplers = (
        lambda rng: suites.random_rank1(rng, universe),
        lambda rng: suites.random_rank1(rng, universe, dual=True),
        lambda rng: suites.random_fock_state(rng, universe, deep, terms=3),
        lambda rng: suites.random_fock_state(rng, universe, full, terms=4, dual=True),
        lambda rng: suites.random_generator_word(rng, universe),
    )
    digest = hashlib.sha256()
    for seed in range(300):
        rng = SplitMix64(seed)
        for draw in samplers:
            digest.update(f"{_draw_record(draw(rng))}|{rng.next_u64()}\n".encode())
    assert digest.hexdigest() == "a7eef4299ac7774e45a830ce444e56678fcab9a7c5c8fad1e905f2a269e017a4"


class _DoubledPairing(EpsilonStructure):
    """A symplectic form whose pairing g comes out twice too large."""

    __slots__ = ()

    def g_pairing(self, x, y):
        return super().g_pairing(x, y) * 2


def _drop_least(form):
    """The form with the component of its least key dropped."""
    return ValuedForm._trusted(form.shape, dict(sorted(form.terms.items())[1:]))


# (suite, name in the suites namespace, broken kernel made from the original,
#  seed, trials, the trial of each failure record, (field, prefix) of each record,
#  sha256 of the report on stdout).  The failure records print the drawn inputs,
# so the digest pins the draws of each failing trial.
# A trial draw that makes the broken identity hold anyway (a zero bracket or
# product) is no failure, hence the gaps.
BROKEN_KERNELS = [
    (
        "clifford", "g_pairing", lambda g: lambda x, y: g(x, y) + 1, 1, 6, list(range(6)), ("input", "y = "),
        "69aacca2acfacc27804715cc698094cde2c551c49aa0aa8d3afbeafedd87bb5c",
    ),
    (
        "pauli", "EpsilonStructure", lambda cls: _DoubledPairing, 1, 6, list(range(6)), ("input", "b1 = "),
        "0934794071689fb0585177b5375d7ce6102d1e91d2ca78ae973c9777be8fa2e8",
    ),
    (
        "signature", "k_hermiticity_check", lambda check: lambda y: not check(y), 1, 6, list(range(6)),
        ("expected", "k(gamma[y] psi, phi) = k(psi, gamma[y] phi)"),
        "90bb0eb6afc47dc9fee057ace7b7886f359dbbcd3debb8176299f0c6cfa32cd0",
    ),
    # a broken witness is one record, trial -1; the trials do not call k_form
    (
        "signature", "k_form", lambda k: lambda u, v: k(u, v) * 2, 1, 6, [-1],
        ("input", "k-diagonalization witnesses"),
        "f6e026cd0c8714cfc1f84368d33f73a086aab846ac9998054934bfe96f34de6a",
    ),
    # dropping a component of the left operand breaks antisymmetry, trial k recorded as k
    (
        "fn-bracket", "fn_bracket", lambda b: lambda x, y: b(_drop_least(x), y), 1, 20, [2, 5, 9, 10, 11, 17, 18],
        ("expected", "graded antisymmetry"), "bceb07b0dd5147fa3d5ec97d0233649e6916e8781ccf8d931a1e5fb3e924e14d",
    ),
    # a factor 1 + r + s keeps the bracket graded antisymmetric, and breaks Jacobi:
    # round k of 30 // 10 is recorded as k + 30
    (
        "fn-bracket", "fn_bracket", lambda b: lambda x, y: b(x, y).scaled(1 + x.degree + y.degree), 3, 30,
        [30, 31, 32], ("expected", "graded Jacobi identity"),
        "7bf83c9f0191fc854956a2c2d2b0eb030c598c27ea1310f79bf7a61c94e6d84e",
    ),
    (
        "bianchi", "bianchi_residual", lambda residual: suites.curvature, 1, 6, list(range(6)),
        ("expected", "dF + [A, F] = 0"), "c6bc26cf2fd87a94ec414caa2086f12de1debcf37549658268cc3fd025638fcd",
    ),
    # bianchi_residual builds its own curvature, so only the second identity sees this one
    (
        "bianchi", "curvature", lambda f: lambda a: f(a).scaled(2), 1, 6, list(range(6)),
        ("expected", "d_A d_A phi = F /\\ phi"), "0a6168c9f1042c6aa2a5196870456e54fbd4418c4cc911a327941aec2a08e358",
    ),
    # d_A d_A phi = F /\ phi is quadratic in d_A, so only the Leibniz rule sees its sign;
    # a trial whose drawn f is constant has df = 0 and keeps the rule
    (
        "bianchi", "covariant_differential", lambda cd: lambda a, phi: cd(a, phi).scaled(-1), 1, 10, [1, 2, 4, 8],
        ("expected", "d_A (f phi) = df /\\ phi + f d_A phi"),
        "aaa22c0bac91a7ef39ff95c0c3c601636d5dc3170a53694c18f5f6978af95b19",
    ),
    (
        "adjunction", "exterior_product", lambda wedge: lambda a, b: wedge(a, b).scaled(2), 1, 10,
        [1, 3, 4, 6, 7, 9], ("input", "zeta = "),
        "2a743d0a41654065cb4c303ab4b4389f361d9aaf9bd6b26d7e2f79e791f78a22",
    ),
]


BROKEN_FIELDS = "suite, name, broken, seed, trials, trial_numbers, marker, digest"
BROKEN_IDS = [f"{row[0]}-{row[1]}-{row[5][0]}" for row in BROKEN_KERNELS]


@pytest.mark.parametrize(BROKEN_FIELDS, BROKEN_KERNELS, ids=BROKEN_IDS)
def test_check_reports_a_broken_kernel_with_its_trial_numbers(
    suite, name, broken, seed, trials, trial_numbers, marker, digest, monkeypatch, capsys
):
    argv = ["check", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    assert main(argv) == PROPERTY_FAILURE
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    failures = json.loads(out)["failures"]
    assert [f["trial"] for f in failures] == trial_numbers
    field, prefix = marker
    assert all(f[field].startswith(prefix) for f in failures)
    assert main(argv) == PROPERTY_FAILURE and capsys.readouterr().out == out
    monkeypatch.undo()
    assert main(argv) == 0


# each suite's check of its trial k < trials; Jacobi round k is check_jacobi on stream
# fn-jacobi#k, recorded as trial k + trials
TRIAL_CHECKS = {
    "adjunction": suites.check_adjunction,
    "bianchi": suites.check_bianchi,
    "clifford": suites.check_clifford,
    "fn-bracket": suites.check_antisymmetry,
    "pauli": suites.check_pauli,
    "signature": suites.check_signature,
}


@pytest.mark.parametrize(BROKEN_FIELDS, BROKEN_KERNELS, ids=BROKEN_IDS)
def test_each_failure_record_is_its_trial_run_alone(
    suite, name, broken, seed, trials, trial_numbers, marker, digest, monkeypatch
):
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    records = run_suite(suite, seed, trials).failures
    assert [r["trial"] for r in records] == trial_numbers
    for record in records:
        k = record["trial"]
        if k < 0:
            continue
        if k >= trials:
            label, check, index = "fn-jacobi", suites.check_jacobi, k - trials
        else:
            label, check, index = suite, TRIAL_CHECKS[suite], k
        assert check(suites.stream_for(seed, f"{label}#{index}"), k) == record


def _scaled(value, factor):
    """`value` times `factor`; a map on states is scaled in what it returns."""
    if isinstance(value, Combination):
        return value.scaled(factor)
    if isinstance(value, Scalar):
        return value * factor
    return lambda *args: _scaled(value(*args), factor)


def _reporting_suites():
    """The suites whose report at seed 1 and 10 trials has a failure."""
    return tuple(name for name in suites.SUITE_NAMES if run_suite(name, 1, 10).failures)


FAULT_FACTORS = (Scalar(2), Scalar.i(), Scalar(-1))
# kernel: the suites that report it with its result times 2, i and -1.  An empty
# entry is a fault that `check` cannot see:
# - fn_bracket: graded antisymmetry and Jacobi are homogeneous, so any constant factor keeps them;
# - gamma at -1: the Clifford relation is quadratic in it (covariant_differential at -1 keeps
#   d_A d_A phi = F /\ phi too, but breaks the Leibniz rule d_A (f phi) = df /\ phi + f d_A phi);
# - bianchi_residual: it is a residual that must be 0, and every multiple of 0 is 0.
FAULT_MATRIX = {
    "g_pairing": [("clifford",)] * 3,
    "gamma": [("clifford",), ("clifford",), ()],
    "k_form": [("signature",)] * 3,
    "fn_bracket": [()] * 3,
    "curvature": [("bianchi",)] * 3,
    "covariant_differential": [("bianchi",)] * 3,
    "bianchi_residual": [()] * 3,
    "exterior_product": [("adjunction",)] * 3,
    "interior_product": [("adjunction",)] * 3,
    "normal_order": [("normal-order",)] * 3,
    "op_apply": [("car-ccr", "normal-order")] * 3,
    "super_bracket": [("car-ccr",)] * 3,
    "emit": [("car-ccr",)] * 3,
    "absorb": [("car-ccr",)] * 3,
    "generator_action": [("normal-order",)] * 3,
}


@pytest.mark.parametrize("name", FAULT_MATRIX)
def test_fault_matrix_pins_the_suites_that_see_each_kernel_fault(name, monkeypatch):
    original = getattr(suites, name)
    seen = []
    for factor in FAULT_FACTORS:
        monkeypatch.setattr(suites, name, lambda *args, _factor=factor: _scaled(original(*args), _factor))
        seen.append(_reporting_suites())
    assert seen == FAULT_MATRIX[name]


def _names_looked_up(code) -> set:
    return set(code.co_names).union(*(_names_looked_up(c) for c in code.co_consts if inspect.iscode(c)))


def test_fault_matrix_covers_every_kernel_a_check_looks_up():
    # every function of the kernel modules that a check or a suite calls, but
    # the predicate k_hermiticity_check, which returns no value to scale
    looked_up = set().union(
        *(_names_looked_up(f.__code__) for name, f in vars(suites).items() if name.startswith(("check_", "_suite_")))
    )
    kernels = {
        name for name in looked_up
        if inspect.isfunction(f := getattr(suites, name, None)) and f.__module__ not in ("spinorkit.suites", "spinorkit.prng")
    }
    assert kernels == set(FAULT_MATRIX) | {"k_hermiticity_check"}


def test_no_suite_sees_the_pauli_tetrad_orientation(monkeypatch):
    # the pauli suite checks the Gram matrix, which is quadratic in each tetrad element
    original = EpsilonStructure.pauli_tetrad
    calls = []

    def flipped(self, b1, b2):
        calls.append(b1)
        t0, t1, t2, t3 = original(self, b1, b2)
        return t0, t1, -t2, t3

    monkeypatch.setattr(EpsilonStructure, "pauli_tetrad", flipped)
    assert _reporting_suites() == () and len(calls) == 10
