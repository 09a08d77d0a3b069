"""The Fock suites run every check on every call, on the basis they build once;
every suite reports a broken kernel with the documented trial numbers."""

import hashlib
import json

import pytest

import spinorkit.suites as suites
from spinorkit.cli import PROPERTY_FAILURE, main
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


def test_car_ccr_reports_a_broken_apply_with_basis_indices(apply_drops_a_term):
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


def test_normal_order_reports_a_broken_apply_then_passes_again(apply_drops_a_term):
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
#  seed, trials, the trial of each failure record, (field, prefix) of each record).
# A trial draw that makes the broken identity hold anyway (a zero bracket or
# product) is no failure, hence the gaps.
BROKEN_KERNELS = [
    ("clifford", "g_pairing", lambda g: lambda x, y: g(x, y) + 1, 1, 6, list(range(6)), ("input", "y = ")),
    ("pauli", "EpsilonStructure", lambda cls: _DoubledPairing, 1, 6, list(range(6)), ("input", "b1 = ")),
    (
        "signature", "k_hermiticity_check", lambda check: lambda y: not check(y), 1, 6, list(range(6)),
        ("expected", "k(gamma[y] psi, phi) = k(psi, gamma[y] phi)"),
    ),
    # a broken witness is one record, trial -1; the trials do not call k_form
    ("signature", "k_form", lambda k: lambda u, v: k(u, v) * 2, 1, 6, [-1], ("input", "k-diagonalization witnesses")),
    # dropping a component of the left operand breaks antisymmetry, trial k recorded as k
    (
        "fn-bracket", "fn_bracket", lambda b: lambda x, y: b(_drop_least(x), y), 1, 20, [2, 5, 9, 10, 11, 17, 18],
        ("expected", "graded antisymmetry"),
    ),
    # a factor 1 + r + s keeps the bracket graded antisymmetric, and breaks Jacobi:
    # round k of 30 // 10 is recorded as k + 30
    (
        "fn-bracket", "fn_bracket", lambda b: lambda x, y: b(x, y).scaled(1 + x.degree + y.degree), 3, 30,
        [30, 31, 32], ("expected", "graded Jacobi identity"),
    ),
    (
        "bianchi", "bianchi_residual", lambda residual: suites.curvature, 1, 6, list(range(6)),
        ("expected", "dF + [A, F] = 0"),
    ),
    # bianchi_residual builds its own curvature, so only the second identity sees this one
    (
        "bianchi", "curvature", lambda f: lambda a: f(a).scaled(2), 1, 6, list(range(6)),
        ("expected", "d_A d_A phi = F /\\ phi"),
    ),
    (
        "adjunction", "exterior_product", lambda wedge: lambda a, b: wedge(a, b).scaled(2), 1, 10,
        [1, 3, 4, 6, 7, 9], ("input", "zeta = "),
    ),
]


@pytest.mark.parametrize(
    "suite, name, broken, seed, trials, trial_numbers, marker",
    BROKEN_KERNELS,
    ids=[f"{row[0]}-{row[1]}-{row[5][0]}" for row in BROKEN_KERNELS],
)
def test_check_reports_a_broken_kernel_with_its_trial_numbers(
    suite, name, broken, seed, trials, trial_numbers, marker, monkeypatch, capsys
):
    argv = ["check", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]
    monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    assert main(argv) == PROPERTY_FAILURE
    out = capsys.readouterr().out
    failures = json.loads(out)["failures"]
    assert [f["trial"] for f in failures] == trial_numbers
    field, prefix = marker
    assert all(f[field].startswith(prefix) for f in failures)
    assert main(argv) == PROPERTY_FAILURE and capsys.readouterr().out == out
    monkeypatch.undo()
    assert main(argv) == 0
