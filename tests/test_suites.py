"""The Fock suites run every check on every call, on the basis they build once."""

import hashlib

import pytest

import spinorkit.suites as suites
from spinorkit.fockalg import FockState, OperatorElement, basis_monomials, basis_states
from spinorkit.prng import SplitMix64
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
