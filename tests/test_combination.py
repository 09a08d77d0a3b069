"""The shared linear-combination core: canonical internal results and traced method names."""

import importlib.util
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorkit.diracw import (
    DiracVector,
    DualDiracVector,
    EndW,
    charge_conjugate,
    dirac_adjoint,
    gamma,
    observer_dagger,
)
from spinorkit.exactfield import Combination, Scalar, UnitMismatchError
from spinorkit.fnforms import ChartError, Fibre, Form, MatrixForm, Poly, TangentForm, ValuedForm, curvature, fn_bracket
from spinorkit.fockalg import FockState, OperatorElement, Sector, SectorMismatchError, Statistics, Universe
from spinorkit.spintensor import EpsilonStructure, ScaledTensor, Variance, VarianceError

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIM = 2
AXES = {0: [()], 1: [(0,), (1,)]}

# few distinct values, so that sums and products cancel often
coeffs = st.sampled_from(
    [Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1), Scalar(0, -1), Scalar(1, 1), Scalar(0, 0, 1)]
)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=4).map(
    lambda terms: Poly(DIM, terms)
)


def tensors(slots):
    keys = st.tuples(*[st.sampled_from((1, 2))] * len(slots))
    return st.dictionaries(keys, coeffs, max_size=4).map(lambda terms: ScaledTensor(slots, terms))


def scalar_forms(degree):
    return st.dictionaries(st.sampled_from(AXES[degree]), polys, max_size=2).map(
        lambda terms: Form(DIM, degree, terms)
    )


def tangent_forms(degree):
    keys = st.tuples(st.sampled_from(AXES[degree]), st.integers(0, DIM - 1))
    return st.dictionaries(keys, polys, max_size=3).map(lambda terms: TangentForm(DIM, degree, terms))


matrix_rows = st.tuples(st.tuples(polys, polys), st.tuples(polys, polys))
connections = st.dictionaries(st.sampled_from(AXES[1]), matrix_rows, max_size=2).map(
    lambda terms: MatrixForm(DIM, 1, 2, terms)
)

spinors = st.lists(coeffs, min_size=4, max_size=4)
endomorphisms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=6).map(
    lambda terms: EndW([[terms.get((i, j), 0) for j in range(4)] for i in range(4)])
)
# a positive Hermitian observer metric: trace 3, det 1
H = ScaledTensor(
    (Variance.U_BAR_DUAL, Variance.U_DUAL),
    {(1, 1): Scalar(2), (1, 2): Scalar(0, 1), (2, 1): Scalar(0, -1), (2, 2): Scalar(1)},
    -1,
)


def rebuilt(x):
    """`x` through its validating public constructor."""
    if isinstance(x, ScaledTensor):
        return ScaledTensor(x.slots, x.terms, x.unit)
    if isinstance(x, Poly):
        return Poly(x.dim, x.terms)
    if isinstance(x, (DiracVector, DualDiracVector)):
        return type(x)(x.components, x.unit)
    if isinstance(x, EndW):
        return EndW(x.rows)
    return ValuedForm(x.dim, x.degree, x.fibre, x.terms)


def assert_canonical(x):
    coeff_type = Poly if isinstance(x, ValuedForm) else Scalar
    for coeff in x.terms.values():
        assert type(coeff) is coeff_type and not coeff.is_zero()
        if coeff_type is Poly:
            assert_canonical(coeff)
    copy = rebuilt(x)
    assert copy == x and hash(copy) == hash(x)


@settings(max_examples=60, deadline=None)
@given(
    variances=st.tuples(st.sampled_from(list(Variance)), st.sampled_from(list(Variance))),
    data=st.data(),
    p=polys,
    q=polys,
    c=coeffs,
)
def test_internal_results_are_canonical(variances, data, p, q, c):
    s, t = data.draw(tensors(variances)), data.draw(tensors(variances))
    w = data.draw(tensors((variances[0].dual,)))
    results = [s + t, s - t, -s, s.scaled(c), s.tensor(t), s.tensor(w).contract(0, 2), s.conj()]
    results += [p + q, p - q, -p, p.scaled(c), p * q, p.diff(0), p - p]

    f, g = data.draw(scalar_forms(1)), data.draw(scalar_forms(1))
    x, y = data.draw(tangent_forms(0)), data.draw(tangent_forms(1))
    a, b = data.draw(connections), data.draw(connections)
    results += [f + g, f - g, -f, f.scaled(c), f.wedge(g), f.d(), g.wedge(f.d())]
    results += [a + b, a - b, a.scaled(c), a.wedge(b), a.d(), curvature(a)]
    results += [x + x.scaled(c), fn_bracket(x, y), fn_bracket(y, y), fn_bracket(x, x)]

    psi, phi = DiracVector(data.draw(spinors)), DiracVector(data.draw(spinors))
    lam = DualDiracVector(data.draw(spinors))
    m, n = data.draw(endomorphisms), data.draw(endomorphisms)
    gy = gamma(data.draw(tensors((Variance.U, Variance.U_BAR))))
    results += [gy, gy * gy, gy * m, m * n, m + n, m - n, -m, m.scaled(c), m - m, m.apply(psi), gy.apply(psi)]
    results += [psi + phi, psi - phi, -psi, psi.scaled(c), lam.compose(m), lam.compose(gy), lam.scaled(c)]
    results += [dirac_adjoint(psi), charge_conjugate(psi), observer_dagger(H, psi)]
    results += [charge_conjugate(psi, EpsilonStructure(Scalar.i()))]
    for result in results:
        assert_canonical(result)


def test_tracer_finds_every_traced_method():
    # the benchmark tracer patches each traced method in its class's own namespace;
    # a method inherited from the shared base would be missing there
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert spans.leftover_wrappers() == []


def _subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


UNIVERSE = Universe([Sector("f", Statistics.FERMION, (1, 2))])


def combination_instances():
    """One instance of every public Combination subclass of the package."""
    return [
        ScaledTensor((Variance.U,), {(1,): Scalar(1)}),
        DiracVector([1, 0, 0, 0]),
        DualDiracVector([0, 1, 0, 0]),
        EndW.identity(),
        Poly(DIM, {(1, 0): Scalar(2)}),
        Form(DIM, 1, {(0,): Poly.const(DIM, 1)}),
        FockState.vacuum(UNIVERSE),
        OperatorElement.identity(UNIVERSE),
    ]


def test_operands_of_another_class_raise_the_left_class_error():
    # the declared error, never an AttributeError from reading the other operand's shape
    instances = combination_instances() + [Scalar(1), 1]
    for x in combination_instances():
        assert issubclass(type(x)._error, (ValueError, VarianceError))
        for y in instances:
            if type(y) is type(x):
                continue
            for op in (lambda: x + y, lambda: x - y):
                with pytest.raises(type(x)._error, match=f"cannot combine {type(x).__name__} with"):
                    op()


def test_scalar_operands_raise_the_container_error_in_either_order():
    # Scalar's own operators refuse a container with the container's error, so
    # the error does not depend on which operand comes first
    for x in combination_instances():
        message = f"^cannot combine {type(x).__name__} with Scalar$"
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((Scalar(1), x), (x, Scalar(1))):
                with pytest.raises(type(x)._error, match=message):
                    op(left, right)
        with pytest.raises(type(x)._error, match=message):
            Scalar.coerce(x)


OTHER_UNIVERSE = Universe([Sector("b", Statistics.BOSON, (1,))])

# (operand, an operand of its class that differs from it in one shape entry, that entry's error and message)
SHAPE_MISMATCHES = [
    (ScaledTensor((Variance.U,), {}), ScaledTensor((Variance.U,), {}, 0), UnitMismatchError, "unit mismatch: 1/2 vs 0"),
    (ScaledTensor((Variance.U,), {}), ScaledTensor((Variance.U_BAR,), {}), VarianceError, "slot mismatch"),
    (FockState.vacuum(UNIVERSE), FockState.vacuum(UNIVERSE, dual=True), SectorMismatchError, "dual mismatch"),
    (FockState.vacuum(UNIVERSE), FockState.vacuum(OTHER_UNIVERSE), SectorMismatchError, "universe mismatch"),
    (OperatorElement.identity(UNIVERSE), OperatorElement.identity(OTHER_UNIVERSE), SectorMismatchError, "universe mismatch"),
    (DiracVector([1, 0, 0, 0]), DiracVector([1, 0, 0, 0], 1), UnitMismatchError, "unit mismatch: 0 vs 1"),
    (DualDiracVector([1, 0, 0, 0]), DualDiracVector([1, 0, 0, 0], 1), UnitMismatchError, "unit mismatch"),
    (Poly(2), Poly(3), ChartError, "dimension mismatch: 2 vs 3"),
    (Form(2, 1, {}), Form(3, 1, {}), ChartError, "dimension mismatch"),
    (Form(2, 1, {}), Form(2, 2, {}), ChartError, "degree mismatch: 1 vs 2"),
    (Form(2, 1, {}), ValuedForm(2, 1, Fibre("vector", 2)), ChartError, "fibre mismatch"),
]


@pytest.mark.parametrize(
    "x, y, error, message", SHAPE_MISMATCHES, ids=[f"{type(x).__name__}: {message}" for x, _, _, message in SHAPE_MISMATCHES]
)
def test_a_shape_entry_mismatch_raises_that_entry_error(x, y, error, message):
    for op in (lambda: x + y, lambda: x - y):
        with pytest.raises(error, match=re.escape(message)):
            op()
    with pytest.raises(error):
        y + x


def test_the_space_check_is_written_once():
    for cls in _subclasses(Combination):
        assert "_check_mate" not in vars(cls), cls.__name__
        # every shape entry declares its error
        assert [field.index for field in cls._fields] == list(range(len(cls._fields)))
    for x in combination_instances():
        assert len(type(x)._fields) == len(x.shape)


def test_instances_reject_assignment():
    # construction writes the slots through their descriptors, past __setattr__;
    # assignment or deletion from outside must still raise and leave the instance as it was
    instances = combination_instances()
    # every public Combination subclass of the package has an instance above
    assert {type(x) for x in instances} == {c for c in _subclasses(Combination) if not c.__name__.startswith("_")}
    for x in instances:
        # an equal copy, its terms inserted in the other order, hashes the same
        copy = type(x)._trusted(x.shape, dict(reversed(x.terms.items())))
        assert copy == x and hash(copy) == hash(x)
        shape, terms = x.shape, dict(x.terms)
        for name in ("shape", "terms"):
            with pytest.raises(AttributeError):
                setattr(x, name, ())
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(x, name)
        assert x.shape == shape and x.terms == terms
    for z in (Scalar(1, 2), Scalar.one(), Scalar(1, 1) * Scalar(0, 1, 3)):
        v = z.ints
        with pytest.raises(AttributeError):
            z._v = (0, 0, 0, 0, 1)
        with pytest.raises(AttributeError, match="is immutable"):
            del z._v
        assert z.ints == v
    # the value objects outside Combination share the rule
    for x, names in (
        (UNIVERSE.sectors[0], ("name", "statistics", "modes")),
        (UNIVERSE, ("sectors", "is_fermion", "vacuum")),
        (EpsilonStructure(Scalar(0, 1)), ("phase",)),
    ):
        before = [getattr(x, name) for name in names]
        for name in names:
            with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
                setattr(x, name, None)
            with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
                delattr(x, name)
        assert [getattr(x, name) for name in names] == before
