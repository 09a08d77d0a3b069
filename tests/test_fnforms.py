"""Exterior calculus, the FN bracket, curvature and Bianchi, all exact."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from helpers import assert_refuses, refusal_ids
from spinorkit.exactfield import Scalar, _accumulate
from spinorkit.fnforms import (
    ChartError,
    DegreeOverflowError,
    SCALAR,
    Fibre,
    Form,
    MatrixForm,
    Poly,
    TangentForm,
    ValuedForm,
    VectorForm,
    _merge_axes,
    bianchi_residual,
    covariant_differential,
    curvature,
    fn_bracket,
    lie_derivative,
    vector_field,
)
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.spintensor import EpsilonStructure
from spinorkit.suites import random_form as suite_random_form
from spinorkit.suites import random_mink, random_spin_frame, random_spinor
from spinorkit.suites import random_poly as suite_random_poly


def P(dim, text_terms):
    """Tiny builder: {(1,0): 2, ...} with int/Scalar coefficients."""
    return Poly(dim, {k: Scalar.coerce(v) for k, v in text_terms.items()})


def const(dim, v=1):
    return Poly.const(dim, v)


def x_(dim):
    return Poly.var(dim, 0)


def y_(dim):
    return Poly.var(dim, 1)


def random_poly(rng, dim, max_degree=2, terms=2):
    out = Poly(dim)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(dim))
        if sum(exps) > max_degree:
            continue
        out = out + Poly(dim, {exps: random_scalar(rng)})
    return out


def random_form(rng, dim, degree):
    import itertools

    comps = {}
    for axes in itertools.combinations(range(dim), degree):
        comps[axes] = random_poly(rng, dim)
    return Form(dim, degree, comps)


def random_tangent(rng, dim, degree):
    import itertools

    comps = {}
    for axes in itertools.combinations(range(dim), degree):
        for out_axis in range(dim):
            if rng.randint(0, 1):
                comps[(axes, out_axis)] = random_poly(rng, dim)
    return TangentForm(dim, degree, comps)


def random_field(rng, dim):
    return [random_poly(rng, dim) for _ in range(dim)]


def random_matrix_form(rng, dim, fibre, max_degree=2):
    comps = {}
    for axis in range(dim):
        mat = tuple(
            tuple(random_poly(rng, dim, max_degree) for _ in range(fibre))
            for _ in range(fibre)
        )
        comps[(axis,)] = mat
    return MatrixForm(dim, 1, fibre, comps)


def random_vector_form(rng, dim, fibre, degree):
    import itertools

    comps = {}
    for axes in itertools.combinations(range(dim), degree):
        comps[axes] = tuple(random_poly(rng, dim) for _ in range(fibre))
    return VectorForm(dim, degree, fibre, comps)


# -- polynomials ---------------------------------------------------------------


def test_poly_ring_and_derivative():
    p = P(2, {(2, 1): 1})  # x^2 y
    q = P(2, {(0, 1): 3, (1, 0): -1})  # 3y - x
    assert p * q == P(2, {(2, 2): 3, (3, 1): -1})
    assert p.diff(0) == P(2, {(1, 1): 2})
    assert p.diff(1) == P(2, {(2, 0): 1})
    assert (p * q).diff(0) == p.diff(0) * q + p * q.diff(0)
    assert str(p) == "x^2*y"


# -- exterior derivative ---------------------------------------------------------


def test_d_textbook_examples():
    # d(x dy) = dx /\ dy
    omega = Form(2, 1, {(1,): x_(2)})
    assert omega.d() == Form(2, 2, {(0, 1): const(2)})
    # top degree goes to zero
    top = Form(2, 2, {(0, 1): const(2)})
    assert top.d().is_zero()
    # d(x^2 y dx) = -x^2 dx /\ dy: the dy slips past dx with one transposition
    omega = Form(2, 1, {(0,): P(2, {(2, 1): 1})})
    assert omega.d() == Form(2, 2, {(0, 1): P(2, {(2, 0): -1})})


def test_d_squared_is_zero():
    rng = SplitMix64(101)
    for dim in (2, 3, 4):
        for degree in range(dim):
            omega = random_form(rng, dim, degree)
            assert omega.d().d().is_zero()


def test_d_leibniz_over_wedge():
    rng = SplitMix64(102)
    for dim in (2, 3):
        for r in range(dim):
            for s in range(dim - r):
                a = random_form(rng, dim, r)
                b = random_form(rng, dim, s)
                lhs = a.wedge(b).d()
                rhs = a.d().wedge(b) + a.wedge(b.d()).scaled(Scalar((-1) ** r))
                assert lhs == rhs


def test_wedge_graded_commutativity():
    rng = SplitMix64(103)
    for dim in (2, 3):
        for r in range(dim + 1):
            for s in range(dim + 1 - r):
                a = random_form(rng, dim, r)
                b = random_form(rng, dim, s)
                assert a.wedge(b) == b.wedge(a).scaled(Scalar((-1) ** (r * s)))


# -- Lie derivative ----------------------------------------------------------------


def test_lie_coordinate_examples():
    dx_field = vector_field(2, [const(2), Poly(2)])
    dy_field = vector_field(2, [Poly(2), const(2)])
    omega = Form(2, 1, {(1,): x_(2)})  # x dy
    assert lie_derivative(dx_field, omega) == Form(2, 1, {(1,): const(2)})
    assert lie_derivative(dy_field, omega).is_zero()
    # L[x dx](dx) = dx, by the Cartan oracle d(i_u w) + i_u(dw)
    euler_x = vector_field(2, [x_(2), Poly(2)])
    dx_form = Form(2, 1, {(0,): const(2)})
    assert lie_derivative(euler_x, dx_form) == dx_form


def _reference_lie(omega, field):
    """Lie derivative of a scalar form by the coordinate formula, an oracle independent of d and i_u.

    L_u (p dx^s) = u^j d_j p dx^s plus, for each axis s_t, the frame term that
    replaces dx^{s_t} by d_j u^{s_t} dx^j in slot t.
    """
    out = {}
    for (axes, index), poly in omega.terms.items():
        for j in range(omega.dim):
            _accumulate(out, (axes, index), field[j] * poly.diff(j))
        for t, axis in enumerate(axes):
            rest = axes[:t] + axes[t + 1:]
            for j in range(omega.dim):
                du = field[axis].diff(j)
                if j in rest or du.is_zero():
                    continue
                sign, new_axes = _merge_axes((j,), rest)
                # dx^j lands in slot t of the original ordering
                _accumulate(out, (new_axes, index), du * poly, sign * (-1) ** t)
    return omega._like(out)


def _reference_interior(omega, k_form):
    """i_K omega as the sum of K^j_I dx^I /\\ i_{d_j} omega, each i_{d_j} omega by Poly signs alone.

    An oracle independent of the insertion kernel: it contracts one coordinate
    field at a time and wedges with the one-term form K^j_I dx^I.
    """
    dim, p, k = omega.dim, omega.degree, k_form.degree
    out = Form(dim, max(p + k - 1, 0))
    for (k_axes, (j,)), k_poly in k_form.terms.items():
        contracted = {}  # i_{d_j} omega: the axis j in slot t leaves with (-1)^t
        for (axes, index), poly in omega.terms.items():
            if j in axes:
                t = axes.index(j)
                _accumulate(contracted, (axes[:t] + axes[t + 1:], index), poly, (-1) ** t)
        if contracted:
            out += Form(dim, k, {k_axes: k_poly}).wedge(ValuedForm._trusted((dim, p - 1, SCALAR), contracted))
    return out


def identity_form(dim):
    """The tangent 1-form sum_j dx^j (x) d_j, the identity of the tangent bundle."""
    return TangentForm(dim, 1, {((j,), j): const(dim) for j in range(dim)})


def test_interior_matches_poly_products():
    rng = SplitMix64(125)
    nonzero = 0
    for dim in (2, 3, 4):
        for degree in range(dim + 1):
            for k in range(dim + 1):
                for _ in range(2):
                    omega = random_form(rng, dim, degree)
                    if k == 0:
                        u = random_field(rng, dim)
                        u[rng.randint(0, dim - 1)] = Poly(dim)  # a field with a zero component
                        k_form = vector_field(dim, u)
                    else:
                        k_form = random_tangent(rng, dim, k)
                    for kk in (k_form, TangentForm(dim, k)):
                        got, want = omega.interior(kk), _reference_interior(omega, kk)
                        assert got == want and str(got) == str(want)
                        assert got.shape == (dim, max(degree + k - 1, 0), SCALAR)
                        _assert_canonical(got)
                        nonzero += k > 0 and not got.is_zero()
    assert nonzero >= 20
    # i_u (dx^dy + dx^dz) for u = (0, x, -x) is -(x - x) dx: the two terms cancel inside one accumulator
    cancelled = Form(3, 2, {(0, 1): const(3), (0, 2): const(3)}).interior(vector_field(3, [Poly(3), x_(3), -x_(3)]))
    assert cancelled.terms == {} and cancelled.shape == (3, 1, SCALAR)
    # the identity tangent 1-form inserts a p-form into p times itself
    for degree in range(4):
        omega = random_form(rng, 3, degree)
        assert omega.interior(identity_form(3)) == omega.scaled(degree)


def test_cartan_formula():
    rng = SplitMix64(104)
    for dim in (2, 3, 4):
        for degree in range(dim + 1):
            omega = random_form(rng, dim, degree)
            u = random_field(rng, dim)
            lie, reference = lie_derivative(vector_field(dim, u), omega), _reference_lie(omega, u)
            assert lie == reference and str(lie) == str(reference)
    # L_I = [i_I, d] = d for the identity tangent 1-form I
    for degree in range(4):
        omega = random_form(rng, 3, degree)
        assert lie_derivative(identity_form(3), omega) == omega.d()


def test_lie_is_a_derivation_of_wedge():
    # L_K is a derivation of degree k: L_K(a /\ b) = L_K a /\ b + (-1)^(k deg a) a /\ L_K b
    rng = SplitMix64(105)
    for _ in range(10):
        a = random_form(rng, 3, 1)
        b = random_form(rng, 3, 1)
        u = vector_field(3, random_field(rng, 3))
        assert lie_derivative(u, a.wedge(b)) == lie_derivative(u, a).wedge(b) + a.wedge(lie_derivative(u, b))
    for k in (1, 2):
        for r in range(3 - k):
            a, b, kk = random_form(rng, 3, r), random_form(rng, 3, 1), random_tangent(rng, 3, k)
            lhs = lie_derivative(kk, a.wedge(b))
            assert lhs == lie_derivative(kk, a).wedge(b) + a.wedge(lie_derivative(kk, b)).scaled((-1) ** (k * r))


# the (dim, k, l, p) shapes of the FN bracket's defining identity L_[K,L] = [L_K, L_L]
FN_LIE_SHAPES = [(3, 1, 1, 1), (4, 1, 1, 1), (4, 1, 1, 2), (4, 2, 1, 1), (4, 1, 2, 0), (3, 0, 1, 1), (4, 2, 2, 0),
                 (2, 1, 1, 0), (3, 1, 1, 0)]


def test_fn_bracket_is_the_commutator_of_lie_derivatives():
    # Kolar, Michor and Slovak (1993), section 8: [K, L] is the one bracket with
    # L_[K,L] = L_K L_L - (-1)^(kl) L_L L_K; a constant factor c != 1 on fn_bracket
    # scales the right side and fails wherever the left side is nonzero
    nonzero = 0
    for dim, k, l, p in FN_LIE_SHAPES:
        tangent = Fibre("tangent", dim)
        for seed in range(10):
            rng = SplitMix64(seed)
            kk = suite_random_form(rng, dim, k, tangent, sparse=True)
            ll = suite_random_form(rng, dim, l, tangent, sparse=True)
            omega = suite_random_form(rng, dim, p, SCALAR, sparse=True)
            lhs = lie_derivative(kk, lie_derivative(ll, omega)) - lie_derivative(
                ll, lie_derivative(kk, omega)
            ).scaled((-1) ** (k * l))
            bracket = fn_bracket(kk, ll)
            assert lhs == lie_derivative(bracket, omega)
            if not lhs.is_zero():
                nonzero += 1
                for factor in (Scalar(2), Scalar(0, 1), Scalar(-1)):
                    assert lhs != lie_derivative(bracket.scaled(factor), omega)
    assert nonzero >= 25


# -- FN bracket -------------------------------------------------------------------


def lie_bracket_oracle(u, v, dim):
    """[u, v]^k = u^j d_j v^k - v^j d_j u^k, computed directly."""
    out = []
    for k in range(dim):
        acc = Poly(dim)
        for j in range(dim):
            acc = acc + u[j] * v[k].diff(j) - v[j] * u[k].diff(j)
        out.append(acc)
    return out


def test_fn_bracket_of_vector_fields_is_lie_bracket():
    rng = SplitMix64(106)
    for dim in (2, 3):
        for _ in range(20):
            u, v = random_field(rng, dim), random_field(rng, dim)
            bracket = fn_bracket(
                vector_field(dim, u), vector_field(dim, v)
            )
            assert bracket == vector_field(dim, lie_bracket_oracle(u, v, dim))
    # fnb(x d/dy, d/dx) = -d/dy
    xy = vector_field(2, [Poly(2), x_(2)])
    ddx = vector_field(2, [const(2), Poly(2)])
    expected = vector_field(2, [Poly(2), const(2, -1)])
    assert fn_bracket(xy, ddx) == expected


def test_fn_bracket_golden_values():
    # fnb(x dy (x) d/dx, d/dx) = -dy (x) d/dx: only the -(L[v] l) term survives
    zeta = TangentForm(2, 1, {((1,), 0): x_(2)})
    ddx = vector_field(2, [const(2), Poly(2)])
    assert fn_bracket(zeta, ddx) == TangentForm(2, 1, {((1,), 0): const(2, -1)})

    # odd self-bracket need not vanish, but this one does: all five terms die
    # on dx (x) d/dx (hand expansion: constant coefficients, dx /\ dx = 0)
    eta = TangentForm(2, 1, {((0,), 0): const(2)})
    assert fn_bracket(eta, eta).is_zero()

    # nonzero golden value, frozen from the five-term hand expansion:
    # fnb(x dy (x) d/dx, y dx (x) d/dy) = dx /\ dy (x) (x d/dx - y d/dy)
    zeta = TangentForm(2, 1, {((1,), 0): x_(2)})
    xi = TangentForm(2, 1, {((0,), 1): y_(2)})
    expected = TangentForm(2, 2, {((0, 1), 0): x_(2), ((0, 1), 1): y_(2).scaled(Scalar(-1))})
    assert fn_bracket(zeta, xi) == expected
    # and the odd self-bracket of their sum is twice the cross term
    combo = zeta + xi
    assert fn_bracket(combo, combo) == expected + expected


def test_fn_bracket_graded_antisymmetry():
    rng = SplitMix64(107)
    for dim in (2, 3):
        for r in range(dim + 1):
            for s in range(dim + 1 - r):
                zeta = random_tangent(rng, dim, r)
                xi = random_tangent(rng, dim, s)
                lhs = fn_bracket(zeta, xi)
                rhs = fn_bracket(xi, zeta).scaled(Scalar(-((-1) ** (r * s))))
                assert lhs == rhs


def test_fn_bracket_graded_jacobi():
    rng = SplitMix64(108)
    checked = 0
    for dim in (2, 3):
        for r in range(dim + 1):
            for s in range(dim + 1 - r):
                for t in range(dim + 1 - r - s):
                    zeta = random_tangent(rng, dim, r)
                    xi = random_tangent(rng, dim, s)
                    eta = random_tangent(rng, dim, t)
                    lhs = fn_bracket(zeta, fn_bracket(xi, eta))
                    rhs = fn_bracket(fn_bracket(zeta, xi), eta) + fn_bracket(
                        xi, fn_bracket(zeta, eta)
                    ).scaled(Scalar((-1) ** (r * s)))
                    assert lhs == rhs
                    checked += 1
    assert checked >= 20


def test_fn_bracket_degree_overflow():
    zeta = random_tangent(SplitMix64(1), 3, 2)
    with pytest.raises(DegreeOverflowError):
        fn_bracket(zeta, zeta)


def _reference_fn_bracket(zeta, xi):
    """The five-term rule built from wedge, d and interior on one-term scalar forms."""
    dim, r, s = zeta.dim, zeta.degree, xi.degree
    out = TangentForm(dim, r + s)

    def lift(form, out_axis, sign=1):
        comps = {(axes, out_axis): poly for (axes, _), poly in form.terms.items()}
        return TangentForm(dim, r + s, comps).scaled(sign)

    def basis_field(axis):
        return vector_field(dim, [Poly.const(dim, 1) if i == axis else Poly(dim) for i in range(dim)])

    sign_r = (-1) ** r
    for (s_axes, (j,)), lam_poly in zeta.terms.items():
        lam = Form(dim, r, {s_axes: lam_poly})
        for (t_axes, (k,)), mu_poly in xi.terms.items():
            mu = Form(dim, s, {t_axes: mu_poly})
            out += lift(lam.wedge(Form(dim, s, {t_axes: mu_poly.diff(j)})), k)
            out += lift(Form(dim, r, {s_axes: lam_poly.diff(k)}).wedge(mu), j, -1)
            if k in s_axes:
                out += lift(lam.interior(basis_field(k)).wedge(mu.d()), j, sign_r)
            if j in t_axes:
                out += lift(lam.d().wedge(mu.interior(basis_field(j))), k, sign_r)
    return out


def bracket_pairs(seed, count):
    """(kind, zeta, xi) for `count` seeded pairs of suite tangent forms in dims 1-4, and nested pairs.

    Every fifth pair is a "self" bracket where the degree allows it, and each
    pair whose degrees allow it is followed by the "nested" (zeta, fnb(zeta, xi)).
    """
    rng = SplitMix64(seed)
    for n in range(count):
        dim = 1 + n % 4
        r = rng.randint(0, dim)
        s = rng.randint(0, dim - r)
        tangent = Fibre("tangent", dim)
        zeta = suite_random_form(rng, dim, r, tangent, sparse=True)
        if n % 5 == 0 and 2 * r <= dim:
            kind, xi, s = "self", zeta, r
        else:
            kind, xi = "pair", suite_random_form(rng, dim, s, tangent, sparse=True)
        yield kind, zeta, xi
        if 2 * r + s <= dim:
            yield "nested", zeta, fn_bracket(zeta, xi)


def test_fn_bracket_matches_the_wrapper_construction():
    kinds = []
    for kind, zeta, xi in bracket_pairs(112, 300):
        assert fn_bracket(zeta, xi) == _reference_fn_bracket(zeta, xi)
        kinds.append(kind)
    assert kinds.count("self") >= 20 and kinds.count("nested") >= 20


def test_fn_bracket_golden_digest():
    # sha256 of the printed brackets, recorded from the wrapper construction
    digest = hashlib.sha256()
    for _, zeta, xi in bracket_pairs(2011, 300):
        digest.update(str(fn_bracket(zeta, xi)).encode() + b"\n")
    assert digest.hexdigest() == "409d5ddf0d5aa07be106319075df9a071b01832e9d75b99ca3cc6cb2710ff3c1"


def test_suite_tangent_form_draws_golden_digest():
    # the printed forms and the draw that follows each: pins the draw order too
    rng = SplitMix64(6677)
    digest = hashlib.sha256()
    for n in range(300):
        dim = 1 + n % 4
        form = suite_random_form(rng, dim, n % (dim + 1), Fibre("tangent", dim), sparse=True)
        digest.update(f"{form}|{rng.next_u64()}\n".encode())
    assert digest.hexdigest() == "bbfd9d8df85e680c121b4073fd5c7cd2208a01097c871d8b5b646cde05cf1101"


def _draw_record(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(_draw_record(v) for v in x) + ")"
    return f"{x!r}@{x.ints if isinstance(x, Scalar) else x.shape!r}"


def test_suite_sampler_draws_golden_digest():
    # every suite sampler's printed draws, shapes and the word that follows each,
    # recorded from the samplers that drew through Fraction and the public constructors
    eps = EpsilonStructure()
    samplers = (
        random_mink,
        random_spinor,
        lambda rng: random_spin_frame(rng, eps),
        lambda rng: suite_random_form(rng, 3, 1, Fibre("matrix", 2)),
        lambda rng: suite_random_form(rng, 3, 1, Fibre("vector", 2)),
        lambda rng: suite_random_form(rng, 2, 1, Fibre("tangent", 2), sparse=True),
        random_scalar,
    )
    digest = hashlib.sha256()
    for seed in range(300):
        rng = SplitMix64(seed)
        for draw in samplers:
            digest.update(f"{_draw_record(draw(rng))}|{rng.next_u64()}\n".encode())
    assert digest.hexdigest() == "8642dd3f5e6dd821b27db9b10b7bdf9f210a32ce71e578b38870730de4afbb00"


def test_suite_random_poly_is_the_sum_of_its_monomials():
    # random_poly above sums one-term polynomials; the suite's draws the same values in the same order
    for seed in range(40):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for dim in range(1, 5):
            for max_degree, terms in ((0, 3), (1, 4), (2, 2), (3, 6)):
                assert suite_random_poly(rng, dim, max_degree, terms) == random_poly(ref, dim, max_degree, terms)
        assert rng.next_u64() == ref.next_u64()


def test_connection_self_bracket_jacobi():
    # fnb(G, fnb(G, G)) = 0 for any degree-1 tangent form: the chart shadow of
    # the second Bianchi identity for the induced connection
    rng = SplitMix64(109)
    for _ in range(10):
        gamma = random_tangent(rng, 3, 1)
        assert fn_bracket(gamma, fn_bracket(gamma, gamma)).is_zero()


# -- covariant differential, curvature, Bianchi --------------------------------------


def N_matrix(dim):
    """The nilpotent [[0,1],[0,0]] as constant fibre matrix."""
    return (
        (Poly(dim), Poly.const(dim, 1)),
        (Poly(dim), Poly(dim)),
    )


def test_covariant_differential_flat_case():
    a0 = MatrixForm(2, 1, 2, {})
    phi = VectorForm(2, 0, 2, {(): (x_(2), Poly(2))})
    d_phi = covariant_differential(a0, phi)
    assert d_phi == VectorForm(2, 1, 2, {(0,): (const(2), Poly(2))})


def test_covariant_differential_matrix_action():
    a = MatrixForm(2, 1, 2, {(1,): N_matrix(2)})  # x dy * N
    a = a.scaled(Scalar(1))
    a = MatrixForm(2, 1, 2, {(1,): tuple(tuple(p * x_(2) for p in row) for row in N_matrix(2))})
    phi = VectorForm(2, 0, 2, {(): (Poly(2), const(2))})
    out = covariant_differential(a, phi)
    assert out == VectorForm(2, 1, 2, {(1,): (x_(2), Poly(2))})


def test_curvature_examples():
    # A = x dy * N with N nilpotent: A /\ A = 0 and F = dx /\ dy * N
    a = MatrixForm(2, 1, 2, {(1,): tuple(tuple(p * x_(2) for p in row) for row in N_matrix(2))})
    f = curvature(a)
    assert f == MatrixForm(2, 2, 2, {(0, 1): N_matrix(2)})
    # A = 0 and constant A = c dx * M both give zero
    assert curvature(MatrixForm(2, 1, 2, {})).is_zero()
    const_mat = tuple(
        tuple(Poly.const(2, Scalar(3)) for _ in range(2)) for _ in range(2)
    )
    assert curvature(MatrixForm(2, 1, 2, {(0,): const_mat})).is_zero()


def test_curvature_gauge_flat():
    # A = g^-1 dg for unipotent g = [[1, p], [0, 1]]: A = [[0, dp], [0, 0]]
    rng = SplitMix64(110)
    for _ in range(10):
        p = random_poly(rng, 3)
        comps = {}
        for axis in range(3):
            dp = p.diff(axis)
            comps[(axis,)] = ((Poly(3), dp), (Poly(3), Poly(3)))
        a = MatrixForm(3, 1, 2, comps)
        assert curvature(a).is_zero()


def test_ricci_identity():
    # d_A d_A phi = F /\ phi, exactly, for random connections and sections
    rng = SplitMix64(111)
    for _ in range(15):
        a = random_matrix_form(rng, 3, 2)
        f = curvature(a)
        for degree in (0, 1):
            phi = random_vector_form(rng, 3, 2, degree)
            lhs = covariant_differential(a, covariant_differential(a, phi))
            rhs = f.wedge(phi)
            assert lhs == rhs


def test_bianchi_residual_vanishes():
    # dF + [A, F] = 0 for every connection form
    a = MatrixForm(3, 1, 2, {(1,): tuple(tuple(p * x_(3) for p in row) for row in N_matrix(3))})
    assert bianchi_residual(a).is_zero()
    assert bianchi_residual(MatrixForm(3, 1, 2, {})).is_zero()
    rng = SplitMix64(112)
    for _ in range(25):
        a = random_matrix_form(rng, 3, 2)
        assert bianchi_residual(a).is_zero()


# -- the accumulating kernels against a plain-Scalar reference -------------------------


def _plain_product(p: dict, q: dict, sign: int) -> dict:
    """sign * p * q on term dicts, by Scalar * and + alone."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Scalar.zero()) + c1 * c2 * sign
    return out


def _plain_add(out: dict, key, terms: dict):
    acc = out.setdefault(key, {})
    for e, c in terms.items():
        acc[e] = acc.get(e, Scalar.zero()) + c


def _plain_form(shape, out) -> ValuedForm:
    dim, degree, fibre = shape
    return ValuedForm(dim, degree, fibre, {key: Poly(dim, terms) for key, terms in out.items()})


def _reference_d(form):
    """d by the coordinate formula: d_j p dx^j /\\ dx^axes, the sign of dx^j moved past the smaller axes."""
    out = {}
    for (axes, index), poly in form.terms.items():
        for j in range(form.dim):
            if j in axes:
                continue
            sign = (-1) ** sum(a < j for a in axes)
            partial = {}
            for exps, coeff in poly.terms.items():
                if exps[j]:
                    partial[exps[:j] + (exps[j] - 1,) + exps[j + 1:]] = coeff * exps[j] * sign
            _plain_add(out, (tuple(sorted(axes + (j,))), index), partial)
    return _plain_form((form.dim, form.degree + 1, form.fibre), out)


def _fibre_triples(left, right):
    """(output index, left index, right index) of every term of the fibre product rule, densely."""
    if left.fibre.kind == "scalar":
        return [((), (), ())]
    n = range(left.fibre.size)
    if right.fibre.kind == "matrix":
        return [((i, k), (i, j), (j, k)) for i in n for j in n for k in n]
    return [((i,), (i, j), (j,)) for i in n for j in n]


def _reference_wedge(left, right):
    """left /\\ right densely: every output axis set split every way, each sign by an inversion count."""
    dim, r, s = left.dim, left.degree, right.degree
    out = {}
    for axes in itertools.combinations(range(dim), r + s):
        for s1 in itertools.combinations(axes, r):
            s2 = tuple(a for a in axes if a not in s1)
            sign = (-1) ** sum(x > y for x, y in itertools.combinations(s1 + s2, 2))
            for index, i1, i2 in _fibre_triples(left, right):
                p, q = left.terms.get((s1, i1)), right.terms.get((s2, i2))
                if p is not None and q is not None:
                    _plain_add(out, (axes, index), _plain_product(p.terms, q.terms, sign))
    return _plain_form((dim, r + s, right.fibre), out)


def _assert_canonical(form):
    """No zero component and no zero coefficient survives in `form`."""
    for poly in form.terms.values():
        assert poly.terms and not any(c.is_zero() for c in poly.terms.values())


def test_kernels_match_a_plain_scalar_reference():
    rng = SplitMix64(24)
    # mixed denominators: the x^2 dx^dy coefficient of a /\ b sums 1/6 and -1/3 over 18 and reduces to -1/6
    p = P(2, {(1, 0): Scalar(Fraction(1, 6)), (0, 1): Scalar(0, Fraction(2, 9))})
    q = P(2, {(0, 0): Scalar(Fraction(1, 3), 0, Fraction(1, 4)), (1, 0): Scalar(Fraction(1, 3))})
    a = Form(2, 1, {(0,): p, (1,): q})
    assert a.wedge(Form(2, 1, {(0,): x_(2), (1,): x_(2)})).terms[((0, 1), ())].terms[(2, 0)] == Fraction(-1, 6)
    hand = [(a, Form(2, 1, {(0,): x_(2), (1,): x_(2)})), (a, Form(2, 1, {(0,): q, (1,): p + p}))]
    for dim in (1, 2, 3, 4):
        for r in range(dim + 1):
            s = rng.randint(0, dim - r)
            hand.append((suite_random_form(rng, dim, r, SCALAR), suite_random_form(rng, dim, s, SCALAR, sparse=True)))
    for a, b in hand:
        for got, want in (
            (a.d(), _reference_d(a)),
            (a.wedge(b), _reference_wedge(a, b)),
            (a.wedge(a), _reference_wedge(a, a)),
        ):
            assert got == want and str(got) == str(want)
            _assert_canonical(got)
        # an odd form's square cancels term by term inside one accumulator
        if a.degree % 2:
            assert a.wedge(a).terms == {}
        cancelled = a.wedge(b) + (-a).wedge(b)
        assert cancelled.is_zero() and cancelled.terms == {}
    for _ in range(12):
        a = suite_random_form(rng, 3, 1, Fibre("matrix", 2))
        phi = suite_random_form(rng, 3, rng.randint(0, 2), Fibre("vector", 2), sparse=True)
        f = _reference_d(a) + _reference_wedge(a, a)
        cases = (
            (curvature(a), f),
            (covariant_differential(a, phi), _reference_d(phi) + _reference_wedge(a, phi)),
            (a.wedge(phi), _reference_wedge(a, phi)),
            (bianchi_residual(a), _reference_d(f) + _reference_wedge(a, f) - _reference_wedge(f, a)),
        )
        for got, want in cases:
            assert got == want and str(got) == str(want)
            _assert_canonical(got)
        assert bianchi_residual(a).terms == {}


def test_merge_axes_matches_an_inversion_count():
    sorted_axes = [t for k in range(7) for t in itertools.combinations(range(6), k)]
    led = [(i,) + t for i in range(6) for t in sorted_axes]  # the shape fn_bracket passes, repeats included
    pairs = itertools.chain(
        itertools.product(sorted_axes, sorted_axes),
        itertools.product(led, sorted_axes),
        itertools.product(sorted_axes, led),
    )
    for s1, s2 in pairs:
        merged = s1 + s2
        if len(set(merged)) < len(merged):
            expected = None
        else:
            expected = (-1) ** sum(x > y for x, y in itertools.combinations(merged, 2)), tuple(sorted(merged))
        assert _merge_axes(s1, s2) == expected
    # the memo answers a repeated call with the same result
    assert _merge_axes((2,), (0, 1)) == (1, (0, 1, 2)) and _merge_axes((1, 0), (2,)) == (-1, (0, 1, 2))


def test_chart_dimension_bounds():
    with pytest.raises(ChartError):
        Poly(7)
    with pytest.raises(ChartError):
        Form(0, 0)


def test_kind_mismatches_raise_chart_error():
    # every operation checks the fibre kinds it is defined for
    x = x_(2)
    scalar = Form(2, 1, {(0,): x})
    tangent = TangentForm(2, 1, {((0,), 1): x})
    field = vector_field(2, [x, Poly(2)])
    vector = VectorForm(2, 0, 2, {(): (x, x)})
    matrix = MatrixForm(2, 1, 2, {(1,): N_matrix(2)})
    calls = [
        lambda: scalar.wedge(tangent),
        lambda: matrix.wedge(scalar),
        lambda: vector.wedge(matrix),
        lambda: matrix.wedge(MatrixForm(2, 1, 3, {})),
        lambda: tangent.d(),
        lambda: fn_bracket(scalar, tangent),
        lambda: fn_bracket(tangent, matrix),
        lambda: curvature(scalar),
        lambda: bianchi_residual(vector),
        lambda: covariant_differential(matrix, scalar),
        lambda: covariant_differential(vector, vector),
        lambda: lie_derivative(field, matrix),
        lambda: lie_derivative(scalar, scalar),
        lambda: vector.interior(field),
        lambda: scalar.interior(matrix),
        lambda: scalar + tangent,
    ]
    for call in calls:
        with pytest.raises(ChartError):
            call()


# (call, error, message): each constructor and kernel refusal of bad input
FNFORMS_REFUSALS = [
    (lambda: Poly(2, {(1,): 1}), ChartError, "bad exponent tuple (1,) for dim 2"),
    (lambda: Form(2, 1, {(5,): Poly(2)}), ChartError, "axis out of range in (5,)"),
    (lambda: Form(2, 2, {(1, 0): Poly(2)}), ChartError, "axes must be strictly increasing, got (1, 0)"),
    # a degree over the dimension leaves no valid axes, so a nonzero component is refused by them
    (lambda: Form(2, 3, {(0, 1, 2): Poly.const(2, 1)}), ChartError, "axis out of range in (0, 1, 2)"),
    (lambda: ValuedForm(2, -1, SCALAR), DegreeOverflowError, "negative degree"),
    (
        lambda: ValuedForm(2, 0, Fibre("tangent", 3)), ChartError,
        "bad fibre Fibre(kind='tangent', size=3) on a chart of dimension 2",
    ),
    (
        lambda: ValuedForm(2, 0, Fibre("vector", 2), {((), (2,)): Poly(2)}), ChartError,
        "fibre index (2,) out of range for Fibre(kind='vector', size=2)",
    ),
    (lambda: Form(2, 0, {(): Poly(3)}), ChartError, "component polynomial on wrong chart"),
    (lambda: Form(2, 1).wedge(Form(3, 1)), ChartError, "wedge across different charts"),
    (lambda: VectorForm(2, 0, 2, {(): (Poly(2),)}), ChartError, "bad fibre vector"),
    (lambda: MatrixForm(2, 0, 2, {(): ((Poly(2),), (Poly(2),))}), ChartError, "bad fibre matrix"),
    (lambda: fn_bracket(TangentForm(2, 0), TangentForm(3, 0)), ChartError, "bracket across different charts"),
    (
        lambda: covariant_differential(MatrixForm(2, 0, 2), VectorForm(2, 0, 2)), ChartError,
        "connection form must have degree 1",
    ),
    (lambda: curvature(MatrixForm(2, 2, 2)), ChartError, "connection form must have degree 1"),
    # d_A checks the section against the connection before it differentiates anything
    (
        lambda: covariant_differential(MatrixForm(2, 1, 2), VectorForm(2, 0, 3)), ChartError,
        "no wedge product of a matrix-valued form (fibre size 2) and a vector-valued form (fibre size 3)",
    ),
    (lambda: covariant_differential(MatrixForm(2, 1, 2), VectorForm(3, 0, 2)), ChartError, "wedge across different charts"),
    # i_K and L_K check K against the form's chart before any product
    (lambda: Form(2, 1, {(0,): x_(2)}).interior(vector_field(3, [Poly(3), x_(3)])), ChartError, "dimension mismatch: 3 vs 2"),
    (
        lambda: lie_derivative(vector_field(2, [x_(2), Poly(2)]), Form(3, 0, {(): Poly.var(3, 2)})), ChartError,
        "dimension mismatch: 2 vs 3",
    ),
    # K is a tangent-valued form, never a list of component polynomials or a scalar form
    (lambda: Form(2, 1, {(0,): x_(2)}).interior([x_(2), Poly(2)]), ChartError, "i_K is not defined for a list"),
    (
        lambda: Form(2, 1, {(0,): x_(2)}).interior(Form(2, 0, {(): x_(2)})), ChartError,
        "i_K is not defined for a scalar-valued form",
    ),
]


@pytest.mark.parametrize("call, error, message", FNFORMS_REFUSALS, ids=refusal_ids(FNFORMS_REFUSALS))
def test_refusals_name_their_error(call, error, message):
    assert_refuses(call, error, message)
