"""Differential forms with exact polynomial coefficients on a coordinate chart.

Forms live on R^m with 1 <= m <= 6; coefficients are polynomials over
Q(i, sqrt2), so every identity below is decided exactly.  Scalar-, tangent-,
vector- and matrix-valued forms are one construction, sections of
Lambda^r T* (x) E for a fibre E, and one class, :class:`ValuedForm`, holds
them all.  Components are stored sparsely on strictly increasing axis subsets
and fibre indices; all signs flow from sorting permutation parity, memoized
over the finite domain of `_merge_axes`.
:class:`Poly` and :class:`ValuedForm` are both ``exactfield.Combination``
subclasses: a form's coefficients are polynomials, whose coefficients are
scalars.  Their public constructors validate every key; the results computed
here are canonical by construction and go through the trusted constructor,
which only drops zero coefficients.  Every kernel below and the polynomial
product add their terms into one accumulator {(axes, fibre index):
{exponents: (a, b, c, d, den)}} of unreduced numerators over a running
denominator, the rule of ``exactfield._dot``, and `_poly_form` reduces each
coefficient once and builds each component Poly once.  On top of that sit:

* exterior differential, the wedge product with its fibre product rule, and
  the insertion i_K w = K^j_I dx^I /\\ i_{d_j} w of a tangent-valued k-form K
  (a vector field is k = 0), with the Lie derivative L_K = [i_K, d] =
  i_K d - (-1)^(k-1) d i_K in one accumulator, so L_[K,L] = [L_K, L_L],
* the Frolicher-Nijenhuis bracket of tangent-valued forms via the five-term
  rule on decomposables, with each wedge sign from the axis-merge parity and
  each partial derivative computed once per call,
* covariant differential d_A = d + A /\\ . , curvature F = dA + A /\\ A, and the
  Bianchi residual dF + A /\\ F - F /\\ A which must vanish identically; each
  sum of kernels shares one accumulator.
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Dict, NamedTuple, Tuple

from .exactfield import Combination, Scalar, _reduced, _set_shape, _set_terms, shape_field

AXIS_NAMES = "xyzwuv"

Exponents = Tuple[int, ...]
Axes = Tuple[int, ...]


class ChartError(ValueError):
    """Dimension or fibre mismatch between chart objects."""


class DegreeOverflowError(ValueError):
    """Requested form degree exceeds the chart dimension."""


def _check_dim(dim: int):
    """Raise ChartError unless 1 <= dim <= len(AXIS_NAMES), the one chart cap."""
    if not 1 <= dim <= len(AXIS_NAMES):
        raise ChartError(f"chart dimension must be 1..{len(AXIS_NAMES)}, got {dim}")


def _raw(terms: dict) -> list:
    """The items (exponents, canonical ints) of a polynomial term dict {exponents: Scalar}."""
    return [(exps, coeff._v) for exps, coeff in terms.items()]


def _add_product(out: dict, p: list, q: list, sign: int = 1):
    """out += sign * p * q (sign +1 or -1) for raw items p and q, into an accumulator {exponents: raw ints}."""
    for e1, (a1, b1, c1, d1, n1) in p:
        if sign < 0:
            a1, b1, c1, d1 = -a1, -b1, -c1, -d1
        for e2, (a2, b2, c2, d2, n2) in q:
            e = tuple(map(add, e1, e2))
            a = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
            b = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
            c = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
            d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
            n = n1 * n2
            prev = out.get(e)
            if prev is not None:
                a0, b0, c0, d0, m = prev
                if m == n:
                    a, b, c, d = a0 + a, b0 + b, c0 + c, d0 + d
                else:
                    a, b, c, d, n = a0 * n + a * m, b0 * n + b * m, c0 * n + c * m, d0 * n + d * m, m * n
            out[e] = a, b, c, d, n


def _finished(items) -> dict:
    """The term dict {exponents: Scalar} of raw or accumulated items, each reduced once; zeros drop by their ints."""
    return {exps: _reduced(*v) for exps, v in items if v[0] or v[1] or v[2] or v[3]}


def _partial(items: list, axis: int) -> list:
    """d/dx_axis on raw items; each coefficient times its exponent stays unreduced."""
    out = []
    for exps, (a, b, c, d, den) in items:
        k = exps[axis]
        if k:
            # distinct exponents stay distinct after d/dx_axis, so keys never collide
            out.append((exps[:axis] + (k - 1,) + exps[axis + 1:], (a * k, b * k, c * k, d * k, den)))
    return out


class Poly(Combination):
    """Sparse multivariate polynomial with Scalar coefficients, keyed by exponent tuples."""

    __slots__ = ()
    _error = ChartError
    dim = shape_field(0, "The number of variables.", ChartError, "dimension")

    def __init__(self, dim: int, terms: Dict[Exponents, Scalar] | None = None):
        _check_dim(dim)
        clean: Dict[Exponents, Scalar] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ChartError(f"bad exponent tuple {exps} for dim {dim}")
            clean[exps] = Scalar.coerce(coeff)
        self._fill((dim,), clean)

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        return cls(dim, {(0,) * dim: Scalar.coerce(value)})

    @classmethod
    def var(cls, dim: int, axis: int) -> "Poly":
        exps = [0] * dim
        exps[axis] = 1
        return cls(dim, {tuple(exps): Scalar.one()})

    # bound in Poly's own namespace, where the benchmark's span tracer looks them up
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_mate(other)
        out: Dict[Exponents, tuple] = {}
        _add_product(out, _raw(self.terms), _raw(other.terms))
        return Poly._trusted(self.shape, _finished(out.items()))

    def diff(self, axis: int) -> "Poly":
        return Poly._trusted(self.shape, _finished(_partial(_raw(self.terms), axis)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in sorted(self.terms.items()):
            factors = []
            for axis, power in enumerate(exps):
                if power == 1:
                    factors.append(AXIS_NAMES[axis])
                elif power > 1:
                    factors.append(f"{AXIS_NAMES[axis]}^{power}")
            body = "*".join(factors)
            cs = str(coeff)
            if body:
                cs = body if cs == "1" else (f"-{body}" if cs == "-1" else f"({cs})*{body}")
            chunks.append(cs)
        return " + ".join(chunks)

    __repr__ = __str__


@cache
def _merge_axes(s1: Axes, s2: Axes):
    """Concatenate-and-sort with Koszul sign; None when an axis repeats."""
    merged = list(s1 + s2)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and merged[j - 1] == merged[j]:
            return None
    return sign, tuple(merged)


def _subsets_ok(axes: Axes, dim: int):
    if any(not 0 <= a < dim for a in axes):
        raise ChartError(f"axis out of range in {axes}")
    if any(a >= b for a, b in zip(axes, axes[1:])):
        raise ChartError(f"axes must be strictly increasing, got {axes}")


# -- valued forms -----------------------------------------------------------------


class Fibre(NamedTuple):
    """The fibre E of a form: one of the kinds in ``_RANKS`` and its dimension.

    A fibre index has ``_RANKS[kind]`` entries, each in ``range(size)``: ()
    for a scalar, (j,) for a tangent vector (``size`` is the chart dimension)
    or a vector in C^size, (i, j) for a size x size matrix.
    """

    kind: str
    size: int


_RANKS = {"scalar": 0, "tangent": 1, "vector": 1, "matrix": 2}
SCALAR = Fibre("scalar", 1)
_DIFFERENTIABLE = ("scalar", "vector", "matrix")

Key = Tuple[Axes, Tuple[int, ...]]


def _require(form, kinds, what: str):
    """ChartError unless `form` is a ValuedForm whose fibre kind is one of `kinds`."""
    if not isinstance(form, ValuedForm) or form.fibre.kind not in kinds:
        got = f"{form.fibre.kind}-valued form" if isinstance(form, ValuedForm) else type(form).__name__
        raise ChartError(f"{what} is not defined for a {got}")


def _product_fibre(left: Fibre, right: Fibre) -> Fibre:
    """Fibre of left /\\ right: scalar times scalar, or a k x k matrix on a k x k matrix or k-vector."""
    if left.kind == right.kind == "scalar" or (
        left.kind == "matrix" and right.kind in ("matrix", "vector") and left.size == right.size
    ):
        return right
    raise ChartError(
        f"no wedge product of a {left.kind}-valued form (fibre size {left.size})"
        f" and a {right.kind}-valued form (fibre size {right.size})"
    )


class ValuedForm(Combination):
    """Form of degree `degree` on R^dim with values in `fibre`.

    `terms` maps (axes, fibre_index) to a nonzero Poly, with `axes` strictly
    increasing and of length `degree`; missing components are zero, so ``==``
    compares canonical representations.
    """

    __slots__ = ()
    _error = ChartError
    dim = shape_field(0, "The chart dimension.", ChartError, "dimension")
    degree = shape_field(1, "The form degree.", ChartError, "degree")
    fibre = shape_field(2, "The fibre the form takes its values in.", ChartError, "fibre")

    def __init__(self, dim: int, degree: int, fibre: Fibre, terms: Dict[Key, Poly] | None = None):
        _check_dim(dim)
        if degree < 0:
            raise DegreeOverflowError("negative degree")
        rank = _RANKS.get(fibre.kind)
        if rank is None or fibre.size < 1 or (fibre.kind == "tangent" and fibre.size != dim):
            raise ChartError(f"bad fibre {fibre} on a chart of dimension {dim}")
        clean: Dict[Key, Poly] = {}
        for (axes, index), poly in (terms or {}).items():
            axes, index = tuple(axes), tuple(index)
            if len(axes) != degree:
                raise ChartError(f"component {axes} has wrong arity for degree {degree}")
            _subsets_ok(axes, dim)
            if len(index) != rank or any(not 0 <= k < fibre.size for k in index):
                raise ChartError(f"fibre index {index} out of range for {fibre}")
            if poly.dim != dim:
                raise ChartError("component polynomial on wrong chart")
            clean[(axes, index)] = poly
        self._fill((dim, degree, fibre), clean)

    def wedge(self, other: "ValuedForm") -> "ValuedForm":
        """Wedge of the forms, contracting the last fibre index of self with the first of other."""
        return _sum_form((_add_wedge, self, other))

    def d(self) -> "ValuedForm":
        """Exterior differential of a scalar-, vector- or matrix-valued form."""
        return _sum_form((_add_d, self))

    def interior(self, k_form: "ValuedForm") -> "ValuedForm":
        """i_K of a scalar form for a tangent-valued k-form K on its chart; a vector field is k = 0."""
        return _sum_form((_add_interior, self, k_form))

    def __str__(self) -> str:
        kind, size = self.fibre
        shape = f"deg={self.degree} dim={self.dim}"
        if kind in ("scalar", "tangent"):
            body = "; ".join(
                _axes_label(axes)
                + "".join(f" -> axis {AXIS_NAMES[j]}" for j in index)
                + f' : poly "{poly}"'
                for (axes, index), poly in sorted(self.terms.items())
            )
            return f"form {shape} {{ {body} }}"
        zero = Poly(self.dim)

        def row(axes, prefix):
            cells = (f'poly "{self.terms.get((axes, prefix + (j,)), zero)}"' for j in range(size))
            return "[" + ", ".join(cells) + "]"

        entries = []
        for axes in sorted({axes for axes, _ in self.terms}):
            if kind == "vector":
                value = row(axes, ())
            else:
                value = "[" + ", ".join(row(axes, (i,)) for i in range(size)) + "]"
            entries.append(f"{_axes_label(axes)} : {value}")
        keyword = "vform" if kind == "vector" else "mform"
        return f"{keyword} {shape} fibre={size} {{ {'; '.join(entries)} }}"

    __repr__ = __str__


def _add_wedge(out: dict, left: ValuedForm, right: ValuedForm, sign: int = 1) -> tuple:
    """Add sign * left /\\ right into the accumulator `out` of a form; returns the product's shape."""
    dim = left.shape[0]
    if not isinstance(right, ValuedForm) or dim != right.shape[0]:
        raise ChartError("wedge across different charts")
    fibre = _product_fibre(left.fibre, right.fibre)
    by_first: Dict[tuple, list] = {}  # the right factor's components by first fibre index
    for (s2, i2), p2 in right.terms.items():
        by_first.setdefault(i2[:1], []).append((s2, i2[1:], _raw(p2.terms)))
    for (s1, i1), p1 in left.terms.items():
        group = by_first.get(i1[1:])
        if group:
            head, q1 = i1[:1], _raw(p1.terms)
            for s2, tail, q2 in group:
                merged = _merge_axes(s1, s2)
                if merged is not None:
                    _add_product(out.setdefault((merged[1], head + tail), {}), q1, q2, sign * merged[0])
    return dim, left.degree + right.degree, fibre


def _add_d(out: dict, form: ValuedForm, sign: int = 1) -> tuple:
    """Add sign * d form into the accumulator `out` of a form; returns the shape of d form."""
    _require(form, _DIFFERENTIABLE, "d")
    dim, degree, fibre = form.shape
    one = [((0,) * dim, (1, 0, 0, 0, 1))]  # the raw items of the polynomial 1: d adds d_j p * 1
    for (axes, index), poly in form.terms.items():
        items = _raw(poly.terms)
        for j in range(dim):
            if j not in axes:
                merged_sign, new_axes = _merge_axes((j,), axes)
                _add_product(out.setdefault((new_axes, index), {}), _partial(items, j), one, sign * merged_sign)
    return dim, degree + 1, fibre


def _add_interior(out: dict, form: ValuedForm, k_form: ValuedForm) -> tuple:
    """Add i_K form = K^j_I dx^I /\\ i_{d_j} form into the accumulator `out`; returns the shape of i_K form.

    Contracting d_j with the axis in slot t adds (-1)^t; dx^I meets the axes left by `_merge_axes`.
    """
    _require(form, ("scalar",), "interior")
    _require(k_form, ("tangent",), "i_K")
    dim, degree, fibre = form.shape
    if k_form.dim != dim:
        raise ChartError(f"dimension mismatch: {k_form.dim} vs {dim}")
    by_axis: Dict[int, list] = {}  # K's components by output axis j: (I, raw items of K^j_I)
    for (k_axes, (j,)), poly in k_form.terms.items():
        by_axis.setdefault(j, []).append((k_axes, _raw(poly.terms)))
    for (axes, index), poly in form.terms.items():
        items = _raw(poly.terms)
        for t, axis in enumerate(axes):
            rest = axes[:t] + axes[t + 1:]
            for k_axes, k_items in by_axis.get(axis, ()):
                merged = _merge_axes(k_axes, rest)
                if merged is not None:
                    _add_product(out.setdefault((merged[1], index), {}), k_items, items, merged[0] * (-1) ** t)
    return dim, max(degree + k_form.degree - 1, 0), fibre


def _poly_form(shape: tuple, out: Dict[Key, dict]) -> ValuedForm:
    """The form of this shape in the accumulator `out`, each coefficient reduced and each Poly built once."""
    poly_shape, comps = shape[:1], {}
    for key, terms in out.items():
        coeffs = _finished(terms.items())
        if coeffs:  # zeros are gone, so the Poly is built without a second pass of ``_trusted``
            comps[key] = poly = object.__new__(Poly)
            _set_shape(poly, poly_shape)
            _set_terms(poly, coeffs)
    return ValuedForm._trusted(shape, comps)


def _sum_form(*parts) -> ValuedForm:
    """The sum of the parts (adder, *args), each added into one accumulator by `adder`, which returns its shape."""
    out: Dict[Key, dict] = {}
    shapes = [adder(out, *args) for adder, *args in parts]
    return _poly_form(shapes[0], out)


def _axes_label(axes: Axes) -> str:
    return "^".join("d" + AXIS_NAMES[a] for a in axes) if axes else "1"


# -- constructors from the dense payloads --------------------------------------------


def Form(dim: int, degree: int, comps: Dict[Axes, Poly] | None = None) -> ValuedForm:
    """Scalar-valued form from {axes: Poly}."""
    return ValuedForm(dim, degree, SCALAR, {(axes, ()): poly for axes, poly in (comps or {}).items()})


def TangentForm(dim: int, degree: int, comps=None) -> ValuedForm:
    """Tangent-valued form from {(axes, output axis): Poly}."""
    return ValuedForm(
        dim, degree, Fibre("tangent", dim), {(axes, (out,)): poly for (axes, out), poly in (comps or {}).items()}
    )


def vector_field(dim: int, components) -> ValuedForm:
    """Polynomial vector field: the degree-0 tangent form with the given dim components."""
    return TangentForm(dim, 0, {((), axis): poly for axis, poly in enumerate(components)})


def VectorForm(dim: int, degree: int, fibre: int, comps=None) -> ValuedForm:
    """Form with values in C^fibre from {axes: fibre-tuple of Poly}."""
    sparse = {}
    for axes, vec in (comps or {}).items():
        vec = tuple(vec)
        if len(vec) != fibre:
            raise ChartError("bad fibre vector")
        sparse.update(((axes, (j,)), poly) for j, poly in enumerate(vec))
    return ValuedForm(dim, degree, Fibre("vector", fibre), sparse)


def MatrixForm(dim: int, degree: int, fibre: int, comps=None) -> ValuedForm:
    """Form with values in fibre x fibre matrices (a connection or curvature) from {axes: rows}."""
    sparse = {}
    for axes, mat in (comps or {}).items():
        mat = tuple(tuple(row) for row in mat)
        if len(mat) != fibre or any(len(row) != fibre for row in mat):
            raise ChartError("bad fibre matrix")
        sparse.update(((axes, (i, j)), poly) for i, row in enumerate(mat) for j, poly in enumerate(row))
    return ValuedForm(dim, degree, Fibre("matrix", fibre), sparse)


# -- the Frolicher-Nijenhuis bracket --------------------------------------------------


def fn_bracket(zeta: ValuedForm, xi: ValuedForm) -> ValuedForm:
    """Frolicher-Nijenhuis bracket via the five-term rule on decomposables.

    For decomposables l (x) u and m (x) v (u, v coordinate fields, so [u,v]
    and the frame terms of L[u] vanish):

        fnb = l /\\ (L[u] m) (x) v  -  (L[v] l) /\\ m (x) u
              + (-1)^r (v | l) /\\ dm (x) u  +  (-1)^r dl /\\ (u | m) (x) v

    The terms are expanded on the raw coefficients of the component
    polynomials: each product sign * p * q is added into the accumulator of
    the output component, and `_poly_form` reduces each coefficient once, at
    the end.  The partial derivatives of every component are computed once
    per call.  Every wedge sign comes from `_merge_axes` on the axes of the
    two factors: l and m in terms 2 and 3, (v | l) and dx^i /\\ m in term 4
    (dm is the sum of d_i m dx^i /\\ m), dx^i /\\ l and (u | m) in term 5.
    Contracting the coordinate field of the axis in slot t of a form adds (-1)^t.
    """
    _require(zeta, ("tangent",), "fn_bracket")
    _require(xi, ("tangent",), "fn_bracket")
    dim = zeta.shape[0]
    if dim != xi.shape[0]:
        raise ChartError("bracket across different charts")
    r, s = zeta.degree, xi.degree
    if r + s > dim:
        raise DegreeOverflowError(
            f"bracket degree {r}+{s} exceeds chart dimension {dim}"
        )
    axes_range = range(dim)

    def components(form: ValuedForm):
        """(axes, output axis, raw polynomial items, raw items of its dim partials) per component."""
        out = []
        for (axes, (out_axis,)), poly in form.terms.items():
            items = _raw(poly.terms)
            out.append((axes, out_axis, items, [_partial(items, i) for i in axes_range]))
        return out

    lams = components(zeta)
    mus = lams if xi is zeta else components(xi)
    out: Dict[Key, dict] = {}
    sign_r = (-1) ** r
    for s_axes, j, lam, d_lam in lams:
        for t_axes, k, mu, d_mu in mus:
            merged = _merge_axes(s_axes, t_axes)
            if merged is not None:
                sign, axes = merged
                # term 2: l /\ (d_j m) (x) v
                _add_product(out.setdefault((axes, (k,)), {}), lam, d_mu[j], sign)
                # term 3: - (d_k l) /\ m (x) u
                _add_product(out.setdefault((axes, (j,)), {}), d_lam[k], mu, -sign)
            # term 4: (-1)^r (v | l) /\ dm (x) u
            if k in s_axes:
                t = s_axes.index(k)
                rest = s_axes[:t] + s_axes[t + 1:]
                for i in axes_range:
                    merged = _merge_axes(rest, (i,) + t_axes)
                    if merged is not None:
                        sign, axes = merged
                        _add_product(out.setdefault((axes, (j,)), {}), lam, d_mu[i], sign * sign_r * (-1) ** t)
            # term 5: (-1)^r dl /\ (u | m) (x) v
            if j in t_axes:
                t = t_axes.index(j)
                rest = t_axes[:t] + t_axes[t + 1:]
                for i in axes_range:
                    merged = _merge_axes((i,) + s_axes, rest)
                    if merged is not None:
                        sign, axes = merged
                        _add_product(out.setdefault((axes, (k,)), {}), d_lam[i], mu, sign * sign_r * (-1) ** t)
    return _poly_form((dim, r + s, Fibre("tangent", dim)), out)


# -- gauge calculus ------------------------------------------------------------


def lie_derivative(k_form: ValuedForm, omega: ValuedForm) -> ValuedForm:
    """L_K omega = i_K d omega - (-1)^(k-1) d i_K omega for a tangent-valued k-form K (Cartan's formula at k = 0)."""
    inner = omega.interior(k_form)  # checks K and its chart before d omega is taken
    return _sum_form((_add_interior, omega.d(), k_form), (_add_d, inner, (-1) ** k_form.degree))


def covariant_differential(a: ValuedForm, phi: ValuedForm) -> ValuedForm:
    """d_A phi = d phi + A /\\ phi for a degree-1 matrix-valued connection form A."""
    _require(a, ("matrix",), "covariant_differential")
    _require(phi, ("vector",), "covariant_differential")
    if a.degree != 1:
        raise ChartError("connection form must have degree 1")
    return _sum_form((_add_wedge, a, phi), (_add_d, phi))


def curvature(a: ValuedForm) -> ValuedForm:
    """F = dA + A /\\ A."""
    _require(a, ("matrix",), "curvature")
    if a.degree != 1:
        raise ChartError("connection form must have degree 1")
    return _sum_form((_add_d, a), (_add_wedge, a, a))


def bianchi_residual(a: ValuedForm) -> ValuedForm:
    """dF + A /\\ F - F /\\ A; identically zero for every connection form."""
    f = curvature(a)
    return _sum_form((_add_d, f), (_add_wedge, a, f), (_add_wedge, f, a, -1))
