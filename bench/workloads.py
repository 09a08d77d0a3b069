"""Seeded inputs for ``spinorkit.cli.main`` and the checks on its outputs.

Every workload is a stream of calls.  A call is the argv (and, for ``eval -``,
the stdin text) that a user would pass to ``spinor-kit``, plus what the
benchmark needs to check the result afterwards.  The inputs are a pure
function of the workload seed; the program under test sees only the text.

The DSL inputs are built with a small exact Q(i, sqrt2) arithmetic of the
benchmark's own (4-tuples of ``Fraction``), so the expected outputs do not
come from the code being measured.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Tuple

DEFAULT_SEED = 1

# (suite, --trials) in the round-robin order each suite workload calls them.
SUITE_MIX = {
    "spinor": (("clifford", 2), ("pauli", 2), ("signature", 8)),
    "forms": (("bianchi", 1), ("fn-bracket", 10)),
    "fock": (("normal-order", 2), ("adjunction", 8), ("car-ccr", 1)),
}

# Statement kinds in the order the dsl workload cycles through them.
DSL_CYCLE = ("nulldec", "tensor", "form", "nulldec", "tangent", "mform", "truncated")

WORKLOADS = tuple(SUITE_MIX) + ("dsl",)

# Calls in the default-seed prefix whose stdout digest digests.json stores, and
# in the prefix of the seed's stream that a traced run measures (a few seconds).
GOLDEN_CALLS = {"spinor": 6, "forms": 4, "fock": 3, "dsl": 28}
TRACE_CALLS = {"spinor": 60, "forms": 40, "fock": 30, "dsl": 700}


class Call(NamedTuple):
    kind: str  # suite name or dsl statement kind
    argv: Tuple[str, ...]
    stdin: Optional[str]
    items: int  # requested trials, or 1 statement
    expect: object  # what `check` compares the output against


# -- exact Q(i, sqrt2) for input generation: (a, b, c, d) = a + b i + c r2 + d i r2


def q_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def q_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def q_conj(x):
    a, b, c, d = x
    return (a, -b, c, -d)


def q_neg(x):
    return tuple(-v for v in x)


def q_is_zero(x) -> bool:
    return not any(x)


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def q_text(x) -> str:
    """Canonical scalar text ``a+b*i+c*r2+d*i*r2`` as the DSL prints it."""
    out = ""
    for coeff, tail in zip(x, ("", "i", "r2", "i*r2")):
        if coeff == 0:
            continue
        mag = abs(coeff)
        if tail:
            body = tail if mag == 1 else f"{_frac_text(mag)}*{tail}"
        else:
            body = _frac_text(mag)
        sign = "-" if coeff < 0 else "+"
        out += (sign if out or sign == "-" else "") + body
    return out or "0"


def random_q(rng: random.Random, num: int = 6, den: int = 4):
    """Sparse small element: each coordinate is zero half of the time."""
    while True:
        x = tuple(
            Fraction(rng.randint(-num, num), rng.randint(1, den)) if rng.random() < 0.5 else Fraction(0)
            for _ in range(4)
        )
        if not q_is_zero(x):
            return x


# -- canonical DSL literals ------------------------------------------------------------

AXES = "xyzw"
_UNIT_WEIGHT = {"U": Fraction(1, 2), "Ubar": Fraction(1, 2), "U*": Fraction(-1, 2), "Ubar*": Fraction(-1, 2)}


def tensor_text(slots, entries, unit=None) -> str:
    default = sum((_UNIT_WEIGHT[s] for s in slots), Fraction(0))
    unit_part = "" if unit is None or unit == default else f" unit={unit}"
    body = "; ".join(
        f"({','.join(map(str, key))}): {q_text(v)}" for key, v in sorted(entries.items()) if not q_is_zero(v)
    )
    return f"tensor [{','.join(slots)}]{unit_part} {{ {body} }}" if body else f"tensor [{','.join(slots)}]{unit_part} {{ }}"


def poly_text(terms) -> str:
    chunks = []
    for exps, coeff in sorted(terms.items()):
        body = "*".join(
            AXES[axis] if power == 1 else f"{AXES[axis]}^{power}" for axis, power in enumerate(exps) if power
        )
        cs = q_text(coeff)
        if body:
            cs = body if cs == "1" else (f"-{body}" if cs == "-1" else f"({cs})*{body}")
        chunks.append(cs)
    return " + ".join(chunks) if chunks else "0"


def random_poly(rng: random.Random, dim: int):
    terms = {}
    wanted = rng.randint(1, 3)
    while len(terms) < wanted:
        exps = tuple(rng.randint(0, 2) for _ in range(dim))
        if sum(exps) <= 3:
            terms[exps] = random_q(rng)
    return terms


def _axes_label(axes) -> str:
    return "^".join("d" + AXES[a] for a in axes) if axes else "1"


def _random_axes_sets(rng: random.Random, dim: int, degree: int):
    combos = list(itertools.combinations(range(dim), degree))
    return sorted(rng.sample(combos, rng.randint(1, len(combos))))


def form_text(rng: random.Random) -> str:
    dim = rng.choice((2, 3))
    degree = rng.randint(0, dim)
    body = "; ".join(
        f'{_axes_label(axes)} : poly "{poly_text(random_poly(rng, dim))}"'
        for axes in _random_axes_sets(rng, dim, degree)
    )
    return f"form deg={degree} dim={dim} {{ {body} }}"


def tangent_text(rng: random.Random) -> str:
    dim = rng.choice((2, 3))
    degree = rng.randint(0, dim)
    keys = sorted(
        (axes, out) for axes in _random_axes_sets(rng, dim, degree) for out in range(dim) if rng.random() < 0.6
    ) or [((), 0) if degree == 0 else (tuple(range(degree)), 0)]
    body = "; ".join(
        f'{_axes_label(axes)} -> axis {AXES[out]} : poly "{poly_text(random_poly(rng, dim))}"'
        for axes, out in keys
    )
    return f"form deg={degree} dim={dim} {{ {body} }}"


def mform_text(rng: random.Random) -> str:
    dim = rng.choice((2, 3))
    degree = rng.randint(0, min(dim, 2))
    fibre = 2

    def entry():
        return poly_text(random_poly(rng, dim)) if rng.random() < 0.7 else "0"

    comps = []
    for axes in _random_axes_sets(rng, dim, degree):
        mat = [[entry() for _ in range(fibre)] for _ in range(fibre)]
        if all(p == "0" for row in mat for p in row):
            mat[0][0] = poly_text(random_poly(rng, dim))
        rows = ", ".join("[" + ", ".join(f'poly "{p}"' for p in row) + "]" for row in mat)
        comps.append(f"{_axes_label(axes)} : [{rows}]")
    return f"mform deg={degree} dim={dim} fibre={fibre} {{ {'; '.join(comps)} }}"


_TENSOR_SLOTS = (("U", "Ubar"), ("U",), ("U*",), ("U", "Ubar*"), ("U", "U"), ("Ubar*", "U*"))


def tensor_stmt(rng: random.Random) -> str:
    slots = rng.choice(_TENSOR_SLOTS)
    entries = {
        key: random_q(rng) for key in itertools.product((1, 2), repeat=len(slots)) if rng.random() < 0.75
    }
    unit = rng.choice((None, None, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)))
    return tensor_text(slots, entries, unit)


def nulldec_case(rng: random.Random):
    """Statement text and entries of a null Hermitian y = sign * u (x) ubar."""
    u = (random_q(rng, 12, 6), random_q(rng, 12, 6) if rng.random() < 0.85 else (Fraction(0),) * 4)
    if rng.random() < 0.5:
        u = u[::-1]
    sign = rng.choice((1, -1))
    y = {}
    for a, b in itertools.product((1, 2), repeat=2):
        v = q_mul(u[a - 1], q_conj(u[b - 1]))
        y[(a, b)] = v if sign == 1 else q_neg(v)
    return f"nulldec({tensor_text(('U', 'Ubar'), y)})", y


def _roundtrip(rng: random.Random, kind: str) -> str:
    return {"tensor": tensor_stmt, "form": form_text, "tangent": tangent_text, "mform": mform_text}[kind](rng)


# -- the call streams --------------------------------------------------------------------


def _suite_expect(suite: str, seed: int, trials: int) -> str:
    payload = {"failures": [], "seed": seed, "suite": suite, "trials": trials}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def iter_calls(workload: str, seed: int) -> Iterator[Call]:
    """The endless call stream of `workload` at `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in SUITE_MIX:
        for suite, trials in itertools.cycle(SUITE_MIX[workload]):
            call_seed = rng.randrange(1, 1 << 31)
            argv = ("check", "--suite", suite, "--seed", str(call_seed), "--trials", str(trials))
            yield Call(suite, argv, None, trials, _suite_expect(suite, call_seed, trials))
    if workload != "dsl":
        raise ValueError(f"unknown workload {workload!r}")
    for kind in itertools.cycle(DSL_CYCLE):
        if kind == "nulldec":
            text, expect = nulldec_case(rng)
        elif kind == "truncated":
            source = rng.choice(("nulldec", "tensor", "form", "tangent", "mform"))
            full = nulldec_case(rng)[0] if source == "nulldec" else _roundtrip(rng, source)
            text = full[: rng.randint(1, len(full) - 1)]
            expect = None
        else:
            text = _roundtrip(rng, kind)
            expect = text + "\n"
        yield Call(kind, ("eval", "-"), text + "\n", 1, expect)


def make_calls(workload: str, seed: int, count: int) -> List[Call]:
    """The first `count` calls of `workload` at `seed`."""
    return list(itertools.islice(iter_calls(workload, seed), count))


# -- output checks (run after the timed phase) ------------------------------------------

_NULLDEC_OUT = re.compile(r"\((-?1), tensor \[U\] \{ (.*) \}\)\n")
_SPINOR_ENTRY = re.compile(r"\(([12])\): (.+)")
_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?)?\*?(i\*r2|r2|i)?")
_TAILS = {None: 0, "i": 1, "r2": 2, "i*r2": 3}


def q_parse(text: str):
    """Inverse of :func:`q_text`; ValueError on anything else."""
    coords = [Fraction(0)] * 4
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den, tail = m.groups()
        if num is None and tail is None:
            raise ValueError(f"bad scalar text {text!r}")
        mag = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        coords[_TAILS[tail]] += -mag if sign == "-" else mag
        pos = m.end()
    return tuple(coords)


def _sympy_value(coords):
    import sympy

    a, b, c, d = (sympy.Rational(x.numerator, x.denominator) for x in coords)
    return a + b * sympy.I + (c + d * sympy.I) * sympy.sqrt(2)


def _check_nulldec(out: str, y, with_sympy: bool) -> Optional[str]:
    m = _NULLDEC_OUT.fullmatch(out)
    if not m:
        return f"unparsable nulldec output {out!r}"
    sign = int(m.group(1))
    u = {1: (Fraction(0),) * 4, 2: (Fraction(0),) * 4}
    for part in m.group(2).split("; "):
        em = _SPINOR_ENTRY.fullmatch(part)
        try:
            u[int(em.group(1))] = q_parse(em.group(2))
        except (AttributeError, ValueError):
            return f"unparsable spinor entry {part!r}"
    for (a, b), want in y.items():
        got = q_mul(u[a], q_conj(u[b]))
        if (got if sign == 1 else q_neg(got)) != want:
            return f"sign*u(x)ubar != y at ({a},{b}): {out.strip()}"
        if with_sympy:
            import sympy

            got = sign * _sympy_value(u[a]) * sympy.conjugate(_sympy_value(u[b]))
            if sympy.expand(got - _sympy_value(want)) != 0:
                return f"sympy: sign*u(x)ubar != y at ({a},{b}): {out.strip()}"
    return None


def check(call: Call, rc, out: str, err: str, with_sympy: bool = False) -> Optional[str]:
    """None when the call's exit code and output are right, else the reason.

    `nulldec` results are checked in the benchmark's own exact arithmetic, and
    also with sympy when `with_sympy` (sympy is too slow for every call).
    """
    if "Traceback" in err:
        return "traceback on stderr"
    if call.kind == "truncated":
        if rc != 2 or out or not err.startswith("error: "):
            return f"truncated statement gave exit {rc}, stdout {out!r}, stderr {err[:80]!r}"
        return None
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    if call.kind == "nulldec":
        return _check_nulldec(out, call.expect, with_sympy)
    if out != call.expect:
        return f"output {out[:200]!r} != expected {str(call.expect)[:200]!r}"
    return None
