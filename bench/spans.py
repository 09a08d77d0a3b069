"""Aggregated spans around the public functions of each spinorkit module.

A :class:`Tracer` replaces each traced function or method, wherever the
package binds it, with a wrapper that counts the call and times it:

* a module-level function is rebound in every ``spinorkit`` module that holds
  it, so ``suites.py``'s ``from .diracw import gamma`` is traced too;
* a method is rebound under every name of its class that points at it, so the
  alias ``Scalar.__rmul__ = __mul__`` is traced as ``exactfield.mul``.

A span's self time is its duration minus the durations of the traced spans it
encloses, so the self times add up to the wall time of the root span
``cli`` (``spinorkit.cli.main``), apart from the tracer's own cost.  Spans are
kept only as totals per name and per (parent, child) pair, so the hundreds of
thousands of Scalar operations in a run cost counter updates, not records.
:meth:`Tracer.uninstall` puts every original object back, and
:func:`leftover_wrappers` proves it did.  ``exactfield.coeff_bits`` reads
``Scalar.a`` to ``.d``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

MARK = "__bench_span__"


def _coeff_bits(tracer, args, result, dur):
    bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in (result.a, result.b, result.c, result.d))
    tracer.note_max("exactfield.coeff_bits", bits)


def _poly_terms(tracer, args, result, dur):
    tracer.note_max("fnforms.poly_terms", len(result.terms))


def _terms_out(tracer, args, result, dur):
    tracer.sums["fockalg.normal_order.terms_out"] += len(result.terms)


def _solved(tracer, args, result, dur):
    tracer.sums["normsolve.solved"] += result is not None


def _norm_bits(tracer, args, result, dur):
    tracer.note_max("normsolve.norm_bits", abs(int(args[0])).bit_length())


def _trial(tracer, args, result, dur):
    tracer.sums["suites.trials_run"] += 1


def _suite_wall(tracer, args, result, dur):
    tracer.sums[f"suites.{args[0]}.wall_s"] += dur


def _statements(tracer, args, result, dur):
    tracer.sums["dsl.statements"] += len(result)


# (span name, module, attribute or Class.attribute, observer).  An observer
# runs after the call with (tracer, args, result, duration); its cost is kept
# out of every span's self time.
TARGETS = (
    ("cli", "spinorkit.cli", "main", None),
    ("suites", "spinorkit.suites", "run_suite", _suite_wall),
    ("prng", "spinorkit.prng", "stream_for", _trial),
    ("prng", "spinorkit.prng", "random_scalar", None),
    ("prng", "spinorkit.prng", "SplitMix64.randint", None),
    ("prng", "spinorkit.prng", "SplitMix64.fraction", None),
    ("exactfield.mul", "spinorkit.exactfield", "Scalar.__mul__", _coeff_bits),
    ("exactfield.add", "spinorkit.exactfield", "Scalar.__add__", _coeff_bits),
    ("exactfield.add", "spinorkit.exactfield", "Scalar.__sub__", _coeff_bits),
    ("exactfield.inverse", "spinorkit.exactfield", "Scalar.inverse", None),
    ("spintensor.g_pairing", "spinorkit.spintensor", "EpsilonStructure.g_pairing", None),
    ("spintensor.tensor", "spinorkit.spintensor", "ScaledTensor.tensor", None),
    ("spintensor.null_decompose", "spinorkit.spintensor", "EpsilonStructure.null_decompose", None),
    ("diracw.gamma", "spinorkit.diracw", "gamma", None),
    ("diracw.endw_mul", "spinorkit.diracw", "EndW.__mul__", None),
    ("fnforms.poly_mul", "spinorkit.fnforms", "Poly.__mul__", _poly_terms),
    ("fnforms.poly_add", "spinorkit.fnforms", "Poly.__add__", _poly_terms),
    ("fnforms.poly_add", "spinorkit.fnforms", "Poly.__sub__", _poly_terms),
    ("fnforms.fn_bracket", "spinorkit.fnforms", "fn_bracket", None),
    ("fnforms.curvature", "spinorkit.fnforms", "curvature", None),
    ("fnforms.covariant_differential", "spinorkit.fnforms", "covariant_differential", None),
    ("fnforms.bianchi_residual", "spinorkit.fnforms", "bianchi_residual", None),
    ("fockalg.normal_order", "spinorkit.fockalg", "normal_order", _terms_out),
    ("fockalg.op_apply", "spinorkit.fockalg", "op_apply", None),
    ("fockalg.interior_product", "spinorkit.fockalg", "interior_product", None),
    ("fockalg.super_bracket", "spinorkit.fockalg", "super_bracket", None),
    ("normsolve.solve_norm", "spinorkit.normsolve", "solve_norm", _solved),
    ("normsolve.factorint", "sympy", "factorint", _norm_bits),
    ("dsl.eval", "spinorkit.dsl", "eval_program", _statements),
    ("dsl.tokenize", "spinorkit.dsl", "tokenize", None),
    ("dsl.parse", "spinorkit.dsl", "Parser.parse_program", None),
    ("dsl.format", "spinorkit.dsl", "format_value", None),
)

SUITES = ("adjunction", "bianchi", "car-ccr", "clifford", "fn-bracket", "normal-order", "pauli", "signature")


def _calls_and_self(layer, *functions):
    return [(f"{layer}.{fn}.{kind}", unit) for fn in functions for kind, unit in (("calls", "count"), ("self_s", "s"))]


# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = (
    _calls_and_self("exactfield", "mul", "add", "inverse")
    + [("exactfield.coeff_bits.max", "bit"), ("exactfield.share", "ratio")]
    + _calls_and_self("spintensor", "g_pairing", "tensor", "null_decompose")
    + _calls_and_self("diracw", "gamma", "endw_mul")
    + _calls_and_self("fnforms", "poly_mul", "poly_add", "fn_bracket")
    + [(f"fnforms.{fn}.self_s", "s") for fn in ("curvature", "covariant_differential", "bianchi_residual")]
    + [("fnforms.poly_terms.max", "count"), ("fnforms.share", "ratio")]
    + _calls_and_self("fockalg", "normal_order", "op_apply", "interior_product", "super_bracket")
    + [("fockalg.normal_order.terms_out", "count"), ("fockalg.share", "ratio")]
    + _calls_and_self("normsolve", "solve_norm")
    + [("normsolve.factorint.self_s", "s"), ("normsolve.norm_bits.max", "bit"), ("normsolve.solved_ratio", "ratio")]
    + [(f"dsl.{fn}.self_s", "s") for fn in ("tokenize", "parse", "format")]
    + [("dsl.statements", "count"), ("dsl.errors", "count")]
    + [("suites.self_s", "s"), ("suites.trials_run", "count")]
    + [(f"suites.{suite}.wall_s", "s") for suite in SUITES]
    + [("prng.self_s", "s"), ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Installs span wrappers, accumulates their counts and times, removes them."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.sums = defaultdict(float)
        self.maxes = {}
        self.missing = []
        self._patches = []  # (owner, attribute, original), in install order
        self._times = [0.0]  # per open span: time spent in traced children
        self._names = ["-"]

    def note_max(self, key, value):
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    @property
    def root_s(self) -> float:
        """Wall time of the outermost traced spans."""
        return self._times[0]

    def _wrap(self, name, fn, observe):
        clock = time.perf_counter
        times, names = self._times, self._names

        def span(*args, **kwargs):
            self.edges[(names[-1], name)] += 1
            times.append(0.0)
            names.append(name)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dur = clock() - t0
                names.pop()
                self.self_s[name] += dur - times.pop()
                times[-1] += dur
                self.calls[name] += 1
            if observe is not None:
                t1 = clock()
                observe(self, args, return_value, dur)
                times[-1] += clock() - t1
            return return_value

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        setattr(span, MARK, name)
        return span

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import spinorkit.cli  # noqa: F401 -- loads every module the CLI binds

        package = [m for n, m in sorted(sys.modules.items()) if n == "spinorkit" or n.startswith("spinorkit.")]
        for name, module_name, path, observe in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # e.g. sympy before the first nulldec: nothing can call it
            cls_name, _, attr = path.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, observe)
            holders = [owner] if cls_name else [module] + [m for m in package if m is not module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, scale: float = 1.0) -> dict:
        """Every per-layer metric except trace.overhead_ratio, by name; times multiplied by `scale`."""
        out = {}
        for metric, _unit in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = self.calls[span]
            elif kind == "self_s":
                out[metric] = self.self_s[span] * scale
        root = self.root_s or 1.0
        for layer in ("exactfield", "fnforms", "fockalg"):
            out[f"{layer}.share"] = sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")) / root
        out["exactfield.coeff_bits.max"] = self.maxes.get("exactfield.coeff_bits", 0)
        out["fnforms.poly_terms.max"] = self.maxes.get("fnforms.poly_terms", 0)
        out["fockalg.normal_order.terms_out"] = int(self.sums["fockalg.normal_order.terms_out"])
        out["normsolve.norm_bits.max"] = self.maxes.get("normsolve.norm_bits", 0)
        solves = self.calls["normsolve.solve_norm"]
        out["normsolve.solved_ratio"] = self.sums["normsolve.solved"] / solves if solves else 0.0
        out["dsl.errors"] = self.errors["dsl.eval"]
        out["dsl.statements"] = int(self.sums["dsl.statements"]) + self.errors["dsl.eval"]
        out["suites.trials_run"] = int(self.sums["suites.trials_run"])
        for suite in SUITES:
            out[f"suites.{suite}.wall_s"] = self.sums[f"suites.{suite}.wall_s"] * scale
        return {metric: out[metric] for metric, _unit in LAYER_METRICS if metric in out}

    def dump(self) -> dict:
        """The aggregated span tree, for the trace file."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name], "errors": self.errors[name]}
                for name in sorted(self.calls)
            },
            "edges": [{"parent": p, "child": c, "calls": n} for (p, c), n in sorted(self.edges.items())],
            "root_s": self.root_s,
            "missing": self.missing,
        }


def leftover_wrappers() -> list:
    """Every span wrapper still bound anywhere in spinorkit (or sympy.factorint)."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "spinorkit" and not module_name.startswith("spinorkit."):
            continue
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module_name}.{key}")
            if isinstance(value, type) and value.__module__ == module_name:
                found += [f"{module_name}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)]
    sympy = sys.modules.get("sympy")
    if sympy is not None and hasattr(getattr(sympy, "factorint", None), MARK):
        found.append("sympy.factorint")
    return found
