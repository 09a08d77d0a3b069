"""DSL parsing, evaluation and canonical round-trips."""

import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import pkgutil
import random
import re
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from helpers import scalar_to_sympy
from spinorkit import dsl, suites
from spinorkit.cli import main
from spinorkit.diracw import DiracVector, gamma
from spinorkit.dsl import DslError, Environment, eval_program
from spinorkit.exactfield import Scalar, format_scalar
from spinorkit.fnforms import AXIS_NAMES, Fibre, Form, MatrixForm, Poly, TangentForm, VectorForm
from spinorkit.prng import SplitMix64, random_scalar
from spinorkit.spintensor import ScaledTensor, Variance, e, ebar, format_tensor, g_pairing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def eval_one(text: str) -> str:
    outputs = eval_program(text)
    assert len(outputs) == 1, outputs
    return outputs[0]


def test_scalar_arithmetic_round_trip():
    rng = SplitMix64(17)
    for _ in range(60):
        z = random_scalar(rng)
        assert eval_one(format_scalar(z)) == format_scalar(z)
    assert eval_one("(1+i)*(1-i)") == "2"
    assert eval_one("1/2 + 1/3") == "5/6"
    assert eval_one("r2*r2") == "2"
    assert eval_one("-i*i") == "1"


def test_tensor_literal_round_trip():
    rng = SplitMix64(18)
    for _ in range(25):
        t = ScaledTensor(
            (Variance.U, Variance.U_BAR),
            {
                (a, b): random_scalar(rng)
                for a in (1, 2)
                for b in (1, 2)
            },
        )
        assert eval_one(format_tensor(t)) == format_tensor(t)
    # non-default unit annotation survives the round trip
    t = ScaledTensor((Variance.U,), {(1,): Scalar.one()}, 0)
    assert "unit=0" in format_tensor(t)
    assert eval_one(format_tensor(t)) == format_tensor(t)


def test_pairing_and_gamma_examples():
    assert eval_one("g( e1*eb1, e2*eb2 )") == "1"
    assert eval_one("g( theta0, theta0 )") == "1"
    y = e(1).tensor(ebar(1))
    assert eval_one("gamma(e1*eb1)") == str(gamma(y))
    assert eval_one("apply( gamma(e1*eb1), dirac (u: [0, 1], lbar: [0, 0]) )") == str(
        DiracVector((0, 0, 0, Scalar.sqrt2()))
    )


def test_dirac_literal_round_trip():
    text = "dirac (u: [1, -3/2*i], lbar: [0, r2])"
    psi = DiracVector((Scalar(1), Scalar(0, -3, 0, 0) / Scalar(2) * Scalar.i().conj() * Scalar(-1), Scalar(0), Scalar.sqrt2()))
    # simpler: evaluate and reprint; printing is canonical
    assert eval_one(text) == str(
        DiracVector((Scalar(1), Scalar(0, Fraction_like(-3, 2)), Scalar(0), Scalar.sqrt2()))
    )


def Fraction_like(n, d):
    from fractions import Fraction

    return Fraction(n, d)


def test_form_literals_round_trip():
    tf = TangentForm(2, 1, {((1,), 0): Poly.var(2, 0)})
    assert eval_one(str(tf)) == str(tf)
    sf = Form(2, 2, {(0, 1): Poly(2, {(2, 1): Scalar(1, 1)})})
    assert eval_one(str(sf)) == str(sf)
    mf = MatrixForm(
        2,
        1,
        2,
        {(1,): ((Poly(2), Poly.var(2, 0)), (Poly(2), Poly(2)))},
    )
    assert eval_one(str(mf)) == str(mf)
    vf = VectorForm(3, 1, 2, {(2,): (Poly.var(3, 1), Poly.const(3, 5))})
    assert eval_one(str(vf)) == str(vf)


def test_fnb_through_dsl_matches_library():
    from spinorkit.fnforms import fn_bracket

    zeta = TangentForm(2, 1, {((1,), 0): Poly.var(2, 0)})
    xi = TangentForm(2, 0, {((), 0): Poly.const(2, 1)})
    out = eval_one(f"fnb( {zeta}, {xi} )")
    assert out == str(fn_bracket(zeta, xi))


def test_poly_strings():
    f = eval_one('form deg=0 dim=3 { 1 : poly "x^2*y - 3/2*z + (1+i)*x" }')
    expected = Form(
        3,
        0,
        {
            (): Poly(
                3,
                {
                    (2, 1, 0): Scalar(1),
                    (0, 0, 1): Scalar(Fraction_like(-3, 2)),
                    (1, 0, 0): Scalar(1, 1),
                },
            )
        },
    )
    assert f == str(expected)


def test_fock_states_and_universe():
    program = """
    universe { sector f: fermion [1,2,3]; sector b: boson [1,2] }
    f:1 ^ f:2 * (1+i)
    """
    out = eval_program(program)
    assert out == ["f:1^f:2 * (1+i)"]
    assert eval_program(
        "universe { sector f: fermion [1,2] }\nf:1 ^ f:1"
    ) == ["0"]
    # dual prime and pairing
    assert eval_program(
        "universe { sector b: boson [1] }\npair( b:1', b:1 )"
    ) == ["1"]
    # vacuum literal
    assert eval_program(
        "universe { sector f: fermion [1] }\napply( emit(f:1), vac )"
    ) == ["f:1 * (1)"]


def test_let_bindings_persist():
    program = """
    let y = e1*eb1 + e2*eb2
    g( y, y )
    """
    assert eval_program(program) == ["2"]


def test_leading_sign_starts_a_new_statement(monkeypatch, capsys):
    # outside brackets, a line that opens with '+' or '-' is its own statement
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n-1\n"))
    assert main(["eval", "-"]) == 0
    assert capsys.readouterr().out == "3\n-1\n"
    assert eval_program("let t = e1\n-t") == ["tensor [U] { (1): -1 }"]
    with pytest.raises(DslError) as exc:
        eval_program("3 - 1\n+ 2")  # '+ 2' alone is no statement
    assert (exc.value.line, exc.value.col) == (2, 1)
    # inside brackets a continuation line keeps going
    assert eval_program("(3\n-1)") == ["2"]
    assert eval_program("g( e1*eb1\n+ e2*eb2, e1*eb1\n- e2*eb2 )") == ["0"]
    assert eval_program("tensor [U] { (1): 1\n-3; (2): 2 }") == ["tensor [U] { (1): -2; (2): 2 }"]
    assert eval_program("dirac (u: [1\n-1, 0], lbar: [0, 0])") == ["dirac (u: [0, 0], lbar: [0, 0])"]
    # a closed bracket, a literal or a comment before the line break leaves the statement ended
    assert eval_program("(1)\n-2") == ["1", "-2"]
    assert eval_program("tensor [U] { (1): 1 }\n-e1") == ["tensor [U] { (1): 1 }", "tensor [U] { (1): -1 }"]
    assert eval_program("1 -- c\n-2") == ["1", "-2"]
    # CR LF breaks a line, a lone CR does not
    assert eval_program("1\r\n-2") == ["1", "-2"]
    assert eval_program("1\r-2") == ["-1"]
    assert eval_program("let a = 1\n-2\na") == ["-2", "1"]
    # only an operator that opens a line ends the statement, not the operand after it
    assert eval_program("1 +\n-2") == ["-1"]
    assert eval_program("1\n\n-\n2") == ["1", "-2"]
    # so does a '(' that opens a line after a name, by the same rule; inside brackets the call goes on
    assert eval_program("let a = 1\na\n(2)") == ["1", "2"]
    assert eval_program("e1\n(1)") == ["tensor [U] { (1): 1 }", "1"]
    assert eval_program("2\n(3)") == ["2", "3"]
    assert eval_program("(g\n(e1*eb1, e2*eb2))") == ["1"]
    assert eval_program("g(e1*eb1, g\n(e1*eb1, e2*eb2) * e2*eb2)") == ["1"]


def test_parse_errors_carry_position():
    with pytest.raises(DslError) as exc:
        eval_program("g( e1*eb1")
    assert exc.value.line == 1
    with pytest.raises(DslError) as exc:
        eval_program("\n  let = 3")
    assert exc.value.line == 2
    with pytest.raises(DslError, match="unknown name"):
        eval_program("nosuchname + 1")
    with pytest.raises(DslError, match="unknown function"):
        eval_program("frobnicate(1)")
    with pytest.raises(DslError, match="unterminated"):
        eval_program('form deg=0 dim=1 { 1 : poly "x }')
    # inputs that once escaped as ZeroDivisionError, RecursionError, ChartError,
    # ExactError or ValueError (integer string-conversion limit) tracebacks
    for text, col in [
        ("tensor [U] unit=-1/0 { (1): 1 }", 20),
        ('form deg=0 dim=2 { 1 : poly "1/0*x" }', 29),
        ("(" * 3000 + "1" + ")" * 3000, 65),
        ("g(" * 400 + "1" + ")" * 400, 129),
        ('form deg=0 dim=2 { 1 : poly "' + "(" * 600 + "x" + ")" * 600 + '" }', 29),
        ('form deg=0 dim=7 { 1 : poly "x" }', 18),
        ("1" * 5000, 1),
        ("g(e1)", 1),
        ("conj(e1*eb1, 1)", 1),
        ("dirac (u: [0, 1], lbar: [0, e1])", 29),
    ]:
        with pytest.raises(DslError) as exc:
            eval_program(text)
        assert (exc.value.line, exc.value.col) == (1, col), text[:40]
    # a wrong argument count names the function, not a Python lambda
    with pytest.raises(DslError, match=r"g\(\) takes 2 arguments, got 1$"):
        eval_program("g(e1)")
    with pytest.raises(DslError, match=r"conj\(\) takes 1 argument, got 2$"):
        eval_program("conj(e1*eb1, 1)")
    with pytest.raises(DslError, match="dirac components must be scalars"):
        eval_program("dirac (u: [0, 1], lbar: [0, e1])")
    # the nesting cap leaves room for any hand-written program
    assert eval_one("(" * 60 + "1" + ")" * 60) == "1"
    assert eval_one("- " * 3000 + "1") == "1"


def test_core_errors_surface_verbatim():
    # variance mismatch from the tensor layer
    with pytest.raises(DslError, match="slots"):
        eval_program("g( e1*e2, e1*eb1 )")
    # unit mismatch
    with pytest.raises(DslError, match="unit"):
        eval_program("g( tensor [U,Ubar] unit=0 { (1,1): 1 }, e1*eb1 )")
    # unknown mode in a declared sector
    with pytest.raises(DslError, match="mode 2 not in sector f"):
        eval_program("universe { sector f: fermion [1] }\nf:1 ^ f:2")
    # mode reference without a universe
    with pytest.raises(DslError, match="universe"):
        eval_program("f:1")


def test_environment_reuse():
    env = Environment()
    eval_program("universe { sector f: fermion [1,2] }\nlet a = f:1", env)
    assert eval_program("a ^ f:2", env) == ["f:1^f:2 * (1)"]


def test_arrow_components_only_in_form_literals(tmp_path, capsys):
    for keyword in ("mform", "vform"):
        script = tmp_path / "prog.dsl"
        script.write_text(f'{keyword} deg=1 dim=2 fibre=2 {{ dx -> axis y : poly "x" }}\n')
        assert main(["eval", str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 1:32: ") and "Traceback" not in err


FORM_PRELUDE = """\
let f0 = form deg=0 dim=2 { 1 : poly "x^2" };
let f1 = form deg=1 dim=2 { dx : poly "x*y"; dy : poly "2" };
let t0 = form deg=0 dim=2 { 1 -> axis x : poly "y" };
let t1 = form deg=1 dim=2 { dx -> axis y : poly "x" };
let v0 = vform deg=0 dim=2 fibre=2 { 1 : [poly "x", poly "y"] };
let m1 = mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "y"], [poly "x", poly "1"]] };
"""

# (expression, exit code, stdout) of `spinor-kit eval` on FORM_PRELUDE + expression:
# every operator and form function on each kind of form, then the mixes that
# must be refused with a usage error.
FORM_ROWS = [
    ('f1 + f1', 0, 'form deg=1 dim=2 { dx : poly "(2)*x*y"; dy : poly "4" }\n'),
    ('t1 + t1', 0, 'form deg=1 dim=2 { dx -> axis y : poly "(2)*x" }\n'),
    ('v0 + v0', 0, 'vform deg=0 dim=2 fibre=2 { 1 : [poly "(2)*x", poly "(2)*y"] }\n'),
    ('m1 + m1', 0, 'mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "(2)*y"], [poly "(2)*x", poly "2"]] }\n'),
    ('f1 - 2*f1', 0, 'form deg=1 dim=2 { dx : poly "-x*y"; dy : poly "-2" }\n'),
    ('t1 - t1', 0, 'form deg=1 dim=2 {  }\n'),
    ('v0 - v0', 0, 'vform deg=0 dim=2 fibre=2 {  }\n'),
    ('m1 - m1', 0, 'mform deg=1 dim=2 fibre=2 {  }\n'),
    ('-f1', 0, 'form deg=1 dim=2 { dx : poly "-x*y"; dy : poly "-2" }\n'),
    ('-t1', 0, 'form deg=1 dim=2 { dx -> axis y : poly "-x" }\n'),
    ('-v0', 0, 'vform deg=0 dim=2 fibre=2 { 1 : [poly "-x", poly "-y"] }\n'),
    ('-m1', 0, 'mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "-y"], [poly "-x", poly "-1"]] }\n'),
    ('f1 * (1+i)', 0, 'form deg=1 dim=2 { dx : poly "(1+i)*x*y"; dy : poly "2+2*i" }\n'),
    ('2 * t1', 0, 'form deg=1 dim=2 { dx -> axis y : poly "(2)*x" }\n'),
    ('v0 * r2', 0, 'vform deg=0 dim=2 fibre=2 { 1 : [poly "(r2)*x", poly "(r2)*y"] }\n'),
    ('i * m1', 0, 'mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "(i)*y"], [poly "(i)*x", poly "i"]] }\n'),
    ('m1 / 2', 0, 'mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "(1/2)*y"], [poly "(1/2)*x", poly "1/2"]] }\n'),
    ('f0 ^ f1', 0, 'form deg=1 dim=2 { dx : poly "x^3*y"; dy : poly "(2)*x^2" }\n'),
    ('f1 ^ f1', 0, 'form deg=2 dim=2 {  }\n'),
    ('m1 ^ m1', 0, 'mform deg=2 dim=2 fibre=2 {  }\n'),
    ('m1 ^ v0', 0, 'vform deg=1 dim=2 fibre=2 { dx : [poly "y^2", poly "y + x^2"] }\n'),
    ('d(f0)', 0, 'form deg=1 dim=2 { dx : poly "(2)*x" }\n'),
    ('d(f1)', 0, 'form deg=2 dim=2 { dx^dy : poly "-x" }\n'),
    ('d(v0)', 0, 'vform deg=1 dim=2 fibre=2 { dx : [poly "1", poly "0"]; dy : [poly "0", poly "1"] }\n'),
    ('d(m1)', 0, 'mform deg=2 dim=2 fibre=2 { dx^dy : [[poly "0", poly "-1"], [poly "0", poly "0"]] }\n'),
    ('lie(t0, f0)', 0, 'form deg=0 dim=2 { 1 : poly "(2)*x*y" }\n'),
    ('lie(t0, f1)', 0, 'form deg=1 dim=2 { dx : poly "y^2"; dy : poly "x*y" }\n'),
    # along a tangent 1-form, L_K = i_K d - d i_K: i_K d(f1) = 0 and d i_K f1 = d(2x dx) = 0; i_K dy = x dx
    ('lie(t1, f1)', 0, 'form deg=2 dim=2 {  }\n'),
    ('lie(t1, form deg=0 dim=2 { 1 : poly "y" })', 0, 'form deg=1 dim=2 { dx : poly "x" }\n'),
    ('fnb(t1, t0)', 0, 'form deg=1 dim=2 { dx -> axis x : poly "x"; dx -> axis y : poly "-y"; dy -> axis y : poly "-x" }\n'),
    ('fnb(t0, t0)', 0, 'form deg=0 dim=2 {  }\n'),
    ('curv(m1)', 0, 'mform deg=2 dim=2 fibre=2 { dx^dy : [[poly "0", poly "-1"], [poly "0", poly "0"]] }\n'),
    ('covd(m1, v0)', 0, 'vform deg=1 dim=2 fibre=2 { dx : [poly "1 + y^2", poly "y + x^2"]; dy : [poly "0", poly "1"] }\n'),
    ('bianchi(m1)', 0, 'mform deg=3 dim=2 fibre=2 {  }\n'),
    # a chart of dimension 6 names its axes x, y, z, w, u, v; v is past a chart of dimension 5
    ('form deg=1 dim=6 { du : poly "v^2 + x" }', 0, 'form deg=1 dim=6 { du : poly "v^2 + x" }\n'),
    ('d(form deg=1 dim=6 { du : poly "v^2 + x" })', 0, 'form deg=2 dim=6 { dx^du : poly "1"; du^dv : poly "(-2)*v" }\n'),
    ('form deg=0 dim=6 { 1 : poly "w*u" }', 0, 'form deg=0 dim=6 { 1 : poly "w*u" }\n'),
    ('form deg=1 dim=5 { dv : poly "u" }', 2, ''),
    ('f1 ^ t1', 2, ''),
    ('t1 ^ t1', 2, ''),
    ('v0 ^ m1', 2, ''),
    ('f1 ^ m1', 2, ''),
    ('v0 ^ v0', 2, ''),
    ('m1 ^ f1', 2, ''),
    ('d(t1)', 2, ''),
    ('fnb(f1, f1)', 2, ''),
    ('fnb(m1, t1)', 2, ''),
    ('curv(f1)', 2, ''),
    ('curv(v0)', 2, ''),
    ('curv(t1)', 2, ''),
    ('covd(m1, f1)', 2, ''),
    ('covd(v0, v0)', 2, ''),
    ('covd(f1, v0)', 2, ''),
    ('lie(t0, m1)', 2, ''),
    ('lie(t0, v0)', 2, ''),
    ('lie(f0, f1)', 2, ''),
    ('bianchi(f1)', 2, ''),
    ('f1 + t1', 2, ''),
    ('f1 + m1', 2, ''),
    ('v0 + m1', 2, ''),
    ('f1 + f0', 2, ''),
    ('f1 * f1', 2, ''),
]


def assert_eval(text, code, stdout, tmp_path, capsys):
    script = tmp_path / "prog.dsl"
    script.write_text(text)
    assert main(["eval", str(script)]) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, code, stdout", FORM_ROWS, ids=[row[0] for row in FORM_ROWS])
def test_form_operations_by_kind(expr, code, stdout, tmp_path, capsys):
    assert_eval(FORM_PRELUDE + expr + "\n", code, stdout, tmp_path, capsys)


DIRAC_PRELUDE = """\
let a = dirac (u: [1, i], lbar: [0, r2]);
let b = dirac (u: [-1, 1], lbar: [1/2, 0]);
let g = gamma(e1*eb1);
"""

# (expression, exit code, stdout) of `spinor-kit eval` on DIRAC_PRELUDE + expression:
# W, W* and End W are vector spaces, so each has +, - and scalar multiples;
# mixing two of them is a usage error.
DIRAC_ROWS = [
    ('-adjoint(a)', 0, 'dualdirac (lambda: [0, -r2], ubar: [-1, i])\n'),
    ('adjoint(a) + adjoint(b)', 0, 'dualdirac (lambda: [1/2, r2], ubar: [0, 1-i])\n'),
    ('adjoint(a) - adjoint(a)', 0, 'dualdirac (lambda: [0, 0], ubar: [0, 0])\n'),
    ('2 * adjoint(b)', 0, 'dualdirac (lambda: [1, 0], ubar: [-2, 2])\n'),
    ('a - b', 0, 'dirac (u: [2, -1+i], lbar: [-1/2, r2])\n'),
    ('i * a', 0, 'dirac (u: [i, -1], lbar: [0, i*r2])\n'),
    ('g * g', 0, '[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]\n'),
    ('g + id4', 0, '[[1, 0, r2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, r2, 0, 1]]\n'),
    ('apply(g, b)', 0, 'dirac (u: [1/2*r2, 0], lbar: [0, r2])\n'),
    ('a + adjoint(a)', 2, ''),
    ('g + a', 2, ''),
    ('adjoint(a) * adjoint(b)', 2, ''),
]


@pytest.mark.parametrize("expr, code, stdout", DIRAC_ROWS, ids=[row[0] for row in DIRAC_ROWS])
def test_dirac_operations_by_kind(expr, code, stdout, tmp_path, capsys):
    assert_eval(DIRAC_PRELUDE + expr + "\n", code, stdout, tmp_path, capsys)


FOCK_PRELUDE = """\
universe u { sector f: fermion [1,2] }
"""

# (expression, exit code, stdout) of `spinor-kit eval` on FOCK_PRELUDE + expression:
# a named universe is bound to its name, and '|' is the interior product of a dual
# state with a state.
FOCK_ROWS = [
    ('u', 0, 'universe { sector f: fermion [1,2] }\n'),
    ("f:1' | f:1 ^ f:2", 0, 'f:2 * (1)\n'),
    ("f:2' | f:1 ^ f:2", 0, 'f:1 * (-1)\n'),
    ('f:1 | f:2', 2, ''),
]


@pytest.mark.parametrize("expr, code, stdout", FOCK_ROWS, ids=[row[0] for row in FOCK_ROWS])
def test_fock_operations_by_kind(expr, code, stdout, tmp_path, capsys):
    assert_eval(FOCK_PRELUDE + expr + "\n", code, stdout, tmp_path, capsys)


# (program, stderr prefix) of `spinor-kit eval` programs that exit 2: a kernel
# error is a usage error at the token that reached the kernel (a call, an
# operator, a literal's keyword, a sector name or `universe`), and an argument
# of the wrong kind is refused at the call before the kernel sees it.
EVAL_ERROR_ROWS = [
    ("universe { sector f: fermion [1,1] }", "error: 1:19: ValueError: duplicate modes in sector f"),
    ("universe { sector f: fermion [1]; sector f: boson [2] }", "error: 1:1: ValueError: duplicate sector names"),
    ("gamma(1*1)", "error: 1:1: gamma() argument 1 must be ScaledTensor, got Scalar"),
    ("(1+i)*emit(1-i)", "error: 1:7: emit() argument 1 must be FockState, got Scalar"),
    ("k(dirac (u: [1, 0], lbar: [0, 0]), 1)", "error: 1:1: k() argument 2 must be DiracVector, got Scalar"),
    ("apply(id4, 1)", "error: 1:1: apply() argument 2 must be DiracVector or FockState, got Scalar"),
    ("universe { sector f: fermion [1] }\njson(vac) + json(vac)", "error: 2:11: cannot apply '+' to str and str"),
    ("hsplit(e1*eb1) + hsplit(e1*eb1)", "error: 1:16: cannot apply '+' to tuple and tuple"),
    ("e1*eb1 + e1", "error: 1:8: VarianceError: slot mismatch"),
    ("1 / (1 - 1)", "error: 1:3: ZeroDivisionError"),
    ("tensor [U] { (3): 1 }", "error: 1:1: VarianceError: bad index (3,)"),
    ("\u00b2", "error: 1:1: unexpected character '\u00b2'"),
    # every poly term needs a factor: an empty term is refused where it starts, not read as 1
    ('form deg=0 dim=2 { 1 : poly "" }', "error: 1:29: in poly string '': 1:1: expected a poly factor"),
    ('form deg=0 dim=2 { 1 : poly "x +" }', "error: 1:29: in poly string 'x +': 1:4: expected a poly factor"),
    ('let q = 1\nform deg=0 dim=2 { 1 : poly "- -x" }', "error: 2:29: in poly string '- -x': 1:3: expected a poly factor"),
    ('form deg=0 dim=2 { 1 : poly "x*" }', "error: 1:29: in poly string 'x*': 1:3: expected a poly factor"),
    ('form deg=0 dim=2 { 1 : poly "x y" }', "error: 1:29: in poly string 'x y': 1:3: unexpected trailing input"),
    # an axis name is one whole name of the chart, never a run of the alphabet read as its first letter
    ('form deg=0 dim=2 { 1 : poly "xy" }', "error: 1:29: in poly string 'xy': 1:1: expected a poly factor"),
    ('form deg=0 dim=6 { 1 : poly "wu" }', "error: 1:29: in poly string 'wu': 1:1: expected a poly factor"),
    ('form deg=1 dim=2 { dx -> axis xy : poly "x" }', "error: 1:34: bad axis 'xy'"),
    ('form deg=1 dim=6 { dx -> axis uv : poly "x" }', "error: 1:34: bad axis 'uv'"),
    ('form deg=1 dim=2 { dxy : poly "x" }', "error: 1:24: bad differential 'dxy'"),
    (
        'form deg=1 dim=2 { dx : poly "x"; dy -> axis x : poly "y" }',
        "error: 1:1: cannot mix scalar and tangent components",
    ),
    ('vform deg=0 dim=2 fibre=2 { 1 : [poly "x"] }', "error: 1:44: expected 2 fibre components, got 1"),
    ('mform deg=0 dim=2 fibre=2 { 1 : [[poly "x", poly "y"]] }', "error: 1:56: expected 2 fibre rows, got 1"),
    (
        "universe { sector f: fermion [1] }\napply(id4, vac)",
        "error: 2:1: VarianceError: apply() cannot act with EndW on FockState",
    ),
    ("- tetrad(e1, e2)", "error: 1:1: cannot negate tuple"),
    ("e1'", "error: 1:3: cannot dualize ScaledTensor"),
    ("universe { sector f: quark [1] }", "error: 1:28: sector kind must be 'fermion' or 'boson'"),
    # a vector field on another chart is refused before any product, also where no field component meets the form
    (
        'let t0 = form deg=0 dim=2 { 1 -> axis y : poly "y" }\nlie(t0, form deg=1 dim=3 { dz : poly "1" })',
        "error: 2:1: ChartError: dimension mismatch: 2 vs 3",
    ),
    (
        'let t0 = form deg=0 dim=2 { 1 -> axis y : poly "y" }\nlie(t0, form deg=0 dim=3 { 1 : poly "z" })',
        "error: 2:1: ChartError: dimension mismatch: 2 vs 3",
    ),
    (
        'lie(form deg=0 dim=3 { 1 -> axis z : poly "x" }, form deg=1 dim=2 { dx : poly "x*y"; dy : poly "2" })',
        "error: 1:1: ChartError: dimension mismatch: 3 vs 2",
    ),
    # the 12th squaring is the first result over MAX_COEFF_BITS; the 24th would not end within a minute
    (
        "let a = 3+r2\n" + "let a = a*a\n" * 30,
        "error: 13:10: result with a 8774-bit coefficient is over the budget of 8192 bits",
    ),
]


@pytest.mark.parametrize("program, prefix", EVAL_ERROR_ROWS, ids=[row[0] for row in EVAL_ERROR_ROWS])
def test_kernel_errors_are_usage_errors_at_their_token(program, prefix, tmp_path, capsys):
    script = tmp_path / "prog.dsl"
    script.write_text(program + "\n")
    assert main(["eval", str(script)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix), err
    assert "Traceback" not in err


# One value of each kind the DSL has: scalars, spinor tensors, Dirac vectors and
# End W, forms of every fibre kind on charts 2 and 3, and Fock states, duals and
# operators over two universes.
CALL_MATRIX_PRELUDE = """\
let s = 1/2 - i*r2
let z = 0
let u = e2 - i*e1
let ls = es2
let h = e1*eb1
let obs = theta0
let uu = e1*e2 + e2*e1
let t32 = tensor [U, Ubar*] unit=3/2 { (1,2): 1-3/2*i; (2,1): r2 }
let a = dirac (u: [1, i], lbar: [0, r2])
let ad = adjoint(a)
let gm = gamma(e1*eb1)
let f2 = form deg=1 dim=2 { dx : poly "x*y"; dy : poly "2" }
let f3 = form deg=0 dim=3 { 1 : poly "z^2 - x" }
let t2 = form deg=0 dim=2 { 1 -> axis y : poly "y" }
let t3 = form deg=0 dim=3 { 1 -> axis z : poly "x" }
let t31 = form deg=1 dim=3 { dx -> axis y : poly "z" }
let v2 = vform deg=0 dim=2 fibre=2 { 1 : [poly "x", poly "y"] }
let v3 = vform deg=1 dim=3 fibre=3 { dz : [poly "x", poly "1", poly "0"] }
let m2 = mform deg=1 dim=2 fibre=2 { dx : [[poly "0", poly "y"], [poly "x", poly "1"]] }
let f31 = form deg=1 dim=3 { dz : poly "1" }
let m3 = mform deg=1 dim=3 fibre=3 { dy : [[poly "z", poly "0", poly "1"], [poly "0", poly "x", poly "0"],
                                          [poly "1", poly "0", poly "y"]] }
universe fb { sector f: fermion [1,2]; sector b: boson [1] }
let st = f:1 ^ f:2 * (1+i) + b:1
let one = f:1
let du = f:1' + b:1'
let op = emit(f:2) * absorb(f:1') + absorb(b:1')
let vacuum = vac
universe { sector c: fermion [1] }
let other = c:1
let oop = emit(c:1)
"""


def test_every_kind_correct_call_returns_or_is_a_usage_error():
    env = Environment()
    eval_program(CALL_MATRIX_PRELUDE, env)
    values = list(env.bindings.values())
    calls = [
        (name, fn, args)
        for name, (fn, *kinds) in dsl._FUNCTIONS.items()
        for args in itertools.product(*([v for v in values if isinstance(v, kind)] for kind in kinds))
    ]
    assert {name for name, _, _ in calls} == set(dsl._FUNCTIONS)
    calls += [(op, fn, args) for op, fn in dsl._BINARY.items() for args in itertools.product(values, repeat=2)]
    parser = dsl.Parser(dsl.tokenize("call"), env)
    leaked = []
    for name, fn, args in calls:
        try:
            parser.call_kernel(parser.peek(), fn, *args)
        except DslError:
            pass
        except Exception as exc:  # `eval` would exit 3 on it
            leaked.append(f"{name} {tuple(map(str, args))}: {type(exc).__name__}: {exc}")
    assert not leaked, leaked


def test_every_error_the_package_declares_is_a_value_error():
    # call_kernel converts only ValueError and ZeroDivisionError; any other
    # exception is an internal failure, so every declared bad-input error is a ValueError
    package = importlib.import_module("spinorkit")
    declared = [
        obj
        for info in pkgutil.iter_modules(package.__path__)
        for obj in vars(importlib.import_module(f"spinorkit.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == f"spinorkit.{info.name}"
    ]
    assert {"DslError", "VarianceError", "UnitMismatchError", "UnknownSuiteError"} <= {c.__name__ for c in declared}
    assert [c.__qualname__ for c in declared if not issubclass(c, ValueError)] == []


def test_term_budget_stops_the_first_result_over_it(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_TERMS", 2)
    assert eval_program("e1*eb1 + e2*eb2") == ["tensor [U,Ubar] { (1,1): 1; (2,2): 1 }"]
    with pytest.raises(DslError, match="^1:17: result of 3 terms is over the budget of 2$"):
        eval_program("e1*eb1 + e2*eb2 + e1*eb2")


def test_bit_budget_bounds_polynomial_exponents(monkeypatch, tmp_path, capsys):
    # n wedge squarings of x give x^(2^n): the coefficient stays 1, the exponent
    # has n + 1 bits, and one over the budget would not print under a low digit limit
    monkeypatch.setattr(dsl, "MAX_COEFF_BITS", 16)
    script = tmp_path / "prog.dsl"
    script.write_text('let p = form deg=0 dim=1 { 1 : poly "x" }\n' + "let p = p^p\n" * 20 + "p\n")
    assert main(["eval", str(script)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 17:10: result with a 17-bit exponent is over the budget of 16 bits"), err
    assert "Traceback" not in err
    with pytest.raises(DslError, match="^1:1: result with a 17-bit exponent is over the budget of 16 bits$"):
        eval_program('form deg=0 dim=1 { 1 : poly "x^65536" }')
    assert eval_program('form deg=0 dim=1 { 1 : poly "x^65535" }') == ['form deg=0 dim=1 { 1 : poly "x^65535" }']


def test_bit_budget_fits_a_lower_int_digit_limit(tmp_path, capsys):
    # 11 squarings reach about 4,400 bits: within MAX_COEFF_BITS, but over 640
    # digits; under that digit limit the budget is 640 * log2(10) = 2126 bits
    script = tmp_path / "prog.dsl"
    script.write_text("let a = 3+r2\n" + "let a = a*a\n" * 11 + "a\n")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["eval", str(script)])
    finally:
        sys.set_int_max_str_digits(saved)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: 11:10: result with a 2193-bit coefficient is over the budget of 2126 bits"), err
    assert "Traceback" not in err
    assert main(["eval", str(script)]) == 0
    assert len(capsys.readouterr().out) == 2647


# Valid programs, split into tokens and the whitespace between them, for the mutation test.
_PIECE = re.compile(r'\s+|"[^"]*"|->|\w+|\S')
FUZZ_PROGRAMS = [
    _PIECE.findall(text)
    for text in [FORM_PRELUDE + expr + "\n" for expr, code, _ in FORM_ROWS if code == 0]
    + [DIRAC_PRELUDE + expr + "\n" for expr, code, _ in DIRAC_ROWS if code == 0]
    + [
        "g( e1*eb1, e2*eb2 )\ng( theta0, theta0 )\n",
        "apply( gamma(e1*eb1), dirac (u: [0, 1], lbar: [0, 0]) )\n",
        "let y = e1*eb1 + e2*eb2\ng( y, y )\nhsplit(y)\ndagger(y)\nconj(e1)\n",
        "nulldec(tensor [U,Ubar] { (1,1): 4; (1,2): 2-2*i; (2,1): 2+2*i; (2,2): 2 })\n",
        "tensor [U, Ubar*] unit=3/2 { (1,2): 1-3/2*i; (2,1): r2 }\neps_flat(e1)\neps_sharp(es2)\n",
        "let a = dirac (u: [1, i], lbar: [0, r2])\nk(a, a)\ncc(a)\nsplit(theta0, a)\ntetrad(e1, e2)\n",
        "universe { sector f: fermion [1,2,3]; sector b: boson [1,2] }\n"
        "let s = f:1 ^ f:2 * (1+i) + f:1 ^ f:3\nf:1' | s\npair(f:1', f:1)\njson(s)\n"
        "apply(emit(f:2) * absorb(f:1'), s)\nsbracket(absorb(b:1'), emit(b:1))\n",
    ]
]
# '\u00b2' is a digit to str.isdigit() but not to int(); '\u0663' is an Arabic-Indic 3
FUZZ_VOCAB = sorted(
    {p for pieces in FUZZ_PROGRAMS for p in pieces if not p.isspace()} | {"\n", "'", "vac", "0", "\u00b2", "\u0663"}
)


@st.composite
def mutated_programs(draw):
    """A valid program after 1-4 token edits: delete, duplicate, replace or insert."""
    pieces = list(draw(st.sampled_from(FUZZ_PROGRAMS)))
    for _ in range(draw(st.integers(1, 4))):
        tokens = [k for k, piece in enumerate(pieces) if not piece.isspace()]
        edit = draw(st.sampled_from(("delete", "duplicate", "replace", "insert")))
        if not tokens:
            edit = "insert"
        k = draw(st.sampled_from(tokens)) if tokens else 0
        if edit == "delete":
            del pieces[k]
        elif edit == "duplicate":
            pieces.insert(k, pieces[k])
        elif edit == "replace":
            pieces[k] = draw(st.sampled_from(FUZZ_VOCAB))
        else:
            pieces.insert(k, f" {draw(st.sampled_from(FUZZ_VOCAB))} ")
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(mutated_programs())
def test_mutated_programs_are_evaluated_or_refused(text):
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "-"])
    finally:
        sys.stdin = saved
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_call_table_kernels_are_their_module_bindings():
    # a call looks its kernel up in the kernel's module (a method in its class
    # there), which must find the table's own callable
    for name, (fn, *_kinds) in dsl._FUNCTIONS.items():
        assert functools.reduce(getattr, fn.__qualname__.split("."), sys.modules[fn.__module__]) is fn, name


TRACED_CALLS = [
    ("diracw.gamma", "gamma(e1*eb1)"),
    ("fnforms.fn_bracket", FORM_PRELUDE + "fnb(t1, t0)"),
    ("fnforms.curvature", FORM_PRELUDE + "curv(m1)"),
    ("fnforms.covariant_differential", FORM_PRELUDE + "covd(m1, v0)"),
    ("fnforms.bianchi_residual", FORM_PRELUDE + "bianchi(m1)"),
    ("fockalg.super_bracket", "universe { sector b: boson [1] }\nsbracket(absorb(b:1'), emit(b:1))"),
]


@pytest.mark.parametrize("span, program", TRACED_CALLS, ids=[span for span, _ in TRACED_CALLS])
def test_benchmark_tracer_counts_dsl_calls(span, program):
    # the benchmark tracer rebinds module attributes; a DSL call must run the rebound kernel
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer() as tracer:
        eval_program(program + "\n")
    assert tracer.calls[span] == 1


# -- the tokenizer against the character loop it replaced ---------------------------------


def _reference_tokenize(text):
    """The character-at-a-time tokenizer the DSL had before `tokenize` tested punctuation first."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise DslError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise DslError("unterminated string", line, col)
            tokens.append(dsl.Token("string", text[i + 1: j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if text.startswith("->", i):
            tokens.append(dsl.Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]{},;:*^|'=+-/\">":
            tokens.append(dsl.Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            limit = dsl._digit_limit()
            if limit and j - i > limit:
                raise DslError(f"integer literal of {j - i} digits is too long", line, col)
            tokens.append(dsl.Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(dsl.Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(dsl.Token("eof", None, line, col))
    return tokens


def token_rows(tokenizer, text):
    """(kind, value, line, col) of every token, or the DslError text."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenizer(text)]
    except DslError as exc:
        return str(exc)


TOKENIZER_EDGE_ROWS = [
    "",
    "1 -- a comment at end of file",
    "-- only a comment",
    "x --",
    "1\n  -- indented comment\n2",
    "a->b",
    "->",
    "- >",
    "1 -",
    "-",
    "--\n-",
    "\tx\r\n\ty\r",
    "x\x0by\x0cz w",
    '"open at end of file',
    '"open across\na newline"',
    '"a" "" "b-->c"',
    'poly "x^2" -- "not a string',
    "x²",
    "²",
    "٣ + 1",
    "x٣",
    "_x1 x_1 _",
    "é",
    "éa + aé",
    ">",
    "(\n1\n)\n2",
    "{ [ ( ) ] }\n}\n)x",
    "1" * 40,
]


@pytest.mark.parametrize("text", TOKENIZER_EDGE_ROWS, ids=[repr(t)[:30] for t in TOKENIZER_EDGE_ROWS])
def test_tokenize_matches_reference_on_edge_rows(text):
    assert token_rows(dsl.tokenize, text) == token_rows(_reference_tokenize, text)


def test_tokenize_edge_rows_read_as_documented():
    assert token_rows(dsl.tokenize, "1 -- a comment") == [("int", 1, 1, 1), ("eof", None, 1, 3)]
    assert token_rows(dsl.tokenize, "²") == "1:1: unexpected character '²'"
    assert token_rows(dsl.tokenize, "٣")[0] == ("int", 3, 1, 1)
    assert token_rows(dsl.tokenize, '"a\nb"') == "1:1: unterminated string"


_TOKEN_CHARS = list("()[]{},;:*^|'=+-/\">_ \t\r\n") + ["--", "->", "x", "r2", "12", "²", "٣", "é", "a1"]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.lists(st.sampled_from(_TOKEN_CHARS), max_size=40).map("".join), st.text(max_size=30)))
def test_tokenize_matches_reference_on_random_text(text):
    assert token_rows(dsl.tokenize, text) == token_rows(_reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(mutated_programs())
def test_tokenize_matches_reference_on_mutated_programs(text):
    assert token_rows(dsl.tokenize, text) == token_rows(_reference_tokenize, text)


def test_tokenize_matches_reference_on_the_fuzz_programs_and_their_poly_strings():
    texts = ["".join(pieces) for pieces in FUZZ_PROGRAMS]
    texts += [piece[1:-1] for pieces in FUZZ_PROGRAMS for piece in pieces if piece.startswith('"')]
    for text in texts:
        assert token_rows(dsl.tokenize, text) == token_rows(_reference_tokenize, text)


# -- polynomial literals in one dict against the sum of per-term Polys -------------------


def _reference_poly_sum(parser, dim):
    """The parser's poly grammar as it was: one Poly per term, summed with `+`.

    It still reads a term without a factor as its sign, which the parser now
    refuses, so the comparisons below draw only terms with a factor.
    """
    total = _reference_poly_term(parser, dim, parser.match_punct("-"))
    while True:
        if parser.match_punct("+"):
            total = total + _reference_poly_term(parser, dim, parser.match_punct("-"))
        elif parser.match_punct("-"):
            total = total + _reference_poly_term(parser, dim, True)
        else:
            return total


def _reference_poly_term(parser, dim, negated):
    coeff = Scalar(-1) if negated else Scalar.one()
    exps = [0] * dim
    while True:
        tok = parser.peek()
        if tok.kind == "int":
            parser.advance()
            if parser.match_punct("/"):
                coeff = coeff * Scalar(Fraction_like(tok.value, parser._expect_denominator()))
            else:
                coeff = coeff * Scalar(tok.value)
        elif tok.kind == "name" and tok.value in ("i", "r2"):
            parser.advance()
            coeff = coeff * (Scalar.i() if tok.value == "i" else Scalar.sqrt2())
        elif tok.kind == "name" and tok.value in "xyzw"[:dim]:
            parser.advance()
            power = parser.expect_int() if parser.match_punct("^") else 1
            exps["xyzw".index(tok.value)] += power
        elif tok.kind == "punct" and tok.value == "(":
            parser.advance()
            inner = parser.nested(_reference_poly_sum, parser, dim)
            parser.expect_punct(")")
            if inner.terms and all(e == 0 for k in inner.terms for e in k):
                coeff = coeff * inner.terms[(0,) * dim]
            elif not inner.terms:
                coeff = coeff * Scalar.zero()
            else:
                parser.error("parenthesized poly factors must be scalar")
        else:
            break
        if not parser.match_punct("*"):
            break
    return Poly(dim, {tuple(exps): coeff})


def _reference_poly_from_string(text, dim, line, col, depth):
    try:
        sub = dsl.Parser(dsl.tokenize(text), Environment(), depth)
        poly = _reference_poly_sum(sub, dim)
        sub.expect_eof()
    except DslError as exc:
        raise DslError(f"in poly string {text!r}: {exc}", line, col) from None
    return poly


def parse_poly_both_ways(text, dim):
    """(one-dict result, per-term reference), each a Poly or the DslError text."""
    results = []
    for parse in (dsl._poly_from_string, _reference_poly_from_string):
        try:
            results.append(parse(text, dim, 1, 1, 0))
        except DslError as exc:
            results.append(str(exc))
    return results


POLY_ROWS = [
    ("x + x - 2*x", {}),
    ("(x - x)*y", {}),
    ("(0)*x", {}),
    ("x*x^2", {(3, 0): Scalar(1)}),
    ("x*x^2 - x^3 + y", {(0, 1): Scalar(1)}),
    ("-x + 2*x - x + 3/6*i*r2", {(0, 0): Scalar(0, 0, 0, Fraction_like(1, 2))}),
    ("(1 + i)*(1 - i)*x*y^0", {(1, 0): Scalar(2)}),
    ("2*x*y - y*x*2", {}),
    ("0", {}),
    ("(x)*y", "1:1: in poly string '(x)*y': 1:4: parenthesized poly factors must be scalar"),
    ("(1 + x - x)*y^", "1:1: in poly string '(1 + x - x)*y^': 1:15: expected an integer"),
    ("1/0*x", "1:1: in poly string '1/0*x': 1:3: zero denominator"),
]


@pytest.mark.parametrize("text, terms", POLY_ROWS, ids=[text for text, _ in POLY_ROWS])
def test_poly_literal_matches_sum_of_per_term_polys(text, terms):
    got, want = parse_poly_both_ways(text, 2)
    if isinstance(terms, str):
        assert got == want == terms
        return
    assert got == want == Poly(2, terms)
    assert got.terms == terms and all(not c.is_zero() for c in got.terms.values())


_POLY_PIECES = ["x", "y", "x^2", "y^3", "2", "3/4", "0", "i", "r2", "(1-i)", "(x-x)", "(0)", "(2*i - 2*i)", "(r2)"]


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from(("+", "-", "+ -")), st.lists(st.sampled_from(_POLY_PIECES), min_size=1, max_size=4)),
        min_size=1,
        max_size=5,
    )
)
def test_poly_literal_matches_sum_of_per_term_polys_on_random_sums(terms):
    text = " ".join(f"{sign} {'*'.join(factors)}" for sign, factors in terms).lstrip("+ ")
    got, want = parse_poly_both_ways(text, 2)
    assert got == want
    if isinstance(got, Poly):
        assert got.terms == want.terms


# -- poly strings against sympy's parser -----------------------------------------------

SY_TRANSFORMATIONS = standard_transformations + (convert_xor,)


def _oracle_factor(rng, axes, depth):
    kinds = ["int", "fraction", "unit"] + ["axis"] * 3 * bool(axes) + ["paren"] * (depth < 2)
    kind = rng.choice(kinds)
    if kind == "int":
        return str(rng.randint(0, 9))
    if kind == "fraction":
        return f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
    if kind == "unit":
        return rng.choice(("i", "r2"))
    if kind == "axis":
        return rng.choice(axes) + rng.choice(("", "", f"^{rng.randint(0, 4)}"))
    return f"({_oracle_poly_text(rng, '', depth + 1)})"


def _oracle_poly_text(rng, axes, depth=0):
    """A poly string the DSL accepts: a sum of products of ints, fractions, i, r2, axis powers and (scalar sums)."""
    text = rng.choice(("", "-"))
    for k in range(rng.randint(1, 4)):
        if k:
            text += rng.choice((" + ", " - ", " + -"))
        text += "*".join(_oracle_factor(rng, axes, depth) for _ in range(rng.randint(1, 3)))
    return text


def test_poly_strings_match_sympy_parse_expr():
    rng = random.Random(2011)
    texts = []
    for _ in range(300):
        dim = rng.randint(1, len(AXIS_NAMES))
        axes = AXIS_NAMES[:dim]
        symbols = [sympy.Symbol(a) for a in axes]
        text = _oracle_poly_text(rng, axes)
        texts.append(text)
        poly = dsl._poly_from_string(text, dim, 1, 1, 0)
        got = sum(
            (scalar_to_sympy(c) * sympy.Mul(*(x**k for x, k in zip(symbols, exps))) for exps, c in poly.terms.items()),
            sympy.Integer(0),
        )
        names = {"i": sympy.I, "r2": sympy.sqrt(2), **dict(zip(axes, symbols))}
        want = parse_expr(text, local_dict=names, transformations=SY_TRANSFORMATIONS)
        assert sympy.expand(got - want) == 0, text
    # the corpus reaches every kind of factor and sign
    assert all(any(piece in text for text in texts) for piece in ("(", "i", "r2", "^", "/", " - ", "+ -"))


# -- eval stdout over a seeded corpus of the statement kinds, byte for byte ---------------


def _corpus_scalar(rng):
    """A sum of 1-3 terms such as 3/4*i*r2, in no canonical order."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        num, den = rng.randint(-12, 12), rng.randint(1, 6)
        tail = rng.choice(("", "*i", "*r2", "*i*r2", "*r2*i"))
        terms.append(f"{num}/{den}{tail}" if den > 1 else f"{num}{tail}")
    return " + ".join(terms).replace("+ -", "- ")


def _corpus_poly(rng, dim):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice("xyz"[:dim]) + rng.choice(("", "^2")) for _ in range(rng.randint(0, 2))]
        coeff = rng.choice(("", f"({_corpus_scalar(rng)})"))
        terms.append("*".join(filter(None, [coeff] + factors)) or "1")
    return " + ".join(terms)


def _corpus_axes(rng, dim, degree):
    combos = list(itertools.combinations("xyz"[:dim], degree))
    return sorted(rng.sample(combos, rng.randint(1, len(combos))))


def _corpus_label(axes):
    return "^".join("d" + a for a in axes) or "1"


def _corpus_statement(rng, kind):
    dim = rng.choice((2, 3))
    degree = rng.randint(0, 2)
    if kind == "nulldec":
        sign = rng.choice(("", "-"))
        return (
            f"let a = {_corpus_scalar(rng)}\nlet b = {rng.choice((_corpus_scalar(rng), '0'))}\n"
            f"nulldec({sign}(a*e1 + b*e2) * (conj(a)*eb1 + conj(b)*eb2))"
        )
    if kind == "tensor":
        slots = rng.choice((("U", "Ubar"), ("U",), ("U*",), ("U", "Ubar*"), ("Ubar*", "U*")))
        unit = rng.choice(("", "", " unit=0", " unit=-1/2", " unit=3/2"))
        keys = itertools.product((1, 2), repeat=len(slots))
        body = "; ".join(f"({','.join(map(str, key))}): {_corpus_scalar(rng)}" for key in keys if rng.random() < 0.75)
        return f"tensor [{','.join(slots)}]{unit} {{ {body} }}"
    if kind == "form":
        body = "; ".join(f'{_corpus_label(axes)} : poly "{_corpus_poly(rng, dim)}"' for axes in _corpus_axes(rng, dim, degree))
        return f"form deg={degree} dim={dim} {{ {body} }}"
    if kind == "tangent":
        body = "; ".join(
            f'{_corpus_label(axes)} -> axis {rng.choice("xyz"[:dim])} : poly "{_corpus_poly(rng, dim)}"'
            for axes in _corpus_axes(rng, dim, degree)
        )
        return f"form deg={degree} dim={dim} {{ {body} }}"
    rows = ", ".join(
        "[" + ", ".join(f'poly "{_corpus_poly(rng, dim)}"' for _ in range(2)) + "]" for _ in range(2)
    )
    body = "; ".join(f"{_corpus_label(axes)} : [{rows}]" for axes in _corpus_axes(rng, dim, degree))
    return f"mform deg={degree} dim={dim} fibre=2 {{ {body} }}"


def eval_corpus(seed, rounds):
    """(exit code, stdout, stderr) of `eval -` on each statement of the seeded corpus.

    Each round evaluates one statement of every kind, twice printed back (a
    literal re-read from its own output), and a truncated copy of one of them.
    """
    rng = random.Random(seed)
    results = []

    def run(text):
        saved, sys.stdin = sys.stdin, io.StringIO(text + "\n")
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["eval", "-"])
        finally:
            sys.stdin = saved
        results.append((code, out.getvalue(), err.getvalue()))
        return out.getvalue()

    for _ in range(rounds):
        texts = [_corpus_statement(rng, kind) for kind in ("nulldec", "tensor", "form", "tangent", "mform")]
        for text in texts:
            printed = run(text)
            if not text.startswith("let") and printed:
                run(printed)
        full = rng.choice(texts)
        run(full[: rng.randint(1, len(full) - 1)])
    return results


# sha256 of eval_corpus(1501, 40), recorded with the Fraction-based printer and the per-term poly parser
GOLDEN_EVAL_CORPUS_SHA256 = "8339ec99c719c88ff56793bf94cffd0eab80f081e34e1f69c696ce078b3a4f79"


def test_eval_corpus_prints_byte_identical_output():
    results = eval_corpus(1501, 40)
    assert sum(code == 0 for code, _, _ in results) > 300 and all(code in (0, 2) for code, _, _ in results)
    digest = hashlib.sha256()
    for code, out, err in results:
        digest.update(f"{code}\n{out}\x00{err}\x01".encode())
    assert digest.hexdigest() == GOLDEN_EVAL_CORPUS_SHA256


# -- printer round trips over the suite samplers ----------------------------------------


PRINTABLE_SAMPLERS = {
    "scalar": random_scalar,
    "tensor": suites.random_mink,
    "spinor": suites.random_spinor,
    "dirac": lambda rng: DiracVector([random_scalar(rng) for _ in range(4)]),
    "form": lambda rng: Form(3, 1, {(axis,): suites.random_poly(rng, 3) for axis in range(3)}),
    "tangent": lambda rng: suites.random_form(rng, 3, rng.randint(0, 3), Fibre("tangent", 3), sparse=True),
    "vector": lambda rng: suites.random_form(rng, 3, rng.randint(0, 3), Fibre("vector", 2)),
    "matrix": lambda rng: suites.random_form(rng, 3, 1, Fibre("matrix", 2)),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_printed_values_read_back_to_themselves(seed):
    for kind, draw in PRINTABLE_SAMPLERS.items():
        value = draw(SplitMix64(seed))
        text = str(value)
        assert eval_program(text) == [text], kind
        parser = dsl.Parser(dsl.tokenize(text), Environment())
        parsed = parser.parse_expr()
        parser.expect_eof()
        # a zero tangent form prints no component, so it reads back as the zero scalar form
        if not (kind == "tangent" and value.is_zero()):
            assert parsed == value, kind
