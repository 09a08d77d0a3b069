"""Text DSL: tensor/form/state literals, expression evaluation, canonical printing.

A program is a sequence of statements:

    universe { sector f: fermion [1,2,3]; sector b: boson [1,2] }
    let y = e1 * eb1
    g( e1*eb1, e2*eb2 )            -- prints 1
    f:1 ^ f:2 * (1+i)              -- fock exterior product, scalar rescale

Scalar literals are ordinary arithmetic over the constants `i` and `r2`
(so `1-3/2*i` is exact), `^` is the exterior/wedge product, `|` the interior
product, a trailing `'` dualizes a fock state.  Every value prints in its
canonical form, and literals round-trip bit-exactly through their printers.
The parser alone decides where a statement ends: outside every bracket, a
'+' or '-' that opens a line starts the next statement, and so does a '('
that opens a line after a name.

Errors: every failure the DSL reports is a DslError carrying the line and
column of the offending token.  Each function call, operator, mode reference,
literal and `universe` statement reaches the kernel through
`Parser.call_kernel`, the one place that turns a kernel exception into a
DslError; it converts ValueError and ZeroDivisionError, which cover every
error the package declares for bad input.  Any other exception, a plain
TypeError included, is an internal failure of the kernel and propagates
unchanged.  `call_kernel` also holds each result to the size budget
MAX_COEFF_BITS and MAX_TERMS, so a chain of growing results stops with a
DslError at the first operation over it instead of running without bound.
The bit budget bounds the exponents of a form's polynomials as well as the
coefficients, and shrinks to fit Python's int-to-str digit limit when that is
lower, so every result within budget can be printed.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import diracw, fnforms, fockalg, spintensor
from .diracw import DiracVector, EndW
from .exactfield import Combination, Scalar, _accumulate, _make, _reduced
from .fnforms import AXIS_NAMES, SCALAR, ChartError, Fibre, Poly, ValuedForm, _check_dim
from .fockalg import FockState, OperatorElement, Sector, Statistics, Universe
from .spintensor import ScaledTensor, Variance, VarianceError


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# one-character punctuation; '-' may open '--' or '->', and '"' opens a string
_PUNCT = frozenset("()[]{},;:*^|'=+/>")
# each axis name and its axis; a name is an axis of a chart of dimension dim iff its axis is below dim
_AXIS_INDEX = {name: axis for axis, name in enumerate(AXIS_NAMES)}
# Deepest nesting of parentheses, call arguments and literals the parser
# accepts; each level costs several Python frames, so this keeps deep input
# from overflowing the interpreter stack.
MAX_NESTING = 64
# The size budget for the result of one call, operator or literal.  Exact
# arithmetic has no size limit of its own: each squaring doubles the bits of
# the coefficients.  The kernel stays unbudgeted; a result over either bound is
# a DslError at its token.  8192 bits are about 2,470 decimal digits, so every
# coefficient within budget prints under Python's default limit of 4,300
# digits; a lower limit lowers the budget (`_coeff_bit_budget`).  The
# benchmark's coefficients stay under 200 bits.
MAX_COEFF_BITS = 1 << 13
# Scalar coefficients in one result, the coefficients of a form's polynomials included.
MAX_TERMS = 1 << 14


def _digit_limit() -> int:
    """Python's int-to-str digit limit: 0 for none."""
    return sys.get_int_max_str_digits()


def _coeff_bit_budget() -> int:
    """MAX_COEFF_BITS, lowered so that every coefficient within it prints under the digit limit."""
    limit = _digit_limit()
    # |n| < 2**bits has at most `limit` digits when bits <= limit * log2(10) = limit * 3.3219...
    return min(MAX_COEFF_BITS, limit * 3321928 // 1000000) if limit else MAX_COEFF_BITS


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'int' | 'name' | 'punct' | 'string' | 'eof'
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0  # text[line_start] opens the current line
    limit = _digit_limit()
    i, n = 0, len(text)
    while i < n:
        ch, col = text[i], i - line_start + 1
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
        elif ch == "-":
            nxt = text[i + 1: i + 2]
            if nxt == "-":  # a comment runs to the end of its line
                j = text.find("\n", i)
                if j < 0:
                    break  # the eof token takes the comment's column
                i = j
            else:
                value = "->" if nxt == ">" else "-"
                tokens.append(Token("punct", value, line, col))
                i += len(value)
        elif ch == "\n":
            i += 1
            line, line_start = line + 1, i
        elif ch.isspace():
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or text.find("\n", i + 1, j) >= 0:
                raise DslError("unterminated string", line, col)
            tokens.append(Token("string", text[i + 1: j], line, col))
            i = j + 1
        elif ch.isdecimal():  # isdigit() also accepts characters such as '²' that int() refuses
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if limit and j - i > limit:
                raise DslError(f"integer literal of {j - i} digits is too long", line, col)
            tokens.append(Token("int", int(text[i:j]), line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            i = j
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", None, line, i - line_start + 1))
    return tokens


_VARIANCES = {v.value: v for v in Variance}


def _poly_from_string(text: str, dim: int, line: int, col: int, depth: int) -> Poly:
    """Parse a polynomial string like 'x^2*y + (1+i)*z - 3/2' found at nesting `depth`."""
    try:
        sub = Parser(tokenize(text), Environment(), depth)
        terms = sub._parse_poly_sum(dim)
        sub.expect_eof()
    except DslError as exc:
        raise DslError(f"in poly string {text!r}: {exc}", line, col) from None
    return Poly._trusted((dim,), terms)


# Predefined constants, built once; immutable, so every environment shares them.
_PREDEFINED = {
    "i": Scalar.i(),
    "r2": Scalar.sqrt2(),
    "e1": spintensor.e(1),
    "e2": spintensor.e(2),
    "eb1": spintensor.ebar(1),
    "eb2": spintensor.ebar(2),
    "es1": spintensor.estar(1),
    "es2": spintensor.estar(2),
    "ebs1": spintensor.ebarstar(1),
    "ebs2": spintensor.ebarstar(2),
    "id4": diracw.EndW.identity(),
}
_PREDEFINED.update(
    (f"theta{k}", theta) for k, theta in enumerate(spintensor.pauli_tetrad(spintensor.e(1), spintensor.e(2)))
)


class Environment:
    def __init__(self):
        self.bindings: Dict[str, object] = {}
        self.universe: Optional[Universe] = None

    def lookup(self, name: str):
        """The value `name` stands for, or None; bindings shadow the predefined constants."""
        value = self.bindings.get(name, _PREDEFINED.get(name))
        if value is None and name == "vac" and self.universe is not None:
            return FockState.vacuum(self.universe)
        return value


def _apply(op, psi):
    """op(psi): an End W on a Dirac vector, or a Fock operator on a Fock state."""
    if isinstance(op, OperatorElement) is not isinstance(psi, FockState):
        raise VarianceError(f"apply() cannot act with {type(op).__name__} on {type(psi).__name__}")
    return op.apply(psi)


def _conj(x):
    return x.conj()


# name -> (kernel callable, the kind of each argument); a kind is a type or a tuple of types
_FUNCTIONS = {
    "g": (spintensor.g_pairing, ScaledTensor, ScaledTensor),
    "gamma": (diracw.gamma, ScaledTensor),
    "fnb": (fnforms.fn_bracket, ValuedForm, ValuedForm),
    "d": (ValuedForm.d, ValuedForm),
    "lie": (fnforms.lie_derivative, ValuedForm, ValuedForm),
    "curv": (fnforms.curvature, ValuedForm),
    "bianchi": (fnforms.bianchi_residual, ValuedForm),
    "covd": (fnforms.covariant_differential, ValuedForm, ValuedForm),
    "eps_flat": (spintensor.eps_flat, ScaledTensor),
    "eps_sharp": (spintensor.eps_sharp, ScaledTensor),
    "dagger": (spintensor.hermitian_transpose, ScaledTensor),
    "hsplit": (spintensor.hermitian_split, ScaledTensor),
    "tetrad": (spintensor.pauli_tetrad, ScaledTensor, ScaledTensor),
    "nulldec": (spintensor.null_decompose, ScaledTensor),
    "adjoint": (diracw.dirac_adjoint, DiracVector),
    "k": (diracw.k_form, DiracVector, DiracVector),
    "cc": (diracw.charge_conjugate, DiracVector),
    "split": (diracw.observer_split, ScaledTensor, DiracVector),
    "apply": (_apply, (EndW, OperatorElement), (DiracVector, FockState)),
    "emit": (fockalg.emit, FockState),
    "absorb": (fockalg.absorb, FockState),
    "sbracket": (fockalg.super_bracket, OperatorElement, OperatorElement),
    "pair": (fockalg.pairing, FockState, FockState),
    "json": (fockalg.state_to_json, FockState),
    "conj": (_conj, (Scalar, ScaledTensor)),
}


def _collect(value, coefficients: list, exponents: list):
    """Append the Scalar coefficients of a DSL value to `coefficients` and the
    largest exponent of each of its polynomials to `exponents`, the nested
    ones of forms and tuples included."""
    if type(value) is Scalar:
        coefficients.append(value)
        return
    if type(value) is Poly:
        coefficients.extend(value.terms.values())
        exponents.append(max(map(max, value.terms), default=0))
        return
    if isinstance(value, Combination):
        value = tuple(value.terms.values())
    if isinstance(value, tuple):
        for v in value:
            _collect(v, coefficients, exponents)


def _kind_name(kind) -> str:
    return " or ".join(t.__name__ for t in (kind if isinstance(kind, tuple) else (kind,)))


class Parser:
    def __init__(self, tokens: List[Token], env: Environment, depth: int = 0):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.depth = depth
        self.statement_depth = depth + 1  # the depth of a statement's expression, outside every bracket
        self.bit_budget = _coeff_bit_budget()  # read once per program, not once per call_kernel

    # -- cursor helpers ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col)

    def match_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect_punct(self, value: str):
        if not self.match_punct(value):
            self.error(f"expected {value!r}")

    def match_name(self, value: str) -> bool:
        tok = self.peek()
        if tok.kind == "name" and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            self.error("expected a name")
        self.pos += 1
        return tok.value

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.error("expected an integer")
        self.pos += 1
        return tok.value

    def expect_eof(self):
        if self.peek().kind != "eof":
            self.error("unexpected trailing input")

    def call_kernel(self, tok: Token, fn, *args):
        """fn(*args); a kernel's ValueError or ZeroDivisionError, or a result over budget, is a DslError at `tok`."""
        try:
            result = fn(*args)
        except (ValueError, ZeroDivisionError) as exc:
            raise DslError(f"{type(exc).__name__}: {exc}", tok.line, tok.col) from None
        if type(result) is Scalar:  # most results, and the cheapest to measure
            terms, ints = 1, result.ints
        else:
            coefficients, exponents = [], []
            _collect(result, coefficients, exponents)
            terms, ints = len(coefficients), [x for c in coefficients for x in c.ints]
            # an exponent prints as a decimal int too, so it is held to the same budget
            bits = max(exponents, default=0).bit_length()
            if bits > self.bit_budget:
                self.error(f"result with a {bits}-bit exponent is over the budget of {self.bit_budget} bits", tok)
        if terms > MAX_TERMS:
            self.error(f"result of {terms} terms is over the budget of {MAX_TERMS}", tok)
        bits = max(map(int.bit_length, ints), default=0)
        if bits > self.bit_budget:
            self.error(f"result with a {bits}-bit coefficient is over the budget of {self.bit_budget} bits", tok)
        return result

    def _starts_statement(self) -> bool:
        """Whether the next token opens the next statement: at the statement depth, on a later line than the last."""
        return self.depth == self.statement_depth and self.peek().line != self.tokens[self.pos - 1].line

    def nested(self, parse, *args):
        """parse(*args) one nesting level deeper, refused beyond MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def _parse_list(self, close: str, parse_item, *args) -> list:
        """One or more parse_item(*args), separated by ',' and ended by the punct `close`."""
        items = [parse_item(*args)]
        while self.match_punct(","):
            items.append(parse_item(*args))
        self.expect_punct(close)
        return items

    # -- program --------------------------------------------------------------

    def parse_program(self) -> List[str]:
        outputs: List[str] = []
        while self.peek().kind != "eof":
            if self.match_punct(";"):
                continue
            if self.peek().kind == "name" and self.peek().value == "universe":
                self._parse_universe_stmt(self.advance())
                continue
            if self.peek().kind == "name" and self.peek().value == "let":
                self.advance()
                name = self.expect_name()
                self.expect_punct("=")
                value = self.parse_expr()
                self.env.bindings[name] = value
                continue
            value = self.parse_expr()
            outputs.append(format_value(value))
        return outputs

    def _parse_universe_stmt(self, keyword: Token):
        name = None
        if self.peek().kind == "name" and self.peek().value != "sector":
            name = self.expect_name()
        self.expect_punct("{")
        sectors = []
        while not self.match_punct("}"):
            if self.match_punct(";"):
                continue
            if not self.match_name("sector"):
                self.error("expected 'sector'")
            s_tok = self.peek()
            s_name = self.expect_name()
            self.expect_punct(":")
            kind = self.expect_name()
            try:
                stats = Statistics(kind)
            except ValueError:
                self.error("sector kind must be 'fermion' or 'boson'")
            self.expect_punct("[")
            modes = self._parse_list("]", self.expect_int)
            sectors.append(self.call_kernel(s_tok, Sector, s_name, stats, modes))
        universe = self.call_kernel(keyword, Universe, sectors)
        self.env.universe = universe
        if name:
            self.env.bindings[name] = universe

    # -- expressions -------------------------------------------------------------

    def parse_expr(self):
        return self.nested(self._parse_binary, 0)

    def _parse_binary(self, level: int):
        """A left-associative chain of the operators of _LEVELS[level]; past the last level, a unary expression.

        Each bracket nests a parse_expr, so a chain at the statement depth is outside every bracket; there a
        level-0 operator on a later line than the token before it starts the next statement, and so does a
        '(' after a name (`_parse_atom`).
        """
        if level == len(_LEVELS):
            return self._parse_unary()
        ops = _LEVELS[level]
        value = self._parse_binary(level + 1)
        while (tok := self.peek()).kind == "punct" and tok.value in ops:
            if not level and self._starts_statement():
                break
            self.pos += 1
            rhs = self._parse_binary(level + 1)
            result = self.call_kernel(tok, _BINARY[tok.value], value, rhs)
            if result is None:
                self.error(f"cannot apply {tok.value!r} to {type(value).__name__} and {type(rhs).__name__}", tok)
            value = result
        return value

    def _parse_unary(self):
        tok, negations = self.peek(), 0
        while self.match_punct("-"):
            negations += 1
        value = self._parse_postfix()
        if negations and not isinstance(value, (Scalar, Combination)):
            self.error(f"cannot negate {type(value).__name__}", tok)
        return -value if negations % 2 else value

    def _parse_postfix(self):
        value = self._parse_atom()
        while (tok := self.peek()).kind == "punct" and tok.value == "'":
            if not isinstance(value, FockState):
                self.error(f"cannot dualize {type(value).__name__}")
            self.advance()
            value = FockState(value.universe, value.terms, not value.dual)
        return value

    def _parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return _make((tok.value, 0, 0, 0, 1))
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            value = self.parse_expr()
            self.expect_punct(")")
            return value
        if tok.kind == "name":
            self.advance()
            if tok.value == "tensor":
                return self._parse_tensor_literal(tok)
            if tok.value == "dirac":
                return self._parse_dirac_literal(tok)
            if tok.value in ("form", "mform", "vform"):
                return self._parse_form_literal(tok)
            name = tok.value
            # mode reference  sector:mode
            if self.peek().kind == "punct" and self.peek().value == ":":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "int":
                    self.advance()
                    mode = self.expect_int()
                    if self.env.universe is None:
                        self.error("no universe declared for mode reference", tok)
                    return self.call_kernel(tok, FockState.mode, self.env.universe, name, mode)
            if self.peek().kind == "punct" and self.peek().value == "(" and not self._starts_statement():
                return self._parse_call(name, tok)
            value = self.env.lookup(name)
            if value is None:
                self.error(f"unknown name {name!r}", tok)
            return value
        self.error("expected an expression")

    def _parse_call(self, name: str, tok: Token):
        entry = _FUNCTIONS.get(name)
        if entry is None:
            self.error(f"unknown function {name!r}", tok)
        fn, *kinds = entry
        self.expect_punct("(")
        args = [] if self.match_punct(")") else self._parse_list(")", self.parse_expr)
        arity = len(kinds)
        if len(args) != arity:
            self.error(f"{name}() takes {arity} argument{'s' * (arity != 1)}, got {len(args)}", tok)
        for position, (arg, kind) in enumerate(zip(args, kinds), 1):
            if not isinstance(arg, kind):
                self.error(f"{name}() argument {position} must be {_kind_name(kind)}, got {type(arg).__name__}", tok)
        # call the kernel through its binding in its module (or class), so that a rebound name runs; else as is
        bound = sys.modules.get(fn.__module__)
        for attr in fn.__qualname__.split("."):
            bound = getattr(bound, attr, None)
        return self.call_kernel(tok, bound or fn, *args)

    # -- literals -----------------------------------------------------------------

    def _parse_variance(self) -> Variance:
        name = self.expect_name()
        if self.match_punct("*"):
            name += "*"
        variance = _VARIANCES.get(name)
        if variance is None:
            self.error(f"unknown variance {name!r}")
        return variance

    def _parse_fraction(self) -> Fraction:
        sign = -1 if self.match_punct("-") else 1
        num = self.expect_int()
        den = 1
        if self.match_punct("/"):
            den = self._expect_denominator()
        return Fraction(sign * num, den)

    def _expect_denominator(self) -> int:
        tok = self.peek()
        den = self.expect_int()
        if den == 0:
            self.error("zero denominator", tok)
        return den

    def _parse_scalar(self, what: str) -> Scalar:
        tok = self.peek()
        value = self.parse_expr()
        if not isinstance(value, Scalar):
            self.error(f"{what} must be scalars", tok)
        return value

    def _parse_tensor_literal(self, keyword: Token) -> ScaledTensor:
        self.expect_punct("[")
        slots = self._parse_list("]", self._parse_variance)
        unit = None
        if self.peek().kind == "name" and self.peek().value == "unit":
            self.advance()
            self.expect_punct("=")
            unit = self._parse_fraction()
        self.expect_punct("{")
        entries = {}
        while not self.match_punct("}"):
            if self.match_punct(";"):
                continue
            self.expect_punct("(")
            index = self._parse_list(")", self.expect_int)
            self.expect_punct(":")
            entries[tuple(index)] = self._parse_scalar("tensor entries")
        return self.call_kernel(keyword, ScaledTensor, slots, entries, unit)

    def _parse_dirac_literal(self, keyword: Token) -> DiracVector:
        self.expect_punct("(")
        components = []
        for part in ("u", "lbar"):
            if part == "lbar":
                self.expect_punct(",")
            if not self.match_name(part):
                self.error(f"expected '{part}' component")
            self.expect_punct(":")
            self.expect_punct("[")
            components.append(self._parse_scalar("dirac components"))
            self.expect_punct(",")
            components.append(self._parse_scalar("dirac components"))
            self.expect_punct("]")
        self.expect_punct(")")
        return self.call_kernel(keyword, DiracVector, components)

    def _parse_axes_label(self, dim: int) -> Tuple[int, ...]:
        tok = self.peek()
        if tok.kind == "int" and tok.value == 1:
            self.advance()
            return ()
        axes = []
        while True:
            name = self.expect_name()
            axis = _AXIS_INDEX.get(name[1:], dim) if name[:1] == "d" else dim
            if axis >= dim:
                self.error(f"bad differential {name!r}")
            axes.append(axis)
            if not self.match_punct("^"):
                break
        return tuple(axes)

    def _parse_poly_value(self, dim: int) -> Poly:
        if not self.match_name("poly"):
            self.error("expected 'poly \"...\"'")
        tok = self.peek()
        if tok.kind != "string":
            self.error("expected a quoted polynomial")
        self.advance()
        return _poly_from_string(tok.value, dim, tok.line, tok.col, self.depth)

    def _parse_form_literal(self, keyword_tok: Token) -> ValuedForm:
        keyword = keyword_tok.value
        header = {}
        for key in ("deg", "dim") + (("fibre",) if keyword in ("mform", "vform") else ()):
            if not self.match_name(key):
                self.error(f"expected '{key}='")
            self.expect_punct("=")
            header[key] = self.expect_int()
        degree, dim = header["deg"], header["dim"]
        try:
            _check_dim(dim)
        except ChartError as exc:
            self.error(str(exc))
        size = header.get("fibre")
        self.expect_punct("{")
        comps: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}
        scalar = tangent = False
        while not self.match_punct("}"):
            if self.match_punct(";"):
                continue
            axes = self._parse_axes_label(dim)
            if self.peek().kind == "punct" and self.peek().value == "->":
                if keyword != "form":
                    self.error(f"'-> axis' components belong in 'form' literals, not '{keyword}'")
                self.advance()
                if not self.match_name("axis"):
                    self.error("expected 'axis'")
                axis_name = self.expect_name()
                axis = _AXIS_INDEX.get(axis_name, dim)
                if axis >= dim:
                    self.error(f"bad axis {axis_name!r}")
                self.expect_punct(":")
                comps[(axes, (axis,))] = self._parse_poly_value(dim)
                tangent = True
                continue
            self.expect_punct(":")
            if keyword == "mform":
                rows = self._parse_row(size, "rows", self._parse_row, size, "components", self._parse_poly_value, dim)
                comps.update(((axes, (i, j)), p) for i, row in enumerate(rows) for j, p in enumerate(row))
            elif keyword == "vform":
                row = self._parse_row(size, "components", self._parse_poly_value, dim)
                comps.update(((axes, (j,)), p) for j, p in enumerate(row))
            else:
                comps[(axes, ())] = self._parse_poly_value(dim)
                scalar = True
        if scalar and tangent:
            self.error("cannot mix scalar and tangent components", keyword_tok)
        fibre = {
            "mform": Fibre("matrix", size),
            "vform": Fibre("vector", size),
            "form": Fibre("tangent", dim) if tangent else SCALAR,
        }[keyword]
        return self.call_kernel(keyword_tok, ValuedForm, dim, degree, fibre, comps)

    def _parse_row(self, count: int, word: str, parse_item, *args) -> list:
        """'[', `count` parse_item(*args) separated by ',', then ']'; `word` names the items."""
        self.expect_punct("[")
        items = self._parse_list("]", parse_item, *args)
        if len(items) != count:
            self.error(f"expected {count} fibre {word}, got {len(items)}")
        return items

    # -- polynomial sub-grammar ----------------------------------------------------

    def _parse_poly_sum(self, dim: int) -> dict:
        """The terms {exponents: coefficient} of a sum of poly terms, zero coefficients included."""
        terms: Dict[Tuple[int, ...], Scalar] = {}
        self._parse_poly_term(dim, self.match_punct("-"), terms)
        while True:
            if self.match_punct("+"):
                self._parse_poly_term(dim, self.match_punct("-"), terms)
            elif self.match_punct("-"):
                self._parse_poly_term(dim, True, terms)
            else:
                return terms

    def _parse_poly_term(self, dim: int, negated: bool, terms: dict):
        """Parse one product of factors and add it into `terms`."""
        coeff = _make((-1 if negated else 1, 0, 0, 0, 1))
        exps = [0] * dim
        while True:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                num = tok.value
                if self.match_punct("/"):
                    coeff = coeff * _reduced(num, 0, 0, 0, self._expect_denominator())
                else:
                    coeff = coeff * _make((num, 0, 0, 0, 1))
            elif tok.kind == "name" and tok.value == "i":
                self.advance()
                coeff = coeff * Scalar.i()
            elif tok.kind == "name" and tok.value == "r2":
                self.advance()
                coeff = coeff * Scalar.sqrt2()
            elif tok.kind == "name" and _AXIS_INDEX.get(tok.value, dim) < dim:
                self.advance()
                power = 1
                if self.match_punct("^"):
                    power = self.expect_int()
                exps[_AXIS_INDEX[tok.value]] += power
            elif tok.kind == "punct" and tok.value == "(":
                self.advance()
                inner = self.nested(self._parse_poly_sum, dim)
                self.expect_punct(")")
                const = (0,) * dim
                if any(c for k, c in inner.items() if k != const):
                    self.error("parenthesized poly factors must be scalar")
                coeff = coeff * inner.get(const, Scalar.zero())
            else:
                self.error("expected a poly factor")
            if not self.match_punct("*"):
                break
        _accumulate(terms, tuple(exps), coeff)


# -- binary operators: each returns its result, or None for kinds it does not combine ----


def _alike(op):
    """op(a, b) for two Scalars, or two Combinations of one type."""
    return lambda a, b: op(a, b) if type(a) is type(b) and isinstance(a, (Scalar, Combination)) else None


def _mul(a, b):
    if isinstance(a, Scalar) and not isinstance(b, Scalar):
        a, b = b, a
    if isinstance(a, ScaledTensor) and isinstance(b, ScaledTensor):
        return a.tensor(b)
    if isinstance(b, Scalar):
        if isinstance(a, Scalar):
            return a * b
        if isinstance(a, Combination):
            return a.scaled(b)
    if type(a) is type(b) and isinstance(a, (EndW, OperatorElement)):
        return a * b


def _div(a, b):
    if isinstance(b, Scalar):
        if isinstance(a, Scalar):
            return a / b
        if isinstance(a, Combination):
            return a.scaled(b.inverse())


def _wedge(a, b):
    if isinstance(a, FockState) and isinstance(b, FockState):
        return fockalg.exterior_product(a, b)
    if isinstance(a, ValuedForm) and isinstance(b, ValuedForm):
        return a.wedge(b)


def _interior(a, b):
    if isinstance(a, FockState) and isinstance(b, FockState):
        return fockalg.interior_product(a, b)


_BINARY = {"+": _alike(operator.add), "-": _alike(operator.sub), "*": _mul, "/": _div, "^": _wedge, "|": _interior}
# the binary operators by precedence level, loosest first
_LEVELS = (("+", "-"), ("*", "/", "|"), ("^",))


def format_value(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


def eval_program(text: str, env: Optional[Environment] = None) -> List[str]:
    """Evaluate a DSL program; returns the printed form of each expression."""
    return Parser(tokenize(text), env or Environment()).parse_program()
