"""Textual definitions of two-parameter thermodynamic potentials.

A potential is written as an arithmetic expression in two coordinate names
(entropy-like first, control-parameter second) plus named numeric
parameters, e.g. ``"sqrt(S)/2 * (1 + Q^2/S)"``.  Parsing produces an
immutable :class:`PotentialSpec`; its AST is traced once per process into
straight-line Python source, one function for the
:class:`~thermocurv.jets.Jet3` that feeds every derivative used downstream
(on float or array coordinates) and one for plain values.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]          # right-associative, binds tighter
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` with a coordinate-free exponent that is an integer is evaluated by
repeated multiplication (so negative bases are fine); any other exponent
requires a positive base.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Union

import numpy as np

from . import jets
from .jets import DomainError, Jet3

_FUNCTIONS = ("sqrt", "exp", "ln")
_MAX_NESTING = 100


class ParseError(ValueError):
    """Lexical or syntactic error; carries the 0-based source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifierError(ParseError):
    pass


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprNode"


ExprNode = Union[Const, Coord, Param, Neg, BinOp, Call]


@dataclass(frozen=True)
class PotentialSpec:
    """A named potential: coordinates, parameter bindings, AST and domain.

    ``domain`` holds one open interval per coordinate (defaults to
    (0, +inf)); bounds may be ``-inf``/``+inf``.
    """

    name: str
    coords: tuple[str, str]
    ast: ExprNode
    params: Mapping[str, float] = field(default_factory=dict)
    domain: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf), (0.0, math.inf))

    @cached_property
    def evaluate(self):
        """The generated jet evaluator: ``evaluate(s, x)`` is the
        :class:`~thermocurv.jets.Jet3` at coordinates that passed the domain
        check (floats or arrays)."""
        return _generated(self.ast, self.params, True)

    @cached_property
    def evaluate_value(self):
        """The generated value evaluator: true division, ``sqrt(0)`` allowed."""
        return _generated(self.ast, self.params, False)


# -- lexer / parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens, coords, params):
        self.tokens = tokens
        self.i = 0
        self.coords = coords
        self.params = params
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r} after expression", pos)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExprNode:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> ExprNode:
        # every nesting level (parentheses, call, unary minus, exponent)
        # passes through here; the limit keeps the parser, the code
        # generator and the printer well inside the recursion limit
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", pos)
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> ExprNode:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may itself carry a unary minus
            node = BinOp("^", node, self.unary())
        return node

    def atom(self) -> ExprNode:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.coords:
                return Coord(self.coords.index(text), text)
            if text in self.params:
                return Param(text)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"expected a value, got {shown!r}", pos)


def parse_potential(
    src: str,
    coords: tuple[str, str] = ("S", "X"),
    params: Mapping[str, float] | None = None,
    *,
    name: str = "anonymous",
    domain=None,
) -> PotentialSpec:
    """Parse an expression into an immutable :class:`PotentialSpec`.

    Raises :class:`ParseError` (with position) on lexical/syntax problems,
    unknown identifiers or nesting deeper than ``_MAX_NESTING`` levels, and
    :class:`ValueError` on a malformed argument: the source and name must be
    strings, parameters finite real numbers, coordinate and parameter names
    distinct and not the built-in function names.
    """
    if not isinstance(src, str) or not isinstance(name, str):
        raise ValueError("the expression and the name must be strings")
    if not src.strip():
        raise ParseError("empty potential expression", 0)
    if not isinstance(params or {}, Mapping):
        raise ValueError(f"params must map names to numbers, got {params!r}")
    params = {k: _real(v, f"param {k!r}", finite=True) for k, v in (params or {}).items()}
    if len(coords) != 2 or coords[0] == coords[1]:
        raise ValueError(f"coords must be two distinct identifiers, got {coords!r}")
    for ident in (*coords, *params):
        if ident in _FUNCTIONS:
            raise ValueError(f"identifier {ident!r} shadows a built-in function")
    if set(coords) & set(params):
        raise ValueError("coordinate and parameter names overlap")
    ast = _Parser(_tokenize(src), tuple(coords), params).parse()
    dom = _normalize_domain(domain, coords)
    spec = PotentialSpec(name=name, coords=tuple(coords), ast=ast,
                         params=params, domain=dom)
    spec.evaluate  # generated now: a constant sub-expression that fails raises here
    return spec


def _real(value, what: str, finite: bool = False) -> float:
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            value = float(value)
            if math.isfinite(value) or not finite:
                return value
    except OverflowError:
        pass
    raise ValueError(f"{what} must be a{' finite' if finite else ''} real number, "
                     f"got {value!r}")


def _normalize_domain(domain, coords) -> tuple[tuple[float, float], tuple[float, float]]:
    if domain is None:
        return ((0.0, math.inf), (0.0, math.inf))
    out = []
    for cname in coords:
        entry = domain.get(cname, (0.0, math.inf)) if isinstance(domain, Mapping) \
            else domain[coords.index(cname)]
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"domain of {cname} must be [lo, hi], got {entry!r}")
        lo, hi = (bound if b is None else _real(b, f"domain bound of {cname}")
                  for b, bound in zip(entry, (-math.inf, math.inf)))
        if not lo < hi:
            raise ValueError(f"empty domain interval for {cname}: ({lo}, {hi})")
        out.append((lo, hi))
    return (out[0], out[1])


# -- evaluation ---------------------------------------------------------------

def _has_coord(node: ExprNode) -> bool:
    if isinstance(node, Coord):
        return True
    if isinstance(node, (Const, Param)):
        return False
    if isinstance(node, Neg):
        return _has_coord(node.operand)
    if isinstance(node, Call):
        return _has_coord(node.arg)
    return _has_coord(node.left) or _has_coord(node.right)


def _divide(left, right):
    if not isinstance(left, Jet3) and not isinstance(right, Jet3):
        right = jets._outer(jets._divisor, right)
    return left / right


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide}


def _trace(node: ExprNode, params, coords):
    """Evaluate an AST on the coordinate pair (floats, jets or traced
    values), operands left to right, so the first failing check is the same
    in every mode.  A sub-expression that fails with constant operands
    raises :class:`ValueError` naming it."""
    if isinstance(node, (Const, Param)):
        return node.value if isinstance(node, Const) else params[node.name]
    if isinstance(node, Coord):
        return coords[node.index]
    try:
        if isinstance(node, Neg):
            return -_trace(node.operand, params, coords)
        if isinstance(node, Call):
            return getattr(jets, node.func)(_trace(node.arg, params, coords))
        left = _trace(node.left, params, coords)
        if node.op == "^" and _has_coord(node.right):
            # structurally non-constant exponent: u^w = exp(w ln u),
            # positive base required in either evaluation mode
            return jets.exp(_trace(node.right, params, coords) * jets.ln(left))
        right = _trace(node.right, params, coords)
        return (jets.power if node.op == "^" else _BINARY[node.op])(left, right)
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{format_expression(node)!r} fails at every point: "
                         f"{exc}") from exc


_GENERATED: dict = {}   # least recently used first
_MAX_GENERATED = 256


def _generated(ast: ExprNode, params, jet: bool):
    """The straight-line evaluator of a potential, built once per process
    for each distinct AST and parameter set (of the last 256 used)."""
    key = (jet, _signature(ast), tuple(sorted((k, float(v).hex()) for k, v in params.items())))
    fn = _GENERATED[key] = _GENERATED.pop(key, None) or _generate(ast, params, jet)
    if len(_GENERATED) > _MAX_GENERATED:
        del _GENERATED[next(iter(_GENERATED))]
    return fn


def _signature(ast: ExprNode) -> tuple:
    """The AST in prefix order, walked with a stack: a long chain of
    operators is deeper than hashing the nested nodes can recurse."""
    out, stack = [], [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            out.append(node.op)
            stack += (node.right, node.left)
        elif isinstance(node, (Neg, Call)):
            out.append("neg" if isinstance(node, Neg) else node.func)
            stack.append(node.operand if isinstance(node, Neg) else node.arg)
        else:
            out.append(repr(node.value) if isinstance(node, Const) else
                       f"#{node.index}" if isinstance(node, Coord) else f"${node.name}")
    return tuple(out)


def _generate(ast: ExprNode, params, jet: bool):
    trace = jets._Trace()
    s, x = jets._Symbol(trace, "s"), jets._Symbol(trace, "x")
    token = jets._TRACE.set(trace)
    try:
        result = _trace(ast, params, (Jet3(s, 1.0), Jet3(x, 0.0, 1.0)) if jet else (s, x))
    finally:
        jets._TRACE.reset(token)
    if jet and not isinstance(result, Jet3):  # constant expression
        result = jets.jet_const(result)
    lines, texts = trace.source(tuple(result) if jet else (result,))
    body = [*lines, f"return _jet(({', '.join(texts)}))" if jet else f"return {texts[0]}"]
    namespace = {f.__name__: f for f in jets._RUNTIME}
    namespace.update(inf=math.inf, nan=math.nan, _jet=partial(tuple.__new__, Jet3))
    exec("def generated(s, x):\n" + "".join(f"    {line}\n" for line in body), namespace)
    return namespace["generated"]


def _check_domain(spec: PotentialSpec, s, x):
    """The coordinates, array points outside the domain recorded as failed."""
    out = []
    for value, cname, (lo, hi) in zip((s, x), spec.coords, spec.domain):
        if isinstance(value, np.ndarray):
            inside = (lo < value) & (value < hi) & np.isfinite(value)
            value = jets._checked(value, ~inside, "domain")
        elif not (lo < value < hi) or not math.isfinite(value):
            raise DomainError("domain", value,
                              f"{cname}={value!r} outside ({lo}, {hi})")
        out.append(value)
    return out


def eval_scalar(spec: PotentialSpec, point) -> float:
    """Value of the potential at ``point`` (any (s, x) pair)."""
    s, x = point
    _check_domain(spec, s, x)
    return float(spec.evaluate_value(float(s), float(x)))


def eval_jet(spec: PotentialSpec, point) -> Jet3:
    """Jet of the potential at ``point``: value plus all partials to order 3.

    ``point`` may hold two equal-length arrays, evaluated inside
    :func:`jets.batch`; the jet's coefficients are then arrays or floats.
    """
    s, x = _check_domain(spec, *point)
    return spec.evaluate(s if isinstance(s, np.ndarray) else float(s),
                         x if isinstance(x, np.ndarray) else float(x))


def eval_jets(spec: PotentialSpec, s, x) -> tuple[Jet3, np.ndarray]:
    """Jets at the points ``(s[k], x[k])`` (arrays, or one a float) in one
    batched pass, and each point's failure code: 0, ``jets.DOMAIN`` or
    ``jets.OVERFLOW`` (also for a jet that is not finite).  A failed point's
    jet is nan."""
    n = np.broadcast(s, x).size
    nan = np.full(n, math.nan)
    jet = None
    with jets.batch(n) as failures:
        jet = eval_jet(spec, (s, x))
    coeffs = np.broadcast_arrays(*([nan] * 10 if jet is None else jet.coeffs()), nan)[:10]
    failures.record(jets.OVERFLOW, ~np.isfinite(coeffs).all(axis=0))
    failed = failures.code != 0
    return Jet3(*(np.where(failed, nan, c) for c in coeffs)), failures.code


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expression(node: ExprNode) -> str:
    """Render an AST back to source that reparses to an equivalent tree."""
    text, _ = _format(node)
    return text


def _format(node: ExprNode) -> tuple[str, int]:
    if isinstance(node, Const):
        return repr(node.value), 5
    if isinstance(node, (Coord, Param)):
        return node.name, 5
    if isinstance(node, Call):
        return f"{node.func}({_format(node.arg)[0]})", 5
    if isinstance(node, Neg):
        text, prec = _format(node.operand)
        if prec < _PREC["neg"]:
            text = f"({text})"
        return f"-{text}", _PREC["neg"]
    my = _PREC[node.op]
    left, lp = _format(node.left)
    right, rp = _format(node.right)
    if node.op == "^":
        if lp <= my:  # ^ is right-associative
            left = f"({left})"
        if rp < my and rp != _PREC["neg"]:
            right = f"({right})"
    else:
        if lp < my:
            left = f"({left})"
        if rp < my or (rp == my and node.op in "-/"):
            right = f"({right})"
    return f"{left} {node.op} {right}", my


# -- JSON interchange ---------------------------------------------------------

def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a spec from the potential-definition JSON document."""
    try:
        name = obj["name"]
        coords = obj["coords"]
        expression = obj["expression"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"potential definition missing field: {exc}") from exc
    if not (isinstance(coords, (list, tuple)) and len(coords) == 2
            and all(isinstance(c, str) for c in coords)):
        raise ValueError(f"coords must be a pair of strings, got {coords!r}")
    if not (isinstance(name, str) and isinstance(expression, str)):
        raise ValueError("potential name and expression must be strings")
    domain = obj.get("domain") or {}
    if not isinstance(domain, Mapping):
        raise ValueError(f"domain must map coordinates to [lo, hi], got {domain!r}")
    dom_map = {c: domain.get(c, (None, None)) for c in coords}
    return parse_potential(expression, (coords[0], coords[1]), obj.get("params"),
                           name=name, domain=dom_map)


def potential_to_json(spec: PotentialSpec) -> dict:
    def bound(b):
        return None if math.isinf(b) else b
    return {
        "name": spec.name,
        "coords": list(spec.coords),
        "expression": format_expression(spec.ast),
        "params": dict(spec.params),
        "domain": {c: [bound(lo), bound(hi)]
                   for c, (lo, hi) in zip(spec.coords, spec.domain)},
    }


def load_potential_file(path) -> PotentialSpec:
    """Read a potential-definition JSON file (single document)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)  # JSONDecodeError carries the position
    return potential_from_json(obj)
