"""Textual definitions of two-parameter thermodynamic potentials.

A potential is written as an arithmetic expression in two coordinate names
(entropy-like first, control-parameter second) plus named numeric
parameters, e.g. ``"sqrt(S)/2 * (1 + Q^2/S)"``.  Parsing produces an
immutable :class:`PotentialSpec` whose AST is compiled once and evaluated
over plain scalars or over :class:`~thermocurv.jets.Jet3` values; the jet
route is what feeds every derivative used downstream.

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
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from . import jets
from .jets import DomainError, Jet3, jet_var

_FUNCTIONS = ("sqrt", "exp", "ln")


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
        """The expression compiled once into a function of the coordinate
        pair (floats, jets or arrays)."""
        return _compile(self.ast, self.params)


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
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

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

    Raises :class:`ParseError` (with position) on lexical/syntax problems or
    unknown identifiers; coordinate and parameter names must be distinct and
    must not shadow the built-in function names.
    """
    if not src or not src.strip():
        raise ParseError("empty potential expression", 0)
    params = dict(params or {})
    if len(coords) != 2 or coords[0] == coords[1]:
        raise ValueError(f"coords must be two distinct identifiers, got {coords!r}")
    for ident in (*coords, *params):
        if ident in _FUNCTIONS:
            raise ValueError(f"identifier {ident!r} shadows a built-in function")
    if set(coords) & set(params):
        raise ValueError("coordinate and parameter names overlap")
    ast = _Parser(_tokenize(src), tuple(coords), params).parse()
    dom = _normalize_domain(domain, coords)
    return PotentialSpec(name=name, coords=tuple(coords), ast=ast,
                         params=params, domain=dom)


def _normalize_domain(domain, coords) -> tuple[tuple[float, float], tuple[float, float]]:
    if domain is None:
        return ((0.0, math.inf), (0.0, math.inf))
    out = []
    for cname in coords:
        lo, hi = domain.get(cname, (0.0, math.inf)) if isinstance(domain, Mapping) \
            else domain[coords.index(cname)]
        lo = -math.inf if lo is None else float(lo)
        hi = math.inf if hi is None else float(hi)
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
        right = jets._checked(right, abs(right) < jets.DIVISION_FLOOR, "div",
                              "division by (near-)zero value")
    return left / right


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide}


def _compile(node: ExprNode, params):
    """Turn an AST into a function of the coordinate pair.

    The function works on floats, jets and arrays alike; operands are
    evaluated left to right, so the first failing check is the same in
    every mode.
    """
    if isinstance(node, (Const, Param)):
        value = node.value if isinstance(node, Const) else params[node.name]
        return lambda coords: value
    if isinstance(node, Coord):
        index = node.index
        return lambda coords: coords[index]
    if isinstance(node, Neg):
        operand = _compile(node.operand, params)
        return lambda coords: -operand(coords)
    if isinstance(node, Call):
        arg, func = _compile(node.arg, params), getattr(jets, node.func)
        return lambda coords: func(arg(coords))
    left, right = _compile(node.left, params), _compile(node.right, params)
    if node.op == "^" and _has_coord(node.right):
        # structurally non-constant exponent: u^w = exp(w ln u),
        # positive base required in either evaluation mode
        def general_power(coords):
            base = left(coords)
            return jets.exp(right(coords) * jets.ln(base))
        return general_power
    op = jets.power if node.op == "^" else _BINARY[node.op]
    return lambda coords: op(left(coords), right(coords))


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
    return float(spec.evaluate((float(s), float(x))))


def eval_jet(spec: PotentialSpec, point) -> Jet3:
    """Jet of the potential at ``point``: value plus all partials to order 3.

    ``point`` may hold two equal-length arrays, evaluated inside
    :func:`jets.batch`; the jet's coefficients are then arrays or floats.
    """
    s, x = _check_domain(spec, *point)
    result = spec.evaluate((jet_var(0, s), jet_var(1, x)))
    if not isinstance(result, Jet3):  # constant expression
        result = jets.jet_const(result)
    return result


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
    params = obj.get("params") or {}
    domain = obj.get("domain") or {}
    dom_map = {c: tuple(domain.get(c, (None, None))) for c in coords}
    return parse_potential(expression, (coords[0], coords[1]), params,
                           name=str(name), domain=dom_map)


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
