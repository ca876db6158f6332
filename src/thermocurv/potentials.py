"""Textual definitions of two-parameter thermodynamic potentials.

A potential is written as an arithmetic expression in two coordinate names
(entropy-like first, control-parameter second) plus named numeric
parameters, e.g. ``"sqrt(S)/2 * (1 + Q^2/S)"``.  Parsing produces an
immutable :class:`PotentialSpec` whose expression is a flat postfix
program: a tuple of steps, each operand before its operator (see
:class:`_Parser`).  Each spec traces its program into straight-line Python
source the first time it needs it: one function for the
:class:`~thermocurv.jets.Jet3` that feeds every derivative used downstream
(on float or array coordinates), one for its value and first and second
partials alone, and one for plain values.  ``parse_potential`` returns the
same spec, and so the same code, for the same arguments (of the last 256).

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
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import jets
from .jets import DomainError, Jet3

_FUNCTIONS = ("sqrt", "exp", "ln")
# every nesting level (parentheses, call, unary minus, exponent) is one
# level of recursion in the parser, the only recursive walker of an
# expression; the limit keeps it well inside the recursion limit
_MAX_NESTING = 100


class ParseError(ValueError):
    """Lexical or syntactic error; carries the 0-based source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifierError(ParseError):
    pass


@dataclass(frozen=True)
class PotentialSpec:
    """A named potential: coordinates, parameter bindings, the expression's
    postfix program (``ast``) and domain.

    ``domain`` holds one open interval per coordinate (defaults to
    (0, +inf)); bounds may be ``-inf``/``+inf``.
    """

    name: str
    coords: tuple[str, str]
    ast: tuple
    params: Mapping[str, float] = field(default_factory=dict)
    domain: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf), (0.0, math.inf))

    @cached_property
    def evaluate(self):
        """The generated jet evaluator: ``evaluate(s, x)`` is the
        :class:`~thermocurv.jets.Jet3` at coordinates that passed the domain
        check (floats or arrays)."""
        return _generate(self.ast, self.params, 3)

    @cached_property
    def evaluate_second(self):
        """``evaluate``'s code for the partials to order 2 alone, bit for bit."""
        return _generate(self.ast, self.params, 2)

    @cached_property
    def evaluate_value(self):
        """The generated value evaluator: true division, ``sqrt(0)`` allowed."""
        return _generate(self.ast, self.params, 0)


# -- lexer / parser -----------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<ident>{_IDENT.pattern})
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
    """Reads the grammar into a postfix program, a tuple of steps in which
    each operand comes before its operator:

    ``("num", value)``, ``("coord", index, name)``, ``("param", name)``,
    ``("neg",)``, ``("call", func)``, ``("^", general)`` and ``(op,)`` for
    ``+ - * /``.  ``general`` marks an exponent in which a coordinate occurs.
    """

    def __init__(self, tokens, coords, params):
        self.tokens = tokens
        self.i = 0
        self.coords = coords
        self.params = params
        self.depth = 0
        self.steps = []

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

    def parse(self) -> tuple:
        self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r} after expression", pos)
        return tuple(self.steps)

    def expr(self):
        self.term()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in "+-":
                return
            self.advance()
            self.term()
            self.steps.append((text,))

    def term(self):
        self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in "*/":
                return
            self.advance()
            self.unary()
            self.steps.append((text,))

    def unary(self):
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", pos)
        if kind == "op" and text == "-":
            self.advance()
            self.unary()
            self.steps.append(("neg",))
        else:
            self.power()
        self.depth -= 1

    def power(self):
        self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may itself carry a unary minus
            first = len(self.steps)
            self.unary()
            general = any(step[0] == "coord" for step in self.steps[first:])
            self.steps.append(("^", general))

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} overflows", pos)
            self.steps.append(("num", value))
        elif kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                self.expr()
                self.expect_op(")")
                self.steps.append(("call", text))
            elif text in self.coords:
                self.steps.append(("coord", self.coords.index(text), text))
            elif text in self.params:
                self.steps.append(("param", text))
            else:
                raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        elif kind == "op" and text == "(":
            self.expr()
            self.expect_op(")")
        else:
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
    """Parse an expression into an immutable :class:`PotentialSpec`, the
    same one for the same arguments (of the last 256 parsed), its code built.

    Raises :class:`ParseError` (with position) on lexical/syntax problems,
    unknown identifiers, a number that overflows or nesting deeper than
    ``_MAX_NESTING`` levels, and
    :class:`ValueError` on a malformed argument: the source and name must be
    strings, ``coords`` a list or tuple of two identifiers, parameters finite
    real numbers, coordinate and parameter names distinct and not the built-in
    function names, and each domain key a coordinate.
    """
    if not isinstance(src, str) or not isinstance(name, str):
        raise ValueError("the expression and the name must be strings")
    if not src.strip():
        raise ParseError("empty potential expression", 0)
    if not isinstance(params or {}, Mapping):
        raise ValueError(f"params must map names to numbers, got {params!r}")
    params = {k: _real(v, f"param {k!r}", finite=True) for k, v in (params or {}).items()}
    if not (isinstance(coords, (list, tuple)) and len(coords) == 2
            and all(isinstance(c, str) and _IDENT.fullmatch(c) for c in coords)
            and coords[0] != coords[1]):
        raise ValueError(f"coords must be two distinct identifiers, got {coords!r}")
    for ident in (*coords, *params):
        if ident in _FUNCTIONS:
            raise ValueError(f"identifier {ident!r} shadows a built-in function")
    if set(coords) & set(params):
        raise ValueError("coordinate and parameter names overlap")
    dom = _normalize_domain(domain, coords)
    return _parsed(src, tuple(coords), tuple((k, v.hex()) for k, v in params.items()), name,
                   tuple(tuple(map(float.hex, bounds)) for bounds in dom))


@lru_cache(maxsize=256)
def _parsed(src, coords, params, name, domain) -> PotentialSpec:
    """The spec of validated arguments, each number as its ``float.hex``, so
    that -0.0 and 0.0 stay apart; its params are read-only, as it is shared."""
    params = MappingProxyType({k: float.fromhex(v) for k, v in params})
    program = _Parser(_tokenize(src), coords, params).parse()
    spec = PotentialSpec(name=name, coords=coords, ast=program, params=params,
                         domain=tuple(tuple(map(float.fromhex, b)) for b in domain))
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
    if isinstance(domain, Mapping) and (stray := [k for k in domain if k not in coords]):
        raise ValueError(f"domain key {stray[0]!r} names no coordinate of {tuple(coords)}")
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

_ARITY = {"num": 0, "coord": 0, "param": 0, "neg": 1, "call": 1,
          "+": 2, "-": 2, "*": 2, "/": 2, "^": 2}


def _fold(program: tuple, visit):
    """``visit(step, span, *results of its operands)`` for each step in
    order, where ``span`` is the slice of the program that holds the
    step's sub-expression."""
    results, starts = [], []
    for end, step in enumerate(program, 1):
        first = len(results) - _ARITY[step[0]]
        starts[first:] = [starts[first] if first < len(starts) else end - 1]
        results[first:] = [visit(step, slice(starts[first], end), *results[first:])]
    return results[0]


def _divide(left, right):
    if not isinstance(left, Jet3) and not isinstance(right, Jet3):
        right = jets._outer(jets._divisor, right)
    return left / right


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide}


def _trace(program: tuple, params, coords):
    """Evaluate a program on the coordinate pair (floats, jets or traced
    values), operands left to right, so the first failing check is the same
    in every mode.  A sub-expression that fails with constant operands
    raises :class:`ValueError` naming it."""
    def visit(step, span, *operands):
        kind = step[0]
        if kind in ("num", "param"):
            return step[1] if kind == "num" else params[step[1]]
        if kind == "coord":
            return coords[step[1]]
        try:
            if kind == "neg":
                return -operands[0]
            if kind == "call":
                return getattr(jets, step[1])(operands[0])
            left, right = operands
            if kind == "^" and step[1]:
                # structurally non-constant exponent: u^w = exp(w ln u),
                # positive base required in either evaluation mode
                return jets.exp(right * jets.ln(left))
            return (jets.power if kind == "^" else _BINARY[kind])(left, right)
        except (DomainError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"{format_expression(program[span])!r} fails at every "
                             f"point: {exc}") from exc
    return _fold(program, visit)


def _generate(program: tuple, params, order: int):
    namespace = {f.__name__: f for f in jets._RUNTIME}
    namespace.update(inf=math.inf, nan=math.nan, _jet=partial(tuple.__new__, Jet3))
    exec(_source(program, params, order), namespace)
    return namespace["generated"]


def _source(program: tuple, params, order: int) -> str:
    """The text of the function ``generated(s, x)`` that :func:`_generate`
    builds: the value (``order`` 0), or the jet's partials to ``order`` (2
    or 3) and nan for those above."""
    trace = jets._Trace()
    s, x = jets._Symbol(trace, "s"), jets._Symbol(trace, "x")
    # constants fold as outside a batch: a small divisor warns, so it stays
    token, outside = jets._TRACE.set(trace), jets._BATCH.set(None)
    try:
        result = _trace(program, params, (Jet3(s, 1.0), Jet3(x, 0.0, 1.0)) if order else (s, x))
    finally:
        jets._TRACE.reset(token)
        jets._BATCH.reset(outside)
    if order and not isinstance(result, Jet3):  # constant expression
        result = jets.jet_const(result)
    # (order + 1)(order + 2)/2 partials to that order in two variables; a
    # power feeds only third partials, and the full jet keeps its overflow
    lines, texts = trace.source(tuple(result)[:(order + 1) * (order + 2) // 2] if order
                                else (result,), keep_powers=order != 2)
    texts += ["nan"] * (10 - len(texts)) if order else []
    body = [*lines, f"return _jet(({', '.join(texts)}))" if order else f"return {texts[0]}"]
    return "def generated(s, x):\n" + "".join(f"    {line}\n" for line in body)


def _check_domain(spec: PotentialSpec, s, x):
    """The coordinates, array points outside the domain recorded as failed.
    A number outside raises; the strict test of the open interval also
    rejects nan and +-inf."""
    out = []
    for value, cname, (lo, hi) in zip((s, x), spec.coords, spec.domain):
        if isinstance(value, np.ndarray):
            jets._failures()        # raises outside jets.batch(), failures or not
            if value.size and not lo < value.min() <= value.max() < hi:   # nan fails it too
                inside = (lo < value) & (value < hi) & np.isfinite(value)
                value = jets._checked(value, ~inside, "domain")
            else:
                value = value.astype(float)     # a copy: no result aliases an input
        elif not lo < value < hi:
            raise DomainError("domain", value,
                              f"{cname}={value!r} outside ({lo}, {hi})")
        out.append(value)
    return out


def eval_scalar(spec: PotentialSpec, point) -> float | np.ndarray:
    """Value of the potential at ``point`` (any (s, x) pair, or two arrays)."""
    s, x = point
    if isinstance(s, np.ndarray):   # the first point that fails raises as it does alone
        with jets.batch(s.size) as failures:
            value = spec.evaluate_value(*_check_domain(spec, s, x))
        for k in np.flatnonzero(failures.code)[:1]:
            eval_scalar(spec, (s.item(k), x.item(k)))
        return np.broadcast_to(value, s.shape)
    _check_domain(spec, s, x)
    return float(spec.evaluate_value(float(s), float(x)))


def eval_jet(spec: PotentialSpec, point, order: int = 3) -> Jet3:
    """Jet of the potential at ``point``: value plus all partials to order 3,
    or with ``order=2`` to order 2 and nan third partials.

    ``point`` may hold two equal-length arrays, evaluated inside
    :func:`jets.batch`; the jet's coefficients are then arrays or floats.
    """
    s, x = point
    if order == 3:
        evaluate = spec.evaluate
    elif order == 2:
        evaluate = spec.evaluate_second
    else:
        raise ValueError(f"order must be 2 or 3, got {order!r}")
    if s.__class__ is float and x.__class__ is float:   # the common case, checked here
        (s_lo, s_hi), (x_lo, x_hi) = spec.domain
        if s_lo < s < s_hi and x_lo < x < x_hi:
            return evaluate(s, x)
    s, x = _check_domain(spec, s, x)
    return evaluate(s if isinstance(s, np.ndarray) else float(s),
                    x if isinstance(x, np.ndarray) else float(x))


def eval_jets(spec: PotentialSpec, s, x, order: int = 3) -> tuple[Jet3, np.ndarray]:
    """Jets at the points ``(s[k], x[k])`` (arrays, or one a float) and each
    point's failure code: 0, ``jets.DOMAIN`` or ``jets.OVERFLOW`` (also for a
    jet that is not finite); a failed point's jet is nan.  Every batch, of
    any size, is one pass of the generated code inside :func:`jets.batch`.

    ``order=2`` runs :attr:`PotentialSpec.evaluate_second`: nan third partials,
    and a point whose only non-finite partials are third order does not fail."""
    n = np.broadcast(s, x).size
    coeffs = [math.nan] * 10        # kept where a float raise fails every point
    with jets.batch(n) as failures:
        coeffs = eval_jet(spec, (s, x), order)
    table = np.empty((10, n))               # one row per coefficient
    for row, coeff in zip(table, coeffs):
        row[:] = coeff
    evaluated = table[:10 if order == 3 else 6]
    if not np.isfinite(evaluated).all():
        failures.record(jets.OVERFLOW, ~np.isfinite(evaluated).all(axis=0))
    if failures.code.any():
        table[:, failures.code != 0] = math.nan
    return Jet3(*table), failures.code


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expression(program: tuple) -> str:
    """Render a program back to source that parses to the same program."""
    text, _ = _fold(program, _format)
    return text


def _format(step: tuple, span, *operands: tuple[str, int]) -> tuple[str, int]:
    """The text and precedence of a step, given those of its operands."""
    kind = step[0]
    if kind == "num":
        return repr(step[1]), 5
    if kind in ("coord", "param"):
        return step[-1], 5
    if kind == "call":
        return f"{step[1]}({operands[0][0]})", 5
    if kind == "neg":
        text, prec = operands[0]
        if prec < _PREC["neg"]:
            text = f"({text})"
        return f"-{text}", _PREC["neg"]
    my = _PREC[kind]
    (left, lp), (right, rp) = operands
    if kind == "^":
        if lp <= my:  # ^ is right-associative
            left = f"({left})"
        if rp < my and rp != _PREC["neg"]:
            right = f"({right})"
    else:  # + - * / are left-associative
        if lp < my:
            left = f"({left})"
        if rp <= my:
            right = f"({right})"
    return f"{left} {kind} {right}", my


# -- JSON interchange ---------------------------------------------------------

def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a spec from the potential-definition JSON document."""
    try:
        name = obj["name"]
        coords = obj["coords"]
        expression = obj["expression"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"potential definition missing field: {exc}") from exc
    domain = obj.get("domain") or {}
    if not isinstance(domain, Mapping):
        raise ValueError(f"domain must map coordinates to [lo, hi], got {domain!r}")
    return parse_potential(expression, coords, obj.get("params"),
                           name=name, domain=domain)


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
    """Read a potential-definition JSON file (single document); the spec of
    each distinct text is built once (of the last 16 read)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _from_text(fh.read())


@lru_cache(maxsize=16)
def _from_text(text: str) -> PotentialSpec:
    return potential_from_json(json.loads(text))  # JSONDecodeError carries the position
