"""The closure-tree evaluator: the oracle of the generated code.

Each step of a potential's postfix program becomes a closure over its
operands' closures, and jets go through :class:`~thermocurv.jets.Jet3`
operator overloading, one object per operation.  The generated evaluators
must reproduce it bit for bit.

The generated code folds a zero constant: ``t * 0.0`` is ``0.0``, and
``t + 0.0``, ``0.0 + t`` and ``t - 0.0`` are ``t``, for any run-time ``t``
and a zero of either sign.  The oracle applies that rule by itself.  A value
that depends on the coordinates is marked, as a :class:`Varying` float or a
:class:`VaryingArray`, and their arithmetic folds a zero that is a plain
float, which is a constant.  A run-time helper's results are marked when one
of its arguments is.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from thermocurv import jets
from thermocurv.jets import Jet3, jet_const
from thermocurv.potentials import _BINARY, _check_domain

_ARITY = {"num": 0, "coord": 0, "param": 0, "neg": 1, "call": 1}   # else 2


def _zero(value) -> bool:
    """``value`` is a constant zero, of either sign."""
    return value.__class__ is float and value == 0.0


# the folded result of ``a op b``, or None where nothing folds
_FOLDS = {
    "mul": lambda a, b: 0.0 if _zero(a) or _zero(b) else None,
    "add": lambda a, b: b if _zero(a) else a if _zero(b) else None,
    "sub": lambda a, b: a if _zero(b) else None,
    "truediv": lambda a, b: None,
}


def varying(value):
    """``value`` marked as depending on the coordinates."""
    if isinstance(value, np.ndarray):
        return value.view(VaryingArray)
    return Varying(value) if isinstance(value, float) else value


def plain(value):
    """``value`` unmarked."""
    if isinstance(value, np.ndarray):
        return value.view(np.ndarray)
    return float(value) if isinstance(value, float) else value


def _arithmetic(cls, base):
    def method(name, fold, reflected):
        def apply(self, other):
            folded = fold(other, self) if reflected else fold(self, other)
            if folded is not None:
                return folded
            out = getattr(base, name)(self, other)
            return out if out is NotImplemented else varying(out)
        return apply

    for name, fold in _FOLDS.items():
        setattr(cls, f"__{name}__", method(f"__{name}__", fold, False))
        setattr(cls, f"__r{name}__", method(f"__r{name}__", fold, True))
    cls.__neg__ = lambda self: varying(base.__neg__(self))
    cls.__pow__ = lambda self, n: varying(base.__pow__(self, n))


class Varying(float):
    """A float that depends on the coordinates."""


class VaryingArray(np.ndarray):
    """Array values: they depend on the coordinates."""


_arithmetic(Varying, float)
_arithmetic(VaryingArray, np.ndarray)


class _RunTime:
    """Marks the results of the run-time helpers that ``jets._outer`` calls
    when one of their arguments is marked.  (The generated code also calls
    a helper that warns on constants, but such results are finite and
    nonzero, as an overflow fails on load, so they fold as constants do.)"""

    def call(self, fn, args):
        out = fn(*map(plain, args))
        if not any(isinstance(a, (Varying, VaryingArray)) for a in args):
            return out
        return tuple(map(varying, out)) if isinstance(out, tuple) else varying(out)


@contextmanager
def _marked():
    token = jets._TRACE.set(_RunTime())
    try:
        yield
    finally:
        jets._TRACE.reset(token)


def compile_closure(program, params):
    """Turn a postfix program into a function of the coordinate pair
    (floats, jets or arrays); operands are evaluated left to right.

    Whether a coordinate occurs in an exponent is worked out here from the
    operands, not read from the parser's ``("^", general)`` flag."""
    stack = []   # per operand: its closure and whether a coordinate occurs in it
    for step in program:
        arity = _ARITY.get(step[0], 2)
        operands = stack[len(stack) - arity:]
        del stack[len(stack) - arity:]
        varies = step[0] == "coord" or any(v for _, v in operands)
        stack.append((_closure(step, params, *(c for c, _ in operands),
                               general=arity == 2 and operands[1][1]), varies))
    return stack[0][0]


def _closure(step, params, *operands, general):
    kind = step[0]
    if kind in ("num", "param"):
        value = step[1] if kind == "num" else params[step[1]]
        return lambda coords: value
    if kind == "coord":
        index = step[1]
        return lambda coords: coords[index]
    if kind == "neg":
        operand, = operands
        return lambda coords: -operand(coords)
    if kind == "call":
        (arg,), func = operands, getattr(jets, step[1])
        return lambda coords: func(arg(coords))
    left, right = operands
    if kind == "^" and general:
        # structurally non-constant exponent: u^w = exp(w ln u)
        def general_power(coords):
            base = left(coords)
            return jets.exp(right(coords) * jets.ln(base))
        return general_power
    op = jets.power if kind == "^" else _BINARY[kind]
    return lambda coords: op(left(coords), right(coords))


def closure_jet(program, params, s, x) -> Jet3:
    """The jet of ``program`` at coordinates (floats or arrays), through the
    closure tree with the zero constants folded."""
    with _marked():
        result = compile_closure(program, params)(
            (Jet3(varying(s), 1.0), Jet3(varying(x), 0.0, 1.0)))
    result = result if isinstance(result, Jet3) else jet_const(result)
    return Jet3(*map(plain, result))


def oracle_jet_at(spec, s, x) -> Jet3:
    """The jet at coordinates that passed the domain check."""
    return closure_jet(spec.ast, spec.params, s, x)


def oracle_jet(spec, point) -> Jet3:
    """What ``eval_jet(spec, point)`` returned through the closure tree."""
    return oracle_jet_at(spec, *_check_domain(spec, *point))


def oracle_scalar(spec, point) -> float:
    """What ``eval_scalar(spec, point)`` returned through the closure tree."""
    s, x = point
    _check_domain(spec, s, x)
    with _marked():
        value = compile_closure(spec.ast, spec.params)((varying(float(s)), varying(float(x))))
    return float(value)
