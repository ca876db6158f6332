"""The closure-tree evaluator: the oracle of the generated code.

Each step of a potential's postfix program becomes a closure over its
operands' closures, and jets go through :class:`~thermocurv.jets.Jet3`
operator overloading, one object per operation.  The generated evaluators
must reproduce it bit for bit.
"""

from __future__ import annotations

from thermocurv import jets
from thermocurv.jets import Jet3, jet_const, jet_var
from thermocurv.potentials import _BINARY, _check_domain

_ARITY = {"num": 0, "coord": 0, "param": 0, "neg": 1, "call": 1}   # else 2


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


def oracle_jet_at(spec, s, x):
    """The jet at coordinates that passed the domain check."""
    result = compile_closure(spec.ast, spec.params)((jet_var(0, s), jet_var(1, x)))
    return result if isinstance(result, Jet3) else jet_const(result)


def oracle_jet(spec, point) -> Jet3:
    """What ``eval_jet(spec, point)`` returned through the closure tree."""
    return oracle_jet_at(spec, *_check_domain(spec, *point))


def oracle_scalar(spec, point) -> float:
    """What ``eval_scalar(spec, point)`` returned through the closure tree."""
    s, x = point
    _check_domain(spec, s, x)
    return float(compile_closure(spec.ast, spec.params)((float(s), float(x))))
