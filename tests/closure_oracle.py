"""The closure-tree evaluator: the oracle of the generated code.

Each AST node becomes a closure over its operands' closures, and jets go
through :class:`~thermocurv.jets.Jet3` operator overloading, one object per
operation.  The generated evaluators must reproduce it bit for bit.
"""

from __future__ import annotations

from thermocurv import jets
from thermocurv.jets import Jet3, jet_const, jet_var
from thermocurv.potentials import (_BINARY, Call, Const, Coord, Neg, Param,
                                   _check_domain, _has_coord)


def compile_closure(node, params):
    """Turn an AST into a function of the coordinate pair (floats, jets or
    arrays); operands are evaluated left to right."""
    if isinstance(node, (Const, Param)):
        value = node.value if isinstance(node, Const) else params[node.name]
        return lambda coords: value
    if isinstance(node, Coord):
        index = node.index
        return lambda coords: coords[index]
    if isinstance(node, Neg):
        operand = compile_closure(node.operand, params)
        return lambda coords: -operand(coords)
    if isinstance(node, Call):
        arg, func = compile_closure(node.arg, params), getattr(jets, node.func)
        return lambda coords: func(arg(coords))
    left, right = compile_closure(node.left, params), compile_closure(node.right, params)
    if node.op == "^" and _has_coord(node.right):
        # structurally non-constant exponent: u^w = exp(w ln u)
        def general_power(coords):
            base = left(coords)
            return jets.exp(right(coords) * jets.ln(base))
        return general_power
    op = jets.power if node.op == "^" else _BINARY[node.op]
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
