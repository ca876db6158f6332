"""The generated straight-line evaluators against the closure-tree oracle.

Every drawn potential is evaluated at float points and as one batch of
arrays, by the generated code and by ``Jet3`` operator overloading through
the closure tree (``closure_oracle``), which folds zero constants as the
generated code does.  The ten coefficients must agree bit for bit (signed
zeros and nan positions included), and so must the failure of every point,
the ``DomainError.func`` of a float failure and the number of
``ConditioningWarning`` messages.
"""

import dis
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closure_oracle import closure_jet, oracle_jet, oracle_jet_at, oracle_scalar
from thermocurv import eval_jet, eval_scalar, get_entry, parse_potential
from thermocurv.cli import main
from thermocurv.jets import OVERFLOW, ConditioningWarning, DomainError, Jet3, batch
from thermocurv.potentials import _GENERATED, _check_domain, _Parser, _source, _tokenize

WHOLE_PLANE = {"S": (None, None), "X": (None, None)}
FAILURES = (DomainError, OverflowError, ZeroDivisionError)

LEAVES = st.sampled_from(["S", "X", "k", "0", "1", "2", "3", "0.5", "1e-13", "1e200"])
EXPONENTS = st.sampled_from(["2", "3", "0", "-1", "-2", "0.5", "1.5", "-0.5", "X",
                             "(S - X)", "(1/3)", "(k + 1)"])


def _extend(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    power = st.tuples(children, st.one_of(EXPONENTS, children)).map(
        lambda t: f"({t[0]})^{t[1]}")
    unary = st.tuples(st.sampled_from(["sqrt", "exp", "ln", "-"]), children).map(
        lambda t: f"{t[0]}({t[1]})")
    return st.one_of(binary, power, unary)


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=7)
PARAMS = st.sampled_from([2.0, -0.0, 0.5, -1.5, 1e-13])
COORDINATES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 5e-324, 2.2e-313, 1e-160,
                     1e160, 710.0, -710.0, math.nan, math.inf]))
POINTS = st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=6)


# a term the fold drops: ``t * 0.0``, ``0.0 * t``, ``t + 0.0``, ``0.0 + t``
# or ``t - 0.0``, for a zero of either sign (``0.0 - t`` stays)
ZERO_TERM = re.compile(r"[-+*] -?0\.0(?![\d.e])|(?<![\w.])-?0\.0 [+*] ")


def outcome(evaluate, *args):
    """(bits of the ten coefficients, or the failure and its DomainError
    func) and the number of ConditioningWarning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = evaluate(*args)
            result = [c.hex() for c in (result if isinstance(result, Jet3) else [result])]
        except FAILURES as exc:
            result = (type(exc).__name__, getattr(exc, "func", None))
    return result, sum(issubclass(w.category, ConditioningWarning) for w in caught)


def batch_outcome(evaluate, spec, s, x):
    """Raw coefficient bits, failure codes and ill-conditioned marks of one
    batch, and its ConditioningWarning count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jet = None
        with batch(len(s)) as failures:
            jet = evaluate(*_check_domain(spec, s, x))
    bits = None if jet is None else [
        [float(v).hex() for v in np.broadcast_to(c, len(s))] for c in jet]
    return (bits, failures.code.tolist(), failures.ill_conditioned.tolist(),
            sum(issubclass(w.category, ConditioningWarning) for w in caught))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(EXPRESSIONS, PARAMS, POINTS)
# signed zeros: the structural zero of the M_S term (S*k)*X drops out of the
# sum, so M_S at (1.0, 0.0) is -0.0, the sign of -(X*S)'s partial x
# (Jet3 arithmetic on floats adds a +0.0 there and gives +0.0)
@example("-(X*S) + (S*k)*X", -0.0, [(1.0, 0.0), (-0.0, -1.0), (-1.0, 0.0)])
# an infinite intermediate: at (1e160, 1.0) S*S is inf, and the partial of
# (S*S)*X keeps its finite 2e160 where inf * 0.0 made it nan, so cubing it
# in the reciprocal's chain rule raises OverflowError on the scalar path
# (Jet3 arithmetic on floats gives a jet of nan partials there)
@example("1/((S*S)*X) + X", 2.0, [(1e160, 1.0), (1e160, -0.0), (2.0, 1e-300)])
# the partial -0.0 of -X drops out of a difference: M_S at S = -0.0 is -0.0
@example("S*S - -X", 2.0, [(-0.0, 1.0), (1.0, -0.0)])
# a constant divisor below the conditioning floor warns at every point
@example("S/1e-13 + X/(k*k)", 1e-13, [(1.0, 2.0), (0.0, 1.0)])
# an overflowed intermediate: scalar OverflowError and batch OVERFLOW at
# (1e110, 1.0), a jet at (2.0, 1.0)
@example("sqrt(S^3*X)", 2.0, [(1e110, 1.0), (2.0, 1.0)])
# a helper call nothing reads still fails the full jet where its third
# derivative does: 0.375/(r S^2) divides by zero at S = 1e-160, -6/S^4
# overflows at S = 1e-80
@example("0*sqrt(S) + X", 2.0, [(1e-160, 1.0), (2.0, 1.0)])
@example("0*(1/S) + X", 2.0, [(1e-80, 1.0), (2.0, 1.0)])
def test_generated_code_matches_the_closure_tree(src, k, points):
    try:
        spec = parse_potential(src, ("S", "X"), {"k": k}, domain=WHOLE_PLANE)
    except ValueError as exc:
        # rejected on load: some coordinate-free computation fails, so the
        # closure tree fails at every point
        assert "fails at every point" in str(exc)
        ast = _Parser(_tokenize(src), ("S", "X"), {"k": k}).parse()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            for s, x in ((1.5, 0.5), (-2.0, 3.0)):
                with pytest.raises(FAILURES):
                    closure_jet(ast, {"k": k}, s, x)
        return
    for order in (3, 2, 0):     # no zero constant is left to fold
        assert not ZERO_TERM.search(_source(spec.ast, spec.params, order)), src
    for point in points:
        assert outcome(eval_jet, spec, point) == outcome(oracle_jet, spec, point), \
            (src, k, point)
        assert outcome(eval_scalar, spec, point) == outcome(oracle_scalar, spec, point), \
            (src, k, point)
    s = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    assert batch_outcome(spec.evaluate, spec, s, x) == batch_outcome(
        lambda a, b: oracle_jet_at(spec, a, b), spec, s, x), (src, k, points)


def test_an_overflowed_intermediate_fails_its_point_in_both_paths():
    spec = parse_potential("sqrt(S^3*X)", domain=WHOLE_PLANE)
    with pytest.raises(OverflowError):
        eval_jet(spec, (1e110, 1.0))
    s, x = np.array([1e110, 2.0]), np.array([1.0, 1.0])
    with batch(2) as failures:
        spec.evaluate(s, x)
    assert failures.code.tolist() == [OVERFLOW, 0]


@pytest.mark.parametrize("name, most", [("reissner-nordstrom", 60), ("kerr", 70),
                                        ("quadratic-toy", 12)])
def test_catalog_jet_code_holds_few_binary_operations(name, most):
    # 48, 59 and 9 with structural zeros folded; keeping every term of the
    # jet rules makes 231, 152 and 104, so a fold that stops working fails
    code = get_entry(name).spec.evaluate
    ops = [i for i in dis.get_instructions(code) if i.opname.startswith("BINARY_")]
    assert len(ops) <= most


@pytest.mark.parametrize("src, want", [("S^(X^0)", "ln"), ("S^(X - X)", "ln"), ("S^2", 1.0)])
def test_an_exponent_with_a_coordinate_needs_a_positive_base(src, want):
    # X^0 and X - X are 1 and 0 at every point, but a coordinate occurs in
    # them, so the power is exp(w ln S); the oracle decides that by itself
    spec = parse_potential(src, domain=WHOLE_PLANE)
    for evaluate in (eval_jet, eval_scalar, oracle_jet, oracle_scalar):
        if want == "ln":
            with pytest.raises(DomainError) as info:
                evaluate(spec, (-1.0, 0.5))
            assert info.value.func == "ln"
        else:
            result = evaluate(spec, (-1.0, 0.5))
            assert (result.v if isinstance(result, Jet3) else result) == want


@pytest.mark.parametrize("name", ["reissner-nordstrom", "kerr", "quadratic-toy"])
def test_catalog_jets_match_the_closure_tree(name):
    spec = get_entry(name).spec
    rng = np.random.default_rng(7)
    s, x = rng.uniform(0.2, 12.0, 500), rng.uniform(-1.5, 1.5, 500)
    assert batch_outcome(spec.evaluate, spec, s, x) == batch_outcome(
        lambda a, b: oracle_jet_at(spec, a, b), spec, s, x)


def test_generated_code_is_built_once_per_distinct_potential():
    first = parse_potential("sqrt(S)/2 * (1 + Q^2/S)", ("S", "Q"))
    again = get_entry("reissner-nordstrom").spec
    assert first is not again and first.evaluate is again.evaluate
    other = parse_potential("S^2 * k + X", params={"k": 2.0})
    assert other.evaluate is not parse_potential("S^2 * k + X", params={"k": 3.0}).evaluate
    # -0.0 == 0.0, but the constant baked into the code differs
    neg = parse_potential("k * S + X", params={"k": -0.0})
    assert neg.evaluate is not parse_potential("k * S + X", params={"k": 0.0}).evaluate
    for k in range(300):   # the cache keeps the most recently used ones
        parse_potential("S * k + X", params={"k": float(k)})
    assert len(_GENERATED) <= 256
    assert parse_potential("S * k + X", params={"k": 299.0}).evaluate is parse_potential(
        "S * k + X", params={"k": 299.0}).evaluate


@pytest.mark.parametrize("src, named", [
    ("S^(1/0) + X", "'1.0 / 0.0'"),
    ("S + X*ln(0)", "'ln(0.0)'"),
    ("exp(1000) * S + X", "'exp(1000.0)'"),
    ("S/0 + X", "'S / 0.0'"),
])
def test_failing_constant_sub_expression_is_rejected_on_load(src, named, tmp_path, capsys):
    with pytest.raises(ValueError, match="fails at every point") as info:
        parse_potential(src)
    assert named in str(info.value)
    doc = tmp_path / "p.json"
    doc.write_text('{"name": "p", "coords": ["S", "X"], "expression": "%s"}' % src)
    for argv in (["eval", "--at", "S=1,X=1"], ["scan", "--grid", "S=1:2:3", "--grid", "X=1:2:3"],
                 ["davies", "--fix", "X=1", "--sweep", "S=1:2"],
                 ["check", "--grid", "S=1:2:3", "--grid", "X=1:2:3"]):
        assert main([*argv, "--potential-file", str(doc)]) == 2
        assert named in capsys.readouterr().err
