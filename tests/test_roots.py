"""The safeguarded refiner of ``_roots`` against independent oracles, and
its documented failures.

``refine_bracket`` takes Newton steps on the exact slope, read from the jet,
and bisects when a step leaves the bracket.  On sign-change brackets of the
divergence-line root functions, catalog and drawn from the expression
grammar, it is run beside the secant of ``tests/roots_oracle.py`` and
scipy's Chandrupatla bracketing (``scipy.optimize.elementwise.find_root``).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocurv import ConditioningWarning, DomainError, davies, eval_jet, get_entry
from thermocurv import parse_potential
from thermocurv._roots import (COLLAPSE, LOOSE, MAX_STEPS, ToleranceNotMetError,
                               refine_bracket)

from roots_oracle import secant_bracket
from test_codegen import EXPRESSIONS, PARAMS

elementwise = pytest.importorskip("scipy.optimize.elementwise")

SYNTH = parse_potential("S^2/2 + X^2/2 + S*X^2/2", name="synthetic")

CATALOG = st.one_of(
    st.tuples(st.just(get_entry("reissner-nordstrom").spec), st.just("cx"),
              st.floats(0.3, 1.6), st.just((0.1, 10.0))),
    st.tuples(st.just(get_entry("kerr").spec), st.just("cx"),
              st.floats(0.1, 1.0), st.just((0.1, 10.0))),
    st.tuples(st.just(SYNTH), st.just("cy"), st.floats(0.2, 2.0), st.just((-3.0, 3.0))))


@st.composite
def grammar_slices(draw):
    """A drawn term added to a potential whose ``M_SS`` has roots at
    ``S = +-1/sqrt(3)``, on either line, at a fixed X."""
    src = "(S^2 - 1)^2/4 + (1 + S^2)*X^2/2 + " + draw(EXPRESSIONS)
    try:
        spec = parse_potential(src, params={"k": draw(PARAMS)})
    except ValueError:          # a constant part fails at every point
        spec = SYNTH
    return (spec, draw(st.sampled_from(["cx", "cy"])),
            draw(st.sampled_from([0.5, -0.5, 0.25, 1.5])),
            draw(st.sampled_from([(-1.5, 1.5), (0.1, 0.9), (0.3, 5.0), (-0.6, 0.4)])))


def root_function(spec, which, fixed):
    """``u -> (f, slope)`` of the line's root function along S at X = ``fixed``."""
    f_of, slope_of = davies._root_function(which, 0)

    def func(u):
        jet = eval_jet(spec, (u, fixed))
        return f_of(jet), slope_of(jet)
    return func


def value_or_nan(func, u):
    try:
        return func(u)[0]
    except (DomainError, ArithmeticError):
        return math.nan


def brackets(func, lo, hi, count=50):
    """The sign changes between neighbouring samples of the sweep, as a
    ``find_davies_points`` sweep finds them."""
    u = np.linspace(lo, hi, count).tolist()
    f = [value_or_nan(func, v) for v in u]
    return [(u[k], u[k + 1], f[k], f[k + 1]) for k in range(count - 1)
            if math.isfinite(f[k]) and math.isfinite(f[k + 1]) and f[k] != 0.0
            and (f[k] > 0.0) != (f[k + 1] > 0.0)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(CATALOG, grammar_slices()))
def test_newton_refiner_agrees_with_the_secant_and_chandrupatla(case):
    # on every bracket that holds a root, both refiners reach |f| <= tol_f and
    # land within tol_f / |f'| (plus the collapse width) of Chandrupatla's root
    spec, which, fixed, (lo, hi) = case
    func = root_function(spec, which, fixed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        for a, b, fa, fb in brackets(func, lo, hi):
            tol_f = 1e-12 * max(1.0, abs(fa), abs(fb))
            ref = elementwise.find_root(np.vectorize(lambda u: value_or_nan(func, u)), (a, b))
            x_ref = float(ref.x)
            if not (ref.success and abs(value_or_nan(func, x_ref)) <= tol_f):
                continue            # a pole, or a gap: no root to agree on
            width = tol_f / abs(func(x_ref)[1]) + COLLAPSE * max(1.0, abs(x_ref))
            for name, refine in (("newton", lambda: refine_bracket(func, a, b, fa, fb,
                                                                   tol_f=tol_f)),
                                 ("secant", lambda: secant_bracket(lambda u: func(u)[0],
                                                                   a, b, fa, fb, tol_f=tol_f))):
                root, resid, _ = refine()
                assert resid <= tol_f and abs(value_or_nan(func, root)) == resid, name
                assert abs(root - x_ref) <= width, (name, root, x_ref, width)


def bisected(u):
    """``u^2 - 2`` with a zero slope, so that every step bisects."""
    return u * u - 2.0, 0.0


def test_a_collapsed_bracket_returns_a_loose_residual():
    # 43 bisections of (1, 2) collapse it to 1.1e-13, where |f| = 2.9e-13:
    # within LOOSE * tol_f that is a root, above it a failure
    root, resid, iterations = refine_bracket(bisected, 1.0, 2.0, -1.0, 2.0, tol_f=1e-15)
    assert 1e-15 < resid <= LOOSE * 1e-15 and iterations == 43
    assert abs(root - math.sqrt(2.0)) <= COLLAPSE * root
    with pytest.raises(ToleranceNotMetError, match="bracket collapsed after 43 steps"):
        refine_bracket(bisected, 1.0, 2.0, -1.0, 2.0, tol_f=1e-16)


def test_the_refiner_stops_after_max_steps():
    # with no collapse width the bracket stops at two neighbouring floats,
    # which no step leaves: the refiner gives up after MAX_STEPS evaluations
    calls = []

    def counted(u):
        calls.append(u)
        return bisected(u)

    with pytest.raises(ToleranceNotMetError, match=f"no convergence after {MAX_STEPS} steps"):
        refine_bracket(counted, 1.0, 2.0, -1.0, 2.0, tol_f=0.0, tol_x=0.0)
    assert len(calls) == MAX_STEPS


def test_a_pole_is_not_refined_into():
    # 1/(u - 2) changes sign through its pole, and every Newton step leaves
    # the bracket: the refinement fails at the first residual above LOOSE
    # times both ends', 12 bisections in, not at a collapse 40 further on
    calls = []

    def pole(u):
        calls.append(u)
        return 1.0 / (u - 2.0), -1.0 / (u - 2.0) ** 2

    with pytest.raises(ToleranceNotMetError, match="grew past 20000.0"):
        refine_bracket(pole, 1.7, 2.05, 1.0 / (1.7 - 2.0), 1.0 / 0.05, tol_f=1e-12)
    assert len(calls) == 12 and min(abs(u - 2.0) for u in calls) > 1e-5
