"""The safeguarded refiner of ``_roots`` against independent oracles, and
its documented failures.

``refine_bracket`` takes Newton steps on the exact slope, read from the jet,
and bisects when a step leaves the bracket.  On sign-change brackets of the
divergence-line root functions, catalog and drawn from the expression
grammar, it is run beside the secant of ``tests/roots_oracle.py`` and
scipy's Chandrupatla bracketing (``scipy.optimize.elementwise.find_root``).
``solve_near``'s two phases, its Halley steps and the bracket loop it hands
over to, are pinned on small closed forms.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocurv import ConditioningWarning, DomainError, _roots, davies, eval_jet, get_entry
from thermocurv import parse_potential
from thermocurv._roots import (COLLAPSE, LOOSE, MAX_STEPS, NoBracketError,
                               ToleranceNotMetError, refine_bracket, solve_near)
from thermocurv.jets import Jet3

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


@pytest.mark.parametrize("below", [1.0, -1.0])
def test_a_pair_with_a_nan_end_is_neither_a_sign_change_nor_a_hump(below):
    # f is nan past u = 2, where the slope changes sign: the pair across 2 is
    # skipped, not taken for a sign change (below = 1) or searched for a hump
    with pytest.raises(NoBracketError):
        _roots.expand_bracket(lambda u: below if u < 2.0 else math.nan, 1.0, -math.inf,
                              math.inf, slope=lambda u: (2.0 - u, -1.0))


def counted_jets(coord, p_u, p_uu, p_uuu):
    """``jet_at(u)`` of a potential given by its first three derivatives along
    ``coord`` (``"s"`` or ``"x"``), and the list of the points it evaluates."""
    calls = []

    def jet_at(u):
        calls.append(u)
        coeffs = [0.0] * 10
        for slot, d in zip({"s": (1, 3, 6), "x": (2, 5, 9)}[coord], (p_u, p_uu, p_uuu)):
            coeffs[slot] = d(u)
        return Jet3(*coeffs)
    return jet_at, calls


# P_u = u e^-u peaks at u = 1, where it is 1/e; P_u = 0.36 there has the roots
# 0.806 and 1.223
HUMP = (lambda u: u * math.exp(-u), lambda u: (1.0 - u) * math.exp(-u),
        lambda u: (u - 2.0) * math.exp(-u))


def solve(monkeypatch, coord, derivs, target, guess, tol_f=1e-12):
    """``solve_near`` on ``(-inf, inf)`` with counted jets; returns its root,
    the points evaluated and each ``(start, a, b)`` that ``_refine`` was handed."""
    handed = []

    def refine(func, u, f, slope, a, b, fa, fb, **kwargs):
        handed.append((u, a, b))
        return bracket_loop(func, u, f, slope, a, b, fa, fb, **kwargs)

    bracket_loop = _roots._refine
    monkeypatch.setattr(_roots, "_refine", refine)
    jet_at, calls = counted_jets(coord, *derivs)
    root, jet, resid, evals = solve_near(jet_at, coord, target, guess, -math.inf, math.inf,
                                         tol_f=tol_f)
    assert evals == len(calls) == len(set(calls))
    assert resid <= tol_f and resid == abs(jet[{"s": 1, "x": 2}[coord]] - target)
    return root, calls, handed


def test_solve_near_ends_in_its_halley_steps(monkeypatch):
    # from u = 3, five Halley steps reach the root 1.223: no bracket at all
    monkeypatch.setattr(_roots, "expand_bracket", None)
    root, calls, handed = solve(monkeypatch, "s", HUMP, 0.36, 3.0)
    assert root == 1.2227701339785058 and len(calls) == 6 and not handed


def test_solve_near_hands_over_from_a_halley_crossing(monkeypatch):
    # P_u = (X - 2)^(1/5) is so steep at X = 2 that the first Halley step
    # from 2.5 lands across the root 2 + 2^-5, at 1.93, with a larger
    # residual: the bracket loop takes over from that sign change, with no
    # bracket search
    monkeypatch.setattr(_roots, "expand_bracket", None)
    fifth = (lambda u: math.copysign(abs(u - 2.0) ** 0.2, u - 2.0),
             lambda u: 0.2 * abs(u - 2.0) ** -0.8,
             lambda u: math.copysign(0.16 * abs(u - 2.0) ** -1.8, 2.0 - u))
    root, calls, handed = solve(monkeypatch, "x", fifth, 0.5, 2.5)
    assert root == 2.0312499999998956 and len(calls) == 9
    assert handed == [(2.5, 2.5, calls[1])] and calls[1] < 2.03125   # from the better end


def test_solve_near_hands_over_from_a_hump_of_the_bracket_search(monkeypatch):
    # on the flat tail the Halley step from u = 8 to 5.7 cuts the residual by
    # 5%; every sample of the search lies below 0.36, but P_uu changes sign
    # between -4.8 and 1.6: the
    # extremum u = 1, located by a bracket loop of its own, lies above it,
    # and the half nearer the guess holds the root 1.223
    humps = []

    def search(func, guess, lo, hi, *, slope):
        return expand(func, guess, lo, hi, slope=lambda u: humps.append(u) or slope(u))

    expand = _roots.expand_bracket
    monkeypatch.setattr(_roots, "expand_bracket", search)
    root, calls, handed = solve(monkeypatch, "s", HUMP, 0.36, 8.0)
    assert root == 1.222770133978507 and len(calls) == 27
    (u, a, b), = handed[1:]
    assert humps and abs(a - 1.0) < 1e-4 and a < root < b == 8.0 - 0.4 * 2 ** 4   # a sample
    assert u == a                # the better end: P_u(a) = 1/e is 0.008 from the target


@pytest.mark.parametrize("coord, derivs, guess, evals, message", [
    # P_u = u^3: each Halley step halves u and never reaches |f| = 0
    ("s", (lambda u: u ** 3, lambda u: 3.0 * u * u, lambda u: 6.0 * u), 1.0, 1 + MAX_STEPS,
     "no convergence after 200 steps at 6.223015277861142e-61, residual 2.409919865102884e-181"),
    # P_u = X^3 e^X is flat at the guess X = -3, so the Halley step stays put;
    # the search brackets the triple root 0 by 12 samples, and Newton steps
    # creep up on it from one side, the bracket's other end fixed
    ("x", (lambda u: u ** 3 * math.exp(u), lambda u: (u ** 3 + 3.0 * u * u) * math.exp(u),
           lambda u: (u ** 3 + 6.0 * u * u + 6.0 * u) * math.exp(u)), -3.0, 13 + MAX_STEPS,
     "no convergence after 200 steps at -2.6567377925950168e-36, "
     "residual -1.8751934664276783e-107"),
], ids=["halley", "bracket"])
def test_each_phase_of_solve_near_stops_after_max_steps(coord, derivs, guess, evals, message):
    jet_at, calls = counted_jets(coord, *derivs)
    with pytest.raises(ToleranceNotMetError) as info:
        solve_near(jet_at, coord, 0.0, guess, -math.inf, math.inf, tol_f=0.0)
    assert str(info.value) == message and len(calls) == len(set(calls)) == evals
