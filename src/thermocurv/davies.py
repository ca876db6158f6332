"""Divergence-line location, curvature divergence orders, and
turning-point (conjugacy) scans.

A line where the constant-X heat capacity blows up is the zero set of M_SS;
the constant-Y analogue is the zero set of the Hessian determinant.  Both
are located by bracketing sign changes along one-dimensional sweeps, each
evaluated to second order in one batched pass, and refined by safeguarded
Newton steps on full jets.

How each curvature behaves at a located point is read from the jet there:
each is N / (2 D^2), and the matching curvature's D holds the line's root
function f, so it diverges as f^-2 unless its numerator N vanishes, while
the other one stays finite unless the two lines cross.  Nothing is sampled
along an approach to the line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._roots import (NoBracketError, ToleranceNotMetError, crosses, refine_bracket,
                     solve_lanes, solve_near)
from .catalog import GridAxis
from .geometry import (DEFAULT_SINGULARITY_EPS, StatePoint, _f_jet_from_m_jet,
                       curvature_from_m_jet, curvature_numerators, hessian_scale)
from .jets import DomainError, Jet3
from .potentials import PotentialSpec, eval_jet, eval_jets

__all__ = [
    "DaviesLocus", "BracketInfo", "Divergence", "ConjugacyScan",
    "find_davies_points", "divergence_orders", "conjugacy_scan",
]

_ROOT_KINDS = ("cx", "cy")


@dataclass(frozen=True)
class BracketInfo:
    lo: float
    hi: float
    f_lo: float
    f_hi: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class DaviesLocus:
    """Roots of a divergence function along one sweep slice.

    ``rejected`` lists sign changes that were dropped because the
    temperature vanishes there (extremal boundary rather than a divergence
    of a heat capacity at positive temperature), because they are poles,
    or because the jet cannot be evaluated inside their bracket.
    ``jets`` holds the full jet at each of ``points``.
    """

    which: str                       # "cx" | "cy"
    points: tuple[StatePoint, ...]
    brackets: tuple[BracketInfo, ...]
    rejected: tuple[StatePoint, ...] = ()
    jets: tuple[Jet3, ...] = field(default=(), repr=False, compare=False)
    _turning: Callable[[], tuple[float, ...]] = field(default=tuple, repr=False, compare=False)

    @functools.cached_property
    def turning_points(self) -> tuple[float, ...]:
        """The sweep values where the slice's equilibrium series turns
        (:func:`conjugacy_scan`), built when first read: on a sweep of S, the
        fixed-X series's ("cx") or the fixed-Y series's through each point in
        turn ("cy"); none on a sweep of X."""
        return self._turning()


class Divergence(NamedTuple):
    """How one curvature scalar behaves at a point of a divergence line.

    ``kind`` is "divergent" (R ~ ``coefficient`` * f^``order`` along any
    approach, with f the line's root function), "finite" (R tends to
    ``value``) or "undetermined" (the jet at the point cannot tell).  A field
    that does not apply to the kind is None.
    """

    kind: str
    order: float | None = None
    coefficient: float | None = None
    value: float | None = None


@dataclass(frozen=True)
class ConjugacyScan:
    """(control, conjugate) samples along an equilibrium series plus the
    sweep-parameter values where the control variable turns around."""

    series: tuple[tuple[float, float], ...]
    turning_points: tuple[float, ...]
    which: str
    fixed_value: float


def _root_function(which: str, along: int = 0):
    """The denominator scale of the constant-X ("cx": M_SS) or constant-Y ("cy": det H)
    heat capacity and its derivative along ``along`` (0: S, 1: X), as jet functions."""
    i, j, k = (6, 7, 8) if along == 0 else (7, 8, 9)   # Jet3 slots of d(ss, sx, xx)
    if which == "cx":
        return (lambda jet: jet.ss), (lambda jet: jet[i])
    if which == "cy":
        return (lambda jet: jet.ss * jet.xx - jet.sx * jet.sx,
                lambda jet: jet[i] * jet.xx + jet.ss * jet[k] - 2.0 * jet.sx * jet[j])
    raise ValueError(f"which must be one of {_ROOT_KINDS}, got {which!r}")


def _grid(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if count < 2:
        raise ValueError("sweep needs at least 2 samples")
    return GridAxis(lo, hi, count, spacing).values()


def _refine(func, a: float, b: float, fa: float, fb: float):
    """``(point, residual, iterations, is_root)`` for the sign change of
    ``func(u) = (f, slope)`` in ``(a, b)``, refined until |f| <= 1e-12 *
    max(1, |fa|, |fb|).  A failed refinement (point: the bracket midpoint), or
    one that ends on a residual above tolerance and no smaller than at both
    ends, found a pole (or a gap), not a root."""
    try:
        root, resid, iters = refine_bracket(func, a, b, fa, fb,
                                            tol_f=1e-12 * max(1.0, abs(fa), abs(fb)))
    except (ToleranceNotMetError, DomainError, OverflowError, ZeroDivisionError):
        return 0.5 * (a + b), math.inf, 0, False
    end = min(abs(fa), abs(fb))
    return root, resid, iters, resid < end or resid <= 1e-12 * max(1.0, end)


def find_davies_points(
    spec: PotentialSpec,
    which: str,
    *,
    fixed: str,
    fixed_value: float,
    sweep: tuple[float, float],
    count: int = 200,
    spacing: str = "linear",
) -> DaviesLocus:
    """Locate divergence-line crossings along one sweep slice.

    One coordinate (named by ``fixed``) is held at ``fixed_value`` while the
    other runs over ``sweep``; every sign change of the root function is
    refined until |f| <= 1e-12 * scale.  Samples outside the domain are
    skipped; poles and sign changes whose refinement leaves the domain go to
    ``rejected``.  An empty locus is a normal outcome, not an error.
    """
    if fixed not in spec.coords:
        raise ValueError(f"{fixed!r} is not a coordinate of {spec.name!r}")
    fixed_idx = spec.coords.index(fixed)
    root_fn, slope_fn = _root_function(which, 1 - fixed_idx)

    def to_point(u):
        return StatePoint(*((fixed_value, u) if fixed_idx == 0 else (u, fixed_value)))

    jet_at = functools.cache(lambda u: eval_jet(spec, to_point(u)))   # a root keeps its jet
    grid = _grid(*sweep, count, spacing)
    sweep_jet = eval_jets(spec, *to_point(grid), order=2)[0]   # M_SS, det H: second order
    with np.errstate(all="ignore"):         # an overflow is a non-finite sample
        f = root_fn(sweep_jet)
    changes = crosses(f[:-1], f[1:])        # each sample and the next
    u, f = grid.tolist(), f.tolist()

    points, brackets, rejected, jets = [], [], [], []
    for k in np.flatnonzero(changes).tolist():
        u0, u1, f0, f1 = u[k], u[k + 1], f[k], f[k + 1]
        root, resid, iters, is_root = _refine(
            lambda u: (root_fn(jet_at(u)), slope_fn(jet_at(u))), u0, u1, f0, f1)
        pt = to_point(root)
        jet = jet_at(root) if is_root else None
        if jet is None or jet.s <= 1e-10 * max(1.0, abs(root)):
            rejected.append(pt)
            continue
        points.append(pt)
        brackets.append(BracketInfo(u0, u1, f0, f1, resid, iters))
        jets.append(jet)

    def turning():   # on a sweep of S; a sweep of X has none
        if which == "cx":
            return _series(spec, "fixed-x", fixed_value, fixed_value, grid, sweep_jet, jet_at)[1]
        return sum((_series(spec, "fixed-y", jet.x, fixed_value, grid, sweep_jet, jet_at)[1]
                    for jet in jets), ())

    return DaviesLocus(which=which, points=tuple(points), brackets=tuple(brackets),
                       rejected=tuple(rejected), jets=tuple(jets),
                       _turning=turning if fixed_idx == 1 else tuple)


def divergence_orders(jet: Jet3, which_line: str) -> tuple[Divergence, Divergence]:
    """How ``(R^M, R^F)`` behave at a point of a ``which_line`` line, read from
    the potential's jet ``jet`` there.

    R^M = N_M / (2 det H^2) and R^F = N_F / (2 M_SS^2 M_XX^2)
    (:func:`curvature_numerators`).  The matching curvature, R^F on a "cx" line
    (f = M_SS) and R^M on a "cy" line (f = det H), is N / (2 f^2 factor) with
    factor M_XX^2 or 1, so it is "divergent" with order -2 and coefficient
    N / (2 factor) when |N| is above rounding, 1e-12 of the sum of its terms'
    magnitudes; at rounding (or with M_XX ~ 0 on a "cx" line) it is
    "undetermined", since the 3-jet cannot tell N = 0 on a neighbourhood from
    N = 0 at the point.  The other curvature is "finite" with its value at the
    point, 0.0 with its N at rounding, and "undetermined" where its own
    denominator vanishes too (the two lines cross).
    """
    _root_function(which_line)      # rejects an unknown line
    curv = curvature_from_m_jet(jet)
    (num_m, scale_m), (num_f, scale_f) = curvature_numerators(jet)

    def diverging(num, scale, factor):
        if abs(num) > 1e-12 * scale:                    # never for nan
            return Divergence("divergent", order=-2.0, coefficient=num / (2.0 * factor))
        return Divergence("undetermined")

    def finite(num, scale, token, value):
        if token in curv.flags or math.isnan(num):
            return Divergence("undetermined")
        return Divergence("finite", value=0.0 if abs(num) <= 1e-12 * scale else value)

    if which_line == "cy":
        return diverging(num_m, scale_m, 1.0), finite(num_f, scale_f, "div:RF", curv.r_f)
    rf = (diverging(num_f, scale_f, jet.xx * jet.xx)
          if abs(jet.xx) >= DEFAULT_SINGULARITY_EPS * hessian_scale(jet)
          else Divergence("undetermined"))
    return finite(num_m, scale_m, "div:RM", curv.r_m), rf


def conjugacy_scan(
    spec: PotentialSpec,
    series: str,
    *,
    fixed_value: float,
    sweep: tuple[float, float],
    count: int = 200,
    spacing: str = "linear",
    x_guess: float = 1.0,
) -> ConjugacyScan:
    """Sample a one-parameter equilibrium series and flag turning points.

    ``series`` selects the family: ``"fixed-x"`` holds the control parameter
    and sweeps the entropy, sampling (T, S); ``"fixed-y"`` holds the
    conjugate variable Y instead, solving X at every entropy sample by
    Newton steps from ``x_guess`` first, so a sample solves even where the
    outward bracket search would step over a pair of roots; one that cannot
    be solved is a (nan, S) gap.  A turning point is a sweep value where the
    control variable's derivative changes sign (a vertical tangent of the
    conjugacy diagram); detection uses a central difference over the grid,
    never across a gap, and refinement drives that derivative, read from the
    jet with its own slope, to zero.  Poles are skipped.
    """
    s_grid = _grid(*sweep, count, spacing)
    if series not in ("fixed-x", "fixed-y"):
        raise ValueError(f"series must be 'fixed-x' or 'fixed-y', got {series!r}")
    held_x = float(fixed_value if series == "fixed-x" else x_guess)
    tvals, turning = _series(spec, series, fixed_value, held_x, s_grid,
                             eval_jets(spec, s_grid, held_x, order=2)[0],
                             lambda s: eval_jet(spec, StatePoint(s, held_x)))
    return ConjugacyScan(series=tuple(zip(tvals.tolist(), s_grid.tolist())),
                         turning_points=turning, which=series, fixed_value=fixed_value)


def _series(spec, series, fixed_value, held_x, s_grid, sweep_jet, jet_at):
    """``(T samples, turning points)`` of :func:`conjugacy_scan`'s series, read
    from ``sweep_jet``, the second-order jets over ``s_grid`` at X = ``held_x``
    (fixed-Y: the guess, so they are the X solve's first step), and from
    ``jet_at(s)``, the full jet at (s, ``held_x``)."""
    if series == "fixed-x":
        tvals, dvals = sweep_jet.s, sweep_jet.ss      # T and dT/dS at fixed X

        def deriv(s: float, k: int):
            jet = jet_at(s)
            return jet.ss, jet.sss
    else:
        x_lo, x_hi = spec.domain[1]
        tol_f = 1e-13 * max(1.0, abs(fixed_value))

        def along_y(x, jet):   # dT/dS at fixed Y and its slope: G_SS, G_SSS of G = M - Y X
            swapped = Jet3(*(jet[i] for i in (0, 2, 1, 5, 4, 3, 9, 8, 7, 6)))   # in (Y, S)
            return _f_jet_from_m_jet(swapped, x, fixed_value)[5::4]             # xx, xxx

        first = [sweep_jet]    # every lane at the guess
        def lanes(idx, x):   # T, dT/dS along constant Y (along_y's G_SS, bit for bit), X
            jet = first.pop() if first else eval_jets(spec, s_grid[idx], x, order=2)[0]
            with np.errstate(all="ignore"):
                g_ss = jet.ss + jet.sx * (-jet.sx / jet.xx)
                return jet.x - fixed_value, jet.xx, np.stack([jet.s, g_ss, x])

        tvals, dvals, xvals = solve_lanes(lanes, s_grid.size, held_x, x_lo, x_hi,
                                          tol_f=tol_f)[1]

        def deriv(s: float, k: int):   # X solved from sample k's root
            try:
                return along_y(*solve_near(lambda x: eval_jet(spec, (s, x)), "x", fixed_value,
                                           float(xvals[k]), x_lo, x_hi, tol_f=tol_f)[:2])
            except (NoBracketError, ToleranceNotMetError, DomainError, ArithmeticError):
                return math.nan, math.nan

    with np.errstate(all="ignore"):
        cd = (tvals[2:] - tvals[:-2]) / (s_grid[2:] - s_grid[:-2])
    changes = crosses(cd[:-1], cd[1:])
    svals, dvals = s_grid.tolist(), dvals.tolist()
    turning = []
    for k in np.flatnonzero(changes).tolist():
        for i, j in ((k + 1, k + 2), (k, min(k + 3, len(svals) - 1))):
            if crosses(fa := dvals[i], fb := dvals[j]):
                break
        else:
            continue  # central-difference aliasing, no exact sign change
        root, _, _, is_root = _refine(lambda s: deriv(s, i), svals[i], svals[j], fa, fb)
        if is_root:
            turning.append(root)
    return tvals, tuple(turning)
