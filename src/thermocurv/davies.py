"""Divergence-line location, curvature divergence exponents, and
turning-point (conjugacy) scans.

A line where the constant-X heat capacity blows up is the zero set of M_SS;
the constant-Y analogue is the zero set of the Hessian determinant.  Both
are located by bracketing sign changes along one-dimensional sweeps, each
evaluated in one batched pass, and refining with a secant/bisection hybrid.

Divergence rates are estimated from observables only: curvature values are
sampled along a straight approach to the line with geometrically shrinking
displacement, and the slope of log|R| against log|f| is fitted by least
squares, where f is the root function's own value along the approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._roots import (NoBracketError, ToleranceNotMetError, refine_bracket,
                     solve_lanes, solve_near)
from .catalog import GridAxis
from .geometry import StatePoint, curvature_from_m_jet
from .jets import DomainError, Jet3
from .potentials import PotentialSpec, eval_jet, eval_jets

__all__ = [
    "DaviesLocus", "BracketInfo", "ExponentFit", "ConjugacyScan",
    "find_davies_points", "fit_divergence_exponents", "fit_divergence_exponent",
    "conjugacy_scan",
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
    ``sweep_jet`` holds the jets at the sweep samples (nan where a sample
    failed), which a turning-point scan of the same slice can reuse.
    """

    which: str                       # "cx" | "cy"
    points: tuple[StatePoint, ...]
    brackets: tuple[BracketInfo, ...]
    rejected: tuple[StatePoint, ...] = ()
    sweep_jet: Jet3 | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ExponentFit:
    """Log-log divergence fit along an approach to a divergence line.

    ``kind`` is "divergent" when |R| grows strongly toward the line (the
    slope/intercept then describe |R| ~ 10^intercept * f^slope) and "finite"
    otherwise, in which case ``limit`` extrapolates R to f -> 0.  An |R| under
    1e-9 of the other curvature is not fitted: slope, intercept, r_squared nan.
    """

    kind: str
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, ...]        # |f| per sample, outermost first
    values: tuple[float, ...]        # curvature per sample
    limit: float | None = None


@dataclass(frozen=True)
class ConjugacyScan:
    """(control, conjugate) samples along an equilibrium series plus the
    sweep-parameter values where the control variable turns around."""

    series: tuple[tuple[float, float], ...]
    turning_points: tuple[float, ...]
    which: str
    fixed_value: float


def _root_function(which: str):
    """The denominator scale of the constant-X ("cx": M_SS) or constant-Y
    ("cy": the Hessian determinant) heat capacity, as a function of a jet."""
    if which == "cx":
        return lambda jet: jet.ss
    if which == "cy":
        return lambda jet: jet.ss * jet.xx - jet.sx * jet.sx
    raise ValueError(f"which must be one of {_ROOT_KINDS}, got {which!r}")


def _grid(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if count < 2:
        raise ValueError("sweep needs at least 2 samples")
    return GridAxis(lo, hi, count, spacing).values()


def _refine(func, a: float, b: float, fa: float, fb: float):
    """``(point, residual, iterations, is_root)`` for the sign change of
    ``func`` in ``(a, b)``, refined until |f| <= 1e-12 * max(1, |fa|, |fb|).
    A failed refinement (point: the bracket midpoint), or one that ends on a
    residual above tolerance and no smaller than at both ends, found a pole
    (or a gap), not a root."""
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
    root_fn = _root_function(which)
    if fixed not in spec.coords:
        raise ValueError(f"{fixed!r} is not a coordinate of {spec.name!r}")
    fixed_idx = spec.coords.index(fixed)

    def to_point(u):
        return StatePoint(*((fixed_value, u) if fixed_idx == 0 else (u, fixed_value)))

    def g(u: float) -> float:
        return root_fn(eval_jet(spec, to_point(u)))

    grid = _grid(*sweep, count, spacing)
    sweep_jet = eval_jets(spec, *to_point(grid))[0]
    with np.errstate(all="ignore"):         # an overflow is a non-finite sample
        f = root_fn(sweep_jet)
    a, b = f[:-1], f[1:]                    # each sample and the next
    changes = np.isfinite(a) & np.isfinite(b) & (a != 0.0) & ((a > 0.0) != (b > 0.0))
    u, f = grid.tolist(), f.tolist()

    points, brackets, rejected = [], [], []
    for k in np.flatnonzero(changes).tolist():
        u0, u1, f0, f1 = u[k], u[k + 1], f[k], f[k + 1]
        root, resid, iters, is_root = _refine(g, u0, u1, f0, f1)
        pt = to_point(root)
        if not is_root or eval_jet(spec, pt).s <= 1e-10 * max(1.0, abs(root)):
            rejected.append(pt)
            continue
        points.append(pt)
        brackets.append(BracketInfo(u0, u1, f0, f1, resid, iters))
    return DaviesLocus(which=which, points=tuple(points), brackets=tuple(brackets),
                       rejected=tuple(rejected), sweep_jet=sweep_jet)


def _approach(spec, point, which_line, ds, dx):
    """(|f|, R^M, R^F) along an approach, without samples where f = 0."""
    t = 0.05 * 0.5 ** np.arange(11)
    jet, failed = eval_jets(spec, point.s + t * ds, point.x + t * dx)
    if failed.any():
        raise DomainError("domain", point, "the approach leaves the domain")
    f_val = abs(_root_function(which_line)(jet))
    curv = curvature_from_m_jet(jet)
    usable = f_val != 0.0   # measure-zero landing exactly on the line
    return tuple(v[usable].tolist() for v in (f_val, curv.r_m, curv.r_f))


def _fit(window, values, companions) -> ExponentFit:
    """The log-log fit of ``values`` against ``window``; ``companions``
    (the other curvature) sets the scale below which ``values`` vanish."""
    abs_vals = [abs(v) for v in values]
    tiny = 1e-300
    slope = intercept = r_squared = math.nan
    if max(abs_vals) > 1e-9 * max(1.0, max(abs(c) for c in companions)):
        log_f = np.log10(window)
        log_r = np.log10([max(v, tiny) for v in abs_vals])
        slope, intercept = np.polyfit(log_f, log_r, 1)
        ss_res = float(np.sum((log_r - (slope * log_f + intercept)) ** 2))
        ss_tot = float(np.sum((log_r - np.mean(log_r)) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    growth = (abs_vals[-1] + tiny) / (abs_vals[0] + tiny)
    divergent = growth >= 1e2 and slope <= -0.5     # never on a nan slope

    limit = None
    if not divergent:
        # quadratic extrapolation to f = 0 from the innermost samples
        k = min(5, len(window))
        coeffs = np.polyfit(window[-k:], values[-k:], 2)
        limit = float(np.polyval(coeffs, 0.0))
    return ExponentFit(kind="divergent" if divergent else "finite",
                       slope=float(slope), intercept=float(intercept),
                       r_squared=float(r_squared), window=tuple(window),
                       values=tuple(values), limit=limit)


def fit_divergence_exponents(
    spec: PotentialSpec,
    locus_point: StatePoint,
    *,
    which_line: str = "cx",
    direction: tuple[float, float] = (1.0, 0.0),
) -> tuple[ExponentFit, ExponentFit]:
    """Estimate how both curvature scalars behave while approaching a
    divergence line; returns the fits of ``(R^M, R^F)``.

    Points are sampled at displacements ``0.05 * 2**-j``, ``j = 0..10``,
    along ``direction`` from the line (so |f| shrinks geometrically,
    anchored by the local directional derivative of the root function), in
    one batched evaluation that both fits share.  An approach that leaves
    the domain is taken along ``-direction`` instead, and
    :class:`DomainError` is raised if that leaves it too.  log10|R| is
    fitted against log10|f|.  A curvature that stays bounded along the
    window is reported as a finite-limit outcome with the f -> 0
    extrapolation, not as a failure.
    """
    norm = math.hypot(*direction)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    ds, dx = direction[0] / norm, direction[1] / norm
    try:
        window, r_m, r_f = _approach(spec, locus_point, which_line, ds, dx)
    except DomainError:
        window, r_m, r_f = _approach(spec, locus_point, which_line, -ds, -dx)
    if len(window) < 6:
        raise ValueError("approach produced fewer than 6 usable samples")
    fit_rf = _fit(window, r_f, r_m)    # first, as `davies` reports it first
    return _fit(window, r_m, r_f), fit_rf


def fit_divergence_exponent(spec: PotentialSpec, locus_point: StatePoint,
                            which_r: str, **kwargs) -> ExponentFit:
    """The fit of one curvature scalar, ``which_r`` "rm" (R^M) or "rf"
    (R^F), from :func:`fit_divergence_exponents` with the same keywords."""
    if which_r not in ("rm", "rf"):
        raise ValueError(f"which_r must be 'rm' or 'rf', got {which_r!r}")
    return fit_divergence_exponents(spec, locus_point, **kwargs)[which_r == "rf"]


def conjugacy_scan(
    spec: PotentialSpec,
    series: str,
    *,
    fixed_value: float,
    sweep: tuple[float, float],
    count: int = 200,
    spacing: str = "linear",
    x_guess: float = 1.0,
    sweep_jet: Jet3 | None = None,
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
    never across a gap, and refinement drives the exact jet derivative to
    zero.  Poles are skipped.  ``sweep_jet`` (the
    :attr:`DaviesLocus.sweep_jet` of the same slice), the jets at the sweep
    samples at X = ``fixed_value`` (fixed-X) or ``x_guess`` (fixed-Y), when
    given replaces the series' samples or the X solve's first evaluation.
    """
    s_grid = _grid(*sweep, count, spacing)

    if series == "fixed-x":
        jet = eval_jets(spec, s_grid, fixed_value)[0] if sweep_jet is None else sweep_jet
        tvals, dvals = jet.s, jet.ss                # T and dT/dS at fixed X

        def deriv(s: float, k: int) -> float:
            return eval_jet(spec, StatePoint(s, fixed_value)).ss
    elif series == "fixed-y":
        x_lo, x_hi = spec.domain[1]
        tol_f = 1e-13 * max(1.0, abs(fixed_value))

        first = [] if sweep_jet is None else [sweep_jet]   # every lane at x_guess
        def lanes(idx, x):   # T, dT/dS along constant Y, X
            jet = first.pop() if first else eval_jets(spec, s_grid[idx], x)[0]
            with np.errstate(all="ignore"):
                det_h = jet.ss * jet.xx - jet.sx * jet.sx
                return jet.x - fixed_value, jet.xx, np.stack([jet.s, det_h / jet.xx, x])

        tvals, dvals, xvals = solve_lanes(lanes, s_grid.size, x_guess, x_lo, x_hi,
                                          tol_f=tol_f)[1]

        def deriv(s: float, k: int) -> float:   # X solved from sample k's root
            try:
                jet = solve_near(lambda x: eval_jet(spec, (s, x)), "x", fixed_value,
                                 float(xvals[k]), x_lo, x_hi, tol_f=tol_f)[1]
                return (jet.ss * jet.xx - jet.sx * jet.sx) / jet.xx
            except (NoBracketError, ToleranceNotMetError, DomainError, ArithmeticError):
                return math.nan
    else:
        raise ValueError(f"series must be 'fixed-x' or 'fixed-y', got {series!r}")

    with np.errstate(all="ignore"):
        cd = (tvals[2:] - tvals[:-2]) / (s_grid[2:] - s_grid[:-2])
        c0, c1 = cd[:-1], cd[1:]
        changes = (c0 != 0.0) & ((c0 > 0.0) != (c1 > 0.0)) & ~np.isnan(c0 + c1)
    svals, tvals, dvals = s_grid.tolist(), tvals.tolist(), dvals.tolist()
    samples = list(zip(tvals, svals))            # (control T, conjugate S)
    turning = []
    for k in np.flatnonzero(changes).tolist():
        for i, j in ((k + 1, k + 2), (k, min(k + 3, len(svals) - 1))):
            fa, fb = dvals[i], dvals[j]
            if fa == 0.0 or (fa > 0.0) != (fb > 0.0) and not math.isnan(fa + fb):
                break
        else:
            continue  # central-difference aliasing, no exact sign change
        root, _, _, is_root = _refine(lambda s: deriv(s, i), svals[i], svals[j], fa, fb)
        if is_root:
            turning.append(root)

    return ConjugacyScan(series=tuple(samples), turning_points=tuple(turning),
                         which=series, fixed_value=fixed_value)
