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
from dataclasses import dataclass

import numpy as np

from ._roots import ToleranceNotMetError, refine_bracket, solve_lanes
from .geometry import StatePoint, curvature_from_m_jet
from .jets import DomainError, Jet3, batch
from .potentials import PotentialSpec, eval_jet

__all__ = [
    "DaviesLocus", "BracketInfo", "ExponentFit", "ConjugacyScan",
    "find_davies_points", "fit_divergence_exponent", "conjugacy_scan",
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
    """

    which: str                       # "cx" | "cy"
    points: tuple[StatePoint, ...]
    f_def: str
    brackets: tuple[BracketInfo, ...]
    rejected: tuple[StatePoint, ...] = ()


@dataclass(frozen=True)
class ExponentFit:
    """Log-log divergence fit along an approach to a divergence line.

    ``kind`` is "divergent" when |R| grows strongly toward the line (the
    slope/intercept then describe |R| ~ 10^intercept * f^slope) and "finite"
    otherwise, in which case ``limit`` extrapolates R to f -> 0.
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
    if which == "cx":
        def f(jet: Jet3) -> float:
            return jet.ss
        return f, "M_SS (denominator scale of the constant-X heat capacity)"
    if which == "cy":
        def f(jet: Jet3) -> float:
            return jet.ss * jet.xx - jet.sx * jet.sx
        return f, ("Hessian determinant (denominator scale of the "
                   "constant-Y heat capacity)")
    raise ValueError(f"which must be one of {_ROOT_KINDS}, got {which!r}")


def _grid(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if count < 2:
        raise ValueError("sweep needs at least 2 samples")
    if spacing == "log":
        if lo <= 0.0:
            raise ValueError("log spacing requires a positive lower bound")
        return np.geomspace(lo, hi, count)
    if spacing == "linear":
        return np.linspace(lo, hi, count)
    raise ValueError(f"unknown spacing {spacing!r}")


def _eval_lanes(spec: PotentialSpec, s, x) -> Jet3:
    """Jets at the points ``(s, x)`` (arrays or floats) from one batched
    evaluation; a point that fails has a nan jet."""
    jet = Jet3(math.nan)
    with batch(np.broadcast(s, x).size) as failures:
        jet = eval_jet(spec, (s, x))
    return Jet3(*(np.where(failures.code != 0, math.nan, c) for c in jet.coeffs()))


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
    eps: float | None = None,
) -> DaviesLocus:
    """Locate divergence-line crossings along one sweep slice.

    One coordinate (named by ``fixed``) is held at ``fixed_value`` while the
    other runs over ``sweep``; every sign change of the root function is
    refined until |f| <= 1e-12 * scale.  Samples outside the domain are
    skipped; poles and sign changes whose refinement leaves the domain go to
    ``rejected``.  An empty locus is a normal outcome, not an error.
    """
    root_fn, f_def = _root_function(which)
    if fixed not in spec.coords:
        raise ValueError(f"{fixed!r} is not a coordinate of {spec.name!r}")
    fixed_idx = spec.coords.index(fixed)

    def to_point(u):
        return StatePoint(*((fixed_value, u) if fixed_idx == 0 else (u, fixed_value)))

    def g(u: float) -> float:
        return root_fn(eval_jet(spec, to_point(u)))

    grid = _grid(*sweep, count, spacing)
    samples = list(zip(grid.tolist(), root_fn(_eval_lanes(spec, *to_point(grid))).tolist()))

    points, brackets, rejected = [], [], []
    for (u0, f0), (u1, f1) in zip(samples, samples[1:]):
        if not (math.isfinite(f0) and math.isfinite(f1)):
            continue
        if f0 == 0.0 or (f0 > 0.0) == (f1 > 0.0):
            continue
        root, resid, iters, is_root = _refine(g, u0, u1, f0, f1)
        pt = to_point(root)
        if not is_root or eval_jet(spec, pt).s <= 1e-10 * max(1.0, abs(root)):
            rejected.append(pt)
            continue
        points.append(pt)
        brackets.append(BracketInfo(u0, u1, f0, f1, resid, iters))
    return DaviesLocus(which=which, points=tuple(points), f_def=f_def,
                       brackets=tuple(brackets), rejected=tuple(rejected))


# spec, key and samples of the latest approach, which the R^M and R^F fits
# of a locus point share
_LAST_APPROACH: list = [None, None, None]


def _approach(spec, point, which_line, ds, dx, start, halvings, eps):
    """(|f|, R^M, R^F) along an approach, without samples where f = 0."""
    key = (point, which_line, ds, dx, start, halvings, eps)
    if _LAST_APPROACH[0] is spec and _LAST_APPROACH[1] == key:
        return _LAST_APPROACH[2]
    t = start * 0.5 ** np.arange(halvings + 1)
    jet = _eval_lanes(spec, point.s + t * ds, point.x + t * dx)
    if np.isnan(jet.v).any():
        raise DomainError("domain", point, "the approach leaves the domain")
    f_val = abs(_root_function(which_line)[0](jet))
    curv = curvature_from_m_jet(jet, eps=eps)
    usable = f_val != 0.0   # measure-zero landing exactly on the line
    result = tuple(v[usable].tolist() for v in (f_val, curv.r_m, curv.r_f))
    _LAST_APPROACH[:] = [spec, key, result]
    return result


def fit_divergence_exponent(
    spec: PotentialSpec,
    locus_point: StatePoint,
    which_r: str,
    *,
    which_line: str = "cx",
    direction: tuple[float, float] = (1.0, 0.0),
    start: float = 0.05,
    halvings: int = 10,
    eps: float | None = None,
) -> ExponentFit:
    """Estimate how a curvature scalar behaves while approaching a
    divergence line.

    Points are sampled at displacements ``start * 2**-j`` along
    ``direction`` from the line (so |f| shrinks geometrically, anchored by
    the local directional derivative of the root function), in one batched
    evaluation that raises :class:`DomainError` if a sample falls outside
    the domain; log10|R| is fitted against log10|f|.  A curvature that
    stays bounded along the window is reported as a finite-limit outcome
    with the f -> 0 extrapolation, not as a failure.
    """
    if which_r not in ("rm", "rf"):
        raise ValueError(f"which_r must be 'rm' or 'rf', got {which_r!r}")
    norm = math.hypot(*direction)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    ds, dx = direction[0] / norm, direction[1] / norm

    window, r_m, r_f = _approach(spec, locus_point, which_line, ds, dx,
                                 start, halvings, eps)
    values, companions = (r_m, r_f) if which_r == "rm" else (r_f, r_m)

    if len(window) < 6:
        raise ValueError("approach produced fewer than 6 usable samples")

    abs_vals = [abs(v) for v in values]
    tiny = 1e-300
    log_f = np.log10(window)
    log_r = np.log10([max(v, tiny) for v in abs_vals])
    slope, intercept = np.polyfit(log_f, log_r, 1)
    fitted = slope * log_f + intercept
    ss_res = float(np.sum((log_r - fitted) ** 2))
    ss_tot = float(np.sum((log_r - np.mean(log_r)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0

    companion_scale = max(1.0, max(abs(c) for c in companions))
    negligible = max(abs_vals) <= 1e-9 * companion_scale
    growth = (abs_vals[-1] + tiny) / (abs_vals[0] + tiny)
    divergent = (not negligible) and growth >= 1e2 and slope <= -0.5

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
    conjugate variable Y instead, solving X at every entropy sample; one
    that cannot be solved is a (nan, S) gap.  A turning point is a sweep
    value where the control variable's derivative changes sign (a vertical
    tangent of the conjugacy diagram); detection uses a central difference
    over the grid, never across a gap, and refinement drives the exact jet
    derivative to zero.  Poles are skipped.
    """
    s_grid = _grid(*sweep, count, spacing)

    if series == "fixed-x":
        jet = _eval_lanes(spec, s_grid, fixed_value)
        tvals, dvals = jet.s, jet.ss                # T and dT/dS at fixed X

        def deriv(s: float, k: int) -> float:
            return eval_jet(spec, StatePoint(s, fixed_value)).ss
    elif series == "fixed-y":
        x_lo, x_hi = spec.domain[1]

        def solve(s: np.ndarray, guess: float) -> np.ndarray:
            def lanes(idx, x):   # T, dT/dS along constant Y, X
                jet = _eval_lanes(spec, s[idx], x)
                with np.errstate(all="ignore"):
                    det_h = jet.ss * jet.xx - jet.sx * jet.sx
                    return jet.x - fixed_value, jet.xx, np.stack([jet.s, det_h / jet.xx, x])
            return solve_lanes(lanes, s.size, guess, x_lo, x_hi,
                               first_step=0.05 * max(1.0, abs(guess)),
                               tol_f=1e-13 * max(1.0, abs(fixed_value)))[1]

        tvals, dvals, xvals = solve(s_grid, x_guess)

        def deriv(s: float, k: int) -> float:   # continued from sample k
            return float(solve(np.array([s]), xvals[k])[1][0])
    else:
        raise ValueError(f"series must be 'fixed-x' or 'fixed-y', got {series!r}")

    svals, tvals, dvals = s_grid.tolist(), tvals.tolist(), dvals.tolist()
    samples = list(zip(tvals, svals))            # (control T, conjugate S)
    turning = []
    cd = [(tvals[k + 1] - tvals[k - 1]) / (svals[k + 1] - svals[k - 1])
          for k in range(1, len(samples) - 1)]
    for k in range(len(cd) - 1):
        if (cd[k] == 0.0 or (cd[k] > 0.0) == (cd[k + 1] > 0.0)
                or math.isnan(cd[k] + cd[k + 1])):
            continue
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
