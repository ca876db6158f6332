"""The sampled divergence fit: a test oracle for ``davies.divergence_orders``.

Curvature values are sampled along a straight approach to a divergence line
at the 11 displacements ``0.05 * 2**-j`` (``j = 0..10``), and the slope of
log|R| against log|f| is fitted by least squares, where f is the root
function's own value along the approach.  This is the estimate ``davies``
printed before it read the order from the jet at the located point.
"""

import math
from dataclasses import dataclass

import numpy as np

from thermocurv import DomainError, curvature_from_m_jet
from thermocurv.davies import _root_function
from thermocurv.potentials import eval_jets


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


def _approach(spec, point, which_line, ds, dx, start=0.05):
    """(|f|, R^M, R^F) along an approach, without samples where f = 0."""
    t = start * 0.5 ** np.arange(11)
    jet, failed = eval_jets(spec, point.s + t * ds, point.x + t * dx)
    if failed.any():
        raise DomainError("domain", point, "the approach leaves the domain")
    f_val = abs(_root_function(which_line)[0](jet))
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


def fit_divergence_exponents(spec, locus_point, *, which_line="cx", direction=(1.0, 0.0),
                             start=0.05):
    """The fits of ``(R^M, R^F)`` along one approach to a divergence line.

    The approach runs ``start * 2**-j`` (``j = 0..10``) along ``direction``
    from ``locus_point``, or along
    ``-direction`` where that leaves the domain; :class:`DomainError` is
    raised if both do.  A curvature that stays bounded along the window is
    a finite-limit outcome with the f -> 0 extrapolation.
    """
    norm = math.hypot(*direction)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    ds, dx = direction[0] / norm, direction[1] / norm
    try:
        window, r_m, r_f = _approach(spec, locus_point, which_line, ds, dx, start)
    except DomainError:
        window, r_m, r_f = _approach(spec, locus_point, which_line, -ds, -dx, start)
    if len(window) < 6:
        raise ValueError("approach produced fewer than 6 usable samples")
    fit_rf = _fit(window, r_f, r_m)
    return _fit(window, r_m, r_f), fit_rf


def fit_divergence_exponent(spec, locus_point, which_r, **kwargs) -> ExponentFit:
    """The fit of one curvature scalar, ``which_r`` "rm" (R^M) or "rf"
    (R^F), from :func:`fit_divergence_exponents` with the same keywords."""
    if which_r not in ("rm", "rf"):
        raise ValueError(f"which_r must be 'rm' or 'rf', got {which_r!r}")
    return fit_divergence_exponents(spec, locus_point, **kwargs)[which_r == "rf"]
