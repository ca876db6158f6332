"""Hessian metrics and curvature scalars of a two-parameter potential.

Two metrics are built from one potential M(S, X): the Hessian of M itself
(g^M) and the Hessian of the free energy F = M - T S (g^F).  In the (S, X)
chart g^M is the full Hessian of M while g^F is diagonal, diag(-M_SS, M_XX);
after the Legendre transform to (T, X) the roles swap.  (The Hessians of the
other two Legendre transforms are just the negatives of these two metrics,
so no separate objects exist for them.)

Curvature scalars come in two exact coordinate forms each, both built from
jets; the finite-difference evaluation of the general two-dimensional
curvature formula that checks them is a test oracle in ``tests/fdtools.py``.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from ._roots import NoBracketError, ToleranceNotMetError, solve_near
from .jets import Jet3, _safe_div
from .potentials import PotentialSpec, eval_jet

DEFAULT_SINGULARITY_EPS = 1e-10

__all__ = [
    "StatePoint", "MetricTensor2", "CurvatureResult", "LegendrePoint",
    "metric_m", "metric_f_sx", "curvature_from_m_jet", "curvature_from_f_jet",
    "curvature_numerators", "legendre_at", "singularity_eps", "hessian_scale",
    "NoBracketError", "ToleranceNotMetError", "LegendreSingularError",
]


def singularity_eps() -> float:
    """``THERMOCURV_EPS`` if set, else the default: the epsilon the CLI
    passes as ``eps=``.  The library functions never read the environment."""
    raw = os.environ.get("THERMOCURV_EPS")
    if raw is None:
        return DEFAULT_SINGULARITY_EPS
    try:
        eps = float(raw)
    except ValueError:
        raise ValueError(f"THERMOCURV_EPS must be numeric, got {raw!r}") from None
    if not 0.0 < eps < math.inf:
        raise ValueError(f"THERMOCURV_EPS must be finite and positive, got {raw!r}")
    return eps


class StatePoint(NamedTuple):
    """A point in the (entropy-like, control-parameter) plane."""

    s: float
    x: float


class MetricTensor2(NamedTuple):
    """Symmetric 2x2 metric with a chart tag (SX or TX) and a potential tag."""

    g11: float
    g12: float
    g22: float
    chart: str = "SX"
    kind: str = "M"

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 * self.g12


class CurvatureResult(NamedTuple):
    """Both curvature scalars plus the metric determinants in one chart.

    Near-singular denominators set a ``div:RM`` / ``div:RF`` flag; the value
    itself is still reported (huge or inf) so callers decide presentation.
    For a jet of arrays the entries are arrays and ``flags`` holds
    ``(token, mask)`` pairs.
    """

    r_m: float
    r_f: float
    det_gm: float
    det_gf: float
    chart: str = "SX"
    flags: tuple[str, ...] = ()


class LegendrePoint(NamedTuple):
    """Free-energy data at fixed (T, X): solved entropy, F value, F jet.

    The jet's first slot differentiates along T, the second along X, so
    ``f_jet.s == -s_of_tx`` and ``f_jet.x`` equals the conjugate variable Y.
    ``iterations`` counts the jets the solve evaluated, the guess included.
    """

    t: float
    x: float
    s_of_tx: float
    f_value: float
    f_jet: Jet3
    residual: float
    iterations: int


class LegendreSingularError(RuntimeError):
    """M_SS vanishes at the solved entropy; the transform is singular there.

    This is exactly the locus where the constant-X heat capacity diverges.
    """


def hessian_scale(jet: Jet3) -> float:
    """Scale-free reference magnitude for singularity tests."""
    return _larger(1.0, abs(jet.ss) + abs(jet.sx) + abs(jet.xx))


def _larger(a, b):
    """max(a, b) for floats or arrays; a nan ``b`` gives ``a``."""
    if a.__class__ is float and b.__class__ is float:
        return b if b > a else a         # max(a, b), without the call
    return np.fmax(a, b)


def _flag_tokens(*pairs):
    """The tokens of ``(token, condition)`` pairs whose condition holds; with
    array conditions (all are, or none), the pairs themselves."""
    if isinstance(pairs[0][1], np.ndarray):
        return pairs
    return tuple([token for token, cond in pairs if cond])


def metric_m(jet: Jet3) -> MetricTensor2:
    """Hessian metric of the potential in its own (S, X) chart."""
    return MetricTensor2(jet.ss, jet.sx, jet.xx, chart="SX", kind="M")


def metric_f_sx(jet: Jet3) -> MetricTensor2:
    """Free-energy metric expressed in the (S, X) chart: diag(-M_SS, M_XX)."""
    return MetricTensor2(-jet.ss, 0.0, jet.xx, chart="SX", kind="F")


def _curvatures(jet: Jet3, eps: float):
    """The complementary pair of curvatures from the jet of a potential P in
    its natural chart: the full-Hessian form of g^P, and the diagonal form
    of the other metric, diag(-P_11, P_22) in this chart.

    Returns ``(R_hessian, R_diagonal, det_hessian, det_diagonal,
    div_hessian, div_diagonal)``; a ``div_`` entry holds where that
    scalar's denominator is near zero.
    """
    scale = hessian_scale(jet)
    ss, sx, xx = jet.ss, jet.sx, jet.xx
    num_h, num_d = _numerators(jet)
    det_h = ss * xx - sx * sx
    return (_safe_div(num_h, 2.0 * det_h * det_h), _safe_div(num_d, 2.0 * ss * ss * xx * xx),
            det_h, -ss * xx, abs(det_h) < eps * scale,
            (abs(ss) < eps * scale) | (abs(xx) < eps * scale))


def _numerators(jet: Jet3):
    """``(N_hessian, N_diagonal)`` of :func:`_curvatures`: each curvature there
    is N / (2 D^2), with D the determinant of its metric's form."""
    _, _, _, ss, sx, xx, sss, ssx, sxx, xxx = jet
    return ((ss * (sxx * sxx - ssx * xxx)
             + xx * (ssx * ssx - sxx * sss)
             + sx * (sss * xxx - ssx * sxx)),
            (-ss * sxx * sxx + xx * ssx * ssx
             + ss * ssx * xxx - xx * sxx * sss))


def curvature_numerators(jet: Jet3):
    """``((N_M, scale_M), (N_F, scale_F))`` in the (S, X) chart, where
    R^M = N_M / (2 det H^2) and R^F = N_F / (2 M_SS^2 M_XX^2).  A scale is the
    sum of the magnitudes of the numerator's terms, which bounds its rounding."""
    ss, sx, xx, sss, ssx, sxx, xxx = jet.ss, jet.sx, jet.xx, jet.sss, jet.ssx, jet.sxx, jet.xxx
    diagonal = (abs(ss * sxx * sxx) + abs(xx * ssx * ssx)
                + abs(ss * ssx * xxx) + abs(xx * sxx * sss))
    hessian = diagonal + abs(sx * sss * xxx) + abs(sx * ssx * sxx)
    num_m, num_f = _numerators(jet)
    return (num_m, hessian), (num_f, diagonal)


def curvature_from_m_jet(jet: Jet3, eps: float = DEFAULT_SINGULARITY_EPS) -> CurvatureResult:
    """Both curvature scalars from the potential jet in the (S, X) chart.

    R^M uses the full-Hessian form, R^F the diagonal form of g^F in this
    chart; determinants are reported in the same chart.
    """
    r_m, r_f, det_gm, det_gf, div_m, div_f = _curvatures(jet, eps)
    return CurvatureResult(r_m, r_f, det_gm, det_gf, "SX",
                           _flag_tokens(("div:RM", div_m), ("div:RF", div_f)))


def curvature_from_f_jet(lp: LegendrePoint,
                         eps: float = DEFAULT_SINGULARITY_EPS) -> CurvatureResult:
    """Both curvature scalars from the free-energy jet in the (T, X) chart.

    The roles of the two forms swap relative to :func:`curvature_from_m_jet`:
    R^F is the full-Hessian form of F, R^M the diagonal form of g^M in
    (T, X).  The scalars agree with the (S, X)-chart values; the reported
    determinants are the (T, X)-chart ones.
    """
    r_f, r_m, det_gf, det_gm, div_f, div_m = _curvatures(lp.f_jet, eps)
    return CurvatureResult(r_m, r_f, det_gm, det_gf, "TX",
                           _flag_tokens(("div:RF", div_f), ("div:RM", div_m)))


# -- Legendre transform --------------------------------------------------------

def legendre_at(
    spec: PotentialSpec,
    t: float,
    x: float,
    s_guess: float,
    *,
    eps: float = DEFAULT_SINGULARITY_EPS,
) -> LegendrePoint:
    """Solve T(s, x) = t for the entropy and build the free-energy jet.

    The root is solved from ``s_guess`` by :func:`_roots.solve_near` to
    |T - t| <= 1e-12 max(1, |t|), and the jet at the root builds the
    free-energy jet.  The solve needs M_SS != 0 at the root, i.e. a point
    away from the heat-capacity divergence locus, else
    :class:`LegendreSingularError` is raised.

    The (T, X) jet of F is assembled by implicit differentiation of
    T(s(T,X), X) = T order by order, which keeps the whole pipeline free of
    numerical differencing.
    """
    s_root, m, residual, evals = solve_near(
        lambda s: eval_jet(spec, (s, x)), "s", t, s_guess, *spec.domain[0],
        tol_f=1e-12 * max(1.0, abs(t)))
    if abs(m.ss) < eps * hessian_scale(m):
        raise LegendreSingularError(
            f"M_SS ~ 0 at solved entropy {s_root!r}: Legendre transform is "
            "singular (constant-X heat capacity diverges here)")

    f_jet = _f_jet_from_m_jet(m, s_root, t)
    return LegendrePoint(t, x, s_root, f_jet.v, f_jet, residual, evals)


def _f_jet_from_m_jet(m: Jet3, s_root: float, t: float) -> Jet3:
    """Implicit differentiation of F(T, X) = M - T s(T, X) through order 3.

    The entropy derivatives follow from differentiating M_S(s(T,X), X) = T:
    each order is linear in the one new unknown, so the relations solve in
    sequence.
    """
    mv, _, mx, mss, msx, mxx, msss, mssx, msxx, mxxx = m
    s_t = 1.0 / mss
    s_x = -msx / mss
    s_tt = -msss * s_t * s_t / mss
    s_tx = -s_t * (msss * s_x + mssx) / mss
    s_xx = -(msss * s_x * s_x + 2.0 * mssx * s_x + msxx) / mss
    return Jet3(
        mv - t * s_root,
        -s_root,                        # F_T = -S
        mx,                             # F_X = Y
        -s_t,                           # F_TT
        -s_x,                           # F_TX = M_SX / M_SS
        mxx + msx * s_x,                # F_XX = M_XX - M_SX^2 / M_SS
        -s_tt,                          # F_TTT
        -s_tx,                          # F_TTX
        -s_xx,                          # F_TXX
        mssx * s_x * s_x + 2.0 * msxx * s_x + msx * s_xx + mxxx,   # F_XXX
    )

