"""Hessian metrics and curvature scalars of a two-parameter potential.

Two metrics are built from one potential M(S, X): the Hessian of M itself
(g^M) and the Hessian of the free energy F = M - T S (g^F).  In the (S, X)
chart g^M is the full Hessian of M while g^F is diagonal, diag(-M_SS, M_XX);
after the Legendre transform to (T, X) the roles swap.  (The Hessians of the
other two Legendre transforms are just the negatives of these two metrics,
so no separate objects exist for them.)

Curvature scalars come in two exact coordinate forms each, plus a
finite-difference evaluation of the general two-dimensional curvature
formula that serves as an independent numerical oracle.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._roots import (NoBracketError, ToleranceNotMetError, expand_bracket,
                     refine_bracket)
from .jets import Jet3
from .potentials import PotentialSpec, eval_jet

DEFAULT_SINGULARITY_EPS = 1e-10

__all__ = [
    "StatePoint", "MetricTensor2", "CurvatureResult", "LegendrePoint",
    "metric_m", "metric_f_sx", "curvature_from_m_jet", "curvature_from_f_jet",
    "legendre_at", "curvature_fd_general", "singularity_eps", "hessian_scale",
    "NoBracketError", "ToleranceNotMetError", "LegendreSingularError",
    "SingularMetricError",
]


def singularity_eps() -> float:
    """Divergence-detection epsilon; THERMOCURV_EPS overrides the default."""
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


@dataclass(frozen=True)
class CurvatureResult:
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


@dataclass(frozen=True)
class LegendrePoint:
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


class SingularMetricError(RuntimeError):
    """Metric determinant too small for a curvature evaluation."""


def hessian_scale(jet: Jet3) -> float:
    """Scale-free reference magnitude for singularity tests."""
    return _larger(1.0, abs(jet.ss) + abs(jet.sx) + abs(jet.xx))


def _larger(a, b):
    """max(a, b) for floats or arrays; a nan ``b`` gives ``a``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.fmax(a, b)
    return max(a, b)


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


def _safe_div(num, den):
    """num / den for floats or arrays; 0/0 is nan and x/0 is inf with the
    sign of x, whatever the sign of the zero."""
    if isinstance(num, np.ndarray) or isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den == 0.0,
                            np.where(num == 0.0, math.nan, np.copysign(math.inf, num)),
                            num / den)
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def _hessian_form(ss, sx, xx, sss, ssx, sxx, xxx) -> tuple[float, float]:
    """Curvature numerator and metric determinant for a Hessian metric in
    its natural chart."""
    num = (ss * (sxx * sxx - ssx * xxx)
           + xx * (ssx * ssx - sxx * sss)
           + sx * (sss * xxx - ssx * sxx))
    det = ss * xx - sx * sx
    return num, det


def _diagonal_form(ss, xx, sss, ssx, sxx, xxx) -> float:
    """Curvature numerator for the transformed metric diag(-P_11, P_22) in
    the natural chart of the potential P."""
    return (-ss * sxx * sxx + xx * ssx * ssx
            + ss * ssx * xxx - xx * sxx * sss)


def curvature_from_m_jet(jet: Jet3, eps: float | None = None) -> CurvatureResult:
    """Both curvature scalars from the potential jet in the (S, X) chart.

    R^M uses the full-Hessian form, R^F the diagonal form of g^F in this
    chart; determinants are reported in the same chart.
    """
    eps = singularity_eps() if eps is None else eps
    scale = hessian_scale(jet)
    num_m, det_gm = _hessian_form(jet.ss, jet.sx, jet.xx,
                                  jet.sss, jet.ssx, jet.sxx, jet.xxx)
    num_f = _diagonal_form(jet.ss, jet.xx, jet.sss, jet.ssx, jet.sxx, jet.xxx)
    r_m = _safe_div(num_m, 2.0 * det_gm * det_gm)
    r_f = _safe_div(num_f, 2.0 * jet.ss * jet.ss * jet.xx * jet.xx)
    flags = _flag_tokens(
        ("div:RM", abs(det_gm) < eps * scale),
        ("div:RF", (abs(jet.ss) < eps * scale) | (abs(jet.xx) < eps * scale)))
    return CurvatureResult(r_m=r_m, r_f=r_f, det_gm=det_gm,
                           det_gf=-jet.ss * jet.xx, chart="SX", flags=flags)


def curvature_from_f_jet(lp: LegendrePoint, eps: float | None = None) -> CurvatureResult:
    """Both curvature scalars from the free-energy jet in the (T, X) chart.

    The roles of the two forms swap relative to :func:`curvature_from_m_jet`:
    R^F is the full-Hessian form of F, R^M the diagonal form of g^M in
    (T, X).  The scalars agree with the (S, X)-chart values; the reported
    determinants are the (T, X)-chart ones.
    """
    eps = singularity_eps() if eps is None else eps
    fj = lp.f_jet
    scale = hessian_scale(fj)
    num_f, det_gf = _hessian_form(fj.ss, fj.sx, fj.xx,
                                  fj.sss, fj.ssx, fj.sxx, fj.xxx)
    num_m = _diagonal_form(fj.ss, fj.xx, fj.sss, fj.ssx, fj.sxx, fj.xxx)
    r_f = _safe_div(num_f, 2.0 * det_gf * det_gf)
    r_m = _safe_div(num_m, 2.0 * fj.ss * fj.ss * fj.xx * fj.xx)
    flags = _flag_tokens(
        ("div:RF", abs(det_gf) < eps * scale),
        ("div:RM", (abs(fj.ss) < eps * scale) | (abs(fj.xx) < eps * scale)))
    return CurvatureResult(r_m=r_m, r_f=r_f, det_gm=-fj.ss * fj.xx,
                           det_gf=det_gf, chart="TX", flags=flags)


# -- Legendre transform --------------------------------------------------------

def legendre_at(
    spec: PotentialSpec,
    t: float,
    x: float,
    s_guess: float,
    *,
    tol: float | None = None,
    max_iter: int = 80,
    eps: float | None = None,
) -> LegendrePoint:
    """Solve T(s, x) = t for the entropy and build the free-energy jet.

    The root solve takes Halley steps from ``s_guess`` (M_SSS is in the
    jet, so the correction is free), each cut to at most half of
    max(1, |s|).  A step that leaves the domain or fails to cut the
    residual by a tenth hands over to the bracketed secant: inside the
    last sign change the steps crossed, else inside the sign change
    nearest the guess (humps of T(s) included).  Every
    point is evaluated once, and the jet at the root builds the
    free-energy jet.  The solve needs M_SS != 0 at the root, i.e. a point
    away from the heat-capacity divergence locus, else
    :class:`LegendreSingularError` is raised.

    The (T, X) jet of F is assembled by implicit differentiation of
    T(s(T,X), X) = T order by order, which keeps the whole pipeline free of
    numerical differencing.
    """
    eps = singularity_eps() if eps is None else eps
    tol = 1e-12 * max(1.0, abs(t)) if tol is None else tol
    lo, hi = spec.domain[0]
    jets: dict[float, Jet3] = {}

    def jet(s: float) -> Jet3:
        if s not in jets:
            jets[s] = eval_jet(spec, (s, x))
        return jets[s]

    def residual(s: float) -> float:
        return jet(s).s - t

    s_root, f = s_guess, residual(s_guess)
    bracket = None               # the last sign change between two iterates
    for _ in range(max_iter):
        if abs(f) <= tol:
            break
        m = jets[s_root]
        step = _safe_div(2.0 * f * m.ss, 2.0 * m.ss * m.ss - f * m.sss)
        s_new = s_root - math.copysign(min(abs(step), 0.5 * max(1.0, abs(s_root))),
                                       step)
        if not lo < s_new < hi:
            break
        if ((f_new := residual(s_new)) > 0.0) != (f > 0.0):
            bracket = (s_root, s_new, f, f_new)
        if abs(f_new) > 0.9 * abs(f):
            break
        s_root, f = s_new, f_new
    if abs(f) > tol:
        a, b, fa, fb = bracket or expand_bracket(
            residual, s_guess, lo, hi, first_step=0.05 * max(1.0, abs(s_guess)),
            slope=lambda s: jet(s).ss)
        s_root, f = refine_bracket(residual, a, b, fa, fb, tol_f=tol)[:2]

    m = jets[s_root]
    if abs(m.ss) < eps * hessian_scale(m):
        raise LegendreSingularError(
            f"M_SS ~ 0 at solved entropy {s_root!r}: Legendre transform is "
            "singular (constant-X heat capacity diverges here)")

    f_jet = _f_jet_from_m_jet(m, s_root, t)
    return LegendrePoint(t=t, x=x, s_of_tx=s_root, f_value=m.v - t * s_root,
                         f_jet=f_jet, residual=abs(f), iterations=len(jets))


def _f_jet_from_m_jet(m: Jet3, s_root: float, t: float) -> Jet3:
    """Implicit differentiation of F(T, X) = M - T s(T, X) through order 3.

    The entropy derivatives follow from differentiating M_S(s(T,X), X) = T:
    each order is linear in the one new unknown, so the relations solve in
    sequence.
    """
    mss, msx, mxx = m.ss, m.sx, m.xx
    msss, mssx, msxx, mxxx = m.sss, m.ssx, m.sxx, m.xxx
    s_t = 1.0 / mss
    s_x = -msx / mss
    s_tt = -msss * s_t * s_t / mss
    s_tx = -s_t * (msss * s_x + mssx) / mss
    s_xx = -(msss * s_x * s_x + 2.0 * mssx * s_x + msxx) / mss
    return Jet3(
        v=m.v - t * s_root,
        s=-s_root,                      # F_T = -S
        x=m.x,                          # F_X = Y
        ss=-s_t,                        # F_TT
        sx=-s_x,                        # F_TX = M_SX / M_SS
        xx=mxx + msx * s_x,             # F_XX = M_XX - M_SX^2 / M_SS
        sss=-s_tt,
        ssx=-s_tx,
        sxx=-s_xx,
        xxx=mssx * s_x * s_x + 2.0 * msxx * s_x + msx * s_xx + mxxx,
    )


# -- finite-difference curvature oracle -----------------------------------------

MetricField = Callable[[StatePoint], MetricTensor2]

_FD_STEP = 1e-4


def _d1(f, x0: float, h: float):
    """Five-point central first derivative (works on complex values)."""
    return (-f(x0 + 2.0 * h) + 8.0 * f(x0 + h)
            - 8.0 * f(x0 - h) + f(x0 - 2.0 * h)) / (12.0 * h)


def curvature_fd_general(
    metric_field: MetricField,
    p: StatePoint,
    h: float = _FD_STEP,
    eps: float | None = None,
) -> float:
    """General two-dimensional curvature scalar by nested finite differences.

    Evaluates the full formula for an arbitrary (possibly non-diagonal)
    metric field with 5-point stencils, including the 3x3 determinant term.
    Square roots of a negative determinant run through complex arithmetic;
    the combination is real and the real part is returned.  This path is the
    independent oracle for the exact jet-based curvatures.
    """
    eps = singularity_eps() if eps is None else eps
    s0, x0 = p
    hs = h * max(1.0, abs(s0))
    hx = h * max(1.0, abs(x0))

    def comps(s, x):
        g = metric_field(StatePoint(s, x))
        return g.g11, g.g12, g.g22

    def det(s, x):
        g11, g12, g22 = comps(s, x)
        return g11 * g22 - g12 * g12

    d0 = det(s0, x0)
    g11_0, g12_0, g22_0 = comps(s0, x0)
    scale = max(1.0, abs(g11_0) + abs(g12_0) + abs(g22_0))
    if abs(d0) < eps * scale:
        raise SingularMetricError(f"metric determinant {d0!r} ~ 0 at {p!r}")

    def sqrt_det(s, x):
        return cmath.sqrt(complex(det(s, x)))

    def a_term(s, x):  # (g11,2 - g12,1) / sqrt(det)
        g11_2 = _d1(lambda xx_: comps(s, xx_)[0], x, hx)
        g12_1 = _d1(lambda ss_: comps(ss_, x)[1], s, hs)
        return (g11_2 - g12_1) / sqrt_det(s, x)

    def b_term(s, x):  # (g22,1 - g12,2) / sqrt(det)
        g22_1 = _d1(lambda ss_: comps(ss_, x)[2], s, hs)
        g12_2 = _d1(lambda xx_: comps(s, xx_)[1], x, hx)
        return (g22_1 - g12_2) / sqrt_det(s, x)

    braces = (_d1(lambda xx_: a_term(s0, xx_), x0, hx)
              + _d1(lambda ss_: b_term(ss_, x0), s0, hs))
    first = -braces / sqrt_det(s0, x0)

    d_s = [_d1(lambda ss_: comps(ss_, x0)[i], s0, hs) for i in range(3)]
    d_x = [_d1(lambda xx_: comps(s0, xx_)[i], x0, hx) for i in range(3)]
    h_mat = np.array([[g11_0, g12_0, g22_0], d_s, d_x])
    second = float(np.linalg.det(h_mat)) / (2.0 * d0 * d0)

    return first.real - second
