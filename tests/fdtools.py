"""Independent finite-difference oracles used across the test suite.

Everything here differentiates plain scalar callables with central
stencils; nothing imports the jet machinery it is used to check.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from thermocurv.geometry import MetricTensor2, StatePoint, singularity_eps

MetricField = Callable[[StatePoint], MetricTensor2]

# step sizes per derivative order, scaled by max(1, |coordinate|); the
# third-order stencil is only O(h^2) accurate, so its step balances that
# truncation against the eps*|f|/h^3 roundoff floor
H1 = 1e-3
H2 = 2e-3
H3 = 7e-4


def d1(f, x, h):
    """Five-point first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def d2(f, x, h):
    """Five-point second derivative."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def d3(f, x, h):
    """Five-point third derivative."""
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h ** 3)


def fd_partials(f, s, x, s_scale=None, x_scale=None):
    """All ten partials of f(s, x) through third order, by differencing.

    Mixed partials nest one stencil inside another.  Returns them in the
    jet storage order (v, s, x, ss, sx, xx, sss, ssx, sxx, xxx).  Steps are
    proportional to each coordinate's natural scale (override ``s_scale`` /
    ``x_scale`` when the function varies on a much finer scale than the
    coordinate magnitude, e.g. over a narrow temperature range).
    """
    s_scale = max(1.0, abs(s)) if s_scale is None else s_scale
    x_scale = max(1.0, abs(x)) if x_scale is None else x_scale
    hs1, hx1 = H1 * s_scale, H1 * x_scale
    hs2, hx2 = H2 * s_scale, H2 * x_scale
    hs3, hx3 = H3 * s_scale, H3 * x_scale

    fs = d1(lambda u: f(u, x), s, hs1)
    fx = d1(lambda u: f(s, u), x, hx1)
    fss = d2(lambda u: f(u, x), s, hs2)
    fxx = d2(lambda u: f(s, u), x, hx2)
    fsx = d1(lambda u: d1(lambda w: f(u, w), x, hx1), s, hs1)
    fsss = d3(lambda u: f(u, x), s, hs3)
    fxxx = d3(lambda u: f(s, u), x, hx3)
    fssx = d1(lambda w: d2(lambda u: f(u, w), s, hs2), x, hx1)
    fsxx = d1(lambda u: d2(lambda w: f(u, w), x, hx2), s, hs1)
    return (f(s, x), fs, fx, fss, fsx, fxx, fsss, fssx, fsxx, fxxx)


class SingularMetricError(RuntimeError):
    """Metric determinant too small for a curvature evaluation."""


def curvature_fd_general(
    metric_field: MetricField,
    p: StatePoint,
    h: float = 1e-4,
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
        g11_2 = d1(lambda xx_: comps(s, xx_)[0], x, hx)
        g12_1 = d1(lambda ss_: comps(ss_, x)[1], s, hs)
        return (g11_2 - g12_1) / sqrt_det(s, x)

    def b_term(s, x):  # (g22,1 - g12,2) / sqrt(det)
        g22_1 = d1(lambda ss_: comps(ss_, x)[2], s, hs)
        g12_2 = d1(lambda xx_: comps(s, xx_)[1], x, hx)
        return (g22_1 - g12_2) / sqrt_det(s, x)

    braces = (d1(lambda xx_: a_term(s0, xx_), x0, hx)
              + d1(lambda ss_: b_term(ss_, x0), s0, hs))
    first = -braces / sqrt_det(s0, x0)

    d_s = [d1(lambda ss_: comps(ss_, x0)[i], s0, hs) for i in range(3)]
    d_x = [d1(lambda xx_: comps(s0, xx_)[i], x0, hx) for i in range(3)]
    h_mat = np.array([[g11_0, g12_0, g22_0], d_s, d_x])
    second = float(np.linalg.det(h_mat)) / (2.0 * d0 * d0)

    return first.real - second


def curvature_fd_diagonal(
    metric_field: MetricField,
    p: StatePoint,
    h: float = 1e-4,
    eps: float | None = None,
) -> float:
    """Diagonal-metric specialization of the finite-difference curvature.

    Assumes g12 == 0 identically (the determinant term vanishes then).
    """
    eps = singularity_eps() if eps is None else eps
    s0, x0 = p
    hs = h * max(1.0, abs(s0))
    hx = h * max(1.0, abs(x0))

    def comps(s, x):
        g = metric_field(StatePoint(s, x))
        return g.g11, g.g22

    def det(s, x):
        g11, g22 = comps(s, x)
        return g11 * g22

    d0 = det(s0, x0)
    g11_0, g22_0 = comps(s0, x0)
    if abs(d0) < eps * max(1.0, abs(g11_0) + abs(g22_0)):
        raise SingularMetricError(f"metric determinant {d0!r} ~ 0 at {p!r}")

    def sqrt_det(s, x):
        return cmath.sqrt(complex(det(s, x)))

    def a_term(s, x):  # g11,2 / sqrt(det)
        return d1(lambda xx_: comps(s, xx_)[0], x, hx) / sqrt_det(s, x)

    def b_term(s, x):  # g22,1 / sqrt(det)
        return d1(lambda ss_: comps(ss_, x)[1], s, hs) / sqrt_det(s, x)

    braces = (d1(lambda xx_: a_term(s0, xx_), x0, hx)
              + d1(lambda ss_: b_term(ss_, x0), s0, hs))
    return (-braces / sqrt_det(s0, x0)).real
