"""The paper's compact curvature formulas as exact symbolic identities.

``geometry._numerators`` and ``geometry._f_jet_from_m_jet`` run here on
``Jet3``s whose coefficients are sympy expressions, so no formula is
transcribed: for a generic potential M(S, X) the code's R = N / (2 D^2)
equals the Christoffel/Riemann contraction of each metric, and the
free-energy jet in the (T, X) chart gives the same two scalars as the
(S, X) chart.  Every comparison is an exact zero, with no tolerance.
"""

import pytest

from thermocurv.geometry import _f_jet_from_m_jet, _numerators
from thermocurv.jets import Jet3

sp = pytest.importorskip("sympy")


def scalar_curvature(g, coords):
    """The scalar curvature of the 2x2 sympy metric ``g`` in ``coords``: the
    Christoffel symbols, then R^l_ijk and the contraction g^ik R^l_ilk."""
    ginv = g.inv()
    n = 2
    gamma = [[[sum(ginv[k, l] * (sp.diff(g[j, l], coords[i])
                                 + sp.diff(g[i, l], coords[j])
                                 - sp.diff(g[i, j], coords[l]))
                   for l in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]

    def riem(l, i, j, k):
        t = (sp.diff(gamma[l][i][k], coords[j])
             - sp.diff(gamma[l][i][j], coords[k]))
        t += sum(gamma[l][j][m] * gamma[m][i][k]
                 - gamma[l][k][m] * gamma[m][i][j] for m in range(n))
        return t

    ric = sp.Matrix(n, n, lambda i, k: sum(riem(l, i, l, k) for l in range(n)))
    return sum(ginv[i, k] * ric[i, k] for i in range(n) for k in range(n))


def is_zero(expr) -> bool:
    """Whether a rational function of derivatives is identically zero: its
    numerator over one denominator expands to 0."""
    return sp.expand(sp.numer(sp.together(expr))) == 0


def test_numerators_are_the_scalar_curvatures_of_both_metrics():
    # M a generic function: the jet holds its partials to third order
    s, x = sp.symbols("S X")
    m = sp.Function("M")(s, x)
    jet = Jet3(m, *(sp.diff(m, *[s] * i, *[x] * j)
                    for i, j in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                 (3, 0), (2, 1), (1, 2), (0, 3))))
    num_m, num_f = _numerators(jet)
    det_h = jet.ss * jet.xx - jet.sx * jet.sx
    g_m = sp.Matrix([[jet.ss, jet.sx], [jet.sx, jet.xx]])
    g_f = sp.diag(-jet.ss, jet.xx)
    r_m, r_f = scalar_curvature(g_m, (s, x)), scalar_curvature(g_f, (s, x))
    # no fourth partial survives the contraction, so a third-order jet holds both
    assert {d.derivative_count for d in (r_m + r_f).atoms(sp.Derivative)} == {2, 3}
    assert is_zero(num_m / (2 * det_h ** 2) - r_m)
    assert is_zero(num_f / (2 * (jet.ss * jet.xx) ** 2) - r_f)


def test_the_free_energy_chart_gives_the_same_curvatures():
    # the (T, X) jet of F = M - T S, from the jet of M at the root S(T, X)
    m = Jet3(*sp.symbols("M M_S M_X M_SS M_SX M_XX M_SSS M_SSX M_SXX M_XXX"))
    t, s_root = sp.symbols("T S_0")
    f = _f_jet_from_m_jet(m, s_root, t)
    assert f.s == -s_root and f.x == m.x       # F_T = -S, F_X = Y
    # in (T, X) the roles swap: R^F is F's full-Hessian form, R^M its diagonal one
    rf_tx, rm_tx = _numerators(f)
    rm_sx, rf_sx = _numerators(m)
    assert is_zero(rf_tx / (f.ss * f.xx - f.sx ** 2) ** 2 - rf_sx / (m.ss * m.xx) ** 2)
    assert is_zero(rm_tx / (f.ss * f.xx) ** 2 - rm_sx / (m.ss * m.xx - m.sx ** 2) ** 2)
