import math

import numpy as np
import pytest
from scipy import optimize

from fdtools import H1, d1
from thermocurv import (StatePoint, curvature_from_m_jet, eval_jet, eval_scalar,
                        metric_from_responses, metric_m, parse_potential, responses_at)
from thermocurv.responses import (NotApplicableError, cap_difference_residual,
                                  kappa_difference_residual,
                                  ratio_identity_residual)
from conftest import sample_kerr, sample_quad, sample_rn


def test_quadratic_point(quad):
    p = StatePoint(1.0, 2.0)
    rs = responses_at(eval_jet(quad.spec, p), p)
    assert rs.t == 1.0 and rs.y == 2.0
    assert rs.c_x == 1.0 and rs.c_y == 1.0
    assert rs.alpha == 0.0
    assert rs.kappa_s == pytest.approx(0.5, abs=1e-15)
    assert rs.kappa_t == pytest.approx(0.5, abs=1e-15)
    assert rs.gamma == 1.0
    assert rs.ok


def test_a_hessian_singular_in_every_direction_raises():
    # M = S + X is flat: M_SS = M_SX = M_XX = 0, and no response is defined
    p = StatePoint(1.0, 2.0)
    with pytest.raises(ValueError, match="Hessian singular in every direction"):
        responses_at(eval_jet(parse_potential("S + X"), p), p)


def test_rn_zero_charge_heat_capacity(rn):
    # T/M_SS = 0.25 / (-1/8) = -2: negative heat capacity in this limit;
    # the susceptibilities are undefined at X = 0 and come back flagged
    p = StatePoint(1.0, 0.0)
    jet = eval_jet(rn.spec, (1.0, 1e-300))  # potential domain is open at 0
    rs = responses_at(jet, p)
    assert rs.c_x == pytest.approx(-2.0, rel=1e-12)
    assert math.isnan(rs.kappa_t) and math.isnan(rs.alpha)
    assert "undef:X" in rs.flags


def test_negative_x_rejected(rn):
    jet = eval_jet(rn.spec, (1.0, 0.5))
    with pytest.raises(ValueError):
        responses_at(jet, StatePoint(1.0, -0.5))


def test_divergence_flags_on_capacity_line(rn):
    p = StatePoint(3.0, 1.0)
    rs = responses_at(eval_jet(rn.spec, p), p)
    assert "div:CX" in rs.flags
    assert abs(rs.c_x) > 1e10 or math.isinf(rs.c_x)
    assert abs(rs.kappa_t) < 1e-12   # kappa_T vanishes where C_X diverges
    assert math.isnan(cap_difference_residual(rs))  # not-applicable signal


def _oracle_responses(spec, s0, x0):
    """Response functions by differencing numerical equation-of-state solves;
    shares nothing with the jet pipeline beyond the potential itself."""
    def t_of(s, x):
        return d1(lambda u: eval_scalar(spec, (u, x)), s, H1 * s)

    def y_of(s, x):
        return d1(lambda u: eval_scalar(spec, (s, u)), x, H1 * max(1.0, x))

    t0, y0 = t_of(s0, x0), y_of(s0, x0)

    def x_on_const_y(s, y):
        return optimize.brentq(lambda u: y_of(s, u) - y,
                               x0 * 0.5, x0 * 1.5, xtol=1e-13, rtol=1e-15)

    def state_at(t, y):
        s = optimize.brentq(lambda v: t_of(v, x_on_const_y(v, y)) - t,
                            s0 * 0.95, s0 * 1.05, xtol=1e-12, rtol=1e-15)
        return s, x_on_const_y(s, y)

    ht = 1e-4 * abs(t0)
    hy = 1e-4 * max(1.0, abs(y0))

    def s_at_const_y(t):
        return state_at(t, y0)[0]

    def x_at_const_y(t):
        return state_at(t, y0)[1]

    def x_at_const_t(y):
        return state_at(t0, y)[1]

    def x_at_const_s(y):
        return optimize.brentq(
            lambda u: y_of(s0, u) - y, x0 * 0.5, x0 * 1.5, xtol=1e-14)

    c_x = t0 / d1(lambda s: t_of(s, x0), s0, 1e-4 * s0)           # T (dS/dT)_X
    c_y = t0 * d1(s_at_const_y, t0, ht)                           # T (dS/dT)_Y
    alpha = d1(x_at_const_y, t0, ht) / x0                         # X^-1 (dX/dT)_Y
    kappa_t = d1(x_at_const_t, y0, hy) / x0                       # X^-1 (dX/dY)_T
    kappa_s = d1(x_at_const_s, y0, hy) / x0                       # X^-1 (dX/dY)_S
    return t0, y0, c_x, c_y, alpha, kappa_t, kappa_s


@pytest.mark.parametrize("name,point", [
    ("reissner-nordstrom", (1.0, 0.5)),
    ("kerr", (25.0, 1.0)),
])
def test_responses_match_solver_oracle(name, point, rn, kerr):
    entry = {"reissner-nordstrom": rn, "kerr": kerr}[name]
    p = StatePoint(*point)
    rs = responses_at(eval_jet(entry.spec, p), p)
    t0, y0, c_x, c_y, alpha, kappa_t, kappa_s = _oracle_responses(
        entry.spec, *point)
    assert rs.t == pytest.approx(t0, rel=1e-8)
    assert rs.y == pytest.approx(y0, rel=1e-8)
    assert rs.c_x == pytest.approx(c_x, rel=1e-6)
    assert rs.c_y == pytest.approx(c_y, rel=1e-6)
    assert rs.alpha == pytest.approx(alpha, rel=1e-5)
    assert rs.kappa_t == pytest.approx(kappa_t, rel=1e-5)
    assert rs.kappa_s == pytest.approx(kappa_s, rel=1e-5)


def test_identities_at_spot_points(rn, kerr, quad):
    for spec, pt in ((quad.spec, (1.4, 2.2)), (rn.spec, (1.0, 0.5)),
                     (kerr.spec, (25.0, 1.0))):
        p = StatePoint(*pt)
        rs = responses_at(eval_jet(spec, p), p)
        assert abs(cap_difference_residual(rs)) < 1e-10
        assert abs(kappa_difference_residual(rs)) < 1e-10
        assert abs(ratio_identity_residual(rs)) < 1e-10


def test_identities_on_random_points(rn, kerr, quad):
    rng = np.random.default_rng(12)
    for spec, sampler in ((rn.spec, sample_rn), (kerr.spec, sample_kerr),
                          (quad.spec, sample_quad)):
        for s, x in sampler(rng, 100):
            p = StatePoint(s, x)
            rs = responses_at(eval_jet(spec, p), p)
            if not rs.ok:
                continue
            assert abs(cap_difference_residual(rs)) < 1e-9
            assert abs(kappa_difference_residual(rs)) < 1e-9
            assert abs(ratio_identity_residual(rs)) < 1e-9


def test_metric_reconstruction_from_responses(rn, quad):
    for spec, pt in ((rn.spec, (1.0, 0.5)), (quad.spec, (1.0, 2.0))):
        p = StatePoint(*pt)
        jet = eval_jet(spec, p)
        rebuilt = metric_from_responses(responses_at(jet, p))
        direct = metric_m(jet)
        for a, b in zip(rebuilt[:3], direct[:3]):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-14)


def test_determinant_relations(rn, kerr):
    rng = np.random.default_rng(13)
    for spec, sampler in ((rn.spec, sample_rn), (kerr.spec, sample_kerr)):
        for s, x in sampler(rng, 50):
            p = StatePoint(s, x)
            jet = eval_jet(spec, p)
            rs = responses_at(jet, p)
            if not rs.ok:
                continue
            curv = curvature_from_m_jet(jet)
            det_gm, det_gf = curv.det_gm, curv.det_gf
            # det g^M in response form, both equalities
            assert det_gm == pytest.approx(
                rs.t / (x * rs.kappa_t * rs.c_x), rel=1e-9)
            assert det_gm == pytest.approx(
                rs.t / (x * rs.kappa_s * rs.c_y), rel=1e-9)
            # det g^F = -gamma det g^M, gamma = C_Y / C_X = kappa_T / kappa_S
            assert det_gf == pytest.approx(-rs.gamma * det_gm, rel=1e-10)
            assert rs.gamma == pytest.approx(rs.c_y / rs.c_x, rel=1e-12)
            assert rs.gamma == pytest.approx(rs.kappa_t / rs.kappa_s, rel=1e-10)


def test_metric_from_responses_not_applicable_on_line(rn):
    p = StatePoint(3.0, 1.0)
    rs = responses_at(eval_jet(rn.spec, p), p)
    with pytest.raises(NotApplicableError):
        metric_from_responses(rs)


def test_capacity_line_limit_trends(rn):
    """Approaching the divergence line at fixed charge: det g^M stays finite
    and nonzero (the response-form product kappa_T * C_X stays of order
    T / (X det g^M)) while det g^F shrinks like 1 / C_X."""
    q = 1.0
    dets_gm, prods, ratios = [], [], []
    for j in range(13):
        f = 0.4 * 0.5 ** j
        p = StatePoint(3.0 + f, q)
        jet = eval_jet(rn.spec, p)
        rs = responses_at(jet, p)
        curv = curvature_from_m_jet(jet)
        dets_gm.append(curv.det_gm)
        prods.append(abs(curv.det_gf) * abs(rs.c_x))
        ratios.append(curv.det_gm * p.x / rs.t)
    # finite nonzero limit: exact closed-form determinant at the line is
    # -M_SQ^2 = -Q^2/(4 S^3) = -1/108
    assert dets_gm[-1] == pytest.approx(-1.0 / 108.0, rel=0.01)
    assert abs(dets_gm[-1]) > 1e-3
    # trend toward the limit is monotone
    errs = [abs(d + 1.0 / 108.0) for d in dets_gm]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # scaled ratio det g^M / (T/X) settles to a constant (within 1% per step)
    assert abs(ratios[-1] - ratios[-2]) <= 0.01 * abs(ratios[-1])
    # |det g^F| ~ 1/C_X: the product stays within 10% of its limit
    for prod in prods:
        assert abs(prod - prods[-1]) <= 0.10 * abs(prods[-1])
    # while det g^F itself tends to zero (M_SS shrank by ~2^-12)
    dets_gf = [abs(eval_jet(rn.spec, StatePoint(3.0 + 0.4 * 0.5 ** j, q)).ss)
               for j in range(13)]
    assert dets_gf[-1] < 1e-3 * dets_gf[0]
