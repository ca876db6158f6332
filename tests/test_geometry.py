import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtools import H1, H2, H3, curvature_fd_diagonal, d1, d2, d3, fd_partials
from thermocurv import (LegendreSingularError, StatePoint, curvature_fd_general,
                        curvature_from_f_jet, curvature_from_m_jet, eval_jet,
                        get_entry, legendre_at, metric_f_sx, metric_m,
                        parse_potential)
from thermocurv.jets import Jet3
from thermocurv.geometry import (MetricTensor2, NoBracketError,
                                 SingularMetricError, hessian_scale)
from conftest import sample_kerr, sample_quad, sample_rn


def rn_rm(s, q):
    return 2.0 * s ** 1.5 / (s - q * q) ** 2


def rn_rf(s, q):
    return 4.0 * s ** 1.5 / (s - 3.0 * q * q) ** 2


def test_metric_components(rn, quad):
    jq = eval_jet(quad.spec, (1.0, 2.0))
    assert metric_m(jq)[:3] == (1.0, 0.0, 1.0)
    assert metric_f_sx(jq)[:3] == (-1.0, 0.0, 1.0)

    jr = eval_jet(rn.spec, (1.0, 1e-14))
    g = metric_m(jr)
    assert g.g11 == pytest.approx(-0.125, rel=1e-12)
    assert g.g12 == pytest.approx(0.0, abs=1e-13)
    assert g.g22 == pytest.approx(1.0, rel=1e-12)


def test_metric_f_cross_term_is_exactly_zero(rn, kerr):
    rng = np.random.default_rng(0)
    for spec in (rn.spec, kerr.spec):
        for s, x in sample_rn(rng, 10):
            g = metric_f_sx(eval_jet(spec, (s, x)))
            assert g.g12 == 0.0
            jet = eval_jet(spec, (s, x))
            assert g.det == -(jet.ss * jet.xx)   # exactly, no cross term


def test_kerr_metric_m_at_zero_momentum_limit(kerr):
    s = 2.0
    jet = eval_jet(kerr.spec, (s, 1e-13))
    assert jet.ss == pytest.approx(-s ** -1.5 / 8.0, rel=1e-9)


def test_flat_potential_curvatures(quad):
    c = curvature_from_m_jet(eval_jet(quad.spec, (1.3, 0.8)))
    assert c.r_m == 0.0 and c.r_f == 0.0
    assert c.flags == ()


def test_rn_curvatures_match_closed_forms(rn):
    c = curvature_from_m_jet(eval_jet(rn.spec, (1.0, 0.5)))
    assert c.r_m == pytest.approx(32.0 / 9.0, rel=1e-12)
    assert c.r_f == pytest.approx(64.0, rel=1e-12)
    assert c.det_gm == pytest.approx(-3.0 / 32.0, rel=1e-14)
    assert c.det_gf == pytest.approx(1.0 / 32.0, rel=1e-14)


def test_kerr_mass_metric_is_flat(kerr):
    rng = np.random.default_rng(1)
    for s, j in sample_kerr(rng, 10):
        c = curvature_from_m_jet(eval_jet(kerr.spec, (s, j)))
        assert abs(c.r_m) <= 1e-9 * max(1.0, abs(c.r_f))


def test_divergence_flags_on_the_heat_capacity_line(rn):
    c = curvature_from_m_jet(eval_jet(rn.spec, (3.0, 1.0)))
    assert "div:RF" in c.flags          # M_SS == 0 there
    assert math.isinf(c.r_f) or abs(c.r_f) > 1e12
    eps_big = curvature_from_m_jet(eval_jet(rn.spec, (3.1, 1.0)), eps=1e-2)
    assert "div:RF" in eps_big.flags    # configurable epsilon widens the band


def curvature_hessian_form(jet: Jet3) -> float:
    """Curvature of the Hessian metric via the 3x3 determinant form.

    Algebraically identical to the explicit polynomial used by
    :func:`curvature_from_m_jet`; kept as a transcription guard.
    """
    h = np.array([
        [jet.ss, jet.sx, jet.xx],
        [jet.sss, jet.ssx, jet.sxx],
        [jet.ssx, jet.sxx, jet.xxx],
    ])
    det_g = jet.ss * jet.xx - jet.sx * jet.sx
    return -float(np.linalg.det(h)) / (2.0 * det_g * det_g)


def test_hessian_determinant_form_consistency(rn, kerr, quad):
    rng = np.random.default_rng(2)
    for spec, sampler in ((rn.spec, sample_rn), (kerr.spec, sample_kerr),
                          (quad.spec, sample_quad)):
        for s, x in sampler(rng, 50):
            jet = eval_jet(spec, (s, x))
            a = curvature_hessian_form(jet)
            b = curvature_from_m_jet(jet).r_m
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


# -- Legendre transform ---------------------------------------------------------

def test_legendre_quadratic(quad):
    lp = legendre_at(quad.spec, 0.7, 1e-9, s_guess=1.0)
    assert lp.s_of_tx == pytest.approx(0.7, abs=1e-12)
    assert lp.f_value == pytest.approx(-0.245, abs=1e-12)
    assert lp.f_jet.s == pytest.approx(-0.7, abs=1e-12)   # F_T = -S
    assert lp.f_jet.ss == pytest.approx(-1.0, abs=1e-12)  # F_TT = -1/M_SS


def test_legendre_inverts_rn_temperature(rn):
    # with no charge, T = 1/(4 sqrt(S)); t = 0.125 inverts to S = 4
    lp = legendre_at(rn.spec, 0.125, 1e-14, s_guess=2.0)
    assert lp.s_of_tx == pytest.approx(4.0, rel=1e-12)
    assert lp.residual <= 1e-12


def test_legendre_identities_and_fd_oracle(rn):
    s0, x0 = 2.0, 0.6
    jet = eval_jet(rn.spec, (s0, x0))
    t0 = jet.s
    lp = legendre_at(rn.spec, t0, x0, s_guess=1.5)
    assert lp.s_of_tx == pytest.approx(s0, rel=1e-10)
    assert lp.f_jet.s == pytest.approx(-s0, rel=1e-10)    # F_T = -S
    assert lp.f_jet.x == pytest.approx(jet.x, rel=1e-10)  # F_X = Y

    # oracle: difference fresh Legendre solves of F over a (T, X) stencil;
    # the temperature only spans ~0.1 here, so steps scale with |t0|
    def f_of(t, x):
        return legendre_at(rn.spec, t, x, s_guess=lp.s_of_tx).f_value

    fd = fd_partials(f_of, t0, x0, s_scale=abs(t0))
    for k, (got, want) in enumerate(zip(lp.f_jet.coeffs(), fd)):
        tol = 1e-6 if k < 6 else 2e-4   # third-order differencing is coarser
        assert got == pytest.approx(want, rel=tol, abs=tol)


def test_legendre_no_bracket(rn):
    # at Q = 1 the temperature maxes out near 0.096; t = 10 has no root
    with pytest.raises(NoBracketError):
        legendre_at(rn.spec, 10.0, 1.0, s_guess=2.0)


def test_legendre_refines_the_sign_change_its_steps_crossed():
    # T = sign(S-2) |S-2|^(1/10) is so steep at S = 2 that the first Halley
    # step from S = 2.5 lands across the root 2 + 2^-10 without cutting the
    # residual by a tenth; the bracket of that step holds the root.  A fresh
    # search from the guess with 5% steps would sample S = 2, where this
    # T is undefined
    spec = parse_potential("((S-2)^2)^(11/20)*10/11 + X^2", name="cusp")
    lp = legendre_at(spec, 0.5, 1.0, s_guess=2.5)
    assert lp.s_of_tx == pytest.approx(2.0 + 2.0 ** -10, rel=1e-12)


def test_legendre_bracket_passes_a_pole_of_the_temperature():
    # T = S^2/2 - 1/(S-2)^2 stays below -1/4 left of its pole at S = 2, so
    # Halley stalls there; the samples 1.995 and 2.09 straddle the pole,
    # where M_SS flips sign through infinity and no extremum can be found.
    # The search goes on to the sign change between 2.66 and 3.42
    spec = parse_potential("S^3/6 + 1/(S-2) + X^2", name="pole")
    lp = legendre_at(spec, 2.0, 1.0, s_guess=1.9)
    assert 2.66 < lp.s_of_tx < 3.42
    assert abs(eval_jet(spec, (lp.s_of_tx, 1.0)).s - 2.0) <= 1e-12 * 2.0


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-12])
def test_legendre_root_beside_the_rn_hump(rn, scale):
    # from S = 5 the bracket samples reach S = 1, where T(1, 0.5) is hit
    # exactly; T slightly above it lies above every doubling sample from
    # S = 5 down to S = 1 and above S = 0.5, halfway to the bound S = 0:
    # that root, just below S = 1, sits behind the hump of T(S) at S = 0.75
    t = eval_jet(rn.spec, (1.0, 0.5)).s * scale
    lp = legendre_at(rn.spec, t, 0.5, s_guess=5.0)
    assert abs(eval_jet(rn.spec, (lp.s_of_tx, 0.5)).s - t) <= 1e-9 * max(1.0, abs(t))
    assert lp.s_of_tx == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("name, t, x, guess, root", [
    # T(S) peaks between the roots 3.46 and 5.82; the bracket's doubling
    # samples around the guess (7.63 and 2.54 among them) all lie below t
    ("kerr", 0.0907272317056625, 0.858679383006048, 12.718465943278032,
     5.822838711073478),
    # Halley stalls on the flat tail of T(S) far above the roots 0.76 and
    # 1.28; the bracket samples halving toward S = 0 jump over both
    ("reissner-nordstrom", 0.16532082688805302, 0.5672965934538947,
     414.0836137901765, 1.2843353856053021),
])
def test_legendre_brackets_a_hump_of_the_temperature(name, t, x, guess, root):
    spec = get_entry(name).spec
    lp = legendre_at(spec, t, x, s_guess=guess)
    assert lp.s_of_tx == pytest.approx(root, rel=1e-9)
    assert abs(eval_jet(spec, (lp.s_of_tx, x)).s - t) <= 1e-12


@st.composite
def legendre_cases(draw):
    """(entry name, T, X, guess): a state off the C_X line on either branch
    of T(S), with a guess up to e^+-1.5 away from its entropy."""
    name = draw(st.sampled_from(["reissner-nordstrom", "kerr"]))
    if name == "reissner-nordstrom":   # T > 0 for S > Q^2, C_X line S = 3 Q^2
        x = draw(st.floats(0.2, 1.5))
        t_zero, line = x * x, 3.0 * x * x
    else:                              # T > 0 for S > 2 J, C_X line S ~ 5.09 J
        x = draw(st.floats(0.1, 1.0))
        t_zero, line = 2.0 * x, math.sqrt(12.0 + 8.0 * math.sqrt(3.0)) * x
    if draw(st.booleans()):
        s0 = line * draw(st.floats(1.3, 6.0))
    else:
        s0 = t_zero * draw(st.floats(1.1, line / t_zero / 1.3))
    return name, s0, x, s0 * math.exp(draw(st.floats(-1.5, 1.5)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(legendre_cases())
def test_legendre_round_trip(case):
    name, s0, x, guess = case
    spec = get_entry(name).spec
    t = eval_jet(spec, (s0, x)).s
    lp = legendre_at(spec, t, x, s_guess=guess)
    m = eval_jet(spec, (lp.s_of_tx, x))
    assert abs(m.s - t) <= 1e-9 * max(1.0, abs(t))
    assert abs(m.ss) >= 1e-10 * hessian_scale(m)
    cf, cm = curvature_from_f_jet(lp), curvature_from_m_jet(m)
    assert cf.r_m == pytest.approx(cm.r_m, rel=1e-8, abs=1e-8)
    assert cf.r_f == pytest.approx(cm.r_f, rel=1e-8, abs=1e-8)


def test_legendre_singular_at_capacity_divergence():
    # M_S = (S-1)^3: at t = 0 the solve lands where M_SS vanishes too
    spec = parse_potential("(S - 1)^4/4 + X^2/2", ("S", "X"),
                           domain={"S": (None, None), "X": (None, None)})
    with pytest.raises(LegendreSingularError):
        legendre_at(spec, 0.0, 1.0, s_guess=1.2, eps=1e-4)


def test_curvature_coordinate_invariance(rn):
    jet = eval_jet(rn.spec, (1.0, 0.5))
    lp = legendre_at(rn.spec, jet.s, 0.5, s_guess=1.4)
    cf = curvature_from_f_jet(lp)
    assert cf.chart == "TX"
    assert cf.r_m == pytest.approx(32.0 / 9.0, rel=1e-6)
    assert cf.r_f == pytest.approx(64.0, rel=1e-6)
    # determinants transform with the squared Jacobian M_SS
    cm = curvature_from_m_jet(jet)
    assert cf.det_gm * jet.ss ** 2 == pytest.approx(cm.det_gm, rel=1e-9)
    assert cf.det_gf * jet.ss ** 2 == pytest.approx(cm.det_gf, rel=1e-9)


# -- finite-difference curvature oracle ------------------------------------------

def test_fd_curvature_flat_field():
    field = lambda p: MetricTensor2(1.0, 0.0, 1.0)
    assert curvature_fd_general(field, StatePoint(1.0, 1.0)) == 0.0
    assert curvature_fd_diagonal(field, StatePoint(1.0, 1.0)) == 0.0


def test_fd_curvature_matches_closed_form_on_mass_metric(rn):
    field = lambda p: metric_m(eval_jet(rn.spec, p))
    got = curvature_fd_general(field, StatePoint(1.0, 0.5))
    assert got == pytest.approx(rn_rm(1.0, 0.5), rel=1e-4)


def test_fd_curvature_matches_closed_form_on_free_energy_metric(rn):
    field = lambda p: metric_f_sx(eval_jet(rn.spec, p))
    got = curvature_fd_general(field, StatePoint(1.0, 0.5))
    assert got == pytest.approx(rn_rf(1.0, 0.5), rel=1e-4)


def test_fd_diagonal_specialization_agrees_with_general(rn):
    field = lambda p: metric_f_sx(eval_jet(rn.spec, p))
    rng = np.random.default_rng(4)
    for s, q in sample_rn(rng, 5):
        p = StatePoint(s, q)
        general = curvature_fd_general(field, p)
        diagonal = curvature_fd_diagonal(field, p)
        assert abs(general - diagonal) <= 1e-6 * max(1.0, abs(general))


def test_fd_curvature_singular_determinant(rn):
    field = lambda p: metric_m(eval_jet(rn.spec, p))
    with pytest.raises(SingularMetricError):
        curvature_fd_general(field, StatePoint(1.0, 1.0))  # det g^M = 0 there


def test_fd_helper_stencils():
    # the shared stencil helpers themselves, on a known function
    f = math.sin
    assert d1(f, 0.3, H1) == pytest.approx(math.cos(0.3), rel=1e-9)
    assert d2(f, 0.3, H2) == pytest.approx(-math.sin(0.3), rel=1e-8)
    assert d3(f, 0.3, H3) == pytest.approx(-math.cos(0.3), rel=1e-5)
    got = fd_partials(lambda s, x: s * s * x, 1.0, 2.0)
    assert got[3] == pytest.approx(4.0, rel=1e-8)   # f_ss = 2x
    assert got[4] == pytest.approx(2.0, rel=1e-7)   # f_sx = 2s
