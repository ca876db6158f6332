"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time
from contextlib import contextmanager

import numpy as np

from approach_oracle import fit_divergence_exponent
from fdtools import curvature_fd_diagonal, curvature_fd_general
from thermocurv import (StatePoint, conjugacy_scan, curvature_from_f_jet,
                        curvature_from_m_jet, divergence_orders, eval_jet,
                        find_davies_points, get_entry, legendre_at,
                        metric_f_sx, metric_m, responses_at)
from thermocurv.responses import (cap_difference_residual,
                                  kappa_difference_residual,
                                  ratio_identity_residual)
from conftest import closed_form, sample_kerr, sample_quad, sample_rn

S_STAR_KERR = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))


@contextmanager
def criterion(num: int, budget: float, desc: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s)")


def test_criterion_1_rn_golden_curvatures():
    entry = get_entry("reissner-nordstrom")
    f, rm, rf = (closed_form(entry, field)
                 for field in ("reference_f", "reference_rm", "reference_rf"))
    with criterion(1, 1.0, "RN curvatures match closed forms at 1e-9 on 20x20 grid"):
        checked = 0
        for s in np.geomspace(0.5, 10.0, 20):
            s = float(s)
            q_hi = 0.9 * math.sqrt(s / 3.0)
            for q in np.linspace(0.1, q_hi, 20):
                q = float(q)
                if abs(f(s, q)) < 1e-3:
                    continue
                c = curvature_from_m_jet(eval_jet(entry.spec, (s, q)))
                want_rm = rm(s, q)
                want_rf = rf(s, q)
                assert abs(c.r_m - want_rm) <= 1e-9 * abs(want_rm), (s, q)
                assert abs(c.r_f - want_rf) <= 1e-9 * abs(want_rf), (s, q)
                checked += 1
        assert checked >= 390


def test_criterion_2_kerr_flatness():
    entry = get_entry("kerr")
    usable = closed_form(entry, "usable")
    with criterion(2, 1.0, "Kerr mass-metric curvature vanishes at 1e-9 on 20x20 grid"):
        for s in np.geomspace(1.0, 10.0, 20):
            for j in np.geomspace(0.05, 0.45, 20):
                s, j = float(s), float(j)
                assert usable(s, j) > 0.0
                c = curvature_from_m_jet(eval_jet(entry.spec, (s, j)))
                assert abs(c.r_m) / max(1.0, abs(c.r_f)) <= 1e-9, (s, j)


def test_criterion_3_rn_davies_root_and_exponent():
    spec = get_entry("reissner-nordstrom").spec
    with criterion(3, 1.0, "RN divergence-line root, RF exponent -2, finite RM limit"):
        locus = find_davies_points(spec, "cx", fixed="Q", fixed_value=1.0,
                                   sweep=(0.1, 10.0))
        assert len(locus.points) == 1
        root = locus.points[0]
        assert abs(root.s - 3.0) <= 1e-9
        fit_rf = fit_divergence_exponent(spec, root, "rf")
        assert fit_rf.kind == "divergent"
        assert abs(fit_rf.slope + 2.0) <= 0.02
        assert fit_rf.r_squared > 0.999
        fit_rm = fit_divergence_exponent(spec, root, "rm")
        assert fit_rm.kind == "finite"
        assert abs(fit_rm.limit - 2.0 * 3.0 ** 1.5 / 4.0) <= 1e-6
        # what davies prints: read from the jet at the located point
        rm, rf = divergence_orders(locus.jets[0], "cx")
        assert rf.kind == "divergent" and rf.order == -2.0
        assert rm.kind == "finite" and abs(rm.value - 2.0 * 3.0 ** 1.5 / 4.0) <= 1e-12


def test_criterion_4_kerr_davies_root():
    spec = get_entry("kerr").spec
    with criterion(4, 1.0, "Kerr root matches polynomial oracle, RF exponent -2"):
        locus = find_davies_points(spec, "cx", fixed="J", fixed_value=1.0,
                                   sweep=(1.0, 10.0))
        assert len(locus.points) == 1
        assert abs(locus.points[0].s - S_STAR_KERR) <= 1e-8
        fit_rf = fit_divergence_exponent(spec, locus.points[0], "rf")
        assert fit_rf.kind == "divergent"
        assert abs(fit_rf.slope + 2.0) <= 0.02
        rm, rf = divergence_orders(locus.jets[0], "cx")
        assert rf.kind == "divergent" and rf.order == -2.0
        assert rm.kind == "finite" and rm.value == 0.0


def test_criterion_5_identity_suite():
    rng = np.random.default_rng(20)
    cases = [("reissner-nordstrom", sample_rn), ("kerr", sample_kerr),
             ("quadratic-toy", sample_quad)]
    with criterion(5, 1.0, "identity and determinant relations at 1e-9, 100 pts/potential"):
        for name, sampler in cases:
            spec = get_entry(name).spec
            for s, x in sampler(rng, 100):
                p = StatePoint(s, x)
                jet = eval_jet(spec, p)
                rs = responses_at(jet, p)
                assert rs.ok, (name, s, x)
                assert abs(cap_difference_residual(rs)) < 1e-9
                assert abs(kappa_difference_residual(rs)) < 1e-9
                assert abs(ratio_identity_residual(rs)) < 1e-9
                c = curvature_from_m_jet(jet)
                det_gm, det_gf = c.det_gm, c.det_gf
                for det_form in (rs.t / (x * rs.kappa_t * rs.c_x),
                                 rs.t / (x * rs.kappa_s * rs.c_y)):
                    assert abs(det_gm - det_form) / max(abs(det_gm), 1.0) < 1e-9
                assert (abs(det_gf + rs.gamma * det_gm)
                        / max(abs(det_gf), 1.0) < 1e-9)


def test_criterion_6_davies_limit_behavior():
    # the determinant of g^M tends to a finite nonzero limit on the line
    # (the closed-form value there is -M_SQ^2 = -1/108, of order T/X: the
    # ratio to T/X settles to a constant) while |det g^F| * |C_X| holds
    # within 10% of a constant, i.e. det g^F vanishes like 1/C_X
    spec = get_entry("reissner-nordstrom").spec
    with criterion(6, 1.0, "det g^M finite/nonzero on the line, det g^F ~ 1/C_X"):
        dets_gm, ratios, prods = [], [], []
        for j in range(13):           # f halves twelve times
            p = StatePoint(3.0 + 0.4 * 0.5 ** j, 1.0)
            jet = eval_jet(spec, p)
            rs = responses_at(jet, p)
            c = curvature_from_m_jet(jet)
            dets_gm.append(c.det_gm)
            ratios.append(c.det_gm * p.x / rs.t)
            prods.append(abs(c.det_gf) * abs(rs.c_x))
        limit = -1.0 / 108.0          # closed-form determinant on the line
        assert abs(dets_gm[-1] - limit) <= 0.01 * abs(limit)
        assert abs(dets_gm[-1]) > 1e-3                      # non-vanishing
        errs = [abs(d - limit) for d in dets_gm]
        assert all(a > b for a, b in zip(errs, errs[1:]))   # monotone approach
        assert abs(ratios[-1] - ratios[-2]) <= 0.01 * abs(ratios[-1])
        for prod in prods:
            assert abs(prod - prods[-1]) <= 0.10 * abs(prods[-1])


def test_criterion_7_coordinate_invariance():
    spec = get_entry("reissner-nordstrom").spec
    rng = np.random.default_rng(21)
    with criterion(7, 5.0, "F-chart curvatures equal M-chart values at 1e-6, 50 pts"):
        for s, q in sample_rn(rng, 50):
            jet = eval_jet(spec, (s, q))
            cm = curvature_from_m_jet(jet)
            lp = legendre_at(spec, jet.s, q, s_guess=1.15 * s)
            cf = curvature_from_f_jet(lp)
            assert abs(cf.r_m - cm.r_m) <= 1e-6 * abs(cm.r_m), (s, q)
            assert abs(cf.r_f - cm.r_f) <= 1e-6 * abs(cm.r_f), (s, q)


def test_criterion_8_fd_oracle_equivalence():
    rng = np.random.default_rng(22)
    cases = [("reissner-nordstrom", sample_rn), ("kerr", sample_kerr),
             ("quadratic-toy", sample_quad)]
    with criterion(8, 30.0, "finite-difference curvature agrees with exact paths"):
        for name, sampler in cases:
            spec = get_entry(name).spec
            m_field = lambda p: metric_m(eval_jet(spec, p))
            f_field = lambda p: metric_f_sx(eval_jet(spec, p))
            for s, x in sampler(rng, 20):
                p = StatePoint(s, x)
                exact = curvature_from_m_jet(eval_jet(spec, p))
                fd_m = curvature_fd_general(m_field, p)
                fd_f = curvature_fd_general(f_field, p)
                assert abs(fd_m - exact.r_m) <= 1e-3 * max(1.0, abs(exact.r_m))
                assert abs(fd_f - exact.r_f) <= 1e-3 * max(1.0, abs(exact.r_f))
                # diagonal specialization against the general formula
                fd_diag = curvature_fd_diagonal(f_field, p)
                assert abs(fd_diag - fd_f) <= 1e-6 * max(1.0, abs(fd_f))


def test_criterion_9_turning_point_correspondence():
    with criterion(9, 5.0, "conjugacy turning points coincide with line roots"):
        for name, fixed, sweep in (("reissner-nordstrom", "Q", (0.5, 10.0)),
                                   ("kerr", "J", (2.5, 10.0))):
            spec = get_entry(name).spec
            locus = find_davies_points(spec, "cx", fixed=fixed,
                                       fixed_value=1.0, sweep=sweep)
            scan = conjugacy_scan(spec, "fixed-x", fixed_value=1.0, sweep=sweep)
            assert len(locus.points) == 1
            assert len(scan.turning_points) == 1
            assert abs(locus.points[0].s - scan.turning_points[0]) <= 1e-9
