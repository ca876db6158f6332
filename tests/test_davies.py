import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocurv import (ConditioningWarning, DomainError, StatePoint,
                        conjugacy_scan, davies, eval_jet, find_davies_points,
                        fit_divergence_exponent, get_entry, parse_potential,
                        responses_at)
from thermocurv._roots import (NoBracketError, expand_bracket, refine_bracket,
                               solve_lanes)
from thermocurv.cli import main
from thermocurv.jets import batch


def test_rn_capacity_line_root(rn):
    locus = find_davies_points(rn.spec, "cx", fixed="Q", fixed_value=1.0,
                               sweep=(0.1, 10.0))
    assert len(locus.points) == 1
    root = locus.points[0]
    assert root.s == pytest.approx(3.0, abs=1e-9)
    assert root.x == 1.0
    # stored point satisfies the residual contract with a sign-change bracket
    info = locus.brackets[0]
    assert info.lo < root.s < info.hi
    assert (info.f_lo > 0) != (info.f_hi > 0)
    assert info.residual <= 1e-12 * max(1.0, abs(info.f_lo), abs(info.f_hi))


def test_kerr_capacity_line_root_vs_polynomial_oracle(kerr):
    # independent oracle: M_SS's numerator is a quadratic in S^2, so the
    # in-domain root is sqrt(12 + 8 sqrt(3)) for J = 1
    s_star = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))
    locus = find_davies_points(kerr.spec, "cx", fixed="J", fixed_value=1.0,
                               sweep=(1.0, 10.0))
    assert len(locus.points) == 1
    assert locus.points[0].s == pytest.approx(s_star, abs=1e-8)


def test_flat_potential_has_empty_locus(quad):
    locus = find_davies_points(quad.spec, "cx", fixed="X", fixed_value=1.0,
                               sweep=(0.1, 10.0))
    assert locus.points == ()
    assert locus.rejected == ()


def test_rn_constant_y_line_is_only_the_extremal_boundary(rn):
    # det H = -(S - Q^2)/(8 S^3) vanishes only where T = 0; that crossing is
    # rejected rather than reported as a divergence line
    locus = find_davies_points(rn.spec, "cy", fixed="Q", fixed_value=1.0,
                               sweep=(0.2, 10.0))
    assert locus.points == ()
    assert len(locus.rejected) == 1
    assert locus.rejected[0].s == pytest.approx(1.0, abs=1e-6)


def test_cy_toy_constant_y_line(cy_toy):
    # det H = 1 + S - X^2 crosses zero at S = X^2 - 1 with T > 0
    locus = find_davies_points(cy_toy, "cy", fixed="X", fixed_value=1.5,
                               sweep=(0.2, 4.0))
    assert len(locus.points) == 1
    assert locus.points[0].s == pytest.approx(1.25, abs=1e-10)


def test_rn_divergence_exponents(rn):
    root = StatePoint(3.0, 1.0)
    fit_rf = fit_divergence_exponent(rn.spec, root, "rf")
    assert fit_rf.kind == "divergent"
    assert fit_rf.slope == pytest.approx(-2.0, abs=0.02)
    assert fit_rf.r_squared > 0.999
    assert len(fit_rf.window) >= 6
    assert max(fit_rf.window) / min(fit_rf.window) >= 100.0  # two decades

    fit_rm = fit_divergence_exponent(rn.spec, root, "rm")
    assert fit_rm.kind == "finite"
    # closed form 2 S^{3/2} / (S - Q^2)^2 at the root
    assert fit_rm.limit == pytest.approx(2.0 * 3.0 ** 1.5 / 4.0, abs=1e-6)


def test_kerr_divergence_exponents(kerr):
    s_star = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))
    root = StatePoint(s_star, 1.0)
    fit_rf = fit_divergence_exponent(kerr.spec, root, "rf")
    assert fit_rf.kind == "divergent"
    assert fit_rf.slope == pytest.approx(-2.0, abs=0.02)
    assert fit_rf.r_squared > 0.999
    fit_rm = fit_divergence_exponent(kerr.spec, root, "rm")
    assert fit_rm.kind == "finite"
    assert abs(fit_rm.limit) <= 1e-9


def test_complementary_divergence(rn, kerr, cy_toy):
    """Where the constant-X capacity diverges, only the free-energy curvature
    blows up; on a constant-Y line the roles swap."""
    for spec, root in ((rn.spec, StatePoint(3.0, 1.0)),
                       (kerr.spec, StatePoint(math.sqrt(12 + 8 * math.sqrt(3)), 1.0))):
        rf = fit_divergence_exponent(spec, root, "rf")
        rm = fit_divergence_exponent(spec, root, "rm")
        assert rf.kind == "divergent" and rf.slope <= -1.0 and rf.r_squared > 0.99
        assert rm.kind == "finite"
    # reversed statement, exercised on the synthetic constant-Y line
    root = StatePoint(1.25, 1.5)
    rm = fit_divergence_exponent(cy_toy, root, "rm", which_line="cy")
    rf = fit_divergence_exponent(cy_toy, root, "rf", which_line="cy")
    assert rm.kind == "divergent" and rm.slope <= -1.0 and rm.r_squared > 0.99
    assert rf.kind == "finite"
    # R^F limit from the closed form -1/(2 (1 + S)^2) of this potential
    assert rf.limit == pytest.approx(-1.0 / (2.0 * 2.25 ** 2), rel=1e-6)


def test_kappa_t_vanishes_on_approach(rn):
    """kappa_T decreases monotonically to < 1e-6 while C_Y, alpha and T hold
    within 1% of their limiting values on the inner part of the approach."""
    pts = [StatePoint(3.0 + 0.1 * 0.5 ** j, 1.0) for j in range(18)]
    sets = [responses_at(eval_jet(rn.spec, p), p) for p in pts]
    kappas = [abs(rs.kappa_t) for rs in sets]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] < 1e-6
    limit = sets[-1]
    for rs in sets:
        if 3.0 + 1e-12 < rs.point.s <= 3.01:   # inner window f <= 1e-2
            assert abs(rs.c_y - limit.c_y) <= 0.01 * abs(limit.c_y)
            assert abs(rs.alpha - limit.alpha) <= 0.01 * abs(limit.alpha)
            assert abs(rs.t - limit.t) <= 0.01 * abs(limit.t)


def test_conjugacy_turning_points(rn, kerr, quad):
    scan = conjugacy_scan(rn.spec, "fixed-x", fixed_value=1.0, sweep=(1.5, 10.0))
    assert len(scan.turning_points) == 1
    assert scan.turning_points[0] == pytest.approx(3.0, abs=1e-9)
    # the series is ordered in the sweep parameter and samples (T, S)
    svals = [s for _, s in scan.series]
    assert svals == sorted(svals)
    t_at_2 = eval_jet(rn.spec, (svals[0], 1.0)).s
    assert scan.series[0][0] == pytest.approx(t_at_2, rel=1e-12)

    s_star = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))
    scan_k = conjugacy_scan(kerr.spec, "fixed-x", fixed_value=1.0,
                            sweep=(2.5, 10.0))
    assert len(scan_k.turning_points) == 1
    assert scan_k.turning_points[0] == pytest.approx(s_star, abs=1e-9)

    assert conjugacy_scan(quad.spec, "fixed-x", fixed_value=1.0,
                          sweep=(0.5, 5.0)).turning_points == ()


def test_turning_points_coincide_with_locus(rn, kerr):
    for spec, fixed, sweep in ((rn.spec, "Q", (0.5, 10.0)),
                               (kerr.spec, "J", (2.5, 10.0))):
        locus = find_davies_points(spec, "cx", fixed=fixed, fixed_value=1.0,
                                   sweep=sweep)
        scan = conjugacy_scan(spec, "fixed-x", fixed_value=1.0, sweep=sweep)
        assert len(locus.points) == len(scan.turning_points)
        for pt, turn in zip(locus.points, scan.turning_points):
            assert abs(pt.s - turn) <= 1e-9


def test_fixed_y_series_turning_point_matches_cy_line(cy_toy):
    # along constant Y the turning point of T(S) sits on the constant-Y
    # divergence line: Y = X (1 + S) = 3.375 gives (1+S)^3 = Y^2 -> S = 1.25
    y0 = eval_jet(cy_toy, (1.25, 1.5)).x
    scan = conjugacy_scan(cy_toy, "fixed-y", fixed_value=y0, sweep=(0.3, 3.0),
                          x_guess=1.5)
    assert len(scan.turning_points) == 1
    assert scan.turning_points[0] == pytest.approx(1.25, abs=1e-9)


def test_fixed_y_refinement_without_an_x_root_drops_the_turning_point(cy_toy, monkeypatch):
    # an X that cannot be solved inside the refinement is a gap, as in the
    # series: the scan goes on without that turning point
    y0 = eval_jet(cy_toy, (1.25, 1.5)).x
    want = conjugacy_scan(cy_toy, "fixed-y", fixed_value=y0, sweep=(0.3, 3.0), x_guess=1.5)

    def unreachable(*args, **kwargs):
        raise NoBracketError("Y out of reach")
    monkeypatch.setattr(davies, "solve_near", unreachable)
    scan = conjugacy_scan(cy_toy, "fixed-y", fixed_value=y0, sweep=(0.3, 3.0), x_guess=1.5)
    assert scan.series == want.series and scan.turning_points == ()


def test_fit_rejects_bad_arguments(rn):
    with pytest.raises(ValueError):
        fit_divergence_exponent(rn.spec, StatePoint(3.0, 1.0), "bogus")
    with pytest.raises(ValueError):
        fit_divergence_exponent(rn.spec, StatePoint(3.0, 1.0), "rf",
                                direction=(0.0, 0.0))
    with pytest.raises(ValueError):
        find_davies_points(rn.spec, "cz", fixed="Q", fixed_value=1.0,
                           sweep=(0.5, 10.0))
    with pytest.raises(ValueError):
        find_davies_points(rn.spec, "cx", fixed="Z", fixed_value=1.0,
                           sweep=(0.5, 10.0))


def test_sweep_over_second_coordinate(rn):
    # sweeping the charge at fixed entropy finds the same line, Q = sqrt(S/3)
    locus = find_davies_points(rn.spec, "cx", fixed="S", fixed_value=3.0,
                               sweep=(0.2, 2.0))
    assert len(locus.points) == 1
    assert locus.points[0].x == pytest.approx(1.0, abs=1e-9)
    fit = fit_divergence_exponent(rn.spec, locus.points[0], "rf",
                                  direction=(0.0, 1.0))
    assert fit.kind == "divergent"
    assert fit.slope == pytest.approx(-2.0, abs=0.02)


# -- batched pipeline against the scalar API --------------------------------

SYNTH = parse_potential("S^2/2 + X^2/2 + S*X^2/2", name="synthetic")
SQRT = parse_potential("sqrt(S-2) + X^2", name="sqrt")
POLE = {"name": "pole", "coords": ["S", "X"],
        "expression": "S^3/6 + 1/(S-2) + X^2", "params": {},
        "domain": {"S": [0, None], "X": [0, None]}}


def scalar_root_function(spec, which, s, x):
    """The root function of one point by the scalar API, nan where the jet
    cannot be evaluated."""
    try:
        return davies._root_function(which)[0](eval_jet(spec, (s, x)))
    except (DomainError, OverflowError, ZeroDivisionError):
        return math.nan


@st.composite
def sweep_slices(draw):
    """(spec, line, fixed X, sweep): RN, Kerr and synthetic slices whose
    sweeps may start outside the domain, plus square-root slices."""
    spec, which, lo_fixed, hi_fixed = draw(st.sampled_from([
        (get_entry("reissner-nordstrom").spec, "cx", 0.3, 1.6),
        (get_entry("kerr").spec, "cx", 0.1, 1.0),
        (SYNTH, "cy", 1.2, 2.0), (SQRT, "cx", 0.5, 2.0)]))
    lo = draw(st.floats(-1.0, 2.5))
    return (spec, which, draw(st.floats(lo_fixed, hi_fixed)),
            (lo, lo + draw(st.floats(0.5, 10.0))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_slices(), st.integers(2, 200))
def test_batched_sweep_matches_scalar_root_function(case, count):
    spec, which, fixed, sweep = case
    grid = davies._grid(*sweep, count, "linear")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        batched = davies._root_function(which)[0](davies.eval_jets(spec, grid, fixed)[0])
        scalar = [scalar_root_function(spec, which, u, fixed) for u in grid.tolist()]
    assert [float(v).hex() for v in batched] == [v.hex() for v in scalar]


def continuation_fixed_y(spec, y, s_grid, x_guess):
    """X along constant Y solved one sample at a time, each solve starting
    from the last root reached: the scalar route the fixed-Y scan once took.
    A sample where Y is out of reach gives None."""
    x_lo, x_hi = spec.domain[1]
    last, roots = x_guess, []
    for s in s_grid:
        def resid(x):
            return eval_jet(spec, (s, x)).x - y
        try:
            a, b, fa, fb = expand_bracket(resid, last, x_lo, x_hi,
                                          slope=lambda x: eval_jet(spec, (s, x)).xx)
        except NoBracketError:
            roots.append(None)
            continue
        last = refine_bracket(resid, a, b, fa, fb, tol_f=1e-13 * max(1.0, abs(y)))[0]
        roots.append(last)
    return roots


def test_scalar_bracket_samples_toward_a_finite_bound(rn):
    # RN at S = 0.3: Y = Q / sqrt(S) = 0.1414 is reached at Q = 0.077,
    # below the last doubling sample Q = 0.1 and above the bound Q = 0
    def resid(q):
        return eval_jet(rn.spec, (0.3, q)).x - 0.1414
    a, b, fa, fb = expand_bracket(resid, 0.2, *rn.spec.domain[1],
                                  slope=lambda q: eval_jet(rn.spec, (0.3, q)).xx)
    assert a < 0.1414 * math.sqrt(0.3) < b and (fa > 0.0) != (fb > 0.0)


@st.composite
def fixed_y_slices(draw):
    """(spec, Y, guess): Y taken at a random state; M_X rises with X, so
    X(S) is unique where it exists (on Kerr, Y < 1/sqrt(S) is needed)."""
    spec, lo, hi = draw(st.sampled_from([
        (get_entry("reissner-nordstrom").spec, 0.2, 2.0),
        (get_entry("kerr").spec, 0.1, 1.0), (SYNTH, 0.5, 2.0)]))
    s0, x0 = draw(st.floats(0.5, 5.0)), draw(st.floats(lo, hi))
    return spec, eval_jet(spec, (s0, x0)).x, x0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fixed_y_slices())
def test_lane_fixed_y_roots_match_continuation_solve(case):
    spec, y, guess = case
    s_grid = np.linspace(0.3, 6.0, 60)

    def lanes(idx, x):
        with batch(idx.size):
            jet = eval_jet(spec, (s_grid[idx], x))
        return jet.x - y, jet.xx, jet.s
    tol_f = 1e-13 * max(1.0, abs(y))
    got, temps = solve_lanes(lanes, s_grid.size, guess, *spec.domain[1], tol_f=tol_f)
    scan = conjugacy_scan(spec, "fixed-y", fixed_value=y, sweep=(0.3, 6.0),
                          count=60, x_guess=guess)
    np.testing.assert_array_equal([t for t, _ in scan.series], temps)
    for s, x in zip(s_grid.tolist(), got.tolist()):
        if not math.isnan(x):   # nan: Y is out of reach at this S
            assert abs(eval_jet(spec, (s, x)).x - y) <= 1e-10 * max(1.0, abs(y))
    want = continuation_fixed_y(spec, y, s_grid.tolist(), guess)
    for k, (s, x) in enumerate(zip(s_grid.tolist(), want)):
        if x is None:   # Y is out of reach at this S (on Kerr, Y < 1/sqrt(S))
            continue
        jet = eval_jet(spec, (s, x))
        if tol_f > 1e-12 * max(1.0, abs(x)) * abs(jet.xx):
            # next to the limit of reach M_XX -> 0, and |M_X - Y| <= tol_f
            # does not pin X to 1e-12: both solves meet that contract
            assert abs(jet.x - y) <= tol_f and abs(eval_jet(spec, (s, got[k])).x - y) <= tol_f
            continue
        assert got[k] == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert temps[k] == pytest.approx(eval_jet(spec, (s, x)).s, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sweep_slices().filter(lambda case: case[0] is not SQRT))
def test_turning_points_sit_on_locus_points(case):
    spec, which, fixed, (lo, hi) = case
    sweep = (max(lo, 0.05), hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        locus = find_davies_points(spec, which, fixed=spec.coords[1],
                                   fixed_value=fixed, sweep=sweep)
        turning = []
        if which == "cx":
            turning = conjugacy_scan(spec, "fixed-x", fixed_value=fixed,
                                     sweep=sweep).turning_points
        for pt in locus.points if which == "cy" else ():
            turning += conjugacy_scan(spec, "fixed-y", fixed_value=eval_jet(spec, pt).x,
                                      sweep=sweep, x_guess=pt.x).turning_points
    assert len(turning) == len(locus.points)
    for pt, turn in zip(locus.points, turning):
        assert abs(turn - pt.s) <= 1e-10


def test_pole_is_rejected_not_reported(tmp_path, capsys):
    # the sweep puts a sample within 1e-6 of the pole S = 2, where |M_SS|
    # is about 2e18; both the sign change and the turning point are the pole
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(POLE), encoding="utf-8")
    code = main(["davies", "--potential-file", str(path), "--which", "cx",
                 "--fix", "X=0.5637846894579852",
                 "--sweep", "S=0.8885872739572626:4.141101050264327"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["points"] == [] and doc["turning_points"] == []
    assert len(doc["rejected"]) == 1 and abs(doc["rejected"][0]["S"] - 2.0) < 0.02


def test_sqrt_sweep_from_outside_the_domain(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({**POLE, "name": "sqrt",
                                "expression": "sqrt(S-2) + X^2"}), encoding="utf-8")
    code = main(["davies", "--potential-file", str(path), "--which", "cx",
                 "--fix", "X=1", "--sweep", "S=1.5:4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["points"] == [] and doc["turning_points"] == []


def test_davies_json_reports_brackets_and_rejections(capsys):
    assert main(["davies", "--catalog", "reissner-nordstrom", "--which", "cy",
                 "--fix", "Q=1", "--sweep", "S=0.2:10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == []
    assert len(doc["rejected"]) == 1 and doc["rejected"][0]["S"] == pytest.approx(1.0, abs=1e-6)
    assert main(["davies", "--catalog", "reissner-nordstrom", "--which", "cx",
                 "--fix", "Q=1", "--sweep", "S=0.5:10"]) == 0
    bracket = json.loads(capsys.readouterr().out)["points"][0]["bracket"]
    assert bracket["residual"] <= 1e-12 and 1 <= bracket["iterations"] <= 200


def test_unreachable_fixed_y_samples_are_gaps():
    # Y = M_X = X + S/2 = 1 is out of reach for X > 0 once S >= 2
    spec = parse_potential("S^2/2 + X^2/2 + S*X/2", name="shifted")
    scan = conjugacy_scan(spec, "fixed-y", fixed_value=1.0, sweep=(0.5, 3.5),
                          count=31, x_guess=1.0)
    assert [s for _, s in scan.series] == pytest.approx(np.linspace(0.5, 3.5, 31))
    for t, s in scan.series:
        if s < 2.0 - 1e-9:      # T = S + X/2 = 3 S/4 + Y/2
            assert t == pytest.approx(0.75 * s + 0.5, rel=1e-12)
        elif s > 2.0 + 1e-9:
            assert math.isnan(t)
    assert scan.turning_points == ()


def test_series_gaps_are_skipped_not_refined():
    # exp(5/(S-2)) overflows for 2 < S < 2.007 and is flat left of S = 2, so
    # T = M_S falls on the left and rises out of -inf on the right.  With 46
    # samples S = 2 is one (a division by zero, a gap in the series); with
    # 200 none is, but refinements step into the overflow: neither aborts
    spec = parse_potential("exp(5/(S-2)) - S^2/2 + X^2", name="gap")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for count, gaps in ((46, 1), (200, 0)):
            scan = conjugacy_scan(spec, "fixed-x", fixed_value=1.0,
                                  sweep=(0.5, 5.0), count=count)
            assert sum(math.isnan(t) for t, _ in scan.series) == gaps
            assert scan.turning_points == ()
            locus = find_davies_points(spec, "cx", fixed="X", fixed_value=1.0,
                                       sweep=(0.5, 5.0), count=count)
            assert locus.points == ()
