import contextlib
import functools
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermocurv import (ConditioningWarning, DomainError, StatePoint, cli,
                        conjugacy_scan, davies, divergence_orders, eval_jet,
                        find_davies_points, get_entry, load_potential_file, parse_potential,
                        responses_at)
from thermocurv._roots import NoBracketError, expand_bracket, solve_lanes
from thermocurv.cli import main
from thermocurv.jets import Jet3, batch
from thermocurv.potentials import eval_jets

from approach_oracle import fit_divergence_exponent, fit_divergence_exponents
from lanes_oracle import solve_lanes_bracket_first, solve_lanes_side_by_side
from roots_oracle import secant_bracket
from test_codegen import EXPRESSIONS, PARAMS


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


def assert_coefficient_matches(fit, order):
    # R f^2 on the innermost sample of the sampled approach is the jet's coefficient,
    # up to the numerator's own variation over the window
    assert order.kind == "divergent" and order.order == -2.0
    inner = fit.values[-1] * fit.window[-1] ** 2
    assert abs(inner - order.coefficient) <= 1e-3 * abs(order.coefficient)


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

    rm, rf = divergence_orders(eval_jet(rn.spec, root), "cx")
    assert_coefficient_matches(fit_rf, rf)
    assert rm.kind == "finite"
    assert rm.value == pytest.approx(2.0 * 3.0 ** 1.5 / 4.0, rel=1e-14)


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

    rm, rf = divergence_orders(eval_jet(kerr.spec, root), "cx")
    assert_coefficient_matches(fit_rf, rf)
    assert rm == ("finite", None, None, 0.0)     # N_M at rounding: the closed form


def test_complementary_divergence(rn, kerr, cy_toy):
    """Where the constant-X capacity diverges, only the free-energy curvature
    blows up; on a constant-Y line the roles swap."""
    for spec, root in ((rn.spec, StatePoint(3.0, 1.0)),
                       (kerr.spec, StatePoint(math.sqrt(12 + 8 * math.sqrt(3)), 1.0))):
        rf = fit_divergence_exponent(spec, root, "rf")
        rm = fit_divergence_exponent(spec, root, "rm")
        assert rf.kind == "divergent" and rf.slope <= -1.0 and rf.r_squared > 0.99
        assert rm.kind == "finite"
        orders = divergence_orders(eval_jet(spec, root), "cx")
        assert [o.kind for o in orders] == ["finite", "divergent"]
    # reversed statement, exercised on the synthetic constant-Y line
    root = StatePoint(1.25, 1.5)
    rm = fit_divergence_exponent(cy_toy, root, "rm", which_line="cy")
    rf = fit_divergence_exponent(cy_toy, root, "rf", which_line="cy")
    assert rm.kind == "divergent" and rm.slope <= -1.0 and rm.r_squared > 0.99
    assert rf.kind == "finite"
    # R^F limit from the closed form -1/(2 (1 + S)^2) of this potential
    assert rf.limit == pytest.approx(-1.0 / (2.0 * 2.25 ** 2), rel=1e-6)
    jet_rm, jet_rf = divergence_orders(eval_jet(cy_toy, root), "cy")
    assert_coefficient_matches(rm, jet_rm)
    assert jet_rf.kind == "finite"
    assert jet_rf.value == pytest.approx(-1.0 / (2.0 * 2.25 ** 2), rel=1e-14)


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


def test_fixed_y_lane_steps_evaluate_second_order_jets(cy_toy, monkeypatch):
    # the lanes read first and second partials only: a third-order pass gives the
    # same series at a higher cost, which no output shows
    orders, real = [], davies.eval_jets

    def spy(*args, **kwargs):
        orders.append(kwargs.get("order", 3))
        return real(*args, **kwargs)
    y0 = eval_jet(cy_toy, (1.25, 1.5)).x
    want = conjugacy_scan(cy_toy, "fixed-y", fixed_value=y0, sweep=(0.3, 3.0), x_guess=1.5)
    monkeypatch.setattr(davies, "eval_jets", spy)
    scan = conjugacy_scan(cy_toy, "fixed-y", fixed_value=y0, sweep=(0.3, 3.0), x_guess=1.5)
    assert scan == want
    assert len(orders) >= 2 and set(orders) == {2}     # the guess, then Newton steps


def test_fixed_y_roots_next_to_a_finite_upper_x_bound_are_found(tmp_path):
    # M_X = (X - 1)^3 is flat at the guess X = 1, so every lane leaves its Newton
    # steps for the outward search.  Y's root is X = 1.27 at every S: the upper steps
    # 1.05, 1.1 and 1.2 stay below it and the next, 1.4, is past the bound X < 1.3,
    # so only halving the distance to the bound (1.25, then 1.275) brackets it
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps({"name": "bounded", "coords": ["S", "X"],
                                "expression": "S^2/2 + (X - 1)^4/4",
                                "domain": {"X": [0, 1.3]}}), encoding="utf-8")
    spec = load_potential_file(path)
    assert spec.domain[1] == (0.0, 1.3)
    s_grid = np.linspace(0.5, 2.0, 7)
    scan = conjugacy_scan(spec, "fixed-y", fixed_value=0.27 ** 3, sweep=(0.5, 2.0), count=7,
                          x_guess=1.0)
    assert [s for _, s in scan.series] == s_grid.tolist()
    assert [t for t, _ in scan.series] == s_grid.tolist()     # T = S wherever X is solved

    def lanes(idx, x):
        with batch(idx.size):
            jet = eval_jet(spec, (s_grid[idx], x))
        return jet.x - 0.27 ** 3, jet.xx, jet.s
    x, _ = solve_lanes(lanes, s_grid.size, 1.0, *spec.domain[1], tol_f=1e-13)
    assert x == pytest.approx(np.full(7, 1.27), rel=1e-12)


def test_fit_rejects_bad_arguments(rn):
    with pytest.raises(ValueError):
        divergence_orders(eval_jet(rn.spec, (3.0, 1.0)), "cz")
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
    # the jet rule takes no direction: a Q sweep reads what an S sweep reads
    (rm, rf), (want_rm, want_rf) = (divergence_orders(jet, "cx") for jet in (
        locus.jets[0], eval_jet(rn.spec, (3.0, 1.0))))
    assert rf.kind == "divergent" and rf.order == -2.0
    assert rf.coefficient == pytest.approx(want_rf.coefficient, rel=1e-6)
    assert rm.kind == "finite" and rm.value == pytest.approx(want_rm.value, rel=1e-9)


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
                                          slope=lambda x: eval_jet(spec, (s, x))[5::4])  # M_XX, M_XXX
        except NoBracketError:
            roots.append(None)
            continue
        last = secant_bracket(resid, a, b, fa, fb, tol_f=1e-13 * max(1.0, abs(y)))[0]
        roots.append(last)
    return roots


def test_scalar_bracket_samples_toward_a_finite_bound(rn):
    # RN at S = 0.3: Y = Q / sqrt(S) = 0.1414 is reached at Q = 0.077,
    # below the last doubling sample Q = 0.1 and above the bound Q = 0
    def resid(q):
        return eval_jet(rn.spec, (0.3, q)).x - 0.1414
    a, b, fa, fb = expand_bracket(resid, 0.2, *rn.spec.domain[1],
                                  slope=lambda q: eval_jet(rn.spec, (0.3, q))[5::4])  # M_QQ, M_QQQ
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


@pytest.mark.parametrize("sweep", ["S=0.1:10", "S=0.1:10:200:log"])
def test_kerr_flat_curvature_prints_no_noise_fit(sweep, kerr, capsys):
    # R^M = 0 on Kerr: a log-log fit of its rounding noise has slopes such as
    # 17.2 and 35.0 that mean nothing.  Its numerator is at rounding, so the
    # jet rule prints the closed form 0.0, and the sampled oracle fits nothing
    assert main(["davies", "--catalog", "kerr", "--which", "cx", "--fix", "J=0.3",
                 "--sweep", sweep]) == 0
    (point,) = json.loads(capsys.readouterr().out)["points"]
    assert point["fit_RM"] == {"kind": "finite", "value": 0.0}
    assert point["fit_RF"]["kind"] == "divergent"
    assert point["fit_RF"]["slope"] == pytest.approx(-2.0, abs=0.02)
    fit_rm, fit_rf = fit_divergence_exponents(kerr.spec, StatePoint(point["S"], point["X"]))
    assert fit_rm.kind == "finite" and math.isnan(fit_rm.slope) and math.isnan(fit_rm.r_squared)
    assert abs(fit_rm.limit) <= 1e-9
    assert fit_rf.kind == "divergent" and fit_rf.slope == pytest.approx(-2.0, abs=0.02)


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


@st.composite
def axis_texts(draw):
    """``LO:HI:N[:log]`` with LO < HI, and LO > 0 on a log axis."""
    spacing = draw(st.sampled_from(["linear", "log"]))
    lo = draw(st.floats(1e-3, 1e3) if spacing == "log" else st.floats(-1e3, 1e3))
    hi = draw(st.floats(lo, 2e3, exclude_min=True))
    text = f"{lo!r}:{hi!r}:{draw(st.integers(2, 200))}"
    return text + ":log" if spacing == "log" else text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(axis_texts())
def test_scan_and_sweep_sample_one_axis_bit_for_bit(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["scan", "--catalog", "quadratic-toy", "--grid", f"S={text}",
                     "--grid", "X=1:1:1"]) == 0
    scanned = [float(row.split(",")[0]) for row in out.getvalue().splitlines()[1:]]
    _, axis = cli._parse_axis("--sweep", f"S={text}")
    series = conjugacy_scan(get_entry("quadratic-toy").spec, "fixed-x", fixed_value=1.0,
                            sweep=(axis.lo, axis.hi), count=axis.count,
                            spacing=axis.spacing).series
    want = [v.hex() for v in axis.values().tolist()]
    assert [v.hex() for v in scanned] == want
    assert [s.hex() for _, s in series] == want


def test_non_finite_sweep_is_a_value_error(rn):
    for sweep in ((0.1, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            find_davies_points(rn.spec, "cx", fixed="Q", fixed_value=1.0, sweep=sweep)
    with pytest.raises(ValueError):
        conjugacy_scan(rn.spec, "fixed-x", fixed_value=1.0, sweep=(0.1, math.inf))


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


# M_X = S + X^2 - 2 X: for S - 1 < Y < S there is a root on each side of
# X = 1, both in X > 0
TWO_ROOTS = parse_potential("S^2/2 + S*X + X^3/3 - X^2", name="two-roots")


@st.composite
def two_root_slices(draw):
    """(spec, Y, guess) where a lane may find a sign change on both sides of
    the guess in the same outward step."""
    return TWO_ROOTS, draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 1.8))


def _solve_slice(solve, case, near_bound):
    """``solve`` run on the 60 fixed-Y lanes of ``case`` from the guess, or
    from ``near_bound`` where given: (roots, payload, lane calls)."""
    spec, y, guess = case
    guess = guess if near_bound is None else near_bound
    s_grid = np.linspace(0.3, 6.0, 60)
    calls = 0

    def lanes(idx, x):
        nonlocal calls
        calls += 1
        jet = davies.eval_jets(spec, s_grid[idx], x)[0]
        return jet.x - y, jet.xx, np.stack([jet.s, jet.xx, x])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        roots, payload = solve(lanes, s_grid.size, guess, *spec.domain[1],
                               tol_f=1e-13 * max(1.0, abs(y)))
    return roots, payload, calls


lane_slices = st.one_of(fixed_y_slices(), two_root_slices())
near_bounds = st.one_of(st.none(), st.floats(1e-9, 0.05), st.floats(5.0, 50.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lane_slices, near_bounds)
def test_one_call_lane_search_matches_the_side_by_side_oracle(case, near_bound):
    # both sides of each outward step in one call give the brackets, and so
    # the roots, payloads and gaps, of one call per side, bit for bit
    got = _solve_slice(solve_lanes, case, near_bound)
    want = _solve_slice(solve_lanes_side_by_side, case, near_bound)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] <= want[2]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lane_slices, near_bounds)
def test_newton_first_keeps_every_root_of_the_bracket_first_search(case, near_bound):
    # Newton from the guess may solve a lane the outward search leaves as a
    # gap, but never loses or moves a root that search finds
    got = _solve_slice(solve_lanes, case, near_bound)[0]
    want = _solve_slice(solve_lanes_bracket_first, case, near_bound)[0]
    for x, x_ref in zip(got.tolist(), want.tolist()):
        if not math.isnan(x_ref):
            assert x == pytest.approx(x_ref, rel=1e-9)


def test_newton_first_solves_a_lane_the_outward_search_steps_over():
    # M_X = S + X^2 - 2 X = Y at S = 3.2, Y = 2.216 has roots 1 -+ sqrt(0.016):
    # from the guess 1.426 one outward step jumps 1.1408 -> 0.8556, over both
    y, s = 2.216, 3.2
    tol_f = 1e-13 * y

    def lanes(idx, x):
        jet = davies.eval_jets(TWO_ROOTS, np.full(idx.size, s), x)[0]
        return jet.x - y, jet.xx, jet.s
    roots, _ = solve_lanes(lanes, 1, 1.426, *TWO_ROOTS.domain[1], tol_f=tol_f)
    assert roots[0] == pytest.approx(1.0 + math.sqrt(1.0 - s + y), rel=1e-12)
    assert abs(eval_jet(TWO_ROOTS, (s, roots[0])).x - y) <= tol_f


def test_unreachable_lanes_stay_on_the_vectorised_search(monkeypatch):
    # at Y = 0.5, 143 of the 200 lanes cannot reach Y: the Newton steps from
    # the guess must not send them to a search of their own (the bracket-first
    # search made 68 evaluations of 18,154 lane points here)
    calls = []

    def counting(spec, s, x, **kwargs):
        calls.append(np.size(s))
        return eval_jets(spec, s, x, **kwargs)
    monkeypatch.setattr(davies, "eval_jets", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        scan = conjugacy_scan(TWO_ROOTS, "fixed-y", fixed_value=0.5, sweep=(0.1, 5.0),
                              x_guess=1.2)
    assert sum(math.isnan(t) for t, _ in scan.series) == 143
    assert len(calls) <= 76 and sum(calls) <= 1.05 * 18154


def _rn_cut(tmp_path):
    # the domain ends at S = 3.02, just past the C_X point S = 3, where the
    # sampled approach (first sample S = 3.05) had to fall back to the reversed one
    doc = {"name": "rn-cut", "coords": ["S", "Q"],
           "expression": "sqrt(S)/2 * (1 + Q^2/S)", "params": {},
           "domain": {"S": [0, 3.02], "Q": [0, None]}}
    path = tmp_path / "rn-cut.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["--potential-file", str(path), "--fix", "Q=1", "--sweep", "S=0.5:3.01"]


@pytest.mark.parametrize("potential, points, evaluations", [
    (lambda _: ["--catalog", "quadratic-toy", "--fix", "X=1", "--sweep", "S=0.5:10"], 0, 1),
    (lambda _: ["--catalog", "reissner-nordstrom", "--fix", "Q=1", "--sweep", "S=0.5:10"],
     1, 1),
    (_rn_cut, 1, 1),
])
def test_davies_cx_sweep_is_evaluated_once(potential, points, evaluations, tmp_path,
                                           monkeypatch, capsys):
    # one array evaluation serves the locus and the turning-point series; a
    # locus point adds none, since its curvatures are read from its jet, and
    # the series refines through the jets the locus's refinement evaluated
    calls, scalar = [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return eval_jets(*args, **kwargs)

    def counting_scalar(*args, **kwargs):
        scalar.append(args)
        return eval_jet(*args, **kwargs)
    monkeypatch.setattr(davies, "eval_jets", counting)
    monkeypatch.setattr(davies, "eval_jet", counting_scalar)
    argv = ["davies", "--which", "cx", *potential(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["points"]) == points
    assert len(calls) == evaluations
    assert len(scalar) == sum(p["bracket"]["iterations"] for p in doc["points"])

    def without_locus(*args, locus=None, **kwargs):
        return conjugacy_scan(*args, **kwargs)
    monkeypatch.setattr(cli, "conjugacy_scan", without_locus)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_davies_cy_sweep_is_evaluated_once(tmp_path, monkeypatch, capsys):
    # the first lane evaluation of the fixed-Y series is the locus sweep at
    # the same X: 2 array evaluations, where evaluating it again made 3
    path = tmp_path / "cy.json"
    path.write_text(json.dumps({"name": "cy-toy", "coords": ["S", "X"],
                                "expression": "S^2/2 + X^2/2 + S*X^2/2"}), encoding="utf-8")
    argv = ["davies", "--potential-file", str(path), "--which", "cy", "--fix", "X=1.5",
            "--sweep", "S=0.1:5"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eval_jets(*args, **kwargs)
    monkeypatch.setattr(davies, "eval_jets", counting)
    assert main(argv) == 0
    reused, reused_calls = capsys.readouterr().out, len(calls)
    assert reused_calls == 2 and len(json.loads(reused)["points"]) == 1

    def without_locus(*args, locus=None, **kwargs):
        return conjugacy_scan(*args, **kwargs)
    monkeypatch.setattr(cli, "conjugacy_scan", without_locus)
    calls.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == reused and len(calls) == reused_calls + 1



def test_shared_sweep_is_not_written_by_the_fixed_y_scans(tmp_path, monkeypatch, capsys):
    # two locus points, so two fixed-Y scans start from the same sweep;
    # M_XX depends on X, so a Newton slope written into it would differ
    src = "(S-2)^4/12 + 5*S + X^2/2 + S*X^2/2 + X^4/12"
    spec = parse_potential(src)
    locus = find_davies_points(spec, "cy", fixed="X", fixed_value=1.5, sweep=(0.1, 5.0))
    before = [c.tobytes() for c in locus.sweep_jet]
    assert len(locus.points) == 2
    for pt in locus.points:
        conjugacy_scan(spec, "fixed-y", fixed_value=eval_jet(spec, pt).x, sweep=(0.1, 5.0),
                       x_guess=pt.x, locus=locus)
        assert [c.tobytes() for c in locus.sweep_jet] == before

    path = tmp_path / "two.json"
    path.write_text(json.dumps({"name": "two", "coords": ["S", "X"], "expression": src}),
                    encoding="utf-8")
    argv = ["davies", "--potential-file", str(path), "--which", "cy", "--fix", "X=1.5",
            "--sweep", "S=0.1:5"]
    assert main(argv) == 0
    reused = capsys.readouterr().out

    def without_locus(*args, locus=None, **kwargs):
        return conjugacy_scan(*args, **kwargs)
    monkeypatch.setattr(cli, "conjugacy_scan", without_locus)
    assert main(argv) == 0
    assert capsys.readouterr().out == reused


def test_a_locus_of_another_slice_is_refused():
    # the scan's own arguments name its slice; a locus that disagrees with
    # them (or sweeps X) would lend jets of other points, so it is refused
    spec = get_entry("reissner-nordstrom").spec
    same = {"fixed_value": 0.5, "sweep": (0.1, 10.0), "count": 200, "spacing": "linear"}
    locus = find_davies_points(spec, "cx", fixed="Q", **same)
    swept_x = find_davies_points(spec, "cx", fixed="S", **same)
    assert conjugacy_scan(spec, "fixed-x", **same, locus=locus) == conjugacy_scan(
        spec, "fixed-x", **same)
    for series, changed, held in (
            ("fixed-x", {"fixed_value": 0.6}, locus), ("fixed-x", {"count": 100}, locus),
            ("fixed-x", {"spacing": "log"}, locus), ("fixed-x", {"sweep": (0.1, 9.0)}, locus),
            ("fixed-y", {"x_guess": 0.6}, locus), ("fixed-x", {}, swept_x)):
        with pytest.raises(ValueError, match="locus"):
            conjugacy_scan(spec, series, **{**same, "x_guess": 0.5, **changed}, locus=held)

X_SLICES = [("S^2/2 + X^2/2 + S*X^2/2", st.floats(0.2, 2.5)),
            ("S^2/2 + X^2/2 + S*X^2/2 + 1/(X - 1.5)",     # X-only divisor, small or zero
             st.sampled_from([1.5, 1.5 + 1e-13, 1.5 - 2e-13, 1.2, 1.7])),
            ("sqrt(X - 1) + S^2 + X^2", st.floats(0.5, 1.5)),   # X-only domain
            ("exp(300*X) * S^2 + X^2", st.floats(2.0, 2.6)),    # X-only overflow
            ("sqrt(S)/2 * (1 + X^2/S)", st.floats(0.1, 1.5))]


@st.composite
def x_slices(draw):
    src, fixed = draw(st.sampled_from(X_SLICES))
    return parse_potential(src), draw(fixed)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(x_slices(), st.sampled_from([(0.1, 5.0), (0.5, 3.0), (1.9, 2.1)]),
       st.sampled_from([2, 7, 25, 26, 200]))
def test_reused_sweep_is_the_first_lane_evaluation_bit_for_bit(case, sweep, count):
    # the fixed-X sweep (X a float) against the lane evaluation it replaces
    # in the fixed-Y series (X an array of x_guess), both second order, every
    # coefficient
    spec, x = case
    grid = np.linspace(*sweep, count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        locus = find_davies_points(spec, "cy", fixed="X", fixed_value=x, sweep=sweep,
                                   count=count)
        lanes = eval_jets(spec, grid[np.arange(count)], np.full(count, x), order=2)[0]
    assert [c.tobytes() for c in locus.sweep_jet] == [c.tobytes() for c in lanes]


# added to a potential whose C_X line 3 S^2 + X^2 = 1 lies on both sides
# of S = 0 and of X = 0, or drawn alone
DRAWN_POTENTIALS = st.one_of(
    EXPRESSIONS.map(lambda e: f"(S^2 - 1)^2/4 + (1 + S^2)*X^2/2 + {e}"), EXPRESSIONS)
SWEEPS = st.sampled_from([(-1.5, 1.5), (-0.9, -0.1), (0.1, 0.9), (0.3, 5.0), (-3.0, -1.0),
                          (-0.6, 0.4)])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DRAWN_POTENTIALS, PARAMS, st.booleans(), st.sampled_from(["cx", "cy"]), st.booleans(),
       st.sampled_from([0.5, -0.5, 0.25, 1.5, -2.0]), SWEEPS,
       st.sampled_from(["", ":2", ":7", ":50"]))
def test_davies_on_drawn_potentials_keeps_its_contract(
        fuzz_dir, src, k, negative_s, which, sweep_s, fixed, bounds, count):
    # exit 0 or 2 and never an uncaught exception, whatever the potential;
    # every point found lies on the fixed value and inside the sweep
    doc = {"name": "fuzz", "coords": ["S", "X"], "expression": src, "params": {"k": k}}
    if negative_s:
        doc["domain"] = {"S": [None, 0]}
    path = fuzz_dir / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (lo, hi), (fix, sweep) = bounds, ("X", "S") if sweep_s else ("S", "X")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["davies", "--potential-file", str(path), "--which", which,
                     "--fix", f"{fix}={fixed!r}", "--sweep", f"{sweep}={lo!r}:{hi!r}{count}"])
    assert code in (0, 2), (src, k, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")
        return
    result = json.loads(out.getvalue())
    assert {"points", "turning_points", "rejected"} <= result.keys()
    for pt in result["points"] + result["rejected"]:
        assert pt[fix] == fixed and lo <= pt[sweep] <= hi, (src, k, pt)
    assert all(lo <= s <= hi for s in result["turning_points"]), (src, k)


def sign_change_pairs(u, f):
    """The brackets the per-sample loop of find_davies_points refined."""
    return [(u0, u1, f0, f1) for (u0, f0), (u1, f1) in zip(zip(u, f), zip(u[1:], f[1:]))
            if math.isfinite(f0) and math.isfinite(f1)
            and not (f0 == 0.0 or (f0 > 0.0) == (f1 > 0.0))]


def turning_pairs(s, t, d):
    """The brackets the per-sample loop of conjugacy_scan refined."""
    pairs = []
    cd = [(t[k + 1] - t[k - 1]) / (s[k + 1] - s[k - 1]) for k in range(1, len(s) - 1)]
    for k in range(len(cd) - 1):
        if cd[k] == 0.0 or (cd[k] > 0.0) == (cd[k + 1] > 0.0) or math.isnan(cd[k] + cd[k + 1]):
            continue
        for i, j in ((k + 1, k + 2), (k, min(k + 3, len(s) - 1))):
            fa, fb = d[i], d[j]
            if fa == 0.0 or (fa > 0.0) != (fb > 0.0) and not math.isnan(fa + fb):
                pairs.append((s[i], s[j], fa, fb))
                break
    return pairs


VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e308, -1e308, 5e-324,
                          math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(VALUES, VALUES), min_size=2, max_size=40))
def test_sample_scans_flag_the_pairs_of_the_per_sample_loops(samples):
    # the masks over the samples pick the brackets the loops picked, signed
    # zeros, infinities and nan included; the refinement only records them
    n, (t, d) = len(samples), (np.array(v) for v in zip(*samples))
    jet = Jet3(np.zeros(n), t, np.zeros(n), d)      # T = M_S, dT/dS = M_SS
    refined = []

    def record(func, a, b, fa, fb):
        refined.append(tuple(v.hex() for v in (a, b, fa, fb)))
        return 0.5 * (a + b), math.inf, 0, False

    def bits(pairs):
        return [tuple(v.hex() for v in p) for p in pairs]

    grid, spec = np.linspace(0.5, 3.0, n).tolist(), get_entry("kerr").spec
    with mock.patch.object(davies, "eval_jets", lambda *_, **__: (jet, np.zeros(n, np.int8))), \
            mock.patch.object(davies, "_refine", record):
        locus = find_davies_points(spec, "cx", fixed="J", fixed_value=0.5, sweep=(0.5, 3.0),
                                   count=n)
        assert refined == bits(sign_change_pairs(grid, d.tolist()))
        refined.clear()
        conjugacy_scan(spec, "fixed-x", fixed_value=0.5, sweep=(0.5, 3.0), count=n,
                       locus=locus)
        assert refined == bits(turning_pairs(grid, t.tolist(), d.tolist()))


def test_sweep_finer_than_the_float_spacing_keeps_the_contract(capsys):
    # neighbouring samples repeat, so a central difference divides by zero
    assert main(["davies", "--catalog", "reissner-nordstrom", "--fix", "Q=1",
                 "--sweep", "S=1:1.0000000000000004:50"]) == 0
    assert json.loads(capsys.readouterr().out)["turning_points"] == []


# The sampled fit's window, 0.05 * 2^-j (j = 0..10), is not local where a
# curvature changes on a shorter scale (large third derivatives, or the other
# line nearby); the same fit on a window 2^-14 as wide settles those points.
FINE_START = 0.05 * 2.0 ** -14


def reads_the_same(order, fit):
    """Whether a sampled fit reads what the jet rule reads: a divergence of
    slope -2 +- 0.25 (the numerator varies over the window), or a finite
    limit within 1e-2 of the value at the point."""
    if order.kind == "divergent":
        return fit.kind == "divergent" and abs(fit.slope + 2.0) <= 0.25
    return (fit.kind == "finite"
            and abs(fit.limit - order.value) <= 1e-2 * max(1.0, abs(order.value)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(DRAWN_POTENTIALS, PARAMS, st.booleans(), st.sampled_from([0.5, -0.5, 0.25, 1.5, -2.0]),
       SWEEPS)
# the C_X and C_Y lines cross S at 2.2633 and 2.2650: over the wide window
# each approach runs into the other line, where its finite curvature diverges
@example("(S^2 - 1)^2/4 + (1 + S^2)*X^2/2 + ln((S - 2))", -1.5, True, 0.25, (0.3, 5.0))
def test_jet_classification_agrees_with_the_sampled_fit(src, k, sweep_s, fixed, bounds):
    # at every located point with T > 0, on either line, the jet rule reads
    # each curvature as the sampled oracle does, unless the jet cannot tell
    fix, direction = ("X", (1.0, 0.0)) if sweep_s else ("S", (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            spec = parse_potential(src, params={"k": k})
            loci = [find_davies_points(spec, which, fixed=fix, fixed_value=fixed,
                                       sweep=bounds, count=50) for which in ("cx", "cy")]
        except ValueError:          # a constant part fails at every point
            return
        for which, pt, jet in ((locus.which, pt, jet) for locus in loci
                               for pt, jet in zip(locus.points, locus.jets)):
            assert jet.s > 0.0
            fit = functools.partial(fit_divergence_exponents, spec, pt, which_line=which,
                                    direction=direction)
            try:
                coarse = fit()
            except (DomainError, ValueError):    # the approach leaves the domain
                continue
            for index, order in enumerate(divergence_orders(jet, which)):
                if order.kind == "undetermined" or reads_the_same(order, coarse[index]):
                    continue
                fine = fit(start=FINE_START)[index]
                assert reads_the_same(order, fine), (src, k, which, pt, order, fine)


def test_vanishing_numerator_is_undetermined(tmp_path, capsys):
    # M_SSX = M_SXX = 0 on the whole plane, so N_F = 0 and R^F = 0 off the C_X
    # line S = sqrt(2); the 3-jet at the point cannot tell that from N_F = 0
    # at the point alone.  R^M's numerator vanishes too: its value is 0.0
    path = tmp_path / "flat-rf.json"
    path.write_text(json.dumps({"name": "flat-rf", "coords": ["S", "X"],
                                "expression": "S^4/12 - S^2 + S*X + X^2"}), encoding="utf-8")
    assert main(["davies", "--potential-file", str(path), "--fix", "X=3",
                 "--sweep", "S=0.5:3"]) == 0
    (point,) = json.loads(capsys.readouterr().out)["points"]
    assert point["S"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert point["fit_RF"] == {"kind": "undetermined"}
    assert point["fit_RM"] == {"kind": "finite", "value": 0.0}
    sp = pytest.importorskip("sympy")
    s_sym, x_sym = sp.symbols("S X")
    m = s_sym ** 4 / 12 - s_sym ** 2 + s_sym * x_sym + x_sym ** 2
    d = {key: sp.diff(m, *[{"s": s_sym, "x": x_sym}[c] for c in key])
         for key in ("ss", "xx", "sss", "ssx", "sxx", "xxx")}
    assert sp.simplify(-d["ss"] * d["sxx"] ** 2 + d["xx"] * d["ssx"] ** 2
                       + d["ss"] * d["ssx"] * d["xxx"] - d["xx"] * d["sxx"] * d["sss"]) == 0
    # the sampled fits read both as finite with limit 0
    fit_rm, fit_rf = fit_divergence_exponents(load_potential_file(str(path)),
                                              StatePoint(point["S"], point["X"]))
    assert fit_rm.kind == fit_rf.kind == "finite"
    assert fit_rm.limit == fit_rf.limit == 0.0
