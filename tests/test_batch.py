"""The batched evaluation path against the scalar API, bit for bit.

``scalar_row`` is the row-by-row pipeline the CLI used before grids were
evaluated in one pass: one ``eval_jet`` -> ``curvature_from_m_jet`` ->
``responses_at`` chain per point.  ``evaluate_points`` must reproduce its
numbers exactly and its flag strings token for token.
"""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flags_oracle import flag_strings
from jets_oracle import pointwise_jets
from test_codegen import EXPRESSIONS, PARAMS
from thermocurv import (StatePoint, curvature_from_m_jet, eval_jet, eval_scalar,
                        format_expression, get_entry, parse_potential, responses_at)
from thermocurv.cli import COLUMNS, evaluate_points, main
from thermocurv.geometry import _safe_div
from thermocurv.jets import DOMAIN, OVERFLOW, ConditioningWarning, DomainError, batch
from thermocurv.potentials import eval_jets

RN = get_entry("reissner-nordstrom").spec
KERR = get_entry("kerr").spec
# fractional, integer and coordinate exponents, exp and ln; X may be zero or
# negative, S - 2 may vanish, exp(S/3) overflows past S ~ 2129
MIXED = parse_potential("exp(S/3) * X^2 + ln(S) * S^X - S^-1.5 + X^3/(S - 2)",
                        domain={"S": (None, None), "X": (None, None)},
                        name="mixed")


def scalar_row(spec, s, x):
    """The 17 numeric cells and the flag string of one point, computed by
    the scalar API alone."""
    nan = math.nan
    failed = [s, x] + [nan] * 15
    try:
        jet = eval_jet(spec, (s, x))
    except DomainError:
        return failed, "err:domain"
    except (OverflowError, ZeroDivisionError):
        return failed, "err:overflow"
    if not all(math.isfinite(c) for c in jet.coeffs()):
        return failed, "err:overflow"
    curv = curvature_from_m_jet(jet)
    flags = list(curv.flags)
    try:
        rs = responses_at(jet, StatePoint(s, x))
        resp = [rs.c_x, rs.c_y, rs.alpha, rs.kappa_t, rs.kappa_s, rs.gamma]
        flags += rs.flags
    except ValueError:
        resp = [nan] * 6
        flags.append("err:responses")
        if jet.s <= 0.0:
            flags.append("neg:T")
    cells = [s, x, jet.s, jet.x, jet.ss, jet.sx, jet.xx, curv.det_gm,
             curv.det_gf, curv.r_m, curv.r_f, *resp]
    if not flags and not all(math.isfinite(c) for c in cells):
        flags.append("overflow:cells")
    return cells, ";".join(flags)


def assert_matches_scalar(spec, points):
    s = [p[0] for p in points]
    x = [p[1] for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        columns, flags = evaluate_points(spec, s, x)
        expected = [scalar_row(spec, a, b) for a, b in points]
    for k, (cells, tokens) in enumerate(expected):
        got = [float(columns[name][k]).hex() for name in COLUMNS[:-1]]
        assert got == [v.hex() for v in cells], (spec.name, points[k])
        assert flags[k] == tokens, (spec.name, points[k])


SPECIAL = st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 2.2e-313, 1e-160,
                           math.nan, math.inf, -math.inf])


def coordinate(lo, hi):
    return st.one_of(st.floats(lo, hi, allow_nan=False), SPECIAL)


@st.composite
def rn_points(draw):
    q = draw(st.floats(0.05, 1.5))
    kind = draw(st.sampled_from(["any", "line", "cold", "x-line"]))
    if kind == "line":          # the C_Q line S = 3 Q^2, hit or nearly hit
        return 3.0 * q * q * (1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9]))), q
    if kind == "cold":          # T < 0 below S = Q^2
        return q * q * draw(st.floats(0.05, 0.999)), q
    if kind == "x-line":        # the exact C_X line point of the tests
        return 3.0, 1.0
    return draw(coordinate(-1.0, 12.0)), draw(coordinate(-0.5, 2.0))


@st.composite
def kerr_points(draw):
    j = draw(st.floats(0.05, 1.0))
    kind = draw(st.sampled_from(["any", "line", "cold"]))
    if kind == "line":          # S^4 = 24 S^2 J^2 + 48 J^4
        s = j * math.sqrt(12.0 + math.sqrt(192.0))
        return s * (1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-12]))), j
    if kind == "cold":          # T < 0 below S = 2 J
        return 2.0 * j * draw(st.floats(0.1, 0.999)), j
    return draw(coordinate(-1.0, 12.0)), draw(coordinate(-0.5, 2.0))


@st.composite
def mixed_points(draw):
    kind = draw(st.sampled_from(["any", "pole", "overflow", "x-zero"]))
    x = draw(coordinate(-2.0, 3.0))
    if kind == "pole":          # S - 2 at or near zero
        return 2.0 + draw(st.sampled_from([0.0, 1e-13, -4e-16, 1e-9])), x
    if kind == "overflow":
        return draw(st.floats(2000.0, 2300.0)), x
    if kind == "x-zero":
        return draw(st.floats(0.1, 12.0)), draw(st.sampled_from([0.0, -0.0]))
    return draw(coordinate(-1.0, 12.0)), x


def assert_flags_are_the_token_loop(spec, s, x) -> list[str]:
    """The flag strings of ``evaluate_points`` at ``(s, x)``, which must be the
    oracle's, whole strings, so token order and precedence count."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        got = evaluate_points(spec, s, x)[1]
        want = flag_strings(spec, s, x)
    assert got.tolist() == want, (spec.name, s, x)
    return want


CASES = [(RN, rn_points()), (KERR, kerr_points()), (MIXED, mixed_points())]


@pytest.mark.parametrize("spec,points", CASES, ids=[c[0].name for c in CASES])
def test_batched_rows_match_scalar_api(spec, points):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(points, min_size=1, max_size=30))
    def check(drawn):
        assert_matches_scalar(spec, drawn)
        tiled = drawn * (25 // len(drawn) + 1)  # again in a batch of 26 or more
        assert len(tiled) > 25
        assert_matches_scalar(spec, tiled)
        for rows in (drawn, tiled):
            assert_flags_are_the_token_loop(spec, [p[0] for p in rows], [p[1] for p in rows])
    check()


def test_bit_mask_flags_keep_the_order_and_precedence_of_the_token_loop(cy_toy):
    # MIXED fails in every way on the first grid and flags responses on the second
    cases = [(MIXED, np.linspace(-1.0, 2200.0, 60), np.linspace(0.25, 3.0, 40)),
             (MIXED, np.linspace(-2.0, 4.0, 61), np.linspace(-2.0, 3.0, 51)),
             # RN on its C_Q line S = 3 Q^2 and below S = Q^2, where T < 0
             (RN, np.array([1.0, 3.0, 0.5]), np.linspace(0.05, 1.5, 30)),
             # det H = 1 + S - X^2 vanishes on the diagonal: S = 3, X = 2
             (cy_toy, np.linspace(2.5, 3.5, 11), np.linspace(1.5, 2.5, 11))]
    found = []
    for spec, s, x in cases:
        s, x = (axis.ravel() for axis in np.meshgrid(s, x, indexing="ij"))
        found += assert_flags_are_the_token_loop(spec, s, x)
    tokens = [tag.split(";") for tag in found]
    assert {t for tag in tokens for t in tag} >= {
        "", "err:domain", "err:overflow", "overflow:cells", "err:responses", "neg:T",
        "undef:X", "div:RM", "div:RF", "div:CX", "div:CY", "div:alpha", "div:kappaT"}
    assert ["div:RM", "div:CY", "div:alpha", "div:kappaT"] in tokens    # curvature first
    assert ["div:RF", "div:CX"] in tokens
    for tag in tokens:      # an error or overflow:cells stands alone
        assert len(tag) == 1 or not {"err:domain", "err:overflow", "overflow:cells"} & {*tag}


def test_rn_scan_bytes_match_row_by_row_formatting(tmp_path):
    # S = 0.5..10 spans T < 0 (S < Q^2) and crosses the C_Q line S = 3 Q^2
    out = tmp_path / "rn.csv"
    assert main(["scan", "--catalog", "reissner-nordstrom", "--grid",
                 "S=0.5:10:20", "--grid", "Q=0.05:1.5:20", "--out", str(out)]) == 0
    expected = tmp_path / "expected.csv"
    rows = []
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for k in range(20):
            for j in range(20):
                s = 0.5 + (10.0 - 0.5) / 19 * k
                q = 0.05 + (1.5 - 0.05) / 19 * j
                cells, flags = scalar_row(RN, s, q)
                writer.writerow([f"{v:.17g}" for v in cells] + [flags])
                rows.append((s, q, flags))
    assert any(s <= q * q and "neg:T" in flags for s, q, flags in rows)
    assert any(q * q < s < 3 * q * q for s, q, _ in rows)
    assert any(s > 3 * q * q for s, q, _ in rows)
    assert out.read_bytes() == expected.read_bytes()


def test_batch_warns_once_for_ill_conditioned_divisions():
    s = [2.0 + 1e-13, 2.0 - 1e-13, 2.0 + 2e-13, 3.0]
    with pytest.warns(ConditioningWarning, match="at 3 points") as record:
        evaluate_points(MIXED, s, [1.0] * 4)
    assert len([w for w in record if w.category is ConditioningWarning]) == 1


@pytest.mark.parametrize("n", [3, 100])
@pytest.mark.parametrize("src, s, ill", [
    # a constant divisor below the floor: every point still live is marked
    ("S/1e-13 + X", [2.5, 2.0 + 1e-13, -1.0, 3.0], lambda s, x: (s > 0) & (x > 0)),
    # S - 2 near zero; at S = 2 it is below the division floor (a domain error)
    ("X^3/(S - 2)", [2.0 + 1e-13, 2.0, 2.0 - 4e-16, 3.0, 2.0 - 2e-13],
     lambda s, x: (abs(s - 2.0) < 1e-12) & (s != 2.0) & (s > 0) & (x > 0)),
    # the same divisor from a coordinate passed as a float
    ("X^3/(S - 2)", 2.0 + 1e-13, lambda s, x: x > 0),
])
def test_both_paths_give_the_same_codes_and_one_warning(n, src, s, ill):
    x = np.linspace(-0.5, 2.0, n)
    s = np.resize(s, n) if isinstance(s, list) else s
    outcome = both_paths(parse_potential(src), s, x)
    count = np.count_nonzero(ill(np.broadcast_to(s, n), x))
    assert outcome[2] == [f"division by small values at {count} points; "
                          "results may be ill-conditioned"]


def both_paths(spec, s, x, order=3):
    """The jet bits, failure codes and ConditioningWarning texts of ``eval_jets``,
    which must be those of scalar ``eval_jet`` point by point (``jets_oracle``)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jet, code = eval_jets(spec, s, x, order=order)
    outcome = ([c.tobytes() for c in jet], code.tolist(),
               [str(w.message) for w in caught if w.category is ConditioningWarning])
    assert outcome == pointwise_jets(spec, s, x, order), \
        (format_expression(spec.ast), spec.params, s, x)
    return outcome


def assert_second_order_agrees(full, second):
    """``both_paths`` outcomes of the full and the second-order code: the
    value and the first and second partials agree bit for bit, and so do the
    failure codes, except where the full pass fails a point with OVERFLOW in
    a third partial (or a power that feeds one).  The second-order pass then
    succeeds, or fails a later check that the full pass never reached.  The
    second-order third partials are nan."""
    (full_jet, full_code, _), (jet, code, _) = full, second
    same = np.equal(full_code, code)
    assert all(a == OVERFLOW and b in (0, DOMAIN) for a, b in zip(full_code, code)
               if a != b), (full_code, code)
    for got, want in zip(jet[:6], full_jet[:6]):
        assert (np.frombuffer(got, np.int64) == np.frombuffer(want, np.int64))[same].all()
    assert all(np.isnan(np.frombuffer(c)).all() for c in jet[6:])


EDGES = {"S": (-1.0, None), "X": (None, 1e170)}
# clean coordinates, and ones that fail each check of a batch: the domain's
# edges, nan and inf; zero and negative sqrt/ln/pow bases; divisors under
# the division floor; overflows; divisors under the conditioning floor
VALUES = st.one_of(st.floats(-0.9, 4.0), st.sampled_from([
    -1.0, 1e170, math.nan, math.inf, 0.0, -0.0, -0.5, 1e-300, 5e-324, 1e160, 710.0,
    1e-13, -2e-13]))
QUOTIENTS = st.tuples(EXPRESSIONS, EXPRESSIONS).map(lambda t: f"({t[0]}) / ({t[1]})")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(EXPRESSIONS, QUOTIENTS), PARAMS,
       st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=12), st.sampled_from(["", "X"]))
# each check at least once: the domain's edges and nan, a ln base, a pow
# base, exp's overflow and the X edge
@example("ln(S) * X^0.5 + exp(S)", 2.0,
         [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.5), (710.0, 1.0), (2.0, 1e170), (math.nan, 1.0)],
         "")
# the division floor and ill-conditioned divisors, and a constant one
# that marks every point still live
@example("S/X + X/k", 1e-13, [(1.0, 1e-13), (2.0, 1.0), (1.0, -2e-13), (1.0, 5e-324)], "")
# pow's overflow, which the jet would hide: exp(-inf) is 0 and the
# chain rule's cube of S^0.2 stays finite
@example("exp(-S^1.2) + X", 2.0, [(1e300, 1.0), (2.0, 1.0)], "")
# sqrt's zero test: sqrt(S) * S * S underflows to zero, with X a float
@example("sqrt(S) + X/S", 2.0, [(1e-300, 1.0), (2.0, 1.0), (5e-324, 0.5)], "X")
# the cube of d(S*S)/dS = 2e103 overflows in the full code alone, which then
# never reaches ln's check at X = -1
@example("sqrt(S*S) + ln(X)", 2.0, [(1e103, -1.0), (1e103, 1.0), (2.0, 1.0)], "")
# edge batches: no point, two floats (a constant divisor under the
# conditioning floor), and a float S with X across the domain's edge
@example("S/X + X/k", 2.0, [], "")
@example("S/X + X/k", 1e-13, [(2.0, 0.5)], "SX")
@example("ln(S) * X^0.5 + exp(S)", 2.0,
         [(2.0, 1.0), (2.0, 1e170), (2.0, 2e170), (2.0, math.inf), (2.0, -0.5)], "S")
def test_the_array_pass_matches_point_by_point_on_drawn_potentials(src, k, points, floats):
    # the coordinates named in ``floats`` are the first point's, as a float
    try:
        spec = parse_potential(src, ("S", "X"), {"k": k}, domain=EDGES)
    except ValueError:              # fails at every point: rejected on load
        return
    s, x = (points[0][j] if name in floats else np.array([p[j] for p in points])
            for j, name in enumerate("SX"))
    assert_second_order_agrees(both_paths(spec, s, x), both_paths(spec, s, x, order=2))
    assert_flags_are_the_token_loop(spec, *np.broadcast_arrays(s, x))


@pytest.mark.filterwarnings("ignore::thermocurv.jets.ConditioningWarning")
def test_a_third_order_overflow_fails_a_point_of_the_full_pass_alone():
    # ln''' = 2/S^3 = 2e150 at S = 1e-50, so M_SSS overflows and M_SS does not;
    # the reciprocal's -6/S^4 overflows at S = 1e-80, and the square root's
    # 0.375/(r S^2) divides by zero at S = 1e-160: the second-order code asks
    # neither helper for its third derivative, so it computes neither
    for src, s, m_ss in (("1e200*ln(S) + X^2", 1e-50, -1.0000000000000002e300),
                         ("1/S + X^2", 1e-80, 2.0 * (1.0 / 1e-80) ** 3),
                         ("sqrt(S) + X^2", 1e-160, -0.25 / (1e-80 * 1e-160))):
        spec = parse_potential(src)
        full = both_paths(spec, np.array([s]), np.array([1.0]))
        second = both_paths(spec, np.array([s]), np.array([1.0]), order=2)
        assert full[1] == [OVERFLOW] and second[1] == [0], src
        assert np.frombuffer(second[0][3]).tolist() == [m_ss], src
        assert_second_order_agrees(full, second)
        assert eval_jet(spec, (s, 1.0), order=2).ss == m_ss, src
    # no other order has code: it would give nan third partials unasked
    for order in ("3", 0, 1, 4):
        with pytest.raises(ValueError, match="order must be 2 or 3"):
            eval_jet(spec, (1.0, 1.0), order=order)
        with pytest.raises(ValueError, match="order must be 2 or 3"):
            eval_jets(spec, np.array([1.0]), np.array([1.0]), order=order)


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("spec", [parse_potential("S"), parse_potential("X"),
                                  parse_potential("2"), RN], ids=["S", "X", "const", "rn"])
def test_no_returned_array_aliases_an_input(spec, n):
    s, x = np.linspace(0.5, 4.0, n), np.linspace(0.1, 1.5, n)
    kept = s.copy(), x.copy()
    with batch(n):
        jet = eval_jet(spec, (s, x))
    returned = [*jet, *eval_jets(spec, s, x)[0], eval_scalar(spec, (s, x))]
    for value in returned:
        assert not np.shares_memory(value, s) and not np.shares_memory(value, x)
    assert s.tobytes() == kept[0].tobytes() and x.tobytes() == kept[1].tobytes()


def test_array_coordinates_need_a_batch_even_where_no_point_fails():
    s, x = np.linspace(0.5, 4.0, 40), np.linspace(0.1, 1.5, 40)
    with pytest.raises(RuntimeError, match="inside jets.batch"):
        eval_jet(RN, (s, x))


def test_safe_div_signs_match_for_floats_and_arrays():
    nums = [1.0, -1.0, 0.0, 2.0, -3.0]
    dens = [0.0, -0.0, -0.0, -0.0, 4.0]
    batched = _safe_div(np.array(nums), np.array(dens))
    for k, (num, den) in enumerate(zip(nums, dens)):
        assert float(batched[k]).hex() == _safe_div(num, den).hex()
    assert batched[1] == -math.inf and batched[3] == math.inf


@pytest.mark.parametrize("src, s_mid", [
    ("exp(S) + X^2", 800.0),      # math.exp overflows
    ("sqrt(S*S) + X^2", 1e103),   # the chain rule's (2 S)**3 overflows in pow
])
def test_elementwise_overflow_fails_only_its_point(src, s_mid):
    spec = parse_potential(src)
    s, x = [1.5, s_mid, 2.5], [0.5, 0.75, 1.25]
    columns, flags = evaluate_points(spec, s, x)
    assert flags[1] == "err:overflow"
    for k in (0, 2):
        alone, alone_flags = evaluate_points(spec, [s[k]], [x[k]])
        assert "err:" not in flags[k] and flags[k] == alone_flags[0]
        assert [float(columns[c][k]).hex() for c in COLUMNS[:-1]] == \
            [float(alone[c][0]).hex() for c in COLUMNS[:-1]]
