"""Array paths that must round exactly as the float path: the array ``pow``
of the jet helpers, the catalog references evaluated on a whole block, a
``--ref-rm``/``--ref-rf`` expression on a block, and the S and X cells the
CSV writer formats once per value.

``np.float_power`` runs libm's ``pow`` per element, as Python's ``**`` and
``math.pow`` do; these tests would catch a numpy that moved it to a
vectorised ``pow`` that rounds differently (``np.power`` already may)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocurv import eval_scalar, get_entry, jets, parse_potential
from thermocurv.catalog import GridAxis
from thermocurv.cli import COLUMNS, _write_rows, main
from thermocurv.jets import DOMAIN, OVERFLOW, DomainError
from conftest import closed_form


def bits(value) -> str:
    """A float's bit pattern as text; every nan reads ``nan``."""
    value = float(value)
    return "nan" if math.isnan(value) else value.hex()


# magnitudes from subnormal to near the largest float, either sign
EXTREME = st.builds(lambda m, e, neg: -math.ldexp(m, e) if neg else math.ldexp(m, e),
                    st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024),
                    st.booleans())
BASES = st.lists(st.one_of(EXTREME, st.floats(width=64), st.sampled_from([0.0, -0.0])),
                 min_size=1, max_size=40)
POSITIVE = st.lists(st.one_of(EXTREME.map(abs), st.floats(min_value=5e-324)),
                    min_size=1, max_size=40).filter(lambda v: all(a > 0.0 for a in v))
# non-integer exponents and integers past jets._MAX_INT_POW
EXPONENTS = st.one_of(st.floats(-400.0, 400.0).filter(lambda p: not p.is_integer()),
                      st.integers(101, 400).map(float), st.integers(-400, -101).map(float))


def scalar(fn, *args):
    """``fn(*args)`` on floats, or ``None`` where it overflows."""
    try:
        return fn(*args)
    except OverflowError:
        return None


def assert_batch_matches(values, got, failures, expected):
    """Inside a batch: every point the scalar call evaluates equals it bit
    for bit, and every point where it overflows fails with ``OVERFLOW``."""
    for k, want in enumerate(expected):
        if want is None:
            assert failures.code[k] == OVERFLOW, values[k]
        else:
            assert failures.code[k] == 0, values[k]
            assert [bits(g[k]) for g in got] == [bits(w) for w in want], values[k]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BASES, st.integers(0, 16))
def test_array_ipow_is_python_pow_bit_for_bit(values, n):
    array = np.array(values)
    expected = [scalar(lambda v: (v ** n,), v) for v in values]
    with jets.batch(len(values)) as failures:
        got = jets._ipow(array, n)
    assert_batch_matches(values, [got], failures, expected)
    if any(want is None for want in expected):      # outside a batch an overflow raises
        with pytest.raises(OverflowError):
            jets._ipow(array, n)
    else:
        assert [bits(g) for g in jets._ipow(array, n)] == [bits(w) for w, in expected]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(POSITIVE, EXPONENTS)
def test_array_pow_helpers_are_math_pow_bit_for_bit(values, p):
    array = np.array(values)
    for helper in (jets._pow_outer, jets._pow_value):
        expected = [scalar(lambda v: np.atleast_1d(helper(v, p)).tolist(), v) for v in values]
        with jets.batch(len(values)) as failures:
            got = np.atleast_2d(helper(array, p))
        assert_batch_matches(values, got, failures, expected)
    expected = [scalar(math.pow, v, p) for v in values]
    if None in expected:
        with pytest.raises(OverflowError):
            jets._pow(math.pow, array, p)
    else:
        assert [bits(g) for g in jets._pow(math.pow, array, p)] == list(map(bits, expected))


def test_array_pow_fails_overflows_and_domain_points_alone():
    values = np.array([2.0, 1e300, -3.0, 0.0, math.inf, math.nan])
    with jets.batch(values.size) as failures:
        jets._pow_value(values, 2.5)
    assert failures.code.tolist() == [0, OVERFLOW, DOMAIN, DOMAIN, 0, 0]
    with jets.batch(values.size) as failures:
        out = jets._ipow(values, 3)
    assert failures.code.tolist() == [0, OVERFLOW, 0, 0, 0, 0]
    assert [bits(v) for v in out] == [bits(v ** 3) for v in (2.0, math.nan, -3.0, 0.0,
                                                              math.inf, math.nan)]


# the closed forms transcribed for floats in the expressions' order of operations:
# Python's ** for a non-integer power, repeated multiplication for an integer one
def rn_rm(s, q):
    d = s - q * q
    return 2.0 * s ** 1.5 / (d * d)


def rn_rf(s, q):
    d = s - 3.0 * q * q
    return 4.0 * s ** 1.5 / (d * d)


def kerr_f(s, j):
    return (s * s) * (s * s) - 24.0 * s * s * j * j - 48.0 * ((j * j) * (j * j))


def kerr_rf(s, j):
    f = kerr_f(s, j)
    return (18.0 * (s * s + 4.0 * j * j) ** 3.5 * (s * s - 4.0 * j * j)
            / (s ** 1.5 * (f * f)))


# the 200 x 200 grids the benchmark scans, before its jitter of the bounds
BENCH_GRIDS = {
    "kerr": (GridAxis(1.0, 10.0, 200, "log"), GridAxis(0.05, 0.45, 200)),
    "reissner-nordstrom": (GridAxis(0.5, 10.0, 200, "log"), GridAxis(0.05, 1.5, 200)),
}
FLOAT_FORMS = {"kerr": {"reference_rf": kerr_rf, "reference_f": kerr_f},
               "reissner-nordstrom": {"reference_rm": rn_rm, "reference_rf": rn_rf}}


@pytest.mark.parametrize("name", sorted(BENCH_GRIDS))
def test_block_references_equal_the_float_closed_forms(name):
    entry = get_entry(name)
    s_axis, x_axis = (axis.values() for axis in BENCH_GRIDS[name])
    s, x = np.repeat(s_axis, x_axis.size), np.tile(x_axis, s_axis.size)
    inside = closed_form(entry, "usable")(s, x) > 0.0
    s, x = s[inside], x[inside]
    assert s.size > 25_000
    for field, form in FLOAT_FORMS[name].items():
        closure = closed_form(entry, field)
        with np.errstate(all="ignore"):
            block = closure(s, x)
        want = [form(a, b) for a, b in zip(s.tolist(), x.tolist())]
        assert [bits(v) for v in block] == [bits(v) for v in want], field
        # the same closure on floats gives the same numbers
        assert [bits(closure(a, b)) for a, b in zip(s[::97].tolist(), x[::97].tolist())] \
            == [bits(v) for v in want[::97]], field


def test_eval_scalar_on_arrays_matches_each_point():
    spec = parse_potential("exp(S/3) * X^2.5 + ln(S) / (X - 1) + S^-1.5 * sqrt(X)")
    s, x = np.linspace(0.1, 30.0, 300), np.linspace(0.05, 4.0, 300)[::-1].copy()
    block = eval_scalar(spec, (s, x))
    assert [bits(v) for v in block] == \
        [bits(eval_scalar(spec, (a, b))) for a, b in zip(s.tolist(), x.tolist())]
    constant = parse_potential("2 + 3")
    assert eval_scalar(constant, (s, x)).tolist() == [5.0] * s.size


@pytest.mark.parametrize("src, s", [
    ("sqrt(S - 2)", [3.0, 2.5, 1.5, 1.0]),      # first failure at S = 1.5
    ("ln(S - 2)", [3.0, 2.0, 1.0, 4.0]),
    ("1/(S - 2)", [3.0, 2.0, 1.0, 4.0]),        # below the division floor
    ("S + X", [3.0, -1.0, 2.0, 4.0]),           # outside the coordinate domain
])
def test_eval_scalar_on_arrays_raises_as_its_first_failing_point(src, s):
    spec = parse_potential(src)
    s, x = np.array(s), np.full(len(s), 0.5)
    alone = [domain_error(spec, (a, 0.5)) for a in s.tolist()]
    with pytest.raises(DomainError) as block:
        eval_scalar(spec, (s, x))
    assert str(block.value) == next(filter(None, alone))


def domain_error(spec, point):
    """The text of the ``DomainError`` that ``eval_scalar`` raises, or ``None``."""
    try:
        eval_scalar(spec, point)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("option, expr, message", [
    ("--ref-rm", "sqrt(S - 2)", "error: sqrt undefined for value -1.5"),
    ("--ref-rf", "ln(S - 1)", "error: ln undefined for value -0.5"),
    ("--ref-rm", "1/(S - 0.5)", "error: div undefined for value 0.0"),
])
def test_check_reference_outside_its_domain_exits_2(option, expr, message, capsys):
    code = main(["check", "--catalog", "reissner-nordstrom", option, expr])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(message), captured.err


@pytest.mark.parametrize("expr", ["exp(S*300)", "S^400.5"])
def test_check_reference_that_overflows_exits_2(expr, capsys):
    # math.exp/math.pow raise OverflowError at the first point; exit 1 would
    # read as a failed check
    code = main(["check", "--catalog", "reissner-nordstrom", "--grid", "S=0.5:10:5:log",
                 "--grid", "Q=0.05:1.5:5", "--ref-rm", expr])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: math range error\n"


@pytest.mark.parametrize("refs, failing", [
    (["--ref-rm", "(S*1e300*1e300) - (S*1e300*1e300)", "--ref-rf", "(S*1e300*1e300)"],
     ["golden:RF", "golden:RM"]),                   # nan and inf at every point
    (["--ref-rm", "(S*1e200)*(S*1e200)"], ["golden:RM"]),
])
def test_check_fails_a_residual_it_could_not_compute(refs, failing, capsys):
    code = main(["check", "--catalog", "reissner-nordstrom", "--grid", "S=0.5:10:5:log",
                 "--grid", "Q=0.05:1.5:5", *refs])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and lines[-1] == "CHECK FAILED"
    assert [ln.split()[1] for ln in lines if ln.split()[0] == "FAIL"] == failing
    assert all(ln.endswith("max residual nan") for ln in lines if ln.split()[0] == "FAIL")


def test_check_with_an_exact_reference_expression_passes(capsys):
    assert main(["check", "--catalog", "reissner-nordstrom",
                 "--ref-rm", "2*S^1.5/(S - Q^2)^2", "--ref-rf", "4*S^1.5/(S - 3*Q^2)^2"]) == 0
    out = capsys.readouterr().out
    assert "CHECK PASSED" in out and "golden:RM" in out and "golden:RF" in out


def test_csv_axis_cells_keep_signed_zeros_and_nans_apart(tmp_path):
    s = np.array([-0.0, 0.0, -0.0, math.nan, 1e-300, 0.1 + 0.2, 0.3, math.inf, -math.inf])
    x = np.array([0.0, -0.0, 0.0, 1.0, -math.nan, 0.3, 0.1 + 0.2, 2.0, 2.0])
    rng = np.random.default_rng(7)
    columns = {name: rng.standard_normal(s.size) for name in COLUMNS[2:-1]}
    columns.update(S=s, X=x)
    flags = np.array(["", "div:RM", "", "", "", "", "", "", "err:domain"], dtype=object)
    args = type("Args", (), {"format": "csv", "out": str(tmp_path / "rows.csv")})
    spec = parse_potential("S + X")
    _write_rows(args, spec, [lambda: (columns, flags)] * 2)   # two blocks: forks a child
    rows = [",".join("%.17g" % columns[name][k] for name in COLUMNS[:-1]) + "," + flags[k]
            for k in range(s.size)]
    expected = "\r\n".join([",".join(COLUMNS), *rows, *rows]) + "\r\n"
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()
