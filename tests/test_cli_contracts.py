"""The CLI contracts of the README on inputs beyond the catalog.

``eval``, ``scan`` and ``check`` exit 0 (or 1 for a failed ``check``) or 2
with an ``error:`` message, never with a traceback; a ``scan`` emits one row
per grid point; a row with a non-finite cell carries a flag token; and a
JSON document is the text of ``json.dumps(doc, indent=2)``.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_codegen import EXPRESSIONS, PARAMS
from test_potentials import DOC, MALFORMED_CHANGES
from thermocurv.cli import COLUMNS, _write_json, main
from thermocurv.jets import ConditioningWarning

OVERFLOW = "(1e200)^(S - X)"   # finite jet at S=1, X=0.1; M_SS M_XX overflows
CHAIN = " + ".join(["S"] * 1200) + " + X^2"


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contracts")


def run(doc_dir, doc, *argv):
    """``main`` on ``doc`` written as a potential file: exit code, stdout
    and stderr."""
    path = doc_dir / "potential.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([argv[0], "--potential-file", str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def scan_rows(out, count):
    """The rows of a scan's CSV, checked: ``count`` of them, all columns,
    and a flag on every row with a non-finite cell."""
    lines = out.split("\r\n")
    assert lines[0] == ",".join(COLUMNS) and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == count
    for row in rows:
        assert len(row) == len(COLUMNS)
        assert row[-1] or all(math.isfinite(float(c)) for c in row[:-1]), row
    return rows


def potential(src, k=2.0, negative_s=False):
    return {"name": "drawn", "coords": ["S", "X"], "expression": src, "params": {"k": k},
            "domain": {"S": [None, 0 if negative_s else None], "X": [None, None]}}


@pytest.mark.parametrize("src, t_at_1", [
    (CHAIN, 1200.0),
    (" + ".join(["S"] * 20000) + " + X^2", 20000.0),
    ("S^(" + " + ".join(["X"] * 1200) + ") + X", 600.0),    # a chain in an exponent
    ("sqrt(" * 99 + " + ".join(["S"] * 900) + ")" * 99 + " + X^2", 2.0 ** -99 * 900 ** 2.0 ** -99),
], ids=["1200-terms", "20000-terms", "in-exponent", "under-99-calls"])
def test_long_chains_evaluate(doc_dir, src, t_at_1):
    code, out, err = run(doc_dir, potential(src), "eval", "--at", "S=1,X=0.5")
    assert code == 0, err
    assert json.loads(out)["T"] == pytest.approx(t_at_1, rel=1e-12)
    code, out, err = run(doc_dir, potential(src), "scan", "--grid", "S=0.5:2:4",
                         "--grid", "X=0.25:0.5:2")
    assert code == 0, err
    assert float(scan_rows(out, 8)[3][2]) == pytest.approx(t_at_1, rel=1e-12)  # S=1, X=0.5


def test_cells_that_overflow_from_a_finite_jet_are_flagged(doc_dir):
    code, out, _ = run(doc_dir, potential(OVERFLOW), "eval", "--at", "S=1,X=0.1")
    doc = json.loads(out)
    assert code == 0 and doc["flags"] == ["overflow:cells"]
    assert doc["T"] == 4.6051701859882877e+182 and doc["detGM"] is None
    assert doc["CX"] == 0.0021714724095162593      # finite cells as computed
    code, out, _ = run(doc_dir, potential(OVERFLOW), "scan", "--grid", "S=1:2:2",
                       "--grid", "X=0.1:0.1:1")
    assert code == 0
    assert [row[-1] for row in scan_rows(out, 2)] == ["overflow:cells", "err:overflow"]


# one axis of a grid: (lo, hi, count); the first point is eval's
AXES = st.sampled_from([(0.5, 4.0, 3), (1.0, 1.0, 1), (-2.0, -0.5, 3), (-1.0, 1.0, 3),
                        (0.1, 1.0, 2)])
DOCUMENTS = st.one_of(
    st.builds(potential, EXPRESSIONS, PARAMS, st.booleans()),
    st.sampled_from(MALFORMED_CHANGES).map(lambda change: {**DOC, **change}))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(DOCUMENTS, st.sampled_from(["eval", "scan", "check"]), AXES, AXES)
@example(potential(CHAIN), "eval", (1.0, 1.0, 1), (0.5, 4.0, 3))
@example(potential(CHAIN), "scan", (0.5, 4.0, 3), (0.5, 4.0, 3))
@example(potential(OVERFLOW), "eval", (1.0, 1.0, 1), (0.1, 1.0, 2))
@example(potential(OVERFLOW), "scan", (1.0, 1.0, 1), (0.1, 1.0, 2))
def test_drawn_potentials_keep_the_cli_contract(doc_dir, doc, command, s_axis, x_axis):
    grid = [f"{name}={lo!r}:{hi!r}:{n}" for name, (lo, hi, n) in (("S", s_axis), ("X", x_axis))]
    if command == "eval":
        argv = ["--at", f"S={s_axis[0]!r},X={x_axis[0]!r}"]
    else:
        argv = ["--grid", grid[0], "--grid", grid[1]]
    code, out, err = run(doc_dir, doc, command, *argv)
    assert code in ((0, 1, 2) if command == "check" else (0, 2)), (doc, err)
    if code == 2:
        assert err.startswith("error: "), (doc, err)
    elif command == "scan":
        scan_rows(out, s_axis[2] * x_axis[2])
    elif command == "eval":
        result = json.loads(out)
        assert result["flags"] or None not in result.values(), (doc, result)
    else:
        assert out.endswith(("CHECK PASSED\n", "CHECK FAILED\n")[code]), (doc, out)


# the floats at the edges of repr, the strings the encoder escapes, and
# non-ASCII ones
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, math.nan,
                     math.inf, -math.inf]),
    st.text(), st.sampled_from(['"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", "é", "€",
                                "\U0001f600", "\u2028", "/"]))
JSON_DOCS = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(['"', "é\n", ""])), inner,
                    max_size=4)), max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_DOCS)
def test_json_documents_are_the_stdlib_text(doc_dir, doc):
    path = doc_dir / "doc.json"
    _write_json(str(path), doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
