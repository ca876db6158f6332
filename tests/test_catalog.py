import numpy as np
import pytest

from thermocurv import (curvature_from_m_jet, eval_jet, eval_scalar, get_entry,
                        entry_names, potential_from_json)
from thermocurv import catalog
from thermocurv.catalog import UnknownPotentialError
from conftest import closed_form


def test_known_names():
    assert entry_names() == ("kerr", "quadratic-toy", "reissner-nordstrom")
    with pytest.raises(UnknownPotentialError):
        get_entry("schwarzschild")


@pytest.mark.parametrize("name", ["reissner-nordstrom", "kerr", "quadratic-toy"])
def test_an_entry_is_built_once(monkeypatch, name):
    first = get_entry(name)
    parsed = []
    monkeypatch.setattr(catalog, "parse_potential", lambda *a, **k: parsed.append(a))
    assert get_entry(name) is first and parsed == []


def test_reference_spot_values(rn, kerr, quad):
    assert closed_form(rn, "reference_rf")(1.0, 0.5) == pytest.approx(64.0, rel=1e-15)
    assert closed_form(rn, "reference_rm")(1.0, 0.5) == pytest.approx(32.0 / 9.0, rel=1e-15)
    assert closed_form(rn, "reference_f")(3.0, 1.0) == 0.0
    assert closed_form(kerr, "reference_rm")(4.0, 0.7) == 0.0
    assert closed_form(quad, "reference_rm")(1.0, 1.0) == 0.0
    assert closed_form(quad, "reference_rf")(1.0, 1.0) == 0.0
    assert closed_form(quad, "reference_f")(1.0, 1.0) == 1.0


def test_domain_guards(rn, kerr):
    usable = closed_form(rn, "usable")
    assert usable(1.0, 0.5) > 0.0 and not usable(0.2, 0.5) > 0.0
    usable = closed_form(kerr, "usable")
    assert usable(3.0, 1.0) > 0.0 and not usable(1.9, 1.0) > 0.0


def _grid(entry, n=20):
    """Log-spaced in-domain grid avoiding the divergence line."""
    lo, hi = entry.default_grid[0].lo, entry.default_grid[0].hi
    usable, f = closed_form(entry, "usable"), closed_form(entry, "reference_f")
    pts = []
    for s in np.geomspace(lo, hi, n):
        for x in np.geomspace(0.05, 0.45, n):
            s, x = float(s), float(x)
            if not usable(s, x) > 0.0:
                continue
            scale = max(1.0, abs(f(s, 1e-6)))
            if abs(f(s, x)) < 1e-3 * scale:
                continue
            pts.append((s, x))
    return pts


@pytest.mark.parametrize("name", ["reissner-nordstrom", "kerr", "quadratic-toy"])
def test_golden_curvature_grid(name):
    entry = get_entry(name)
    pts = _grid(entry)
    assert len(pts) > 200
    rm, rf = closed_form(entry, "reference_rm"), closed_form(entry, "reference_rf")
    for s, x in pts:
        c = curvature_from_m_jet(eval_jet(entry.spec, (s, x)))
        want_rm = rm(s, x)
        want_rf = rf(s, x)
        scale = max(1.0, abs(want_rm), abs(want_rf))
        assert abs(c.r_m - want_rm) <= 1e-9 * scale, (name, s, x)
        assert abs(c.r_f - want_rf) <= 1e-9 * scale, (name, s, x)


def test_closed_forms_against_symbolic_riemann(rn, kerr):
    """Independent oracle: build each metric symbolically, run the standard
    Christoffel/Riemann contraction, and compare with the catalog's
    closed-form references at sample points."""
    sp = pytest.importorskip("sympy")
    from test_symbolic_curvature import scalar_curvature

    s_sym, x_sym = sp.symbols("s x", positive=True)
    cases = [
        (rn, sp.sqrt(s_sym) / 2 * (1 + x_sym ** 2 / s_sym), (1.0, 0.5)),
        (kerr, sp.sqrt(s_sym / 4 + x_sym ** 2 / s_sym), (4.0, 0.7)),
    ]
    for entry, m_sym, (s0, x0) in cases:
        g_m = sp.Matrix([[sp.diff(m_sym, s_sym, 2),
                          sp.diff(m_sym, s_sym, x_sym)],
                         [sp.diff(m_sym, s_sym, x_sym),
                          sp.diff(m_sym, x_sym, 2)]])
        g_f = sp.diag(-sp.diff(m_sym, s_sym, 2), sp.diff(m_sym, x_sym, 2))
        rm_sym = float(scalar_curvature(g_m, (s_sym, x_sym)).subs(
            {s_sym: sp.Rational(s0), x_sym: sp.Rational(x0)}))
        rf_sym = float(scalar_curvature(g_f, (s_sym, x_sym)).subs(
            {s_sym: sp.Rational(s0), x_sym: sp.Rational(x0)}))
        assert rm_sym == pytest.approx(closed_form(entry, "reference_rm")(s0, x0), abs=1e-10)
        assert rf_sym == pytest.approx(closed_form(entry, "reference_rf")(s0, x0), rel=1e-10)


def test_entries_export_as_potential_json(rn, kerr, quad):
    for entry in (rn, kerr, quad):
        doc = entry.to_json()
        assert set(doc) == {"name", "coords", "expression", "params", "domain"}
        again = potential_from_json(doc)
        s, x = 2.0, 0.3
        assert eval_scalar(again, (s, x)) == pytest.approx(
            eval_scalar(entry.spec, (s, x)), rel=1e-15)
