import json
import math

import numpy as np
import pytest

from fdtools import fd_partials
from thermocurv import (DomainError, ParseError, eval_jet, eval_scalar,
                        format_expression, parse_potential,
                        potential_from_json, potential_to_json)
from thermocurv.cli import main
from thermocurv.potentials import UnknownIdentifierError, load_potential_file


def test_precedence_and_associativity():
    spec = parse_potential("2+3*4", ("S", "X"))
    assert eval_scalar(spec, (1.0, 1.0)) == 14.0
    assert eval_scalar(parse_potential("2*3^2", ("S", "X")), (1, 1)) == 18.0
    assert eval_scalar(parse_potential("2^3^2", ("S", "X")), (1, 1)) == 512.0
    assert eval_scalar(parse_potential("-2^2", ("S", "X")), (1, 1)) == -4.0
    assert eval_scalar(parse_potential("2^-1", ("S", "X")), (1, 1)) == 0.5
    assert eval_scalar(parse_potential("(1+2)*(3+4)", ("S", "X")), (1, 1)) == 21.0
    assert eval_scalar(parse_potential("6/3/2", ("S", "X")), (1, 1)) == 1.0
    assert eval_scalar(parse_potential("1e-1*S + 2.5E+1", ("S", "X")), (2, 1)) == 25.2


def test_rn_potential_values(rn):
    assert eval_scalar(rn.spec, (4.0, 1e-12)) == pytest.approx(1.0, rel=1e-9)
    assert eval_scalar(rn.spec, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-15)


def test_kerr_potential_value(kerr):
    assert eval_scalar(kerr.spec, (2.0, 1e-12)) == pytest.approx(
        math.sqrt(0.5), rel=1e-9)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_potential("sqrt(", ("S", "X"))
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_potential("2S", ("S", "X"))   # no implicit multiplication
    assert err.value.position == 1
    with pytest.raises(UnknownIdentifierError) as err:
        parse_potential("S + foo", ("S", "X"))
    assert err.value.position == 4


MALFORMED = ["", "   ", "(", ")", "1+", "*3", "sqrt", "sqrt()", "1 2",
             "a..b", "^2", "2^", "foo(3)", "1,2", "S +* X", "((S)", "S!"]


@pytest.mark.parametrize("src", MALFORMED)
def test_malformed_inputs_raise_with_position(src):
    with pytest.raises(ParseError) as err:
        parse_potential(src, ("S", "X"))
    assert isinstance(err.value.position, int)
    assert err.value.position >= 0


def test_identifier_validation():
    with pytest.raises(ValueError):
        parse_potential("S", ("S", "S"))
    with pytest.raises(ValueError):
        parse_potential("S", ("sqrt", "X"))
    with pytest.raises(ValueError):
        parse_potential("S", ("S", "X"), {"S": 1.0})
    # case sensitivity: q and Q are different identifiers
    spec = parse_potential("S + q*Q", ("S", "Q"), {"q": 2.0})
    assert eval_scalar(spec, (1.0, 3.0)) == 7.0


def test_rn_jet_matches_printed_second_derivative(rn):
    jet = eval_jet(rn.spec, (1.0, 0.5))
    # M_SS = -(S - 3 Q^2) / (8 S^{5/2})
    assert jet.ss == pytest.approx(-0.03125, abs=1e-15)
    assert jet.v == eval_scalar(rn.spec, (1.0, 0.5))


def test_kerr_jet_matches_printed_second_derivative(kerr):
    s, j = 1.0, 0.3
    jet = eval_jet(kerr.spec, (s, j))
    want = -(s**4 - 24 * s**2 * j**2 - 48 * j**4) / (
        8 * s**2.5 * (s**2 + 4 * j**2) ** 1.5)
    assert jet.ss == pytest.approx(want, rel=1e-13)


def test_quadratic_third_derivatives_vanish(quad):
    jet = eval_jet(quad.spec, (1.7, 2.9))
    assert jet.d3 == (0.0, 0.0, 0.0, 0.0)
    assert jet.d2 == (1.0, 0.0, 1.0)


def test_jet_value_equals_scalar_eval(rn, kerr, quad, cy_toy):
    rng = np.random.default_rng(3)
    for spec in (rn.spec, kerr.spec, quad.spec, cy_toy):
        for _ in range(20):
            s = float(rng.uniform(0.5, 8.0))
            x = float(rng.uniform(0.1, 2.0))
            assert eval_jet(spec, (s, x)).v == pytest.approx(
                eval_scalar(spec, (s, x)), rel=1e-15, abs=1e-300)


def test_jet_derivatives_match_finite_differences(rn, kerr):
    for spec, pts in ((rn.spec, [(1.3, 0.4), (5.0, 1.1)]),
                      (kerr.spec, [(4.0, 0.8), (9.0, 1.2)])):
        for s, x in pts:
            jet = eval_jet(spec, (s, x))
            fd = fd_partials(lambda a, b: eval_scalar(spec, (a, b)), s, x)
            for got, want in zip(jet.coeffs(), fd):
                assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_roundtrip_print_parse(rn, kerr, quad):
    rng = np.random.default_rng(11)
    gnarly = parse_potential(
        "-sqrt(S)/2 * (1 + Q^2/S) + ln(S + Q^2) - 2^-Q + (S - Q)/(S + Q) * exp(Q/S)",
        ("S", "Q"), name="gnarly")
    for spec in (rn.spec, kerr.spec, quad.spec, gnarly):
        text = format_expression(spec.ast)
        again = parse_potential(text, spec.coords, spec.params, name=spec.name)
        for _ in range(100):
            s = float(rng.uniform(0.5, 9.0))
            x = float(rng.uniform(0.05, 1.5))
            a = eval_scalar(spec, (s, x))
            b = eval_scalar(again, (s, x))
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def test_domain_checks():
    spec = parse_potential("sqrt(S) + X", ("S", "X"),
                           domain={"S": (1.0, 10.0), "X": (None, None)})
    assert spec.domain == ((1.0, 10.0), (-math.inf, math.inf))
    assert eval_scalar(spec, (4.0, -3.0)) == -1.0
    with pytest.raises(DomainError):
        eval_scalar(spec, (0.5, 0.0))     # below S interval
    with pytest.raises(DomainError):
        eval_scalar(spec, (1.0, 0.0))     # interval is open
    with pytest.raises(DomainError):
        eval_scalar(parse_potential("ln(S - 2)", ("S", "X")), (1.5, 1.0))


def test_negative_base_power_rules():
    spec = parse_potential("(S - 2)^3", ("S", "X"),
                           domain={"S": (None, None), "X": (None, None)})
    assert eval_scalar(spec, (1.0, 1.0)) == -1.0
    frac = parse_potential("(S - 2)^0.5", ("S", "X"),
                           domain={"S": (None, None), "X": (None, None)})
    with pytest.raises(DomainError):
        eval_scalar(frac, (1.0, 1.0))
    # non-constant exponent requires a positive base
    varexp = parse_potential("(S - 2)^X", ("S", "X"),
                             domain={"S": (None, None), "X": (None, None)})
    assert eval_scalar(varexp, (4.0, 2.0)) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(DomainError):
        eval_scalar(varexp, (1.0, 2.0))


def test_parameter_binding():
    spec = parse_potential("sqrt(S)/2 * (1 + Q^2/S) * scale", ("S", "Q"),
                           {"scale": 2.0})
    assert eval_scalar(spec, (1.0, 1.0)) == pytest.approx(2.0, rel=1e-15)
    jet = eval_jet(spec, (1.0, 0.5))
    assert jet.ss == pytest.approx(-0.0625, abs=1e-15)


def test_json_interchange(rn, tmp_path):
    doc = potential_to_json(rn.spec)
    assert doc["coords"] == ["S", "Q"]
    assert doc["domain"] == {"S": [0.0, None], "Q": [0.0, None]}
    again = potential_from_json(doc)
    assert eval_scalar(again, (2.0, 0.7)) == pytest.approx(
        eval_scalar(rn.spec, (2.0, 0.7)), rel=1e-15)

    path = tmp_path / "potential.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_potential_file(path)
    assert loaded.name == "reissner-nordstrom"

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "coords": ["S"', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_potential_file(bad)
    with pytest.raises(ValueError):
        potential_from_json({"name": "x", "coords": ["S", "X"]})
    with pytest.raises(ValueError):
        potential_from_json({"name": "x", "coords": ["S"], "expression": "S"})


DOC = {"name": "p", "coords": ["S", "X"], "expression": "S + k*X", "params": {"k": 2}}


@pytest.mark.parametrize("change", [
    {"params": {"k": "x"}}, {"params": {"k": None}}, {"params": [1]},
    {"params": {"k": float("nan")}}, {"params": {"k": float("inf")}},
    {"params": {"k": True}}, {"params": {"k": 10 ** 400}},
    {"domain": {"S": 5}}, {"domain": [1, 2]}, {"domain": {"S": [0, "a"]}},
    {"domain": {"S": [0, 1, 2]}}, {"expression": 5}, {"name": 5},
])
def test_malformed_documents_raise_value_error(change, tmp_path, capsys):
    doc = {**DOC, **change}
    with pytest.raises(ValueError):
        potential_from_json(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--potential-file", str(path), "--at", "S=1,X=1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_well_formed_documents_load():
    spec = potential_from_json({**DOC, "domain": {"S": [0, None], "X": [None, 3]}})
    assert spec.params == {"k": 2.0} and spec.domain == ((0.0, math.inf), (-math.inf, 3.0))
    assert eval_scalar(spec, (1.0, 2.0)) == 5.0
    assert potential_from_json({**DOC, "params": None, "expression": "S"}).params == {}


@pytest.mark.parametrize("src", ["(" * 2000 + "S" + ")" * 2000, "-" * 2000 + "S",
                                 "2^" * 2000 + "S", "sqrt(" * 2000 + "S" + ")" * 2000])
def test_deep_nesting_is_a_parse_error(src, tmp_path):
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_potential(src)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**DOC, "expression": src}), encoding="utf-8")
    assert main(["eval", "--potential-file", str(path), "--at", "S=1,X=1"]) == 2


def test_nesting_below_the_limit_and_long_chains_evaluate():
    assert eval_scalar(parse_potential("(" * 99 + "S" + ")" * 99), (2.0, 1.0)) == 2.0
    chain = parse_potential(" + ".join(["S*X"] * 900))   # iterative in the parser
    assert eval_jet(chain, (2.0, 1.0)).x == 1800.0
