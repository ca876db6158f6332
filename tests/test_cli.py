import argparse
import json
import math
import pathlib
import re
import shlex

import pytest

import approach_oracle
from test_exact_arrays import BENCH_GRIDS
from thermocurv import DomainError, StatePoint, get_entry, load_potential_file
from thermocurv.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_rn_point(capsys):
    code, out, err = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                         "--at", "S=1,Q=0.5")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["RM"] == pytest.approx(32.0 / 9.0, rel=1e-12)
    assert doc["RF"] == pytest.approx(64.0, rel=1e-12)
    assert doc["CX"] == pytest.approx(-6.0, rel=1e-12)
    assert doc["coords"] == {"S": "S", "X": "Q"}
    assert doc["flags"] == []


def test_eval_kerr_flat(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "kerr", "--at", "S=25,J=1")
    doc = json.loads(out)
    assert abs(doc["RM"]) <= 1e-9 * max(1.0, abs(doc["RF"]))


def test_eval_generic_coordinate_names(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                       "--at", "S=1,X=0.5")
    assert code == 0
    assert json.loads(out)["RF"] == pytest.approx(64.0, rel=1e-12)


def test_eval_bad_potential_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "coords": ["S",', encoding="utf-8")
    code, out, err = run(capsys, "eval", "--potential-file", str(bad),
                         "--at", "S=1,X=1")
    assert code == 2
    assert "error:" in err and "char" in err  # position-bearing message


def test_eval_out_of_domain(capsys):
    code, _, err = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                       "--at", "S=-1,Q=0.5")
    assert code == 2 and "error:" in err


def test_eval_inside_the_domain_names_the_check_that_fails(tmp_path, capsys):
    # both points are inside the declared domain: the error is the elementary
    # function's, not a point outside the domain
    code, out, err = run(capsys, "eval", "--catalog", "kerr", "--at", "S=1e-310,J=0.1")
    assert (code, out) == (2, "")
    assert err == "error: div undefined for value 1e-310: division by (near-)zero value\n"
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({"name": "sqrt", "coords": ["S", "X"],
                                "expression": "sqrt(S-2) + X^2"}), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--potential-file", str(path), "--at", "S=1,X=1")
    assert (code, out, err) == (2, "", "error: sqrt undefined for value -1.0\n")


DAVIES_ARGS = ["--catalog", "kerr", "--fix", "J=0.5", "--sweep", "S=1:2"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["davies", "-h"], ["bogus", *DAVIES_ARGS], [*DAVIES_ARGS[:2], "davies"],
    ["davies", *DAVIES_ARGS[:2], *DAVIES_ARGS[4:]], ["davies", "--which", "cz", *DAVIES_ARGS],
    ["davies", *DAVIES_ARGS, "--bogus"],
], ids=["no-command", "help", "command-help", "unknown-command", "option-first",
        "missing-fix", "bad-choice", "unknown-option"])
def test_argv_is_read_as_the_top_level_parser_reads_it(argv, capsys):
    # the command's parser reads argv after the command name itself: exit
    # code, stdout and stderr are those of one parse by the top-level parser
    def outcome(parse):
        with pytest.raises(SystemExit) as info:
            parse(list(argv))
        return (info.value.code, *capsys.readouterr())
    assert outcome(main) == outcome(_build_parser().parse_args)


def test_eval_requires_potential(capsys):
    code, _, err = run(capsys, "eval", "--at", "S=1,X=1")
    assert code == 2 and "error:" in err


def test_scan_quadratic_grid(capsys):
    code, out, _ = run(capsys, "scan", "--catalog", "quadratic-toy",
                       "--grid", "S=1:3:3", "--grid", "X=1:3:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("S,X,T,Y,M_SS,M_SX,M_XX,detGM,detGF,RM,RF,"
                        "CX,CY,alpha,kappaT,kappaS,gamma,flags")
    assert len(lines) == 10
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[9] == "0" and cells[10] == "0"   # RM, RF
    # row order: first coordinate ascending in the outer loop
    svals = [float(line.split(",")[0]) for line in lines[1:]]
    assert svals == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]


def test_scan_is_deterministic(capsys):
    args = ("scan", "--catalog", "reissner-nordstrom",
            "--grid", "S=0.5:9:7:log", "--grid", "Q=0.1:0.4:5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_scan_flags_straddling_the_line(capsys):
    code, out, _ = run(capsys, "scan", "--catalog", "reissner-nordstrom",
                       "--grid", "S=2:4:3", "--grid", "Q=1:1.5:2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    on_line = [r for r in rows if r[0] == "3" and r[1] == "1"]
    assert len(on_line) == 1
    assert "div:RF" in on_line[0][17] and "div:CX" in on_line[0][17]
    cx = {float(r[0]): float(r[11]) for r in rows if r[1] == "1"}
    assert cx[2.0] > 0.0 > cx[4.0]    # C_X flips sign across the line


def test_scan_seventeen_digit_serialization(capsys):
    _, out, _ = run(capsys, "scan", "--catalog", "reissner-nordstrom",
                    "--grid", "S=1:2:2", "--grid", "Q=0.3:0.4:2")
    value = out.splitlines()[1].split(",")[4]     # M_SS
    assert float(value) == pytest.approx(-(1.0 - 3 * 0.09) / 8.0, rel=1e-14)
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) == 17


def test_scan_rfc4180_line_endings(tmp_path):
    out_path = tmp_path / "scan.csv"
    code = main(["scan", "--catalog", "quadratic-toy", "--grid", "S=1:2:2",
                 "--grid", "X=1:2:2", "--out", str(out_path)])
    assert code == 0
    raw = out_path.read_bytes()
    assert raw.count(b"\r\n") == 5
    sidecar = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert sidecar["coords"] == {"S": "S", "X": "X"}
    assert sidecar["columns"][0] == "S"


def test_scan_json_format(capsys):
    code, out, _ = run(capsys, "scan", "--catalog", "quadratic-toy",
                       "--grid", "S=1:2:2", "--grid", "X=1:2:2",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["columns"][-1] == "flags"
    assert len(doc["rows"]) == 4


def test_scan_unreadable_potential_is_usage_error(capsys):
    code, out, _ = run(capsys, "scan", "--potential-file", "/dev/null",
                       "--grid", "S=1:2:2")
    assert code == 2   # unreadable potential is a usage error, not a row flag


def test_scan_nonfinite_rows_flagged(tmp_path, capsys):
    doc = {"name": "logpot", "coords": ["S", "X"],
           "expression": "ln(S - 1) + X^2/2",
           "params": {}, "domain": {"S": [0, None], "X": [0, None]}}
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "scan", "--potential-file", str(path),
                       "--grid", "S=0.5:2:4", "--grid", "X=1:2:2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    flagged = [r for r in rows if "err:domain" in r[17]]
    assert len(flagged) == 4          # S = 0.5 and S = 1.0 rows
    assert all(r[2] == "nan" for r in flagged)


def test_scan_overflow_rows_flagged(tmp_path, capsys):
    doc = {"name": "exp", "coords": ["S", "X"], "expression": "exp(S) + X^2",
           "params": {}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "scan", "--potential-file", str(path),
                       "--grid", "S=1:800:40", "--grid", "X=0.5:2:2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 80
    above = [r for r in rows if float(r[0]) > math.log(1.7976931348623157e308)]
    below = [r for r in rows if float(r[0]) < 709.0]
    assert len(above) + len(below) == 80 and len(above) == 10
    for r in above:        # exp(S) is not finite: one token, nan cells
        assert r[17] == "err:overflow" and all(c == "nan" for c in r[2:17])
    for r in below:        # exp(S) + X^2 is flat in both metrics
        assert r[9] == "0" and r[10] == "0" and "err:" not in r[17]
    code, _, err = run(capsys, "eval", "--potential-file", str(path),
                       "--at", "S=800,X=1")
    assert code == 2 and "overflows" in err


def test_davies_rn(capsys):
    code, out, _ = run(capsys, "davies", "--catalog", "reissner-nordstrom",
                       "--which", "cx", "--fix", "Q=1", "--sweep", "S=0.5:10")
    assert code == 0
    doc = json.loads(out)
    assert doc["which"] == "cx"
    assert len(doc["points"]) == 1
    pt = doc["points"][0]
    assert pt["S"] == pytest.approx(3.0, abs=1e-9)
    assert pt["fit_RF"]["kind"] == "divergent"
    assert pt["fit_RF"]["slope"] == pytest.approx(-2.0, abs=0.02)
    assert pt["fit_RM"]["kind"] == "finite"
    assert pt["fit_RM"]["value"] == pytest.approx(2.598076211, abs=1e-6)
    assert doc["turning_points"][0] == pytest.approx(3.0, abs=1e-9)


def test_davies_fit_falls_back_to_the_reversed_approach(tmp_path, capsys):
    # the domain ends at S = 3.02, so the forward approach from the C_X point
    # S = 3 (first sample S = 3.05) leaves it and the sampled fits approach
    # from below; davies reads the jet at the point and needs neither
    doc = {"name": "rn-cut", "coords": ["S", "Q"],
           "expression": "sqrt(S)/2 * (1 + Q^2/S)", "params": {},
           "domain": {"S": [0, 3.02], "Q": [0, None]}}
    path = tmp_path / "rn-cut.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "davies", "--potential-file", str(path),
                       "--which", "cx", "--fix", "Q=1", "--sweep", "S=0.5:3.01")
    assert code == 0
    (pt,) = json.loads(out)["points"]
    assert pt["S"] == pytest.approx(3.0, abs=1e-9)
    assert pt["fit_RF"]["kind"] == "divergent"
    assert pt["fit_RF"]["slope"] == pytest.approx(-2.0, abs=0.05)
    assert pt["fit_RM"]["kind"] == "finite"
    assert pt["fit_RM"]["value"] == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-8)

    spec, point = load_potential_file(str(path)), StatePoint(pt["S"], pt["X"])
    with pytest.raises(DomainError):
        approach_oracle._approach(spec, point, "cx", 1.0, 0.0)
    fit_rm, fit_rf = approach_oracle.fit_divergence_exponents(spec, point)
    assert fit_rf.kind == "divergent"
    assert fit_rf.slope == pytest.approx(-2.0, abs=0.05)
    assert fit_rm.kind == "finite"
    assert fit_rm.limit == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-8)


def test_davies_quadratic_empty(capsys):
    code, out, _ = run(capsys, "davies", "--catalog", "quadratic-toy",
                       "--fix", "X=1", "--sweep", "S=0.5:10")
    doc = json.loads(out)
    assert doc["points"] == [] and doc["turning_points"] == []


def test_davies_kerr(capsys):
    code, out, _ = run(capsys, "davies", "--catalog", "kerr",
                       "--fix", "J=1", "--sweep", "S=2.5:10:400")
    doc = json.loads(out)
    s_star = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))
    assert doc["points"][0]["S"] == pytest.approx(s_star, abs=1e-8)
    assert doc["points"][0]["fit_RF"]["slope"] == pytest.approx(-2.0, abs=0.02)
    assert abs(doc["points"][0]["fit_RM"]["value"]) <= 1e-9
    assert doc["turning_points"][0] == pytest.approx(s_star, abs=1e-8)


def test_davies_constant_y_line_on_synthetic_potential(tmp_path, capsys):
    doc = {"name": "cy-toy", "coords": ["S", "X"],
           "expression": "S^2/2 + X^2/2 + S*X^2/2", "params": {}}
    path = tmp_path / "cy-toy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "davies", "--potential-file", str(path),
                       "--which", "cy", "--fix", "X=1.5", "--sweep", "S=0.3:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"][0]["S"] == pytest.approx(1.25, abs=1e-9)
    assert doc["points"][0]["fit_RM"]["kind"] == "divergent"
    assert doc["points"][0]["fit_RF"]["kind"] == "finite"
    # fixed-Y series turning point sits on the same line
    assert doc["turning_points"][0] == pytest.approx(1.25, abs=1e-9)


def test_eval_csv_format(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "quadratic-toy",
                       "--at", "S=1,X=2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("S,X,T,Y,")
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "1"    # T = S for this potential


def test_check_catalog_potentials(capsys):
    for name in ("reissner-nordstrom", "kerr", "quadratic-toy"):
        code, out, _ = run(capsys, "check", "--catalog", name)
        assert code == 0, out
        assert "CHECK PASSED" in out


def test_check_corrupted_reference_fails(capsys):
    # the identities hold for any smooth potential, so the failing fixture
    # corrupts the closed-form curvature reference instead (sign flip in the
    # divergence function): the suite must notice and exit nonzero
    code, out, _ = run(capsys, "check", "--catalog", "reissner-nordstrom",
                       "--ref-rf", "4*S^1.5/(S + 3*Q^2)^2")
    assert code == 1
    assert "CHECK FAILED" in out and "golden:RF" in out


def _grid_options(name):
    coords = get_entry(name).spec.coords
    return [f"--grid={c}={a.lo}:{a.hi}:{a.count}:{a.spacing}"
            for c, a in zip(coords, BENCH_GRIDS[name])]


@pytest.mark.parametrize("name, grid", [
    ("reissner-nordstrom", False), ("kerr", False), ("quadratic-toy", False),
    ("reissner-nordstrom", True), ("kerr", True)])
def test_catalog_references_run_as_reference_expressions(name, grid, capsys):
    # an entry's closed forms are --ref-rm/--ref-rf expressions: one path, same bytes
    entry, argv = get_entry(name), ["check", "--catalog", name]
    argv += _grid_options(name) if grid else []
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "golden:RM" in out and "golden:RF" in out
    assert run(capsys, *argv, "--ref-rm", entry.reference_rm,
               "--ref-rf", entry.reference_rf) == (code, out, err)


def test_check_keeps_rows_that_failed_out_of_the_usable_test(capsys):
    # rows at S <= 0 are err:domain; usable (S - Q^2 > 0) is not evaluated there
    code, out, err = run(capsys, "check", "--catalog", "reissner-nordstrom",
                         "--grid", "S=-1:10:23", "--grid", "Q=0.05:1:7")
    assert (code, err) == (0, "")
    assert "points checked: 136" in out and "CHECK PASSED" in out


def test_check_reference_expressions_take_the_potential_domain(tmp_path, capsys):
    doc = {"name": "expo", "coords": ["S", "X"], "expression": "exp(S) + X^2/2",
           "domain": {"S": [None, None]}}
    path = tmp_path / "expo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "check", "--potential-file", str(path),
                         "--grid", "S=-2:2:5", "--grid", "X=0.5:1:5",
                         "--ref-rm", "0", "--ref-rf", "0")
    assert (code, err) == (0, ""), err
    assert "points checked: 25" in out and "CHECK PASSED" in out
    assert "pass  golden:RM" in out and "pass  golden:RF" in out


def test_check_potential_file_without_references(tmp_path, capsys):
    doc = {"name": "toy", "coords": ["S", "X"],
           "expression": "S^2/2 + X^2/2 + S*X^2/2", "params": {}}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--potential-file", str(path),
                       "--grid", "S=0.5:3:6", "--grid", "X=0.5:1:4")
    assert code == 0
    assert "golden" not in out


def test_env_epsilon_override(capsys, monkeypatch):
    monkeypatch.setenv("THERMOCURV_EPS", "1e-2")
    _, out, _ = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                    "--at", "S=3.05,Q=1")
    assert "div:RF" in json.loads(out)["flags"]
    monkeypatch.delenv("THERMOCURV_EPS")
    _, out, _ = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                    "--at", "S=3.05,Q=1")
    assert json.loads(out)["flags"] == []
    for bad in ("banana", "nan", "inf", "0", "-1"):
        monkeypatch.setenv("THERMOCURV_EPS", bad)
        code, _, err = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                           "--at", "S=3,Q=1")
        assert code == 2 and "THERMOCURV_EPS" in err, bad


def test_only_eval_scan_and_check_read_the_epsilon(capsys, monkeypatch):
    davies = ("davies", "--catalog", "reissner-nordstrom", "--fix", "Q=1",
              "--sweep", "S=0.5:10")
    monkeypatch.delenv("THERMOCURV_EPS", raising=False)
    code, unset, _ = run(capsys, *davies)
    assert code == 0
    monkeypatch.setenv("THERMOCURV_EPS", "banana")
    assert run(capsys, *davies) == (0, unset, "")
    for argv in (("eval", "--catalog", "reissner-nordstrom", "--at", "S=3,Q=1"),
                 ("scan", "--catalog", "quadratic-toy", "--grid", "S=1:2:2",
                  "--grid", "X=1:2:2"),
                 ("check", "--catalog", "kerr")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err and "THERMOCURV_EPS" in err, argv


def test_a_bad_epsilon_stops_a_scan_before_any_output(capsys, monkeypatch, tmp_path):
    out = tmp_path / "scan.csv"
    monkeypatch.setenv("THERMOCURV_EPS", "banana")
    for dest in (["--out", str(out)], []):
        code, stdout, err = run(capsys, "scan", "--catalog", "quadratic-toy",
                                "--grid", "S=1:2:2", "--grid", "X=1:2:2", *dest)
        assert (code, stdout) == (2, "") and "THERMOCURV_EPS" in err
    assert not out.exists() and not (tmp_path / "scan.csv.meta.json").exists()


@pytest.mark.parametrize("at", ["S=1,Q=0.5,S=3", "S=1,X=0.5,Q=0.7"])
def test_a_coordinate_given_twice_is_a_usage_error(capsys, at):
    code, out, err = run(capsys, "eval", "--catalog", "reissner-nordstrom", "--at", at)
    assert code == 2 and out == "" and "error:" in err and "twice" in err


@pytest.mark.parametrize("at", ["U=1,V=2", "S=1,V=2", "U=1,X=2", "S=1,X=2"])
def test_s_and_x_name_the_coordinates_of_any_potential(capsys, tmp_path, at):
    # S and X stand for the first and second coordinate whatever their names
    path = tmp_path / "uv.json"
    path.write_text(json.dumps({"name": "uv", "coords": ["U", "V"],
                                "expression": "U^2/2 + U*V^2"}), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--potential-file", str(path), "--at", at)
    doc = json.loads(out)
    assert (code, err, doc["coords"]) == (0, "", {"S": "U", "X": "V"})
    assert (doc["S"], doc["X"], doc["T"]) == (1.0, 2.0, 5.0)     # T = U + V^2


def test_a_grid_axis_given_twice_is_a_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--catalog", "reissner-nordstrom",
                         "--grid", "S=1:2:2", "--grid", "X=1:2:2", "--grid", "S=1:3:2")
    assert code == 2 and out == "" and "error:" in err and "twice" in err


BASE_ARGV = {
    "eval": ["eval", "--catalog", "quadratic-toy", "--at", "S=1,X=2"],
    "scan": ["scan", "--catalog", "quadratic-toy", "--grid", "S=1:2:2", "--grid", "X=1:2:2"],
    "davies": ["davies", "--catalog", "reissner-nordstrom", "--fix", "Q=1",
               "--sweep", "S=0.5:10"],
    "check": ["check", "--catalog", "quadratic-toy"],
}


@pytest.mark.parametrize("command, option", [
    ("eval", "--threads 2"), ("scan", "--threads 2"), ("davies", "--threads 2"),
    ("check", "--threads 2"), ("check", "--format csv"), ("check", "--out report.txt"),
    ("davies", "--format csv"),
])
def test_removed_options_are_rejected(capsys, tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGV[command], *option.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_output_options_that_stay_still_work(capsys, tmp_path):
    for command, option in (("eval", ["--format", "csv"]), ("scan", ["--format", "json"]),
                            ("davies", [])):
        path = tmp_path / f"{command}.out"
        assert main([*BASE_ARGV[command], *option, "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text.startswith("S,X,") if command == "eval" else json.loads(text)
    assert capsys.readouterr().out == ""


def readme_cli_section() -> str:
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def readme_cli_commands():
    """The commands of the ``sh`` block under README's "## CLI", with
    continuation lines joined and comments dropped."""
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_lists_the_options_of_each_subcommand():
    listed = {m[1]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
              for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", readme_cli_section(), re.M)}
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    taken = {name: set(p._option_string_actions) - {"-h", "--help", "--catalog",
                                                    "--potential-file"}
             for name, p in subparsers.items()}
    assert listed == taken


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    commands = readme_cli_commands()
    assert [argv[:2] for argv in commands] == [
        ["thermocurv", name] for name in ("eval", "scan", "davies", "check")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "kerr.csv").exists()


@pytest.mark.parametrize("argv", [
    ("scan", "--grid", "S=0.1:inf:5", "--grid", "Q=0.5:1:2"),
    ("scan", "--grid", "S=-1e308:1e308:3", "--grid", "Q=0.5:1:2"),
    ("scan", "--grid", "S=1e-320:1e308:3:log", "--grid", "Q=0.5:1:2"),
    ("scan", "--grid", "S=1:1.7976931348623157e308:5:log", "--grid", "Q=0.5:1:2"),
    ("scan", "--grid", "S=1:2:0", "--grid", "Q=0.5:1:2"),       # no sample
    ("check", "--grid", "S=0.1:inf:5", "--grid", "Q=0.5:1:2"),
    ("check", "--grid", "S=2:2:1", "--grid", "Q=nan:1:1"),
    ("davies", "--fix", "Q=1", "--sweep", "S=0.1:inf"),
    ("davies", "--fix", "Q=1", "--sweep", "S=-inf:1"),
    ("davies", "--fix", "Q=1", "--sweep", "S=-1e308:1e308:3"),
    ("davies", "--fix", "Q=inf", "--sweep", "S=0.5:10"),
    ("davies", "--fix", "Q=nan", "--sweep", "S=0.5:10"),
    ("eval", "--at", "S=1,Z=2"),                        # an unknown coordinate
    ("davies", "--fix", "Z=1", "--sweep", "S=0.1:10"),
    ("eval", "--at", "S2"),                             # not NAME=VALUE
    ("eval", "--at", "S=2"),                            # one coordinate missing
])
def test_non_finite_axes_and_fixed_values_exit_2(capsys, argv):
    # in process, so a stray numpy RuntimeWarning fails the test too
    code, out, err = run(capsys, argv[0], "--catalog", "reissner-nordstrom", *argv[1:])
    assert code == 2 and out == "" and err.startswith("error:")


def test_a_catalog_and_a_potential_file_together_exit_2(capsys, tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"name": "quad", "coords": ["S", "X"],
                                "expression": "S^2/2 + X^2/2"}), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--catalog", "reissner-nordstrom",
                         "--potential-file", str(path), "--at", "S=1,Q=1")
    assert (code, out) == (2, "")
    assert err == "error: give either --catalog or --potential-file, not both\n"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "scan", "--catalog", "quadratic-toy",
                       "--grid", "S=3:1:5", "--grid", "X=1:2:2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "scan", "--catalog", "quadratic-toy",
                       "--grid", "S=0:1:5:log", "--grid", "X=1:2:2")
    assert code == 2
    code, _, err = run(capsys, "davies", "--catalog", "quadratic-toy",
                       "--fix", "X=1", "--sweep", "X=1:2")
    assert code == 2
    for sweep in ("S=1:2:10:cubic", "S=1:2:1", "S=2:1", "S=2:2:5", "S1:2"):
        code, _, err = run(capsys, "davies", "--catalog", "quadratic-toy",
                           "--fix", "X=1", "--sweep", sweep)
        assert code == 2 and err.startswith("error:"), sweep
    code, _, err = run(capsys, "scan", "--catalog", "quadratic-toy",
                       "--grid", "S=1:2", "--grid", "X=1:2:2")
    assert code == 2 and err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
