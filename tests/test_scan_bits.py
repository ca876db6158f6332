"""Byte-identity guard of the ``scan`` and ``check`` commands.

Each case runs in-process ``cli.main`` calls and reduces them to one sha256
over each call's exit code, standard output and error, and every file it
wrote: the ``scan`` CSV and its ``.meta.json`` sidecar of the three catalog
entries at their default grids, of Kerr and RN at the 200 x 200 grids the
benchmark scans, and of ``exp(S) + X^2``, whose cells reach 1e347 and
1e-14, on a 40 x 5 grid; and ``check --catalog NAME`` standard output for
every entry.  A change to a last bit of any cell, to a flag, to the
sidecar or to the check report shows here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from thermocurv import cli

KERR_200 = ["--grid", "S=1:10:200:log", "--grid", "J=0.05:0.45:200"]
RN_200 = ["--grid", "S=0.5:10:200:log", "--grid", "Q=0.05:1.5:200"]
CASES = {
    "scan-defaults": [["scan", "--catalog", name, "--out", f"{name}.csv"]
                      for name in ("reissner-nordstrom", "kerr", "quadratic-toy")],
    "scan-200": [["scan", "--catalog", "kerr", *KERR_200, "--out", "kerr-200.csv"],
                 ["scan", "--catalog", "reissner-nordstrom", *RN_200, "--out", "rn-200.csv"]],
    "scan-exp": [["scan", "--potential-file", "exp.json", "--grid", "S=1:800:40",
                  "--grid", "X=0.5:2:5", "--out", "exp.csv"]],
    "check": [["check", "--catalog", name]
              for name in ("reissner-nordstrom", "kerr", "quadratic-toy")],
}
DIGESTS = {
    "scan-defaults": "1705230f002a562bda780ece28305bfde448a549daee89a3627d46af87790a6b",
    "scan-200": "7a994fab1ebd79470b632c12dcf69b56653a6fb70d6dceb80818173760bbc561",
    "scan-exp": "c5405e093d87453cfca553a4a9d1df886a082cb21ba08efceecc6a44e0fddde3",
    "check": "ffe2c8dd8d14f700eaadcbd5fbe8002d8d2b401df51720ae2f8bf82c9d956d91",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_and_check_keep_their_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(
        {"name": "exp", "coords": ["S", "X"], "expression": "exp(S) + X^2"}), encoding="utf-8")
    digest = hashlib.sha256()
    for argv in CASES[case]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 0, err.getvalue()
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        if "--out" in argv:
            path = tmp_path / argv[argv.index("--out") + 1]
            for written in (path, path.with_name(path.name + ".meta.json")):
                data = written.read_bytes()
                assert data
                digest.update(b"%d\n" % len(data) + data)
    assert digest.hexdigest() == DIGESTS[case]
