"""Byte-identity guard of the ``davies`` command.

About 300 seeded in-process ``cli.main`` calls are reduced to one sha256
over each call's exit code and standard output and error bytes: RN and Kerr
``cx`` slices, some with ``--which cy``; the synthetic
``S^2/2 + X^2/2 + S*X^2/2`` ``cy`` line, whose fixed-Y turning points are
solved by ``_roots.solve_near``; and the pole and square-root potentials,
where the refinement fails.  Every located point's bracket ``iterations``
is in the JSON, so a change to ``refine_bracket``'s step count, to a last
bit of a point or turning point, or to how a call fails shows here.
"""

import contextlib
import hashlib
import io
import json
import random

from thermocurv import cli

DIGEST = "3c30f62956c6c8bfd70671ade5642b6fb775d9fba1166d99f0111431e716ea30"
FILES = {
    "synth": "S^2/2 + X^2/2 + S*X^2/2",
    "pole": "S^3/6 + 1/(S-2) + X^2",
    "sqrt": "sqrt(S-2) + X^2",
}
MIX = {"rn": 10, "kerr": 10, "rn-cy": 2, "kerr-cy": 2, "synth": 5, "pole": 2, "sqrt": 2}


def calls():
    """Ten rounds of the mix, 330 argument lists, seeded, in shuffled order."""
    rng = random.Random("davies-bits")
    out = []
    for _ in range(10):
        batch = []
        for case, count in MIX.items():
            for _ in range(count):
                if case.startswith("rn"):
                    fix, argv = f"Q={rng.uniform(0.4, 1.6)!r}", ["--catalog", "reissner-nordstrom"]
                    sweep = "S=0.1:10"
                elif case.startswith("kerr"):
                    fix, argv = f"J={rng.uniform(0.1, 1.0)!r}", ["--catalog", "kerr"]
                    sweep = "S=0.1:10"
                elif case == "synth":
                    fix, argv = f"X={rng.uniform(1.2, 2.0)!r}", ["--potential-file", "synth.json"]
                    sweep = "S=0.1:5"
                else:
                    fix, argv = f"X={rng.uniform(0.5, 2.0)!r}", ["--potential-file", f"{case}.json"]
                    lo = rng.uniform(0.5, 1.5) if case == "pole" else rng.uniform(1.0, 1.9)
                    sweep = f"S={lo!r}:{rng.uniform(3.0, 5.0)!r}"
                which = "cy" if case.endswith("cy") or case == "synth" else "cx"
                batch.append(["davies", *argv, "--which", which, "--fix", fix, "--sweep", sweep])
        rng.shuffle(batch)
        out += batch
    return out


def test_davies_calls_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, expr in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"name": name, "coords": ["S", "X"], "expression": expr,
             "domain": {"S": [0, None], "X": [0, None]}}), encoding="utf-8")
    digest, codes = hashlib.sha256(), []
    for argv in calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        codes.append(code)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    assert len(codes) == 330 and codes.count(0) >= 300
    assert digest.hexdigest() == DIGEST
