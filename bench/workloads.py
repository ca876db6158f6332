"""The three benchmark workloads: inputs made from the seed, one round of
calls into the package, and the oracle check of every output.

One client drives the package in a closed loop: each call starts when the
previous one has returned.  Known-defect calls stay in the load; when they
fail they count as failed calls, and when they succeed their output must
still pass the oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass

import oracles

GRID_N = 200              # points per axis of the Kerr and RN scans
EXP_SHAPE = (40, 5)       # the exp(S) + X^2 scan, S=1:800 (overflows past S~709)
DAVIES_SLICES = {"rn": 12, "kerr": 12, "synth": 6, "pole": 2, "sqrt": 2}
LEGENDRE_BATCH = 1200     # solves per round, half RN and half Kerr, a third far

POTENTIAL_FILES = {
    "synth": "S^2/2 + X^2/2 + S*X^2/2",
    "pole": "S^3/6 + 1/(S-2) + X^2",
    "sqrt": "sqrt(S-2) + X^2",
    "exp": "exp(S) + X^2",
}


@dataclass(slots=True)
class Call:
    """One timed call into the package."""

    kind: str
    start: float           # perf_counter at the start of the call
    seconds: float
    cpu_s: float
    ok: bool
    error: str = ""
    work: int = 0          # rows or points the call evaluated
    scale: float = 1.0     # reference machine speed over the speed during the call

    @property
    def ref_s(self) -> float:
        """Duration scaled to the reference machine speed."""
        return self.seconds * self.scale


class Record:
    """The calls of a run grouped in rounds, with what else the run saw."""

    def __init__(self):
        self.rounds: list[list[Call]] = []
        self.problems: list[str] = []
        self.flags: Counter = Counter()
        self.hashes: dict[str, set[str]] = {}
        self.peak_rss_mb = 0.0

    @property
    def calls(self) -> list[Call]:
        return [c for r in self.rounds for c in r]

    def add(self, call: Call) -> None:
        self.rounds[-1].append(call)


def write_potential_files(work: str) -> None:
    for name, expr in POTENTIAL_FILES.items():
        doc = {"name": name, "coords": ["S", "X"], "expression": expr,
               "params": {}, "domain": {"S": [0, None], "X": [0, None]}}
        with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def cli_call(cli, kind: str, argv: list[str], work: int = 0) -> tuple[Call, str]:
    """Run ``thermocurv.cli.main(argv)`` in-process; returns the call and its
    standard output.  A nonzero exit or an exception is a failed call."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = "" if code == 0 else f"exit {code}: " + _last_line(err.getvalue())
    except Exception as exc:                 # the call failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    return Call(kind, t0, seconds, cpu_s, not error, error[:200], work), out.getvalue()


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _axis(name, lo, hi, count, spacing=None) -> str:
    text = f"{name}={lo!r}:{hi!r}:{count}"
    return text + f":{spacing}" if spacing else text


class Workload:
    """Shared set-up: the potentials a workload loads before its first call."""

    name = ""
    catalog: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    monitor_speed = False      # sample machine speed during calls (calibrate.py)

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.specs: dict[str, object] = {}
        self.restart()

    def restart(self) -> None:
        """Start the seeded input stream over, so the rounds that follow
        repeat the inputs of the rounds since the last restart."""
        self.rng = random.Random(f"{self.name}/{self.seed}")

    def load(self, pkg) -> None:
        for name in self.catalog:
            self.specs[name] = pkg.catalog.get_entry(name).spec
        for name in self.files:
            path = os.path.join(self.work, f"{name}.json")
            self.specs[name] = pkg.potentials.load_potential_file(path)


class Grid(Workload):
    """CLI ``scan`` of Kerr and RN at 200x200, ``check`` on the Kerr grid and
    the small ``exp(S) + X^2`` scan that overflows (a known defect)."""

    name = "grid"
    catalog = ("kerr", "reissner-nordstrom")
    files = ("exp",)
    monitor_speed = True

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        rng = self.rng
        kerr_axes = ["--grid", _axis("S", _jitter(rng, 1.0, 0.01),
                                     _jitter(rng, 10.0, 0.01), GRID_N, "log"),
                     "--grid", _axis("J", _jitter(rng, 0.05, 0.01),
                                     _jitter(rng, 0.45, 0.01), GRID_N)]
        rn_axes = ["--grid", _axis("S", _jitter(rng, 0.5, 0.01),
                                   _jitter(rng, 10.0, 0.01), GRID_N, "log"),
                   "--grid", _axis("Q", _jitter(rng, 0.05, 0.01),
                                   _jitter(rng, 1.5, 0.01), GRID_N)]
        exp_axes = ["--grid", _axis("S", 1.0, 800.0, EXP_SHAPE[0]),
                    "--grid", _axis("X", _jitter(rng, 0.5, 0.01),
                                    _jitter(rng, 2.0, 0.01), EXP_SHAPE[1])]
        exp_file = os.path.join(work, "exp.json")
        self.steps = [
            ("scan:kerr", "kerr", (GRID_N, GRID_N),
             ["scan", "--catalog", "kerr", *kerr_axes]),
            ("scan:rn", "rn", (GRID_N, GRID_N),
             ["scan", "--catalog", "reissner-nordstrom", *rn_axes]),
            ("check:kerr", "kerr", (GRID_N, GRID_N),
             ["check", "--catalog", "kerr", *kerr_axes]),
            ("scan:exp", "exp", EXP_SHAPE,
             ["scan", "--potential-file", exp_file, *exp_axes]),
        ]
        self.sizes = {"scan:kerr": kerr_axes[1::2], "scan:rn": rn_axes[1::2],
                      "check:kerr": kerr_axes[1::2], "scan:exp": exp_axes[1::2]}

    def warm_up(self, pkg) -> None:
        out = os.path.join(self.work, "warm.csv")
        cli_call(pkg.cli, "warm", ["scan", "--catalog", "kerr", "--grid", "S=1:10:10:log",
                                   "--grid", "J=0.05:0.45:10", "--out", out])

    def run_round(self, pkg, record: Record) -> None:
        for kind, potential, shape, argv in self.steps:
            if kind == "check:kerr":
                call, text = cli_call(pkg.cli, kind, argv, shape[0] * shape[1])
                record.add(call)
                if call.ok:
                    record.problems += oracles.check_check_output(text)
                continue
            path = os.path.join(self.work, kind.replace(":", "_") + ".csv")
            call, _ = cli_call(pkg.cli, kind, [*argv, "--out", path], shape[0] * shape[1])
            record.add(call)
            if call.ok:
                found, flags = oracles.check_scan_csv(path, potential, shape)
                record.problems += found
                record.flags.update(flags)
                record.hashes.setdefault(kind, set()).add(sha256_file(path))


class Davies(Workload):
    """Many CLI ``davies`` calls: RN and Kerr C_X lines on seeded slices, the
    fixed-Y conjugacy scan of a synthetic C_Y line, and the pole and
    square-root potentials that the root finder mishandles (known defects)."""

    name = "davies"
    catalog = ("kerr", "reissner-nordstrom")
    files = ("synth", "pole", "sqrt")

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.sizes = {f"{case}_slices_per_round": n for case, n in DAVIES_SLICES.items()}

    def _cycle(self):
        """One round of calls on fresh seeded slices, in seeded order."""
        calls = [self._slice(case, self.rng)
                 for case, count in DAVIES_SLICES.items() for _ in range(count)]
        self.rng.shuffle(calls)
        return [(case, which, fixed,
                 argv + ["--out", os.path.join(self.work, f"davies_{k}.json")])
                for k, (case, which, fixed, argv) in enumerate(calls)]

    def _slice(self, case: str, rng: random.Random):
        if case == "rn":
            q = rng.uniform(0.4, 1.6)
            return case, "cx", q, ["davies", "--catalog", "reissner-nordstrom",
                                   "--which", "cx", "--fix", f"Q={q!r}",
                                   "--sweep", "S=0.1:10"]
        if case == "kerr":
            j = rng.uniform(0.1, 1.0)
            return case, "cx", j, ["davies", "--catalog", "kerr", "--which", "cx",
                                   "--fix", f"J={j!r}", "--sweep", "S=0.1:10"]
        path = os.path.join(self.work, f"{case}.json")
        if case == "synth":
            x = rng.uniform(1.2, 2.0)
            return case, "cy", x, ["davies", "--potential-file", path, "--which", "cy",
                                   "--fix", f"X={x!r}", "--sweep", "S=0.1:5"]
        x = rng.uniform(0.5, 2.0)
        lo = rng.uniform(0.5, 1.5) if case == "pole" else rng.uniform(1.0, 1.9)
        hi = rng.uniform(3.0, 5.0)
        return case, "cx", x, ["davies", "--potential-file", path, "--which", "cx",
                               "--fix", f"X={x!r}", "--sweep", f"S={lo!r}:{hi!r}"]

    def warm_up(self, pkg) -> None:
        out = os.path.join(self.work, "warm.json")
        cli_call(pkg.cli, "warm", ["davies", "--catalog", "reissner-nordstrom",
                                   "--which", "cx", "--fix", "Q=1", "--sweep", "S=0.1:10",
                                   "--out", out])

    def run_round(self, pkg, record: Record) -> None:
        for case, which, fixed, argv in self._cycle():
            path = argv[-1]
            if os.path.exists(path):
                os.remove(path)
            call, _ = cli_call(pkg.cli, f"davies:{case}", argv, 1)
            record.add(call)
            if call.ok:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                record.problems += oracles.check_davies(doc, case, which, fixed)


class Legendre(Workload):
    """``legendre_at`` then ``curvature_from_f_jet`` on RN and Kerr (T, X)
    points, called from the library one scalar solve at a time.  Two thirds
    of the guesses lie near the root, one third up to e^+-1.5 away from it,
    so the median solve is a near one and the far ones make the tail.  The
    seed picks the near cases afresh for every round; the far cases are the
    same in every round and every run."""

    name = "legendre"
    catalog = ("kerr", "reissner-nordstrom")
    files = ()

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.sizes = {"solves_per_round": LEGENDRE_BATCH,
                      "far_guesses_per_round": LEGENDRE_BATCH // 3}
        # The far cases, about 1.5% of which end in NoBracketError (a known
        # defect), come from a stream of their own that no seed changes, and
        # every round repeats them: the failed share is then the same in
        # every run, whatever its seed and however many rounds it makes.
        far = random.Random("legendre/far")
        self.far_cases = {k: self._case("rn" if k % 2 == 0 else "kerr", True, far)
                          for k in range(LEGENDRE_BATCH) if k % 3 == 2}

    def _batch(self, rng: random.Random):
        return [self.far_cases.get(k) or self._case("rn" if k % 2 == 0 else "kerr",
                                                    False, rng)
                for k in range(LEGENDRE_BATCH)]

    @staticmethod
    def _case(case: str, far: bool, rng: random.Random):
        """A state point away from the C_X line, its temperature, and a guess."""
        x = rng.uniform(0.2, 1.5) if case == "rn" else rng.uniform(0.1, 1.0)
        if case == "rn":
            line, t_zero = 3.0 * x * x, x * x
        else:
            line, t_zero = KERR_LINE * x, 2.0 * x
        if rng.random() < 0.5:
            s0 = line * rng.uniform(1.3, 6.0)
        else:
            s0 = t_zero * rng.uniform(1.1, line / t_zero / 1.3)
        t = oracles.TEMPERATURE[case](s0, x)
        spread = 1.5 if far else 0.02
        guess = s0 * math.exp(rng.uniform(-spread, spread))
        return case, far, t, x, guess

    def warm_up(self, pkg) -> None:
        case, _, t, x, guess = self._case("rn", False, random.Random("legendre/warm-up"))
        geometry = pkg.geometry
        geometry.curvature_from_f_jet(
            geometry.legendre_at(self.specs[CATALOG_NAME[case]], t, x, guess))

    def run_round(self, pkg, record: Record) -> None:
        geometry = pkg.geometry
        clock, cpu = time.perf_counter, time.process_time
        for case, far, t, x, guess in self._batch(self.rng):
            kind = LEGENDRE_KINDS[case, far]
            spec = self.specs[CATALOG_NAME[case]]
            cpu0 = cpu()
            t0 = clock()
            try:
                lp = geometry.legendre_at(spec, t, x, guess)
                curv = geometry.curvature_from_f_jet(lp)
                error = ""
            except Exception as exc:         # the solve failed; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = clock() - t0
            record.add(Call(kind, t0, seconds, cpu() - cpu0, not error, error[:200], 1))
            if not error:
                record.problems += oracles.check_legendre(case, t, x, lp.s_of_tx,
                                                          curv.r_m, curv.r_f)


KERR_LINE = oracles.KERR_LINE
CATALOG_NAME = {"rn": "reissner-nordstrom", "kerr": "kerr"}
LEGENDRE_KINDS = {(case, far): f"legendre:{case}:{'far' if far else 'near'}"
                  for case in CATALOG_NAME for far in (False, True)}
WORKLOADS = {cls.name: cls for cls in (Grid, Davies, Legendre)}
