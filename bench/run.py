"""Benchmark of the thermocurv package: one closed-loop client, three workloads.

Run from the repository root:

    python3 bench/run.py --workload grid|davies|legendre --seed N \
        --seconds S --trace 0|1

``--workload all`` runs the three workloads one after the other, each in
its own interpreter, and exits nonzero if any output failed its oracle.

The package is imported from ``src/`` of the same checkout and is not
modified.  Inputs come from ``--seed``; every output is checked against
closed forms (``oracles.py``) and a wrong answer makes the run fail with
exit code 1.  Calls that fail because of known package defects are counted
as failed calls and do not stop the run.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds on the same inputs (``spans.py``) and reports
the per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report and the run record.  Scratch files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
import warnings
from collections import Counter

import calibrate
import oracles
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 11


def import_package():
    """Import thermocurv from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "thermocurv", "__init__.py")):
        raise SystemExit(f"bench: no thermocurv package under {SRC}")
    sys.path.insert(0, SRC)
    import thermocurv
    from thermocurv import catalog, cli, geometry, jets, potentials
    if os.path.dirname(os.path.dirname(os.path.abspath(thermocurv.__file__))) != SRC:
        raise SystemExit(f"bench: thermocurv imported from {thermocurv.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, geometry=geometry, catalog=catalog,
                                 potentials=potentials, jets=jets,
                                 version=thermocurv.__version__)


# -- statistics -------------------------------------------------------------

def tail(values):
    """``(percentile, value)`` of the highest percentile that has at least
    ten samples beyond it, or ``None`` with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def rate(calls):
    """Work done per second of call time at reference speed, counting only
    successful calls."""
    busy = sum(c.ref_s for c in calls)
    return sum(c.work for c in calls if c.ok) / busy if busy else 0.0


def median_rate(calls):
    """Rate of a typical call of each kind: per kind, the work of one call
    over the median duration of the successful calls of that kind."""
    work = busy = 0.0
    for kind in sorted({c.kind for c in calls if c.ok}):
        done = [c for c in calls if c.ok and c.kind == kind]
        work += done[0].work
        busy += statistics.median(c.ref_s for c in done)
    return work / busy if busy else 0.0


# -- set-up -----------------------------------------------------------------

def probe(workload: str) -> int:
    """Set-up as a fresh interpreter pays it: import, load, one warm-up call."""
    pkg = import_package()
    wl = workloads.WORKLOADS[workload](0, WORK)
    wl.load(pkg)
    wl.warm_up(pkg)
    return 0


def measure_setup(workload: str) -> list[float]:
    """Unscaled durations of fresh-interpreter set-ups: process start and
    imports depend little on the interpreter speed that calibrate.py
    measures, and scaling them made them noisier."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--probe",
                                 workload], cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls up to 50 ms apart, which would quantize
        # the time; a blocking wait with a watchdog does not
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def self_test(pkg) -> list[str]:
    """Show that the oracles are not vacuous: a clean output must pass and
    each corrupted copy must be rejected.  Returns the problems found."""
    problems = []
    path = os.path.join(WORK, "selftest.csv")
    shape = (20, 20)
    call, _ = workloads.cli_call(pkg.cli, "selftest", [
        "scan", "--catalog", "reissner-nordstrom", "--grid", "S=0.5:10:20:log",
        "--grid", "Q=0.05:1.5:20", "--out", path])
    if not call.ok:
        return [f"self-test scan failed: {call.error}"]
    clean, _ = oracles.check_scan_csv(path, "rn", shape)
    problems += clean
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    rf = oracles.COLUMNS.index("RF")
    unflagged = [k for k in range(1, len(lines)) if lines[k].rstrip("\r\n").endswith(",")]
    k = max(unflagged, key=lambda k: abs(float(lines[k].split(",")[rf])))
    cells = lines[k].split(",")
    cells[rf] = repr(float(cells[rf]) * (1.0 + 1e-6))
    corrupted = {"RF cell perturbed by 1e-6": lines[:k] + [",".join(cells)] + lines[k + 1:],
                 "one row dropped": lines[:200] + lines[201:]}
    for what, content in corrupted.items():
        bad = os.path.join(WORK, "selftest_bad.csv")
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(content)
        if not oracles.check_scan_csv(bad, "rn", shape)[0]:
            problems.append(f"self-test: grid oracle accepted a CSV with {what}")

    spec = pkg.catalog.get_entry("reissner-nordstrom").spec
    t = oracles.rn_temperature(5.0, 0.8)
    lp = pkg.geometry.legendre_at(spec, t, 0.8, 5.1)
    curv = pkg.geometry.curvature_from_f_jet(lp)
    problems += oracles.check_legendre("rn", t, 0.8, lp.s_of_tx, curv.r_m, curv.r_f)
    if not oracles.check_legendre("rn", t, 0.8, lp.s_of_tx * (1.0 + 1e-3),
                                  curv.r_m, curv.r_f):
        problems.append("self-test: legendre oracle accepted a wrong root")
    return problems


# -- runs -------------------------------------------------------------------

def run_rounds(wl, pkg, record, count=None, seconds=None, after_round=None):
    """Run whole rounds: ``count`` of them, or until ``seconds`` have passed.

    The peak memory is read after the first round: every round repeats the
    same kind of work, and later readings would grow with the number of
    calls the benchmark itself records, so a faster package would seem to
    use more memory."""
    start = time.perf_counter()
    while True:
        record.rounds.append([])
        wl.run_round(pkg, record)
        if len(record.rounds) == 1:
            record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if after_round is not None:
            after_round(record.rounds[-1])
        if count is not None and len(record.rounds) >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return record


def run_scaled(wl, pkg, seconds):
    """Run for ``seconds`` and scale every call to reference speed; returns
    the record and the median machine speed as a share of reference."""
    record = workloads.Record()
    if wl.monitor_speed:
        with calibrate.Monitor() as monitor:
            run_rounds(wl, pkg, record, seconds=seconds)
        for call in record.calls:
            call.scale = monitor.scale(call.start, call.seconds)
        samples = monitor.durations
    else:
        samples = [calibrate.sample()]

        def scale_round(calls):
            samples.append(calibrate.sample())
            scale = calibrate.REFERENCE_S / (0.5 * (samples[-2] + samples[-1]))
            for call in calls:
                call.scale = scale

        run_rounds(wl, pkg, record, seconds=seconds, after_round=scale_round)
    return record, calibrate.REFERENCE_S / statistics.median(samples)


def end_to_end(workload, record, setup_times):
    """Metrics a user sees, plus the report lines that name them.  Times are
    scaled to reference machine speed (see calibrate.py)."""
    calls = record.calls
    failed = sum(not c.ok for c in calls)
    lines = []

    def show(name, value, unit, n, note=""):
        lines.append(f"  {name:28s} {value:14.6g} {unit:6s} n={n}{note}")

    walls = [sum(c.ref_s for c in r) for r in record.rounds]
    rss_mb = record.peak_rss_mb
    m = {"setup_s": statistics.median(setup_times),
         "wall_s": statistics.median(walls),
         "ok_share": 1.0 - failed / len(calls),
         "peak_rss_mb": rss_mb}
    show("setup_s", m["setup_s"], "s", len(setup_times), " (median of fresh interpreters)")
    show("wall_s", m["wall_s"], "s", len(walls), " (median round)")
    show("fail_share", failed / len(calls), "share", len(calls))
    show("ok_share", m["ok_share"], "share", len(calls))
    show("peak_rss_mb", rss_mb, "MB", 1, " (after the first round)")

    def latency(name, timed, unit, scale):
        samples = [c.ref_s for c in timed]
        p50 = statistics.median(samples)
        show(f"{name}.p50", p50 * scale, unit, len(samples))
        t = tail(samples)
        if t is None:
            lines.append(f"  {name + '.tail':28s} {'-':>14s} {unit:6s} n={len(samples)}"
                         " (fewer than 11 samples)")
        else:
            show(f"{name}.tail", t[1] * scale, unit, len(samples), f" (p{t[0]:.2f})")
        return p50

    if workload == "grid":
        scans = [c for c in calls if c.kind in ("scan:kerr", "scan:rn")]
        checks = [c for c in calls if c.kind == "check:kerr"]
        m["rate_per_s"] = median_rate(scans + checks)
        show("scan.rows_per_s", median_rate(scans), "1/s", len(scans))
        show("check.points_per_s", median_rate(checks), "1/s", len(checks))
        timed = [c for c in scans + checks if c.ok]
        m["latency_ms.p50"] = latency("grid.call_ms", timed, "ms", 1e3) * 1e3
        n_rate, n_latency = len(scans + checks), len(timed)
    elif workload == "davies":
        m["rate_per_s"] = len(calls) / sum(c.ref_s for c in calls)
        show("davies.calls_per_s", m["rate_per_s"], "1/s", len(calls))
        m["latency_ms.p50"] = latency("davies.call_ms", calls, "ms", 1e3) * 1e3
        n_rate = n_latency = len(calls)
    else:
        m["rate_per_s"] = rate(calls)
        show("legendre.solves_per_s", m["rate_per_s"], "1/s", len(calls))
        m["latency_ms.p50"] = latency("legendre.solve_us", calls, "us", 1e6) * 1e3
        n_rate = n_latency = len(calls)
    show("rate_per_s", m["rate_per_s"], "1/s", n_rate, " (gated)")
    show("latency_ms.p50", m["latency_ms.p50"], "ms", n_latency, " (gated)")
    raw_walls = [sum(c.seconds for c in r) for r in record.rounds]
    lines.append(f"  (unscaled: wall_s {statistics.median(raw_walls):.6g} s)")
    return m, lines


def per_layer(wl, pkg, seconds):
    """Alternate untraced and traced rounds on the same inputs for about
    ``seconds``; returns the layer metrics, the report lines, both records
    and the pool sizes.
    Alternating keeps machine-speed drift out of ``trace.overhead_s``.
    Times here are not scaled."""
    pool, tracer = spans.PoolObserver(), spans.Tracer()
    untraced, traced = workloads.Record(), workloads.Record()
    cond = pkg.jets.ConditioningWarning
    rounds, warned = 1, 0
    pool.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", cond)
            wl.restart()
            while len(traced.rounds) < rounds:
                state = wl.rng.getstate()
                run_rounds(wl, pkg, untraced, count=len(untraced.rounds) + 1)
                if len(untraced.rounds) == 1:
                    round_s = sum(c.seconds for c in untraced.calls)
                    rounds = max(1, int(seconds / 2 // max(round_s, 1e-9)))
                wl.rng.setstate(state)
                seen = len(caught)
                tracer.install()
                try:
                    run_rounds(wl, pkg, traced, count=len(traced.rounds) + 1)
                finally:
                    tracer.uninstall()
                warned += sum(issubclass(w.category, cond) for w in caught[seen:])
    finally:
        pool.uninstall()

    m = tracer.layer_metrics()
    scans = [c for c in untraced.calls if c.kind.startswith("scan:")]
    m["cli.scan.workers"] = max(pool.workers) if pool.workers else int(bool(scans))
    m["process.cpu_s"] = sum(c.cpu_s for c in untraced.calls)
    m["process.wall_s"] = sum(c.seconds for c in untraced.calls)
    m["trace.overhead_s"] = sum(c.seconds for c in traced.calls) - m["process.wall_s"]
    m["jets.conditioning_warnings"] = warned
    for token in spans.FLAG_TOKENS:
        m["cli.flags." + token.replace(":", "-")] = traced.flags.get(token, 0)
    m["cli.flags.other"] = sum(n for t, n in traced.flags.items()
                               if t not in spans.FLAG_TOKENS)
    tracer.write(os.path.join(WORK, f"spans_{wl.name}.csv"))
    lines = [f"  {name:40s} {value:.6g}" for name, value in sorted(m.items())]
    if tracer.missing:
        lines.append(f"  not traced (attribute missing): {', '.join(tracer.missing)}")
    return m, lines, [untraced, traced], pool.workers


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(workloads.WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    eps_env = os.environ.pop("THERMOCURV_EPS", None)
    if args.probe:
        return probe(args.probe)
    if args.workload is None:
        parser.error("--workload is required")
    pkg = import_package()
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    workloads.write_potential_files(WORK)
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK)
    wl.load(pkg)
    wl.warm_up(pkg)
    problems = self_test(pkg)

    if args.trace:
        metrics, lines, records, workers = per_layer(wl, pkg, args.seconds)
        wanted = declared["per_layer"]
    else:
        setup_times = measure_setup(args.workload)
        pool = spans.PoolObserver()
        pool.install()
        try:
            record, speed = run_scaled(wl, pkg, args.seconds)
        finally:
            pool.uninstall()
        records = [record]
        workers = pool.workers
        metrics, lines = end_to_end(args.workload, record, setup_times)
        lines.append(f"  (machine speed {speed:.3f} of reference)")
        wanted = declared["end_to_end"]

    calls = [c for r in records for c in r.calls]
    problems += [p for r in records for p in r.problems]
    hashes: dict[str, set[str]] = {}
    for r in records:
        for kind, found in r.hashes.items():
            hashes.setdefault(kind, set()).update(found)
    failures = Counter(f"{c.kind}: " + re.sub(r"-?\d[\w.+-]*", "#", c.error)[:100]
                       for c in calls if not c.ok)
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": _numpy_version(),
        "thermocurv": pkg.version, "platform": platform.platform(),
        "THERMOCURV_EPS": "unset" if eps_env is None else f"unset (was {eps_env!r})",
        "sizes": wl.sizes, "rounds": sum(len(r.rounds) for r in records),
        "calls": len(calls),
        "scan_threads": sorted(set(workers)) or None,
        "csv_sha256": {k: sorted(v) for k, v in sorted(hashes.items())},
        "failures": dict(failures.most_common()),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"  ORACLE FAIL {problem}")
    print("run record: " + json.dumps(run_record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(failures.values()),
        "metrics": {d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]}
                    for d in wanted},
    }
    with open(os.path.join(WORK, f"result_{args.workload}_{args.seed}_{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": run_record, "problems": problems, **result,
                   "calls": [[c.kind, c.seconds, c.scale, c.ok] for c in calls]}, fh)
    print(json.dumps(result))
    return 0 if not problems else 1


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
