"""Per-layer tracing installed from outside the package.

The tracer replaces module-level functions under the name each caller
imported them by (``thermocurv.cli.eval_jet``, ``thermocurv.davies.
refine_bracket``, ...) with wrappers that record one span per call: id,
parent, name, start, end and the exception that ended it, if any.  Parents
are tracked per thread because ``scan`` evaluates rows on a thread pool.
Spans stay in memory in a flat array and are written out at the end.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict

# (module, attribute as its caller imported it, span name, counts calls of
# the function passed as first argument)
BOUNDARIES = [
    ("thermocurv.cli", "main", "cli.main", False),
    ("thermocurv.cli", "_write_rows", "cli.write", False),
    ("thermocurv.cli", "eval_jet", "potentials.eval_jet", False),
    ("thermocurv.davies", "eval_jet", "potentials.eval_jet", False),
    ("thermocurv.geometry", "eval_jet", "potentials.eval_jet", False),
    ("thermocurv.cli", "parse_potential", "potentials.parse_potential", False),
    ("thermocurv.catalog", "parse_potential", "potentials.parse_potential", False),
    ("thermocurv.potentials", "parse_potential", "potentials.parse_potential", False),
    ("thermocurv.cli", "curvature_from_m_jet", "geometry.curvature_from_m_jet", False),
    ("thermocurv.davies", "curvature_from_m_jet", "geometry.curvature_from_m_jet", False),
    ("thermocurv.geometry", "curvature_from_f_jet", "geometry.curvature_from_f_jet", False),
    ("thermocurv.geometry", "legendre_at", "geometry.legendre_at", False),
    ("thermocurv.cli", "responses_at", "responses.responses_at", False),
    ("thermocurv.cli", "find_davies_points", "davies.find_davies_points", False),
    ("thermocurv.cli", "fit_divergence_exponent", "davies.fit_divergence_exponent", False),
    ("thermocurv.cli", "conjugacy_scan", "davies.conjugacy_scan", False),
    ("thermocurv.davies", "refine_bracket", "roots.refine_bracket", True),
    ("thermocurv.davies", "expand_bracket", "roots.expand_bracket", True),
    ("thermocurv.geometry", "expand_bracket", "roots.expand_bracket", True),
]

TIMED = ["potentials.eval_jet", "potentials.parse_potential",
         "geometry.curvature_from_m_jet", "geometry.curvature_from_f_jet",
         "geometry.legendre_at", "responses.responses_at",
         "davies.find_davies_points", "davies.fit_divergence_exponent",
         "davies.conjugacy_scan", "roots.refine_bracket", "roots.expand_bracket",
         "cli.write"]
FLAG_TOKENS = ["div:RM", "div:RF", "div:CX", "div:CY", "div:alpha", "div:kappaT",
               "div:kappaS", "neg:T", "undef:X", "err:domain", "err:responses"]


def _observe_legendre(args, result):
    return (("iterations", result.iterations), ("residual", result.residual))


def _observe_davies(args, result):
    iters = max((b.iterations for b in result.brackets), default=0)
    return (("points", len(result.points)), ("rejected", len(result.rejected)),
            ("bracket_iterations", iters))


def _observe_write(args, result):
    out = getattr(args[0], "out", None)
    if out in (None, "-") or not os.path.exists(out):
        return ()
    return (("bytes", os.path.getsize(out)),)


OBSERVERS = {"geometry.legendre_at": _observe_legendre,
             "davies.find_davies_points": _observe_davies,
             "cli.write": _observe_write}


class PoolObserver:
    """Records the worker count of every thread pool ``cli`` creates."""

    def __init__(self):
        self.workers: list[int] = []
        self._undo = None

    def install(self) -> None:
        cli = importlib.import_module("thermocurv.cli")
        original = getattr(cli, "ThreadPoolExecutor", None)
        if original is None:
            return
        seen = self.workers

        class ObservedPool(original):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        cli.ThreadPoolExecutor = ObservedPool
        self._undo = (cli, original)

    def uninstall(self) -> None:
        if self._undo is not None:
            cli, original = self._undo
            cli.ThreadPoolExecutor = original
            self._undo = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []           # span and exception names by code
        self._codes: dict[str, int] = {}
        self._code_lock = threading.Lock()
        self.spans = array("q")              # (id, parent, name, start, end, error) per span
        self.extras: list[tuple[int, str, float]] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def code(self, name: str) -> int:
        with self._code_lock:
            if name not in self._codes:
                self.names.append(name)
                self._codes[name] = len(self.names)
            return self._codes[name]

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, counting in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counting))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, func, name: str, counting: bool):
        code = self.code(name)
        observe = OBSERVERS.get(name)
        spans, extras, ids, local = self.spans, self.extras, self._ids, self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if counting:
                evals = [0]
                inner = args[0]

                def counted(u):
                    evals[0] += 1
                    return inner(u)
                args = (counted, *args[1:])
            stack.append(sid)
            error = 0
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = self.code(type(exc).__name__)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, parent, code, start, end, error))
                if counting:
                    extras.append((sid, "func_evals", evals[0]))
            if observe is not None:
                extras.extend((sid, key, value) for key, value in observe(args, result))
            return result

        return traced

    def records(self):
        s = self.spans
        for k in range(0, len(s), 6):
            yield s[k], s[k + 1], self.names[s[k + 2] - 1], s[k + 3], s[k + 4], s[k + 5]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,error\n")
            for sid, parent, name, start, end, error in self.records():
                err = self.names[error - 1] if error else ""
                fh.write(f"{sid},{parent},{name},{start},{end},{err}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and solver figures from the spans."""
        child_ns: dict[int, int] = defaultdict(int)
        spans = list(self.records())
        for sid, parent, _, start, end, _ in spans:
            if parent:
                child_ns[parent] += end - start
        name_of = {sid: name for sid, _, name, _, _, _ in spans}
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        failures: dict[str, int] = defaultdict(int)
        domain_errors = 0
        sign_changes = 0
        fallback: set[int] = set()
        ok_refines = 0
        for sid, parent, name, start, end, error in spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
            if error:
                failures[name] += 1
                if name == "potentials.eval_jet" and self.names[error - 1] == "DomainError":
                    domain_errors += 1
            if name == "roots.refine_bracket":
                ok_refines += not error
                if name_of.get(parent) == "davies.find_davies_points":
                    sign_changes += 1
            if name == "roots.expand_bracket" and name_of.get(parent) == "geometry.legendre_at":
                fallback.add(parent)

        extra = defaultdict(list)
        for sid, key, value in self.extras:
            extra[(name_of.get(sid), key)].append(value)

        def total(name, key):
            return sum(extra[(name, key)])

        def largest(name, key):
            return max(extra[(name, key)], default=0)

        m: dict[str, float] = {}
        for name in TIMED:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_ns[name] / 1e9
        m["potentials.eval_jet.domain_errors"] = domain_errors
        legendre = "geometry.legendre_at"
        m[f"{legendre}.iterations_max"] = largest(legendre, "iterations")
        m[f"{legendre}.residual_max"] = largest(legendre, "residual")
        m[f"{legendre}.failures"] = failures[legendre]
        m[f"{legendre}.fallback_share"] = (len(fallback) / calls[legendre]
                                           if calls[legendre] else 0.0)
        davies = "davies.find_davies_points"
        points = total(davies, "points")
        m["davies.sign_changes"] = sign_changes
        m["davies.points"] = points
        m["davies.rejected"] = total(davies, "rejected")
        m["davies.accept_ratio"] = points / sign_changes if sign_changes else 0.0
        m["davies.bracket_iterations_max"] = largest(davies, "bracket_iterations")
        for name in ("roots.refine_bracket", "roots.expand_bracket"):
            m[f"{name}.func_evals"] = total(name, "func_evals")
            m[f"{name}.failures"] = failures[name]
        m["roots.evals_per_root"] = (m["roots.refine_bracket.func_evals"] / ok_refines
                                     if ok_refines else 0.0)
        m["cli.write.bytes"] = total("cli.write", "bytes")
        m["trace.spans"] = len(spans)
        return m
