"""Command-line front end: point evaluation, grid scans, divergence-line
reports and identity checks, with CSV/JSON output.

Exit codes: 0 success, 1 check-suite failure, 2 usage/parse/domain error
(also a ``scan`` or ``check`` whose forked child fails or ends early).
Each ``--grid`` and ``--sweep`` value is one :class:`GridAxis`, checked and built there.
``THERMOCURV_EPS`` is read once per ``eval``, ``scan`` or ``check``, before any
output is opened; ``davies`` does not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import marshal
import math
import os
import sys
import threading
import types
from json.encoder import encode_basestring_ascii

import numpy as np

from .catalog import CatalogEntry, GridAxis, UnknownPotentialError, entry_names, get_entry
from .davies import divergence_orders, find_davies_points
from ._roots import NoBracketError, ToleranceNotMetError
from .geometry import DEFAULT_SINGULARITY_EPS, StatePoint, curvature_from_m_jet, singularity_eps
from .jets import DOMAIN, OVERFLOW, DomainError, one_warning
from .potentials import (ParseError, eval_jet, eval_jets, eval_scalar, load_potential_file,
                         parse_potential)
from .responses import (ResponseSet, cap_difference_residual,
                        kappa_difference_residual, metric_from_responses,
                        ratio_identity_residual, responses_at)

COLUMNS = ["S", "X", "T", "Y", "M_SS", "M_SX", "M_XX", "detGM", "detGF",
           "RM", "RF", "CX", "CY", "alpha", "kappaT", "kappaS", "gamma",
           "flags"]

CHECK_THRESHOLD = 1e-8

# the errors a command reports on standard error, exiting 2
_REPORTED = (ParseError, DomainError, UnknownPotentialError, ValueError, OverflowError, OSError,
             json.JSONDecodeError, NoBracketError, ToleranceNotMetError)

# grid points evaluated, checked or written at a time
_WRITE_BLOCK = 4096
_FORMAT_ROWS = 256     # rows formatted at a time: a whole block's would raise the memory peak


def _jsonable(value: float):
    return value if math.isfinite(value) else None


def _load_entry(args) -> CatalogEntry:
    """Resolve --catalog/--potential-file into a catalog entry; a potential
    file's has no closed forms (empty expressions) and an 8x8 grid on 0.5..4."""
    if args.catalog and args.potential_file:
        raise ValueError("give either --catalog or --potential-file, not both")
    if args.catalog:
        return get_entry(args.catalog)
    if args.potential_file:
        return CatalogEntry(load_potential_file(args.potential_file), "", "", "", "", "",
                            (GridAxis(0.5, 4.0, 8),) * 2)
    raise ValueError("a potential is required (--catalog or --potential-file)")


def _coord_index(spec, name: str) -> int:
    if name in spec.coords:
        return spec.coords.index(name)
    if name == "S":
        return 0
    if name == "X":
        return 1
    raise ValueError(
        f"unknown coordinate {name!r}; potential uses {spec.coords}")


def _parse_at(spec, text: str) -> StatePoint:
    vals: dict[int, float] = {}
    for item in text.split(","):
        name, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--at expects NAME=VALUE pairs, got {item!r}")
        index = _coord_index(spec, name.strip())
        if index in vals:
            raise ValueError(f"--at sets {spec.coords[index]!r} twice")
        vals[index] = float(raw)
    if sorted(vals) != [0, 1]:
        raise ValueError("--at must set both coordinates exactly once")
    return StatePoint(vals[0], vals[1])


GRID_SYNTAX, SWEEP_SYNTAX = "NAME=LO:HI:N[:SPACING]", "NAME=LO:HI[:N[:SPACING]]"


def _parse_axis(option: str, text: str) -> tuple[str, GridAxis]:
    """The coordinate name and axis of a ``--grid`` (N required) or
    ``--sweep`` (N defaults to 200) value; :class:`GridAxis` checks it."""
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or len(parts) not in ((3, 4) if option == "--grid" else (2, 3, 4)):
        syntax = GRID_SYNTAX if option == "--grid" else SWEEP_SYNTAX
        raise ValueError(f"{option} expects {syntax}, got {text!r}")
    count = int(parts[2]) if len(parts) > 2 else 200
    return name.strip(), GridAxis(float(parts[0]), float(parts[1]), count, *parts[3:])


def evaluate_points(spec, s, x, eps: float = DEFAULT_SINGULARITY_EPS):
    """The scan columns at the points ``(s[k], x[k])``, in one batched pass.

    Returns ``(columns, flags)``: ``columns`` maps each numeric column name
    to an array, ``flags`` is a string array of the ``;``-joined tokens of each
    row.  A point outside the domain gets only ``err:domain`` and one whose jet
    is not finite only ``err:overflow``; their cells after S, X are nan.  A
    row with another non-finite cell and no token gets ``overflow:cells``.
    """
    s, x = (np.asarray(v, dtype=float).ravel() for v in (s, x))
    jet, code = eval_jets(spec, s, x)
    with np.errstate(all="ignore"):
        curv = curvature_from_m_jet(jet, eps)
        rs = responses_at(jet, StatePoint(s, x), eps)
    failed = code != 0
    values = [jet.s, jet.x, jet.ss, jet.sx, jet.xx, curv.det_gm, curv.det_gf, curv.r_m,
              curv.r_f, rs.c_x, rs.c_y, rs.alpha, rs.kappa_t, rs.kappa_s, rs.gamma]
    columns = dict(zip(COLUMNS, [s, x, *(np.where(failed, math.nan, v) for v in values)]))
    pairs = (*curv.flags, *rs.flags)
    tokens = [token for token, _ in pairs] + ["overflow:cells", "err:domain", "err:overflow"]
    bits = sum(mask << k for k, (_, mask) in enumerate(pairs))     # bit k: tokens[k]
    finite = np.logical_and.reduce([np.isfinite(v) for v in columns.values()])
    bits |= (~finite & (bits == 0)) << len(pairs)
    bits[code == DOMAIN] = 1 << len(pairs) + 1     # a failed row has its error alone
    bits[code == OVERFLOW] = 1 << len(pairs) + 2
    keys, index = np.unique(bits, return_inverse=True)
    return columns, np.array([";".join(t for k, t in enumerate(tokens) if key >> k & 1)
                              for key in keys.tolist()])[index]


def _opened(path):
    """``path`` opened for bytes; for None or ``-``, stdout's buffer after its text or a decoder."""
    if path is not None and path != "-":
        return open(path, "wb")
    if getattr(out := sys.stdout, "buffer", None) is None:
        return contextlib.nullcontext(types.SimpleNamespace(
            write=lambda b: out.write(b.decode()), flush=lambda: None,
            writelines=lambda chunks: out.write(b"".join(chunks).decode())))
    out.flush()
    return contextlib.nullcontext(out.buffer)


def _has_fd(out) -> bool:
    with contextlib.suppress(AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return out.fileno() >= 0
    return False


def _indented(value, out: list, pad: str = "\n") -> list:
    """``out`` plus the text of ``json.dumps(value, indent=2)`` at ``pad``, by C encoders."""
    if value.__class__ is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif not (isinstance(value, (dict, list, tuple)) and value):
        out.append(json.dumps(value))       # None, a bool, an int, nan, +-inf, {} or []
    else:
        mapping, inner = isinstance(value, dict), pad + "  "
        sep = ("{" if mapping else "[") + inner
        for key, item in value.items() if mapping else enumerate(value):
            out.append(f"{sep}{encode_basestring_ascii(key)}: " if mapping else sep)
            _indented(item, out, inner)
            sep = "," + inner
        out += (pad, "}" if mapping else "]")
    return out


def _write_json(path, doc) -> None:
    with _opened(path) as out:
        out.write(("".join(_indented(doc, [])) + "\n").encode())


def _csv_chunks(c, flags) -> list:
    """The CSV rows of one block, as csv.writer gives them (no cell needs quoting), as
    bytes of ``_FORMAT_ROWS`` rows each."""
    from ._g17 import csv_rows      # here, so that only a CSV writer builds its tables
    table = np.column_stack([c[name] for name in COLUMNS[:-1]])
    return [csv_rows(table[a:a + _FORMAT_ROWS], flags[a:a + _FORMAT_ROWS])
            for a in range(0, len(flags), _FORMAT_ROWS)]


@contextlib.contextmanager
def _forked(name: str, blocks, ill):
    """Yields ``(first, receive, send)`` here with ``first`` 0 and in a forked child with 1,
    each to do blocks ``first``, ``first + 2``, ... with its ends of a pipe each way; the
    child then sends its ill-conditioned count, which joins ``ill``, and exits.  Without a
    child (one block, no ``os.fork``, another thread running, a fork that fails) yields
    ``(0, None, None)``.  A child that fails or ends before a message raises
    ``ChildProcessError``, and one that lost the reader of the output ``BrokenPipeError``."""
    if len(blocks) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield 0, None, None
        return
    (down, to_child), (from_child, up) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:     # no process to spare (EAGAIN, ENOMEM): this one does every block
        for fd in (down, to_child, from_child, up):
            os.close(fd)
        yield 0, None, None
        return
    if pid == 0:    # leaves only through os._exit: no atexit, no flush
        try:
            os.close(to_child)
            os.close(from_child)
            with open(down, "rb") as receive, open(up, "wb", buffering=0) as send:
                yield 1, receive, send
                marshal.dump(ill[0], send)      # 0 at the fork
            os._exit(0)
        except BrokenPipeError:
            os._exit(errno.EPIPE)
        except _REPORTED as exc:    # why, before the parent's error names this process
            print(f"error: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(1)
    os.close(down)
    os.close(up)
    cut = False
    try:    # the pipes close first, so a child waiting on the parent exits
        with open(from_child, "rb") as receive, open(to_child, "wb", buffering=0) as send:
            yield 0, receive, send
            ill[0] += marshal.load(receive)
    except EOFError:    # the child ended before a message
        cut = True
    finally:
        status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) == errno.EPIPE:
        raise BrokenPipeError(errno.EPIPE, "the reader of the output left")
    if status or cut:
        raise ChildProcessError(f"the forked {name} process failed (wait status {status})")


def _write_rows(args, spec, blocks) -> None:
    """Write the rows of ``blocks``, calls that each return :func:`evaluate_points` of a
    block.  To a file descriptor, a forked child writes every other CSV block: each
    process formats its next block whole while the other writes, then writes in turn."""
    head = {"potential": spec.name, "coords": {"S": spec.coords[0], "X": spec.coords[1]},
            "columns": COLUMNS}
    if args.format == "json":
        with one_warning():
            rows = [[_jsonable(v) for v in cells] + [tag] for c, flags in (b() for b in blocks)
                    for cells, tag in zip(np.column_stack([c[k] for k in COLUMNS[:-1]]).tolist(),
                                          flags)]
        _write_json(args.out, {**head, "rows": rows})
        return
    with _opened(args.out) as out, one_warning() as ill:
        out.write(",".join(COLUMNS).encode() + b"\r\n")
        out.flush()     # a child shares the output's file description, not this buffer
        with _forked("scan", blocks if _has_fd(out) else (), ill) as (first, receive, send):
            for k in range(first, len(blocks), 2 if send else 1):
                chunks = _csv_chunks(*blocks[k]())
                if receive and k:
                    marshal.load(receive)   # the other process has written block k - 1
                out.writelines(chunks)
                out.flush()
                if send and k + 1 < len(blocks):
                    with contextlib.suppress(BrokenPipeError):  # a child that left fails a load
                        marshal.dump(None, send)
    if args.out not in (None, "-"):
        _write_json(args.out + ".meta.json", head)


def _cmd_eval(args) -> int:
    spec = _load_entry(args).spec
    point = _parse_at(spec, args.at)
    columns, flags = evaluate_points(spec, [point.s], [point.x], singularity_eps())
    if flags[0] == "err:domain":
        eval_jet(spec, point)       # raises the point's own error, as eval_scalar does
    if flags[0] == "err:overflow":
        raise ValueError(f"the jet of {spec.name!r} overflows at {args.at}")
    if args.format == "csv":
        _write_rows(args, spec, [lambda: (columns, flags)])
        return 0
    doc = {
        "potential": spec.name,
        "coords": {"S": spec.coords[0], "X": spec.coords[1]},
        **{col: _jsonable(float(columns[col][0])) for col in COLUMNS[:-1]},
        "flags": flags[0].split(";") if flags[0] else [],
    }
    _write_json(args.out, doc)
    return 0


def _grid_axes(args, entry) -> tuple[np.ndarray, np.ndarray]:
    """The samples of the two grid axes; the first coordinate is the outer loop."""
    axes: dict[int, GridAxis] = {}
    for text in args.grid or []:
        name, axis = _parse_axis("--grid", text)
        index = _coord_index(entry.spec, name)
        if index in axes:
            raise ValueError(f"--grid gives {entry.spec.coords[index]!r} twice")
        axes[index] = axis
    for index, axis in enumerate(entry.default_grid):
        axes.setdefault(index, axis)
    return axes[0].values(), axes[1].values()


def _grid_blocks(spec, svals, xvals, eps: float) -> list:
    """A call per ``_WRITE_BLOCK`` grid points, the last one per the rest, that
    returns :func:`evaluate_points` of them."""
    def block(a, b):
        k = np.arange(a, b)
        return evaluate_points(spec, svals[k // xvals.size], xvals[k % xvals.size], eps)
    n = svals.size * xvals.size
    stops = [*range(_WRITE_BLOCK, n, _WRITE_BLOCK), n]
    return [functools.partial(block, a, b) for a, b in zip([0, *stops], stops)]


def _cmd_scan(args) -> int:
    entry = _load_entry(args)
    _write_rows(args, entry.spec, _grid_blocks(entry.spec, *_grid_axes(args, entry),
                                               singularity_eps()))
    return 0


def _fit_doc(fit) -> dict:
    """A :class:`Divergence` as JSON: the order is the log-log ``slope``."""
    return {"kind": fit.kind, **{key: _jsonable(v) for key, v in (
        ("slope", fit.order), ("coefficient", fit.coefficient), ("value", fit.value))
        if v is not None}}


def _cmd_davies(args) -> int:
    spec = _load_entry(args).spec
    fix_name, sep, fix_raw = args.fix.partition("=")
    fixed_value = float(fix_raw) if sep else math.nan
    if not math.isfinite(fixed_value):
        raise ValueError(f"--fix expects NAME=VALUE with a finite VALUE, got {args.fix!r}")
    fixed_idx = _coord_index(spec, fix_name.strip())
    sweep_name, axis = _parse_axis("--sweep", args.sweep)
    sweep_idx = _coord_index(spec, sweep_name)
    if sweep_idx == fixed_idx:
        raise ValueError("--fix and --sweep must name different coordinates")

    locus = find_davies_points(spec, args.which, fixed=spec.coords[fixed_idx],
                               fixed_value=fixed_value, sweep=(axis.lo, axis.hi),
                               count=axis.count, spacing=axis.spacing)

    points_doc = []
    for pt, jet, info in zip(locus.points, locus.jets, locus.brackets):
        fit_rm, fit_rf = divergence_orders(jet, args.which)
        points_doc.append({"S": pt.s, "X": pt.x, "fit_RF": _fit_doc(fit_rf),
                           "fit_RM": _fit_doc(fit_rm), "bracket": {
                               "residual": info.residual, "iterations": info.iterations}})

    doc = {"which": args.which, "potential": spec.name,
           "fixed": {spec.coords[fixed_idx]: fixed_value},
           "points": points_doc, "turning_points": list(locus.turning_points),
           "rejected": [{"S": pt.s, "X": pt.x} for pt in locus.rejected]}
    _write_json(args.out, doc)
    return 0


def _cmd_check(args) -> int:
    entry = _load_entry(args)
    spec = entry.spec
    axes = _grid_axes(args, entry)

    def compile_ref(expr):      # a closed form, on the potential's domain; "" is none
        return parse_potential(expr, spec.coords, spec.params, name="reference",
                               domain=spec.domain) if expr else None

    usable_ref = compile_ref(entry.usable)
    refs = {"RM": compile_ref(args.ref_rm or entry.reference_rm),
            "RF": compile_ref(args.ref_rf or entry.reference_rf)}

    def relative(diff, ref):
        return abs(diff) / np.fmax(abs(ref), 1.0)

    responses = ("T", "Y", "CX", "CY", "alpha", "kappaT", "kappaS", "gamma")

    def summary(block):     # a block's checked count and residual maxima
        c, flags = block()
        finite = np.isfinite([c[k] for k in responses]).all(axis=0)
        rows = np.flatnonzero((flags == "") & finite)
        if usable_ref is not None:      # here only: a failed row may be outside the domain
            rows = rows[eval_scalar(usable_ref, (c["S"][rows], c["X"][rows])) > 0.0]
        c = {k: v[rows] for k, v in c.items()}
        rs = ResponseSet(point=StatePoint(c["S"], c["X"]), t=c["T"], y=c["Y"],
                         c_x=c["CX"], c_y=c["CY"], alpha=c["alpha"],
                         kappa_t=c["kappaT"], kappa_s=c["kappaS"], gamma=c["gamma"])
        det_gm = c["detGM"]
        with np.errstate(all="ignore"):
            residuals = {
                "identity:capacities": [cap_difference_residual(rs)],
                "identity:susceptibilities": [kappa_difference_residual(rs)],
                "identity:ratio": [ratio_identity_residual(rs)],
                "det:response-form": [
                    relative(det_gm - rs.t / (rs.point.x * rs.kappa_t * rs.c_x), det_gm),
                    relative(det_gm - rs.t / (rs.point.x * rs.kappa_s * rs.c_y), det_gm)],
                "det:metric-ratio": [relative(c["detGF"] + rs.gamma * det_gm, c["detGF"])],
                "metric:response-form": [
                    relative(a - b, b) for a, b in zip(
                        metric_from_responses(rs)[:3], (c["M_SS"], c["M_SX"], c["M_XX"]))],
            }
            for name, ref in refs.items():
                if ref is not None:
                    want = eval_scalar(ref, (c["S"], c["X"]))
                    residuals["golden:" + name] = [relative(c[name] - want, want)]
        return rows.size, {key: float(np.max(np.abs(np.concatenate(parts)), initial=0.0))
                           for key, parts in residuals.items()}

    def summaries(first: int, step: int) -> list:     # to the first block that raises: its message
        done = []
        for block in blocks[first::step]:
            try:
                done.append(summary(block))
            except _REPORTED as exc:
                return [*done, str(exc)]
        return done

    blocks = _grid_blocks(spec, *axes, singularity_eps())
    with one_warning() as ill, _forked("check", blocks, ill) as (first, receive, send):
        found = summaries(first, 2 if send else 1)
        if first:
            marshal.dump(found, send)
        elif send:      # the child's, in block order
            found = [s for pair in itertools.zip_longest(found, marshal.load(receive))
                     for s in pair if s is not None]
        if not first and (errors := [s for s in found if isinstance(s, str)]):
            raise ValueError(errors[0])     # the first block's, as one process raises it
    checked = sum(n for n, _ in found)
    # a residual that could not be computed is nan, and so is its key's maximum
    maxima = {key: float(np.max([m[key] for _, m in found])) for key in found[0][1]}

    failed = [k for k, v in maxima.items() if not v <= CHECK_THRESHOLD]
    print(f"potential: {spec.name}   points checked: {checked}")
    for key in sorted(maxima):
        status = "FAIL" if key in failed else "pass"
        print(f"  {status}  {key:26s} max residual {maxima[key]:.3e}")
    if checked == 0:
        raise ValueError("no usable grid points")
    print("CHECK " + ("FAILED" if failed else "PASSED"))
    return 1 if failed else 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermocurv",
        description=("Hessian thermodynamic metrics, curvature scalars, "
                     "response functions and divergence-line analysis for "
                     "two-parameter potentials."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--catalog", metavar="NAME",
                       help=f"built-in potential ({', '.join(entry_names())})")
        p.add_argument("--potential-file", metavar="PATH",
                       help="potential-definition JSON file")

    p_eval = sub.add_parser("eval", help="evaluate one state point")
    add_common(p_eval)
    p_eval.add_argument("--at", required=True, metavar="S=..,X=..",
                        help="coordinate values, e.g. S=1,Q=0.5")
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="evaluate a coordinate grid")
    add_common(p_scan)
    p_scan.add_argument("--grid", action="append", metavar=GRID_SYNTAX,
                        help="one axis per coordinate (repeat)")
    p_scan.set_defaults(func=_cmd_scan)

    p_dav = sub.add_parser("davies", help="locate divergence lines and how the "
                                          "curvatures behave there")
    add_common(p_dav)
    p_dav.add_argument("--which", choices=("cx", "cy"), default="cx")
    p_dav.add_argument("--fix", required=True, metavar="NAME=VALUE")
    p_dav.add_argument("--sweep", required=True, metavar=SWEEP_SYNTAX)
    p_dav.set_defaults(func=_cmd_davies)

    p_check = sub.add_parser("check", help="run identity/determinant residual suite")
    add_common(p_check)
    p_check.add_argument("--grid", action="append", metavar=GRID_SYNTAX)
    p_check.add_argument("--ref-rm", metavar="EXPR", default=None,
                         help="closed-form reference for RM (overrides catalog)")
    p_check.add_argument("--ref-rf", metavar="EXPR", default=None,
                         help="closed-form reference for RF (overrides catalog)")
    p_check.set_defaults(func=_cmd_check)

    for p, fmt in ((p_eval, "json"), (p_scan, "csv")):
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
    for p in (p_eval, p_scan, p_dav):
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.commands = sub.choices       # each command's parser, by name
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # argparse reads argv once; the top-level parser reads what a command's cannot
    command = parser.commands.get(argv[0]) if argv else None
    args, unknown = command.parse_known_args(argv[1:]) if command else (None, True)
    if unknown:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except _REPORTED as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
