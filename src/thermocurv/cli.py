"""Command-line front end: point evaluation, grid scans, divergence-line
reports and identity checks, with CSV/JSON output.

Exit codes: 0 success, 1 check-suite failure, 2 usage/parse/domain error.
Grids are evaluated in one vectorized pass, so output is deterministic for
fixed inputs (``--threads`` is accepted and ignored).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .catalog import GridAxis, UnknownPotentialError, entry_names, get_entry
from .davies import conjugacy_scan, find_davies_points, fit_divergence_exponent
from ._roots import NoBracketError, ToleranceNotMetError
from .geometry import StatePoint, curvature_from_m_jet, singularity_eps
from .jets import DOMAIN, OVERFLOW, DomainError, Jet3, batch
from .potentials import (ParseError, eval_jet, eval_scalar,
                         load_potential_file, parse_potential)
from .responses import (ResponseSet, cap_difference_residual,
                        kappa_difference_residual, metric_from_responses,
                        ratio_identity_residual, responses_at)

COLUMNS = ["S", "X", "T", "Y", "M_SS", "M_SX", "M_XX", "detGM", "detGF",
           "RM", "RF", "CX", "CY", "alpha", "kappaT", "kappaS", "gamma",
           "flags"]

CHECK_THRESHOLD = 1e-8

# CSV rows formatted and written at a time
_WRITE_BLOCK = 4096


def _jsonable(value: float):
    return value if math.isfinite(value) else None


def _load_spec(args):
    """Resolve --catalog/--potential-file into (spec, catalog entry or None)."""
    if args.catalog and args.potential_file:
        raise ValueError("give either --catalog or --potential-file, not both")
    if args.catalog:
        entry = get_entry(args.catalog)
        return entry.spec, entry
    if args.potential_file:
        return load_potential_file(args.potential_file), None
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
        vals[_coord_index(spec, name.strip())] = float(raw)
    if sorted(vals) != [0, 1]:
        raise ValueError("--at must set both coordinates exactly once")
    return StatePoint(vals[0], vals[1])


def _parse_grid_axis(text: str) -> tuple[str, GridAxis]:
    name, sep, rest = text.partition("=")
    if not sep:
        raise ValueError(f"--grid expects NAME=LO:HI:COUNT[:SPACING], got {text!r}")
    parts = rest.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"--grid expects NAME=LO:HI:COUNT[:SPACING], got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if spacing not in ("linear", "log"):
        raise ValueError(f"grid spacing must be linear or log, got {spacing!r}")
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count > 1 and not lo < hi:
        raise ValueError(f"grid needs lo < hi, got {lo} >= {hi}")
    if spacing == "log" and lo <= 0.0:
        raise ValueError("log spacing requires lo > 0")
    return name.strip(), GridAxis(lo, hi, count, spacing)


def _axis_values(axis: GridAxis) -> list[float]:
    if axis.count == 1:
        return [axis.lo]
    if axis.spacing == "log":
        ratio = (axis.hi / axis.lo) ** (1.0 / (axis.count - 1))
        return [axis.lo * ratio ** k for k in range(axis.count)]
    step = (axis.hi - axis.lo) / (axis.count - 1)
    return [axis.lo + step * k for k in range(axis.count)]


def evaluate_points(spec, s, x, eps=None):
    """The scan columns at the points ``(s[k], x[k])``, in one batched pass.

    Returns ``(columns, flags)``: ``columns`` maps each numeric column name
    to an array, ``flags`` holds the ``;``-joined tokens of each row.  A
    point outside the domain gets only ``err:domain`` and one whose jet is
    not finite only ``err:overflow``; their cells after S, X are nan.
    """
    eps = singularity_eps() if eps is None else eps
    s = np.asarray(s, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    n = s.size
    nan = np.full(n, math.nan)
    jet = None
    with np.errstate(all="ignore"):
        with batch(n) as failures:
            jet = eval_jet(spec, (s, x))
        coeffs = [nan] * 10 if jet is None else jet.coeffs()
        coeffs = np.broadcast_arrays(*coeffs, nan)[:10]
        failures.record(OVERFLOW, ~np.isfinite(coeffs).all(axis=0))
        jet = Jet3(*coeffs)
        curv = curvature_from_m_jet(jet, eps=eps)
        rs = responses_at(jet, StatePoint(s, x), eps=eps)
    failed = failures.code != 0
    values = [jet.s, jet.x, jet.ss, jet.sx, jet.xx, curv.det_gm, curv.det_gf,
              curv.r_m, curv.r_f, rs.c_x, rs.c_y, rs.alpha, rs.kappa_t,
              rs.kappa_s, rs.gamma]
    columns = dict(zip(COLUMNS, [s, x, *(np.where(failed, nan, v) for v in values)]))
    tokens = np.full(n, "", dtype=object)
    for token, mask in (*curv.flags, *rs.flags):
        tokens[mask & ~failed] += ";" + token
    tokens[failures.code == DOMAIN] = ";err:domain"
    tokens[failures.code == OVERFLOW] = ";err:overflow"
    return columns, np.array([t[1:] for t in tokens.tolist()], dtype=object)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_rows(args, spec, columns, flags) -> None:
    coords_map = {"S": spec.coords[0], "X": spec.coords[1]}
    table = np.column_stack([columns[name] for name in COLUMNS[:-1]])
    out, close = _open_out(args.out)
    try:
        if args.format == "csv":
            # the bytes csv.writer gives these cells: none needs quoting
            out.write(",".join(COLUMNS) + "\r\n")
            row = "%.17g," * (len(COLUMNS) - 1) + "%s\r\n"
            for start in range(0, len(flags), _WRITE_BLOCK):
                stop = start + _WRITE_BLOCK
                out.write("".join([row % (*cells, tag) for cells, tag in
                                   zip(table[start:stop].tolist(), flags[start:stop])]))
        else:
            doc = {
                "potential": spec.name,
                "coords": coords_map,
                "columns": COLUMNS,
                "rows": [[_jsonable(v) for v in cells] + [tag]
                         for cells, tag in zip(table.tolist(), flags)],
            }
            json.dump(doc, out, indent=2)
            out.write("\n")
    finally:
        if close:
            out.close()
    if close and args.format == "csv":
        sidecar = {"potential": spec.name, "coords": coords_map,
                   "columns": COLUMNS}
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")


def _cmd_eval(args) -> int:
    spec, _ = _load_spec(args)
    point = _parse_at(spec, args.at)
    columns, flags = evaluate_points(spec, [point.s], [point.x])
    if flags[0] == "err:domain":
        raise DomainError("domain", tuple(point), f"point outside {spec.name!r} domain")
    if flags[0] == "err:overflow":
        raise ValueError(f"the jet of {spec.name!r} overflows at {args.at}")
    if args.format == "csv":
        _write_rows(args, spec, columns, flags)
        return 0
    doc = {
        "potential": spec.name,
        "coords": {"S": spec.coords[0], "X": spec.coords[1]},
        **{col: _jsonable(float(columns[col][0])) for col in COLUMNS[:-1]},
        "flags": flags[0].split(";") if flags[0] else [],
    }
    out, close = _open_out(args.out)
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0


def _grid_points(args, spec, entry) -> tuple[np.ndarray, np.ndarray]:
    """The grid as two coordinate arrays, first coordinate in the outer loop."""
    axes: dict[int, GridAxis] = {}
    for text in args.grid or []:
        name, axis = _parse_grid_axis(text)
        axes[_coord_index(spec, name)] = axis
    if 0 not in axes or 1 not in axes:
        if entry is not None:
            default = entry.default_grid
        else:
            default = (GridAxis(0.5, 4.0, 8), GridAxis(0.5, 4.0, 8))
        axes.setdefault(0, default[0])
        axes.setdefault(1, default[1])
    svals, xvals = _axis_values(axes[0]), _axis_values(axes[1])
    return np.repeat(svals, len(xvals)), np.tile(xvals, len(svals))


def _cmd_scan(args) -> int:
    spec, entry = _load_spec(args)
    columns, flags = evaluate_points(spec, *_grid_points(args, spec, entry))
    _write_rows(args, spec, columns, flags)
    return 0


def _fit_doc(fit) -> dict:
    doc = {"kind": fit.kind, "slope": _jsonable(fit.slope),
           "r2": _jsonable(fit.r_squared)}
    if fit.limit is not None:
        doc["value"] = _jsonable(fit.limit)
    return doc


def _parse_sweep(text: str) -> tuple[str, GridAxis]:
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or len(parts) not in (2, 3, 4):
        raise ValueError(f"--sweep expects NAME=LO:HI[:N[:SPACING]], got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2]) if len(parts) >= 3 else 200
    spacing = parts[3] if len(parts) == 4 else "linear"
    if not lo < hi or count < 2:
        raise ValueError(f"sweep needs lo < hi and at least 2 samples: {text!r}")
    return name.strip(), GridAxis(lo, hi, count, spacing)


def _cmd_davies(args) -> int:
    spec, _ = _load_spec(args)
    fix_name, sep, fix_raw = args.fix.partition("=")
    if not sep:
        raise ValueError(f"--fix expects NAME=VALUE, got {args.fix!r}")
    fixed_idx = _coord_index(spec, fix_name.strip())
    fixed_value = float(fix_raw)
    sweep_name, axis = _parse_sweep(args.sweep)
    sweep_idx = _coord_index(spec, sweep_name)
    if sweep_idx == fixed_idx:
        raise ValueError("--fix and --sweep must name different coordinates")
    count = axis.count

    locus = find_davies_points(
        spec, args.which, fixed=spec.coords[fixed_idx],
        fixed_value=fixed_value, sweep=(axis.lo, axis.hi), count=count,
        spacing=axis.spacing)

    direction = (1.0, 0.0) if sweep_idx == 0 else (0.0, 1.0)
    points_doc = []
    for pt, info in zip(locus.points, locus.brackets):
        fits = {}
        for which_r, key in (("rf", "fit_RF"), ("rm", "fit_RM")):
            try:
                fit = fit_divergence_exponent(
                    spec, pt, which_r, which_line=args.which,
                    direction=direction)
            except DomainError:
                fit = fit_divergence_exponent(
                    spec, pt, which_r, which_line=args.which,
                    direction=(-direction[0], -direction[1]))
            fits[key] = _fit_doc(fit)
        points_doc.append({"S": pt.s, "X": pt.x, **fits, "bracket": {
            "residual": info.residual, "iterations": info.iterations}})

    turning: list[float] = []
    if sweep_idx == 0:
        if args.which == "cx":
            scan = conjugacy_scan(spec, "fixed-x", fixed_value=fixed_value,
                                  sweep=(axis.lo, axis.hi), count=count,
                                  spacing=axis.spacing)
            turning = list(scan.turning_points)
        else:
            for pt in locus.points:
                y0 = eval_jet(spec, pt).x
                scan = conjugacy_scan(spec, "fixed-y", fixed_value=y0,
                                      sweep=(axis.lo, axis.hi), count=count,
                                      spacing=axis.spacing, x_guess=pt.x)
                turning.extend(scan.turning_points)

    doc = {"which": args.which, "potential": spec.name,
           "fixed": {spec.coords[fixed_idx]: fixed_value},
           "points": points_doc, "turning_points": turning,
           "rejected": [{"S": pt.s, "X": pt.x} for pt in locus.rejected]}
    out, close = _open_out(args.out)
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0


def _cmd_check(args) -> int:
    spec, entry = _load_spec(args)
    s, x = _grid_points(args, spec, entry)

    def compile_ref(expr):
        ref_spec = parse_potential(expr, spec.coords, spec.params, name="reference")
        return lambda s, x: eval_scalar(ref_spec, (s, x))

    rm_ref = compile_ref(args.ref_rm) if args.ref_rm else (
        entry.reference_rm if entry is not None else None)
    rf_ref = compile_ref(args.ref_rf) if args.ref_rf else (
        entry.reference_rf if entry is not None else None)

    c, flags = evaluate_points(spec, s, x)
    responses = ("T", "Y", "CX", "CY", "alpha", "kappaT", "kappaS", "gamma")
    usable = (flags == "") & np.isfinite([c[k] for k in responses]).all(axis=0)
    if entry is not None:
        usable &= entry.in_domain(s, x)
    c = {k: v[usable] for k, v in c.items()}
    checked = int(np.count_nonzero(usable))
    rs = ResponseSet(point=StatePoint(c["S"], c["X"]), t=c["T"], y=c["Y"],
                     c_x=c["CX"], c_y=c["CY"], alpha=c["alpha"],
                     kappa_t=c["kappaT"], kappa_s=c["kappaS"], gamma=c["gamma"])
    det_gm = c["detGM"]

    def relative(diff, ref):
        return abs(diff) / np.fmax(abs(ref), 1.0)

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
        for key, ref, computed in (("golden:RM", rm_ref, c["RM"]),
                                   ("golden:RF", rf_ref, c["RF"])):
            if ref is not None:
                # closed-form references are scalar functions
                want = np.array([ref(a, b) for a, b in zip(c["S"].tolist(), c["X"].tolist())])
                residuals[key] = [relative(computed - want, want)]
    # the largest residual, nan ignored
    maxima = {key: float(np.fmax.reduce(np.abs(np.concatenate(parts)), initial=0.0))
              for key, parts in residuals.items()}

    failed = [k for k, v in maxima.items() if v > CHECK_THRESHOLD]
    print(f"potential: {spec.name}   points checked: {checked}")
    for key in sorted(maxima):
        status = "FAIL" if key in failed else "pass"
        print(f"  {status}  {key:26s} max residual {maxima[key]:.3e}")
    if checked == 0:
        print("no usable grid points", file=sys.stderr)
        return 2
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
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: grids are evaluated in "
                            "one vectorized pass")

    p_eval = sub.add_parser("eval", help="evaluate one state point")
    add_common(p_eval)
    p_eval.add_argument("--at", required=True, metavar="S=..,X=..",
                        help="coordinate values, e.g. S=1,Q=0.5")
    p_eval.set_defaults(func=_cmd_eval, default_format="json")

    p_scan = sub.add_parser("scan", help="evaluate a coordinate grid")
    add_common(p_scan)
    p_scan.add_argument("--grid", action="append", metavar="NAME=LO:HI:N[:SPACING]",
                        help="one axis per coordinate (repeat)")
    p_scan.set_defaults(func=_cmd_scan, default_format="csv")

    p_dav = sub.add_parser("davies", help="locate divergence lines and fit exponents")
    add_common(p_dav)
    p_dav.add_argument("--which", choices=("cx", "cy"), default="cx")
    p_dav.add_argument("--fix", required=True, metavar="NAME=VALUE")
    p_dav.add_argument("--sweep", required=True, metavar="NAME=LO:HI[:N]")
    p_dav.set_defaults(func=_cmd_davies, default_format="json")

    p_check = sub.add_parser("check", help="run identity/determinant residual suite")
    add_common(p_check)
    p_check.add_argument("--grid", action="append", metavar="NAME=LO:HI:N[:SPACING]")
    p_check.add_argument("--ref-rm", metavar="EXPR", default=None,
                         help="closed-form reference for RM (overrides catalog)")
    p_check.add_argument("--ref-rf", metavar="EXPR", default=None,
                         help="closed-form reference for RF (overrides catalog)")
    p_check.set_defaults(func=_cmd_check, default_format="json")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ParseError, DomainError, UnknownPotentialError, ValueError,
            OSError, json.JSONDecodeError, NoBracketError,
            ToleranceNotMetError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
