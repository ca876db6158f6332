"""Closed-form correctness checks for every output the benchmark collects.

Each check returns a list of problems; an empty list means the output is
right.  The checks use only the closed forms written in this file, never the
package, so a wrong answer cannot agree with itself.  The curvature formulas
are the ones the package catalog quotes for its built-in potentials.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

REL_TOL = 1e-8            # curvature and locus agreement
ROOT_TOL = 1e-9           # |T(S(T,X),X) - T|: 1e3 times the solver's own tolerance
KERR_LINE = math.sqrt(12.0 + math.sqrt(192.0))   # S/J on the Kerr C_J line
COLUMNS = ["S", "X", "T", "Y", "M_SS", "M_SX", "M_XX", "detGM", "detGF",
           "RM", "RF", "CX", "CY", "alpha", "kappaT", "kappaS", "gamma",
           "flags"]
_RM, _RF = COLUMNS.index("RM"), COLUMNS.index("RF")
MAX_REPORTED = 5          # problems listed per output; the rest are counted


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# -- closed forms ---------------------------------------------------------------

def rn_temperature(s, q):
    return (s - q * q) / (4.0 * s ** 1.5)


def rn_curvatures(s, q):
    return 2.0 * s ** 1.5 / (s - q * q) ** 2, 4.0 * s ** 1.5 / (s - 3.0 * q * q) ** 2


def kerr_f(s, j):
    return s ** 4 - 24.0 * s * s * j * j - 48.0 * j ** 4


def kerr_temperature(s, j):
    return (0.25 - j * j / (s * s)) / (2.0 * math.sqrt(s / 4.0 + j * j / s))


def kerr_curvatures(s, j):
    rf = (18.0 * (s * s + 4.0 * j * j) ** 3.5 * (s * s - 4.0 * j * j)
          / (s ** 1.5 * kerr_f(s, j) ** 2))
    return 0.0, rf


def flat_curvatures(s, x):
    """exp(S) + X^2 has a flat mass metric and a flat free-energy metric."""
    return 0.0, 0.0


TEMPERATURE = {"rn": rn_temperature, "kerr": kerr_temperature}
CURVATURES = {"rn": rn_curvatures, "kerr": kerr_curvatures,
              "exp": flat_curvatures}


# -- grid scans -----------------------------------------------------------------

def check_scan_csv(path, potential: str, shape: tuple[int, int]):
    """Check one scan CSV; returns ``(problems, flag token counts)``.

    The file must hold exactly the ``shape`` grid in scan order, every
    non-finite cell must carry a flag, unflagged rows must match the closed
    form curvatures, and on RN ``neg:T`` must be set exactly where S <= Q^2.
    """
    problems: list[str] = []
    flags: Counter = Counter()
    reference = CURVATURES[potential]
    n_x = shape[1]
    x_axis: list[float] = []
    block_s = -math.inf
    rows = 0

    def bad(message):
        if len(problems) < MAX_REPORTED:
            problems.append(f"{path}: {message}")
        else:
            problems[-1] = f"{path}: further problems not listed"

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != COLUMNS:
            return [f"{path}: header is not the scan column list"], flags
        for row in reader:
            k = rows
            rows += 1
            if len(row) != len(COLUMNS):
                bad(f"row {k} has {len(row)} cells")
                continue
            values = [float(v) for v in row[:-1]]
            s, x = values[0], values[1]
            tokens = row[-1].split(";") if row[-1] else []
            flags.update(tokens)
            block, i = divmod(k, n_x)
            if i == 0:
                if not s > block_s:
                    bad(f"row {k}: S={s!r} does not increase between blocks")
                block_s = s
            elif s != block_s:
                bad(f"row {k}: S={s!r} changes inside a block")
            if block == 0:
                if x_axis and not x > x_axis[-1]:
                    bad(f"row {k}: X={x!r} does not increase")
                x_axis.append(x)
            elif i >= len(x_axis) or x != x_axis[i]:
                bad(f"row {k}: X={x!r} is off the grid")
            if potential == "rn" and ("neg:T" in tokens) != (s <= x * x):
                bad(f"row {k}: neg:T is {'neg:T' in tokens} at S={s!r}, Q={x!r}")
            if tokens:
                continue
            if not all(math.isfinite(v) for v in values):
                bad(f"row {k}: non-finite cell without a flag")
                continue
            want_rm, want_rf = reference(s, x)
            if not close(values[_RM], want_rm):
                bad(f"row {k}: RM={values[_RM]!r}, closed form {want_rm!r}")
            if not close(values[_RF], want_rf):
                bad(f"row {k}: RF={values[_RF]!r}, closed form {want_rf!r}")
    if rows != shape[0] * n_x:
        bad(f"{rows} rows, grid has {shape[0] * n_x}")
    return problems, flags


def check_check_output(text: str) -> list[str]:
    return [] if "CHECK PASSED" in text else ["check did not print CHECK PASSED"]


# -- Davies lines ---------------------------------------------------------------

def _on_line(case: str, s: float, x: float) -> bool:
    if case == "rn":
        return close(s, 3.0 * x * x)
    if case == "kerr":
        scale = s ** 4 + 24.0 * s * s * x * x + 48.0 * x ** 4
        return abs(kerr_f(s, x)) <= REL_TOL * scale
    if case == "synth":
        return close(s, x * x - 1.0)
    return False          # pole and sqrt potentials have no C_X line at all


def check_davies(doc: dict, case: str, which: str, fixed: float) -> list[str]:
    """Check one ``davies`` JSON document against the closed-form lines.

    RN, Kerr and the synthetic potential cross their line exactly once per
    slice; the pole and square-root potentials have no line, so any point
    they report (for example one on the pole S=2) is wrong.
    """
    problems = []
    points = doc.get("points", [])
    expected = 1 if case in ("rn", "kerr", "synth") else 0
    if len(points) != expected:
        problems.append(f"{case}: {len(points)} points, closed form has {expected}")
    diverging, finite = ("fit_RF", "fit_RM") if which == "cx" else ("fit_RM", "fit_RF")
    for pt in points:
        s, x = pt["S"], pt["X"]
        if x != fixed or not _on_line(case, s, x):
            problems.append(f"{case}: point S={s!r}, X={x!r} is off the line")
        fit = pt.get(diverging, {})
        slope = fit.get("slope")
        if fit.get("kind") != "divergent" or slope is None or not -2.1 <= slope <= -1.9:
            problems.append(f"{case}: {diverging} {fit} is not an f^-2 divergence")
        if pt.get(finite, {}).get("kind") != "finite":
            problems.append(f"{case}: {finite} is not finite")
    turning = doc.get("turning_points", [])
    if len(turning) != len(points):
        problems.append(f"{case}: {len(turning)} turning points for {len(points)} points")
    for u in turning:
        if not any(close(u, pt["S"]) for pt in points):
            problems.append(f"{case}: turning point {u!r} matches no point")
    return problems


# -- Legendre solves ------------------------------------------------------------

def check_legendre(case: str, t: float, x: float, s_root: float,
                   r_m: float, r_f: float) -> list[str]:
    """The solved entropy must reproduce T, and the (T, X)-chart curvatures
    must equal the (S, X)-chart closed forms at that entropy."""
    if not s_root > 0.0:
        return [f"{case}: solved S={s_root!r} is outside the domain"]
    problems = []
    t_back = TEMPERATURE[case](s_root, x)
    if abs(t_back - t) > ROOT_TOL * max(1.0, abs(t)):
        problems.append(f"{case}: T(S={s_root!r}, X={x!r}) = {t_back!r}, wanted {t!r}")
    want_rm, want_rf = CURVATURES[case](s_root, x)
    if not close(r_m, want_rm):
        problems.append(f"{case}: TX-chart RM={r_m!r}, SX closed form {want_rm!r}")
    if not close(r_f, want_rf):
        problems.append(f"{case}: TX-chart RF={r_f!r}, SX closed form {want_rf!r}")
    return problems
