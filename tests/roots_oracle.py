"""An independent oracle of ``_roots.refine_bracket``: the secant with
bisection fallback that the package refined every scalar bracket with
before it took Newton steps on the jet's slope.

``func(u)`` returns ``f`` alone.  The bracket is kept at every iteration,
for at most 200 of them; the stopping rule is the package's (a collapse at
``1e-13 max(1, |u|)``, a loose accept at ``1e3 tol_f``).
"""

from __future__ import annotations

from thermocurv._roots import ToleranceNotMetError


def secant_bracket(func, a: float, b: float, fa: float, fb: float,
                   *, tol_f: float, tol_x: float = 1e-13) -> tuple[float, float, int]:
    """``(root, residual, iterations)`` once ``|f| <= tol_f``, else
    :class:`ToleranceNotMetError`."""
    if fa == 0.0:
        return a, 0.0, 0
    if fb == 0.0:
        return b, 0.0, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("secant_bracket needs a sign change")
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for it in range(1, 201):
        if f_prev != f_cur:
            cand = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
        else:
            cand = 0.5 * (a + b)
        lo, hi = min(a, b), max(a, b)
        if not (lo < cand < hi):
            cand = 0.5 * (a + b)
        f_cand = func(cand)
        if abs(f_cand) <= tol_f:
            return cand, abs(f_cand), it
        if (f_cand > 0.0) == (fa > 0.0):
            a, fa = cand, f_cand
        else:
            b, fb = cand, f_cand
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = cand, f_cand
        if abs(b - a) <= tol_x * max(1.0, abs(cand)):
            # bracket exhausted; accept if the residual is merely loose
            if abs(f_cand) <= 1e3 * tol_f:
                return cand, abs(f_cand), it
            raise ToleranceNotMetError(
                f"bracket collapsed at {cand!r} with residual {f_cand!r}")
    raise ToleranceNotMetError("no convergence in 200 iterations")
