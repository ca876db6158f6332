"""Safeguarded root finding shared by the Legendre solver and the
divergence-line scans, for one equation or many lanes at once."""

from __future__ import annotations

import math

import numpy as np

from .jets import DomainError, _safe_div


class NoBracketError(RuntimeError):
    """No sign change could be found around the starting guess."""


class ToleranceNotMetError(RuntimeError):
    """The bracket collapsed before the residual tolerance was reached."""


def refine_bracket(func, a: float, b: float, fa: float, fb: float,
                   *, tol_f: float, tol_x: float = 1e-13) -> tuple[float, float, int]:
    """Drive ``func`` to zero inside a sign-change bracket.

    Secant steps with bisection fallback; the bracket is maintained at every
    iteration, for at most 200 of them.  Returns ``(root, residual,
    iterations)`` once ``|f| <= tol_f`` or raises
    :class:`ToleranceNotMetError`.
    """
    if fa == 0.0:
        return a, 0.0, 0
    if fb == 0.0:
        return b, 0.0, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("refine_bracket needs a sign change")
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


def expand_bracket(func, guess: float, lo: float, hi: float, *, slope):
    """Search outward from ``guess`` for the nearest sign change of ``func``.

    Samples ``guess +- h * 2**k`` for k < 60, ``h = 0.05 max(1, |guess|)``;
    past a finite bound it halves the distance from the outermost sample to
    the bound instead, down to ``1e-9 * h``, and a sample that is not
    finite is skipped.  The adjacent pair with
    opposite signs whose midpoint lies nearest the guess is returned as
    ``(a, b, fa, fb)``.
    Failing one, a same-sign pair whose ``slope`` (the derivative of
    ``func``) differs in sign holds an extremum: nearest the guess first,
    it is located as a root of ``slope``, and where ``func`` changes sign
    there, the half nearest the guess is the pair.  An extremum that
    cannot be located (a pole between the samples) counts as no root.
    """
    pts = [(guess, func(guess))]
    flat = set()                 # same-sign pairs whose extremum holds no root

    def dist(p):
        return abs(p[0] + p[1] - 2.0 * guess)

    def hump(x0, x1, f0, f1):
        try:
            d0, d1 = slope(x0), slope(x1)
            if (d0 > 0.0) == (d1 > 0.0):
                return None
            # located to 1e-9: any closer only chases a pole of ``slope``
            xe = refine_bracket(slope, x0, x1, d0, d1, tol_x=1e-9,
                                tol_f=1e-6 * max(abs(d0), abs(d1)))[0]
            fe = func(xe)
        except (ToleranceNotMetError, DomainError, ArithmeticError):
            return None
        if (fe > 0.0) == (f0 > 0.0) and fe != 0.0:
            return None
        return min((x0, xe, f0, fe), (xe, x1, fe, f1), key=dist)

    first_step = 0.05 * max(1.0, abs(guess))
    ends = [guess, guess]        # outermost sample on each side
    for k in range(60):
        step, count = first_step * (2.0 ** k), len(pts)
        for side, cand, bound in ((0, guess - step, lo), (1, guess + step, hi)):
            if not lo < cand < hi:
                cand = 0.5 * (ends[side] + bound)
                if not math.isfinite(cand) or abs(cand - bound) < 1e-9 * first_step:
                    continue
            ends[side] = cand
            pts.append((cand, func(cand)))
        if len(pts) == count:
            break
        pts.sort(key=lambda p: p[0])
        pairs = [(x0, x1, f0, f1) for (x0, f0), (x1, f1) in zip(pts, pts[1:])]
        found = [p for p in pairs
                 if p[2] == 0.0 or p[3] == 0.0 or (p[2] > 0.0) != (p[3] > 0.0)]
        if found:
            return min(found, key=dist)
        for p in sorted((p for p in pairs if p[:2] not in flat), key=dist):
            if (got := hump(*p)) is not None:
                return got
            flat.add(p[:2])
    raise NoBracketError(
        f"no sign change found around {guess!r} within ({lo!r}, {hi!r})")


def _newton_step(func, lanes, idx, a, b, *, bisect: bool):
    """One Newton step of the lanes ``idx`` of ``lanes = (x, f, slope,
    payload)``, in place.  A step out of ``(a, b)`` goes to its midpoint if
    ``bisect``, else is not taken.  Returns the lanes stepped."""
    x, f, slope, payload = lanes
    with np.errstate(all="ignore"):
        cand = x[idx] - f[idx] / slope[idx]
    inside = (a < cand) & (cand < b)
    idx, cand = ((idx, np.where(inside, cand, 0.5 * (a + b))) if bisect
                 else (idx[inside], cand[inside]))
    if idx.size:
        x[idx] = cand
        f[idx], slope[idx], payload[..., idx] = func(idx, cand)
    return idx


def solve_lanes(func, n: int, guess: float, lo: float, hi: float, *, tol_f: float):
    """Solve ``n`` equations ``f_k(x) = 0`` at once, every lane from ``guess``.

    ``func(lanes, x)`` gives ``(f, slope, payload)`` of the lanes (an index
    array) at ``x``, nan where undefined; ``payload`` (last axis over the
    lanes) is wanted at the roots.  Every lane takes up to 8 Newton steps
    from the guess, one call per step for all lanes.  A lane whose step
    leaves ``(lo, hi)`` or fails to halve ``|f|`` goes back to the guess and
    its ``f`` and slope there, brackets the sign change nearest the guess as
    :func:`expand_bracket` does, also sampling toward a finite bound, then
    takes Newton steps (bisecting when one leaves the bracket) until
    ``|f| <= tol_f``.  Each outward step samples both sides in one call; a
    sign change on the side nearer the guess wins.  Returns ``(x, payload)``
    at the roots, nan where no bracket or a pole was found.
    """
    first_step = 0.05 * max(1.0, abs(guess))
    x = np.full(n, float(guess))
    f, slope, payload = (np.array(v) for v in func(np.arange(n), x))   # copies: written below
    lanes, f_guess, slope_guess = (x, f, slope, payload), f.copy(), slope.copy()
    done = abs(f) <= tol_f
    newton = ~done
    for _ in range(8):
        idx, resid = np.flatnonzero(newton), abs(f)
        newton[idx] = False
        if not (idx := _newton_step(func, lanes, idx, lo, hi, bisect=False)).size:
            break
        done[idx] = abs(f[idx]) <= tol_f
        newton[idx] = ~done[idx] & (abs(f[idx]) <= 0.5 * resid[idx])
    x[~done], f[~done], slope[~done] = guess, f_guess[~done], slope_guess[~done]
    a, b, fa = (np.full(n, math.nan) for _ in range(3))
    ends = [(guess, f_guess), (guess, f_guess)]   # outermost sample on each side
    for k in range(60):
        search = np.flatnonzero(np.isnan(a) & ~done)
        if not search.size:
            break
        step = first_step * 2.0 ** k
        # past a finite bound, halve the distance to it instead
        new = [guess - step if guess - step > lo else 0.5 * (ends[0][0] + lo),
               guess + step if guess + step < hi else 0.5 * (ends[1][0] + hi)]
        sides = [j for j in sorted((0, 1), key=lambda j: abs(ends[j][0] + new[j] - 2.0 * guess))
                 if lo < new[j] < hi and new[j] != ends[j][0]]
        if not sides:
            continue
        values = func(np.concatenate([search] * len(sides)),
                      np.repeat([new[j] for j in sides], search.size))[0]
        for side, f_side in zip(sides, values.reshape(len(sides), -1)):
            (x0, f0), x1 = ends[side], new[side]
            f1 = np.full(n, math.nan)
            f1[search] = f_side
            take = np.isnan(a) & (np.sign(f0) * np.sign(f1) <= 0.0)
            a[take], b[take] = min(x0, x1), max(x0, x1)
            fa[take] = (f0 if side else f1)[take]
            ends[side] = (x1, f1)

    active = ~done & ~np.isnan(a)
    for _ in range(200):
        if not (idx := np.flatnonzero(active)).size:
            break
        _newton_step(func, lanes, idx, a[idx], b[idx], bisect=True)
        cand, fc, low = x[idx], f[idx], (f[idx] > 0.0) == (fa[idx] > 0.0)
        a[idx[low]], fa[idx[low]], b[idx[~low]] = cand[low], fc[low], cand[~low]
        collapsed = b[idx] - a[idx] <= 1e-13 * np.maximum(1.0, abs(cand))
        done[idx] = ok = abs(fc) <= np.where(collapsed, 1e3 * tol_f, tol_f)
        active[idx] = ~(ok | collapsed | np.isnan(fc))
    return np.where(done, x, math.nan), np.where(done, payload, math.nan)


def solve_near(jet_at, coord: str, target: float, guess: float, lo: float,
               hi: float, *, tol_f: float):
    """Solve ``P_u = target`` for the coordinate ``u`` named by ``coord``
    (``"s"`` or ``"x"``), where ``jet_at(u)`` is the jet of P at ``u``.

    Up to 80 Halley steps from ``guess`` (``P_uuu`` is in the jet), each
    cut to at most half of max(1, |u|).  A step that leaves ``(lo, hi)`` or
    fails to cut the residual by a tenth hands over to the bracketed
    secant: inside the last sign change the steps crossed, else inside the
    one :func:`expand_bracket` finds.  Every point is evaluated once.
    Returns ``(root, jet at the root, |residual| <= tol_f, jets evaluated)``
    or raises as :func:`expand_bracket` and :func:`refine_bracket` do, and as
    :class:`ToleranceNotMetError` on a nan residual or a target that is not finite.
    """
    d1, d2, d3 = {"s": (1, 3, 6), "x": (2, 5, 9)}[coord]   # Jet3 slots of P_u, P_uu, P_uuu
    jets = {}

    def jet(u: float):
        if u not in jets:
            jets[u] = jet_at(u)
        return jets[u]

    def residual(u: float) -> float:
        return jet(u)[d1] - target

    root, f = guess, residual(guess)
    bracket = None               # the last sign change between two iterates
    for _ in range(80):
        if abs(f) <= tol_f:
            break
        m = jets[root]
        p2, p3 = m[d2], m[d3]
        step = _safe_div(2.0 * f * p2, 2.0 * p2 * p2 - f * p3)
        new = root - math.copysign(min(abs(step), 0.5 * max(1.0, abs(root))), step)
        if not lo < new < hi:
            break
        if ((f_new := residual(new)) > 0.0) != (f > 0.0):
            bracket = (root, new, f, f_new)
        if abs(f_new) > 0.9 * abs(f):
            break
        root, f = new, f_new
    if abs(f) > tol_f:
        a, b, fa, fb = bracket or expand_bracket(
            residual, guess, lo, hi, slope=lambda u: jet(u)[d2])
        root, f = refine_bracket(residual, a, b, fa, fb, tol_f=tol_f)[:2]
    elif not math.isfinite(f):   # a nan residual, or an infinite target
        raise ToleranceNotMetError(f"residual {f!r} at {root!r} is not finite")
    return root, jets[root], abs(f), len(jets)
