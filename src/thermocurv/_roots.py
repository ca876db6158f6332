"""Safeguarded root finding shared by the Legendre solver and the
divergence-line scans, for one equation or many lanes at once."""

from __future__ import annotations

import math

import numpy as np

from .jets import DomainError


class NoBracketError(RuntimeError):
    """No sign change could be found around the starting guess."""


class ToleranceNotMetError(RuntimeError):
    """The bracket collapsed before the residual tolerance was reached."""


def refine_bracket(func, a: float, b: float, fa: float, fb: float,
                   *, tol_f: float, tol_x: float = 1e-13,
                   max_iter: int = 200) -> tuple[float, float, int]:
    """Drive ``func`` to zero inside a sign-change bracket.

    Secant steps with bisection fallback; the bracket is maintained at every
    iteration.  Returns ``(root, residual, iterations)`` once
    ``|f| <= tol_f`` or raises :class:`ToleranceNotMetError`.
    """
    if fa == 0.0:
        return a, 0.0, 0
    if fb == 0.0:
        return b, 0.0, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("refine_bracket needs a sign change")
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for it in range(1, max_iter + 1):
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
    raise ToleranceNotMetError(f"no convergence in {max_iter} iterations")


def expand_bracket(func, guess: float, lo: float, hi: float,
                   *, first_step: float, slope, max_expand: int = 60):
    """Search outward from ``guess`` for the nearest sign change of ``func``.

    Samples ``guess +- first_step * 2**k``; past a finite bound it halves
    the distance from the outermost sample to the bound instead, down to
    ``1e-9 * first_step``.  The adjacent pair with opposite signs whose
    midpoint lies nearest the guess is returned as ``(a, b, fa, fb)``.
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

    ends = [guess, guess]        # outermost sample on each side
    for k in range(max_expand):
        step, count = first_step * (2.0 ** k), len(pts)
        for side, cand, bound in ((0, guess - step, lo), (1, guess + step, hi)):
            if not lo < cand < hi:
                cand = 0.5 * (ends[side] + bound)
                if abs(cand - bound) < 1e-9 * first_step:
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


def solve_lanes(func, n: int, guess: float, lo: float, hi: float,
                *, first_step: float, tol_f: float):
    """Solve ``n`` equations ``f_k(x) = 0`` at once, every lane from ``guess``.

    ``func(lanes, x)`` gives ``(f, slope, payload)`` of the lanes (an index
    array) at ``x``, nan where undefined; ``payload`` (last axis over the
    lanes) is wanted at the roots.  Each lane brackets the sign change
    nearest the guess as :func:`expand_bracket` does, also sampling toward
    a finite bound, then takes Newton steps (bisecting when one leaves the
    bracket) until ``|f| <= tol_f``.  Returns ``(x, payload)`` at the roots,
    nan where no bracket or a pole was found.
    """
    x = np.full(n, float(guess))
    f, slope, payload = func(np.arange(n), x)
    done = abs(f) <= tol_f
    a, b, fa = (np.full(n, math.nan) for _ in range(3))
    ends = [(guess, f), (guess, f)]          # outermost sample on each side
    for k in range(60):
        if not (np.isnan(a) & ~done).any():
            break
        step = first_step * 2.0 ** k
        # past a finite bound, halve the distance to it instead
        new = [guess - step if guess - step > lo else 0.5 * (ends[0][0] + lo),
               guess + step if guess + step < hi else 0.5 * (ends[1][0] + hi)]
        for side in sorted((0, 1), key=lambda j: abs(ends[j][0] + new[j] - 2.0 * guess)):
            (x0, f0), x1 = ends[side], new[side]
            search = np.flatnonzero(np.isnan(a) & ~done)
            if search.size and lo < x1 < hi and x1 != x0:
                f1 = np.full(n, math.nan)
                f1[search] = func(search, np.full(search.size, x1))[0]
                take = np.isnan(a) & (np.sign(f0) * np.sign(f1) <= 0.0)
                a[take], b[take] = min(x0, x1), max(x0, x1)
                fa[take] = (f0 if side else f1)[take]
                ends[side] = (x1, f1)

    active = ~done & ~np.isnan(a)
    for _ in range(200):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        with np.errstate(all="ignore"):
            cand = x[idx] - f[idx] / slope[idx]
        inside = (a[idx] < cand) & (cand < b[idx])
        x[idx] = cand = np.where(inside, cand, 0.5 * (a[idx] + b[idx]))
        f[idx], slope[idx], payload[..., idx] = func(idx, cand)
        fc, low = f[idx], (f[idx] > 0.0) == (fa[idx] > 0.0)
        a[idx[low]], fa[idx[low]], b[idx[~low]] = cand[low], fc[low], cand[~low]
        collapsed = b[idx] - a[idx] <= 1e-13 * np.maximum(1.0, abs(cand))
        done[idx] = ok = abs(fc) <= np.where(collapsed, 1e3 * tol_f, tol_f)
        active[idx] = ~(ok | collapsed | np.isnan(fc))
    return np.where(done, x, math.nan), np.where(done, payload, math.nan)
