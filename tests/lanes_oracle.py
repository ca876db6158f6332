"""Oracles of ``_roots.solve_lanes``.

``solve_lanes_side_by_side`` takes the same Newton steps from the guess,
then runs an outward search in which each step evaluates the side nearer
the guess first and then the other side over the lanes that are still
searching, one call per side.  ``solve_lanes`` evaluates both sides in one
call and must give the same roots, payloads and gaps bit for bit.

``solve_lanes_bracket_first`` is ``solve_lanes`` without the Newton steps
from the guess: every lane brackets before its first Newton step.  Every
lane it solves, Newton first must solve to the same root.
"""

from __future__ import annotations

import math

import numpy as np


def solve_lanes_side_by_side(func, n: int, guess: float, lo: float, hi: float,
                             *, tol_f: float):
    """``_roots.solve_lanes`` with one ``func`` call per side of each step."""
    x = np.full(n, float(guess))
    f, slope, payload = (np.array(v) for v in func(np.arange(n), x))
    f_guess, slope_guess = f.copy(), slope.copy()
    done = abs(f) <= tol_f
    stepping = ~done
    for _ in range(8):
        with np.errstate(all="ignore"):
            cand = x - f / slope
        idx = np.flatnonzero(stepping & (lo < cand) & (cand < hi))
        stepping[:] = False
        if not idx.size:
            break
        before = abs(f[idx])
        x[idx] = cand[idx]
        f[idx], slope[idx], payload[..., idx] = func(idx, cand[idx])
        done[idx] = abs(f[idx]) <= tol_f
        stepping[idx] = ~done[idx] & (abs(f[idx]) <= 0.5 * before)
    # a lane the Newton steps left unsolved starts over at the guess
    x[~done], f[~done], slope[~done] = guess, f_guess[~done], slope_guess[~done]

    first_step = 0.05 * max(1.0, abs(guess))
    a, b, fa = (np.full(n, math.nan) for _ in range(3))
    ends = [(guess, f_guess), (guess, f_guess)]          # outermost sample on each side
    for k in range(60):
        if not (np.isnan(a) & ~done).any():
            break
        step = first_step * 2.0 ** k
        # past a finite bound, halve the distance to it instead, until within
        # 1e-9 of the first step, where that side takes no sample (nan)
        new = [guess - step if guess - step > lo else 0.5 * (ends[0][0] + lo),
               guess + step if guess + step < hi else 0.5 * (ends[1][0] + hi)]
        for j, past, bound in ((0, guess - step <= lo, lo), (1, guess + step >= hi, hi)):
            if past and abs(new[j] - bound) < 1e-9 * first_step:
                new[j] = math.nan
        for side in sorted((0, 1), key=lambda j: abs(ends[j][0] + new[j] - 2.0 * guess)):
            (x0, f0), x1 = ends[side], new[side]
            search = np.flatnonzero(np.isnan(a) & ~done)
            if search.size and lo < x1 < hi:
                f1 = np.full(n, math.nan)
                f1[search] = func(search, np.full(search.size, x1))[0]
                take = np.isnan(a) & _changes_sign(f0, f1)
                a[take], b[take] = min(x0, x1), max(x0, x1)
                fa[take] = (f0 if side else f1)[take]
                ends[side] = (x1, f1)
    return _refine(func, x, f, slope, payload, done, a, b, fa, tol_f)


def solve_lanes_bracket_first(func, n: int, guess: float, lo: float, hi: float,
                              *, tol_f: float):
    """``_roots.solve_lanes`` as it was before its Newton steps from the
    guess: the outward search, both sides in one call, then the bracketed
    Newton steps."""
    first_step = 0.05 * max(1.0, abs(guess))
    x = np.full(n, float(guess))
    f, slope, payload = (np.array(v) for v in func(np.arange(n), x))
    done = abs(f) <= tol_f
    a, b, fa = (np.full(n, math.nan) for _ in range(3))
    ends = [(guess, f), (guess, f)]          # outermost sample on each side
    for k in range(60):
        search = np.flatnonzero(np.isnan(a) & ~done)
        if not search.size:
            break
        step = first_step * 2.0 ** k
        # past a finite bound, halve the distance to it instead, until within
        # 1e-9 of the first step, where that side takes no sample (nan)
        new = [guess - step if guess - step > lo else 0.5 * (ends[0][0] + lo),
               guess + step if guess + step < hi else 0.5 * (ends[1][0] + hi)]
        for j, past, bound in ((0, guess - step <= lo, lo), (1, guess + step >= hi, hi)):
            if past and abs(new[j] - bound) < 1e-9 * first_step:
                new[j] = math.nan
        sides = [j for j in sorted((0, 1), key=lambda j: abs(ends[j][0] + new[j] - 2.0 * guess))
                 if lo < new[j] < hi]
        if not sides:
            continue
        values = func(np.concatenate([search] * len(sides)),
                      np.repeat([new[j] for j in sides], search.size))[0]
        for side, f_side in zip(sides, values.reshape(len(sides), -1)):
            (x0, f0), x1 = ends[side], new[side]
            f1 = np.full(n, math.nan)
            f1[search] = f_side
            take = np.isnan(a) & _changes_sign(f0, f1)
            a[take], b[take] = min(x0, x1), max(x0, x1)
            fa[take] = (f0 if side else f1)[take]
            ends[side] = (x1, f1)
    return _refine(func, x, f, slope, payload, done, a, b, fa, tol_f)


def _changes_sign(f0, f1):
    """Lanes where ``f1``, sampled after ``f0``, completes a sign change: both
    finite, ``f0`` nonzero and ``f1`` zero or of the other sign."""
    both_finite = np.isfinite(f0) & np.isfinite(f1)
    return both_finite & (f0 != 0.0) & (np.sign(f1) != np.sign(f0))


def _refine(func, x, f, slope, payload, done, a, b, fa, tol_f):
    """Newton steps inside each lane's bracket, bisecting when one leaves it."""
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
