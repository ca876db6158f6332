"""Safeguarded root finding for the Legendre solver and the divergence-line
scans, one equation or many lanes at once: Newton steps on the exact slope,
read from a jet already evaluated, inside a sign-change bracket that a step
leaving it, or meeting a zero or non-finite slope, bisects (Press et al.,
*Numerical Recipes* 3rd ed., 9.4, ``rtsafe``), to the stopping rule below."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .jets import _safe_div

COLLAPSE = 1e-13     # a bracket of COLLAPSE * max(1, |u|) has collapsed ...
LOOSE = 1e3          # ... and then accepts |f| <= LOOSE * tol_f
MAX_STEPS = 200


class NoBracketError(RuntimeError):
    """No sign change could be found around the starting guess."""


class ToleranceNotMetError(RuntimeError):
    """A refinement ended short of its residual tolerance."""


def _refine(func, u, f, slope, a, b, fa, fb, *, tol_f, tol_x=COLLAPSE):
    """The bracket loop: drive ``func(u) = (f, slope)`` from ``u``, where it is
    ``f, slope``, to ``(root, |f|, steps)``.  Inside the sign change ``(a, b)``,
    ``(fa, fb)`` at its ends, each step is Newton; one that leaves the bracket,
    stays put or meets a zero or non-finite slope bisects.  A nan residual (or
    an inf one within an inf tolerance), one above ``LOOSE`` times both ends'
    (a pole, not a root), and a collapsed bracket or ``MAX_STEPS`` steps short
    of the tolerance raise :class:`ToleranceNotMetError`."""
    ceiling = LOOSE * max(abs(fa), abs(fb))
    for steps in itertools.count():
        collapsed = abs(b - a) <= tol_x * max(1.0, abs(u))
        if not abs(f) > (LOOSE * tol_f if collapsed else tol_f):
            if math.isfinite(f):
                return u, abs(f), steps
            raise ToleranceNotMetError(f"residual {f!r} at {u!r} is not finite")
        if collapsed or steps == MAX_STEPS:
            raise ToleranceNotMetError(f"{'bracket collapsed' if collapsed else 'no convergence'}"
                                       f" after {steps} steps at {u!r}, residual {f!r}")
        new = u - f / slope if slope and math.isfinite(slope) else math.nan
        if not min(a, b) < new < max(a, b) or new == u:
            new = 0.5 * (a + b)
        u, (f, slope) = new, func(new)
        if abs(f) > ceiling:
            raise ToleranceNotMetError(f"residual {f!r} at {u!r} grew past {ceiling!r}")
        a, b, fa = (u, b, f) if (f > 0.0) == (fa > 0.0) else (a, u, fa)


def refine_bracket(func, a: float, b: float, fa: float, fb: float,
                   *, tol_f: float, tol_x: float = COLLAPSE) -> tuple[float, float, int]:
    """Drive ``func(u) = (f, slope)`` to zero inside a sign-change bracket by
    :func:`_refine`, from a bisection unless an end is within ``tol_f``.
    Returns ``(root, residual, iterations)``, counting the evaluations."""
    if fa != 0.0 != fb and (fa > 0.0) == (fb > 0.0) or math.isnan(fa) or math.isnan(fb):
        raise ValueError("refine_bracket needs a sign change")
    u, f = (b, fb) if abs(fb) < abs(fa) else (a, fa)
    return _refine(func, u, f, math.nan, a, b, fa, fb, tol_f=tol_f, tol_x=tol_x)


def expand_bracket(func, guess: float, lo: float, hi: float, *, slope):
    """Search outward from ``guess`` for the nearest sign change of ``func``.

    Samples ``guess +- h * 2**k`` for k < 60, ``h = 0.05 max(1, |guess|)``;
    past a finite bound it halves the distance from the outermost sample to
    the bound instead, down to ``1e-9 * h``, and skips a sample that is not
    finite.  The adjacent pair with opposite signs whose midpoint lies nearest
    the guess is returned as ``(a, b, fa, fb)``.  Failing one, a same-sign
    pair whose slope (``slope(u)`` gives f' and f'') changes sign holds an
    extremum: nearest the guess first, it is located as a root of the slope
    by :func:`refine_bracket`, and where ``func`` changes sign there, the
    half nearest the guess is the pair.  An extremum that cannot be located
    (a pole between the samples) counts as no root.
    """
    def dist(p):
        return abs(p[0] + p[1] - 2.0 * guess)

    def hump(x0, x1, f0, f1):
        try:
            d0, d1 = slope(x0)[0], slope(x1)[0]
            if (d0 > 0.0) == (d1 > 0.0):
                return None
            # located to 1e-9: any closer only chases a pole of ``slope``
            xe = refine_bracket(slope, x0, x1, d0, d1, tol_x=1e-9,
                                tol_f=1e-6 * max(abs(d0), abs(d1)))[0]
            fe = func(xe)
        except (ValueError, ToleranceNotMetError, ArithmeticError):
            return None
        if (fe > 0.0) == (f0 > 0.0) and fe != 0.0:
            return None
        return min((x0, xe, f0, fe), (xe, x1, fe, f1), key=dist)

    first_step = 0.05 * max(1.0, abs(guess))
    ends = [(guess, func(guess))] * 2    # outermost sample on each side
    for k in range(60):
        step, pairs = first_step * (2.0 ** k), []
        for side, cand, bound in ((0, guess - step, lo), (1, guess + step, hi)):
            if not lo < cand < hi:
                cand = 0.5 * (ends[side][0] + bound)
                if not math.isfinite(cand) or abs(cand - bound) < 1e-9 * first_step:
                    continue
            end, ends[side] = ends[side], (cand, func(cand))
            (x0, f0), (x1, f1) = (ends[0], end) if side == 0 else (end, ends[1])
            pairs.append((x0, x1, f0, f1))
        if not pairs:
            break
        # only the new outermost pairs: each older one changes no sign and
        # its hump, if any, holds no root; one with a non-finite end is neither
        pairs = [p for p in pairs if math.isfinite(p[2]) and math.isfinite(p[3])]
        found = [p for p in pairs
                 if p[2] == 0.0 or p[3] == 0.0 or (p[2] > 0.0) != (p[3] > 0.0)]
        if found:
            return min(found, key=dist)
        for p in sorted(pairs, key=dist):
            if (got := hump(*p)) is not None:
                return got
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
    :func:`expand_bracket` does (both sides in one call, the nearer winning),
    then takes Newton steps that bisect when they leave the bracket, to the
    scalar stopping rule.  Returns ``(x, payload)``, nan where no root is.
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
    for _ in range(MAX_STEPS):
        if not (idx := np.flatnonzero(active)).size:
            break
        _newton_step(func, lanes, idx, a[idx], b[idx], bisect=True)
        cand, fc, low = x[idx], f[idx], (f[idx] > 0.0) == (fa[idx] > 0.0)
        a[idx[low]], fa[idx[low]], b[idx[~low]] = cand[low], fc[low], cand[~low]
        collapsed = b[idx] - a[idx] <= COLLAPSE * np.maximum(1.0, abs(cand))
        done[idx] = ok = abs(fc) <= np.where(collapsed, LOOSE * tol_f, tol_f)
        active[idx] = ~(ok | collapsed | np.isnan(fc))
    return np.where(done, x, math.nan), np.where(done, payload, math.nan)


def solve_near(jet_at, coord: str, target: float, guess: float, lo: float,
               hi: float, *, tol_f: float):
    """Solve ``P_u = target`` for the coordinate ``u`` (``coord``: ``"s"`` or
    ``"x"``), ``jet_at(u)`` the jet of P, from ``guess`` on ``(lo, hi)``,
    evaluating each point once: up to ``MAX_STEPS`` Halley steps (``P_uuu``
    from the jet) cut to half of max(1, |u|), until one leaves ``(lo, hi)`` or
    cuts the residual by less than a tenth, then :func:`_refine` from the
    better end of the last sign change two iterates straddled, else of
    :func:`expand_bracket`'s.  Returns ``(root, jet at the root, |residual| <=
    tol_f, jets evaluated)`` or raises as those two do."""
    d1, d2, d3 = {"s": (1, 3, 6), "x": (2, 5, 9)}[coord]   # Jet3 slots of P_u, P_uu, P_uuu
    jets = {}

    def func(u: float):          # (P_u - target, P_uu), each point evaluated once
        m = jets[u] = jets.get(u) or jet_at(u)
        return m[d1] - target, m[d2]

    u, (f, slope), crossing = guess, func(guess), None
    for steps in itertools.count():
        if not abs(f) > tol_f:
            if math.isfinite(f):
                return u, jets[u], abs(f), len(jets)
            raise ToleranceNotMetError(f"residual {f!r} at {u!r} is not finite")
        if steps == MAX_STEPS:
            raise ToleranceNotMetError(f"no convergence after {steps} steps at {u!r}, "
                                       f"residual {f!r}")
        step = _safe_div(2.0 * f * slope, 2.0 * slope * slope - f * jets[u][d3])
        new = u - math.copysign(min(abs(step), 0.5 * max(1.0, abs(u))), step)
        if not lo < new < hi:
            break
        f_new, slope_new = func(new)
        if (f_new > 0.0) != (f > 0.0):
            crossing = (u, new, f, f_new)
        if abs(f_new) > 0.9 * abs(f):
            break
        u, f, slope = new, f_new, slope_new
    a, b, fa, fb = crossing or expand_bracket(lambda u: func(u)[0], guess, lo, hi,
                                              slope=lambda u: (func(u)[1], jets[u][d3]))
    u = b if abs(fb) < abs(fa) else a
    root, resid, _ = _refine(func, u, *func(u), a, b, fa, fb, tol_f=tol_f)
    return root, jets[root], resid, len(jets)
