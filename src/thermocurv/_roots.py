"""Safeguarded root finding for the Legendre solver and the divergence-line
scans, one equation or many lanes at once: Newton steps on the exact slope,
read from a jet already evaluated, inside a sign-change bracket that a step
leaving it, or meeting a zero or non-finite slope, bisects (Press et al.,
*Numerical Recipes* 3rd ed., 9.4, ``rtsafe``), to the stopping rule below.
Every bracket is a pair of samples that :func:`crosses`, and both outward
searches, scalar and lane, take the samples of :func:`_outward`."""

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


def crosses(f_from, f_to):
    """Whether the sample ``f_to``, taken after ``f_from``, completes a sign
    change: both are finite, ``f_from`` is nonzero and ``f_to`` is zero or of
    the other sign, so a zero sample counts once, for the pair that reaches
    it.  Floats or arrays."""
    finite = (abs(f_from) < math.inf) & (abs(f_to) < math.inf)
    return finite & ((f_from > 0.0) & (f_to <= 0.0) | (f_from < 0.0) & (f_to >= 0.0))


def _outward(guess: float, lo: float, hi: float):
    """An outward search's samples: for each doubling k < 60, the moves
    ``(side, last, new)`` (side 0 down, 1 up), nearest pair to ``guess``
    first.  A side steps to ``guess -+ h 2**k``, ``h = 0.05 max(1, |guess|)``;
    past a finite bound it halves its distance to the bound, until within
    ``1e-9 h``.  No sample leaves ``(lo, hi)``: a guess outside steps until
    a side is inside.  It ends when neither side can move again."""
    h, last = 0.05 * max(1.0, abs(guess)), [guess, guess]
    for k in range(60):
        step, moves = h * 2.0 ** k, []
        for side, bound in ((0, lo), (1, hi)):
            new = guess + step if side else guess - step
            if not (new < hi if side else new > lo):     # past the bound
                new = 0.5 * (last[side] + bound)
                if abs(new - bound) < 1e-9 * h:
                    continue
            if lo < new < hi:
                moves.append((side, last[side], new))
                last[side] = new
        if moves:
            yield sorted(moves, key=lambda m: abs(m[1] + m[2] - 2.0 * guess))
        elif guess - step <= lo and guess + step >= hi:
            return


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
    if not (crosses(fa, fb) or crosses(fb, fa)):
        raise ValueError("refine_bracket needs a sign change")
    u, f = (b, fb) if abs(fb) < abs(fa) else (a, fa)
    return _refine(func, u, f, math.nan, a, b, fa, fb, tol_f=tol_f, tol_x=tol_x)


def expand_bracket(func, guess: float, lo: float, hi: float, *, slope):
    """Search outward from ``guess`` for the nearest sign change of ``func``.

    Samples as :func:`_outward` says; of each doubling's new pairs, nearest
    the guess first, the first that :func:`crosses` is ``(a, b, fa, fb)``.
    Failing one, a pair with finite ends whose slope (``slope(u)`` gives f'
    and f'') changes sign holds an extremum, located as a root of the slope
    by :func:`refine_bracket`; where ``func`` changes sign there, the half
    nearest the guess is the pair.  One not located (a pole) is no root.
    """
    def hump(x0, x1, f0, f1):
        if not (math.isfinite(f0) and math.isfinite(f1)):
            return None
        try:
            d0, d1 = slope(x0)[0], slope(x1)[0]
            # a slope that keeps its sign is a ValueError; closer than 1e-9 chases a pole
            xe = refine_bracket(slope, x0, x1, d0, d1, tol_x=1e-9,
                                tol_f=1e-6 * max(abs(d0), abs(d1)))[0]
            fe = func(xe)
        except (ValueError, ToleranceNotMetError, ArithmeticError):
            return None
        return min((x0, xe, f0, fe), (xe, x1, fe, f1),
                   key=lambda p: abs(p[0] + p[1] - 2.0 * guess)) if crosses(f0, fe) else None

    f_end = [func(guess)] * 2    # f at the outermost sample on each side
    for moves in _outward(guess, lo, hi):
        pairs = []
        for side, last, new in moves:
            f_last, f_end[side] = f_end[side], func(new)
            pair = (last, new, f_last, f_end[side]) if side else (new, last, f_end[side], f_last)
            pairs.append((crosses(f_last, f_end[side]), pair))
        # the sign changes first, then the humps; only the new outermost
        # pairs: each older one changes no sign and its hump holds no root
        for crossed, pair in sorted(pairs, key=lambda p: not p[0]):
            if crossed or (pair := hump(*pair)):
                return pair
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
    its ``f`` and slope there, brackets the sign change nearest the guess on
    :func:`_outward`'s samples, both sides in one call, the nearer winning
    (no hump search), then takes Newton steps that bisect out of the bracket,
    to the scalar stopping rule.  Returns ``(x, payload)``, nan where no root is.
    """
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
    f_end = [f_guess, f_guess]      # f at the outermost sample on each side
    for moves in _outward(guess, lo, hi):
        search = np.flatnonzero(np.isnan(a) & ~done)
        if not search.size:
            break
        values = func(np.concatenate([search] * len(moves)),
                      np.repeat([new for _, _, new in moves], search.size))[0]
        for (side, last, new), f_side in zip(moves, values.reshape(len(moves), -1)):
            f_last, f_end[side] = f_end[side], np.full(n, math.nan)
            f_end[side][search] = f_side
            take = np.isnan(a) & crosses(f_last, f_end[side])
            a[take], b[take] = min(last, new), max(last, new)
            fa[take] = (f_last if side else f_end[side])[take]

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
        if crosses(f, f_new):
            crossing = (u, new, f, f_new)
        if abs(f_new) > 0.9 * abs(f):
            break
        u, f, slope = new, f_new, slope_new
    a, b, fa, fb = crossing or expand_bracket(lambda u: func(u)[0], guess, lo, hi,
                                              slope=lambda u: (func(u)[1], jets[u][d3]))
    u = b if abs(fb) < abs(fa) else a
    root, resid, _ = _refine(func, u, *func(u), a, b, fa, fb, tol_f=tol_f)
    return root, jets[root], resid, len(jets)
