"""Second-order response functions from the potential Hessian.

Everything here comes from implicit-function algebra on the exact jet
Hessian, never from differencing solver output, so the identity checks probe
the mathematics rather than the numerics.

Sign conventions: with the convention dM = T dS + Y dX used throughout, the
susceptibilities and the thermal coefficient are taken as

    alpha   = X^-1 (dX/dT)_Y,
    kappa_T = X^-1 (dX/dY)_T,
    kappa_S = X^-1 (dX/dY)_S,

i.e. without the extra minus sign that fluid-thermodynamics conventions
attach (there Y is minus the pressure, which flips the sign back).  With
these choices all the standard relations hold exactly:

    C_Y - C_X       = T X alpha^2 / kappa_T
    kappa_T-kappa_S = T X alpha^2 / C_Y
    C_X / C_Y       = kappa_S / kappa_T
    det g^M         = T / (X kappa_T C_X) = T / (X kappa_S C_Y)
    det g^F         = -gamma det g^M,   gamma = C_Y / C_X
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (DEFAULT_SINGULARITY_EPS, MetricTensor2, StatePoint,
                       _flag_tokens, _larger, hessian_scale)
from .jets import Jet3, _ipow, _safe_div

__all__ = [
    "ResponseSet", "responses_at", "cap_difference_residual",
    "kappa_difference_residual", "ratio_identity_residual",
    "metric_from_responses", "NotApplicableError",
]


class NotApplicableError(ValueError):
    """A response-based reconstruction was requested at a flagged point."""


@dataclass(frozen=True)
class ResponseSet:
    """Temperature, conjugate variable, the five response functions and the
    heat-capacity ratio at one state point.

    Entries that diverge (or are undefined at X = 0) are reported as +-inf /
    nan together with a flag token.  For a jet of arrays the entries are
    arrays and ``flags`` holds ``(token, mask)`` pairs; points where the
    scalar call would raise get nan responses and ``err:responses``.
    """

    point: StatePoint
    t: float
    y: float
    c_x: float
    c_y: float
    alpha: float
    kappa_t: float
    kappa_s: float
    gamma: float
    flags: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every entry is finite and no flag is set."""
        vals = (self.t, self.y, self.c_x, self.c_y, self.alpha,
                self.kappa_t, self.kappa_s, self.gamma)
        return not self.flags and all(math.isfinite(v) for v in vals)


def responses_at(jet: Jet3, p: StatePoint,
                 eps: float = DEFAULT_SINGULARITY_EPS) -> ResponseSet:
    """All response functions at one point from the potential jet there.

    The Jacobian relations behind each entry:
    (dS/dT)_X = 1/M_SS, (dS/dT)_Y = M_XX/det H, (dX/dT)_Y = -M_SX/det H,
    (dX/dY)_T = M_SS/det H, (dX/dY)_S = 1/M_XX.

    X must be positive for the susceptibilities; at X == 0 the heat
    capacities are still returned and alpha/kappa become nan with an
    ``undef:X`` flag.  Negative X is rejected.
    """
    x = p.x
    t, y = jet.s, jet.x
    mss, msx, mxx = jet.ss, jet.sx, jet.xx
    det_h = mss * mxx - msx * msx
    limit = eps * hessian_scale(jet)
    flat_cx, flat_cy, flat_ks = abs(mss) < limit, abs(det_h) < limit, abs(mxx) < limit
    failed = (x < 0.0) | (flat_cx & flat_cy & flat_ks)
    if not isinstance(failed, np.ndarray):
        if x < 0.0:
            raise ValueError(f"response functions need X >= 0, got X={x!r}")
        if failed:
            raise ValueError(f"Hessian singular in every direction at {p!r}")

    positive = x > 0.0
    c_x = _safe_div(t, mss)
    c_y = _safe_div(t * mxx, det_h)
    gamma = _safe_div(mss * mxx, det_h)
    alpha = _safe_div(-msx, x * det_h)
    kappa_t = _safe_div(mss, x * det_h)
    kappa_s = _safe_div(1.0, x * mxx)
    flags = [("div:CX", flat_cx), ("div:CY", flat_cy), ("div:alpha", flat_cy),
             ("div:kappaT", flat_cy), ("div:kappaS", flat_ks)]
    if isinstance(failed, np.ndarray):
        c_x, c_y, gamma = (np.where(failed, math.nan, v) for v in (c_x, c_y, gamma))
        alpha, kappa_t, kappa_s = (np.where(positive & ~failed, v, math.nan)
                                   for v in (alpha, kappa_t, kappa_s))
        flags = [(token, cond & ~failed) for token, cond in
                 [("undef:X", np.logical_not(positive)), *flags]]
        flags.append(("err:responses", failed))
    else:
        flags.insert(0, ("undef:X", not positive))
        if not positive:
            alpha = kappa_t = kappa_s = math.nan
    flags.append(("neg:T", t <= 0.0))
    return ResponseSet(point=p, t=t, y=y, c_x=c_x, c_y=c_y, alpha=alpha,
                       kappa_t=kappa_t, kappa_s=kappa_s, gamma=gamma,
                       flags=_flag_tokens(*flags))


def _applicable(r: ResponseSet, *values):
    """True (a mask, for arrays) where no entry involved is flagged
    divergent or undefined and all of ``values`` are finite."""
    ok = np.logical_and.reduce([np.isfinite(v) for v in values])
    for flag in r.flags:
        token, mask = (flag, True) if isinstance(flag, str) else flag
        if token.startswith(("div:", "undef:")):
            ok = ok & np.logical_not(mask)
    return ok


def _where_ok(ok, compute):
    """``compute()`` where ``ok`` holds, else nan; a float only if it holds."""
    if isinstance(ok, np.ndarray):
        with np.errstate(all="ignore"):
            return np.where(ok, compute(), math.nan)
    return compute() if ok else math.nan


def cap_difference_residual(r: ResponseSet) -> float:
    """Normalized residual of C_Y - C_X = T X alpha^2 / kappa_T.

    Returns nan when any entry involved is flagged divergent or undefined.
    """
    ok = _applicable(r, r.c_x, r.c_y, r.alpha, r.kappa_t) & (r.kappa_t != 0.0)
    return _where_ok(ok, lambda: (
        r.c_y - r.c_x - r.t * r.point.x * _ipow(r.alpha, 2) / r.kappa_t)
        / _larger(_larger(abs(r.c_x), abs(r.c_y)), 1.0))


def kappa_difference_residual(r: ResponseSet) -> float:
    """Normalized residual of kappa_T - kappa_S = T X alpha^2 / C_Y."""
    ok = _applicable(r, r.kappa_t, r.kappa_s, r.alpha, r.c_y) & (r.c_y != 0.0)
    return _where_ok(ok, lambda: (
        r.kappa_t - r.kappa_s - r.t * r.point.x * _ipow(r.alpha, 2) / r.c_y)
        / _larger(_larger(abs(r.kappa_t), abs(r.kappa_s)), 1.0))


def ratio_identity_residual(r: ResponseSet) -> float:
    """Normalized residual of C_X / C_Y = kappa_S / kappa_T."""
    ok = (_applicable(r, r.c_x, r.c_y, r.kappa_s, r.kappa_t)
          & (r.c_y != 0.0) & (r.kappa_t != 0.0))

    def residual():
        lhs = r.c_x / r.c_y
        return (lhs - r.kappa_s / r.kappa_t) / _larger(abs(lhs), 1.0)
    return _where_ok(ok, residual)


def metric_from_responses(r: ResponseSet) -> MetricTensor2:
    """Rebuild g^M purely from the response set:
    (T/C_X, -T alpha/(C_X kappa_T), C_Y/(X kappa_T C_X)).

    Must agree componentwise with the Hessian construction; raises
    :class:`NotApplicableError` at flagged or degenerate points (for arrays,
    those points get nan components).
    """
    ok = (_applicable(r, r.c_x, r.c_y, r.alpha, r.kappa_t)
          & (r.c_x != 0.0) & (r.kappa_t != 0.0))
    if not isinstance(ok, np.ndarray) and not ok:
        raise NotApplicableError(f"response set not usable for a metric: {r}")
    g = _where_ok(ok, lambda: (r.t / r.c_x,
                               -r.t * r.alpha / (r.c_x * r.kappa_t),
                               r.c_y / (r.point.x * r.kappa_t * r.c_x)))
    return MetricTensor2(*g, chart="SX", kind="M")
