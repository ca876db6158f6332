"""An independent oracle of the flags of ``cli.evaluate_points``: the per-row token
loop that built them before they came from integer bit masks.

Each row takes the ``;``-prefixed token of every ``(token, mask)`` pair of the
curvature flags and then of the response flags whose mask holds there, in that
order; a row with a non-finite cell and no token takes ``overflow:cells``; a point
that failed takes only its ``err:domain`` or ``err:overflow``.
"""

from __future__ import annotations

import numpy as np

from thermocurv import StatePoint, curvature_from_m_jet, responses_at
from thermocurv.geometry import DEFAULT_SINGULARITY_EPS
from thermocurv.jets import DOMAIN, OVERFLOW
from thermocurv.potentials import eval_jets


def flag_strings(spec, s, x, eps: float = DEFAULT_SINGULARITY_EPS) -> list[str]:
    """The flag string of each point ``(s[k], x[k])``, one Python string per row."""
    s = np.asarray(s, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    jet, code = eval_jets(spec, s, x)
    with np.errstate(all="ignore"):
        curv = curvature_from_m_jet(jet, eps)
        rs = responses_at(jet, StatePoint(s, x), eps)
    failed = code != 0
    values = [jet.s, jet.x, jet.ss, jet.sx, jet.xx, curv.det_gm, curv.det_gf, curv.r_m,
              curv.r_f, rs.c_x, rs.c_y, rs.alpha, rs.kappa_t, rs.kappa_s, rs.gamma]
    cells = [s, x, *(np.where(failed, np.nan, v) for v in values)]
    tokens = np.full(s.size, "", dtype=object)
    for token, mask in (*curv.flags, *rs.flags):
        tokens[mask & ~failed] += ";" + token
    finite = np.logical_and.reduce([np.isfinite(v) for v in cells])
    tokens[~finite & (tokens == "")] = ";overflow:cells"
    tokens[code == DOMAIN] = ";err:domain"
    tokens[code == OVERFLOW] = ";err:overflow"
    return [t[1:] for t in tokens.tolist()]
