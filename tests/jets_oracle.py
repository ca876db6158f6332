"""An independent oracle of ``potentials.eval_jets``: the point-by-point loop
that evaluated batches of up to 25 points before every batch became one
array pass.

Each point is one scalar ``eval_jet`` on floats, outside any batch: a raise
fails the point with ``DOMAIN`` (a ``DomainError``) or ``OVERFLOW``, and so
does a jet whose evaluated partials are not all finite; a failed point's jet
is nan.  A point whose evaluation gives a ``ConditioningWarning`` counts as
ill-conditioned, and the batch's one warning names their number.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from thermocurv.jets import DOMAIN, OVERFLOW, ConditioningWarning, DomainError
from thermocurv.potentials import eval_jet


def pointwise_jets(spec, s, x, order: int = 3):
    """The jet bits (one ``bytes`` per coefficient), failure codes and
    ``ConditioningWarning`` texts that ``eval_jets(spec, s, x, order)`` gives."""
    points = [(float(a), float(b)) for a, b in np.broadcast(s, x)]
    table = np.full((10, len(points)), math.nan)
    code = np.zeros(len(points), np.int8)
    ill = 0
    for k, point in enumerate(points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                jet = eval_jet(spec, point, order)
            except (DomainError, OverflowError, ZeroDivisionError) as exc:
                code[k] = DOMAIN if isinstance(exc, DomainError) else OVERFLOW
        ill += any(w.category is ConditioningWarning for w in caught)
        if code[k]:
            continue
        if all(math.isfinite(c) for c in jet[:10 if order == 3 else 6]):
            table[:, k] = jet
        else:
            code[k] = OVERFLOW
    texts = [f"division by small values at {ill} points; results may be ill-conditioned"]
    return [row.tobytes() for row in table], code.tolist(), texts if ill else []
