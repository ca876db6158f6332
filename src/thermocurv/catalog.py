"""Built-in potentials with closed-form reference curvatures.

Each entry pairs a parsed potential with independently known reference
expressions for both curvature scalars and for the divergence function whose
zero set is the constant-X heat-capacity line.  The references are
written in the potential's grammar and coordinates, and ``check`` runs them
as it runs a ``--ref-rm``/``--ref-rf`` expression, with the potential's
domain; golden tests compare the computed pipeline against them and any
disagreement is surfaced, never reconciled in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialSpec, parse_potential, potential_to_json

__all__ = ["CatalogEntry", "GridAxis", "get_entry", "entry_names",
           "UnknownPotentialError"]


class UnknownPotentialError(KeyError):
    pass


@dataclass(frozen=True)
class GridAxis:
    """The one axis of every grid and sweep: ``count`` samples ``lo + k*step``
    (linear) or ``lo * ratio**k`` (log), the last within rounding of ``hi``.
    It is checked when built, and its bounds and samples must be finite."""

    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be linear or log, got {self.spacing!r}")
        if self.count < 1:
            raise ValueError(f"an axis needs at least 1 sample, got {self.count}")
        if self.spacing == "log" and not self.lo > 0.0:
            raise ValueError(f"log spacing needs lo > 0, got {self.lo}")
        k = self.count - 1
        with np.errstate(over="ignore"):    # values() rises, so its last sample bounds all
            last = self._samples(k)
        if not all(map(math.isfinite, (self.lo, self.hi, last if k else self.lo))):
            raise ValueError("axis bounds and samples must be finite, got "
                             f"{self.lo}:{self.hi}:{self.count}")
        if k and not self.lo < self.hi:
            raise ValueError(f"an axis needs lo < hi, got {self.lo} >= {self.hi}")

    def _samples(self, k):
        """Samples ``k`` (an int or an int array) of an axis of two or more."""
        lo, hi, n = self.lo, self.hi, max(self.count - 1, 1)
        if self.spacing == "log":
            return lo * np.float_power((hi / lo) ** (1.0 / n), k)
        return lo + (hi - lo) / n * k

    def values(self) -> np.ndarray:
        """The samples as a new float array, ``lo`` first."""
        if self.count == 1:
            return np.array([float(self.lo)])
        return self._samples(np.arange(self.count))


@dataclass(frozen=True)
class CatalogEntry:
    """A potential and its closed forms, each an expression in the potential's
    coordinates: the curvatures ``reference_rm`` and ``reference_rf``, the
    divergence function ``reference_f`` and ``usable``, which is positive in the
    physical region (positive temperature)."""

    spec: PotentialSpec
    reference_rm: str
    reference_rf: str
    reference_f: str
    usable: str
    notes: str
    default_grid: tuple[GridAxis, GridAxis]

    def to_json(self) -> dict:
        return potential_to_json(self.spec)


# name: (potential, coordinates, R^M, R^F, f, usable, notes, default grid)
_TABLE = {
    "reissner-nordstrom": (
        "sqrt(S)/2 * (1 + Q^2/S)", ("S", "Q"),
        "2*S^1.5/(S - Q^2)^2", "4*S^1.5/(S - 3*Q*Q)^2", "S - 3*Q*Q", "S - Q^2",
        "four-dimensional charged black hole; mass potential "
        "sqrt(S)/2 (1 + Q^2/S); heat-capacity line at S = 3 Q^2",
        (GridAxis(0.5, 10.0, 12, "log"), GridAxis(0.05, 0.45, 12, "log"))),
    "kerr": (
        "sqrt(S/4 + J^2/S)", ("S", "J"),
        "0", "18*(S*S + 4*J*J)^3.5*(S*S - 4*J*J)"
             "/(S^1.5*(S^4 - 24*S*S*J*J - 48*J^4)^2)",
        "S^4 - 24*S*S*J*J - 48*J^4", "S - 2*J",
        "four-dimensional rotating black hole; mass potential "
        "sqrt(S/4 + J^2/S); flat mass-Hessian geometry",
        (GridAxis(1.0, 10.0, 12, "log"), GridAxis(0.05, 0.45, 12, "log"))),
    "quadratic-toy": (                  # M_SS == 1: no divergence line
        "S^2/2 + X^2/2", ("S", "X"), "0", "0", "1", "1",
        "flat toy potential with identity Hessian",
        (GridAxis(0.5, 4.0, 8, "linear"), GridAxis(0.5, 4.0, 8, "linear"))),
}


def entry_names() -> tuple[str, ...]:
    return tuple(sorted(_TABLE))


@functools.cache     # one entry per name of the table
def get_entry(name: str) -> CatalogEntry:
    if name not in _TABLE:
        raise UnknownPotentialError(
            f"unknown potential {name!r}; known: {', '.join(entry_names())}")
    expression, coords, *fields = _TABLE[name]
    return CatalogEntry(parse_potential(expression, coords, name=name), *fields)
