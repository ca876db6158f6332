"""Built-in potentials with closed-form reference curvatures.

Each entry pairs a parsed potential with independently known reference
expressions for both curvature scalars and for the divergence function whose
zero set is the constant-X heat-capacity line.  The references are
transcribed literally; golden tests compare the computed pipeline against
them and any disagreement is surfaced, never reconciled in place.  They take
floats or arrays: ``np.float_power`` rounds as ``**`` on floats, numpy's may not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import PotentialSpec, is_cached, parse_potential, potential_to_json

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
    spec: PotentialSpec
    reference_rm: Callable[[float, float], float]
    reference_rf: Callable[[float, float], float]
    reference_f: Callable[[float, float], float]
    notes: str
    # in_domain guards the physically sensible region (positive temperature)
    in_domain: Callable[[float, float], bool]
    default_grid: tuple[GridAxis, GridAxis]

    def to_json(self) -> dict:
        return potential_to_json(self.spec)


def _rn() -> CatalogEntry:
    spec = parse_potential(
        "sqrt(S)/2 * (1 + Q^2/S)", ("S", "Q"), name="reissner-nordstrom")

    def rm(s, q):
        return 2.0 * np.float_power(s, 1.5) / np.float_power(s - q * q, 2)

    def rf(s, q):
        return 4.0 * np.float_power(s, 1.5) / np.float_power(s - 3.0 * q * q, 2)

    def f(s, q):
        return s - 3.0 * q * q

    return CatalogEntry(
        spec=spec, reference_rm=rm, reference_rf=rf, reference_f=f,
        notes=("four-dimensional charged black hole; mass potential "
               "sqrt(S)/2 (1 + Q^2/S); heat-capacity line at S = 3 Q^2"),
        in_domain=lambda s, q: s > q * q,
        default_grid=(GridAxis(0.5, 10.0, 12, "log"),
                      GridAxis(0.05, 0.45, 12, "log")),
    )


def _kerr() -> CatalogEntry:
    spec = parse_potential("sqrt(S/4 + J^2/S)", ("S", "J"), name="kerr")

    def f(s, j):
        return np.float_power(s, 4) - 24.0 * s * s * j * j - 48.0 * np.float_power(j, 4)

    def rm(s, j):
        return 0.0

    def rf(s, j):
        return (18.0 * np.float_power(s * s + 4.0 * j * j, 3.5) * (s * s - 4.0 * j * j)
                / (np.float_power(s, 1.5) * np.float_power(f(s, j), 2)))

    return CatalogEntry(
        spec=spec, reference_rm=rm, reference_rf=rf, reference_f=f,
        notes=("four-dimensional rotating black hole; mass potential "
               "sqrt(S/4 + J^2/S); flat mass-Hessian geometry"),
        in_domain=lambda s, j: s > 2.0 * j,
        default_grid=(GridAxis(1.0, 10.0, 12, "log"),
                      GridAxis(0.05, 0.45, 12, "log")),
    )


def _quadratic() -> CatalogEntry:
    spec = parse_potential("S^2/2 + X^2/2", ("S", "X"), name="quadratic-toy")
    return CatalogEntry(
        spec=spec,
        reference_rm=lambda s, x: 0.0,
        reference_rf=lambda s, x: 0.0,
        reference_f=lambda s, x: 1.0,   # M_SS == 1: no divergence line
        notes="flat toy potential with identity Hessian",
        in_domain=lambda s, x: True,
        default_grid=(GridAxis(0.5, 4.0, 8, "linear"),
                      GridAxis(0.5, 4.0, 8, "linear")),
    )


_BUILDERS = {
    "reissner-nordstrom": _rn,
    "kerr": _kerr,
    "quadratic-toy": _quadratic,
}
_ENTRIES: dict[str, CatalogEntry] = {}   # built once, and again once the code cache drops its code


def entry_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_entry(name: str) -> CatalogEntry:
    entry = _ENTRIES.get(name)
    if entry is None or not is_cached(entry.spec):
        if name not in _BUILDERS:
            raise UnknownPotentialError(
                f"unknown potential {name!r}; known: {', '.join(entry_names())}")
        entry = _ENTRIES[name] = _BUILDERS[name]()
    return entry
