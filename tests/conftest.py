import numpy as np
import pytest

from thermocurv import eval_scalar, get_entry, parse_potential


@pytest.fixture(autouse=True)
def _default_eps(monkeypatch):
    """Every test starts without THERMOCURV_EPS, whatever the caller's
    environment; a test that needs the variable sets it with monkeypatch."""
    monkeypatch.delenv("THERMOCURV_EPS", raising=False)


@pytest.fixture(scope="session")
def rn():
    return get_entry("reissner-nordstrom")


@pytest.fixture(scope="session")
def kerr():
    return get_entry("kerr")


@pytest.fixture(scope="session")
def quad():
    return get_entry("quadratic-toy")


def closed_form(entry, field: str):
    """The catalog entry's closed form ``field`` (``reference_rm``, ``usable``, ...)
    as a function of ``(s, x)``: ``eval_scalar`` of its expression, parsed as
    ``check`` parses it, on the potential's coordinates and domain."""
    spec = entry.spec
    form = parse_potential(getattr(entry, field), spec.coords, spec.params,
                           name=field, domain=spec.domain)
    return lambda s, x: eval_scalar(form, (s, x))


@pytest.fixture(scope="session")
def cy_toy():
    # Synthetic potential (not a physical black hole) with an interior
    # constant-Y divergence line: det H = 1 + S - X^2 crosses zero at
    # X = sqrt(1 + S) while M_SS = 1 stays regular.
    return parse_potential("S^2/2 + X^2/2 + S*X^2/2", ("S", "X"), name="cy-toy")


def sample_rn(rng: np.random.Generator, n: int):
    """Well-conditioned RN points: positive temperature, away from the
    divergence line (f = S - 3 Q^2 >= 0.19 S)."""
    out = []
    for _ in range(n):
        s = float(np.exp(rng.uniform(np.log(0.5), np.log(10.0))))
        q = float(rng.uniform(0.1, 0.8 * np.sqrt(s / 3.0)))
        out.append((s, q))
    return out


def sample_kerr(rng: np.random.Generator, n: int):
    """Well-conditioned Kerr points: S > 7 J keeps f > 0.49 S^4 and T > 0."""
    out = []
    for _ in range(n):
        s = float(np.exp(rng.uniform(np.log(1.0), np.log(10.0))))
        j = float(rng.uniform(0.05, s / 7.0))
        out.append((s, j))
    return out


def sample_quad(rng: np.random.Generator, n: int):
    return [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            for _ in range(n)]
