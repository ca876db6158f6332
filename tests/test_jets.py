import math
import zlib

import numpy as np
import pytest

from fdtools import fd_partials
from thermocurv import jet_const, jet_var
from thermocurv.jets import (ConditioningWarning, DomainError, Jet3, exp, ln,
                             power, sqrt)


def close_jets(a: Jet3, b: Jet3, tol: float) -> bool:
    return all(abs(u - w) <= tol * max(1.0, abs(u), abs(w))
               for u, w in zip(a.coeffs(), b.coeffs()))


def assert_jet_matches_fd(jet: Jet3, fd, tol: float = 1e-5) -> None:
    """Coefficient-wise comparison against differencing, relative to the
    larger of the coefficient and its derivative-order scale (differencing
    cannot resolve a tiny mixed partial of a large function any better than
    that; third differences are additionally floored by eps*|f|/h^3)."""
    coeffs = jet.coeffs()
    for lo, hi in ((0, 1), (1, 3), (3, 6), (6, 10)):
        scale = max(1.0, *(abs(c) for c in coeffs[lo:hi]))
        if lo == 6:
            scale = max(scale, abs(coeffs[0]))
        for k in range(lo, hi):
            assert abs(coeffs[k] - fd[k]) <= tol * max(scale, abs(fd[k])), \
                f"coefficient {k}: jet {coeffs[k]!r} vs fd {fd[k]!r}"


def test_variable_seeds():
    s = jet_var(0, 2.0)
    assert s.v == 2.0 and s.d1 == (1.0, 0.0)
    assert s.d2 == (0.0, 0.0, 0.0) and s.d3 == (0.0, 0.0, 0.0, 0.0)
    x = jet_var(1, 0.5)
    assert x.v == 0.5 and x.d1 == (0.0, 1.0)
    neg = jet_var(0, -1.0)
    assert neg.v == -1.0 and neg.d1 == (1.0, 0.0)
    with pytest.raises(ValueError):
        jet_var(2, 1.0)


def test_constant_arithmetic():
    assert (jet_const(3.0) + jet_const(4.0)).v == 7.0
    assert (jet_const(3.0) + jet_const(4.0)).coeffs()[1:] == (0.0,) * 9


def test_square_of_variable():
    s = jet_var(0, 2.0)
    sq = s * s
    assert sq.v == 4.0
    assert sq.s == 4.0          # d/ds s^2 = 2s
    assert sq.ss == 2.0
    assert sq.sss == 0.0


def test_reciprocal_of_variable():
    # frozen analytic values for 1/x at x = 2: -1/x^2, 2/x^3, -6/x^4
    inv = 1.0 / jet_var(1, 2.0)
    assert inv.v == pytest.approx(0.5, abs=1e-15)
    assert inv.x == pytest.approx(-0.25, abs=1e-15)
    assert inv.xx == pytest.approx(0.25, abs=1e-15)
    assert inv.xxx == pytest.approx(-0.375, abs=1e-15)
    # cross-check against central differences of the scalar function
    assert_jet_matches_fd(inv, fd_partials(lambda s, x: 1.0 / x, 1.0, 2.0))


def test_sqrt_of_variable():
    r = sqrt(jet_var(0, 4.0))
    assert r.v == 2.0
    assert r.s == pytest.approx(0.25, abs=1e-15)
    assert r.ss == pytest.approx(-1.0 / 32.0, abs=1e-15)
    assert r.sss == pytest.approx(3.0 / 256.0, abs=1e-15)
    assert_jet_matches_fd(r, fd_partials(lambda s, x: math.sqrt(s), 4.0, 1.0))
    assert sqrt(jet_const(4.0)).coeffs() == jet_const(2.0).coeffs()


def test_elementary_domain_errors():
    with pytest.raises(DomainError):
        ln(jet_const(0.0))
    with pytest.raises(DomainError):
        ln(jet_const(-1.0))
    with pytest.raises(DomainError):
        sqrt(jet_const(-4.0))
    with pytest.raises(DomainError):
        power(jet_const(-2.0), 0.5)
    err = pytest.raises(DomainError, ln, jet_const(0.0)).value
    assert err.func == "ln" and err.value == 0.0


def test_division_floor_and_conditioning_warning():
    with pytest.raises(DomainError):
        jet_const(1.0) / jet_const(0.0)
    with pytest.warns(ConditioningWarning):
        jet_const(1.0) / jet_const(1e-13)


def test_integer_power_negative_base():
    p = power(jet_var(0, -2.0), 3)
    assert p.v == -8.0
    assert p.s == 12.0          # 3 s^2 at s = -2
    assert p.ss == -12.0        # 6 s
    assert p.sss == 6.0
    assert power(jet_const(-2.0), 2).v == 4.0
    assert power(-2.0, 3) == -8.0


def test_fractional_power():
    p = power(jet_var(0, 2.0), 2.5)
    assert_jet_matches_fd(p, fd_partials(lambda s, x: s ** 2.5, 2.0, 1.0))


# composite expressions for the derivative property check; each is written
# against the dispatching helpers so the same lambda runs on floats and jets
EXPRESSIONS = [
    ("rational", lambda s, x: (s * s * x + 3.0 * x) / (x + s * x * x)),
    ("sqrt-exp", lambda s, x: sqrt(s * x + 1.0) * exp(x / (s + 2.0))),
    ("log-mix", lambda s, x: ln(s + x * x) + power(s, -2) * x),
    ("pow-mix", lambda s, x: power(s + x, 2.5) - s / x),
    ("mass-like", lambda s, x: sqrt(s) / 2.0 * (1.0 + x * x / s)),
]


@pytest.mark.parametrize("name,fn", EXPRESSIONS, ids=[e[0] for e in EXPRESSIONS])
def test_jet_coefficients_match_finite_differences(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(3):
        s0 = float(rng.uniform(0.7, 2.2))
        x0 = float(rng.uniform(0.7, 2.2))
        jet = fn(jet_var(0, s0), jet_var(1, x0))
        assert_jet_matches_fd(jet, fd_partials(fn, s0, x0))


def random_jet(rng) -> Jet3:
    coeffs = rng.uniform(-2.0, 2.0, size=10)
    if abs(coeffs[0]) < 0.2:    # keep values usable as divisors
        coeffs[0] = 0.2 * (1 if coeffs[0] >= 0 else -1)
    return Jet3(*coeffs)


def test_multiplication_commutes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_jet(rng), random_jet(rng)
        assert (a * b).coeffs() == (b * a).coeffs()  # bit-exact by grouping


def test_multiplicative_inverse():
    # 1e-12 holds for unit-scale jets; conditioning grows as (coeff/v)^3,
    # so tiny values with O(1) derivative coefficients cannot meet it in
    # double precision no matter the implementation.
    rng = np.random.default_rng(8)
    one = jet_const(1.0)
    for _ in range(50):
        a = random_jet(rng)
        value = float(rng.uniform(0.5, 2.5)) * (1 if rng.uniform() < 0.5 else -1)
        a = Jet3(value, *a.coeffs()[1:])
        assert close_jets(a * (one / a), one, 1e-12)


def test_exp_ln_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = random_jet(rng)
        value = float(rng.uniform(0.1, 10.0))
        a = Jet3(value, *a.coeffs()[1:])
        assert close_jets(exp(ln(a)), a, 1e-10)


def test_scalar_coercion():
    s = jet_var(0, 3.0)
    assert (2.0 + s).v == 5.0
    assert (2.0 * s).s == 2.0
    assert (s - 1).v == 2.0
    assert (1 - s).v == -2.0
    assert (6.0 / s).v == 2.0
    assert (s ** 2).v == 9.0


def test_jet_is_an_immutable_named_tuple():
    jet = jet_var(0, 2.0)
    with pytest.raises(AttributeError):
        jet.v = 3.0
    assert jet.coeffs() == tuple(jet) and len(jet) == 10
    # numpy scalars defer to the jet arithmetic instead of broadcasting
    scaled = np.float64(2.0) * jet
    assert isinstance(scaled, Jet3) and scaled.coeffs() == (4.0, 2.0) + (0.0,) * 8
