"""Bit-identity guard of the scalar Legendre path.

``legendre_at`` then ``curvature_from_f_jet`` on a fixed set of RN and Kerr
``(t, x, guess)`` cases, near and far, is reduced to one sha256 over the hex
of every field, the jets evaluated, the flags, each failure and the
``ConditioningWarning`` count.  Any change to a last bit, to which root a far
guess finds or to how a solve fails shows here.

``OPEN_DIGEST`` covers only the cases whose solve ends in its Halley steps,
never entering the bracket phase (``BRACKETED`` lists the others).  It was
taken while the bracket phase was a secant: a change to the bracket refiner
must leave it as it is.
"""

import hashlib
import math
import random
import warnings

import pytest

from thermocurv import _roots, curvature_from_f_jet, get_entry, legendre_at
from thermocurv.jets import ConditioningWarning, DomainError

DIGEST = "bd6ec335d427d6a37efddaa3179167d471d7d7681073ae98d8d628cff96bab26"
OPEN_DIGEST = "7b0a851bcc26570e4cd39cb83aacbc2857d2e2c3c321741c2d81c5b19a5a14bd"
BRACKETED = frozenset({
    22, 94, 95, 107, 124, 149, 172, 241, 266, 274, 280, 281, 304, 341, 359, 394,
    418, 443, 473, 484, 491, 511, 514, 533, 544, 556, 559, 568, 572, 604, 694})
KERR_LINE = math.sqrt(12.0 + 8.0 * math.sqrt(3.0))   # C_X line S = KERR_LINE * J


def temperature(name: str, s: float, x: float) -> float:
    """M_S in closed form: RN sqrt(S)/2 (1 + Q^2/S), Kerr sqrt(S/4 + J^2/S)."""
    if name == "reissner-nordstrom":
        return (1.0 - x * x / s) / (4.0 * math.sqrt(s))
    return (0.25 - x * x / (s * s)) / (2.0 * math.sqrt(s / 4.0 + x * x / s))


def cases():
    """720 cases: RN and Kerr in turn, guesses within e^+-0.02 of the root
    (near), e^+-1.5 (far) and e^+-4 (farther), on both branches of T(S);
    every tenth far target is raised by 20%, which may lift it past the
    maximum of T(S)."""
    rng = random.Random("legendre-bits")
    out = []
    for k in range(720):
        name = "reissner-nordstrom" if k % 2 == 0 else "kerr"
        if name == "reissner-nordstrom":
            x = rng.uniform(0.2, 1.5)
            t_zero, line = x * x, 3.0 * x * x
        else:
            x = rng.uniform(0.1, 1.0)
            t_zero, line = 2.0 * x, KERR_LINE * x
        if rng.random() < 0.5:
            s0 = line * rng.uniform(1.3, 6.0)
        else:
            s0 = t_zero * rng.uniform(1.1, line / t_zero / 1.3)
        spread = (0.02, 1.5, 4.0)[k % 3]
        t = temperature(name, s0, x) * (1.2 if k % 30 == 4 else 1.0)
        out.append((name, t, x, s0 * math.exp(rng.uniform(-spread, spread))))
    return out


def outcome(spec, t, x, guess) -> str:
    try:
        lp = legendre_at(spec, t, x, guess)
        curv = curvature_from_f_jet(lp)
    except Exception as exc:         # the failure is part of the digest
        return f"{type(exc).__name__}: {exc}"
    floats = (lp.t, lp.x, lp.s_of_tx, lp.f_value, *lp.f_jet, lp.residual,
              curv.r_m, curv.r_f, curv.det_gm, curv.det_gf)
    return " ".join([*(float(v).hex() for v in floats), str(lp.iterations),
                     curv.chart, ",".join(curv.flags)])


def test_scalar_legendre_path_keeps_its_bits(monkeypatch):
    searched = set()             # the cases that call expand_bracket
    expand = _roots.expand_bracket

    def counted(*args, **kwargs):
        searched.add(case)
        return expand(*args, **kwargs)

    monkeypatch.setattr(_roots, "expand_bracket", counted)
    specs = {name: get_entry(name).spec for name in ("reissner-nordstrom", "kerr")}
    lines = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for case, (name, t, x, guess) in enumerate(cases()):
            lines.append(outcome(specs[name], t, x, guess))
    ill = sum(issubclass(w.category, ConditioningWarning) for w in caught)
    lines.append(f"conditioning warnings: {ill}")
    failed = sum(line.split(" ", 1)[0].endswith(":") for line in lines[:-1])
    assert len(searched) >= 20 and 0 < failed < 100 and searched <= BRACKETED
    open_lines = [line for case, line in enumerate(lines[:-1]) if case not in BRACKETED]
    assert hashlib.sha256("\n".join(open_lines).encode()).hexdigest() == OPEN_DIGEST
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


@pytest.mark.parametrize("x, guess, message", [
    (-0.5, 2.0, "domain undefined for value -0.5: Q=-0.5 outside (0.0, inf)"),
    (math.nan, 2.0, "domain undefined for value nan: Q=nan outside (0.0, inf)"),
    (0.5, -2.0, "domain undefined for value -2.0: S=-2.0 outside (0.0, inf)"),
    (0.5, 0.0, "domain undefined for value 0.0: S=0.0 outside (0.0, inf)"),
    (-0.5, -2.0, "domain undefined for value -2.0: S=-2.0 outside (0.0, inf)"),
])
def test_legendre_outside_the_domain_raises_the_domain_error(rn, x, guess, message):
    with pytest.raises(DomainError) as info:
        legendre_at(rn.spec, 0.1, x, guess)
    assert info.value.func == "domain" and str(info.value) == message
