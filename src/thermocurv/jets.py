"""Forward-mode jets: exact values and partial derivatives to third order
in two independent variables.

A :class:`Jet3` carries the ten Taylor coefficients of a scalar quantity at
a point (value, two first partials, three second partials, four third
partials).  Arithmetic on jets propagates all coefficients exactly through
the truncated Leibniz / chain rules, so an expression built from jets yields
machine-precision derivatives with no differencing.

The coefficients may be floats or equal-length numpy arrays (Griewank &
Walther, *Evaluating Derivatives*, ch. 13).  Inside :func:`batch`, arrays
record the points that fail a check where a float raises, and round exactly
as floats do: numpy's ``+ - * / sqrt`` round correctly, ``np.float_power`` is
libm's ``pow`` per element, and ``exp`` and ``ln`` call ``math`` per element.

A potential is not evaluated through this arithmetic: it is traced through
it once into straight-line code (see the end of this module), so the rules
below are written once and the generated code inherits their order of
operations.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

# Raw division floor: below this the quotient is treated as a true
# singularity.  The conditioning floor only triggers a warning, so callers
# can tell a genuine pole from a division that merely lost digits.
DIVISION_FLOOR = 1e-300
CONDITIONING_FLOOR = 1e-12

# Exponents up to this size are expanded by repeated multiplication; this
# keeps integer powers of negative bases exact.
_MAX_INT_POW = 100

# Operations the generated code of one potential may hold; a larger one
# raises ValueError while it is traced, so it fails on load.
_MAX_TRACE_OPS = 100_000


class DomainError(ValueError):
    """An elementary function was evaluated outside its domain."""

    def __init__(self, func: str, value, detail: str = ""):
        self.func = func
        self.value = value
        msg = f"{func} undefined for value {value!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ConditioningWarning(UserWarning):
    """Division by a value small enough to amplify rounding error."""


# Per-point failure codes of a batch.
DOMAIN, OVERFLOW = 1, 2


class Failures:
    """Per point of a batch: first failure code (0: none), ill-conditioning."""

    def __init__(self, n: int):
        self.code = np.zeros(n, np.int8)
        self.ill_conditioned = np.zeros(n, bool)

    def record(self, code: int, mask) -> None:
        if mask is True or mask.any():      # most batches fail no point
            self.code[(self.code == 0) & mask] = code


_BATCH: ContextVar[Failures | None] = ContextVar("thermocurv_batch", default=None)
_ILL_TOTAL: ContextVar[list[int] | None] = ContextVar("thermocurv_ill", default=None)


@contextmanager
def one_warning():
    """One :class:`ConditioningWarning`, at the end, for the points the batches
    inside add to the yielded total; inside another, adds to that one's total."""
    outer = _ILL_TOTAL.get()
    token = _ILL_TOTAL.set(total := [0])
    try:
        yield total
    finally:
        _ILL_TOTAL.reset(token)
    if outer is not None:
        outer[0] += total[0]
    elif total[0]:
        warnings.warn(f"division by small values at {total[0]} points; results may "
                      "be ill-conditioned", ConditioningWarning, stacklevel=3)


@contextmanager
def batch(n: int):
    """Evaluate arrays of ``n`` points; yields their :class:`Failures`.

    A float sub-expression that raises fails every point not failed yet and
    ends the block, and an ill-conditioned float division marks them.  The
    batch gives one :class:`ConditioningWarning` for its ill-conditioned points.
    """
    failures = Failures(n)
    token = _BATCH.set(failures)
    with one_warning() as ill:
        try:
            with np.errstate(all="ignore"):
                yield failures
        except (DomainError, OverflowError, ZeroDivisionError) as exc:
            failures.record(DOMAIN if isinstance(exc, DomainError) else OVERFLOW, True)
        finally:
            _BATCH.reset(token)
        ill[0] = int(np.count_nonzero(failures.ill_conditioned))


def _failures() -> Failures:
    failures = _BATCH.get()
    if failures is None:
        raise RuntimeError("array jets must be evaluated inside jets.batch()")
    return failures


def _checked(value, bad, func: str, detail: str = ""):
    """``value`` after a domain check that ``bad`` failed: a float raises
    :class:`DomainError`, failed array points are recorded and set to 1.0."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return value
        _failures().record(DOMAIN, bad)
        return np.where(bad, 1.0, value)
    if bad:
        raise DomainError(func, value, detail)
    return value


def _apply(fn, value):
    """``fn(value)`` with Python floats, element by element for an array;
    array elements that overflow become nan and fail their point."""
    if not isinstance(value, np.ndarray):
        return fn(value)
    items = value.tolist()
    try:
        return np.fromiter(map(fn, items), float, len(items))
    except OverflowError:
        if _BATCH.get() is None:
            raise
    out = np.empty(len(items))
    for k, v in enumerate(items):
        try:
            out[k] = fn(v)
        except OverflowError:
            out[k] = math.nan
    _failures().record(OVERFLOW, np.isnan(out) & ~np.isnan(value))
    return out


def _pow(fn, value, p):
    """``fn(value, p)``; on an array libm's ``pow`` per element, rounding as ``fn``
    does (``np.power`` may not).  Overflows fail their point, or raise outside a batch."""
    if not isinstance(value, np.ndarray):
        return fn(value, p)
    with np.errstate(over="ignore"):
        out = np.float_power(value, p)
    over = np.isinf(out)
    if over.any() and (over := over & np.isfinite(value) & math.isfinite(p)).any():
        if _BATCH.get() is None:
            raise OverflowError("math range error")
        out[over] = math.nan
        _failures().record(OVERFLOW, over)
    return out


# Helpers the generated code calls (see "run-time helpers" below), with the
# number of values each returns.
_RUNTIME: dict = {}


def _runtime(outputs: int):
    def register(fn):
        _RUNTIME[fn] = outputs
        return fn
    return register


@_runtime(1)
def _ipow(value, n: int):
    return value ** n if value.__class__ is float else _pow(pow, value, n)


def _safe_div(num, den):
    """num / den for floats or arrays; 0/0 is nan and x/0 is inf with the
    sign of x, whatever the sign of the zero."""
    if num.__class__ is float and den.__class__ is float and den != 0.0:
        return num / den
    if isinstance(num, np.ndarray) or isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den == 0.0,
                            np.where(num == 0.0, math.nan, np.copysign(math.inf, num)),
                            num / den)
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


class Jet3(NamedTuple):
    """Truncated third-order Taylor expansion in the variables (s, x).

    Coefficients are plain partial derivatives (not divided by factorials).
    Mixed partials are stored once; symmetry is structural.
    """

    v: float
    s: float = 0.0
    x: float = 0.0
    ss: float = 0.0
    sx: float = 0.0
    xx: float = 0.0
    sss: float = 0.0
    ssx: float = 0.0
    sxx: float = 0.0
    xxx: float = 0.0

    __array_ufunc__ = None  # numpy scalars defer to the jet arithmetic

    @property
    def d1(self) -> tuple[float, float]:
        return (self.s, self.x)

    @property
    def d2(self) -> tuple[float, float, float]:
        return (self.ss, self.sx, self.xx)

    @property
    def d3(self) -> tuple[float, float, float, float]:
        return (self.sss, self.ssx, self.sxx, self.xxx)

    def coeffs(self) -> tuple[float, ...]:
        """All ten coefficients in storage order."""
        return tuple(self)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Jet3(*(a + b for a, b in zip(self, o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Jet3(*(a - b for a, b in zip(self, o)))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet3(*(-a for a in self))

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        # Leibniz rule through third order; terms are grouped in pairs that
        # swap into each other, which makes the product commute bit-exactly.
        return Jet3(
            a.v * b.v,
            a.s * b.v + a.v * b.s,
            a.x * b.v + a.v * b.x,
            (a.ss * b.v + a.v * b.ss) + 2.0 * (a.s * b.s),
            (a.sx * b.v + a.v * b.sx) + (a.s * b.x + a.x * b.s),
            (a.xx * b.v + a.v * b.xx) + 2.0 * (a.x * b.x),
            (a.sss * b.v + a.v * b.sss) + 3.0 * (a.ss * b.s + a.s * b.ss),
            ((a.ssx * b.v + a.v * b.ssx) + (a.ss * b.x + a.x * b.ss)
             + 2.0 * (a.sx * b.s + a.s * b.sx)),
            ((a.sxx * b.v + a.v * b.sxx) + (a.xx * b.s + a.s * b.xx)
             + 2.0 * (a.sx * b.x + a.x * b.sx)),
            (a.xxx * b.v + a.v * b.xxx) + 3.0 * (a.xx * b.x + a.x * b.xx),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * _reciprocal(self)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            return power(self, exponent)
        return NotImplemented


def _coerce(value) -> Jet3 | None:
    if isinstance(value, Jet3):
        return value
    if isinstance(value, (int, float)):
        return Jet3(float(value))
    return None


def jet_var(index: int, value) -> Jet3:
    """Seed jet for one of the two independent variables (0 = s, 1 = x)."""
    value = value if isinstance(value, np.ndarray) else float(value)
    if index == 0:
        return Jet3(value, s=1.0)
    if index == 1:
        return Jet3(value, x=1.0)
    raise ValueError(f"variable index must be 0 or 1, got {index}")


def jet_const(value: float) -> Jet3:
    """Constant jet: all derivative coefficients zero."""
    return Jet3(float(value))


def _compose(u: Jet3, c0: float, c1: float, c2: float, c3: float) -> Jet3:
    """Univariate chain rule to third order.

    ``c0..c3`` are the derivatives of the outer function at ``u.v``.
    """
    us, ux = u.s, u.x
    return Jet3(
        c0,
        c1 * us,
        c1 * ux,
        c2 * us * us + c1 * u.ss,
        c2 * us * ux + c1 * u.sx,
        c2 * ux * ux + c1 * u.xx,
        c3 * _ipow(us, 3) + 3.0 * c2 * us * u.ss + c1 * u.sss,
        c3 * us * us * ux + c2 * (2.0 * us * u.sx + ux * u.ss) + c1 * u.ssx,
        c3 * us * ux * ux + c2 * (2.0 * ux * u.sx + us * u.xx) + c1 * u.sxx,
        c3 * _ipow(ux, 3) + 3.0 * c2 * ux * u.xx + c1 * u.xxx,
    )


# -- run-time helpers ----------------------------------------------------------
#
# Everything that looks at a value (domain checks, warnings, element-wise
# rounding) lives in a helper called through _outer; the jet rules around
# them are plain arithmetic.  The elementary functions below are
# ``_compose(u, *<outer derivatives at u.v>)`` for jets and the value helper
# for scalars.

_TRACE: ContextVar["_Trace | None"] = ContextVar("thermocurv_trace", default=None)


def _outer(fn, *args):
    """``fn(*args)``, or its call recorded while a potential is traced."""
    trace = _TRACE.get()
    return fn(*args) if trace is None else trace.call(fn, args)


@_runtime(1)
def _divisor(v):
    """A divisor, checked against the division floor."""
    return _checked(v, abs(v) < DIVISION_FLOOR, "div",
                    "division by (near-)zero value")


@_runtime(4)
def _recip_outer(v):
    """1/u and its derivatives -1/u^2, 2/u^3, -6/u^4 at ``v``."""
    if v.__class__ is float and abs(v) >= CONDITIONING_FLOOR:   # nothing to check
        inv = 1.0 / v
        return inv, -inv * inv, 2.0 * inv ** 3, -6.0 * inv ** 4
    v = _divisor(v)
    small = abs(v) < CONDITIONING_FLOOR
    array = isinstance(small, np.ndarray)
    if (small.any() if array else small and _BATCH.get() is not None):
        failures = _failures()      # a float marks every point still live
        failures.ill_conditioned |= small & (failures.code == 0)
    elif not array and small:
        warnings.warn(f"division by small value {v!r}; results may be ill-conditioned",
                      ConditioningWarning, stacklevel=3)
    inv = 1.0 / v
    return inv, -inv * inv, 2.0 * _ipow(inv, 3), -6.0 * _ipow(inv, 4)


def _reciprocal(u: Jet3) -> Jet3:
    return _compose(u, *_outer(_recip_outer, u.v))


@_runtime(4)
def _sqrt_outer(v):
    if not (v.__class__ is float and v > 0.0):      # else nothing to check
        v = _checked(v, v <= 0.0, "sqrt")
    if isinstance(v, np.ndarray):
        r = np.sqrt(v)
        # fail the points where the float path divides by zero below
        _failures().record(OVERFLOW, r * v * v == 0.0)
    else:
        r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)


@_runtime(1)
def _sqrt_value(u):
    u = _checked(u, u < 0.0, "sqrt")
    return np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u)


def sqrt(u):
    """Square root of a jet or scalar (strictly positive value for jets)."""
    if isinstance(u, Jet3):
        return _compose(u, *_outer(_sqrt_outer, u.v))
    return _outer(_sqrt_value, u)


@_runtime(4)
def _exp_outer(v):
    e = _apply(math.exp, v)
    return e, e, e, e


def exp(u):
    if isinstance(u, Jet3):
        return _compose(u, *_outer(_exp_outer, u.v))
    return _outer(_exp_outer, u)[0]


@_runtime(4)
def _ln_outer(v):
    v = _checked(v, v <= 0.0, "ln")
    inv = 1.0 / v
    return _apply(math.log, v), inv, -inv * inv, 2.0 * _ipow(inv, 3)


@_runtime(1)
def _ln_value(u):
    return _apply(math.log, _checked(u, u <= 0.0, "ln"))


def ln(u):
    """Natural logarithm (value must be strictly positive)."""
    if isinstance(u, Jet3):
        return _compose(u, *_outer(_ln_outer, u.v))
    return _outer(_ln_value, u)


@_runtime(1)
def _inverse_base(base):
    return 1.0 / _checked(base, abs(base) < DIVISION_FLOOR, "pow",
                          "zero base with negative exponent")


def _int_pow(u, n: int):
    """Repeated-multiplication power; exact for integer exponents."""
    if n == 0:
        return jet_const(1.0) if isinstance(u, Jet3) else 1.0
    if n < 0:
        base = _int_pow(u, -n)
        if isinstance(base, Jet3):
            return _reciprocal(base)
        return _outer(_inverse_base, base)
    result = None
    square = u
    while n:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if n:
            square = square * square
    return result


def _positive_base(v, p):
    return _checked(v, v <= 0.0, "pow",
                    f"non-integer exponent {p!r} needs a positive base")


@_runtime(4)
def _pow_outer(v, p):
    v = _positive_base(v, p)
    return (_pow(math.pow, v, p),
            p * _pow(math.pow, v, p - 1.0),
            p * (p - 1.0) * _pow(math.pow, v, p - 2.0),
            p * (p - 1.0) * (p - 2.0) * _pow(math.pow, v, p - 3.0))


@_runtime(1)
def _pow_value(v, p):
    return _pow(math.pow, _positive_base(v, p), p)


def power(u, p):
    """u**p for constant exponent p.

    Integer exponents (up to +-100) use repeated multiplication, which stays
    exact for negative bases; anything else needs a positive base.
    """
    if isinstance(p, float) and p.is_integer() and abs(p) <= _MAX_INT_POW:
        p = int(p)
    if isinstance(p, int) and abs(p) <= _MAX_INT_POW:
        return _int_pow(u, p)
    if isinstance(u, Jet3):
        return _compose(u, *_outer(_pow_outer, u.v, p))
    return _outer(_pow_value, u, p)


# -- tracing -------------------------------------------------------------------
#
# A potential is traced once through the rules above with symbolic values
# (Griewank & Walther, ch. 7): a _Symbol stands for a value known only at
# run time, constants stay floats and fold, and the record is straight-line
# code over local names that runs on floats and on arrays alike.

class _Symbol:
    __slots__ = ("trace", "name")

    def __init__(self, trace: "_Trace", name: str):
        self.trace, self.name = trace, name

    def __neg__(self):
        return self.trace.emit("-{}", (self,))[0]

    def __pow__(self, n):
        return self.trace.call(_ipow, (self, n))


for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(_Symbol, f"__{_name}__", lambda a, b, op=_op: a.trace.op(a, op, b))
    setattr(_Symbol, f"__r{_name}__", lambda a, b, op=_op: a.trace.op(b, op, a))


def _is(value, constant: float) -> bool:
    """``value`` is the float ``constant`` (a zero of either sign)."""
    return value.__class__ is float and value == constant


class _Trace:
    """Straight-line code recorded from arithmetic on :class:`_Symbol`."""

    def __init__(self):
        # (targets, format, arguments, free of side effects)
        self.ops: list[tuple[tuple[_Symbol, ...], str, tuple, bool]] = []
        self.seen: dict[tuple, tuple[_Symbol, ...]] = {}   # pure ops by text

    def emit(self, fmt: str, args, outputs: int = 1, pure: bool = True):
        key = (fmt, *(a.name if a.__class__ is _Symbol else repr(a) for a in args))
        if pure and key in self.seen:
            return self.seen[key]
        k = len(self.ops)
        if k >= _MAX_TRACE_OPS:
            raise ValueError(f"the potential's generated code passes {_MAX_TRACE_OPS:,} "
                             "operations")
        targets = tuple(_Symbol(self, f"t{k}" if outputs == 1 else f"t{k}_{j}")
                        for j in range(outputs))
        self.ops.append((targets, fmt, tuple(args), pure))
        if pure:
            self.seen[key] = targets
        return targets

    def op(self, a, op: str, b):
        """``a op b``, folded where a constant operand is an identity:
        ``t * 1.0`` is ``t``, ``t * 0.0`` is ``0.0``, and ``t + 0.0``,
        ``0.0 + t`` and ``t - 0.0`` are ``t``, for a zero of either sign.
        Most partials of a jet are such structural zeros.  Against ``Jet3``
        arithmetic on floats, which keeps these terms, a zero result may have
        the other sign, and a dropped ``t * 0.0`` is no nan where ``t`` is
        infinite; with finite intermediates nothing else moves."""
        if op == "*" and (_is(a, 0.0) or _is(b, 0.0)):
            return 0.0
        if op == "*" and (_is(a, 1.0) or _is(b, 1.0)):
            return b if _is(a, 1.0) else a
        if op in "+-" and _is(b, 0.0):
            return a
        if op == "+" and _is(a, 0.0):
            return b
        return self.emit(f"{{}} {op} {{}}", (a, b))[0]

    def call(self, fn, args):
        """``fn(*args)`` now if every argument is a constant and nothing
        warns; else a call in the generated code."""
        if not any(a.__class__ is _Symbol for a in args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args)
            if not caught:
                return out
        fmt = fn.__name__ + "(" + ", ".join(["{}"] * len(args)) + ")"
        targets = self.emit(fmt, args, _RUNTIME[fn], pure=False)
        return targets if len(targets) > 1 else targets[0]

    def source(self, outputs, keep_powers: bool) -> tuple[list[str], list[str]]:
        """Assignment lines that compute ``outputs``, and the outputs' text.
        Pure values nothing reads are dropped, and so are ``_ipow`` calls
        unless ``keep_powers`` (an unread power checks only its own
        overflow); pure values read once are written into their reader."""
        uses: dict[str, int] = {}
        for a in outputs:
            if a.__class__ is _Symbol:
                uses[a.name] = uses.get(a.name, 0) + 1
        kept = []
        for op in reversed(self.ops):
            targets, fmt, args, pure = op
            droppable = pure or not keep_powers and fmt.startswith("_ipow(")
            if droppable and targets[0].name not in uses:
                continue
            kept.append(op)
            for a in args:
                if a.__class__ is _Symbol:
                    uses[a.name] = uses.get(a.name, 0) + 1
        inline: dict[str, tuple[str, int]] = {}   # text and nesting depth

        def text(a):
            return inline.pop(a.name, (a.name, 0)) if a.__class__ is _Symbol else (repr(a), 0)

        lines = []
        for targets, fmt, args, pure in reversed(kept):
            parts = [text(a) for a in args]
            expr = fmt.format(*(p[0] for p in parts))
            depth = 1 + max(p[1] for p in parts)
            if pure and uses[targets[0].name] == 1 and depth < 12:
                inline[targets[0].name] = (f"({expr})", depth)
            else:
                names = [t.name if t.name in uses else "_" for t in targets]
                lines.append(f"{', '.join(names)} = {expr}")
        return lines, [text(a)[0] for a in outputs]

