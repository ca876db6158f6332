"""CSV rows whose cells are byte for byte ``"%.17g" % v``, by exact integer arithmetic.

With ``X = floor(log10|v|)`` the 17 digits of ``v = m * 2**q`` are ``m * 5**p / 2**s``
(``p = 16 - X``, ``s = -(q + p)``) rounded half to even: at most three 64-bit limbs and
one shift, as in Ryu (Adams, PLDI 2018).  ``log10`` gives ``X``; a truncated quotient below
``10**16`` or from ``10**17`` moves it by one, and so does a rounding carry to ``10**17``.
Cells are laid out by ``%g``'s rule in 4-digit lookup words whose unused bytes are NUL,
which ``bytes.translate`` drops.  nan, infinities, subnormals and magnitudes outside
``_X_MIN <= X <= _X_MAX`` go through Python's own ``"%.17g"``.
"""

import numpy as np

# m * 5**p fits three limbs, 1 <= s <= 128 for X or X + 1, and the integer part 8 digits
_X_MIN, _X_MAX = -38, 7
_POW5 = np.array([divmod(5 ** p, 2 ** 64) for p in range(17 - _X_MIN)], np.uint64).T  # hi, lo
_POW10 = 10 ** np.arange(17, dtype=np.uint64)


def _words(table) -> np.ndarray:     # each row of a (k, 4) byte table as one word
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32).ravel()


def _texts(texts, width: int) -> np.ndarray:     # each text, NUL-padded, as one word
    return np.array(texts, dtype=f"S{width}").view(np.uint32 if width == 4 else np.uint64)


_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)     # [j, g]: digit j of g
_QUAD = _words(48 + _DIGITS.T)
# by group + 10000 * (a later group of the fraction is nonzero): trailing zeros NUL or kept
_FRACTION = np.concatenate([_words(np.where(np.maximum.accumulate(
    _DIGITS[::-1])[::-1] > 0, 48 + _DIGITS, 0).T), _QUAD])
# [j, X]: the mask of word j of an integer part of X + 1 digits, leading zeros NUL
_INTEGER = _words(np.where(np.arange(4) >= 4 - np.arange(5)[:, None], 255, 0))[
    np.clip(np.arange(1, _X_MAX + 2) - np.array([[4], [0]]), 0, 4)]
# by 2 * (X - _X_MIN) + sign: the comma before the cell, the sign and "0.000" of -4 <= X < 0
_HEAD = _texts([b"," + sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                for x in range(_X_MIN, _X_MAX + 1) for sign in (b"", b"-")], 8)
_EXPONENT = _texts([b"e-%02d" % -x if x < -4 else b"" for x in range(_X_MIN, _X_MAX + 1)], 4)
_CELL = 40      # bytes: head 8, integer part 8, dot 4, fraction 16, exponent 4


def _product(a, b):
    """The high and low 64 bits of ``a * b``."""
    a1, a0, b1, b0 = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (p00 & 0xFFFFFFFF) | (mid << 32)


def _quotient(m, q, x):
    """``m * 2**q * 10**(16 - x)`` truncated, and rounded half to even."""
    p, s = 16 - x, x - 16 - q
    w1, w0 = _product(m, _POW5[1][p])
    w2 = np.zeros_like(w1)
    wide = np.nonzero(p > 27)       # 5**p needs a second limb
    if wide[0].size:
        h1, h0 = _product(m[wide], _POW5[0][p[wide]])
        w1[wide] += h0
        w2[wide] = h1 + (w1[wide] < h0)
    # shift the 128 bits (a1, a0) by r = 1..64: every shift amount is within 0..63
    high = s > 64
    a1, a0 = np.where(high, w2, w1), np.where(high, w1, w0)
    r = (s - 64 * high).astype(np.uint64)
    half = a0 >> (r - 1)
    t = (half >> 1) | (a1 << (64 - r))
    sticky = (a0 & ((1 << (r - 1)) - 1) != 0) | (high & (w0 != 0))
    return t, t + (half & 1 & (sticky | t))


def _cells(v, words) -> None:
    """Write ``",%.17g" % v`` of each value, NUL-padded, into its row of ``words``."""
    bits = v.view(np.uint64)
    e = bits >> 52 & 0x7FF
    normal = (e > 0) & (e < 0x7FF)
    x = np.floor(np.log10(np.abs(np.where(normal, v, 1.0)))).astype(np.int64)
    ok = normal & (x >= _X_MIN) & (x <= _X_MAX)
    m = np.where(ok, bits & (2 ** 52 - 1) | 2 ** 52, 2 ** 52)     # 1.0 stands in for the rest
    q, x = np.where(ok, e.astype(np.int64) - 1075, -52), np.where(ok, x, 0)
    t, d = _quotient(m, q, x)
    shift = (t >= 10 ** 17).astype(np.int64) - (t < 10 ** 16)
    redo = np.nonzero(shift)
    if redo[0].size:        # log10 was one off, next to a power of ten
        x[redo] += shift[redo]
        ok[redo] &= (x[redo] >= _X_MIN) & (x[redo] <= _X_MAX)
        redo = tuple(i[ok[redo]] for i in redo)
        t[redo], d[redo] = _quotient(m[redo], q[redo], x[redo])
    carry = d == 10 ** 17
    x += carry
    ok &= x <= _X_MAX
    d = np.where(ok, np.where(carry, 10 ** 16, d), 0)     # a zero prints as 0 * 10**0
    x = np.where(ok, x, 0)
    whole = np.maximum(x, 0)            # digits before the point, less one
    integer, fraction = np.divmod(d, _POW10[16 - whole])
    fraction *= _POW10[whole]       # 16 digits, left-aligned
    xi = x - _X_MIN
    words[..., :2].view(np.uint64)[..., 0] = _HEAD[2 * xi + np.signbit(v)]
    for j, group in enumerate(np.divmod(integer.astype(np.uint32), 10000)):
        words[..., 2 + j] = _QUAD[group] & _INTEGER[j][whole]
    high, low = (part.astype(np.uint32) for part in np.divmod(fraction, 10 ** 8))
    later = np.zeros(v.shape, dtype=bool)
    for j, group in reversed(list(enumerate((high // 10000, high % 10000,
                                             low // 10000, low % 10000)))):
        words[..., 5 + j] = _FRACTION[group + 10000 * later]
        later |= group != 0
    words[..., 4] = (later & ((x >= 0) | (x < -4))) * ord(".")    # at any byte of the word
    words[..., 9] = _EXPONENT[xi]
    rest = np.nonzero(~ok & (v != 0))
    if rest[0].size:
        words[rest] = np.array([",%.17g" % f for f in v[rest].tolist()],
                               dtype=f"S{_CELL}").view(np.uint32).reshape(-1, _CELL // 4)


def csv_rows(table, flags) -> str:
    """Rows of each value of a C-contiguous float ``table`` as ``"%.17g"``, then ``flags``."""
    n, k = table.shape
    tails = np.array([f",{tag}\r\n" for tag in flags], dtype="S")
    width = k * _CELL + -(-tails.itemsize // 8) * 8    # each row starts 8-byte aligned
    rows = np.zeros((n, width), dtype=np.uint8)
    _cells(table, rows[:, :k * _CELL].view(np.uint32).reshape(n, k, _CELL // 4))
    rows[:, k * _CELL:k * _CELL + tails.itemsize] = tails.view(np.uint8).reshape(n, -1)
    rows[:, 0] = 0      # the first cell has no comma before it
    return rows.tobytes().translate(None, b"\0").decode("ascii")
