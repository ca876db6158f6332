"""CSV rows whose cells are byte for byte ``"%.17g" % v``, by exact integer arithmetic.

With ``X = floor(log10|v|)`` the 17 digits of ``v = m * 2**q`` are ``m * 5**p / 2**s``
(``p = 16 - X``, ``s = -(q + p)``) rounded half to even, as in Ryu (Adams, PLDI 2018).  For
``s <= 52``, ``m * 5**p mod 2**64`` holds both rounding bits and the low ``64 - s`` bits of
the quotient, and ``|v| * 10.0**p``, within ``2**11`` of it, the rest; other cells take three
64-bit limbs, and so do those whose quotient is below ``10**16`` or from ``10**17`` (log10
was one off).  A carry to ``10**17`` raises ``X``.  Cells are laid out by ``%g``'s rule in
4-digit lookup words whose unused bytes are NUL, which ``bytes.translate`` drops.  nan,
infinities, subnormals and ``X`` outside ``_X_MIN..._X_MAX`` go through Python's ``"%.17g"``.
"""

import numpy as np

# m * 5**p fits three limbs, 1 <= s <= 128 for X or X + 1, and the integer part 8 digits
_X_MIN, _X_MAX = -38, 7
_POW5 = np.array([divmod(5 ** p, 2 ** 64) for p in range(17 - _X_MIN)], np.uint64).T  # hi, lo
_SCALE = np.array([float(10 ** p) for p in range(17 - _X_MIN)])
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
# an integer part's first 4 digits, then by group + 10000 * (they are nonzero) its last 4
_LEADING = _words(np.where(np.maximum.accumulate(_DIGITS, axis=0) > 0, 48 + _DIGITS, 0).T)
_INTEGER = np.concatenate([_LEADING, _QUAD])
_INTEGER[0] = _QUAD[0] & _LEADING[1]
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
    h1, h0 = _product(m, _POW5[0][p])       # 0 where 5**p fits one limb
    w1 += h0
    w2 = h1 + (w1 < h0)
    # shift the 128 bits (a1, a0) by r = 1..64: every shift amount is within 0..63
    high = s > 64
    a1, a0 = np.where(high, w2, w1), np.where(high, w1, w0)
    r = (s - 64 * high).astype(np.uint64)
    half = a0 >> (r - 1)
    t = (half >> 1) | (a1 << (64 - r))
    sticky = (a0 & ((1 << (r - 1)) - 1) != 0) | (high & (w0 != 0))
    return t, t + (half & 1 & (sticky | t))


def _split(h, c):     # h // c and h % c of a uint64 array and a constant
    top = h // c
    return top, h - top * c


def _digits(v):
    """The 17 digits ``10**16 <= D < 10**17``, exponent ``X`` and ``ok`` of each value of
    a 1-D ``v``; where ``ok`` is false, ``D = X = 0``: a zero, or a cell left to Python."""
    bits = v.view(np.uint64)
    # a value that is not ok (zero, nan, infinite, subnormal, out of range) gets wrong
    # digits from a stand-in 1 <= m * 2**-52 < 2, and ``ok`` zeroes them
    with np.errstate(all="ignore"):
        size = np.abs(v)
        x = np.floor(np.log10(size))
        ok = (x >= _X_MIN) & (x <= _X_MAX)
        x = np.where(ok, x, 0.0).astype(np.intp)
        q = np.where(ok, (bits >> 52 & 0x7FF).view(np.intp), 1023) - 1075
        m = bits & (2 ** 52 - 1) | 2 ** 52
        low = m * _POW5[1][16 - x]
        guess = (size * _SCALE[16 - x]).astype(np.uint64)
    s = x - 16 - q
    r = s.astype(np.uint64)
    t = guess + ((((low >> r) - guess) << r).view(np.intp) >> s).view(np.uint64)
    d = t + ((low << (64 - r) | t & 1) > 2 ** 63)
    exact = np.flatnonzero(s > 52)
    if exact.size:
        t[exact], d[exact] = _quotient(m[exact], q[exact], x[exact])
    shift = (t >= 10 ** 17).view(np.int8) - (t < 10 ** 16).view(np.int8)
    redo = np.flatnonzero(shift * ok)
    if redo.size:       # log10 was one off, next to a power of ten
        x[redo] += shift[redo]
        ok[redo] &= (x[redo] >= _X_MIN) & (x[redo] <= _X_MAX)
        redo = redo[ok[redo]]
        t[redo], d[redo] = _quotient(m[redo], q[redo], x[redo])
    carry = d == 10 ** 17
    d[carry], x = 10 ** 16, x + carry
    ok &= x <= _X_MAX
    return d * ok, x * ok, ok


def _cells(v, words) -> None:
    """Write ``",%.17g" % v`` of each value of ``v``, NUL-padded, into its row of ``words``."""
    d, x, ok = _digits(v)
    # D * 10**max(X, 0): the integer part, then a left-aligned 16-digit fraction, by halves
    scale = _POW10[np.maximum(x, 0)]
    top, end = _split(d, 10 ** 8)
    carry, low = _split(end * scale, 10 ** 8)
    integer, high = _split(top * scale + carry, 10 ** 8)
    words[:, 4] = (((high | low) != 0) & ((x >= 0) | (x < -4))) * ord(".")    # at any byte
    x -= _X_MIN
    words[:, :2].view(np.uint64)[:, 0] = _HEAD[2 * x + (v.view(np.uint64) >> 63).view(np.intp)]
    first, last = (g.view(np.intp) for g in _split(integer, 10000))
    words[:, 2] = _LEADING[first]
    words[:, 3] = _INTEGER[last + 10000 * (first != 0)]
    g0, g1, g2, g3 = (g.view(np.intp) for g in (*_split(high, 10000), *_split(low, 10000)))
    words[:, 5] = _FRACTION[g0 + 10000 * ((low != 0) | (g1 != 0))]
    words[:, 6] = _FRACTION[g1 + 10000 * (low != 0)]
    words[:, 7] = _FRACTION[g2 + 10000 * (g3 != 0)]
    words[:, 8] = _FRACTION[g3]
    words[:, 9] = _EXPONENT[x]
    rest = np.flatnonzero(~ok & (v != 0))
    if rest.size:
        words[rest] = np.array([",%.17g" % f for f in v[rest].tolist()],
                               dtype=f"S{_CELL}").view(np.uint32).reshape(-1, _CELL // 4)


def csv_rows(table, flags) -> bytes:
    """Rows of each value of a C-contiguous float ``table`` as ``"%.17g"``, then ``flags``."""
    (n, k), tags = table.shape, np.asarray(flags, dtype=str)[:, None].view(np.uint32)
    cells = np.empty((n * k, _CELL // 4), dtype=np.uint32)     # every word is written
    _cells(table.ravel(), cells)
    tail = np.zeros((n, tags.shape[1] + 3), dtype=np.uint8)     # ",", the flags, "\r\n"
    tail[:, 0], tail[:, 1:-2], tail[:, -2:] = ord(","), tags, [13, 10]
    rows = np.concatenate([cells.view(np.uint8).reshape(n, -1), tail], axis=1)
    rows[:, 0] = 0      # the first cell has no comma before it
    return rows.tobytes().translate(None, b"\0")
