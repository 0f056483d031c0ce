"""CSV text of a float64 table: the bytes of ``b"%.17g" % x`` for every
cell, computed in bulk with numpy.

For |x| in [1e-280, 1e280] the 17 significant digits are round(y), with
y = |x| * 10**(16 - floor(log10|x|)) a double-double product (Dekker,
Numer. Math. 18, 1971) against a (hi, lo) table of powers of ten, the
power and its remainder each correctly rounded, so y is exact to about
1e-14.  Each cell fills four 8-byte words from lookup tables, NUL in every
empty byte: sign, "0." lead and leading digit, flush right; the digits and
the point, then the separator, or "e", exponent and separator.  A numpy
mask, which runs without the GIL, drops the NULs.  Python's own formatter
writes the cells the kernel cannot certify: 0, NaN, +-inf, |x| outside
that range, a fraction of y within TIE_MARGIN of 1/2, and an exponent
guess that puts y outside [1e16, 1e17).  The tables are built on
first use.
"""

from functools import cache

import numpy as np

CSV_UNIT_CELLS = 20480  # cells formatted at a time: 4096 rows of 5 columns, 20480 of 1
E_MIN, E_MAX = -281, 280  # floor(log10|x|) for |x| in [1e-280, 1e280], with log10's rounding
TIE_MARGIN = 1e-6  # a fraction of y this close to 1/2 goes to Python's formatter
WORD = np.dtype("<u8")  # 8 text bytes, the first the lowest, so that << 8 moves them one byte on


def _split(a):
    """(a1, a2) with a1 + a2 = a, each of 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    a1 = c - (c - a)
    return a1, a - a1


def _two_product(a, b):
    """(p, e) with p + e = a*b exactly (Dekker), barring overflow and underflow."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


@cache
def _powers():
    """Rows (hi, lo) of 10**(16 - E) for E = E_MIN..E_MAX: hi is the power
    and lo the power minus hi, each correctly rounded, from exact integer
    ratios (CPython rounds int / int correctly)."""
    rows = []
    for k in range(16 - E_MIN, 15 - E_MAX, -1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        p, q = (num / den).as_integer_ratio()
        rows.append((p / q, (num * q - p * den) / (den * q)))
    return np.array(rows)


@cache
def _slots():
    """The tables of ``csv_text``.  quad: the ASCII of 0000..9999 as 4-byte
    words; last[place][g]: the index among the digits 1-16 of the last
    nonzero digit of the group g at place 0-3, 0 for 0000.  By exponent -
    E_MIN, plus E_MAX + 1 - E_MIN at the end of a row: point, 17 times the
    digits before the point (18: one, then an exponent), plus 19 * 17 at a
    row's end; lead, 10 times 1-4 where "0." and 0-3 zeros lead; tail, "e",
    the exponent and the separator from byte 17 after the head, none when
    fixed-point.  head by sign * 50 + lead + leading digit, flush right.
    frame by point + the index of the last nonzero digit: 3 x 3 words over
    the 24 bytes after the head, masks of the digits before the point (from
    bytes 0-15) and after it (from bytes 1-16), then the point and a
    fixed-point cell's separator.
    """
    digit = np.arange(10, dtype=np.uint8)
    quad, last = np.empty((10,) * 4 + (4,), np.uint8), np.zeros((10,) * 4, np.uint8)
    for n in range(4):  # the digits of 0000..9999 at place n
        place = digit.reshape((10,) + (1,) * (3 - n))
        quad[..., n] = place + 48
        last = np.where(place > 0, n + 1, last)
    last = (last.ravel() + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (last.ravel() > 0)
    exponent = np.arange(E_MIN, E_MAX + 1)
    fixed = (exponent >= -4) & (exponent <= 16)  # "%.17g" writes these without an exponent
    point = (np.where(fixed, np.maximum(exponent + 1, 0), 18) * 17 + [[0], [19 * 17]]).ravel()
    lead = np.tile(np.where(fixed & (exponent < 0), -exponent, 0) * 10, 2)
    head = b"".join((sign + b"0.000"[:n + (n > 0)] + b"%d" % d).rjust(8, b"\0")
                    for sign in (b"", b"-") for n in range(5) for d in range(10))
    tail = b"".join((b"" if f else b"\0e%+03d" % e + end).ljust(8, b"\0")
                    for end in (b",", b"\n") for e, f in zip(exponent.tolist(), fixed))
    k, p, z = np.arange(24), np.arange(19)[:, None, None], np.arange(17)[:, None]
    d = np.where(p == 18, 1, p)  # the digits before the point; 18: one, then an exponent
    size = np.where(z >= d, z + (d > 0), d - 1)  # of the text after the head: "," (44) or "\n" (10) next
    masks = [((k + 1 < d) | ((d == 0) & (k < z))) * 255, ((d > 0) & (k >= d) & (k <= z)) * 255,
             ((k + 1 == d) & (z >= d)) * ord(".") + ((k == size) & (p < 18)) * np.array([[[[44]]], [[[10]]]])]
    frame = np.stack(np.broadcast_arrays(*masks)).astype(np.uint8).reshape(3, -1, 24).view(WORD)
    return (quad.view(np.uint32).ravel(), last, point, lead, np.frombuffer(head, WORD),
            frame.transpose(0, 2, 1).reshape(9, -1).copy(), np.frombuffer(tail, WORD))


def _decimal(x: np.ndarray):
    """(digits, exponent, certified) of the float64 cells x: where
    certified, |x| rounds to digits * 10**(exponent - 16) at 17 significant
    digits, with digits an int64 in [10**16, 10**17)."""
    a = np.abs(x)
    in_range = (a >= 1e-280) & (a <= 1e280)
    a = np.where(in_range, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _powers().take(exponent - E_MIN, axis=0).T
    p, e = _two_product(a, hi)
    e += a * lo  # y = p + e
    up = np.floor(e + 0.5)  # p >= 2**53 is an integer, so y rounds to p + up, off by e - up
    digits = p.astype(np.int64) + up.astype(np.int64)
    certified = (in_range & (np.abs(e - up) < 0.5 - TIE_MARGIN) & (digits < 10**17)
                 & ((p - 1e16) + e >= 0))
    return digits, exponent, certified


def csv_text(rows: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 array: its "%.17g" cells, "," between
    them and "\\n" after each row, the same bytes as np.savetxt."""
    x = rows.ravel()
    low, at, certified = _decimal(x)
    quad, last, point, lead, head, frame, tail = _slots()
    low = np.where(certified, low, 10**16)  # the digits; 10**16 keeps every index below in its table
    at = np.where(certified, at - E_MIN, -E_MIN)
    at.reshape(rows.shape)[:, -1] += E_MAX + 1 - E_MIN  # "\n", not ",", after the last cell of a row
    top = low // 10**8
    low -= top * 10**8
    first, upper, lower = top // 10**8, top // 10**4, low // 10**4
    top -= upper * 10**4
    upper -= first * 10**4
    low -= lower * 10**4
    groups = [upper, top, lower, low]  # the digits 1-4, 5-8, 9-12 and 13-16
    key = point.take(at) + np.maximum(*(np.maximum(last[i].take(groups[i]), last[i + 1].take(groups[i + 1]))
                                            for i in (0, 2)))
    u0, u1 = (np.stack([quad.take(g) for g in groups[i:i + 2]], axis=1).view(WORD).ravel() for i in (0, 2))
    out = np.empty((len(x), 4), WORD)
    out[:, 0] = head.take((x < 0) * 50 + lead.take(at) + first)
    # the digits 1-16 at bytes 0-15 (u0, u1) and at bytes 1-16 (u0 << 8, u1 << 8 | u0 >> 56, u1 >> 56)
    np.bitwise_or(u0 & frame[0].take(key) | u0 << 8 & frame[3].take(key), frame[6].take(key), out=out[:, 1])
    np.bitwise_or(u1 & frame[1].take(key) | (u1 << 8 | u0 >> 56) & frame[4].take(key), frame[7].take(key),
                  out=out[:, 2])
    np.bitwise_or(u1 >> 56 & frame[5].take(key) | frame[8].take(key), tail.take(at), out=out[:, 3])
    cells = out.view(np.uint8)
    for i in np.flatnonzero(~certified):
        cell = b"%.17g" % x[i] + cells[i, 8:9].tobytes()  # the separator, after the head "1"
        cells[i] = np.frombuffer(cell.ljust(32, b"\0"), np.uint8)
    return cells[cells != 0].tobytes()
