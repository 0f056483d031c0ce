"""CSV text of a float64 table: the bytes of ``b"%.17g" % x`` for every
cell, computed in bulk with numpy.

For |x| in [1e-280, 1e280] the 17 significant digits are round(y), with
y = |x| * 10**(16 - floor(log10|x|)) a double-double product (Dekker,
Numer. Math. 18, 1971) against a (hi, lo) table of powers of ten, exact to
about 1e-14.  Each cell fills six 8-byte words from lookup tables, NUL in
every empty slot: sign, "0." lead and leading digit; the digits before the
point, then the point; the digits after it, to the last nonzero one; "e",
the exponent and the separator.  One ``bytes.translate`` drops the NULs.
Python's own formatter writes the cells the kernel cannot certify: 0, NaN,
+-inf, |x| outside that range, a fraction of y within TIE_MARGIN of 1/2,
and an exponent guess that puts y outside [1e16, 1e17).  The tables are
built on first use, from numpy expressions.
"""

from functools import cache

import numpy as np

CSV_UNIT_ROWS = 2048  # rows formatted at a time
E_MIN, E_MAX = -281, 280  # floor(log10|x|) for |x| in [1e-280, 1e280], with log10's rounding
TIE_MARGIN = 1e-6  # a fraction of y this close to 1/2 goes to Python's formatter


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
    """Rows (hi, lo) of 10**(16 - E) for E = E_MIN..E_MAX: hi + lo is the
    power to about 1e-31 relative."""
    top = 16 - E_MIN
    hi, lo = 10.0 ** np.arange(23), np.zeros(23)  # exact up to 10**22
    while len(hi) <= top:  # 10**(22 + j) = 10**22 * 10**j, renormalized
        p, e = _two_product(hi[-22:top - 21], 1e22)
        e = e + lo[-22:top - 21] * 1e22
        hi, lo = np.concatenate([hi, p + e]), np.concatenate([lo, e - ((p + e) - p)])
    small = slice(1, E_MAX - 15)  # 10**-k = 1/10**k, with one Newton step for its low part
    inv = 1.0 / hi[small]
    p, e = _two_product(inv, hi[small])
    inv_lo = inv * (((1.0 - p) - e) - inv * lo[small])
    return np.stack([np.concatenate([hi[::-1], inv]), np.concatenate([lo[::-1], inv_lo])], axis=1)


@cache
def _slots():
    """The tables of ``csv_text``.  quad: the ASCII of 0000..9999 as 4-byte
    words; last[place][g]: the index among the digits 1-16 of the last
    nonzero digit of the group g at place 0-3, 0 for 0000.  By exponent -
    E_MIN, point: the digits before the point, and lead: 1-4 where a "0."
    lead and 0-3 zeros come first.  The words: head by sign * 50 + lead * 10
    + leading digit, frame (words 1-4) by point * 17 + the index of the last
    nonzero digit, tail by (exponent - E_MIN) * 2 + 1 at the end of a row.
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
    point = np.where(fixed, np.maximum(exponent + 1, 0), 1)
    lead = np.where(fixed & (exponent < 0), -exponent, 0)
    head = np.zeros((2, 5, 10, 8), np.uint8)
    head[1, ..., 0] = ord("-")
    leads = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000", np.uint8)
    head[..., 1:6] = leads.reshape(5, 1, 5)
    head[..., 6] = np.arange(48, 58)
    j, p, z = np.arange(1, 17), np.arange(18)[:, None, None], np.arange(17)[:, None]
    frame = np.concatenate([np.broadcast_to(j < p, (18, 17, 16)) * 255,
                            ((j == p) & (z >= p) & (p > 0)) * ord("."),
                            ((j >= p) & (j <= z)) * 255], axis=2).astype(np.uint8)
    size, sign = np.abs(exponent)[:, None], np.where(exponent < 0, ord("-"), ord("+"))[:, None]
    figures = (size >= [100, 0, 0]) * (size // [100, 10, 1] % 10 + 48)  # 2 or 3 of them
    tail = np.zeros((len(exponent), 2, 8), np.uint8)
    tail[..., :5] = (~fixed[:, None] * np.hstack([np.full_like(size, ord("e")), sign, figures]))[:, None]
    tail[..., 5] = [ord(","), ord("\n")]
    return (quad.view(np.uint32).ravel(), last, point, lead, head.view(np.uint64).ravel(),
            frame.reshape(18 * 17, 48).view(np.uint64), tail.view(np.uint64).ravel())


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
    up = np.floor(e + 0.5)  # p >= 2**53 is an integer, so y rounds to p + up
    t = (e + 0.5) - up  # the fraction of y, plus 1/2
    digits = p.astype(np.int64) + up.astype(np.int64)
    certified = (in_range & (np.abs(t - 0.5) < 0.5 - TIE_MARGIN) & (digits < 10**17)
                 & ((p - 1e16) + e >= 0))
    return digits, exponent, certified


def csv_text(rows: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 array: its "%.17g" cells, "," between
    them and "\\n" after each row, the same bytes as np.savetxt."""
    x = rows.ravel()
    digits, exponent, certified = _decimal(x)
    quad, last, point, lead, head, frame, tail = _slots()
    digits = np.where(certified, digits, 10**16)  # keeps every index below in its table
    at = np.where(certified, exponent - E_MIN, -E_MIN)
    top, low = digits // 10**8, digits % 10**8
    groups = [top // 10**4 % 10**4, top % 10**4, low // 10**4, low % 10**4]
    body = np.stack([quad.take(g) for g in groups], axis=1).view(np.uint64)  # the digits 1-8 and 9-16
    final = np.max([last[place].take(g) for place, g in enumerate(groups)], axis=0)
    masks = frame.take(point.take(at) * 17 + final, axis=0)
    ends = at.reshape(rows.shape) * 2
    ends[:, -1] += 1
    out = np.empty((len(x), 6), np.uint64)
    out[:, 0] = head.take((x < 0) * 50 + lead.take(at) * 10 + top // 10**8)
    for word in range(2):
        out[:, 1 + word] = body[:, word] & masks[:, word] | masks[:, 2 + word]
        out[:, 3 + word] = body[:, word] & masks[:, 4 + word]
    out[:, 5] = tail.take(ends.ravel())
    cells = out.view(np.uint8)
    for i in np.flatnonzero(~certified):
        cell = b"%.17g" % x[i]
        cells[i, :45] = 0
        cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return cells.tobytes().translate(None, b"\0")
