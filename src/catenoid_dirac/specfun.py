"""Special functions needed by the closed-form solutions.

Jacobi and Hermite polynomials by three-term recurrence, the Kummer M by
its power series, tested for convergence once per block of five terms,
parabolic cylinder functions through the two-Kummer representation.

Jacobi and Hermite take arrays.  ``kummer_m`` and ``parabolic_cylinder_d``
take a scalar or an array z: a scalar (a Python float, a numpy scalar or a
0-d array) runs the series point by point and returns a Python float; an
array runs one masked series loop for the whole grid and returns an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "jacobi",
    "kummer_m",
    "hermite",
    "parabolic_cylinder_d",
]

_KUMMER_MAX_TERMS = 500
# the Kummer series' float term indices 0, ..., 499 in blocks of at most five; the blocks of
# _BLOCKS[r] end at r, r + 5, ... and 499, so that a series ending at term -a ends a block
_BLOCKS = [[tuple(map(float, range(s + 1, e + 1))) for s, e in zip([-1, *ends], ends)]
           for ends in ([*range(r, _KUMMER_MAX_TERMS - 1, 5), _KUMMER_MAX_TERMS - 1] for r in range(5))]
# non-integer orders lose digits to cancellation between the two Kummer terms (ROADMAP
# item 4): near nu = -20 the relative error is 2e-8 at z = 2, 3 at z = 4 and 1.5e9 at z = 6
_PCF_MAX_Z_NONINTEGER = 6.0
_PCF_MAX_Z = 20.0
_PCF_MAX_NU = 20.0


def _integer(x, what: str, least: float = 0) -> int:
    """int(x) for an integral x >= least; NaN, an infinity or another x raises ValueError."""
    if not (abs(x) < math.inf and x == int(x) and x >= least):  # written so that NaN fails it too
        raise ValueError(f"{what} must be {'a non-negative' if least == 0 else 'an'} integer, got {x}")
    return int(x)


@dataclass(frozen=True)
class JacobiParams:
    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "degree"))
        if not (self.alpha > -1.0 and self.beta > -1.0):  # written so that NaN fails it too
            raise ValueError("alpha and beta must exceed -1")


def jacobi(p: JacobiParams, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) by forward recurrence in n.

    Evaluation slightly outside [-1, 1] is allowed for residual tests.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + 1e-12):  # written so that NaN fails it too
        raise ValueError("argument must lie in [-1, 1] (within 1e-12)")
    n, a, b = p.n, p.alpha, p.beta
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    if min(a, b) < -0.5:
        return _jacobi_near_minus_one(n, a, b, x)
    p1 = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p0, p1 = p1, ((c2 + c3 * x) * p1 - c4 * p0) / c1
    return p1


def _jacobi_near_minus_one(n: int, a: float, b: float, x: np.ndarray):
    """The recurrence of jacobi with every coefficient built from alpha + 1
    and beta + 1, for an alpha or beta below -1/2, where p + 1 is exact
    (Sterbenz).

    A sum such as k + alpha + beta - 1 formed from alpha and beta is off by
    about the unit roundoff, which its nearness to zero amplifies: at
    alpha = -1 + 1.6e-12, beta = -1 + 1.5e-12 such sums give P_6(-1) as
    1.7e-4 instead of 2.5e-13.
    """
    p0 = np.ones_like(x)
    a1, b1 = a + 1.0, b + 1.0
    s = a1 + b1  # alpha + beta + 2
    p1 = a1 + s * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        j = k - 2.0
        c1 = 2.0 * k * (j + s) * (2.0 * j + s)
        c2 = (2.0 * j + s + 1.0) * (a - b) * (a + b)
        c3 = (2.0 * j + s + 1.0) * (2.0 * j + s + 2.0) * (2.0 * j + s)
        c4 = 2.0 * (j + a1) * (j + b1) * (2.0 * j + s + 2.0)
        p0, p1 = p1, ((c2 + c3 * x) * p1 - c4 * p0) / c1
    return p1


def kummer_m(a: float, b: float, z):
    """Confluent hypergeometric M(a, b, z) by direct series summation,
    after Kummer's transformation for z < 0.

    The series terminates for non-positive integer a; otherwise summation
    stops at a term below 1e-17 of the partial sum that no later term
    exceeds.  Term j + 1 over term j is (a + j) z / ((b + j)(j + 1)), and
    for j > k, |a + j| / (b + j) is at most max(1, |a + k + 1| / c) with
    c = b + k + 1 > 0, so no term after the one added at step k grows when
    |z| max(c, |a + k + 1|) < c (k + 2).  A tiny term can come before
    growing ones: M(1e-20, 1, 50) = 2.0586, not the 1.0 of its first term.
    Both stops are tested at the last term of each block of five, which
    moves no bit: a term after the one at which the test first holds is
    below half an ulp of the sum (2^-54 of it or more), so adding it leaves
    the sum as it is, and a terminating series' blocks end at its last term.
    A scalar z returns a float; an array z is summed in one loop over the
    elements that have not yet converged and returns an array of its shape.
    A NaN or infinite a, b or z, scalar or in an array, raises ValueError, as
    does a Python int beyond the float range.  A series that does not
    converge in 500 terms or leaves the float range raises ArithmeticError.
    """
    scalar = _is_scalar(z)
    try:
        finite = math.isfinite(a) and math.isfinite(b)
        z = float(z) if scalar else np.asarray(z, dtype=float)
    except OverflowError:  # a Python int beyond the float range
        raise ValueError("a, b and z must lie in the float range") from None
    if not finite:
        raise ValueError(f"a and b must be numbers and finite, got a={a}, b={b}")
    if b <= 0.0 and b == int(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    if scalar:
        if not math.isfinite(z):
            raise ValueError(f"z must be a number and finite, got {z}")
        return _kummer_scalar(a, b, z)
    if not np.isfinite(z).all():
        raise ValueError("z must be a number and finite, got an array that holds NaN or an infinity")
    out = np.empty_like(z)
    # Kummer's transformation (DLMF 13.2.39) avoids the alternating series
    flip = (z < 0.0) & (not _terminates(a))
    out[~flip] = _kummer_series(a, b, z[~flip], a, 1.0)
    out[flip] = np.exp(z[flip]) * _kummer_series(b - a, b, -z[flip], a, -1.0)
    return out


def _is_scalar(z) -> bool:
    # the isinstance test (floats and numpy float64) saves np.ndim's ~2 us
    # on the point-by-point path
    return isinstance(z, float) or np.ndim(z) == 0


def _terminates(a: float) -> bool:
    return a <= 0.0 and a == int(a)


def _kummer_scalar(a: float, b: float, z: float, caller: tuple | None = None) -> float:
    terminating = _terminates(a)
    if z < 0.0 and not terminating:
        return math.exp(z) * _kummer_scalar(b - a, b, -z, (a, b, z))
    total = 1.0
    term = 1.0
    for block in _BLOCKS[int(-a) % 5 if terminating else 4]:
        for k in block:
            term *= (a + k) * z / ((b + k) * (k + 1.0))
            total += term
        if not math.isfinite(total):  # an overflowed sum never returns to the float range
            break
        if terminating and a + k >= 0.0:
            return total
        if abs(term) < 1e-17 * abs(total):
            c = b + k + 1.0
            if abs(z) * max(c, abs(a + k + 1.0)) < c * (k + 2.0):  # see kummer_m
                return total
    raise ArithmeticError("Kummer series did not converge for a={}, b={}, z={}".format(*(caller or (a, b, z))))


def _kummer_series(a: float, b: float, z: np.ndarray, caller_a: float, sign: float) -> np.ndarray:
    """The series of _kummer_scalar, term for term, on a 1-D array z; each
    element leaves the loop at the block in which its own sum converges.
    An ArithmeticError names caller_a, b and sign * z."""
    terminating = _terminates(a)
    out = np.empty_like(z)
    idx = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    z_max = np.abs(z).max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum raises below
        for block in _BLOCKS[int(-a) % 5 if terminating else 4]:
            for k in block:
                term *= (a + k) * z / ((b + k) * (k + 1.0))
                total += term
            finite = np.isfinite(total)
            if not finite.all():
                z = z[~finite]
                break
            done = np.abs(term) < 1e-17 * np.abs(total)
            c = b + k + 1.0
            growth = max(c, abs(a + k + 1.0))
            if z_max * growth >= c * (k + 2.0):  # some terms may still grow: see kummer_m
                done &= np.abs(z) * growth < c * (k + 2.0)
            if terminating and a + k >= 0.0:
                done[:] = True
            out[idx[done]] = total[done]
            keep = ~done
            idx, z, term, total = idx[keep], z[keep], term[keep], total[keep]
            if not idx.size:
                return out
    raise ArithmeticError(f"Kummer series did not converge for a={caller_a}, b={b}, z={sign * z[0]}")


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x); integer degree only."""
    n = _integer(n, "degree")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2.0 * x
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def parabolic_cylinder_d(nu: float, z):
    """Weber parabolic cylinder function D_nu(z).

    Uses the two-Kummer representation; for non-negative integer nu a pole
    of Gamma drops one term and the surviving series terminates, which
    reproduces the Hermite form 2^(-nu/2) e^(-z^2/4) H_nu(z/sqrt(2)).
    A scalar z returns a float, an array z an array of its shape.
    """
    if not abs(nu) <= _PCF_MAX_NU:  # written so that NaN fails it too
        raise ValueError(f"order out of supported range |nu| <= {_PCF_MAX_NU}")
    nu = 0.0 if abs(nu) < 1e-300 else nu  # D_nu is D_0 to rounding; Gamma(-nu/2) would overflow
    is_int = nu >= 0.0 and nu == int(nu)
    z_max = _PCF_MAX_Z if is_int else _PCF_MAX_Z_NONINTEGER
    scalar = _is_scalar(z)
    try:
        z = float(z) if scalar else np.asarray(z, dtype=float)
    except OverflowError:  # a Python int beyond the float range
        z = math.inf
    if not (abs(z) <= z_max if scalar else np.all(np.abs(z) <= z_max)):
        raise ValueError(f"argument out of supported range |z| <= {z_max} for nu={nu}")
    exp, m = (math.exp, _kummer_scalar) if scalar else (np.exp, kummer_m)  # z z / 2 <= 200 passes kummer_m's checks
    if not (scalar or is_int):  # the two terms cancel, so an ulp of np.exp against math.exp grows
        exp = np.vectorize(math.exp, otypes=[float])  # into the digits an array z and a float z share
    pre = 2.0 ** (nu / 2.0) * exp(-z * z / 4.0)
    c1 = 0.0 if is_int and nu % 2.0 == 1.0 else math.sqrt(math.pi) / math.gamma((1.0 - nu) / 2.0)
    c2 = 0.0 if is_int and nu % 2.0 == 0.0 else math.sqrt(2.0 * math.pi) / math.gamma(-nu / 2.0)
    term1 = c1 * m(-nu / 2.0, 0.5, z * z / 2.0) if c1 != 0.0 else 0.0
    term2 = c2 * m((1.0 - nu) / 2.0, 1.5, z * z / 2.0) if c2 != 0.0 else 0.0
    return pre * term1 - pre * term2 * z  # z last: a subnormal z scaled by c2 first loses digits
