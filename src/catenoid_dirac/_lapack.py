"""LAPACK's symmetric tridiagonal bisection through ctypes.

The routines ``dstebz`` and ``dlaebz`` (Sturm-sequence bisection) of the
LAPACK that numpy links, and ``lowest_levels``, which splits the bisection
tree of one ``dstebz`` call in two, bisects one half on each of two threads
(``numeric._map_on_two_threads``) and returns that call's levels bit for
bit.  Every ``dlaebz`` call goes through ``_Dlaebz.run``, on an object that
one thread makes and alone calls.  ``numeric`` imports this module on its
first eigensolve, so importing the package compiles and opens none of it.
"""

from __future__ import annotations

import ctypes
import math
from functools import cache
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .numeric import _map_on_two_threads


def lowest_levels(d, e, k: int) -> np.ndarray:
    """Levels 1..k of the symmetric tridiagonal (d, e), ascending: those of
    one ``dstebz`` call in index mode with tolerance 0, bit for bit, from
    the two-thread bisection of ``_levels_from_split`` where it can repeat
    that call's steps and from the call itself elsewhere."""
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    levels = _levels_from_split(d, e, k)
    return dstebz(d, e, k) if levels is None else levels


# the routines used, with their argument counts; each CHARACTER argument adds
# a hidden length argument at the end of the gfortran calling convention
_ROUTINES = {"dstebz": (18, 2), "dlaebz": (20, 0)}
# their spellings, each with its Fortran integer: numpy's wheels
# (scipy-openblas64), an ILP64 and an LP64 system LAPACK
_SPELLINGS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64), ("{}_", ctypes.c_int32))


@cache
def handle() -> SimpleNamespace:
    """``dstebz`` and ``dlaebz`` of the LAPACK that numpy links, as ctypes
    functions, and ``c_int``, the ctypes type of their integers.

    ``import numpy`` has mapped numpy's extension ``numpy.linalg._umath_linalg``
    and the LAPACK it links, so ``ctypes.CDLL`` on that file opens nothing
    new, and each routine is looked up through the libraries it depends on.
    A ctypes call releases the interpreter lock, so two threads can bisect
    at once.  The handle is opened once per process.
    """
    path = np.linalg._umath_linalg.__file__
    library = ctypes.CDLL(path)
    for spelling, c_int in _SPELLINGS:
        try:
            found = {name: getattr(library, spelling.format(name)) for name in _ROUTINES}
        except AttributeError:
            continue
        for name, routine in found.items():
            count, lengths = _ROUTINES[name]
            routine.argtypes = [ctypes.c_void_p] * count + [ctypes.c_size_t] * lengths
            routine.restype = None
        return SimpleNamespace(**found, c_int=c_int)
    spellings = ", ".join(spelling.format("dstebz") for spelling, _ in _SPELLINGS)
    raise ImportError(f"numpy {np.__version__}: the LAPACK that {path} links exports none of {spellings} "
                      "(with dlaebz)")


def dstebz(d, e, k: int) -> np.ndarray:
    """Levels 1..k, ascending, of contiguous float arrays (d, e) from LAPACK
    dstebz in index mode with tolerance 0.  A nonzero info raises
    LinAlgError."""
    lapack, n, byref, c_double = handle(), len(d), ctypes.byref, ctypes.c_double
    c_int = lapack.c_int
    m, nsplit, info = c_int(), c_int(), c_int()
    w = np.empty(n)
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO
    # and the lengths of RANGE and ORDER; an array's ctypes object passes (and holds) its address
    lapack.dstebz(b"I", b"E", byref(c_int(n)), byref(c_double(0.0)), byref(c_double(1.0)), byref(c_int(1)),
                  byref(c_int(int(k))), byref(c_double(0.0)), d.ctypes, e.ctypes, byref(m), byref(nsplit),
                  w.ctypes, np.empty(n, c_int).ctypes, np.empty(n, c_int).ctypes, np.empty(4 * n).ctypes,
                  np.empty(3 * n, c_int).ctypes, byref(info), 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed with info = {info.value}")
    return w[: m.value].copy()


# LAPACK's dlamch("P") and dlamch("S"), and the constants of dstebz
_ULP, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_FUDGE, _RTOLI = 2.1, 2.0 * _ULP


def _levels_from_split(d: np.ndarray, e: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Levels 1..k of (d, e) as one ``dstebz`` call in index mode with
    tolerance 0 gives them, on two threads; None where that call cannot be
    repeated this way.

    That call searches for WL and WU, with no level at or below WL and k at
    or below WU (``dlaebz`` job 3), counts the levels at the ends of
    (WL, WU] clipped to its Gershgorin bounds (job 1), and bisects there at
    midpoints 0.5*(a + b) until each level's interval has converged (job
    2).  Its search for WL stops at its start gl, with WL = gl, where the
    count there is 0; elsewhere the count at the clipped end low >= gl is
    not 0 either, so the job-1 count at low stands in for that search.  The
    search for WU runs here (``_upper_end``).  Each interval of the
    bisection evolves on its own, so the tree splits in two: the calling
    thread steps the interval that holds levels j = k // 2 and j + 1, one
    job-2 step at a time, until those two lie in different intervals; then
    it and one helper thread each bisect one half, levels 1..j and j+1..k,
    with one job-2 call and the iterations the call has left.  So every
    Sturm count is one the call makes.  A matrix that splits, k = n (where
    ``dstebz`` takes all levels at once), counts at the ends of (low, WU]
    other than 0 and k (where it discards levels), an interval left
    unconverged and a nonzero ``dlaebz`` info return None.
    """
    n = len(d)
    # entries near the float range overflow here as in dstebz's own split
    # test and bounds, and to the same verdict: a split, or bounds that are
    # not finite, both of which leave the solve to that call
    with np.errstate(over="ignore"):
        e2 = e * e
        if k == n or not np.all(np.abs(d[1:] * d[:-1]) * _ULP**2 + _TINY <= e2):  # dstebz splits (d, e)
            return None
        # Gershgorin bounds, widened: gl and gu for the search, low and gu
        # for the bisection (dstebz forms the latter from |e|, which equals
        # sqrt(e*e) exactly in binary floating point).  The search's
        # tolerance is ulp*tnorm; the bisection's, atoli, dstebz recomputes
        # from its bounds
        root = np.sqrt(e2)
        gl = float(np.min(d - np.r_[0.0, root] - np.r_[root, 0.0]))
        gu = float(np.max(d + np.r_[0.0, root] + np.r_[root, 0.0]))
    pivmin = max(1.0, float(e2.max())) * _TINY
    tnorm = max(abs(gl), abs(gu))
    widen = _FUDGE * tnorm * _ULP * n
    low = gl - widen - _FUDGE * pivmin
    gl, gu = gl - widen - _FUDGE * 2.0 * pivmin, gu + widen + _FUDGE * pivmin
    if not (math.isfinite(gl) and math.isfinite(gu)):
        return None
    # the calling thread's dlaebz, with room for one split of one interval
    dlaebz = _Dlaebz(handle(), d, e, e2, pivmin, 2)
    wu = _upper_end(dlaebz, k, gl, gu, tnorm)
    if wu is None or not low < min(gu, wu):
        return None
    hi = min(gu, wu)
    atoli, itmax = _ULP * max(abs(low), abs(gu)), _iterations(hi - low, pivmin)
    [(_, _, nl, nu)], _ = dlaebz.run(1, 0, atoli, [(low, hi, 0, 0)])
    if (nl, nu) != (0, k):
        return None
    # step the interval that holds levels j and j + 1 until they part; every
    # other interval joins the half that holds its levels
    levels, j, steps = np.empty(k), k // 2, 0
    halves, unconverged = ([], []), [(low, hi, 0, k)]
    while unconverged:
        interval = unconverged.pop()
        na, nb = interval[2:]
        if not na < j < nb:
            halves[na >= j].append(interval)
            continue
        out = _write_converged(*dlaebz.run(2, 1, atoli, [interval]), levels) if steps < itmax else None
        if out is None:
            return None
        unconverged += out
        steps += 1

    # an interval that parted earlier has fewer iterations here than in the
    # one call; one left unconverged sends the solve to that call.  Each
    # thread has a dlaebz of its own, with room for every level of its half
    def bisect_half(half):
        own = _Dlaebz(dlaebz.lapack, d, e, e2, pivmin, sum(nb - na for _, _, na, nb in half))
        return _write_converged(*own.run(2, itmax - steps, atoli, half), levels)

    outs = _map_on_two_threads(bisect_half, [half for half in halves if half])
    return levels if all(out == [] for out in outs) else None


def _iterations(width: float, pivmin: float) -> int:
    """dstebz's iteration budget for a search or bisection over a width."""
    return int((math.log(width + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2


def _converged(a: float, b: float, na: int, nb: int, abstol: float, pivmin: float) -> bool:
    """dlaebz's convergence test of the interval (a, b] with counts na, nb."""
    return abs(b - a) < max(abstol, pivmin, _RTOLI * max(abs(b), abs(a))) or na >= nb


def _upper_end(dlaebz: _Dlaebz, k: int, gl: float, gu: float, tnorm: float):
    """WU as ``dstebz``'s search for count k finds it, or None where that
    search would end at a count other than k.

    The search (job 3 started at gu) halves towards gl, c(j+1) = 0.5*(gl +
    c(j)), until it meets a count <= k, then bisects the last step until
    the count is k or the interval has converged.  A computed Sturm count
    does not decrease as the shift grows, so the first point with a count
    <= k is found by binary search over those points, with one-step counts,
    and only the search's last steps are run as it runs them.
    """
    n, pivmin = dlaebz.n, dlaebz.pivmin
    abstol, itmax = _ULP * tnorm, _iterations(tnorm, pivmin)
    points = [gu]
    while len(points) < itmax and not _converged(gl, points[-1], -1, n + 1, abstol, pivmin):
        points.append(0.5 * (gl + points[-1]))
    counts = {}
    before, first = -1, len(points)  # counts > k up to before, <= k from first
    while first - before > 1:
        j = (before + first) // 2
        # the step keeps a count <= k as the lower end's, a larger one as the upper's
        [(_, _, below, above)], _ = dlaebz.run(3, 1, abstol, [(gl, gu, -1, n + 1)], nval=k, start=points[j])
        counts[j] = below if below >= 0 else above
        if counts[j] <= k:
            first = j
        else:
            before = j
    if first == len(points):  # no count <= k
        return None
    # the search's interval after it evaluated points[first]
    a, na = points[first], counts[first]
    b, nb = (points[before], counts[before]) if before >= 0 else (gu, n + 1)
    if na >= k:
        b, nb = a, na
    steps = itmax - first - 1
    if steps > 0 and not _converged(a, b, na, nb, abstol, pivmin):
        [(_, b, _, nb)], _ = dlaebz.run(3, steps, abstol, [(a, b, na, nb)], nval=k, start=0.5 * (a + b))
    return b if nb == k else None


class _Dlaebz:
    """``dlaebz`` on one matrix (d, e, e2), with room for MMAX intervals, for
    one thread: ``run`` keeps its arguments in two arrays of the object's
    own, whose addresses are taken once, so that a call costs a few
    microseconds of Python, not the tens of converting every argument."""

    def __init__(self, lapack: SimpleNamespace, d, e, e2, pivmin: float, mmax: int):
        self.lapack, self.n, self.pivmin = lapack, len(d), pivmin
        # ints: IJOB, NITMAX, N, MMAX, MINP, NBMIN, MOUT, INFO, NVAL(MMAX),
        # NAB(MMAX, 2), IWORK(MMAX); reals: ABSTOL, RELTOL, PIVMIN, C(MMAX),
        # AB(MMAX, 2), WORK(MMAX).  NBMIN is 0, as in dstebz (whose block
        # size for dlaebz is 1, which it passes as 0).  AB and NAB are
        # column-major, so row c of the (2, MMAX) views is column c + 1
        self.ints, self.reals = np.zeros(8 + 4 * mmax, lapack.c_int), np.zeros(3 + 4 * mmax)
        self.ints[2:4], self.reals[1:3] = (self.n, mmax), (_RTOLI, pivmin)
        self.nab = self.ints[8 + mmax:8 + 3 * mmax].reshape(2, mmax)
        self.ab = self.reals[3 + mmax:3 + 3 * mmax].reshape(2, mmax)
        i, w, r = self.ints.ctypes.data, self.ints.itemsize, self.reals.ctypes.data
        self.args = (i, i + w, i + 2 * w, i + 3 * w, i + 4 * w, i + 5 * w, r, r + 8, r + 16,
                     d.ctypes.data, e.ctypes.data, e2.ctypes.data, i + 8 * w, r + 8 * (3 + mmax), r + 24,
                     i + 6 * w, i + (8 + mmax) * w, r + 8 * (3 + 3 * mmax), i + (8 + 3 * mmax) * w, i + 7 * w)
        self.keep = (d, e, e2)  # the arrays whose addresses args holds

    def run(self, job: int, nitmax: int, abstol: float, intervals, nval: int = 0, start: float = 0.0):
        """One call on the intervals (a, b, na, nb), at most MMAX of them,
        with NVAL(1) = nval and C(1) = start (job 3's count and first point
        for the first interval): the intervals out, the converged first for
        job 2, and the info."""
        ints, ab, nab, minp = self.ints, self.ab, self.nab, len(intervals)
        ints[0], ints[1], ints[4], ints[8] = job, nitmax, minp, nval
        self.reals[0], self.reals[3] = abstol, start
        for j, (a, b, na, nb) in enumerate(intervals):
            ab[0, j], ab[1, j], nab[0, j], nab[1, j] = a, b, na, nb
        self.lapack.dlaebz(*self.args)
        mout = int(ints[6]) if job == 2 else minp
        return list(zip(*ab[:, :mout].tolist(), *nab[:, :mout].tolist())), int(ints[7])


def _write_converged(out, info: int, levels: np.ndarray):
    """The intervals out of a job-2 call, converged first, that have not
    converged, after each converged one has written its midpoint to
    levels[na:nb], as ``dstebz`` does; None where info is not their count."""
    if not 0 <= info <= len(out):
        return None
    for a, b, na, nb in out[: len(out) - info]:
        levels[na:nb] = 0.5 * (a + b)
    return out[len(out) - info:]
