"""LAPACK's symmetric tridiagonal eigensolver through ctypes.

The routines ``dstebz`` and ``dlaebz`` (Sturm-sequence bisection) and
``dstein`` (inverse iteration) of the LAPACK that scipy's compiled extension
``scipy/linalg/_flapack`` links, opened without importing any scipy module;
``lowest_levels``, which walks the bisection tree of one ``dstebz`` call
from a work queue that two threads drain and returns that call's levels bit
for bit; and ``eigenvectors``, which runs ``dstein`` on levels already
found.  ``numeric`` imports this module on its first eigensolve, so
importing the package compiles and opens none of it.
"""

from __future__ import annotations

import bisect
import ctypes
import importlib.machinery
import importlib.util
import math
import os
import threading
from functools import cache, partial
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np


def lowest_levels(d, e, k: int) -> np.ndarray:
    """Levels 1..k of the symmetric tridiagonal (d, e), ascending: those of
    one ``dstebz`` call in index mode with tolerance 0, bit for bit, from
    the two-thread bisection queue of ``_levels_from_queue`` where it can
    repeat that call's steps and from the call itself elsewhere."""
    d, e = _float_array(d), _float_array(e)
    levels = _levels_from_queue(d, e, k)
    return dstebz(b"E", d, e, k)[0] if levels is None else levels


def eigenvectors(d, e, levels) -> np.ndarray:
    """Unnormalized eigenvectors of (d, e) as columns in ascending order of
    level, by ``dstein`` on the calling thread, for ``levels``: levels 1..k
    of (d, e) as ``lowest_levels`` returns them.  A matrix that does not
    split is one block, in which ``dstebz`` gives these levels in this
    order, so ``dstein`` takes them as they are; for a matrix that splits,
    ``dstebz`` in block order finds them again with their block numbers."""
    d, e = _float_array(d), _float_array(e)
    n = len(d)
    if _splits(d, e * e):
        w, iblock, isplit = dstebz(b"B", d, e, len(levels))
    else:
        w, iblock, isplit = _float_array(levels), np.ones(len(levels), np.int32), np.array([n], np.int32)
    m = len(w)
    vecs = np.empty((n, m), order="F")
    info = ctypes.c_int()
    _fortran(handle().dstein, n, d, e, m, w, iblock, isplit, vecs, n,
             np.empty(5 * n), np.empty(n, np.int32), np.empty(m, np.int32), info)
    _check_info(info.value, "dstein")
    return vecs[:, np.argsort(w)]


# the routines used, with their argument counts; each CHARACTER argument adds
# a hidden length argument at the end of the gfortran calling convention
_ROUTINES = {"dstebz": (18, 2), "dlaebz": (20, 0), "dstein": (13, 0)}


@cache
def handle() -> SimpleNamespace:
    """``dstebz``, ``dlaebz`` and ``dstein`` of the LAPACK that scipy's
    compiled extension ``scipy/linalg/_flapack`` links, as ctypes functions.

    The extension's file is opened with ``ctypes.CDLL``, which runs none of
    its Python initialization, and each routine is looked up through the
    libraries it depends on: a scipy wheel's LAPACK spells ``dstebz`` as
    ``scipy_dstebz_``, a system LAPACK as ``dstebz_``.  No scipy module is
    imported, and a later ``import scipy.linalg`` initializes the extension
    as usual.  A ctypes call releases the interpreter lock, so two threads
    can bisect at once.  The handle is opened once per process.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("the eigensolver needs scipy, which is not installed")
    folder = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy {_scipy_version()} has no compiled extension _flapack in {folder}")
    library = ctypes.CDLL(path)
    for prefix in ("scipy_", ""):
        try:
            found = {name: getattr(library, f"{prefix}{name}_") for name in _ROUTINES}
        except AttributeError:
            continue
        for name, routine in found.items():
            count, lengths = _ROUTINES[name]
            routine.argtypes = [ctypes.c_void_p] * count + [ctypes.c_size_t] * lengths
            routine.restype = None
        return SimpleNamespace(**found)
    raise ImportError(
        f"scipy {_scipy_version()}: the LAPACK that {path} links exports neither "
        "scipy_dstebz_ nor dstebz_ (with dlaebz and dstein)"
    )


def _scipy_version() -> str:
    from importlib.metadata import version

    return version("scipy")


def _fortran(routine, *args) -> None:
    """Call a Fortran routine: an int or float by reference to a Fortran
    INTEGER or DOUBLE PRECISION, an array (contiguous, of the routine's
    type) or a ctypes scalar by its address, and bytes as a CHARACTER
    argument, whose hidden length goes after all the other arguments."""
    refs, lengths = [], []
    for arg in args:
        if isinstance(arg, np.ndarray):
            refs.append(arg.ctypes.data)
        elif isinstance(arg, bytes):
            refs.append(arg)
            lengths.append(len(arg))
        elif isinstance(arg, int):
            refs.append(ctypes.byref(ctypes.c_int(arg)))
        elif isinstance(arg, float):
            refs.append(ctypes.byref(ctypes.c_double(arg)))
        else:
            refs.append(ctypes.byref(arg))
    routine(*refs, *lengths)


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


def _float_array(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float)


def dstebz(order: bytes, d, e, k: int):
    """LAPACK dstebz for levels 1..k of contiguous float arrays (d, e), in
    index mode with tolerance 0 and in order b"E" (ascending) or b"B" (by
    block): the levels and their block numbers, and the block ends.  A
    nonzero info raises LinAlgError."""
    n = len(d)
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.int32), np.empty(n, np.int32)
    _fortran(handle().dstebz, b"I", order, n, 0.0, 1.0, 1, int(k), 0.0,
             d, e, m, nsplit, w, iblock, isplit, np.empty(4 * n), np.empty(3 * n, np.int32), info)
    _check_info(info.value, "dstebz")
    return w[: m.value].copy(), iblock[: m.value], isplit


# LAPACK's dlamch("P") and dlamch("S"), and the constants of dstebz
_ULP, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_FUDGE, _RTOLI = 2.1, 2.0 * _ULP


def _splits(d: np.ndarray, e2: np.ndarray) -> bool:
    """Whether ``dstebz`` splits (d, e) into blocks, e2 = e*e."""
    return not np.all(np.abs(d[1:] * d[:-1]) * _ULP**2 + _TINY <= e2)


def _levels_from_queue(d: np.ndarray, e: np.ndarray, k: int) -> Optional[np.ndarray]:
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
    bisection evolves on its own, with the iterations the call has left for
    it, so two threads walk the call's tree from one queue
    (``_BisectionQueue``) and every Sturm count is one the call makes.  A
    matrix that splits, k = n (where ``dstebz`` takes all levels at once),
    counts at the ends of (low, WU] other than 0 and k (where it discards
    levels), an interval the call leaves unconverged and a nonzero
    ``dlaebz`` info return None.
    """
    n = len(d)
    e2 = e * e
    if k == n or _splits(d, e2):
        return None
    pivmin = max(1.0, float(e2.max())) * _TINY
    # Gershgorin bounds, widened: gl and gu for the search, low and gu for
    # the bisection (dstebz forms the latter from |e|, which equals
    # sqrt(e*e) exactly in binary floating point).  The search's tolerance
    # is ulp*tnorm; the bisection's, atoli, dstebz recomputes from its bounds
    root = np.sqrt(e2)
    gl = float(np.min(d - np.r_[0.0, root] - np.r_[root, 0.0]))
    gu = float(np.max(d + np.r_[0.0, root] + np.r_[root, 0.0]))
    tnorm = max(abs(gl), abs(gu))
    widen = _FUDGE * tnorm * _ULP * n
    low = gl - widen - _FUDGE * pivmin
    gl, gu = gl - widen - _FUDGE * 2.0 * pivmin, gu + widen + _FUDGE * pivmin
    if not (math.isfinite(gl) and math.isfinite(gu)):
        return None
    dlaebz = partial(_Dlaebz, handle().dlaebz, d, e, e2, pivmin)
    wu = _upper_end(dlaebz(), k, gl, gu, tnorm)
    if wu is None or not low < min(gu, wu):
        return None
    hi = min(gu, wu)
    queue = _BisectionQueue(dlaebz, _ULP * max(abs(low), abs(gu)), k, _iterations(hi - low, pivmin))
    if not queue.open(low, hi):
        return None
    _on_two_threads(queue.drain)
    return None if queue.stopped else queue.levels


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
        [(_, _, below, above)], _ = dlaebz.run(3, 1, abstol, gl, gu, -1, n + 1, nval=k, start=points[j])
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
        [(_, b, _, nb)], _ = dlaebz.run(3, steps, abstol, a, b, na, nb, nval=k, start=0.5 * (a + b))
    return b if nb == k else None


class _Dlaebz:
    """``dlaebz`` on one matrix (d, e, e2) for one thread, one interval in.

    The scalar and interval arguments live in two small arrays whose
    addresses are taken once, so that a call costs a few microseconds of
    Python, not the tens that ``_fortran`` spends converting arguments.
    """

    def __init__(self, routine, d, e, e2, pivmin: float):
        self.routine, self.n, self.pivmin = routine, len(d), pivmin
        # ints: IJOB, NITMAX, N, MMAX, MINP, NBMIN, NVAL, MOUT, INFO,
        # NAB(2, 2), IWORK(2); reals: ABSTOL, RELTOL, PIVMIN, AB(2, 2),
        # C(2), WORK(2).  MINP is 1 and NBMIN 0, as in dstebz (whose block
        # size for dlaebz is 1, which it passes as 0)
        self.ints, self.reals = np.zeros(15, np.int32), np.zeros(11)
        self.ints[2], self.ints[4] = self.n, 1
        self.reals[1], self.reals[2] = _RTOLI, pivmin
        i, r = self.ints.ctypes.data, self.reals.ctypes.data
        self.args = (i, i + 4, i + 8, i + 12, i + 16, i + 20, r, r + 8, r + 16,
                     d.ctypes.data, e.ctypes.data, e2.ctypes.data, i + 24, r + 24, r + 56,
                     i + 28, i + 36, r + 72, i + 52, i + 32)
        self.keep = (d, e, e2)  # the arrays whose addresses args holds

    def run(self, job: int, nitmax: int, abstol: float, a: float, b: float, na: int, nb: int,
            nval: int = 0, start: float = 0.0):
        """One call on the interval (a, b] with counts na, nb, and MMAX = 2
        (room for one split) for job 2, 1 otherwise: the intervals out as
        (a, b, na, nb), the converged first, and the info."""
        ints, reals = self.ints, self.reals
        mmax = 2 if job == 2 else 1
        ints[0], ints[1], ints[3], ints[6], ints[9], ints[9 + mmax] = job, nitmax, mmax, nval, na, nb
        reals[0], reals[3], reals[3 + mmax], reals[7] = abstol, a, b, start
        self.routine(*self.args)
        mout = int(ints[7]) if job == 2 else 1
        ab, nab = reals[3:3 + 2 * mmax].tolist(), ints[9:9 + 2 * mmax].tolist()
        return [(ab[j], ab[mmax + j], nab[j], nab[mmax + j]) for j in range(mout)], int(ints[8])


class _BisectionQueue:
    """The job-2 bisection of one ``dstebz`` call over (lo, hi], walked by
    any number of threads that call ``drain``, each with its own
    ``_Dlaebz`` from the factory dlaebz.

    Each thread takes the interval that holds the most levels.  One with
    two or more levels takes one ``dlaebz`` job-2 step, which evaluates the
    midpoint the one call evaluates and applies its clamp, update, split
    and convergence test; one with a single level is bisected to
    convergence by one job-2 call with the iterations the one call has left
    for it; a converged interval writes its midpoint to levels[na:nb], as
    ``dstebz`` does.  ``stopped`` is set when the one call would leave an
    interval unconverged, when ``dlaebz`` reports an info the one call
    would not see, or when a thread raised.
    """

    def __init__(self, dlaebz: Callable[[], _Dlaebz], atoli: float, k: int, itmax: int):
        self.dlaebz, self.atoli, self.k, self.itmax = dlaebz, atoli, k, itmax
        self.levels = np.empty(k)
        self.pending = []  # (levels held, -na, (a, b, na, nb, depth)), ascending
        self.busy = 0
        self.stopped = False
        self.lock = threading.Condition()

    def open(self, lo: float, hi: float) -> bool:
        """Queue (lo, hi] with the job-1 counts ``dstebz`` takes there;
        False where those are not 0 and k."""
        [(_, _, nl, nu)], _ = self.dlaebz().run(1, 0, self.atoli, lo, hi, 0, 0)
        if (nl, nu) != (0, self.k):
            return False
        self._push([(lo, hi, 0, self.k, 0)])
        return True

    def _push(self, intervals) -> None:
        for interval in intervals:
            bisect.insort(self.pending, (interval[3] - interval[2], -interval[2], interval))

    def drain(self) -> None:
        dlaebz = self.dlaebz()
        while True:
            with self.lock:
                while not self.pending and self.busy and not self.stopped:
                    self.lock.wait()
                if self.stopped or not self.pending:
                    return
                interval = self.pending.pop()[2]
                self.busy += 1
            unconverged = None
            try:
                unconverged = self._bisect(dlaebz, *interval)
            finally:
                with self.lock:
                    self.busy -= 1
                    if unconverged is None:
                        self.stopped = True
                    else:
                        self._push(unconverged)
                    self.lock.notify_all()

    def _bisect(self, dlaebz: _Dlaebz, a: float, b: float, na: int, nb: int, depth: int):
        """Bisect one interval as the one call does: the intervals that are
        left unconverged, or None where the one call would stop unconverged
        or dlaebz reports an info it would not."""
        if depth >= self.itmax:
            return None
        single = nb - na == 1
        out, info = dlaebz.run(2, self.itmax - depth if single else 1, self.atoli, a, b, na, nb)
        if not 0 <= info <= len(out) or single and info:
            return None
        converged = len(out) - info
        for a, b, na, nb in out[:converged]:
            self.levels[na:nb] = 0.5 * (a + b)
        return [(*interval, depth + 1) for interval in out[converged:]]


def _on_two_threads(work: Callable[[], None]) -> None:
    """work() on a new thread and on this one at once; the new thread is
    joined before this returns or raises, and what it raised is raised here."""
    errors = []

    def run():
        try:
            work()
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        work()
    finally:
        thread.join()
    if errors:
        raise errors[0]
