"""LAPACK's symmetric tridiagonal eigensolver through ctypes.

The routines ``dstebz`` and ``dlaebz`` (Sturm-sequence bisection) and
``dstein`` (inverse iteration) of the LAPACK that scipy's compiled extension
``scipy/linalg/_flapack`` links, opened without importing any scipy module,
and ``lowest_levels``, which splits one ``dstebz`` call over two threads and
returns its levels bit for bit.  ``numeric`` imports this module on its first
eigensolve, so importing the package compiles and opens none of it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import threading
from functools import cache
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np


def lowest_levels(d, e, k: int) -> np.ndarray:
    """Levels 1..k of the symmetric tridiagonal (d, e), ascending: those of
    one ``dstebz`` call in index mode with tolerance 0, bit for bit, from two
    threads where ``_levels_on_two_threads`` can repeat that call and from
    the call itself elsewhere."""
    d, e = _float_array(d), _float_array(e)
    levels = _levels_on_two_threads(d, e, k)
    if levels is None:
        levels = dstebz(b"I", b"E", d, e, 0.0, 1.0, 1, k, 0.0)[0]
    return levels


def eigenvectors(d, e, k: int) -> np.ndarray:
    """Unnormalized eigenvectors of levels 1..k of (d, e) as columns in
    ascending order of level: ``dstebz`` in block order, then ``dstein``, on
    the calling thread."""
    d, e = _float_array(d), _float_array(e)
    n = len(d)
    w, iblock, isplit = dstebz(b"I", b"B", d, e, 0.0, 1.0, 1, k, 0.0)
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


def dstebz(range_: bytes, order: bytes, d, e, vl, vu, il, iu, abstol):
    """LAPACK dstebz on contiguous float arrays (d, e): the levels it finds
    and their block numbers, and the block ends; vl, vu, il, iu and abstol
    as in LAPACK.  A nonzero info raises LinAlgError."""
    n = len(d)
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.int32), np.empty(n, np.int32)
    _fortran(handle().dstebz, range_, order, n, float(vl), float(vu), int(il), int(iu), float(abstol),
             d, e, m, nsplit, w, iblock, isplit, np.empty(4 * n), np.empty(3 * n, np.int32), info)
    _check_info(info.value, "dstebz")
    return w[: m.value].copy(), iblock[: m.value], isplit


# LAPACK's dlamch("P") and dlamch("S"), and the constants of dstebz
_ULP, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_FUDGE, _RTOLI = 2.1, 2.0 * _ULP


def _levels_on_two_threads(d: np.ndarray, e: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Levels 1..k of (d, e) as one ``dstebz`` call in index mode with
    tolerance 0 gives them, computed on two threads; None where that call
    cannot be repeated this way.

    That call finds WL and WU, with no level at or below WL and k levels at
    or below WU, by two Sturm-count searches (``dlaebz`` job 3), then bisects
    (WL, WU], clipped to its Gershgorin bounds, at midpoints 0.5*(a + b)
    until each level's interval has converged (``dlaebz`` job 2).  Here the
    two searches run one per thread, with the call's set-up arithmetic
    copied.  Each interval of the bisection then evolves on its own, so
    when neither half nor any quarter of the clipped interval is narrow
    enough to have converged, ``dstebz`` in value mode on each quarter, with
    the call's tolerance, repeats the call's steps inside that quarter:
    quarters 1 and 3 run on the calling thread, 2 and 4 on a helper thread
    (the lower levels lie denser, so the pairs even out, and the thread
    that starts later gets the lighter pair), and the results are
    concatenated.  Likewise the calling thread runs the longer search.
    A matrix that splits, k = n (where ``dstebz`` takes all levels at once)
    and searches that do not end at counts 0 and k (where it discards
    levels) return None, as do the cases below.
    """
    n = len(d)
    e2 = e * e
    if k == n or not np.all(np.abs(d[1:] * d[:-1]) * _ULP**2 + _TINY <= e2):
        return None
    pivmin = max(1.0, float(e2.max())) * _TINY
    # Gershgorin bounds, widened: gl and gu for the searches, low and gu for
    # the bisection (dstebz forms the latter from |e|, which equals
    # sqrt(e*e) exactly in binary floating point).  The searches' tolerance
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
    atoli = _ULP * max(abs(low), abs(gu))
    itmax = int((math.log(tnorm + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    lapack = handle()

    def search(count: int, start: float):
        ab, nab = np.array([gl, gu]), np.array([-1, n + 1], np.int32)
        # dstebz ignores this job's info, and so does this copy
        _fortran(lapack.dlaebz, 3, itmax, n, 1, 1, 0, _ULP * tnorm, _RTOLI, pivmin, d, e, e2,
                 np.array([count], np.int32), ab, np.array([start]), ctypes.c_int(), nab,
                 np.empty(1), np.empty(1, np.int32), ctypes.c_int())
        return ab, nab

    (ab_wl, nab_wl), (ab_wu, nab_wu) = _on_two_threads(lambda: search(0, gl), lambda: search(k, gu))
    if nab_wl[0] != 0 or nab_wu[1] != k:
        return None
    lo, hi = max(low, float(ab_wl[0])), min(gu, float(ab_wu[1]))
    mid = 0.5 * (lo + hi)
    ends = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
    # dlaebz's convergence test, negated so that a NaN end fails it too
    if not all(b - a >= max(atoli, pivmin, _RTOLI * max(abs(a), abs(b)))
               for a, b in [(lo, mid), (mid, hi), *zip(ends, ends[1:])]):
        return None

    def quarters(first: int):
        return [dstebz(b"V", b"E", d, e, ends[q], ends[q + 1], 0, 0, atoli)[0] for q in (first, first + 2)]

    (q2, q4), (q1, q3) = _on_two_threads(lambda: quarters(1), lambda: quarters(0))
    levels = np.concatenate([q1, q2, q3, q4])
    # value mode counts at the quarter ends with dlaebz job 1, the one call
    # inside (WL, WU] with job 2; the two differ only at a pivot equal to
    # pivmin, where the counts could disagree
    return levels if len(levels) == k else None


def _on_two_threads(first: Callable, second: Callable) -> tuple:
    """(first(), second()): first on a new thread, second on this one.

    The new thread is joined before this returns or raises, and an
    exception that first raised is raised here.
    """
    outcome = {}

    def run():
        try:
            outcome["value"] = first()
        except Exception as exc:  # raised again on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        second_value = second()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"], second_value
