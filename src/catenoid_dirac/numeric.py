"""Independent verification engine.

Finite-difference Hamiltonians on uniform grids, a symmetric tridiagonal
eigensolver, 5-point derivatives and the trapezoid norm, all oblivious to
the closed-form results they are used to check.
``WavefunctionSamples`` pairs sampled values with their grid, as
``analytic.energy_dependent_branch`` returns them.

Every level solve of the CLI goes through one function per grid family,
each on SPECTRUM_POINTS points: ``compact_levels`` (the compact coordinate
r, clipped by R_DELTA at its ends), ``scarf_levels`` (the Scarf coordinate
x, clipped by X_DELTA at +-pi/2) and ``box_levels`` (u in [-10, 10]).

The eigensolver is LAPACK's Sturm-sequence bisection (``dstebz``, with
``dlaebz``), called through ctypes from the LAPACK that numpy links
(module ``_lapack``, imported on the first eigensolve).  ``eigen_tridiagonal``
returns the levels of one ``dstebz`` call bit for bit, from two threads
that each bisect one half of that call's bisection tree; the second thread
pays only when a second core is free.  ``_map_on_two_threads`` starts
every thread of the package: an ordered stream of results, worked in turn
on the calling thread and on one helper thread, which the eigensolver
reads for its two halves and the CSV writer for its chunks.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Grid",
    "WavefunctionSamples",
    "TridiagonalOperator",
    "SpectrumResult",
    "discretize",
    "discretize_sturm_liouville",
    "eigen_tridiagonal",
    "compact_levels",
    "scarf_levels",
    "box_levels",
    "second_derivative",
    "first_derivative",
    "trapezoid_norm",
]

X_DELTA = 1e-4  # clip distance of the Scarf x-grid from the +-pi/2 singularities
R_DELTA = 1e-6  # clip distance of the compact coordinate from its r = +-1 ends
SPECTRUM_POINTS = 4001  # points of every grid the CLI solves levels on


@dataclass(frozen=True)
class Grid:
    """Uniform grid with at least 16 points."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"grid ends must be finite, got [{self.min}, {self.max}]")
        if not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"grid point count must be an integer, got {self.count!r}")
        if self.count < 16:
            raise ValueError(f"grid needs at least 16 points, got {self.count}")
        if not self.max > self.min:
            raise ValueError("grid max must exceed min")

    @property
    def h(self) -> float:
        return (self.max - self.min) / (self.count - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass
class WavefunctionSamples:
    """Function values sampled on a grid."""

    grid: Grid
    values: np.ndarray


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix (single off-diagonal array)."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self):
        if len(self.offdiagonal) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal must be one shorter than diagonal")


@dataclass
class SpectrumResult:
    """Lowest k eigenvalues, ascending, and the grid they were solved on."""

    eigenvalues: np.ndarray
    grid: Optional[Grid]


def discretize(V: Callable, grid: Grid) -> TridiagonalOperator:
    """Second-order discretization of -d^2/dz^2 + V with Dirichlet ends."""
    return discretize_sturm_liouville(np.ones_like, V, grid)


def discretize_sturm_liouville(
    p: Callable, q: Callable, grid: Grid
) -> TridiagonalOperator:
    """Discretize -(p(z) f')' + q(z) f with Dirichlet ends.

    Uses midpoint sampling of p, which keeps the matrix symmetric.
    """
    x = grid.points
    h = grid.h
    h2 = h**2
    # midpoints including the two ghost midpoints just outside the ends,
    # so Dirichlet endpoints carry the full two-sided stiffness
    mid = np.concatenate(([x[0] - 0.5 * h], 0.5 * (x[:-1] + x[1:]), [x[-1] + 0.5 * h]))
    p_mid = np.asarray(p(mid), dtype=float)
    qv = np.asarray(q(x), dtype=float)
    if not (np.all(np.isfinite(p_mid)) and np.all(np.isfinite(qv))):
        raise ValueError("coefficients are not finite on the grid")
    diag = qv + (p_mid[:-1] + p_mid[1:]) / h2
    return TridiagonalOperator(diagonal=diag, offdiagonal=-p_mid[1:-1] / h2)


def eigen_tridiagonal(
    op: TridiagonalOperator, k: int, grid: Optional[Grid] = None
) -> SpectrumResult:
    """Lowest k eigenvalues by Sturm-sequence bisection (LAPACK ``dstebz``).

    The levels are bit for bit those of one ``dstebz`` call for levels 1..k
    with tolerance 0, the call ``scipy.linalg.eigh_tridiagonal(d, e,
    eigvals_only=True, select="i", select_range=(0, k - 1))`` makes.  The
    calling thread splits that call's bisection tree where levels k // 2
    and k // 2 + 1 part, and it and one helper thread bisect one half each
    (``_lapack.lowest_levels``), with the call's own Sturm counts, fewer in
    its search for the upper end of the levels' interval and none in that
    for the lower end; the second thread saves time when a second core is
    free.  The entries of op must be finite and k an integer in [1,
    len(op.diagonal)].
    """
    d, e = op.diagonal, op.offdiagonal
    n = len(d)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"level count k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"level count k must be in [1, {n}], got {k}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("operator entries must be finite")
    from . import _lapack

    return SpectrumResult(eigenvalues=_lapack.lowest_levels(d, e, int(k)), grid=grid)


def compact_levels(q: Callable, k: int) -> SpectrumResult:
    """Lowest k levels of -((1 - r^2) f')' + q(r) f with Dirichlet ends on
    the compact coordinate r in [-1 + R_DELTA, 1 - R_DELTA]."""
    grid = Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, SPECTRUM_POINTS)
    return eigen_tridiagonal(discretize_sturm_liouville(lambda r: 1.0 - r * r, q, grid), k, grid=grid)


def scarf_levels(V: Callable, k: int) -> SpectrumResult:
    """Lowest k levels of -f'' + V(x) f with Dirichlet ends on the Scarf
    coordinate x in [-pi/2 + X_DELTA, pi/2 - X_DELTA]."""
    grid = Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, SPECTRUM_POINTS)
    return eigen_tridiagonal(discretize(V, grid), k, grid=grid)


def box_levels(V: Callable, k: int) -> SpectrumResult:
    """Lowest k levels of -f'' + V(u) f with Dirichlet ends on u in [-10, 10]."""
    grid = Grid(-10.0, 10.0, SPECTRUM_POINTS)
    return eigen_tridiagonal(discretize(V, grid), k, grid=grid)


def second_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """5-point second derivative on interior points, one-sided at the ends."""
    f = np.asarray(f)
    d2 = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    d2[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    # 4th-order one-sided stencils for the two points at each end
    c = np.array([45, -154, 214, -156, 61, -10], dtype=float) / 12.0
    for i in (0, 1):
        d2[i] = np.dot(c, f[i : i + 6]) / (h * h)
        d2[-1 - i] = np.dot(c, f[-1 - i : -7 - i : -1]) / (h * h)
    return d2


def first_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """5-point first derivative on interior points, one-sided at the ends."""
    f = np.asarray(f)
    d1 = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    d1[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    c = np.array([-25, 48, -36, 16, -3], dtype=float) / 12.0
    for i in (0, 1):
        d1[i] = np.dot(c, f[i : i + 5]) / h
        d1[-1 - i] = -np.dot(c, f[-1 - i : -6 - i : -1]) / h
    return d1


def trapezoid_norm(values, u, weight=1.0) -> float:
    """sqrt of the trapezoid integral of weight*values^2 over the samples u.

    A norm that is zero, infinite or NaN, which no division can normalize,
    raises ValueError.
    """
    norm = math.sqrt(np.trapezoid(weight * values**2, u))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"cannot normalize a function whose weighted norm on the grid is {norm or 'zero'}")
    return norm


def _map_on_two_threads(work: Callable, items: Sequence) -> Iterator:
    """Yields work(item) for each item, in order.  The items at even places
    are worked on the calling thread as the stream is read; those at odd
    places on one helper thread, started at the first read, which hands
    each result over through a one-slot queue and starts its next item at
    once.  What the helper raised is raised here in its item's place.
    Whether the stream ends, raises or is closed early, the helper is
    joined first, after its item in hand at most."""
    if len(items) < 2:
        yield from map(work, items)
        return
    handoff, stop = queue.Queue(maxsize=1), threading.Event()

    def run():
        for item in items[1::2]:
            try:
                handoff.put(work(item))
            except BaseException as exc:  # raised again on the calling thread
                handoff.put(exc)
                return
            if stop.is_set():
                return

    def take():
        result = handoff.get()
        if isinstance(result, BaseException):
            raise result
        return result

    thread = threading.Thread(target=run)
    thread.start()
    try:  # no local keeps a result that was read while the next is worked
        for place, item in enumerate(items):
            yield take() if place % 2 else work(item)
    finally:
        stop.set()
        if handoff.full():  # the helper puts at most once more, then sees stop
            handoff.get()
        thread.join()
