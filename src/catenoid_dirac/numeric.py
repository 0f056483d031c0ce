"""Independent verification engine.

Finite-difference Hamiltonians on uniform grids, a symmetric tridiagonal
eigensolver, 5-point derivatives and the trapezoid norm, all oblivious to
the closed-form results they are used to check.
``WavefunctionSamples`` pairs sampled values with their grid, as
``analytic.energy_dependent_branch`` returns them.

The eigensolver is LAPACK's Sturm-sequence bisection (``dstebz``, with
``dlaebz``) and inverse iteration (``dstein``), called through ctypes from
the LAPACK that scipy's compiled extension ``scipy/linalg/_flapack`` links
(module ``_lapack``, imported on the first eigensolve); no scipy module is
imported.  ``eigen_tridiagonal`` returns the levels of one ``dstebz`` call
bit for bit, from two threads that walk that call's bisection tree from one
work queue; the second thread pays only when a second core is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Grid",
    "WavefunctionSamples",
    "TridiagonalOperator",
    "SpectrumResult",
    "discretize",
    "discretize_sturm_liouville",
    "eigen_tridiagonal",
    "second_derivative",
    "first_derivative",
    "trapezoid_norm",
]


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
    """Lowest k eigenvalues, ascending, and their eigenvectors on demand.

    ``eigenvectors`` (shape (count, k)) is solved for the first time it is
    read, from the stored operator, on the calling thread: LAPACK ``dstein``
    finds the vectors of the levels in ``eigenvalues`` by inverse iteration
    (``_lapack.eigenvectors``; only for a matrix that splits does ``dstebz``
    in block order first find the levels' block numbers), and the columns
    are sorted by level and normalized so that sum(f**2) * h = 1 (h = 1
    without a grid).  Later reads return the same array.
    """

    eigenvalues: np.ndarray
    grid: Optional[Grid]
    operator: TridiagonalOperator = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        from . import _lapack

        vecs = _lapack.eigenvectors(self.operator.diagonal, self.operator.offdiagonal, self.eigenvalues)
        h = self.grid.h if self.grid is not None else 1.0
        return vecs / np.sqrt(np.sum(vecs**2 * h, axis=0))


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
    eigvals_only=True, select="i", select_range=(0, k - 1))`` makes.  Two
    threads walk that call's bisection tree from one work queue
    (``_lapack.lowest_levels``), with the call's own Sturm counts, fewer in
    its search for the upper end of the levels' interval and none in that
    for the lower end; the second thread saves time when a second core is
    free.  The entries of op must be finite and k an integer in [1,
    len(op.diagonal)].  Eigenvectors are solved for only when the result's
    ``eigenvectors`` is first read (see SpectrumResult).
    """
    d, e = op.diagonal, op.offdiagonal
    n = len(d)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"eigenpair count k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"eigenpair count k must be in [1, {n}], got {k}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("operator entries must be finite")
    from . import _lapack

    vals = _lapack.lowest_levels(d, e, int(k))
    return SpectrumResult(eigenvalues=vals, grid=grid, operator=op)


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

    A zero norm, which no division can normalize, raises ValueError.
    """
    norm = math.sqrt(np.trapezoid(weight * values**2, u))
    if norm == 0.0:
        raise ValueError("cannot normalize a function whose weighted norm on the grid is zero")
    return norm
