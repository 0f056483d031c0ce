"""Independent verification engine.

Finite-difference Hamiltonians on uniform grids, a symmetric tridiagonal
eigensolver, ODE residual evaluation, the trapezoid norm, node and
maxima counting, and bracketed root finding.  Everything here is oblivious
to the closed-form results it is used to check.
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
    "ode_residual",
    "second_derivative",
    "first_derivative",
    "trapezoid_norm",
    "count_features",
    "solve_bracketed",
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
    read, from the stored operator, with columns normalized so that
    sum(f**2) * h = 1 (h = 1 without a grid).  Later reads return the same
    array.
    """

    eigenvalues: np.ndarray
    grid: Optional[Grid]
    operator: TridiagonalOperator = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        from scipy.linalg import eigh_tridiagonal

        k = len(self.eigenvalues)
        _, vecs = eigh_tridiagonal(
            self.operator.diagonal, self.operator.offdiagonal, select="i", select_range=(0, k - 1)
        )
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
    """Lowest k eigenvalues by Sturm-sequence bisection.

    Eigenvectors are solved for only when the result's ``eigenvectors`` is
    first read (see SpectrumResult).
    """
    n = len(op.diagonal)
    if not 1 <= k <= n:
        raise ValueError(f"eigenpair count k must be in [1, {n}], got {k}")
    # imported here, so that importing the package and the commands that never
    # eigensolve do not load scipy
    from scipy.linalg import eigh_tridiagonal

    vals = eigh_tridiagonal(
        op.diagonal, op.offdiagonal, eigvals_only=True, select="i", select_range=(0, k - 1)
    )
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


def ode_residual(f: np.ndarray, V, E: float, grid: Grid) -> float:
    """Sup norm of (-f'' + V f - E f)/||f||_inf over interior points."""
    f = np.asarray(f)
    if len(f) != grid.count:
        raise ValueError("sample count does not match grid")
    v = V(grid.points) if callable(V) else np.asarray(V)
    res = -second_derivative(f, grid.h) + v * f - E * f
    scale = np.max(np.abs(f))
    if scale == 0.0:
        raise ValueError("zero function has no normalized residual")
    return float(np.max(np.abs(res[2:-2])) / scale)


def trapezoid_norm(values, u, weight=1.0) -> float:
    """sqrt of the trapezoid integral of weight*values^2 over the samples u.

    A zero norm, which no division can normalize, raises ValueError.
    """
    norm = math.sqrt(np.trapezoid(weight * values**2, u))
    if norm == 0.0:
        raise ValueError("cannot normalize a function whose weighted norm on the grid is zero")
    return norm


def count_features(f: np.ndarray) -> tuple[int, int]:
    """(interior sign changes of f, local maxima of |f|^2 above 1e-9*peak).

    Samples with |f| below 1e-9 of the peak are treated as zero so that
    round-off noise in eigenvector tails does not register as features.
    Plateaus (including a constant function) count as a single maximum.
    Non-finite samples raise ValueError.
    """
    f = np.asarray(f)
    if len(f) < 3:
        raise ValueError("need at least 3 samples")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples are not finite")
    peak = np.max(np.abs(f))
    if peak == 0.0:
        return 0, 0
    sign = np.sign(np.where(np.abs(f) > 1e-9 * peak, f, 0.0))
    nz = sign[sign != 0]
    changes = int(np.sum(nz[:-1] * nz[1:] < 0))
    d = np.abs(f) ** 2
    floor = 1e-9 * np.max(d)
    # collapse each plateau to one sample, then count strict local maxima
    c = d[np.r_[True, d[1:] != d[:-1]]]
    e = np.r_[-np.inf, c, -np.inf]
    maxima = int(np.sum((c > e[:-2]) & (c > e[2:]) & (c > floor)))
    return changes, maxima


def solve_bracketed(g: Callable, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection; requires a sign change on [lo, hi] and finite g."""

    def finite_g(x: float) -> float:
        gx = g(x)
        if not math.isfinite(gx):
            raise ValueError(f"g({x!r}) = {gx!r} is not finite")
        return gx

    glo, ghi = finite_g(lo), finite_g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = finite_g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0.0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)
