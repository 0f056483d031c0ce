"""Test oracles: the finite-difference ODE residual and node and maxima
counting on sampled functions, and the eigenvectors of a tridiagonal
operator.  No package code calls them."""

import numpy as np

from catenoid_dirac.numeric import Grid, TridiagonalOperator, second_derivative


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


def eigenvectors(op: TridiagonalOperator, k: int) -> np.ndarray:
    """Eigenvectors of the lowest k levels of op as columns, from scipy's
    eigh_tridiagonal: stebz of scipy's own LAPACK, whose levels are those
    eigen_tridiagonal takes from numpy's, bit for bit, then stein for the
    vectors."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(op.diagonal, op.offdiagonal, select="i", select_range=(0, k - 1))[1]
