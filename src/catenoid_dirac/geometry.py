"""Catenoid surface: embedding, metric, Gaussian curvature, spin connection.

The surface of revolution with throat radius R is parametrized by the
meridian coordinate u (u = 0 at the throat) and the parallel angle phi.
All quantities are closed-form; the test suite cross-checks them against
finite-difference constructions from the embedding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CatenoidParams",
    "embed",
    "metric_coefficient",
    "gaussian_curvature",
    "spin_connection",
]


@dataclass(frozen=True)
class CatenoidParams:
    """Throat radius of the catenoid bridge.

    R > 0, and R^2, which every formula uses, must be a finite normal
    float: about 1.5e-154 < R < 1.3e154.
    """

    R: float

    def __post_init__(self):
        if not (self.R > 0.0) or not math.isfinite(self.R):
            raise ValueError(f"bridge radius must be positive, got {self.R}")
        if not sys.float_info.min <= self.R * self.R < math.inf:
            raise ValueError(f"bridge radius {self.R} is out of range: R^2 underflows or overflows")


def embed(params: CatenoidParams, u: float, phi: float) -> np.ndarray:
    """Cartesian position (x, y, z) of the surface point (u, phi)."""
    rho = math.hypot(params.R, u)
    # asinh is the numerically stable log form for large |u/R|
    z = params.R * math.asinh(u / params.R)
    return np.array([rho * math.cos(phi), rho * math.sin(phi), z])


def metric_coefficient(params: CatenoidParams, u):
    """Angular metric coefficient g_phiphi = R^2 + u^2 (g_uu is 1)."""
    return params.R**2 + np.square(u)


def gaussian_curvature(params: CatenoidParams, u):
    """Gaussian curvature -R^2/(R^2+u^2)^2 at meridian coordinate u.

    Strictly negative and decaying to zero away from the throat.  The mean
    curvature vanishes identically: the catenoid is a minimal surface.
    """
    g = params.R**2 + u * u
    return -(params.R**2) / (g * g)


def spin_connection(params: CatenoidParams, u):
    """Angular component of the spin connection one-form, u/sqrt(R^2+u^2).

    Odd in u with limits +-1 far from the throat.
    """
    return u / np.sqrt(params.R**2 + np.square(u))
