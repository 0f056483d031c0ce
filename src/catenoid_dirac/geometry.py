"""Catenoid surface: embedding, metric, curvatures, spin connection.

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
    "SurfacePoint",
    "CurvatureSample",
    "embed",
    "metric_coefficient",
    "curvatures",
    "spin_connection",
]

TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class SurfacePoint:
    """Point on the surface; phi is normalized into [0, 2*pi)."""

    u: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class CurvatureSample:
    gaussian: float
    mean: float = 0.0


def embed(params: CatenoidParams, p: SurfacePoint) -> np.ndarray:
    """Cartesian position (x, y, z) of a surface point."""
    rho = math.hypot(params.R, p.u)
    # asinh is the numerically stable log form for large |u/R|
    z = params.R * math.asinh(p.u / params.R)
    return np.array([rho * math.cos(p.phi), rho * math.sin(p.phi), z])


def metric_coefficient(params: CatenoidParams, u):
    """Angular metric coefficient g_phiphi = R^2 + u^2 (g_uu is 1)."""
    return params.R**2 + np.square(u)


def curvatures(params: CatenoidParams, u) -> CurvatureSample:
    """Gaussian and mean curvature at meridian coordinate u.

    Gaussian curvature is -R^2/(R^2+u^2)^2, strictly negative and decaying
    to zero away from the throat; the mean curvature vanishes identically
    (minimal surface).
    """
    g = params.R**2 + u * u
    return CurvatureSample(gaussian=-(params.R**2) / (g * g), mean=0.0)


def spin_connection(params: CatenoidParams, u):
    """Angular component of the spin connection one-form, u/sqrt(R^2+u^2).

    Odd in u with limits +-1 far from the throat.
    """
    return u / np.sqrt(params.R**2 + np.square(u))
