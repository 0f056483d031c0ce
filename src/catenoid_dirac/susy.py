"""SUSY factorization engine.

First-order ladder operators built from a superpotential, ground states,
intertwining checks, partner state maps, and the coupled first-order
system for the two spinor components.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import CatenoidParams
from .numeric import (
    Grid,
    WavefunctionSamples,
    first_derivative,
    second_derivative,
)
from .potentials import partner_potentials_from_W, sigma_lambda, superpotential, superpotential_derivative

__all__ = [
    "LadderDirection",
    "FactorizedSystem",
    "catenoid_system",
    "apply_ladder",
    "ground_state_from_W",
    "catenoid_ground_state",
    "catenoid_ground_state_derivative",
    "check_intertwining",
    "partner_map_state",
    "dirac_coupled_residual",
]


class LadderDirection(enum.Enum):
    LOWERING = +1  # d/du + W
    RAISING = -1  # -d/du + W


@dataclass(frozen=True)
class FactorizedSystem:
    """Superpotential W and its derivative dW on a working grid."""

    W: Callable
    grid: Grid
    dW: Callable

    def partner_potentials(self, u):
        return partner_potentials_from_W(self.W, u, dW=self.dW)


def catenoid_system(params: CatenoidParams, m: int, grid: Grid) -> FactorizedSystem:
    """Factorized system for the bridge superpotential m/sqrt(R^2+u^2)."""
    return FactorizedSystem(
        W=lambda u: superpotential(params, m, u),
        dW=lambda u: superpotential_derivative(params, m, u),
        grid=grid,
    )


def _require_same_grid(sys: FactorizedSystem, f: WavefunctionSamples):
    if f.grid != sys.grid:
        raise ValueError("samples live on a different grid than the system")
    if f.grid.count < 5:
        raise ValueError("need at least 5 grid points for the ladder stencil")


def apply_ladder(
    sys: FactorizedSystem,
    direction: LadderDirection,
    f: WavefunctionSamples,
    derivative: Optional[np.ndarray] = None,
) -> WavefunctionSamples:
    """Apply A = d/du + W or its adjoint -d/du + W to sampled values.

    The derivative is a 5-point stencil unless analytic samples are given.
    """
    _require_same_grid(sys, f)
    fp = derivative if derivative is not None else first_derivative(f.values, sys.grid.h)
    w = sys.W(sys.grid.points)
    out = direction.value * fp + w * f.values
    return WavefunctionSamples(grid=f.grid, values=out)


def ground_state_from_W(sys: FactorizedSystem, grid: Grid) -> WavefunctionSamples:
    """Zero mode exp(-int_0^u W dt), unnormalized; annihilated by the
    lowering operator."""
    u = grid.points
    w = np.asarray(sys.W(u), dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("superpotential is not finite on the grid")
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(u))))
    # anchor at u = 0 (linear interpolation), or at the left end when 0 is off the grid
    anchor = np.interp(0.0, u, integral, right=integral[0])
    return WavefunctionSamples(grid=grid, values=np.exp(-(integral - anchor)))


def catenoid_ground_state(params: CatenoidParams, m: int, u):
    """Closed-form zero mode 2^(-m) (u + sqrt(R^2+u^2))^(-m).

    Normalizable decay on both ends requires m > 0; callers should check
    the truncated-domain norm rather than assume boundedness.
    """
    u = np.asarray(u, dtype=float)
    return 2.0 ** (-m) * (u + np.sqrt(params.R**2 + u * u)) ** (-m)


def catenoid_ground_state_derivative(params: CatenoidParams, m: int, u):
    """Analytic derivative of the closed-form zero mode."""
    u = np.asarray(u, dtype=float)
    root = np.sqrt(params.R**2 + u * u)
    return -m / root * catenoid_ground_state(params, m, u)


def check_intertwining(sys: FactorizedSystem, f: WavefunctionSamples) -> float:
    """Sup norm of (H2 A - A H1) f over interior points.

    f should vanish near the grid ends; only points at distance >= 2h from
    the boundary enter the norm.
    """
    _require_same_grid(sys, f)
    u = sys.grid.points
    h = sys.grid.h
    u1, u2 = sys.partner_potentials(u)

    def ham(v, pot):
        return -second_derivative(v, h) + pot * v

    af = apply_ladder(sys, LadderDirection.LOWERING, f).values
    h1f = ham(f.values, u1)
    lhs = ham(af, u2)
    rhs = first_derivative(h1f, h) + sys.W(u) * h1f
    res = lhs - rhs
    return float(np.max(np.abs(res[4:-4])))


def partner_map_state(
    sys: FactorizedSystem,
    direction: LadderDirection,
    f: WavefunctionSamples,
    energy: float,
) -> WavefunctionSamples:
    """Map an eigenstate to its partner: ladder image scaled by 1/sqrt(E).

    The zero mode has no partner, so non-positive energies are rejected.
    """
    if not energy > 0.0:
        raise ValueError("zero and negative energies have no partner state")
    mapped = apply_ladder(sys, direction, f)
    mapped.values = mapped.values / math.sqrt(energy)
    return mapped


def dirac_coupled_residual(
    params: CatenoidParams,
    m: int,
    v_F: float,
    E: float,
    psi1: WavefunctionSamples,
    psi2: WavefunctionSamples,
) -> tuple[float, float]:
    """Sup-norm residuals of the coupled first-order system (hbar = 1).

    (d/du + Sigma) psi1 + i (E/v_F) psi2 and (d/du + Lambda) psi2
    + i (E/v_F) psi1, with the decoupling functions of sigma_lambda.
    """
    if psi1.grid != psi2.grid:
        raise ValueError("components live on different grids")
    g = psi1.grid
    sigma, lambda_ = sigma_lambda(params, m, g.points)
    k = 1j * E / v_F
    f1 = np.asarray(psi1.values, dtype=complex)
    f2 = np.asarray(psi2.values, dtype=complex)
    r1 = first_derivative(f1, g.h) + sigma * f1 + k * f2
    r2 = first_derivative(f2, g.h) + lambda_ * f2 + k * f1
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))
