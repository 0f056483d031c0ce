"""SUSY factorization engine.

First-order ladder operators built from a superpotential, ground states,
intertwining checks, partner state maps, and the coupled first-order
system for the two spinor components.  Each function takes the
superpotential W (and its derivative dW where needed) as a plain callable,
the working ``Grid`` and sampled values as arrays on that grid, and
returns arrays.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional

import numpy as np

from .geometry import CatenoidParams, radius
from .numeric import Grid, first_derivative, second_derivative
from .potentials import partner_potentials_from_W, sigma_lambda

__all__ = [
    "LadderDirection",
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


def apply_ladder(W: Callable, grid: Grid, direction: LadderDirection, f: np.ndarray,
                 derivative: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply A = d/du + W or its adjoint -d/du + W to values f on grid.

    The derivative is a 5-point stencil unless analytic samples are given.
    """
    fp = derivative if derivative is not None else first_derivative(f, grid.h)
    return direction.value * fp + W(grid.points) * f


def ground_state_from_W(W: Callable, grid: Grid) -> np.ndarray:
    """Zero mode exp(-int_0^u W dt) on grid, unnormalized; annihilated by
    the lowering operator."""
    u = grid.points
    w = np.asarray(W(u), dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("superpotential is not finite on the grid")
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(u))))
    # anchor at u = 0 (linear interpolation), or at the left end when 0 is off the grid
    anchor = np.interp(0.0, u, integral, right=integral[0])
    return np.exp(-(integral - anchor))


def catenoid_ground_state(params: CatenoidParams, m: int, u):
    """Closed-form zero mode 2^(-m) (u + sqrt(R^2+u^2))^(-m).

    Normalizable decay on both ends requires m > 0; callers should check
    the truncated-domain norm rather than assume boundedness.
    """
    u = np.asarray(u, dtype=float)
    return 2.0 ** (-m) * (u + radius(params, u)) ** (-m)


def catenoid_ground_state_derivative(params: CatenoidParams, m: int, u):
    """Analytic derivative of the closed-form zero mode."""
    u = np.asarray(u, dtype=float)
    return -m / radius(params, u) * catenoid_ground_state(params, m, u)


def check_intertwining(W: Callable, dW: Callable, grid: Grid, f: np.ndarray) -> float:
    """Sup norm of (H2 A - A H1) f over interior points.

    f should vanish near the grid ends; only points at distance >= 2h from
    the boundary enter the norm.
    """
    u = grid.points
    h = grid.h
    u1, u2 = partner_potentials_from_W(W, u, dW=dW)

    def ham(v, pot):
        return -second_derivative(v, h) + pot * v

    af = apply_ladder(W, grid, LadderDirection.LOWERING, f)
    h1f = ham(f, u1)
    lhs = ham(af, u2)
    rhs = first_derivative(h1f, h) + W(u) * h1f
    res = lhs - rhs
    return float(np.max(np.abs(res[4:-4])))


def partner_map_state(W: Callable, grid: Grid, direction: LadderDirection, f: np.ndarray,
                      energy: float) -> np.ndarray:
    """Map an eigenstate to its partner: ladder image scaled by 1/sqrt(E).

    The zero mode has no partner, so non-positive energies are rejected.
    """
    if not energy > 0.0:
        raise ValueError("zero and negative energies have no partner state")
    return apply_ladder(W, grid, direction, f) / math.sqrt(energy)


def dirac_coupled_residual(params: CatenoidParams, m: int, v_F: float, E: float, grid: Grid,
                           psi1: np.ndarray, psi2: np.ndarray) -> tuple[float, float]:
    """Sup-norm residuals of the coupled first-order system (hbar = 1).

    (d/du + Sigma) psi1 + i (E/v_F) psi2 and (d/du + Lambda) psi2
    + i (E/v_F) psi1 on grid, with the decoupling functions of sigma_lambda.
    """
    sigma, lambda_ = sigma_lambda(params, m, grid.points)
    k = 1j * E / v_F
    f1 = np.asarray(psi1, dtype=complex)
    f2 = np.asarray(psi2, dtype=complex)
    r1 = first_derivative(f1, grid.h) + sigma * f1 + k * f2
    r2 = first_derivative(f2, grid.h) + lambda_ * f2 + k * f1
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))
