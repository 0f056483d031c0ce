"""Effective potentials of the reduced 1D problem.

Covers the u-space potentials for both spinor components, the auxiliary
decoupling functions, the Fermi-velocity profiles (constant and the
sec^2-shaped ansatz), and the transformed potentials in the compact
coordinates x = atan(u/R) and r = sin x.

The sec^2-velocity problem, v_F = lam (1 + u^2/R^2), follows from the
first-order Dirac system in five steps:

1. Take the Hermitian position-dependent-velocity Hamiltonian
   -i sqrt(v_F) sigma.grad sqrt(v_F), with Sigma and Lambda of
   ``sigma_lambda`` (Sigma - Lambda = 2W).
2. A factor on both components removes the common drift:
   (d/du + W) phi1 = -i (E/v_F) phi2 and (d/du - W) phi2 = -i (E/v_F) phi1.
3. Multiply by v_F and put x = (lam/R) int du/v_F = atan(u/R).  Since
   v_F W = (lam/R) m sec x, the system becomes (d/dx + m sec x) phi1 =
   -i eps phi2 and (d/dx - m sec x) phi2 = -i eps phi1, with eps = R E/lam.
4. That is constant-velocity SUSY quantum mechanics on (-pi/2, pi/2) with
   the plain L^2(dx) norm.  Its squared form H1 = m^2 sec^2 x - m sec x tan x
   is ``transformed_partner_potential(-m, x)``, which equals
   (R/lam)^2 v_F [v_F (W^2 - W') - v_F' W] in u; H2 is the same at +m.
5. The unsymmetrized ordering -i v_F sigma.grad gives the same system up
   to a common factor on both components, and so the same levels.

These are not the levels of ``scarf_form_pdfv``, from which the sec^2
closed forms start; which equation the paper means is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CatenoidParams

__all__ = [
    "ConstantVF",
    "ScarfVF",
    "superpotential",
    "superpotential_derivative",
    "v_eff",
    "partner_potentials_from_W",
    "sigma_lambda",
    "kappa",
    "fermi_velocity",
    "vbar_eff",
    "u_eff",
    "scarf_form_constant",
    "scarf_form_pdfv",
    "transformed_partner_potential",
    "v1_v2_r_forms",
    "X_DOMAIN_MARGIN",
]

# x-space functions reject |x| >= pi/2 - margin instead of returning inf
X_DOMAIN_MARGIN = 1e-12


@dataclass(frozen=True)
class ConstantVF:
    v_F: float

    def __post_init__(self):
        if not 0.0 < self.v_F < math.inf:
            raise ValueError(f"Fermi velocity must be positive and finite, got {self.v_F}")


@dataclass(frozen=True)
class ScarfVF:
    """Position-dependent profile v_F(u) = lam*(1 + u^2/R^2)."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"velocity scale must be positive and finite, got {self.lam}")


def _check_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= math.pi / 2 - X_DOMAIN_MARGIN):
        raise ValueError("x must lie strictly inside (-pi/2, pi/2)")
    return x


def superpotential(params: CatenoidParams, m: int, u):
    """W(u) = m/sqrt(R^2+u^2)."""
    return m / np.sqrt(params.R**2 + np.square(u))


def superpotential_derivative(params: CatenoidParams, m: int, u):
    """Analytic dW/du = -m*u/(R^2+u^2)^(3/2)."""
    g = params.R**2 + np.square(u)
    return -m * u / g**1.5


def v_eff(params: CatenoidParams, m: int, u):
    """Effective potential for constant Fermi velocity,
    m^2/(R^2+u^2) + m*u/(R^2+u^2)^(3/2); the second spinor component is
    the first at -m."""
    g = params.R**2 + np.square(u)
    return m**2 / g + m * u / g**1.5


def partner_potentials_from_W(W: Callable, u, dW: Callable):
    """Partner pair (W^2 - W', W^2 + W') from a superpotential W and its
    derivative dW."""
    u = np.asarray(u, dtype=float)
    w, wp = W(u), dW(u)
    return w * w - wp, w * w + wp


def sigma_lambda(params: CatenoidParams, m: int, u):
    """Decoupling functions (Sigma, Lambda); Sigma - Lambda = 2W."""
    g = params.R**2 + np.square(u)
    drift = u / (2.0 * g)
    w = m / np.sqrt(g)
    return w - drift, -w - drift


def fermi_velocity(profile: ConstantVF | ScarfVF, params: CatenoidParams, u):
    """v_F(u) of the profile; minimum at the throat for the Scarf profile."""
    if isinstance(profile, ConstantVF):
        return profile.v_F * np.ones_like(np.asarray(u, dtype=float))
    return profile.lam * (1.0 + np.square(u) / params.R**2)


def kappa(profile: ConstantVF | ScarfVF, params: CatenoidParams, u):
    """Similarity weight (R^2+u^2)^(1/4)/sqrt(v_F(u))."""
    return (params.R**2 + np.square(u)) ** 0.25 / np.sqrt(fermi_velocity(profile, params, u))


def vbar_eff(profile: ConstantVF | ScarfVF, params: CatenoidParams, m: int, u):
    """Velocity-gradient contribution to the effective potential.

    Identically zero for a constant profile.  The second spinor component
    (m -> -m) changes only the term linear in m.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(profile, ConstantVF):
        return np.zeros_like(u)
    # v_F and its analytic derivatives
    lam, R2 = profile.lam, params.R**2
    vf, vfp, vfpp = fermi_velocity(profile, params, u), 2.0 * lam * u / R2, 2.0 * lam / R2
    root = np.sqrt(params.R**2 + np.square(u))
    return -(vfp**2 - 2.0 * vf * (2.0 * m * vfp / root + vfpp)) / (4.0 * vf**2)


def u_eff(profile: ConstantVF | ScarfVF, params: CatenoidParams, m: int, u):
    """Full effective potential: constant-velocity part plus velocity-gradient part."""
    return v_eff(params, m, u) + vbar_eff(profile, params, m, u)


def scarf_form_constant(params: CatenoidParams, m: int, epsilon: float, x):
    """x-space potential of the constant-velocity problem.

    3m*sec(x)tan(x) + (m^2+2)sec^2(x) - 4 - epsilon^2*sec^4(x), with the
    dimensionless epsilon = E*R/v_F.
    """
    x = _check_x(x)
    sec = 1.0 / np.cos(x)
    return 3 * m * sec * np.tan(x) + (m * m + 2) * sec**2 - 4.0 - epsilon**2 * sec**4


def scarf_form_pdfv(params: CatenoidParams, m: int, x):
    """Trigonometric Scarf potential of the sec^2 Fermi-velocity problem.

    -1 + (m^2-1)sec^2(x) + (2m+R-4mR)/2 * sec(x)tan(x).  R enters as the
    dimensionless ratio of the throat radius to the unit of length.
    """
    x = _check_x(x)
    R = params.R
    sec = 1.0 / np.cos(x)
    return -1.0 + (m * m - 1) * sec**2 + 0.5 * (2 * m + R - 4 * m * R) * sec * np.tan(x)


def transformed_partner_potential(m: int, x):
    """Partner potential in x-space: m^2*sec^2(x) + m*tan(x)sec(x)."""
    x = _check_x(x)
    sec = 1.0 / np.cos(x)
    return m * m * sec**2 + m * np.tan(x) * sec


def _rspace_potential(m: int, r: np.ndarray):
    """(r^2-2)/(4(1-r^2)) + 3mr/(1-r^2) + (m^2+2)/(1-r^2) - 4: the r-space
    potential of the constant-velocity problem without its energy term."""
    q = 1.0 - r * r
    return (r * r - 2.0) / (4.0 * q) + 3.0 * m * r / q + (m * m + 2.0) / q - 4.0


def v1_v2_r_forms(m: int, epsilon: float, r):
    """The two r-space potentials; they differ only in how the energy term
    is treated: V1 keeps eps^2/(1-r^2)^2, V2 freezes it to eps^2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) >= 1.0):
        raise ValueError("r must lie strictly inside (-1, 1)")
    q = 1.0 - r * r
    common = _rspace_potential(m, r)
    return common - epsilon**2 / q**2, common - epsilon**2
