"""Reduced 1D quantum mechanics of a Dirac electron on a catenoid bridge.

Modules: geometry (surface data, and the meridian quantities R^2 + u^2, its
square root and u over that root), potentials (effective potentials and
superpotentials), susy (factorization engine), specfun (special functions),
analytic (closed-form spectra and eigenfunctions), numeric (finite
difference eigensolver), cli (file exports).
"""

from .geometry import CatenoidParams

__version__ = "0.1.0"

__all__ = ["CatenoidParams", "__version__"]
