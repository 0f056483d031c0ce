import math
import warnings

import mpmath
import numpy as np
import pytest

from catenoid_dirac import analytic, potentials, susy
from catenoid_dirac.geometry import (
    CatenoidParams,
    embed,
    gaussian_curvature,
    metric_coefficient,
    radius,
    spin_connection,
)


def fd_embedding_jacobian(params, u, phi, h=1e-6):
    """Columns dX/du and dX/dphi of the embedding map by central differences."""
    du = (embed(params, u + h, phi) - embed(params, u - h, phi)) / (2 * h)
    dp = (embed(params, u, phi + h) - embed(params, u, phi - h)) / (2 * h)
    return du, dp


class TestParams:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            CatenoidParams(0.0)
        with pytest.raises(ValueError):
            CatenoidParams(-1.0)

    @pytest.mark.parametrize("R", [1e-300, 1.4e-154, 1.4e154, 1e200])
    def test_rejects_radius_whose_square_leaves_range(self, R):
        # R^2 below the smallest normal float, or infinite
        with pytest.raises(ValueError, match="out of range"):
            CatenoidParams(R)

    @pytest.mark.parametrize("R", [1.5e-154, 1.3e154])
    def test_accepts_radius_at_range_edges(self, R):
        assert CatenoidParams(R).R == R


class TestEmbed:
    def test_throat_point(self):
        p = CatenoidParams(1.0)
        assert np.allclose(embed(p, 0.0, 0.0), [1.0, 0.0, 0.0])
        assert np.allclose(embed(p, 0.0, math.pi / 2), [0.0, 1.0, 0.0])

    def test_off_throat_point(self):
        p = CatenoidParams(2.0)
        x = embed(p, 2.0, 0.0)
        assert np.allclose(x, [2 * math.sqrt(2), 0.0, 2 * math.asinh(1.0)], atol=1e-12)

    def test_first_fundamental_form_is_diag_1_g(self):
        # induced metric of the embedding must be diag(1, R^2+u^2)
        for R, u, phi in [(1.0, 0.0, 0.3), (2.0, 2.0, 1.1), (0.5, -3.0, 4.0)]:
            p = CatenoidParams(R)
            du, dp = fd_embedding_jacobian(p, u, phi)
            assert abs(du @ du - 1.0) < 1e-8
            assert abs(dp @ dp - (R * R + u * u)) < 1e-7
            assert abs(du @ dp) < 1e-8


class TestMetric:
    def test_values(self):
        assert metric_coefficient(CatenoidParams(1.0), 0.0) == 1.0
        assert metric_coefficient(CatenoidParams(3.0), 4.0) == 25.0
        assert metric_coefficient(CatenoidParams(2.0), -2.0) == 8.0

    def test_matches_embedding(self):
        p = CatenoidParams(2.0)
        _, dp = fd_embedding_jacobian(p, -2.0, 0.7)
        assert abs(dp @ dp - metric_coefficient(p, -2.0)) < 1e-7

    def test_large_integer_u_does_not_wrap(self):
        # an int64 square wraps around above |u| = 3.04e9
        p = CatenoidParams(1.0)
        assert metric_coefficient(p, 10**10) == 1e20
        assert gaussian_curvature(p, -(10**10)) == -1e-40
        assert spin_connection(p, 10**10) == 1.0


def fd_shape_operator_det(params, u, phi, h=1e-5):
    """Gaussian curvature det(II)/det(I) from finite differences of the embedding."""
    def X(uu, pp):
        return embed(params, uu, pp)

    Xu = (X(u + h, phi) - X(u - h, phi)) / (2 * h)
    Xp = (X(u, phi + h) - X(u, phi - h)) / (2 * h)
    Xuu = (X(u + h, phi) - 2 * X(u, phi) + X(u - h, phi)) / h**2
    Xpp = (X(u, phi + h) - 2 * X(u, phi) + X(u, phi - h)) / h**2
    Xup = (X(u + h, phi + h) - X(u + h, phi - h) - X(u - h, phi + h) + X(u - h, phi - h)) / (4 * h**2)
    n = np.cross(Xu, Xp)
    n = n / np.linalg.norm(n)
    E, F, G = Xu @ Xu, Xu @ Xp, Xp @ Xp
    L, M, N = Xuu @ n, Xup @ n, Xpp @ n
    K = (L * N - M * M) / (E * G - F * F)
    H = (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))
    return K, H


class TestCurvatures:
    def test_throat(self):
        assert gaussian_curvature(CatenoidParams(1.0), 0.0) == -1.0

    def test_off_throat(self):
        assert abs(gaussian_curvature(CatenoidParams(2.0), 2.0) + 1.0 / 16.0) < 1e-15

    def test_asymptotic_flatness(self):
        assert abs(gaussian_curvature(CatenoidParams(1.0), 1e6)) < 1e-12

    def test_against_fd_shape_operator(self):
        for R, u in [(1.0, 0.5), (2.0, 2.0), (1.5, -1.0)]:
            p = CatenoidParams(R)
            K, H = fd_shape_operator_det(p, u, 0.4)
            assert abs(K - gaussian_curvature(p, u)) < 1e-6
            assert abs(H) < 1e-6


class TestSpinConnection:
    def test_values(self):
        assert spin_connection(CatenoidParams(1.0), 0.0) == 0.0
        assert abs(spin_connection(CatenoidParams(3.0), 4.0) - 0.8) < 1e-15
        assert abs(spin_connection(CatenoidParams(1.0), 1e6) - 1.0) < 1e-12

    def test_oddness(self):
        p = CatenoidParams(1.3)
        u = np.linspace(0.1, 5.0, 20)
        assert np.allclose(spin_connection(p, -u), -spin_connection(p, u), atol=1e-15)

    def test_structure_equation(self):
        # the connection coefficient is d/du of sqrt(g_phiphi)
        p = CatenoidParams(2.0)
        h = 1e-6
        for u in (0.0, 1.0, -3.0):
            fd = (
                math.sqrt(metric_coefficient(p, u + h)) - math.sqrt(metric_coefficient(p, u - h))
            ) / (2 * h)
            assert abs(fd - spin_connection(p, u)) < 1e-9


class TestRadius:
    def test_values(self):
        assert radius(CatenoidParams(1.0), 0.0) == 1.0
        assert radius(CatenoidParams(3.0), -4.0) == 5.0

    def test_matches_embedding(self):
        # the parallel circle through (u, phi) has radius |dX/dphi|
        p = CatenoidParams(1.5)
        for u in (0.0, 0.7, -2.5):
            _, dp = fd_embedding_jacobian(p, u, 0.3)
            assert abs(math.sqrt(dp @ dp) - radius(p, u)) < 1e-8


# Every module takes g = R^2 + u^2, rho = sqrt(g) and t = u/rho from geometry.
# Each site below must give, bit for bit, the expression it wrote itself
# before, at the throat, far from it and at the edges of the accepted R.
SITE_U = np.array([0.0, -0.0, 1e-300, -1e-160, 1e-9, -0.5, 1.0, 3.0, -1e6, 1e102, -1e154, 1e200])


@pytest.mark.parametrize("R", [1.5e-154, 1e-120, 1e-9, 0.7, 1.0, 1e9, 1e102, 1.3e154])
@pytest.mark.parametrize("m", [-3, 2])
def test_meridian_sites_keep_their_bits(R, m):
    p, u = CatenoidParams(R), SITE_U.copy()
    with np.errstate(all="ignore"):
        g = R**2 + np.square(u)  # u is a float array: np.square(u, dtype=float) is the same
        old = {
            "metric_coefficient": g,
            "radius": np.sqrt(g),
            "gaussian_curvature": -(R**2) / ((R**2 + u * u) * (R**2 + u * u)),
            "spin_connection": u / np.sqrt(g),
            "superpotential": m / np.sqrt(g),
            "superpotential_derivative": -m * u / g**1.5,
            "v_eff": m**2 / g + m * u / g**1.5,
            "kappa": g**0.25 / np.sqrt(potentials.fermi_velocity(potentials.ScarfVF(0.8), p, u)),
            "catenoid_ground_state": 2.0 ** (-m) * (u + np.sqrt(R**2 + u * u)) ** (-m),
        }
        new = {
            "metric_coefficient": metric_coefficient(p, u),
            "radius": radius(p, u),
            "gaussian_curvature": gaussian_curvature(p, u),
            "spin_connection": spin_connection(p, u),
            "superpotential": potentials.superpotential(p, m, u),
            "superpotential_derivative": potentials.superpotential_derivative(p, m, u),
            "v_eff": potentials.v_eff(p, m, u),
            "kappa": potentials.kappa(potentials.ScarfVF(0.8), p, u),
            "catenoid_ground_state": susy.catenoid_ground_state(p, m, u),
        }
    for name, value in old.items():
        assert np.asarray(new[name]).tobytes() == value.tobytes(), name


def _quietly(f, *args):
    """f(*args) with every warning an error: a defect may show as either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


class TestMeridianEdges:
    """Values that R^2 + u^2, its power 1.5 and 1 -+ t cannot give at the
    edges of the accepted R, against mpmath at 50 digits."""

    @pytest.mark.xfail(strict=True, reason="g**1.5 underflows to 0 at u = 0, so the second "
                       "term is 0/0 and v_eff is NaN instead of m^2/R^2 = 4e240")
    def test_v_eff_at_the_throat_of_a_tiny_bridge(self):
        R, m = 1e-120, 2
        with mpmath.workdps(50):
            exact = float(mpmath.mpf(m) ** 2 / mpmath.mpf(R) ** 2)
        value = _quietly(potentials.v_eff, CatenoidParams(R), m, 0.0)
        assert abs(value - exact) <= 1e-14 * exact

    @pytest.mark.xfail(strict=True, reason="g**1.5 underflows to 0 at u = 0, so dW/du = "
                       "-m*u/g**1.5 is 0/0, NaN instead of 0")
    def test_superpotential_derivative_at_the_throat_of_a_tiny_bridge(self):
        assert _quietly(potentials.superpotential_derivative, CatenoidParams(1e-150), 3, 0.0) == 0.0

    @pytest.mark.xfail(strict=True, reason="t = u/sqrt(R^2 + u^2) rounds to 1 at u = 1e9 R, "
                       "so (1 - t)^(a - 1) is 0 instead of a profile value of 1.86e-22")
    def test_constant_case_profile_far_from_a_tiny_throat(self):
        R, u, qn = 1e-9, 1.0, analytic.QuantumNumbers(1, 3)
        jp = analytic.jacobi_branch_params(qn.m)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(jp.a), mpmath.mpf(jp.b)
            t = mpmath.mpf(u) / mpmath.sqrt(mpmath.mpf(R) ** 2 + mpmath.mpf(u) ** 2)
            exact = float((1 - t) ** (a - 1) * (1 + t) ** (b - 1) * mpmath.jacobi(qn.n, 2 * a, 2 * b, t))
        value = _quietly(analytic.eigenfunction_constant_case, CatenoidParams(R), qn, [u])[0]
        assert abs(value - exact) <= 1e-14 * exact
