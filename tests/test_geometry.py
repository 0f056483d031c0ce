import math

import numpy as np
import pytest

from catenoid_dirac.geometry import (
    CatenoidParams,
    SurfacePoint,
    curvatures,
    embed,
    metric_coefficient,
    spin_connection,
)


def fd_embedding_jacobian(params, u, phi, h=1e-6):
    """Columns dX/du and dX/dphi of the embedding map by central differences."""
    du = (embed(params, SurfacePoint(u + h, phi)) - embed(params, SurfacePoint(u - h, phi))) / (2 * h)
    dp = (embed(params, SurfacePoint(phi=phi + h, u=u)) - embed(params, SurfacePoint(phi=phi - h, u=u))) / (2 * h)
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

    def test_phi_normalized(self):
        p = SurfacePoint(0.0, 2 * math.pi + 1.0)
        assert abs(p.phi - 1.0) < 1e-12


class TestEmbed:
    def test_throat_point(self):
        p = CatenoidParams(1.0)
        assert np.allclose(embed(p, SurfacePoint(0.0, 0.0)), [1.0, 0.0, 0.0])
        assert np.allclose(embed(p, SurfacePoint(0.0, math.pi / 2)), [0.0, 1.0, 0.0])

    def test_off_throat_point(self):
        p = CatenoidParams(2.0)
        x = embed(p, SurfacePoint(2.0, 0.0))
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


def fd_shape_operator_det(params, u, phi, h=1e-5):
    """Gaussian curvature det(II)/det(I) from finite differences of the embedding."""
    def X(uu, pp):
        return embed(params, SurfacePoint(uu, pp))

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
        c = curvatures(CatenoidParams(1.0), 0.0)
        assert c.gaussian == -1.0
        assert c.mean == 0.0

    def test_off_throat(self):
        c = curvatures(CatenoidParams(2.0), 2.0)
        assert abs(c.gaussian + 1.0 / 16.0) < 1e-15
        assert c.mean == 0.0

    def test_asymptotic_flatness(self):
        assert abs(curvatures(CatenoidParams(1.0), 1e6).gaussian) < 1e-12

    def test_against_fd_shape_operator(self):
        for R, u in [(1.0, 0.5), (2.0, 2.0), (1.5, -1.0)]:
            p = CatenoidParams(R)
            K, H = fd_shape_operator_det(p, u, 0.4)
            c = curvatures(p, u)
            assert abs(K - c.gaussian) < 1e-6
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
