import math

import numpy as np
import pytest

from catenoid_dirac.numeric import (
    Grid,
    TridiagonalOperator,
    count_features,
    discretize,
    discretize_sturm_liouville,
    eigen_tridiagonal,
    first_derivative,
    ode_residual,
    quadrature_normalize,
    second_derivative,
    solve_bracketed,
)

rng = np.random.default_rng(7)


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)

    def test_ordering(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 100)

    def test_spacing(self):
        g = Grid(0.0, 1.0, 101)
        assert abs(g.h - 0.01) < 1e-15


class TestDiscretize:
    def test_box_levels(self):
        g = Grid(0.0, math.pi, 4001)
        vals = eigen_tridiagonal(discretize(lambda x: np.zeros_like(x), g), 3, grid=g).eigenvalues
        assert np.allclose(vals, [1.0, 4.0, 9.0], rtol=2e-3)

    def test_harmonic_levels(self):
        g = Grid(-10.0, 10.0, 4001)
        vals = eigen_tridiagonal(discretize(lambda x: x * x, g), 4, grid=g).eigenvalues
        assert np.allclose(vals, [1.0, 3.0, 5.0, 7.0], atol=1e-3)

    def test_rejects_nonfinite_potential(self):
        g = Grid(-1.0, 1.0, 101)
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            discretize(lambda x: 1.0 / x, g)

    def test_sturm_liouville_reduces_to_plain(self):
        g = Grid(-3.0, 3.0, 501)
        op1 = discretize(lambda x: x * x, g)
        op2 = discretize_sturm_liouville(lambda x: np.ones_like(x), lambda x: x * x, g)
        assert np.max(np.abs(op1.diagonal - op2.diagonal)) < 1e-10
        assert np.max(np.abs(op1.offdiagonal - op2.offdiagonal)) < 1e-10


class TestEigenTridiagonal:
    def test_2x2_diagonal(self):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        vals = eigen_tridiagonal(op, 2).eigenvalues
        assert np.allclose(vals, [1.0, 3.0])

    def test_2x2_coupled(self):
        a, b = 2.0, 0.7
        op = TridiagonalOperator(np.array([a, a]), np.array([b]))
        vals = eigen_tridiagonal(op, 2).eigenvalues
        assert np.allclose(vals, [a - b, a + b])

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_rejects_k_out_of_range(self, k):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\]"):
            eigen_tridiagonal(op, k)

    def test_oscillation_theorem(self):
        g = Grid(-10.0, 10.0, 2001)
        res = eigen_tridiagonal(discretize(lambda x: x * x, g), 5, grid=g)
        for k in range(5):
            changes, _ = count_features(res.eigenvectors[:, k])
            assert changes == k

    def test_orthonormal_in_grid_inner_product(self):
        g = Grid(-10.0, 10.0, 2001)
        res = eigen_tridiagonal(discretize(lambda x: x * x, g), 4, grid=g)
        gram = res.eigenvectors.T @ res.eigenvectors * g.h
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    def test_generalized_weight(self):
        # T f = E w f with constant weight w rescales the spectrum by 1/w
        g = Grid(0.0, math.pi, 2001)
        op = discretize(lambda x: np.zeros_like(x), g)
        w = np.full(g.count, 4.0)
        vals = eigen_tridiagonal(op, 2, grid=g, weight=w).eigenvalues
        plain = eigen_tridiagonal(op, 2, grid=g).eigenvalues
        assert np.allclose(vals, plain / 4.0, rtol=1e-12)

    def test_convergence_ratio(self):
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        e = {}
        for npts in (2001, 4001):
            g = Grid(-10.0, 10.0, npts)
            e[npts] = eigen_tridiagonal(discretize(lambda x: x * x, g), 5, grid=g).eigenvalues
        ratio = np.abs(e[2001] - exact) / np.abs(e[4001] - exact)
        assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


class TestDerivativesAndResidual:
    def test_box_eigenfunction_residual(self):
        g = Grid(0.0, 1.0, 1001)
        f = np.sin(math.pi * g.points)
        res = ode_residual(f, lambda x: np.zeros_like(x), math.pi**2, g)
        assert res < 1e-8

    def test_random_function_large_residual(self):
        g = Grid(0.0, 1.0, 1001)
        f = rng.standard_normal(g.count)
        assert ode_residual(f, lambda x: np.zeros_like(x), 1.0, g) > 1.0

    def test_first_derivative(self):
        g = Grid(0.0, 2.0, 2001)
        d = first_derivative(np.exp(g.points), g.h)
        assert np.max(np.abs(d - np.exp(g.points))) < 1e-10

    def test_second_derivative(self):
        g = Grid(0.0, 2.0, 2001)
        d = second_derivative(np.exp(g.points), g.h)
        assert np.max(np.abs(d - np.exp(g.points))) < 1e-7


class TestNormalize:
    def test_constant(self):
        g = Grid(0.0, 1.0, 1001)
        f, norm = quadrature_normalize(np.ones(g.count), None, g)
        assert abs(norm - 1.0) < 1e-12
        assert np.allclose(f, 1.0)

    def test_sine(self):
        g = Grid(0.0, 1.0, 10001)
        f, norm = quadrature_normalize(np.sin(math.pi * g.points), None, g)
        assert abs(norm - math.sqrt(0.5)) < 1e-8

    def test_zero_rejected(self):
        g = Grid(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            quadrature_normalize(np.zeros(g.count), None, g)


class TestCountFeatures:
    def test_sine(self):
        x = np.linspace(0.0, 1.0, 3001)
        changes, maxima = count_features(np.sin(3 * math.pi * x))
        assert (changes, maxima) == (2, 3)

    @pytest.mark.parametrize("f, expected", [
        (np.full(100, 2.5), (0, 1)),
        ([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0], (0, 1)),  # plateau peak
        ([3.0, 3.0, 1.0, 2.0, 2.0], (0, 2)),  # plateaus at both edges
        ([1.0, 2.0, 2.0, 3.0, 1.0], (0, 1)),  # plateau on a slope
        ([1.0, 3.0, np.nan, -3.0, 1.0], ValueError),  # a NaN sample is refused
        ([1.0, 3.0, -np.inf, -3.0, 1.0], ValueError),
    ], ids=["constant", "plateau_peak", "edge_plateaus", "shoulder", "nan_sample", "inf_sample"])
    def test_constant(self, f, expected):
        if expected is ValueError:
            with pytest.raises(ValueError, match="not finite"):
                count_features(np.asarray(f))
        else:
            assert count_features(np.asarray(f)) == expected

    def test_noise_floor(self):
        x = np.linspace(0.0, 1.0, 1001)
        f = np.sin(math.pi * x)
        f[0] = 1e-13
        f[-1] = -1e-13  # tail round-off must not register as a sign change
        changes, _ = count_features(f)
        assert changes == 0


class TestSolveBracketed:
    def test_sqrt2(self):
        root = solve_bracketed(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - math.sqrt(2.0)) < 1e-11

    def test_cosine(self):
        root = solve_bracketed(math.cos, 0.0, 2.0)
        assert abs(root - math.pi / 2) < 1e-11

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            solve_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("g", [
        lambda x: float("nan"),
        lambda x: float("nan") if x == 0.5 else x - 0.25,  # NaN at the first midpoint
        lambda x: -math.inf if x == 0.0 else x - 0.25,  # infinite end point
    ], ids=["nan_everywhere", "nan_midpoint", "inf_end"])
    def test_nonfinite_rejected(self, g):
        with pytest.raises(ValueError, match="not finite"):
            solve_bracketed(g, 0.0, 1.0)
