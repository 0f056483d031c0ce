import math

import numpy as np
import pytest

from catenoid_dirac.analytic import constant_case_rspace_potential
from catenoid_dirac.cli import R_DELTA, X_DELTA
from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import (
    Grid,
    TridiagonalOperator,
    count_features,
    discretize,
    discretize_sturm_liouville,
    eigen_tridiagonal,
    first_derivative,
    ode_residual,
    second_derivative,
    solve_bracketed,
    trapezoid_norm,
)
from catenoid_dirac.potentials import partner_potentials_from_W, scarf_form_pdfv

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

    @pytest.mark.parametrize("lo, hi, count", [
        (-math.inf, 1.0, 50),
        (0.0, math.inf, 50),
        (math.nan, 1.0, 50),
        (0.0, 1.0, 50.0),
        (0.0, 1.0, 50.5),
    ], ids=["inf_min", "inf_max", "nan_min", "float_count", "fractional_count"])
    def test_rejects_nonfinite_ends_and_noninteger_count(self, lo, hi, count):
        with pytest.raises(ValueError, match="finite|integer"):
            Grid(lo, hi, count)

    def test_accepts_numpy_integer_count(self):
        assert Grid(0.0, 1.0, np.int64(101)).h == Grid(0.0, 1.0, 101).h


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

    def test_weighted_eigenvectors(self):
        # columns are normalized with the grid weight h and solve T v = E v
        # with the stored operator T
        g = Grid(-6.0, 6.0, 1201)
        op = discretize(lambda x: x * x + 0.5 * np.sin(x), g)
        res = eigen_tridiagonal(op, 4, grid=g)
        v = res.eigenvectors
        assert res.operator is op
        assert np.allclose(np.sum(v**2, axis=0) * g.h, 1.0, rtol=1e-12)
        tv = op.diagonal[:, None] * v
        tv[:-1] += op.offdiagonal[:, None] * v[1:]
        tv[1:] += op.offdiagonal[:, None] * v[:-1]
        residual = tv - res.eigenvalues * v
        assert np.max(np.abs(residual)) < 1e-9 * np.max(np.abs(tv))

    def test_eigenvectors_computed_on_first_read(self):
        g = Grid(-10.0, 10.0, 801)
        res = eigen_tridiagonal(discretize(lambda x: x * x, g), 3, grid=g)
        assert "eigenvectors" not in vars(res)
        vecs = res.eigenvectors
        assert vecs.shape == (g.count, 3)
        assert "eigenvectors" in vars(res)
        assert res.eigenvectors is vecs

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
        assert abs(trapezoid_norm(np.ones(g.count), g.points) - 1.0) < 1e-12
        # the weight multiplies the squared values under the integral
        assert abs(trapezoid_norm(np.ones(g.count), g.points, np.full(g.count, 4.0)) - 2.0) < 1e-12

    def test_sine(self):
        g = Grid(0.0, 1.0, 10001)
        assert abs(trapezoid_norm(np.sin(math.pi * g.points), g.points) - math.sqrt(0.5)) < 1e-8

    def test_zero_rejected(self):
        g = Grid(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="norm on the grid is zero"):
            trapezoid_norm(np.zeros(g.count), g.points)
        with pytest.raises(ValueError, match="norm on the grid is zero"):
            trapezoid_norm(np.ones(g.count), g.points, np.zeros(g.count))


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


def _cli_operators():
    """The operators that ``spectrum --mode numeric|both`` and the harmonic
    ``susy-check`` eigensolve, with their eigenvalue counts."""
    params = CatenoidParams(1.0)
    r = Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, 4001)
    constant = discretize_sturm_liouville(
        lambda r: 1.0 - r * r, lambda r: constant_case_rspace_potential(3, r), r
    )
    x = Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, 4001)
    scarf = discretize(lambda x: scarf_form_pdfv(params, 2, x), x)
    u = Grid(-10.0, 10.0, 4001)
    v1, v2 = partner_potentials_from_W(lambda u: u, u.points, dW=np.ones_like)
    return {
        "constant_m3": (constant, 7),
        "scarf_m2": (scarf, 6),
        "harmonic_minus": (discretize(lambda _: v1, u), 7),
        "harmonic_plus": (discretize(lambda _: v2, u), 6),
    }


def _random_operators():
    """Seeded matrices that split (zero off-diagonals) and repeat values."""
    ops = {}
    for seed in range(6):
        g = np.random.default_rng(1000 + seed)
        n = int(g.integers(20, 300))
        diag = g.integers(-3, 4, n).astype(float)  # few distinct values
        off = g.choice([0.0, 0.5, -1.0], n - 1)
        if seed % 3 == 0:
            off[:] = 0.0  # diagonal matrix: every eigenvalue repeated
        ops[f"random_{seed}"] = (TridiagonalOperator(diag, off), int(g.integers(1, n + 1)))
    return ops


@pytest.mark.parametrize("op, k", [
    pytest.param(op, k, id=name) for name, (op, k) in {**_cli_operators(), **_random_operators()}.items()
])
def test_eigenvalues_match_vector_path(op, k):
    from scipy.linalg import eigh_tridiagonal

    ref, _ = eigh_tridiagonal(op.diagonal, op.offdiagonal, select="i", select_range=(0, k - 1))
    assert np.array_equal(eigen_tridiagonal(op, k).eigenvalues, ref)
