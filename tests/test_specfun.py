import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catenoid_dirac.specfun import (
    JacobiParams,
    hermite,
    jacobi,
    kummer_m,
    log_gamma,
    parabolic_cylinder_d,
    reciprocal_gamma,
)

rng = np.random.default_rng(20260826)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi(JacobiParams(0, 1.3, -0.2), 0.7) == 1.0

    def test_degree_one(self):
        val = jacobi(JacobiParams(1, 0.5, 0.5), 0.2)
        assert abs(val - 0.3) < 1e-14

    def test_legendre_reduction(self):
        assert abs(jacobi(JacobiParams(3, 0.0, 0.0), 0.5) - (-0.4375)) < 1e-14

    def test_against_scipy(self):
        for _ in range(100):
            n = int(rng.integers(0, 9))
            a = float(rng.uniform(-0.9, 4.0))
            b = float(rng.uniform(-0.9, 4.0))
            x = float(rng.uniform(-1.0, 1.0))
            ours = jacobi(JacobiParams(n, a, b), x)
            ref = sp.eval_jacobi(n, a, b, x)
            assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))

    def test_ode_residual(self):
        # (1-x^2) y'' + (b-a-(a+b+2)x) y' + n(n+a+b+1) y = 0, derivatives
        # taken through the degree-lowering identity so the check is
        # arithmetic only
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = float(rng.uniform(-0.9, 3.0))
            b = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(-0.99, 0.99))
            y = jacobi(JacobiParams(n, a, b), x)
            yp = 0.5 * (n + a + b + 1) * jacobi(JacobiParams(n - 1, a + 1, b + 1), x) if n >= 1 else 0.0
            ypp = (
                0.25 * (n + a + b + 1) * (n + a + b + 2) * jacobi(JacobiParams(n - 2, a + 2, b + 2), x)
                if n >= 2
                else 0.0
            )
            res = (1 - x * x) * ypp + (b - a - (a + b + 2) * x) * yp + n * (n + a + b + 1) * y
            scale = max(abs(y), abs(yp), abs(ypp), 1.0)
            worst = max(worst, abs(res) / scale)
        assert worst < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            jacobi(JacobiParams(2, 0.0, 0.0), 1.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            JacobiParams(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(2, -1.0, 0.0)


class TestKummer:
    def test_at_zero(self):
        assert kummer_m(1.7, 0.4, 0.0) == 1.0

    def test_a_zero(self):
        assert kummer_m(0.0, 2.0, 5.0) == 1.0

    def test_exponential_identity(self):
        assert abs(kummer_m(1.0, 2.0, 1.0) - (math.e - 1.0)) < 1e-12

    def test_against_scipy(self):
        for _ in range(100):
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.uniform(0.3, 4.0))
            z = float(rng.uniform(-5.0, 5.0))
            ref = sp.hyp1f1(a, b, z)
            assert abs(kummer_m(a, b, z) - ref) < 1e-9 * max(1.0, abs(ref))

    def test_contiguous_relation(self):
        # b M(a,b,z) - b M(a-1,b,z) - z M(a,b+1,z) = 0
        a, b, z = 1.3, 0.8, 2.1
        res = b * kummer_m(a, b, z) - b * kummer_m(a - 1, b, z) - z * kummer_m(a, b + 1, z)
        assert abs(res) < 1e-12

    @pytest.mark.parametrize("a, b, z, ref", [
        # b - a = -1: M = e^z (1 + z/b) by Kummer's transformation
        (2.5, 1.5, -50.0, math.exp(-50.0) * (1.0 - 50.0 / 1.5)),
        # M(1/2, 3/2, -x^2) = sqrt(pi) erf(x) / (2x), x^2 = 30
        (0.5, 1.5, -30.0, math.sqrt(math.pi) * math.erf(math.sqrt(30.0)) / (2.0 * math.sqrt(30.0))),
    ], ids=["terminating_transform", "error_function"])
    def test_negative_z_closed_forms(self, a, b, z, ref):
        assert abs(kummer_m(a, b, z) - ref) < 1e-12 * abs(ref)

    def test_bad_b(self):
        with pytest.raises(ValueError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m(1.0, -2.0, 1.0)


class TestHermite:
    def test_values(self):
        assert hermite(0, 0.3) == 1.0
        assert hermite(2, 0.0) == -2.0
        assert hermite(3, 1.0) == -4.0

    def test_against_scipy(self):
        for n in range(8):
            for x in np.linspace(-3, 3, 13):
                assert abs(hermite(n, x) - sp.eval_hermite(n, x)) < 1e-8 * max(
                    1.0, abs(sp.eval_hermite(n, x))
                )


class TestLogGamma:
    def test_values(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)

    def test_reciprocal_gamma_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert abs(reciprocal_gamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-14


class TestParabolicCylinder:
    def test_values(self):
        assert abs(parabolic_cylinder_d(0.0, 0.0) - 1.0) < 1e-14
        assert abs(parabolic_cylinder_d(2.0, 0.0) + 1.0) < 1e-12
        assert abs(parabolic_cylinder_d(1.0, 2.0) - 2.0 * math.exp(-1.0)) < 1e-12

    def test_hermite_reduction(self):
        # D_n(z) = 2^(-n/2) exp(-z^2/4) H_n(z/sqrt(2))
        for n in range(6):
            for z in np.linspace(-5, 5, 21):
                ref = 2 ** (-n / 2) * math.exp(-z * z / 4) * hermite(n, z / math.sqrt(2))
                assert abs(parabolic_cylinder_d(float(n), z) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_against_scipy_noninteger(self):
        for nu in (0.5, 1.5, -0.3, 2.7):
            for z in np.linspace(-4, 4, 9):
                ref = sp.pbdv(nu, z)[0]
                assert abs(parabolic_cylinder_d(nu, z) - ref) < 1e-8 * max(1.0, abs(ref))


def _grids(bound):
    return arrays(float, st.integers(0, 40), elements=st.floats(-bound, bound))


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@st.composite
def _kummer_ab(draw):
    b = draw(_open(0.5, 10.0))
    a = draw(st.one_of(
        _open(-10.0, 10.0),
        st.integers(-9, 0).map(float),  # terminating series
        st.integers(1, 9).map(lambda j: b + j).filter(lambda a: a < 10.0),  # b - a near -j
    ))
    return a, b


class TestArrayInput:
    """The array path sums every element with the scalar series' own
    operations in the same order; only np.exp against math.exp may differ."""

    @staticmethod
    def _assert_matches_pointwise(got, ref, exact):
        assert got.shape == ref.shape
        assert np.array_equal(got[exact], ref[exact])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

    @settings(max_examples=200, deadline=None)
    @given(_kummer_ab(), _grids(50.0))
    def test_kummer_matches_scalar_loop(self, ab, z):
        a, b = ab
        ref = np.array([kummer_m(a, b, float(v)) for v in z])
        terminating = a <= 0.0 and a == int(a)
        self._assert_matches_pointwise(kummer_m(a, b, z), ref, (z >= 0.0) | terminating)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 20).map(float), _grids(20.0))
    def test_pcf_integer_order_matches_scalar_loop(self, nu, z):
        ref = np.array([parabolic_cylinder_d(nu, float(v)) for v in z])
        self._assert_matches_pointwise(parabolic_cylinder_d(nu, z), ref, np.zeros(z.shape, bool))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-20.0, 20.0), _grids(6.0))
    def test_pcf_real_order_matches_scalar_loop(self, nu, z):
        ref = np.array([parabolic_cylinder_d(nu, float(v)) for v in z])
        self._assert_matches_pointwise(parabolic_cylinder_d(nu, z), ref, np.zeros(z.shape, bool))

    @pytest.mark.parametrize("z", [1.5, np.float64(1.5), np.array(1.5), 2], ids=["float", "float64", "0-d", "int"])
    def test_scalar_returns_float(self, z):
        assert type(kummer_m(0.7, 1.3, z)) is float
        assert type(kummer_m(0.7, 1.3, -z)) is float
        assert type(parabolic_cylinder_d(2.0, z)) is float
        assert type(parabolic_cylinder_d(-1.3, z)) is float

    def test_shape_kept(self):
        z = np.linspace(-4.0, 4.0, 6).reshape(2, 3)
        assert np.array_equal(kummer_m(0.7, 1.3, z), kummer_m(0.7, 1.3, z.ravel()).reshape(2, 3))
        assert np.array_equal(parabolic_cylinder_d(1.5, z), parabolic_cylinder_d(1.5, z.ravel()).reshape(2, 3))

    def test_empty(self):
        assert kummer_m(0.7, 1.3, np.array([])).shape == (0,)
        assert parabolic_cylinder_d(2.0, np.array([])).shape == (0,)
        assert parabolic_cylinder_d(-1.3, np.array([])).shape == (0,)

    @pytest.mark.parametrize("nu, z_max", [(2.0, 20.0), (0.5, 6.0), (-3.0, 6.0)])
    def test_pcf_one_point_out_of_range(self, nu, z_max):
        z = np.array([0.0, 1.0, -(z_max + 0.01), 2.0])
        with pytest.raises(ValueError, match=rf"argument out of supported range \|z\| <= {z_max} for nu={nu}"):
            parabolic_cylinder_d(nu, z)

    @pytest.mark.parametrize("b", [0.0, -2.0])
    def test_kummer_bad_b(self, b):
        with pytest.raises(ValueError, match="non-positive integer"):
            kummer_m(1.0, b, np.array([1.0, 2.0]))

    def test_kummer_no_convergence_names_first_point(self):
        # M(1, 1, z) = e^z needs more than the term budget past z of about 340
        with pytest.raises(ArithmeticError, match=r"a=1\.0, b=1\.0, z=600\.0"):
            kummer_m(1.0, 1.0, np.array([1.0, 600.0, 700.0]))
