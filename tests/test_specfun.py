import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catenoid_dirac.specfun import (
    JacobiParams,
    hermite,
    jacobi,
    kummer_m,
    parabolic_cylinder_d,
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

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_params_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must exceed -1"):
            JacobiParams(2, alpha, beta)

    @pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan, 0.5])], ids=["scalar", "array"])
    def test_nan_argument_fails_domain_guard(self, x):
        with pytest.raises(ValueError, match=r"argument must lie in \[-1, 1\]"):
            jacobi(JacobiParams(2, 0.5, 0.5), x)


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

    @pytest.mark.parametrize("a, b, match", [
        (math.nan, 1.5, "a and b must be numbers"), (1.0, math.nan, "a and b must be numbers"),
    ], ids=["a", "b"])
    @pytest.mark.parametrize("z", [1.0, np.array([0.5, 1.0])], ids=["scalar_z", "array_z"])
    def test_nan_parameter_rejected(self, a, b, match, z):
        with pytest.raises(ValueError, match=match):
            kummer_m(a, b, z)

    @pytest.mark.parametrize("z", [math.nan, np.float64(math.nan), np.array([0.5, math.nan, -2.0])],
                             ids=["float", "numpy_scalar", "array"])
    @pytest.mark.parametrize("a", [1.0, -2.0], ids=["series", "terminating"])
    def test_nan_argument_rejected(self, a, z):
        with pytest.raises(ValueError, match="z must be a number"):
            kummer_m(a, 1.5, z)

    # an infinite b used to overflow in int(b), an infinite a in int(a) or
    # after 500 terms of the series
    @pytest.mark.parametrize("a, b", [
        (math.inf, 1.5), (-math.inf, 1.5), (1.0, math.inf), (1.0, -math.inf),
    ], ids=["a_inf", "a_minus_inf", "b_inf", "b_minus_inf"])
    @pytest.mark.parametrize("z", [1.0, np.array([0.5, 1.0])], ids=["scalar_z", "array_z"])
    def test_infinite_parameter_rejected(self, a, b, z):
        with pytest.raises(ValueError, match="a and b must be numbers and finite"):
            kummer_m(a, b, z)

    # an infinite z used to run 500 terms of the series and raise ArithmeticError
    @pytest.mark.parametrize("z", [math.inf, -math.inf, np.float64(-math.inf), np.array([0.5, math.inf])],
                             ids=["inf", "minus_inf", "numpy_scalar", "array"])
    @pytest.mark.parametrize("a", [1.0, -2.0], ids=["series", "terminating"])
    def test_infinite_argument_rejected(self, a, z):
        with pytest.raises(ValueError, match="z must be a number and finite"):
            kummer_m(a, 1.5, z)


class TestHermite:
    def test_values(self):
        assert hermite(0, 0.3) == 1.0
        assert hermite(2, 0.0) == -2.0
        assert hermite(3, 1.0) == -4.0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            hermite(-1, 0.5)

    def test_against_scipy(self):
        for n in range(8):
            for x in np.linspace(-3, 3, 13):
                assert abs(hermite(n, x) - sp.eval_hermite(n, x)) < 1e-8 * max(
                    1.0, abs(sp.eval_hermite(n, x))
                )


# a Python int beyond the float range used to escape as OverflowError from
# the float conversion
@pytest.mark.parametrize("call, args", [
    (kummer_m, (10**400, 1.5, 1.0)),
    (kummer_m, (1.0, 10**400, 1.0)),
    (kummer_m, (1.0, 1.5, 10**400)),
    (kummer_m, (1.0, 1.5, [0.5, 10**400])),
    (parabolic_cylinder_d, (1.0, 10**400)),
    (parabolic_cylinder_d, (1.0, [0.5, 10**400])),
], ids=["kummer_a", "kummer_b", "kummer_scalar_z", "kummer_array_z", "pcf_scalar_z", "pcf_array_z"])
def test_beyond_float_range_raises_value_error(call, args):
    with pytest.raises(ValueError, match="float range|supported range"):
        call(*args)


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

    @pytest.mark.parametrize("nu, z_max", [(2.0, 20.0), (1.5, 6.0)])
    def test_nan_argument_is_out_of_range(self, nu, z_max):
        match = rf"argument out of supported range \|z\| <= {z_max} for nu={nu}"
        with pytest.raises(ValueError, match=match):
            parabolic_cylinder_d(nu, math.nan)
        with pytest.raises(ValueError, match=match):
            parabolic_cylinder_d(nu, np.array([0.0, math.nan, 1.0]))

    def test_nan_order_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"order out of supported range \|nu\| <= 20.0"):
            parabolic_cylinder_d(math.nan, 1.0)


def _grids(bound):
    return arrays(float, st.integers(0, 40), elements=st.floats(-bound, bound))


@st.composite
def _kummer_ab(draw):
    b = draw(st.floats(0.5, 10.0))
    a = draw(st.one_of(
        st.floats(-10.0, 10.0),
        st.integers(-10, 0).map(float),  # terminating series
        st.integers(0, 9).map(lambda j: b + j).filter(lambda a: a <= 10.0),  # b - a near -j
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
        with pytest.raises(ArithmeticError, match=r"a=0\.5, b=1\.5, z=600\.0"):  # scalar z
            kummer_m(0.5, 1.5, 600.0)


# -- against mpmath ---------------------------------------------------------

U = 2.0 ** -53  # unit roundoff of float64


def _jacobi_terms(n, a, b, x):
    """The n + 1 terms of the explicit sum of P_n^(a,b)(x), DLMF 18.5.8."""
    return [mpmath.binomial(n + a, n - s) * mpmath.binomial(n + b, s)
            * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s) for s in range(n + 1)]


def _jacobi_mp(n, a, b, x):
    return mpmath.fsum(_jacobi_terms(n, a, b, x))


def _kummer_summed(a, b, z):
    """Number of terms and sum of their moduli of the series kummer_m sums:
    after Kummer's transformation for z < 0 unless a is a non-positive
    integer, up to the last term or the first term below 1e-17 of the
    partial sum that no later term exceeds."""
    terminating = a <= 0 and a == int(a)
    scale = mpmath.mpf(1)
    if z < 0 and not terminating:
        scale, a, z = mpmath.exp(z), b - a, -z
    a, b, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
    terms, totals = [mpmath.mpf(1)], [mpmath.mpf(1)]
    for k in range(500):
        terms.append(terms[-1] * (a + k) * z / ((b + k) * (k + 1)))
        totals.append(totals[-1] + terms[-1])
        if terminating and a + k == 0:
            break
    later, top = [], 0  # later[k]: the largest modulus after term k
    for t in reversed(terms):
        later.append(top)
        top = max(top, abs(t))
    later.reverse()
    stop = next((k for k in range(1, len(terms)) if abs(terms[k]) < 1e-17 * abs(totals[k])
                 and abs(terms[k]) >= later[k]), len(terms) - 1)
    return stop, scale * mpmath.fsum(abs(t) for t in terms[:stop + 1])


def _hyp1f1(a, b, z):
    # zeroprec: M(-1, 1, 1) = 0 is returned instead of raising
    return mpmath.hyp1f1(a, b, z, zeroprec=400)


def _kummer_bound(a, b, z):
    """M(a, b, z) and the bound on the error of kummer_m(a, b, z) that
    TestAgainstMpmath derives, at the working precision."""
    terms, moduli = _kummer_summed(a, b, z)
    cond = (abs(a * mpmath.diff(lambda p: _hyp1f1(p, b, z), a))
            + abs(b * mpmath.diff(lambda p: _hyp1f1(a, p, z), b))
            + abs(z * a / b * _hyp1f1(a + 1, b + 1, z)))
    return _hyp1f1(a, b, z), 8 * (terms + 1) * U * (moduli + cond)


@st.composite
def _pcf_order_and_argument(draw):
    """An order of the terminating Hermite form with |z| <= 20, or one of
    the two-Kummer representation with |z| <= 6."""
    if draw(st.booleans()):
        return float(draw(st.integers(0, 20))), draw(st.floats(-20.0, 20.0))
    nu = draw(st.floats(-20.0, 20.0).filter(lambda v: v < 0.0 or v != int(v)))
    return nu, draw(st.floats(-6.0, 6.0))


class TestAgainstMpmath:
    """Property tests of jacobi, hermite, kummer_m and parabolic_cylinder_d
    over their whole argument ranges, with mpmath at 40 digits as the oracle.

    Each tolerance is a rounding-error bound, not a fit to today's output.
    A method that sums N terms or runs N recurrence steps, rounding at most
    c times in each, returns the exact value for terms and arguments each
    perturbed by at most c (N + 1) u relative (u = 2^-53).  So its error is
    at most c (N + 1) u (S + sum over the arguments p of |p df/dp|), where
    S, the sum of the moduli of the terms, measures the cancellation of the
    sum (S = |f| when no term cancels another), and |p df/dp| the
    cancellation that a relative change of p causes, as in alpha + 1 near
    alpha = -1 or in b - a near a negative integer.
    - Jacobi: S over the explicit sum of DLMF 18.5.8, N = n; a step of the
      three-term recurrence rounds about ten times (c = 10).  dP/dx is
      (n + alpha + beta + 1)/2 P_(n-1)^(alpha+1,beta+1); the parameter
      derivatives are mpmath.diff of the explicit sum.
    - Hermite: S over the explicit sum of DLMF 18.5.13, which is |H_n(i|x|)|,
      N = n; a step 2x h1 - 2k h0 rounds three times (c = 4).
      dH/dx = 2n H_(n-1).
    - Kummer: S over the terms kummer_m sums, times e^z after Kummer's
      transformation; N of them, each the last times a ratio that rounds
      five times, plus one rounding of the partial sum and one of e^z
      (c = 8).  dM/dz = a/b M(a + 1, b + 1, z); the parameter derivatives
      are mpmath.diff of mpmath.hyp1f1.
    - Parabolic cylinder: D_nu(z) = pre (c1 M1 - c2 z M2) with
      pre = 2^(nu/2) e^(-z^2/4), c1 = sqrt(pi)/Gamma((1-nu)/2),
      c2 = sqrt(2 pi)/Gamma(-nu/2), M1 = M(-nu/2, 1/2, z^2/2) and
      M2 = M((1-nu)/2, 3/2, z^2/2) (DLMF 12.4.1, 12.2.6-7 and 12.7(iv)).
      The reference is this sum at 40 digits with exact arguments, the
      form that mpmath.pcfd's own source advises for small z: pcfd sums a
      2F0 series for z < 0 that takes seconds at |nu| below 1e-100.  Each
      M carries the Kummer bound B at the rounded arguments that kummer_m
      receives, which also covers their rounding; 2^(nu/2), sqrt(pi),
      sqrt(2 pi), Gamma and the products round a few times each, and the
      rounding of z^2/4 is amplified z^2/4 times by the exponential:
      (16 + |nu| + z^2) u relative on each term.  So the error is at most
      pre (|c1| B1 + |c2 z| B2 + (16 + |nu| + z^2) u (|c1 M1| + |c2 z M2|)).
      The bound grows with the cancellation of the two terms, which costs
      non-integer orders most of their digits near |z| = 6 (ROADMAP item
      4): it bounds that loss, it does not hide it.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 20), st.floats(-1.0, 10.0, exclude_min=True),
           st.floats(-1.0, 10.0, exclude_min=True), st.floats(-1.0, 1.0))
    @example(6, -0.9999999999983713, -0.9999999999984814, -1.0)  # once 1.7e-4, not 2.5e-13
    def test_jacobi(self, n, alpha, beta, x):
        got = float(jacobi(JacobiParams(n, alpha, beta), x))
        with mpmath.workdps(40):
            a, b, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
            ref = _jacobi_mp(n, a, b, t)
            moduli = mpmath.fsum(abs(v) for v in _jacobi_terms(n, a, b, t))
            dx = (n + a + b + 1) / 2 * _jacobi_mp(n - 1, a + 1, b + 1, t) if n else 0
            da = mpmath.diff(lambda p: _jacobi_mp(n, p, b, t), a)
            db = mpmath.diff(lambda p: _jacobi_mp(n, a, p, t), b)
            bound = 10 * (n + 1) * U * (moduli + abs(t * dx) + abs(a * da) + abs(b * db))
            assert abs(got - ref) <= bound

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 30), st.floats(-10.0, 10.0))
    def test_hermite(self, n, x):
        got = float(hermite(n, x))
        with mpmath.workdps(40):
            t = mpmath.mpf(x)
            moduli = abs(mpmath.hermite(n, 1j * abs(t)))
            dx = 2 * n * mpmath.hermite(n - 1, t) if n else 0
            assert abs(got - mpmath.hermite(n, t)) <= 4 * (n + 1) * U * (moduli + abs(t * dx))

    @staticmethod
    def _assert_kummer_close(a, b, z, got):
        with mpmath.workdps(40):
            ref, bound = _kummer_bound(a, b, z)
            assert abs(got - ref) <= bound, (a, b, z)

    @settings(max_examples=150, deadline=None)
    @given(_kummer_ab(), st.floats(-50.0, 50.0))
    @example((1e-20, 1.0), 50.0)  # once stopped at the tiny first term: 1.0, not 2.0586
    def test_kummer_scalar(self, ab, z):
        self._assert_kummer_close(*ab, z, kummer_m(*ab, z))

    @settings(max_examples=40, deadline=None)
    @given(_kummer_ab(), arrays(float, st.integers(1, 4), elements=st.floats(-50.0, 50.0)))
    @example((1e-20, 1.0), np.array([1.0, 50.0]))
    def test_kummer_array(self, ab, z):
        for v, got in zip(z.tolist(), kummer_m(*ab, z).tolist()):
            self._assert_kummer_close(*ab, v, got)

    @settings(max_examples=150, deadline=None)
    @given(_pcf_order_and_argument())
    @example((18.99, 0.0))  # once 6.3 times this bound, from a hand-written 1/Gamma
    @example((2.225073858507203e-309, 0.0))  # once OverflowError from Gamma(-nu/2)
    @example((1.0, 2.225073858507e-311))  # once 1 subnormal ulp off, from rounding c2 z before pre
    def test_parabolic_cylinder_d(self, nu_z):
        nu, z = nu_z
        got = parabolic_cylinder_d(nu, z)
        with mpmath.workdps(40):
            v, t = mpmath.mpf(nu), mpmath.mpf(z)
            pre = 2 ** (v / 2) * mpmath.exp(-t * t / 4)
            c1 = mpmath.sqrt(mpmath.pi) * mpmath.rgamma((1 - v) / 2)
            c2z = mpmath.sqrt(2 * mpmath.pi) * mpmath.rgamma(-v / 2) * t
            ref = err = size = 0
            for c, a, b, a_got in ((c1, -v / 2, 0.5, -nu / 2.0), (-c2z, (1 - v) / 2, 1.5, (1.0 - nu) / 2.0)):
                if c:  # zero at a pole of Gamma, where parabolic_cylinder_d drops the term
                    ref += c * _hyp1f1(a, b, t * t / 2)
                    m, bound = _kummer_bound(a_got, b, z * z / 2.0)
                    err, size = err + abs(c) * bound, size + abs(c * m)
            bound = pre * (err + (16 + abs(v) + t * t) * U * size)
            assert abs(got - pre * ref) <= bound, (nu, z)
