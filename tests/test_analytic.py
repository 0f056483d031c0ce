import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenoid_dirac.analytic import (
    QuantumNumbers,
    constant_case_epsilon_sq,
    constant_case_rspace_potential,
    constant_case_rspace_solution,
    eigenfunction_constant_case,
    eigenfunction_pdfv,
    energy_constant_case,
    energy_dependent_branch,
    energy_dependent_potential,
    energy_dependent_residual,
    energy_first_order_pdfv,
    energy_pdfv,
    jacobi_branch_params,
    near_origin_degree,
    near_origin_quantization,
    near_origin_solution,
    partner_eigenfunction_constant,
    partner_eigenfunction_pdfv,
    scarf_endpoint_kappa,
    scarf_params_pdfv,
    scarf_params_physical,
    superpotential_pdfv,
    zero_energy_solution,
)
from catenoid_dirac.analytic import ScarfParams
from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import Grid, discretize, eigen_tridiagonal, first_derivative, second_derivative
from catenoid_dirac.potentials import scarf_form_pdfv, transformed_partner_potential
from catenoid_dirac.specfun import JacobiParams, hermite, jacobi, kummer_m, parabolic_cylinder_d
from fd_oracles import count_features, ode_residual

R1 = CatenoidParams(1.0)
U = 2.0**-53  # unit roundoff of a float


class TestQuantumNumbers:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 2)

    def test_rejects_non_integer_m(self):
        with pytest.raises(ValueError, match="angular momentum must be an integer"):
            QuantumNumbers(0, 2.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_nan_and_infinite_m(self, m):  # an infinity used to raise OverflowError
        with pytest.raises(ValueError, match="angular momentum must be an integer"):
            QuantumNumbers(1, m)

    def test_integral_floats_are_stored_as_ints(self):
        qn = QuantumNumbers(2.0, -3.0)
        assert qn == QuantumNumbers(2, -3) and type(qn.n) is int and type(qn.m) is int


_U = np.array([-2.0, 0.0, 1.5])
_T = np.array([-0.5, 0.0, 0.7])
# every entry point that takes a degree or a principal number n
_AT_N = {
    "eigenfunction_constant_case": lambda n: eigenfunction_constant_case(R1, QuantumNumbers(n, 3), _U),
    "eigenfunction_pdfv": lambda n: eigenfunction_pdfv(
        R1, scarf_params_physical(R1, 2, 1.0), QuantumNumbers(n, 2), _U),
    "partner_eigenfunction_constant": lambda n: partner_eigenfunction_constant(R1, QuantumNumbers(n, 3), _U),
    "constant_case_rspace_solution": lambda n: constant_case_rspace_solution(QuantumNumbers(n, 3), _T),
    "energy_constant_case": lambda n: energy_constant_case(R1, 1.0, QuantumNumbers(n, 3)).value,
    "energy_pdfv": lambda n: energy_pdfv(R1, scarf_params_physical(R1, 2, 1.0), QuantumNumbers(n, 2)).value,
    "jacobi": lambda n: jacobi(JacobiParams(n, 0.5, 1.5), _T),
    "hermite": lambda n: hermite(n, _U),
}


@pytest.mark.parametrize("call", _AT_N.values(), ids=_AT_N.keys())
class TestIntegralN:
    def test_integral_float_is_the_integer(self, call):  # raised TypeError in range()
        assert np.array_equal(call(2.0), call(2))

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinities_rejected(self, call, n):  # raised OverflowError, or ValueError from int()
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            call(n)


class TestJacobiBranchParams:
    def test_m3(self):
        jp = jacobi_branch_params(3)
        assert abs(jp.a - math.sqrt(79) / 4) < 1e-15
        assert abs(jp.b - math.sqrt(7) / 4) < 1e-15
        assert abs(jp.M1 - math.sqrt(7)) < 1e-15
        assert abs(jp.M2 - math.sqrt(79)) < 1e-15
        assert jp.all_real

    def test_m0_symmetric(self):
        jp = jacobi_branch_params(0)
        assert jp.a == jp.b and jp.M1 == jp.M2
        assert abs(jp.M1 - math.sqrt(7)) < 1e-15

    def test_m_to_minus_m_swap(self):
        for m in (1, 3, 5):
            jp, jn = jacobi_branch_params(m), jacobi_branch_params(-m)
            assert jp.a_radicand == jn.b_radicand
            assert jp.b_radicand == jn.a_radicand
        for m in (3, 4, 5):  # both radicands real from |m| = 3 up
            jp, jn = jacobi_branch_params(m), jacobi_branch_params(-m)
            assert jp.a == jn.b and jp.b == jn.a
            assert jp.M1 == jn.M2 and jp.M2 == jn.M1

    def test_m_minus2_flagged(self):
        jp = jacobi_branch_params(-2)
        assert not jp.all_real
        assert jp.a_radicand == -1.0
        assert "M2" in jp.invalid_reason and "complex" in jp.invalid_reason


class TestEnergyConstantCase:
    def test_pinned_value(self):
        # frozen from the closed form; radicand 55.5838434893700576
        lvl = energy_constant_case(R1, 1.0, QuantumNumbers(0, 3))
        assert lvl.valid
        assert abs(lvl.value - 2.635902205350429) < 1e-12

    def test_velocity_and_radius_scaling(self):
        base = energy_constant_case(R1, 1.0, QuantumNumbers(1, 3)).value
        assert abs(energy_constant_case(R1, 2.0, QuantumNumbers(1, 3)).value - 2 * base) < 1e-12
        assert abs(energy_constant_case(CatenoidParams(2.0), 1.0, QuantumNumbers(1, 3)).value - base / 2) < 1e-12

    def test_invalid_m_minus2(self):
        lvl = energy_constant_case(R1, 1.0, QuantumNumbers(1, -2))
        assert not lvl.valid
        assert "M2" in lvl.reason

    def test_invalid_negative_radicand(self):
        # m=0, n=0: radicand -20 + 4 sqrt(7) < 0
        lvl = energy_constant_case(R1, 1.0, QuantumNumbers(0, 0))
        assert not lvl.valid
        assert "radicand" in lvl.reason

    def test_invalid_when_velocity_over_radius_overflows(self):
        lvl = energy_constant_case(CatenoidParams(1e-100), 1e300, QuantumNumbers(0, 3))
        assert not lvl.valid and math.isnan(lvl.value)
        assert lvl.reason == "|E| = inf is not finite"

    def test_m_parity_invariance(self):
        for m in (1, 3, 4):
            for n in (0, 2):
                a = energy_constant_case(R1, 1.0, QuantumNumbers(n, m))
                b = energy_constant_case(R1, 1.0, QuantumNumbers(n, -m))
                if a.valid and b.valid:
                    assert abs(a.value - b.value) < 1e-12

    def test_matching_condition(self):
        # n(n+2a+2b+1) = (17-4a^2-4b^2)/4 + eps^2 - b - a(1+2b)
        for m in (0, 3, 4, 5):  # both Jacobi exponents real for these m
            jp = jacobi_branch_params(m)
            for n in range(4):
                eps_sq = constant_case_epsilon_sq(QuantumNumbers(n, m))
                lhs = n * (n + 2 * jp.a + 2 * jp.b + 1)
                rhs = (17 - 4 * jp.a**2 - 4 * jp.b**2) / 4 + eps_sq - jp.b - jp.a * (1 + 2 * jp.b)
                assert abs(lhs - rhs) < 1e-9


class TestEigenfunctionConstantCase:
    def test_value_at_throat(self):
        raw = eigenfunction_constant_case(R1, QuantumNumbers(0, 3), 0.0)
        assert abs(raw - 1.0) < 1e-14

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_raw_scale(self, R):
        # unnormalized: chi_1(0) = P_1^(2a,2b)(0) = a - b, whatever the grid
        jp = jacobi_branch_params(3)
        u = np.array([-3.0 * R, 0.0, 5.0 * R])
        chi = eigenfunction_constant_case(CatenoidParams(R), QuantumNumbers(1, 3), u)
        assert abs(chi[1] - (jp.a - jp.b)) < 1e-14
        assert chi[0] == eigenfunction_constant_case(CatenoidParams(R), QuantumNumbers(1, 3), u[0])

    def test_rspace_residual(self):
        # the compact-coordinate form solves its Sturm-Liouville equation
        g = Grid(-0.9, 0.9, 2001)
        r = g.points
        for n in range(4):
            chi = constant_case_rspace_solution(QuantumNumbers(n, 3), r)
            eps_sq = constant_case_epsilon_sq(QuantumNumbers(n, 3))
            d1 = first_derivative(chi, g.h)
            flux = first_derivative((1 - r * r) * d1, g.h)
            res = -flux + constant_case_rspace_potential(3, r) * chi - eps_sq * chi
            assert np.max(np.abs(res[4:-4])) / np.max(np.abs(chi)) < 1e-5

    def test_invalid_params_rejected_without_toggle(self):
        with pytest.raises(ValueError):
            eigenfunction_constant_case(R1, QuantumNumbers(1, -2), 0.0)
        with pytest.raises(ValueError, match=r"M1 = sqrt\(-1\) is complex"):
            constant_case_epsilon_sq(QuantumNumbers(0, 1))
        vals = eigenfunction_constant_case(
            R1, QuantumNumbers(1, -2), np.linspace(-3, 3, 11), allow_invalid=True
        )
        assert np.all(np.isfinite(vals))

    def test_exponent_variants_differ_by_smooth_factor(self):
        u = np.linspace(-3, 3, 301)
        a_form = eigenfunction_constant_case(R1, QuantumNumbers(1, 3), u)
        b_form = eigenfunction_constant_case(R1, QuantumNumbers(1, 3), u, exponent_shift=0.75)
        t = u / np.sqrt(1 + u * u)
        factor = (1 - t * t) ** 0.25
        assert np.max(np.abs(b_form - a_form * factor)) < 1e-12


class TestZeroEnergySolution:
    def test_value_at_origin_m0(self):
        v = 1.5 * zero_energy_solution(0, 0.0)
        assert abs(v - 6.0) < 1e-12

    def test_finite_inside_domain(self):
        vals = zero_energy_solution(2, np.linspace(-1.5, 1.5, 101))
        assert np.all(np.isfinite(vals))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            zero_energy_solution(1, math.pi / 2)


class TestNearOrigin:
    def test_pinned_quantization(self):
        assert abs(near_origin_quantization(2, 1).value - 0.5) < 1e-15
        assert abs(near_origin_quantization(5, 2).value - math.sqrt(10) / 2) < 1e-14

    def test_invalid(self):
        lvl = near_origin_quantization(1, 1)
        assert not lvl.valid and "radicand" in lvl.reason

    def test_hermite_value(self):
        # m=0, eps^2 = 3/2 makes the degree exactly 2
        eps = math.sqrt(1.5)
        v = near_origin_solution(0, eps, 0.0, c1=1.0, c2=0.0)
        assert abs(v + 2.0) < 1e-12

    def test_kummer_value(self):
        v = near_origin_solution(0, math.sqrt(1.5), 0.0, c1=0.0, c2=1.0)
        # M(-1, 1/2, 0) = 1
        assert abs(v - 1.0) < 1e-12

    def test_residual(self):
        m, n = 1, 2
        eps = near_origin_quantization(n, m).value
        g = Grid(-0.1, 0.1, 201)
        r = g.points
        for c1, c2 in [(1.0, 0.0), (0.0, 1.0)]:
            y = near_origin_solution(m, eps, r, c1=c1, c2=c2)
            d1 = first_derivative(y, g.h)
            d2 = second_derivative(y, g.h)
            res = d2 - 2 * r * d1 - 3 * m * r * y + (eps**2 + 2.5 - m * m) * y
            assert np.max(np.abs(res[4:-4])) / np.max(np.abs(y)) < 1e-7

    def test_noninteger_degree_needs_kummer(self):
        with pytest.raises(ValueError):
            near_origin_solution(1, 0.3, 0.0, c1=1.0, c2=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 3), st.floats(0.0, 3.0), st.integers(201, 2001))
    def test_matches_pointwise_kummer(self, m, eps, points):
        # the grid sums as one array; each value must equal the scalar
        # series evaluated point by point, bit for bit
        r = np.linspace(-0.2, 0.2, points)
        alpha = near_origin_degree(m, eps)
        ks = np.array([kummer_m(-alpha / 2.0, 0.5, si * si) for si in 1.5 * m + r])
        ref = np.zeros_like(r) + 1.0 * np.exp(-1.5 * m * r) * ks
        assert np.array_equal(near_origin_solution(m, eps, r), ref)


class TestEnergyDependentBranch:
    def test_back_substitution(self):
        for n in range(3):
            eps_sq, _ = energy_dependent_branch(2, n)
            assert energy_dependent_residual(2, n, eps_sq) < 1e-10

    def test_levels_increase(self):
        vals = [energy_dependent_branch(2, n)[0] for n in range(3)]
        assert vals[0] < vals[1] < vals[2]

    def test_profile_residual(self):
        eps_sq, samples = energy_dependent_branch(2, 1)
        g = samples.grid
        mask = np.abs(g.points) <= 0.3
        res = -second_derivative(samples.values, g.h) + (
            energy_dependent_potential(2, eps_sq, g.points) - eps_sq
        ) * samples.values
        assert np.max(np.abs(res[mask][2:-2])) / np.max(np.abs(samples.values)) < 1e-6

    def test_requires_wide_enough_mass(self):
        with pytest.raises(ValueError):
            energy_dependent_branch(1, 0)
        with pytest.raises(ValueError):  # 8m^2 > 11, but the positive root of P gives eps^2 < 0
            energy_dependent_branch(1.2, 0)

    @pytest.mark.parametrize("n", [-1, 1.5, math.nan, math.inf])
    def test_level_index_must_be_a_non_negative_integer(self, n):  # n = -1 once gave eps^2 = 0.301
        with pytest.raises(ValueError, match="level index must be a non-negative integer"):
            energy_dependent_branch(3, n)

    def test_exact_level(self):
        # at (m, n) = (-2, 1), f = 3 solves P, so eps^2 = (32 - 11 - 9)/12 = 1
        assert abs(energy_dependent_branch(-2, 1)[0] - 1.0) <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 20, -2, -3, -4, -5, -20])
    def test_level_is_the_positive_root_of_the_quartic(self, m):
        """Levels n = 0..20 (the orders D_n accepts) against
        eps^2 = (8m^2 - 11 - f*^2)/12, with f* the one positive root of
        P(f) = f^4 + (12n+6)f^3 + (4m^2-31)f^2 - 108m^2 at 40 digits.

        The tolerance is a rounding-error bound, not a fit to today's output
        (u = 2^-53):
        - np.roots returns the eigenvalues of the companion matrix A of P
          from LAPACK dgeev, which balances A to B = T^-1 A T (dgebal: a
          permutation and powers of 2, both exact) and returns the exact
          eigenvalues of B + E with ||E|| <= p u ||B||, p a modest function
          of the order 4, taken as 4^2 (LAPACK Users' Guide, sec. 4.8).  To
          first order f* moves by at most p u ||B|| ||x|| ||y|| / |y^T x|,
          with x = T^-1 (f^3, f^2, f, 1) and y = T^T (the Horner partial
          sums of P at f) the right and left eigenvectors of B, and
          y^T x = P'(f).
        - eps^2 moves by f |df| / 6 through f*, and (8m^2 - 11 - f^2)/12
          rounds at most five times, each on a value no larger than
          8m^2 + 11 + f^2.
        """
        from scipy.linalg import matrix_balance

        for n in range(21):
            got = energy_dependent_branch(m, n)[0]
            coeffs = [1, 12 * n + 6, 4 * m * m - 31, 0, -108 * m * m]
            companion = np.diag(np.ones(3), -1)
            companion[0] = -np.array(coeffs[1:], dtype=float)
            balanced, T = matrix_balance(companion)
            with mpmath.workdps(40):
                [f] = [mpmath.re(r) for r in mpmath.polyroots(coeffs, maxsteps=100, extraprec=100)
                       if mpmath.im(r) == 0 and mpmath.re(r) > 0]
                ref = (8 * m * m - 11 - f * f) / 12
                T = mpmath.matrix(T.tolist())
                x = mpmath.inverse(T) * mpmath.matrix([f**3, f**2, f, 1])
                y = T.T * mpmath.matrix([mpmath.polyval(coeffs[:j + 1], f) for j in range(4)])
                dP = mpmath.polyval(coeffs, f, derivative=True)[1]
                df = 16 * U * np.linalg.norm(balanced, 2) * mpmath.norm(x) * mpmath.norm(y) / abs(dP)
                bound = f * df / 6 + 5 * U * (8 * m * m + 11 + f * f) / 12
                assert abs(got - ref) <= bound, (m, n)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]), st.integers(0, 7), st.integers(201, 4001))
    def test_profile_matches_pointwise_pcf(self, m, n, points):
        # the profile is D_n on the whole grid at once; against the scalar
        # D_n point by point only np.exp and math.exp may differ
        root, samples = energy_dependent_branch(m, n, r_count=points)
        f = math.sqrt(-11.0 + 8.0 * m * m - 12.0 * root)
        arg = (6.0 * m + (8.0 * m * m - 11.0 - 12.0 * root) * samples.grid.points) / f**1.5
        ref = np.array([parabolic_cylinder_d(float(n), ai) for ai in arg])
        assert np.all(np.abs(samples.values - ref) <= 1e-15 * np.abs(ref))


class TestScarfParams:
    def test_printed_values(self):
        s = scarf_params_pdfv(R1, 2, 1.0)
        assert abs(s.c - math.sqrt(13 + math.sqrt(133))) < 1e-12
        assert abs(s.B - 1.751162563651316) < 1e-12
        assert abs(s.A - (-0.07059902190698193)) < 1e-12
        assert s.branch == "printed"

    def test_zero_denominator_guard(self):
        with pytest.raises(ZeroDivisionError):
            scarf_params_pdfv(CatenoidParams(2.0 / 3.0), 1, 1.0)

    # the three invalid returns of the printed closed forms, at R = 0.1
    @pytest.mark.parametrize("m, reason", [
        (-6, "radicand inside A, -119811, is negative"),
        (-1, "radicand under c, -8, is negative"),
        (0, "c^2 = -0.00667409 is negative"),
    ])
    def test_invalid_printed_sets_are_flagged(self, m, reason):
        s = scarf_params_pdfv(CatenoidParams(0.1), m, 1.0)
        assert not s.valid and s.reason == reason and math.isnan(s.A)

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError, match="root must be 'upper' or 'lower'"):
            scarf_params_physical(R1, 2, 1.0, root="middle")

    def test_physical_branch_identities(self):
        s = scarf_params_physical(R1, 2, 1.0)
        beta = 0.5 * (4 * 2 * 1 - 2 * 2 - 1)
        assert abs(s.A * (s.A - 1) + s.B**2 - 3.0) < 1e-12
        assert abs(s.B * (2 * s.A - 1) - beta) < 1e-12
        assert s.jacobi_exponents_classical

    def test_lower_branch_matches_printed_B(self):
        # the printed B and c come from the lower quartic root; the printed
        # A formula deviates from the exact root by about 1e-3
        lo = scarf_params_physical(R1, 2, 1.0, root="lower")
        pr = scarf_params_pdfv(R1, 2, 1.0)
        assert abs(lo.B - pr.B) < 1e-12
        assert abs(lo.A - pr.A) < 2e-3
        assert abs(lo.A - pr.A) > 1e-4

    def test_physical_spectrum_matches_numeric(self):
        from catenoid_dirac.numeric import discretize, eigen_tridiagonal

        s = scarf_params_physical(R1, 2, 1.0)
        g = Grid(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 4001)
        vals = eigen_tridiagonal(
            discretize(lambda x: scarf_form_pdfv(R1, 2, x), g), 4, grid=g
        ).eigenvalues
        for n in range(4):
            ref = (s.A + n) ** 2 - 1.0
            assert abs(vals[n] - ref) / abs(ref) < 1e-3


class TestScarfEndpointKappa:
    @pytest.mark.parametrize("R, m, kappa", [
        (0.5, 1, (-0.25, 0.25)),
        (0.8, 1, (0.2, -0.2)),
        (1.0, 2, (4.5, 1.5)),
    ])
    def test_values(self, R, m, kappa):
        assert scarf_endpoint_kappa(CatenoidParams(R), m) == pytest.approx(kappa, abs=1e-15)

    @pytest.mark.parametrize("R, m", [(0.5, 1), (0.8, 1), (1.0, 2), (1.3, -3)])
    def test_is_the_endpoint_singularity(self, R, m):
        # delta^2 * V at distance delta from each end tends to kappa like delta^2
        params = CatenoidParams(R)
        k_minus, k_plus = scarf_endpoint_kappa(params, m)
        for delta in (1e-3, 1e-4):
            assert abs(delta**2 * scarf_form_pdfv(params, m, -math.pi / 2 + delta) - k_minus) < 5 * delta**2
            assert abs(delta**2 * scarf_form_pdfv(params, m, math.pi / 2 - delta) - k_plus) < 5 * delta**2


class TestEnergyPdfv:
    def test_printed_A_levels(self):
        s = scarf_params_pdfv(R1, 2, 1.0)
        lvl0 = energy_pdfv(R1, s, QuantumNumbers(0, 2))
        assert not lvl0.valid and "negative" in lvl0.reason
        lvl2 = energy_pdfv(R1, s, QuantumNumbers(2, 2))
        assert lvl2.valid and abs(lvl2.value - 1.6500267071372798) < 1e-12

    def test_zero_at_unit_sum(self):
        s = ScarfParams(A=1.0, B=0.1, c=1.0, lam=1.0)
        lvl = energy_pdfv(R1, s, QuantumNumbers(0, 1))
        assert lvl.valid and lvl.value == 0.0

    @pytest.mark.parametrize("A, reason", [(2.0, "|E| = inf is not finite"), (1.0, "|E| = nan is not finite")],
                             ids=["infinite", "zero_times_infinite"])
    def test_invalid_when_velocity_over_radius_overflows(self, A, reason):
        s = ScarfParams(A=A, B=0.1, c=1.0, lam=1e300)
        lvl = energy_pdfv(CatenoidParams(1e-100), s, QuantumNumbers(0, 1))
        assert not lvl.valid and math.isnan(lvl.value)
        assert lvl.reason == reason


# the (R, m, lambda) of the ROADMAP table that sets the two sec^2-velocity spectra side by side
FIRST_ORDER_POINTS = [(1.0, 3, 0.7), (2.0, 4, 1.0), (1.0, 2, 1.0), (1.0, 1, 1.0), (2.0, 0, 0.5)]


class TestEnergyFirstOrderPdfv:
    def test_levels(self):
        assert energy_first_order_pdfv(R1, 0.7, QuantumNumbers(0, 3)).value == 0.7 * 3.5
        assert energy_first_order_pdfv(CatenoidParams(2.0), 0.5, QuantumNumbers(2, 0)).value == 0.75
        assert (energy_first_order_pdfv(R1, 1.0, QuantumNumbers(1, -3))
                == energy_first_order_pdfv(R1, 1.0, QuantumNumbers(1, 3)))

    def test_invalid_when_velocity_over_radius_overflows(self):
        lvl = energy_first_order_pdfv(CatenoidParams(1e-100), 1e300, QuantumNumbers(0, 1))
        assert not lvl.valid and math.isnan(lvl.value)
        assert lvl.reason == "|E| = inf is not finite"

    @pytest.mark.parametrize("m", [0, 1, 2, 3, -3, 5])
    def test_matches_finite_differences_of_the_squared_form(self, m):
        # H1 = transformed_partner_potential(-m, x) on the interior nodes of a
        # uniform grid of 4001 points over [-pi/2, pi/2], so that the
        # Dirichlet ends are at +-pi/2.  To leading order the three-point
        # difference errs by -(h^2/12) chi'''', which moves eps^2 by
        # -(h^2/12) <chi'', chi''> = -(h^2/12) <(eps^2 - V)^2>: exactly
        # -(h^2/12) eps^4 at m = 0, where V = 0, and 0.03-0.82 of that at the
        # other m.  The bisection adds a few ulps of the matrix norm.
        h = math.pi / 4000
        grid = Grid(-math.pi / 2 + h, math.pi / 2 - h, 3999)
        op = discretize(lambda x: transformed_partner_potential(-m, x), grid)
        eps_sq = eigen_tridiagonal(op, 4, grid=grid).eigenvalues
        exact = np.array([energy_first_order_pdfv(R1, 1.0, QuantumNumbers(n, m)).value ** 2 for n in range(4)])
        rounding = 4 * U * (np.max(np.abs(op.diagonal)) + 2 / h**2)
        assert np.all(np.abs(eps_sq - exact) <= h * h * exact**2 / 12 + rounding)

    @pytest.mark.xfail(
        strict=True,
        reason="energy_pdfv, the sec^2-velocity closed form of spectrum --lambda, does not "
        "give the first-order levels: in eps^2 = (R E/lambda)^2, for n = 0-2, it gives 10.14, "
        "17.82, 27.50 against 12.25, 20.25, 30.25 at (R, m, lambda) = (1, 3, 0.7), 15.75, "
        "24.93, 36.12 against 20.25, 30.25, 42.25 at (2, 4, 1), 4.07, 9.57, 17.07 against "
        "6.25, 12.25, 20.25 at (1, 2, 1), and no valid level at (1, 1, 1) and (2, 0, 0.5)",
    )
    def test_energy_pdfv_gives_the_first_order_levels(self):
        for R, m, lam in FIRST_ORDER_POINTS:
            params = CatenoidParams(R)
            scarf = scarf_params_physical(params, m, lam)
            for n in range(3):
                qn = QuantumNumbers(n, m)
                want = energy_first_order_pdfv(params, lam, qn).value
                assert abs(energy_pdfv(params, scarf, qn).value - want) <= 1e-12 * want


class TestEigenfunctionPdfv:
    def setup_method(self):
        self.s = scarf_params_physical(R1, 2, 1.0)

    def test_value_at_throat(self):
        raw = eigenfunction_pdfv(R1, self.s, QuantumNumbers(0, 2), 0.0)
        assert abs(raw - 1.0) < 1e-14

    def test_raw_scale(self):
        # unnormalized: chi_1(0) = P_1^(A-B-1/2,A+B-1/2)(0) = -B
        chi = eigenfunction_pdfv(R1, self.s, QuantumNumbers(1, 2), np.array([-2.0, 0.0, 7.0]))
        assert abs(chi[1] + self.s.B) < 1e-14
        assert chi[2] == eigenfunction_pdfv(R1, self.s, QuantumNumbers(1, 2), 7.0)

    def test_finite_far_out(self):
        vals = eigenfunction_pdfv(R1, self.s, QuantumNumbers(2, 2), np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(vals))

    def test_nonclassical_exponents_rejected(self):
        # the printed set at R = 0.1, m = 2 is valid, with Jacobi exponents (-1.356, 2.122)
        s = scarf_params_pdfv(CatenoidParams(0.1), 2, 1.0)
        with pytest.raises(ValueError, match=r"exponents \(-1.35614, 2.12237\) are outside"):
            eigenfunction_pdfv(CatenoidParams(0.1), s, QuantumNumbers(0, 2), 0.0)


class TestSuperpotentialPdfv:
    def test_value_at_origin(self):
        s = scarf_params_pdfv(R1, 2, 1.0)
        assert abs(superpotential_pdfv(s, 0.0) - s.B) < 1e-14

    def test_parity(self):
        s = scarf_params_pdfv(R1, 2, 1.0)
        x = np.linspace(0.1, 1.4, 30)
        assert np.max(np.abs(superpotential_pdfv(s, -x) - (s.A * np.tan(x) + s.B / np.cos(x)))) < 1e-12

    def test_reproduces_potential_on_lower_branch(self):
        # W^2 - W' equals the Scarf potential plus 1 - A^2, exactly, when A
        # and B come from the lower quartic root
        s = scarf_params_physical(R1, 2, 1.0, root="lower")
        x = np.linspace(-1.3, 1.3, 401)
        w = superpotential_pdfv(s, x)
        wp = -s.A / np.cos(x) ** 2 + s.B * np.tan(x) / np.cos(x)
        diff = (w * w - wp) - scarf_form_pdfv(R1, 2, x)
        assert np.max(np.abs(diff - (1 - s.A**2))) < 1e-9

    def test_domain_guard(self):
        s = scarf_params_pdfv(R1, 2, 1.0)
        with pytest.raises(ValueError):
            superpotential_pdfv(s, math.pi / 2)


class TestPartnerPdfv:
    def setup_method(self):
        self.s = scarf_params_physical(R1, 2, 1.0)

    def test_overlap_with_ladder_image(self):
        # shape-invariant closed form vs the ladder image of level n+1,
        # compared in the compact coordinate where the ladder is local
        A, B = self.s.A, self.s.B
        g = Grid(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 8001)
        x = g.points
        u = np.tan(x)  # R = 1: sin x = u/sqrt(1+u^2) holds for u = tan x
        sec = 1.0 / np.cos(x)
        part = partner_eigenfunction_pdfv(R1, self.s, QuantumNumbers(0, 2), u) / sec
        chi1 = eigenfunction_pdfv(R1, self.s, QuantumNumbers(1, 2), u) / sec
        ladder = first_derivative(chi1, g.h) + (A * np.tan(x) - B * sec) * chi1
        overlap = np.sum(part * ladder) / math.sqrt(np.sum(part**2) * np.sum(ladder**2))
        assert abs(overlap) > 0.999

    def test_finite_at_ends(self):
        vals = partner_eigenfunction_pdfv(R1, self.s, QuantumNumbers(0, 2), np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(vals))

    def test_invalid_scarf_rejected(self):
        bad = ScarfParams(math.nan, math.nan, math.nan, 1.0, valid=False, reason="test")
        with pytest.raises(ValueError):
            partner_eigenfunction_pdfv(R1, bad, QuantumNumbers(0, 2), 0.0)
        # the printed set at R = 0.75, m = 2 has A = -2.23: the shared level
        # (A+1)^2 - 1 lies 3.46 below the zero mode's A^2 - 1
        printed = scarf_params_pdfv(CatenoidParams(0.75), 2, 1.0)
        with pytest.raises(ValueError, match="the shared level is not above the zero mode"):
            partner_eigenfunction_pdfv(CatenoidParams(0.75), printed, QuantumNumbers(0, 2), 0.0)


def _mp_jacobi(n, alpha, beta, x):
    """P_n^(alpha,beta)(x) from its explicit finite sum, in mpmath."""
    return mpmath.fsum(
        mpmath.binomial(n + alpha, n - s) * mpmath.binomial(n + beta, s)
        * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
        for s in range(n + 1)
    )


def _mp_partner_constant(R, m, n, u):
    """(d/du + m/sqrt(R^2+u^2)) chi_(n+1) / E_(n+1) at v_F = 1, with
    mpmath.diff for the derivative and the energy from its radicand."""
    a = mpmath.sqrt(7 + 12 * m + 4 * m * m) / 4
    b = mpmath.sqrt(7 - 12 * m + 4 * m * m) / 4
    R, k = mpmath.mpf(R), n + 1

    def chi(x):
        t = x / mpmath.sqrt(x * x + R * R)
        return (1 - t) ** (a - 1) * (1 + t) ** (b - 1) * _mp_jacobi(k, 2 * a, 2 * b, t)

    s = 4 * a + 4 * b
    rad = -27 + 4 * m * m + 2 * s + 16 * a * b + 8 * k * k + 8 * k + 4 * k * s
    energy = mpmath.sqrt(rad) / (2 * mpmath.sqrt(2) * R)
    u = mpmath.mpf(u)
    return (mpmath.diff(chi, u) + m / mpmath.sqrt(R * R + u * u) * chi(u)) / energy


# the m with real Jacobi exponents up to |m| = 5; every other m has a complex one
PARTNER_M = [-5, -4, -3, 0, 3, 4, 5]


class TestPartnerConstant:
    @pytest.mark.parametrize("m", PARTNER_M)
    @pytest.mark.parametrize("n", range(5))
    def test_matches_mpmath_ladder_image(self, m, n):
        R = [0.5, 0.8, 1.3, 2.0][(m + n) % 4]
        u = np.concatenate([np.linspace(-10.0 * R, 10.0 * R, 21), [-0.37 * R, 0.61 * R]])
        got = partner_eigenfunction_constant(CatenoidParams(R), QuantumNumbers(n, m), u)
        with mpmath.workdps(30):
            ref = np.array([float(_mp_partner_constant(R, m, n, v)) for v in u])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_is_ladder_image_over_energy(self):
        # the raw scale: (chi' + W chi)/E_(n+1) with chi and E from the library
        g = Grid(-4.0, 4.0, 8001)
        chi = eigenfunction_constant_case(R1, QuantumNumbers(2, 3), g.points)
        e2 = energy_constant_case(R1, 1.0, QuantumNumbers(2, 3)).value
        image = (first_derivative(chi, g.h) + 3.0 / np.sqrt(1.0 + g.points**2) * chi) / e2
        got = partner_eigenfunction_constant(R1, QuantumNumbers(1, 3), g.points)
        assert np.max(np.abs(got - image)) < 1e-10 * np.max(np.abs(image))

    @pytest.mark.parametrize("m", PARTNER_M)
    def test_finite_far_out(self, m):
        for R in (0.5, 2.0):
            for n in range(5):
                vals = partner_eigenfunction_constant(
                    CatenoidParams(R), QuantumNumbers(n, m), np.array([-500.0, 500.0])
                )
                assert np.all(np.isfinite(vals))

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            partner_eigenfunction_constant(R1, QuantumNumbers(0, -2), 0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="the ladder maps exact solutions of the frozen compact-coordinate "
        "equation, which are not exact eigenfunctions of the full partner "
        "equation in the meridian coordinate; the residual is O(10)",
    )
    def test_ode_residual_against_partner_potential(self):
        g = Grid(-5.0, 5.0, 4001)
        chi2 = partner_eigenfunction_constant(R1, QuantumNumbers(0, 3), g.points)
        e1 = energy_constant_case(R1, 1.0, QuantumNumbers(1, 3)).value
        res = ode_residual(
            chi2,
            lambda uu: 9.0 / (1 + uu**2) - 3 * uu / (1 + uu**2) ** 1.5,
            e1**2,
            g,
        )
        assert res < 1e-5

    @pytest.mark.xfail(
        strict=True,
        reason="the extra node comes from the same frozen-equation mismatch; "
        "the image of level n+1 carries n+1 sign changes instead of n",
    )
    def test_node_count(self):
        u = np.linspace(-10, 10, 4001)
        for n in range(3):
            chi2 = partner_eigenfunction_constant(R1, QuantumNumbers(n, 3), u)
            changes, _ = count_features(chi2)
            assert changes == n
