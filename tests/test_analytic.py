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
from catenoid_dirac.numeric import Grid, first_derivative, second_derivative
from catenoid_dirac.potentials import scarf_form_pdfv
from catenoid_dirac.specfun import kummer_m, parabolic_cylinder_d
from fd_oracles import count_features, ode_residual

R1 = CatenoidParams(1.0)


class TestQuantumNumbers:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 2)


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

    @pytest.mark.parametrize("m, n, root", [
        (2, 0, 0.36721542910800264),
        (3, 5, 4.604108091336897),
        (-5, 7, 15.074872253356894),
        (-2, 1, 0.9999999999997529),
        (4, 3, 8.926658712548509),
    ])
    def test_pinned_roots(self, m, n, root):
        assert energy_dependent_branch(m, n)[0] == root

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
