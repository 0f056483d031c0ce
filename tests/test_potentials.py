import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.potentials import (
    ConstantVF,
    ScarfVF,
    fermi_velocity,
    kappa,
    partner_potentials_from_W,
    scarf_form_constant,
    scarf_form_pdfv,
    sigma_lambda,
    superpotential,
    superpotential_derivative,
    transformed_partner_potential,
    u_eff,
    v1_v2_r_forms,
    v_eff,
    vbar_eff,
)

R1 = CatenoidParams(1.0)


class TestSuperpotential:
    def test_values(self):
        assert superpotential(R1, 2, 0.0) == 2.0
        assert superpotential(R1, 0, 3.7) == 0.0
        assert abs(superpotential(CatenoidParams(3.0), 1, 4.0) - 0.2) < 1e-15

    def test_derivative_matches_fd(self):
        u = np.linspace(-5, 5, 101)
        h = 1e-6
        fd = (superpotential(R1, 2, u + h) - superpotential(R1, 2, u - h)) / (2 * h)
        assert np.max(np.abs(fd - superpotential_derivative(R1, 2, u))) < 1e-8


class TestVEff:
    def test_values(self):
        assert v_eff(R1, 1, 0.0) == 1.0
        assert abs(v_eff(R1, 1, 1.0) - (0.5 + 2 ** -1.5)) < 1e-15
        assert abs(v_eff(R1, -1, 1.0) - (0.5 - 2 ** -1.5)) < 1e-15

    def test_susy_identity_analytic(self):
        # W^2 -+ W' reproduces both branches with analytic derivatives
        u = np.linspace(-10, 10, 1001)
        for m in (1, 2, 3):
            w = superpotential(R1, m, u)
            wp = superpotential_derivative(R1, m, u)
            v1 = v_eff(R1, m, u)
            v2 = v_eff(R1, -m, u)
            assert np.max(np.abs(w * w - wp - v1)) < 1e-12
            assert np.max(np.abs(w * w + wp - v2)) < 1e-12

    def test_parity(self):
        u = np.linspace(-7, 7, 201)
        plus = v_eff(R1, 2, u)
        minus = v_eff(R1, -2, -u)
        assert np.max(np.abs(plus - minus)) < 1e-14

    def test_decay(self):
        assert abs(v_eff(R1, 3, 1e4)) < 1e-6


class TestPartnerFromW:
    def test_harmonic(self):
        v1, v2 = partner_potentials_from_W(lambda u: u, np.array(0.0), dW=np.ones_like)
        assert abs(v1 + 1.0) < 1e-9 and abs(v2 - 1.0) < 1e-9

    def test_constant(self):
        v1, v2 = partner_potentials_from_W(lambda u: 3.0 * np.ones_like(u), np.linspace(-1, 1, 5),
                                           dW=np.zeros_like)
        assert np.allclose(v1, 9.0, atol=1e-8) and np.allclose(v2, 9.0, atol=1e-8)

    def test_catenoid_matches_v_eff(self):
        u = np.array(1.0)
        v1, v2 = partner_potentials_from_W(lambda uu: superpotential(R1, 1, uu), u,
                                           dW=lambda uu: superpotential_derivative(R1, 1, uu))
        assert abs(v1 - 0.85355339059327373) < 1e-9
        assert abs(v2 - 0.14644660940672624) < 1e-9

    def test_analytic_derivative_path(self):
        u = np.linspace(-5, 5, 101)
        v1, v2 = partner_potentials_from_W(
            lambda uu: superpotential(R1, 2, uu),
            u,
            dW=lambda uu: superpotential_derivative(R1, 2, uu),
        )
        assert np.max(np.abs(v1 - v_eff(R1, 2, u))) < 1e-14


class TestSigmaLambda:
    def test_values(self):
        s, l = sigma_lambda(R1, 1, 0.0)
        assert (s, l) == (1.0, -1.0)
        s, l = sigma_lambda(R1, 0, 1.0)
        assert abs(s + 0.25) < 1e-15 and abs(l + 0.25) < 1e-15
        s, l = sigma_lambda(CatenoidParams(2.0), 3, 2.0)
        assert abs(s - (3 / (2 * math.sqrt(2)) - 0.125)) < 1e-15
        assert abs(l - (-3 / (2 * math.sqrt(2)) - 0.125)) < 1e-15

    def test_difference_is_2w(self):
        u = np.linspace(-4, 4, 101)
        s, l = sigma_lambda(R1, 2, u)
        assert np.max(np.abs(s - l - 2 * superpotential(R1, 2, u))) < 1e-14


class TestVelocityProfile:
    def test_fermi_velocity_values(self):
        assert fermi_velocity(ConstantVF(1.0), R1, 0.0) == 1.0
        assert fermi_velocity(ScarfVF(1.0), R1, 0.0) == 1.0
        assert fermi_velocity(ScarfVF(2.0), R1, 1.0) == 4.0
        assert fermi_velocity(ScarfVF(1.0), CatenoidParams(2.0), 2.0) == 2.0

    def test_kappa_values(self):
        assert kappa(ConstantVF(1.0), R1, 0.0) == 1.0
        assert abs(kappa(ConstantVF(4.0), R1, 0.0) - 0.5) < 1e-15
        k = kappa(ScarfVF(1.0), R1, 1.0)
        assert abs(k - 2 ** 0.25 / math.sqrt(2.0)) < 1e-15

    def test_vbar_constant_is_zero(self):
        u = np.linspace(-5, 5, 51)
        assert np.all(vbar_eff(ConstantVF(2.0), R1, 3, u) == 0.0)

    def test_vbar_scarf_value(self):
        assert abs(vbar_eff(ScarfVF(1.0), R1, 0, 0.0) - 1.0) < 1e-14

    def test_vbar_derivatives_against_fd(self):
        # analytic v_F', v_F'' inside vbar must match central differences
        profile, m = ScarfVF(1.5), 2
        p = CatenoidParams(1.3)
        u = np.linspace(-3, 3, 61)
        h = 1e-4  # balances truncation and roundoff in the second difference

        def vf(x):
            return fermi_velocity(profile, p, x)

        vfp = (vf(u + h) - vf(u - h)) / (2 * h)
        vfpp = (vf(u + h) - 2 * vf(u) + vf(u - h)) / h**2
        root = np.sqrt(p.R**2 + u * u)
        expected = -(vfp**2 - 2 * vf(u) * (2 * m * vfp / root + vfpp)) / (4 * vf(u) ** 2)
        assert np.max(np.abs(expected - vbar_eff(profile, p, m, u))) < 1e-6

    def test_u_eff(self):
        u = np.linspace(-5, 5, 51)
        assert np.max(np.abs(u_eff(ConstantVF(1.0), R1, 2, u) - v_eff(R1, 2, u))) < 1e-14
        assert abs(u_eff(ScarfVF(1.0), R1, 0, 0.0) - 1.0) < 1e-14


class TestXSpaceForms:
    def test_scarf_form_constant(self):
        assert abs(scarf_form_constant(R1, 1, 0.0, 0.0) + 1.0) < 1e-15
        assert abs(scarf_form_constant(R1, 0, 0.0, 0.0) + 2.0) < 1e-15
        near = scarf_form_constant(R1, 2, 0.0, math.pi / 2 - 1e-3)
        assert near > 1e5

    def test_scarf_form_pdfv(self):
        assert abs(scarf_form_pdfv(R1, 1, 0.0) + 1.0) < 1e-15
        assert abs(scarf_form_pdfv(R1, 0, 0.0) + 2.0) < 1e-15

    def test_transformed_partner(self):
        assert transformed_partner_potential(1, 0.0) == 1.0
        assert transformed_partner_potential(2, 0.0) == 4.0
        assert abs(transformed_partner_potential(1, math.pi / 4) - (2 + math.sqrt(2))) < 1e-12

    def test_domain_guard(self):
        for fn in (
            lambda: scarf_form_constant(R1, 1, 0.0, math.pi / 2),
            lambda: scarf_form_pdfv(R1, 1, 1.6),
            lambda: transformed_partner_potential(1, -math.pi / 2),
        ):
            with pytest.raises(ValueError):
                fn()


# (R, m, lambda) for the Liouville identities; x = atan(u/R) and
# v_F = lambda sec^2 x carry -chi'' + U_eff chi = (E/v_F)^2 chi in u to
# -phi'' + V phi = eps^2 phi in x, with V = R^2 sec^4 x U_eff(R tan x) - 1
LIOUVILLE_POINTS = [(1.0, 2, 1.0), (2.0, 4, 1.0), (1.0, 3, 0.7), (1.0, 5, 1.0), (0.5, -3, 1.3), (0.8, 1, 1.0)]


def _liouville_image(profile, R: float, m: int, x):
    """R^2 sec^4 x * U(R tan x) for the u-space potential U of profile."""
    params = CatenoidParams(R)
    return R**2 / np.cos(x) ** 4 * u_eff(profile, params, m, R * np.tan(x))


class TestLiouvilleIdentities:
    # each side is a few roundings from its exact value, so the gap stays
    # within some tens of ulps of the largest value on the grid
    x = np.linspace(-1.45, 1.45, 1001)

    @pytest.mark.parametrize("R, m, lam", LIOUVILLE_POINTS)
    def test_constant_velocity_image_is_transformed_partner(self, R, m, lam):
        image = _liouville_image(ConstantVF(lam), R, m, self.x)
        ref = transformed_partner_potential(m, self.x)
        assert np.max(np.abs(image - ref)) <= 1.1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("R, m, lam", LIOUVILLE_POINTS)
    def test_sec2_velocity_image_has_no_R_or_lambda(self, R, m, lam):
        sec = 1.0 / np.cos(self.x)
        image = _liouville_image(ScarfVF(lam), R, m, self.x) - 1.0
        ref = m * m * sec**2 + 3.0 * m * sec * np.tan(self.x)
        assert np.max(np.abs(image - ref)) <= 3.4e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("R, m, lam", LIOUVILLE_POINTS)
    def test_first_order_sec2_velocity_system_squares_to_transformed_partner(self, R, m, lam):
        # steps 1-5 of the potentials docstring: with v_F W = (lam/R) m sec x,
        # (R/lam)^2 v_F [v_F (W^2 - W') - v_F' W] is m^2 sec^2 x - m sec x tan x
        params, u = CatenoidParams(R), R * np.tan(self.x)
        vf, dvf = fermi_velocity(ScarfVF(lam), params, u), 2.0 * lam * u / R**2
        w, dw = superpotential(params, m, u), superpotential_derivative(params, m, u)
        image = (R / lam) ** 2 * vf * (vf * (w * w - dw) - dvf * w)
        ref = transformed_partner_potential(-m, self.x)
        assert np.max(np.abs(image - ref)) <= 1.1e-14 * np.max(np.abs(ref))

    @pytest.mark.xfail(
        strict=True,
        reason="the x-image of u_eff, m^2 sec^2 x + 3m sec x tan x, is not the Scarf "
        "form scarf_form_pdfv that the sec^2-velocity closed forms and numeric oracle "
        "start from: on |x| <= 1.4 the two differ by 145 to 820 in absolute value at "
        "these six (R, m, lambda)",
    )
    def test_sec2_velocity_image_is_scarf_form_pdfv(self):
        x = np.linspace(-1.4, 1.4, 1001)
        for R, m, lam in LIOUVILLE_POINTS:
            image = _liouville_image(ScarfVF(lam), R, m, x) - 1.0
            scarf = scarf_form_pdfv(CatenoidParams(R), m, x)
            assert np.max(np.abs(image - scarf)) <= 3.4e-14 * np.max(np.abs(scarf))


class TestRSpaceForms:
    def test_equal_at_origin(self):
        v1, v2 = v1_v2_r_forms(2, 0.5, 0.0)
        assert abs(v1 - v2) < 1e-15
        assert abs(v1 - 1.25) < 1e-15

    def test_divergence_structure(self):
        r = 0.9
        eps = 15.0
        v1, v2 = v1_v2_r_forms(2, eps, r)
        gap = eps**2 * (1.0 / (1 - r * r) ** 2 - 1.0)
        assert abs((v2 - v1) - gap) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            v1_v2_r_forms(1, 0.0, 1.0)


U = 2.0**-53  # unit roundoff of a float


class TestVEffAgainstMpmath:
    """Property tests of v_eff against W^2 -+ W' over wide R, m and u, with
    mpmath at 40 digits as the oracle.

    With g = R^2 + u^2, the exact potential of component s (v_eff at s m)
    is t1 + s t2, where t1 = m^2/g and t2 = m u/g^(3/2).  Counting roundings
    to first order in u = 2^-53, with pow and sqrt within one rounding:
    - g rounds three times, all terms positive: relative error 3u;
    - v_eff forms t1 = m^2/g (m^2 exact) with error 4u, and t2 as m u
      (u), g^1.5 (1.5 * 3u + u) and the quotient (u), 7.5u in all;
    - superpotential forms W = m/sqrt(g) with 1.5u + u + u = 3.5u, so W*W
      has 8u; superpotential_derivative forms W' = -m u/g^1.5 with 7.5u;
    - the final sum or difference adds u |t1 + s t2| <= u (|t1| + |t2|).
    So each route is within 9.5u (|t1| + |t2|) of the exact value, and the
    two routes within 19u (|t1| + |t2|) of each other; the tests allow 12u
    and 24u, which cover the second-order terms with room to spare.
    """

    @staticmethod
    def _exact(R, m, u):
        with mpmath.workdps(40):
            g = mpmath.mpf(R) ** 2 + mpmath.mpf(u) ** 2
            t1, t2 = m * m / g, m * mpmath.mpf(u) / g**1.5
            return float(t1), float(t2)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(-50, 50), st.floats(-1e6, 1e6), st.sampled_from([1, -1]))
    def test_each_component_is_w_squared_minus_plus_w_prime(self, R, m, u, s):
        params = CatenoidParams(R)
        t1, t2 = self._exact(R, m, u)
        scale = abs(t1) + abs(t2)
        v = float(v_eff(params, s * m, u))
        w, wp = float(superpotential(params, m, u)), float(superpotential_derivative(params, m, u))
        # the s = +1 component is W^2 - W', the s = -1 component W^2 + W'
        partner = w * w - s * wp
        assert abs(v - (t1 + s * t2)) <= 12 * U * scale
        assert abs(partner - (t1 + s * t2)) <= 12 * U * scale
        assert abs(v - partner) <= 24 * U * scale
