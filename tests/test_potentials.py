import math

import numpy as np
import pytest

from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.potentials import (
    ConstantVF,
    PotentialModel,
    ScarfVF,
    SpinorBranch,
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
        model = PotentialModel(ConstantVF(1.0), 1, SpinorBranch(+1))
        assert v_eff(model, R1, 0.0) == 1.0
        assert abs(v_eff(model, R1, 1.0) - (0.5 + 2 ** -1.5)) < 1e-15
        model2 = PotentialModel(ConstantVF(1.0), 1, SpinorBranch(-1))
        assert abs(v_eff(model2, R1, 1.0) - (0.5 - 2 ** -1.5)) < 1e-15

    def test_susy_identity_analytic(self):
        # W^2 -+ W' reproduces both branches with analytic derivatives
        u = np.linspace(-10, 10, 1001)
        for m in (1, 2, 3):
            w = superpotential(R1, m, u)
            wp = superpotential_derivative(R1, m, u)
            v1 = v_eff(PotentialModel(ConstantVF(1.0), m, SpinorBranch(+1)), R1, u)
            v2 = v_eff(PotentialModel(ConstantVF(1.0), m, SpinorBranch(-1)), R1, u)
            assert np.max(np.abs(w * w - wp - v1)) < 1e-12
            assert np.max(np.abs(w * w + wp - v2)) < 1e-12

    def test_parity(self):
        u = np.linspace(-7, 7, 201)
        plus = v_eff(PotentialModel(ConstantVF(1.0), 2, SpinorBranch(+1)), R1, u)
        minus = v_eff(PotentialModel(ConstantVF(1.0), 2, SpinorBranch(-1)), R1, -u)
        assert np.max(np.abs(plus - minus)) < 1e-14

    def test_decay(self):
        model = PotentialModel(ConstantVF(1.0), 3, SpinorBranch(+1))
        assert abs(v_eff(model, R1, 1e4)) < 1e-6

    def test_requires_constant_velocity(self):
        with pytest.raises(ValueError):
            v_eff(PotentialModel(ScarfVF(1.0), 1), R1, 0.0)


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
        model = PotentialModel(ConstantVF(1.0), 2, SpinorBranch(+1))
        assert np.max(np.abs(v1 - v_eff(model, R1, u))) < 1e-14


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
        assert fermi_velocity(PotentialModel(ConstantVF(1.0), 1), R1, 0.0) == 1.0
        assert fermi_velocity(PotentialModel(ScarfVF(1.0), 1), R1, 0.0) == 1.0
        assert fermi_velocity(PotentialModel(ScarfVF(2.0), 1), R1, 1.0) == 4.0
        assert fermi_velocity(PotentialModel(ScarfVF(1.0), 1), CatenoidParams(2.0), 2.0) == 2.0

    def test_kappa_values(self):
        assert kappa(PotentialModel(ConstantVF(1.0), 1), R1, 0.0) == 1.0
        assert abs(kappa(PotentialModel(ConstantVF(4.0), 1), R1, 0.0) - 0.5) < 1e-15
        k = kappa(PotentialModel(ScarfVF(1.0), 1), R1, 1.0)
        assert abs(k - 2 ** 0.25 / math.sqrt(2.0)) < 1e-15

    def test_vbar_constant_is_zero(self):
        u = np.linspace(-5, 5, 51)
        assert np.all(vbar_eff(PotentialModel(ConstantVF(2.0), 3), R1, u) == 0.0)

    def test_vbar_scarf_value(self):
        assert abs(vbar_eff(PotentialModel(ScarfVF(1.0), 0), R1, 0.0) - 1.0) < 1e-14

    def test_vbar_derivatives_against_fd(self):
        # analytic v_F', v_F'' inside vbar must match central differences
        model = PotentialModel(ScarfVF(1.5), 2)
        p = CatenoidParams(1.3)
        u = np.linspace(-3, 3, 61)
        h = 1e-4  # balances truncation and roundoff in the second difference

        def vf(x):
            return fermi_velocity(model, p, x)

        vfp = (vf(u + h) - vf(u - h)) / (2 * h)
        vfpp = (vf(u + h) - 2 * vf(u) + vf(u - h)) / h**2
        m = model.signed_m
        root = np.sqrt(p.R**2 + u * u)
        expected = -(vfp**2 - 2 * vf(u) * (2 * m * vfp / root + vfpp)) / (4 * vf(u) ** 2)
        assert np.max(np.abs(expected - vbar_eff(model, p, u))) < 1e-6

    def test_u_eff(self):
        u = np.linspace(-5, 5, 51)
        const = PotentialModel(ConstantVF(1.0), 2, SpinorBranch(+1))
        assert np.max(np.abs(u_eff(const, R1, u) - v_eff(const, R1, u))) < 1e-14
        assert abs(u_eff(PotentialModel(ScarfVF(1.0), 0), R1, 0.0) - 1.0) < 1e-14


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
