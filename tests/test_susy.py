import math

import numpy as np
import pytest

from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import Grid, discretize, eigen_tridiagonal
from catenoid_dirac.potentials import superpotential, superpotential_derivative
from catenoid_dirac.susy import (
    LadderDirection,
    apply_ladder,
    catenoid_ground_state,
    catenoid_ground_state_derivative,
    check_intertwining,
    dirac_coupled_residual,
    ground_state_from_W,
    partner_map_state,
)

R1 = CatenoidParams(1.0)


def harmonic_W(u):
    return u


def harmonic_dW(u):
    return np.ones_like(u)


def catenoid_W(m):
    return lambda u: superpotential(R1, m, u)


def catenoid_dW(m):
    return lambda u: superpotential_derivative(R1, m, u)


class TestApplyLadder:
    def test_annihilates_harmonic_ground_state(self):
        g = Grid(-8.0, 8.0, 2001)
        u = g.points
        out = apply_ladder(harmonic_W, g, LadderDirection.LOWERING, np.exp(-u * u / 2),
                           derivative=-u * np.exp(-u * u / 2))
        assert np.max(np.abs(out)) < 1e-12

    def test_annihilates_catenoid_zero_mode(self):
        g = Grid(-5.0, 5.0, 2001)
        for m in (1, 2, 3):
            chi0 = catenoid_ground_state(R1, m, g.points)
            d0 = catenoid_ground_state_derivative(R1, m, g.points)
            out = apply_ladder(catenoid_W(m), g, LadderDirection.LOWERING, chi0, derivative=d0)
            assert np.max(np.abs(out)) < 1e-8

    def test_raising_on_zero_function(self):
        g = Grid(-5.0, 5.0, 501)
        out = apply_ladder(harmonic_W, g, LadderDirection.RAISING, np.zeros(g.count))
        assert np.all(out == 0.0)

    def test_grid_mismatch_rejected(self):
        # samples of a 401-point grid on a 501-point grid
        with pytest.raises(ValueError):
            apply_ladder(harmonic_W, Grid(-5.0, 5.0, 501), LadderDirection.LOWERING, np.zeros(401))


class TestGroundStateFromW:
    def test_harmonic(self):
        g = Grid(-6.0, 6.0, 1201)
        out = ground_state_from_W(harmonic_W, g)
        ref = np.exp(-g.points**2 / 2)
        ratio = out / ref
        assert np.max(np.abs(ratio - ratio[g.count // 2])) < 1e-6

    def test_catenoid_matches_closed_form(self):
        g = Grid(-5.0, 5.0, 2001)
        for m in (1, 2):
            out = ground_state_from_W(catenoid_W(m), g)
            ref = catenoid_ground_state(R1, m, g.points)
            ratio = out / ref
            assert np.max(np.abs(ratio - ratio[g.count // 2])) < 1e-5

    @pytest.mark.parametrize("lo, hi", [(1.0, 6.0), (-6.0, -1.0)])
    def test_grid_without_zero_anchors_left_end(self, lo, hi):
        g = Grid(lo, hi, 1001)
        out = ground_state_from_W(harmonic_W, g)
        ref = np.exp(-(g.points**2 - lo**2) / 2)
        assert out[0] == 1.0
        assert np.max(np.abs(out / ref - 1.0)) < 1e-4

    def test_zero_superpotential(self):
        g = Grid(-5.0, 5.0, 501)
        out = ground_state_from_W(np.zeros_like, g)
        assert np.max(np.abs(out - 1.0)) < 1e-14

    def test_non_finite_superpotential_rejected(self):
        with pytest.raises(ValueError, match="superpotential is not finite on the grid"):
            ground_state_from_W(lambda u: np.full_like(u, np.nan), Grid(-5.0, 5.0, 501))


class TestCatenoidGroundState:
    def test_values(self):
        # closed form 2^(-m) (u + sqrt(R^2+u^2))^(-m) at the throat
        assert catenoid_ground_state(R1, 1, 0.0) == 0.5
        assert catenoid_ground_state(R1, 2, 0.0) == 0.25

    def test_log_derivative_is_minus_w(self):
        u = np.linspace(-4, 4, 101)
        chi = catenoid_ground_state(R1, 2, u)
        dchi = catenoid_ground_state_derivative(R1, 2, u)
        w = 2.0 / np.sqrt(1 + u * u)
        assert np.max(np.abs(dchi / chi + w)) < 1e-13

    def test_truncated_norm_finite(self):
        u = np.linspace(-50, 50, 20001)
        chi = catenoid_ground_state(R1, 2, u)
        norm = np.trapezoid(chi * chi, u)
        assert np.isfinite(norm) and norm > 0


class TestIntertwining:
    def probe(self, g):
        return np.exp(-g.points**2)

    def test_harmonic_fd_limited(self):
        g = Grid(-8.0, 8.0, 16001)  # step 1e-3
        res = check_intertwining(harmonic_W, harmonic_dW, g, self.probe(g))
        assert res < 1e-4

    def test_residual_quarters_with_half_step(self):
        # coarse enough that truncation, not roundoff, dominates the residual
        g1 = Grid(-8.0, 8.0, 501)
        g2 = Grid(-8.0, 8.0, 1001)
        r1 = check_intertwining(harmonic_W, harmonic_dW, g1, self.probe(g1))
        r2 = check_intertwining(harmonic_W, harmonic_dW, g2, self.probe(g2))
        assert r1 / r2 > 8.0  # 4th-order stencils: expect ~16x per halving

    def test_catenoid(self):
        g = Grid(-8.0, 8.0, 16001)
        res = check_intertwining(catenoid_W(2), catenoid_dW(2), g, self.probe(g))
        assert res < 1e-4

    def test_zero_w_exact(self):
        g = Grid(-8.0, 8.0, 2001)
        assert check_intertwining(np.zeros_like, np.zeros_like, g, self.probe(g)) < 1e-8


class TestPartnerMapState:
    def test_zero_energy_rejected(self):
        g = Grid(-5.0, 5.0, 501)
        with pytest.raises(ValueError):
            partner_map_state(harmonic_W, g, LadderDirection.LOWERING, np.exp(-g.points**2 / 2), 0.0)

    def test_harmonic_first_excited_maps_to_partner_ground(self):
        g = Grid(-8.0, 8.0, 2001)
        u = g.points
        out = partner_map_state(harmonic_W, g, LadderDirection.LOWERING, u * np.exp(-u * u / 2), 2.0)
        ref = np.exp(-u * u / 2)
        overlap = np.sum(out * ref) / math.sqrt(
            np.sum(out**2) * np.sum(ref**2)
        )
        assert abs(overlap) > 0.9999


class TestIsospectrality:
    def test_harmonic_partner_shift(self):
        g = Grid(-10.0, 10.0, 4001)
        u = g.points
        e1 = eigen_tridiagonal(discretize(lambda x: x * x - 1.0, g), 7, grid=g).eigenvalues
        e2 = eigen_tridiagonal(discretize(lambda x: x * x + 1.0, g), 6, grid=g).eigenvalues
        assert abs(e1[0]) < 1e-3
        for n in range(5):
            assert abs(e2[n] - e1[n + 1]) / abs(e1[n + 1]) < 1e-3


class TestDiracCoupled:
    def test_zero_mode(self):
        g = Grid(-5.0, 5.0, 4001)
        u = g.points
        chi0 = catenoid_ground_state(R1, 2, u)
        psi1 = (1 + u * u) ** 0.25 * chi0
        psi2 = np.zeros(g.count)
        r1, r2 = dirac_coupled_residual(R1, 2, 1.0, 0.0, g, psi1, psi2)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_zero_input(self):
        g = Grid(-5.0, 5.0, 501)
        z = np.zeros(g.count)
        assert dirac_coupled_residual(R1, 1, 1.0, 0.5, g, z, z) == (0.0, 0.0)
