import math

import numpy as np
import pytest

from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import Grid, WavefunctionSamples, discretize, eigen_tridiagonal
from catenoid_dirac.susy import (
    FactorizedSystem,
    LadderDirection,
    apply_ladder,
    catenoid_ground_state,
    catenoid_ground_state_derivative,
    catenoid_system,
    check_intertwining,
    dirac_coupled_residual,
    ground_state_from_W,
    partner_map_state,
)

R1 = CatenoidParams(1.0)


def harmonic_system(grid):
    return FactorizedSystem(W=lambda u: u, grid=grid, dW=lambda u: np.ones_like(u))


class TestApplyLadder:
    def test_annihilates_harmonic_ground_state(self):
        g = Grid(-8.0, 8.0, 2001)
        sys = harmonic_system(g)
        u = g.points
        f = WavefunctionSamples(grid=g, values=np.exp(-u * u / 2))
        out = apply_ladder(sys, LadderDirection.LOWERING, f,
                           derivative=-u * np.exp(-u * u / 2))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_annihilates_catenoid_zero_mode(self):
        g = Grid(-5.0, 5.0, 2001)
        for m in (1, 2, 3):
            sys = catenoid_system(R1, m, g)
            chi0 = catenoid_ground_state(R1, m, g.points)
            d0 = catenoid_ground_state_derivative(R1, m, g.points)
            out = apply_ladder(sys, LadderDirection.LOWERING,
                               WavefunctionSamples(grid=g, values=chi0), derivative=d0)
            assert np.max(np.abs(out.values)) < 1e-8

    def test_raising_on_zero_function(self):
        g = Grid(-5.0, 5.0, 501)
        sys = harmonic_system(g)
        out = apply_ladder(sys, LadderDirection.RAISING,
                           WavefunctionSamples(grid=g, values=np.zeros(g.count)))
        assert np.all(out.values == 0.0)

    def test_grid_mismatch_rejected(self):
        sys = harmonic_system(Grid(-5.0, 5.0, 501))
        f = WavefunctionSamples(grid=Grid(-4.0, 4.0, 501), values=np.zeros(501))
        with pytest.raises(ValueError):
            apply_ladder(sys, LadderDirection.LOWERING, f)


class TestGroundStateFromW:
    def test_harmonic(self):
        g = Grid(-6.0, 6.0, 1201)
        out = ground_state_from_W(harmonic_system(g), g)
        ref = np.exp(-g.points**2 / 2)
        ratio = out.values / ref
        assert np.max(np.abs(ratio - ratio[g.count // 2])) < 1e-6

    def test_catenoid_matches_closed_form(self):
        g = Grid(-5.0, 5.0, 2001)
        for m in (1, 2):
            out = ground_state_from_W(catenoid_system(R1, m, g), g)
            ref = catenoid_ground_state(R1, m, g.points)
            ratio = out.values / ref
            assert np.max(np.abs(ratio - ratio[g.count // 2])) < 1e-5

    @pytest.mark.parametrize("lo, hi", [(1.0, 6.0), (-6.0, -1.0)])
    def test_grid_without_zero_anchors_left_end(self, lo, hi):
        g = Grid(lo, hi, 1001)
        out = ground_state_from_W(harmonic_system(g), g)
        ref = np.exp(-(g.points**2 - lo**2) / 2)
        assert out.values[0] == 1.0
        assert np.max(np.abs(out.values / ref - 1.0)) < 1e-4

    def test_zero_superpotential(self):
        g = Grid(-5.0, 5.0, 501)
        sys = FactorizedSystem(W=lambda u: np.zeros_like(u), grid=g, dW=lambda u: np.zeros_like(u))
        out = ground_state_from_W(sys, g)
        assert np.max(np.abs(out.values - 1.0)) < 1e-14


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
        return WavefunctionSamples(grid=g, values=np.exp(-g.points**2))

    def test_harmonic_fd_limited(self):
        g = Grid(-8.0, 8.0, 16001)  # step 1e-3
        res = check_intertwining(harmonic_system(g), self.probe(g))
        assert res < 1e-4

    def test_residual_quarters_with_half_step(self):
        # coarse enough that truncation, not roundoff, dominates the residual
        g1 = Grid(-8.0, 8.0, 501)
        g2 = Grid(-8.0, 8.0, 1001)
        r1 = check_intertwining(harmonic_system(g1), self.probe(g1))
        r2 = check_intertwining(harmonic_system(g2), self.probe(g2))
        assert r1 / r2 > 8.0  # 4th-order stencils: expect ~16x per halving

    def test_catenoid(self):
        g = Grid(-8.0, 8.0, 16001)
        res = check_intertwining(catenoid_system(R1, 2, g), self.probe(g))
        assert res < 1e-4

    def test_zero_w_exact(self):
        g = Grid(-8.0, 8.0, 2001)
        sys = FactorizedSystem(W=lambda u: np.zeros_like(u), grid=g,
                               dW=lambda u: np.zeros_like(u))
        assert check_intertwining(sys, self.probe(g)) < 1e-8


class TestPartnerMapState:
    def test_zero_energy_rejected(self):
        g = Grid(-5.0, 5.0, 501)
        sys = harmonic_system(g)
        f = WavefunctionSamples(grid=g, values=np.exp(-g.points**2 / 2))
        with pytest.raises(ValueError):
            partner_map_state(sys, LadderDirection.LOWERING, f, 0.0)

    def test_harmonic_first_excited_maps_to_partner_ground(self):
        g = Grid(-8.0, 8.0, 2001)
        sys = harmonic_system(g)
        u = g.points
        f1 = WavefunctionSamples(grid=g, values=u * np.exp(-u * u / 2))
        out = partner_map_state(sys, LadderDirection.LOWERING, f1, 2.0)
        ref = np.exp(-u * u / 2)
        overlap = np.sum(out.values * ref) / math.sqrt(
            np.sum(out.values**2) * np.sum(ref**2)
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
        psi1 = WavefunctionSamples(grid=g, values=(1 + u * u) ** 0.25 * chi0)
        psi2 = WavefunctionSamples(grid=g, values=np.zeros(g.count))
        r1, r2 = dirac_coupled_residual(R1, 2, 1.0, 0.0, psi1, psi2)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_zero_input(self):
        g = Grid(-5.0, 5.0, 501)
        z = WavefunctionSamples(grid=g, values=np.zeros(g.count))
        assert dirac_coupled_residual(R1, 1, 1.0, 0.5, z, z) == (0.0, 0.0)
