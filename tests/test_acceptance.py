"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
verdict lines.  Every tolerance here is part of the contract; do not
loosen them.
"""

import math

import numpy as np
import pytest

from catenoid_dirac.analytic import (
    QuantumNumbers,
    constant_case_epsilon_sq,
    constant_case_rspace_potential,
    constant_case_rspace_solution,
    eigenfunction_constant_case,
    energy_constant_case,
    energy_dependent_branch,
    energy_dependent_potential,
    energy_dependent_residual,
    jacobi_branch_params,
    near_origin_quantization,
    near_origin_solution,
    scarf_params_physical,
)
from catenoid_dirac.cli import main as cli_main
from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import (
    Grid,
    discretize,
    discretize_sturm_liouville,
    eigen_tridiagonal,
    first_derivative,
    second_derivative,
)
from catenoid_dirac.potentials import (
    scarf_form_pdfv,
    superpotential,
    superpotential_derivative,
    v_eff,
)
from catenoid_dirac.specfun import (
    JacobiParams,
    hermite,
    jacobi,
    kummer_m,
    parabolic_cylinder_d,
)
from catenoid_dirac.susy import (
    LadderDirection,
    apply_ladder,
    catenoid_ground_state,
    catenoid_ground_state_derivative,
)
from fd_oracles import count_features

R1 = CatenoidParams(1.0)


def test_criterion_01_susy_algebra_identity():
    """|W^2 -+ W' - V_eff| < 1e-12 on [-10,10], m in {1,2,3}, analytic derivatives."""
    u = np.linspace(-10.0, 10.0, 1001)
    worst = 0.0
    for m in (1, 2, 3):
        w = superpotential(R1, m, u)
        wp = superpotential_derivative(R1, m, u)
        v1 = v_eff(R1, m, u)
        v2 = v_eff(R1, -m, u)
        worst = max(worst, np.max(np.abs(w * w - wp - v1)), np.max(np.abs(w * w + wp - v2)))
    assert worst < 1e-12, f"criterion 1 FAIL: identity error {worst:.3e}"


def test_criterion_02_zero_mode_annihilation():
    """||A chi_0||_inf < 1e-8 on |u| <= 5 for m in {1,2,3}, analytic derivative."""
    g = Grid(-5.0, 5.0, 2001)
    worst = 0.0
    for m in (1, 2, 3):
        chi0 = catenoid_ground_state(R1, m, g.points)
        d0 = catenoid_ground_state_derivative(R1, m, g.points)
        out = apply_ladder(lambda u: superpotential(R1, m, u), g, LadderDirection.LOWERING, chi0,
                           derivative=d0)
        worst = max(worst, float(np.max(np.abs(out))))
    assert worst < 1e-8, f"criterion 2 FAIL: annihilation residual {worst:.3e}"


def test_criterion_03_eigensolver_calibration():
    """Harmonic levels within 1e-3 of 1,3,5,7,9; h->h/2 error ratio in [3.5, 4.5]."""
    exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    levels = {}
    for npts in (4001, 8001):
        g = Grid(-10.0, 10.0, npts)
        levels[npts] = eigen_tridiagonal(discretize(lambda x: x * x, g), 5, grid=g).eigenvalues
    err = np.abs(levels[4001] - exact)
    assert np.max(err) < 1e-3, f"criterion 3 FAIL: calibration error {np.max(err):.3e}"
    ratio = err / np.abs(levels[8001] - exact)
    assert np.all((ratio > 3.5) & (ratio < 4.5)), f"criterion 3 FAIL: ratio {ratio}"


def test_criterion_04_harmonic_isospectrality():
    """Partner pair of W=u: E2_n = E1_(n+1) within 1e-3 for n=0..4, E1_0 < 1e-3."""
    g = Grid(-10.0, 10.0, 4001)
    e1 = eigen_tridiagonal(discretize(lambda x: x * x - 1.0, g), 7, grid=g).eigenvalues
    e2 = eigen_tridiagonal(discretize(lambda x: x * x + 1.0, g), 6, grid=g).eigenvalues
    assert abs(e1[0]) < 1e-3, f"criterion 4 FAIL: ground level {e1[0]:.3e}"
    for n in range(5):
        rel = abs(e2[n] - e1[n + 1]) / abs(e1[n + 1])
        assert rel < 1e-3, f"criterion 4 FAIL: shift mismatch {rel:.3e} at n={n}"


def test_criterion_05_pdfv_closed_form_spectrum():
    """Numeric Scarf-operator levels match (A+n)^2 - 1 within 1e-3 rel, n=0..3."""
    s = scarf_params_physical(R1, 2, 1.0)
    assert s.valid and s.jacobi_exponents_classical
    g = Grid(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 4001)
    vals = eigen_tridiagonal(
        discretize(lambda x: scarf_form_pdfv(R1, 2, x), g), 4, grid=g
    ).eigenvalues
    for n in range(4):
        ref = (s.A + n) ** 2 - 1.0
        rel = abs(vals[n] - ref) / abs(ref)
        assert rel < 1e-3, f"criterion 5 FAIL: level {n} relative error {rel:.3e}"


def test_criterion_06_jacobi_branch_consistency():
    """m=3, n=0..3: matching condition to 1e-9, eigenfunction residual < 1e-5."""
    jp = jacobi_branch_params(3)
    g = Grid(-0.9, 0.9, 2001)
    r = g.points
    for n in range(4):
        eps_sq = constant_case_epsilon_sq(QuantumNumbers(n, 3))
        lhs = n * (n + 2 * jp.a + 2 * jp.b + 1)
        rhs = (17 - 4 * jp.a**2 - 4 * jp.b**2) / 4 + eps_sq - jp.b - jp.a * (1 + 2 * jp.b)
        assert abs(lhs - rhs) < 1e-9, f"criterion 6 FAIL: matching gap {abs(lhs-rhs):.3e}"
        chi = constant_case_rspace_solution(QuantumNumbers(n, 3), r)
        flux = first_derivative((1 - r * r) * first_derivative(chi, g.h), g.h)
        res = -flux + constant_case_rspace_potential(3, r) * chi - eps_sq * chi
        rel = np.max(np.abs(res[4:-4])) / np.max(np.abs(chi))
        assert rel < 1e-5, f"criterion 6 FAIL: residual {rel:.3e} at n={n}"


def test_criterion_07_near_origin_branch():
    """n=2, m=1 (eps=0.5): expansion-equation residual < 1e-7 on |r| <= 0.1."""
    m, n = 1, 2
    lvl = near_origin_quantization(n, m)
    assert lvl.valid and abs(lvl.value - 0.5) < 1e-15
    g = Grid(-0.1, 0.1, 201)
    r = g.points
    for c1, c2 in [(1.0, 0.0), (0.0, 1.0)]:
        y = near_origin_solution(m, lvl.value, r, c1=c1, c2=c2)
        res = (
            second_derivative(y, g.h)
            - 2 * r * first_derivative(y, g.h)
            - 3 * m * r * y
            + (lvl.value**2 + 2.5 - m * m) * y
        )
        rel = np.max(np.abs(res[4:-4])) / np.max(np.abs(y))
        assert rel < 1e-7, f"criterion 7 FAIL: residual {rel:.3e}"


def test_criterion_08_energy_dependent_branch():
    """Root back-substitutes < 1e-10; profile ODE residual < 1e-6 on |r| <= 0.3."""
    for n in range(3):
        eps_sq, samples = energy_dependent_branch(2, n)
        back = energy_dependent_residual(2, n, eps_sq)
        assert back < 1e-10, f"criterion 8 FAIL: back-substitution {back:.3e}"
        g = samples.grid
        res = -second_derivative(samples.values, g.h) + (
            energy_dependent_potential(2, eps_sq, g.points) - eps_sq
        ) * samples.values
        mask = np.abs(g.points) <= 0.3
        rel = np.max(np.abs(res[mask][2:-2])) / np.max(np.abs(samples.values))
        assert rel < 1e-6, f"criterion 8 FAIL: profile residual {rel:.3e} at n={n}"


def test_criterion_09_special_functions():
    """Jacobi ODE < 1e-9 on 100 samples; D_nu Hermite reduction < 1e-10; M(1,2,1)."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = float(rng.uniform(-0.9, 3.0))
        b = float(rng.uniform(-0.9, 3.0))
        x = float(rng.uniform(-0.99, 0.99))
        y = jacobi(JacobiParams(n, a, b), x)
        yp = 0.5 * (n + a + b + 1) * jacobi(JacobiParams(n - 1, a + 1, b + 1), x)
        ypp = (
            0.25 * (n + a + b + 1) * (n + a + b + 2) * jacobi(JacobiParams(n - 2, a + 2, b + 2), x)
            if n >= 2
            else 0.0
        )
        res = (1 - x * x) * ypp + (b - a - (a + b + 2) * x) * yp + n * (n + a + b + 1) * y
        rel = abs(res) / max(abs(y), abs(yp), abs(ypp), 1.0)
        assert rel < 1e-9, f"criterion 9 FAIL: Jacobi ODE residual {rel:.3e}"
    for n in range(6):
        for z in np.linspace(-5, 5, 11):
            ref = 2 ** (-n / 2) * math.exp(-z * z / 4) * hermite(n, z / math.sqrt(2))
            err = abs(parabolic_cylinder_d(float(n), z) - ref)
            assert err < 1e-10 * max(1.0, abs(ref)), f"criterion 9 FAIL: D_nu {err:.3e}"
    gap = abs(kummer_m(1.0, 2.0, 1.0) - (math.e - 1.0))
    assert gap < 1e-12, f"criterion 9 FAIL: Kummer identity {gap:.3e}"


def test_criterion_10_validity_bookkeeping(tmp_path):
    """(n=1, m=-2) and (n=3, m=-2) flagged with M2 named; figures refuse sans toggle."""
    for n in (1, 3):
        lvl = energy_constant_case(R1, 1.0, QuantumNumbers(n, -2))
        assert not lvl.valid, f"criterion 10 FAIL: (n={n}, m=-2) not flagged"
        assert "M2" in lvl.reason and "sqrt(-1)" in lvl.reason, (
            f"criterion 10 FAIL: reason does not name the radicand: {lvl.reason!r}"
        )
    rc = cli_main(["report-figures", "--out", str(tmp_path / "fig.csv")])
    assert rc != 0, "criterion 10 FAIL: figure export did not refuse without toggle"
    rc = cli_main(["report-figures", "--allow-invalid", "--out", str(tmp_path / "fig.csv")])
    assert rc == 0, "criterion 10 FAIL: toggle path broken"


def test_criterion_11_figure_shape_cross_oracle():
    """Closed-form density maxima equal numeric-eigenvector maxima, n=0..3, m=3."""
    delta = 1e-6
    g = Grid(-1.0 + delta, 1.0 - delta, 4001)
    op = discretize_sturm_liouville(
        lambda r: 1 - r * r, lambda r: constant_case_rspace_potential(3, r), g
    )
    spec = eigen_tridiagonal(op, 4, grid=g)
    u = np.linspace(-10.0, 10.0, 4001)
    for n in range(4):
        chi = eigenfunction_constant_case(R1, QuantumNumbers(n, 3), u)
        _, maxima_closed = count_features(chi)
        _, maxima_numeric = count_features(spec.eigenvectors[:, n])
        assert maxima_closed == maxima_numeric, (
            f"criterion 11 FAIL: n={n} closed {maxima_closed} vs numeric {maxima_numeric}"
        )
