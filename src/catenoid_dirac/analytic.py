"""Closed-form spectra and eigenfunctions, with validity bookkeeping.

Every formula that can go complex is guarded: negative radicands produce
flagged-invalid results carrying the offending quantity, never silent
complex arithmetic.  The constant-velocity branch, the zero-energy mode,
the near-origin expansion, the energy-dependent-potential branch, and the
position-dependent-velocity (Scarf) branch are all here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CatenoidParams, radius, spin_connection
from .numeric import Grid, WavefunctionSamples
from .potentials import ScarfVF, _check_x, _rspace_potential
from .specfun import JacobiParams, _integer, hermite, jacobi, kummer_m, parabolic_cylinder_d

__all__ = [
    "QuantumNumbers",
    "JacobiBranchParams",
    "ScarfParams",
    "EnergyLevel",
    "jacobi_branch_params",
    "energy_constant_case",
    "eigenfunction_constant_case",
    "constant_case_rspace_solution",
    "constant_case_rspace_potential",
    "constant_case_epsilon_sq",
    "zero_energy_solution",
    "near_origin_quantization",
    "near_origin_solution",
    "energy_dependent_branch",
    "scarf_params_pdfv",
    "scarf_params_physical",
    "scarf_endpoint_kappa",
    "energy_pdfv",
    "energy_first_order_pdfv",
    "eigenfunction_pdfv",
    "superpotential_pdfv",
    "partner_eigenfunction_pdfv",
    "partner_eigenfunction_constant",
]

@dataclass(frozen=True)
class QuantumNumbers:
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "principal number"))
        object.__setattr__(self, "m", _integer(self.m, "angular momentum", -math.inf))


@dataclass(frozen=True)
class EnergyLevel:
    """Magnitude of an energy level (both signs are admissible) plus a
    validity flag; ``reason`` names the offending radicand when invalid."""

    value: float
    valid: bool
    reason: str = ""


@dataclass(frozen=True)
class JacobiBranchParams:
    """Exponents and auxiliary constants of the polynomial branch.

    Radicands are stored so invalid (complex) parameters can be reported;
    the value fields hold NaN in that case.
    """

    m: int
    a: float
    b: float
    M1: float
    M2: float
    a_radicand: float
    b_radicand: float

    @property
    def all_real(self) -> bool:
        return self.a_radicand >= 0.0 and self.b_radicand >= 0.0

    @property
    def invalid_reason(self) -> str:
        parts = []
        if self.b_radicand < 0.0:
            parts.append(f"M1 = sqrt({self.b_radicand:g}) is complex")
        if self.a_radicand < 0.0:
            parts.append(f"M2 = sqrt({self.a_radicand:g}) is complex")
        return "; ".join(parts)


def jacobi_branch_params(m: int) -> JacobiBranchParams:
    """Exponents a, b and constants M1, M2 of the polynomial branch.

    a = sqrt(7+12m+4m^2)/4, b = sqrt(7-12m+4m^2)/4, M1 = 4b, M2 = 4a.
    Negative radicands are flagged instead of producing complex values.
    """
    return _branch_from_radicands(m, 7.0 + 12.0 * m + 4.0 * m * m, 7.0 - 12.0 * m + 4.0 * m * m)


def _branch_from_radicands(m: int, ra: float, rb: float) -> JacobiBranchParams:
    a = 0.25 * math.sqrt(ra) if ra >= 0.0 else math.nan
    b = 0.25 * math.sqrt(rb) if rb >= 0.0 else math.nan
    return JacobiBranchParams(m=m, a=a, b=b, M1=4.0 * b, M2=4.0 * a, a_radicand=ra, b_radicand=rb)


def _constant_case_radicand(jp: JacobiBranchParams, n: int) -> float:
    # The printed closed form omits the 8n term; the matching condition of
    # the polynomial branch requires it, and only with it does the closed
    # form eigenfunction satisfy its differential equation.
    m = jp.m
    s = jp.M1 + jp.M2
    return -27.0 + 4.0 * m * m + 2.0 * s + jp.M1 * jp.M2 + 8.0 * n * n + 8.0 * n + 4.0 * n * s


def energy_constant_case(
    params: CatenoidParams, v_F: float, qn: QuantumNumbers
) -> EnergyLevel:
    """|E_n| = v_F/(2*sqrt(2)*R) * sqrt(radicand) for the polynomial branch.

    Invalid when M1 or M2 is complex, the radicand is negative or |E_n|
    is not finite.
    """
    jp = jacobi_branch_params(qn.m)
    if not jp.all_real:
        return EnergyLevel(value=math.nan, valid=False, reason=jp.invalid_reason)
    rad = _constant_case_radicand(jp, qn.n)
    if rad < 0.0:
        return EnergyLevel(
            value=math.nan,
            valid=False,
            reason=f"energy radicand {rad:g} is negative",
        )
    return _finite_level(v_F / (2.0 * math.sqrt(2.0) * params.R) * math.sqrt(rad))


def _finite_level(value: float) -> EnergyLevel:
    """A valid level, or an invalid one where the velocity scale over R
    overflows."""
    if math.isfinite(value):
        return EnergyLevel(value, valid=True)
    return EnergyLevel(math.nan, valid=False, reason=f"|E| = {value:g} is not finite")


def _branch_or_regularized(m: int, allow_invalid: bool) -> JacobiBranchParams:
    """Branch parameters; complex radicands raise unless ``allow_invalid``,
    which applies the absolute-value regularization (plot support only)."""
    jp = jacobi_branch_params(m)
    if jp.all_real:
        return jp
    if not allow_invalid:
        raise ValueError(f"invalid branch parameters: {jp.invalid_reason}")
    return _branch_from_radicands(m, abs(jp.a_radicand), abs(jp.b_radicand))


def eigenfunction_constant_case(
    params: CatenoidParams,
    qn: QuantumNumbers,
    u,
    exponent_shift: float = 1.0,
    allow_invalid: bool = False,
):
    """Polynomial-branch eigenfunction in the meridian coordinate.

    (1-t)^(a-shift) (1+t)^(b-shift) P_n^(2a,2b)(t) with t = u/sqrt(u^2+R^2).
    shift = 1 is the printed form; shift = 3/4 is the value produced by the
    full chain of variable changes (the two differ by a smooth positive
    factor (1-t^2)^(1/4)).  Unnormalized: the value at the throat u = 0 is
    P_n^(2a,2b)(0), which is 1 for n = 0.
    """
    jp = _branch_or_regularized(qn.m, allow_invalid)
    t = spin_connection(params, np.asarray(u, dtype=float))  # u/sqrt(R^2+u^2)
    return _jacobi_state(1.0, t, jp.a - exponent_shift, jp.b - exponent_shift, qn.n, 2.0 * jp.a, 2.0 * jp.b)


def _jacobi_state(scale, t, p: float, q: float, n: int, alpha: float, beta: float):
    """scale (1-t)^p (1+t)^q P_n^(alpha,beta)(t), multiplied left to right:
    each closed-form state of weight-times-Jacobi (Scarf I) form."""
    pj = jacobi(JacobiParams(n, alpha, beta), t)
    return scale * (1.0 - t) ** p * (1.0 + t) ** q * pj


def constant_case_rspace_solution(qn: QuantumNumbers, r, allow_invalid: bool = False):
    """r-space solution (1-r)^a (1+r)^b P_n^(2a,2b)(r) of the frozen-energy
    equation; this is the form whose differential-equation residual
    vanishes."""
    jp = _branch_or_regularized(qn.m, allow_invalid)
    return _jacobi_state(1.0, np.asarray(r, dtype=float), jp.a, jp.b, qn.n, 2.0 * jp.a, 2.0 * jp.b)


def constant_case_rspace_potential(m: int, r):
    """Potential of the frozen-energy r-space problem, without the
    eigenvalue term: (r^2-2)/(4(1-r^2)) + 3mr/(1-r^2) + (m^2+2)/(1-r^2) - 4."""
    return _rspace_potential(m, np.asarray(r, dtype=float))


def constant_case_epsilon_sq(qn: QuantumNumbers) -> float:
    """Dimensionless eigenvalue (E R / v_F)^2 of the polynomial branch."""
    jp = jacobi_branch_params(qn.m)
    if not jp.all_real:
        raise ValueError(f"invalid branch parameters: {jp.invalid_reason}")
    return _constant_case_radicand(jp, qn.n) / 8.0


def zero_energy_solution(m: int, x):
    """Zero-energy mode of the x-space problem.

    [1+exp(2ix)]^2 * exp(-2i*[x - m*arctan(exp(ix))]), complex-valued,
    finite on compact subsets of (-pi/2, pi/2).
    """
    x = _check_x(x)
    return (1.0 + np.exp(2j * x)) ** 2 * np.exp(-2j * (x - m * np.arctan(np.exp(1j * x))))


def near_origin_quantization(n: int, m: int) -> EnergyLevel:
    """Dimensionless epsilon = sqrt(8n - 5(2+m^2))/2 of the near-origin
    expansion; real only when 8n >= 5(2+m^2)."""
    rad = 8.0 * n - 5.0 * (2.0 + m * m)
    if rad < 0.0:
        return EnergyLevel(
            value=math.nan,
            valid=False,
            reason=f"epsilon radicand 8n-5(2+m^2) = {rad:g} is negative",
        )
    return EnergyLevel(value=0.5 * math.sqrt(rad), valid=True)


def near_origin_degree(m: int, epsilon: float) -> float:
    """Polynomial degree (10 + 5m^2 + 4*eps^2)/8 of the near-origin solution."""
    return (10.0 + 5.0 * m * m + 4.0 * epsilon * epsilon) / 8.0


def near_origin_solution(m: int, epsilon: float, r, c1: float = 0.0, c2: float = 1.0):
    """Near-origin solution around the throat (validity region |r| <~ 0.2).

    c1 * e^(-3mr/2) H_alpha(3m/2 + r) + c2 * e^(-3mr/2) M(-alpha/2, 1/2,
    (3m/2+r)^2).  The polynomial (Hermite) path requires integer degree;
    the Kummer path works for any real degree.
    """
    alpha = near_origin_degree(m, epsilon)
    r = np.asarray(r, dtype=float)
    s = 1.5 * m + r
    damp = np.exp(-1.5 * m * r)
    out = np.zeros_like(r)
    if c1 != 0.0:
        if abs(alpha - round(alpha)) > 1e-9:
            raise ValueError(f"polynomial path needs an integer degree, got alpha={alpha}")
        out = out + c1 * damp * hermite(int(round(alpha)), s)
    if c2 != 0.0:
        out = out + c2 * damp * kummer_m(-alpha / 2.0, 0.5, s ** 2)
    return out


def _edp_f(m: int, eps_sq):
    return np.sqrt(-11.0 + 8.0 * m * m - 12.0 * eps_sq)


def energy_dependent_branch(
    m: int, n: int, r_count: int = 201
) -> tuple[float, WavefunctionSamples]:
    """Self-consistent level of the energy-dependent quadratic potential.

    The eigenvalue eps^2 enters its own potential, so the level is the
    root of f(n + 1/2) - 9m^2/f^2 - 7/2 + m^2 - eps^2 = 0 with
    f = sqrt(-11 + 8m^2 - 12 eps^2); this is exactly the condition under
    which the parabolic-cylinder profile solves the equation.  Times 12f^2
    it is P(f) = f^4 + (12n+6)f^3 + (4m^2-31)f^2 - 108m^2 = 0, whose
    coefficients change sign once: P has one positive root f*, and
    eps^2 = (8m^2 - 11 - f*^2)/12, which is positive for every integer
    |m| >= 2.  A negative eps^2 (|m| <= 1, or m = 1.2) raises, as does an
    n, the index of the D_n profile, that is not a non-negative integer.
    """
    n = _integer(n, "level index")
    roots = np.roots([1.0, 12.0 * n + 6.0, 4.0 * m * m - 31.0, 0.0, -108.0 * m * m])
    f_star = roots[(roots.imag == 0.0) & (roots.real > 0.0)].real[0]
    root = (8.0 * m * m - 11.0 - f_star * f_star) / 12.0
    if root < 0.0:
        raise ValueError(f"eps^2 = {root:g} < 0 for m={m}, n={n}: no real oscillator frequency")
    f = _edp_f(m, root)
    grid = Grid(-0.5, 0.5, r_count)
    r = grid.points
    arg = (6.0 * m + (8.0 * m * m - 11.0 - 12.0 * root) * r) / f**1.5
    z = parabolic_cylinder_d(float(n), arg)
    return float(root), WavefunctionSamples(grid=grid, values=z)


def energy_dependent_residual(m: int, n: int, eps_sq: float) -> float:
    """Back-substitution residual of the quantization relation."""
    f = _edp_f(m, eps_sq)
    return float(abs(f * (n + 0.5) - 9.0 * m * m / (f * f) - 3.5 + m * m - eps_sq))


def energy_dependent_potential(m: int, eps_sq: float, r):
    """Quadratic-plus-linear potential whose coefficient carries eps^2."""
    r = np.asarray(r, dtype=float)
    return 3.0 * m * r + (-2.75 + 2.0 * m * m - 3.0 * eps_sq) * r * r - 3.5 + m * m


@dataclass(frozen=True)
class ScarfParams:
    """Parameters of the Scarf-shaped problem for the sec^2 velocity profile.

    ``branch`` records whether the values come from the printed closed
    forms or from the self-consistent (physical) root of the defining
    quartic; only the latter reproduces the numeric spectrum.
    """

    A: float
    B: float
    c: float
    lam: float
    valid: bool = True
    reason: str = ""
    branch: str = "printed"

    @property
    def jacobi_alpha(self) -> float:
        return self.A - self.B - 0.5

    @property
    def jacobi_beta(self) -> float:
        return self.A + self.B - 0.5

    @property
    def jacobi_exponents_classical(self) -> bool:
        return self.jacobi_alpha > -1.0 and self.jacobi_beta > -1.0


def scarf_params_pdfv(params: CatenoidParams, m: int, lam: float) -> ScarfParams:
    """Scarf parameters A, B, c from the printed closed forms.

    The denominator 8(-R + m(4R-2)) must be nonzero; complex intermediates
    are flagged.  Note that these printed values do not satisfy the
    potential-matching identities (see scarf_params_physical for the
    self-consistent branch).
    """
    ScarfVF(lam)
    R = params.R
    den = 8.0 * (-R + m * (4.0 * R - 2.0))
    if abs(den) < 1e-9 * max(1.0, abs(R), abs(m)):
        raise ZeroDivisionError("parameter denominator -R + m(4R-2) vanishes")
    inner_c = (-3.0 + 4.0 * m * (1.0 + m - 2.0 * R) + 2.0 * R) * (
        -3.0 - 2.0 * R + 4.0 * m * (-1.0 + m + 2.0 * R)
    )
    if inner_c < 0.0:
        return ScarfParams(
            math.nan, math.nan, math.nan, lam, valid=False,
            reason=f"radicand under c, {inner_c:g}, is negative",
        )
    c_sq = -3.0 + 4.0 * m * m + math.sqrt(inner_c)
    if c_sq < 0.0:
        return ScarfParams(
            math.nan, math.nan, math.nan, lam, valid=False,
            reason=f"c^2 = {c_sq:g} is negative",
        )
    c = math.sqrt(c_sq)
    B = c / (2.0 * math.sqrt(2.0))
    inner_a = -3.0 + 4.0 * m * m * (1.0 + m - 2.0 * R) * (-3.0 - 2.0 * R + 4.0 * m * (-1.0 + m + 2.0 * R))
    if inner_a < 0.0:
        return ScarfParams(
            math.nan, B, c, lam, valid=False,
            reason=f"radicand inside A, {inner_a:g}, is negative",
        )
    A = (
        -4.0 * R
        + 8.0 * m * (2.0 * R - 1.0)
        + 4.0 * math.sqrt(2.0) * m * m * c
        - math.sqrt(2.0) * (3.0 + c * math.sqrt(inner_a))
    ) / den
    return ScarfParams(A, B, c, lam, branch="printed")


def scarf_params_physical(
    params: CatenoidParams, m: int, lam: float, root: str = "upper"
) -> ScarfParams:
    """Self-consistent Scarf parameters.

    The matching conditions A(A-1)+B^2 = m^2-1, B(2A-1) = (4mR-2m-R)/2
    reduce to a biquadratic in t = 2A-1 with two positive roots.  The
    "upper" root gives the parameter set whose eigenfunctions decay at the
    domain ends; the numeric spectrum of the Scarf operator matches
    (A+n)^2 - 1 only there.  The "lower" root, returned with the sign
    convention A -> (t-1)/2 of the -A*tan + B*sec superpotential, is the
    branch whose W^2 - W' reproduces the potential exactly.
    """
    ScarfVF(lam)
    if root not in ("upper", "lower"):
        raise ValueError(f"root must be 'upper' or 'lower', got {root!r}")
    R = params.R
    label = f"physical-{root}"
    beta = 0.5 * (4.0 * m * R - 2.0 * m - R)
    disc = (4.0 * m * m - 3.0) ** 2 - 16.0 * beta * beta
    if disc < 0.0:
        return ScarfParams(
            math.nan, math.nan, math.nan, lam, valid=False,
            reason=f"quartic discriminant {disc:g} is negative", branch=label,
        )
    sign = 1.0 if root == "upper" else -1.0
    t_sq = 0.5 * ((4.0 * m * m - 3.0) + sign * math.sqrt(disc))
    if t_sq <= 0.0:
        return ScarfParams(
            math.nan, math.nan, math.nan, lam, valid=False,
            reason=f"quartic root t^2 = {t_sq:g} is not positive", branch=label,
        )
    t = math.sqrt(t_sq)
    a = 0.5 * (1.0 + t) if root == "upper" else 0.5 * (t - 1.0)
    return ScarfParams(
        A=a,
        B=beta / t,
        c=math.sqrt(2.0) * t,
        lam=lam,
        branch=label,
    )


def scarf_endpoint_kappa(params: CatenoidParams, m: int) -> tuple[float, float]:
    """Coefficients (kappa at x -> -pi/2, kappa at x -> +pi/2) of the
    endpoint singularity kappa/delta^2 of the Scarf potential, delta being
    the distance to the end: (m^2-1) -+ (2m+R-4mR)/2.  The operator is
    unbounded below only at an end with kappa < -1/4, but at any kappa < 0
    a grid clipped inside its first cell samples kappa/clip^2 there and has
    a lowest level that scales like it.
    """
    b = 0.5 * (2 * m + params.R - 4 * m * params.R)
    return (m * m - 1) - b, (m * m - 1) + b


def energy_pdfv(params: CatenoidParams, scarf: ScarfParams, qn: QuantumNumbers) -> EnergyLevel:
    """|E_n| = (lam/R) sqrt((A+n)^2 - 1); invalid when (A+n)^2 < 1 or
    |E_n| is not finite."""
    if not scarf.valid or math.isnan(scarf.A):
        return EnergyLevel(math.nan, valid=False, reason=scarf.reason or "A is not real")
    rad = (scarf.A + qn.n) ** 2 - 1.0
    if rad < 0.0:
        return EnergyLevel(
            math.nan, valid=False, reason=f"(A+n)^2 - 1 = {rad:g} is negative"
        )
    return _finite_level(scarf.lam / params.R * math.sqrt(rad))


def energy_first_order_pdfv(params: CatenoidParams, lam: float, qn: QuantumNumbers) -> EnergyLevel:
    """|E_n| = (lam/R)(|m| + n + 1/2) for m != 0 and (lam/R)(n + 1) for m = 0:
    the levels of the first-order sec^2-velocity system (steps 1-5 of the
    ``potentials`` docstring).  In eps = R E/lam its squared form m^2 sec^2 x
    - m sec x tan x is, for m != 0, Scarf I with A = |m| + 1/2, B = +-1/2
    and levels (A+n)^2, and at m = 0 the free box (-pi/2, pi/2) with levels
    (n+1)^2.  No zero mode is normalizable, so both components share these
    levels.  Invalid when |E_n| is not finite."""
    ScarfVF(lam)
    return _finite_level(lam / params.R * (abs(qn.m) + qn.n + (0.5 if qn.m else 1.0)))


def _pdfv_raw(params: CatenoidParams, scarf: ScarfParams, n: int, u, a_shift: float = 0.0):
    u = np.asarray(u, dtype=float)
    A, B = scarf.A + a_shift, scarf.B
    t = spin_connection(params, u)
    pref = np.sqrt(1.0 + u * u / params.R**2)
    return _jacobi_state(pref, t, 0.5 * (A - B), 0.5 * (A + B), n, A - B - 0.5, A + B - 0.5)


def eigenfunction_pdfv(params: CatenoidParams, scarf: ScarfParams, qn: QuantumNumbers, u):
    """Eigenfunction of the sec^2-velocity problem in the meridian coordinate.

    sqrt(1+u^2/R^2) (1-t)^((A-B)/2) (1+t)^((A+B)/2) P_n^(A-B-1/2,A+B-1/2)(t)
    with t = u/sqrt(R^2+u^2), unnormalized: the value at the throat is
    P_n(0), which is 1 for n = 0.  Its Sturm-Liouville weight is
    1/v_F(u)^2.
    """
    if not scarf.valid:
        raise ValueError(f"invalid Scarf parameters: {scarf.reason}")
    if not scarf.jacobi_exponents_classical:
        raise ValueError(
            f"Jacobi exponents ({scarf.jacobi_alpha:g}, {scarf.jacobi_beta:g}) "
            "are outside the classical range"
        )
    return _pdfv_raw(params, scarf, qn.n, u)


def superpotential_pdfv(scarf: ScarfParams, x):
    """x-space superpotential -A tan(x) + B sec(x) of the Scarf problem."""
    x = _check_x(x)
    return -scarf.A * np.tan(x) + scarf.B / np.cos(x)


def _check_shared_level(level: EnergyLevel, above_zero_mode: float) -> None:
    """A partner state needs its level n+1 valid and above the zero mode."""
    if not level.valid:
        raise ValueError(f"level n+1 is not valid: {level.reason}")
    if not above_zero_mode > 0.0:
        raise ValueError("the shared level is not above the zero mode")


def partner_eigenfunction_pdfv(params: CatenoidParams, scarf: ScarfParams, qn: QuantumNumbers, u):
    """Partner-system eigenfunction sharing the level n+1 of the first system.

    By shape invariance the partner eigenfunction is the first-system form
    with A shifted to A+1, unnormalized as eigenfunction_pdfv; the test
    suite verifies it against the ladder image of the level-(n+1)
    eigenfunction.  Rejects parameter sets where the shared level would be
    the zero mode.
    """
    if not scarf.valid:
        raise ValueError(f"invalid Scarf parameters: {scarf.reason}")
    _check_shared_level(energy_pdfv(params, scarf, QuantumNumbers(qn.n + 1, qn.m)),
                        (scarf.A + qn.n + 1) ** 2 - scarf.A**2)
    return _pdfv_raw(params, scarf, qn.n, u, a_shift=1.0)


def partner_eigenfunction_constant(params: CatenoidParams, qn: QuantumNumbers, u):
    """Partner-component state: ladder image of the level-(n+1) polynomial
    branch eigenfunction chi (eigenfunction_constant_case, shift 1),
    (d/du + m/sqrt(R^2+u^2)) chi / E_(n+1), with E_(n+1) at v_F = 1.

    The derivative is exact.  With chi = (1-t)^p (1+t)^q P(t), p = a-1,
    q = b-1, P = P_(n+1)^(2a,2b), P' = (n+2a+2b+2)/2 P_n^(2a+1,2b+1),
    dt/du = (1-t^2)/sqrt(R^2+u^2) and W = m/sqrt(R^2+u^2), the image is
    (1-t)^(p-1) (1+t)^(q-1) [(q(1-t) - p(1+t) + m) P + (1-t^2) P']
    (1-t^2)/sqrt(R^2+u^2).
    """
    level = energy_constant_case(params, 1.0, QuantumNumbers(qn.n + 1, qn.m))
    _check_shared_level(level, level.value)
    jp = jacobi_branch_params(qn.m)
    al, be, p, q = 2.0 * jp.a, 2.0 * jp.b, jp.a - 1.0, jp.b - 1.0
    u = np.asarray(u, dtype=float)
    root = radius(params, u)
    t, one_t2 = u / root, (params.R / root) ** 2  # 1 - t^2 without cancellation
    pj = jacobi(JacobiParams(qn.n + 1, al, be), t)
    dpj = 0.5 * (qn.n + al + be + 2.0) * jacobi(JacobiParams(qn.n, al + 1.0, be + 1.0), t)
    bracket = (q * (1.0 - t) - p * (1.0 + t) + qn.m) * pj + one_t2 * dpj
    return (1.0 - t) ** (p - 1.0) * (1.0 + t) ** (q - 1.0) * bracket * one_t2 / root / level.value
