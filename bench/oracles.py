"""High-precision references (mpmath 1.3) for the benchmark's error metric.

Every reference is an independent evaluation of a closed form from the
paper, written here from the formula rather than from the package's code,
at 30 significant digits.  They run before or after the timed region,
never inside it.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30


def rel_err(value, ref) -> float:
    """|value - ref| / |ref|, uncapped; a non-zero value against a zero
    reference counts as infinitely wrong."""
    diff = abs(mp.mpmathify(value) - ref)
    if ref == 0:
        return 0.0 if diff == 0 else math.inf
    return float(diff / abs(ref))


def shape_err(values, refs) -> list[float]:
    """Pointwise errors of values that carry an unknown normalization: the
    scale is fixed at the sample where the reference is largest."""
    k = max(range(len(refs)), key=lambda i: abs(refs[i]))
    scale = mp.mpmathify(values[k]) / refs[k]
    return [rel_err(v, scale * r) for v, r in zip(values, refs)]


# -- potentials ----------------------------------------------------------


def superpotential(R, m, u):
    return m / mp.sqrt(mp.mpf(R) ** 2 + mp.mpf(u) ** 2)


def v_eff(R, m, u, sign):
    """m^2/(R^2+u^2) + sign*m*u/(R^2+u^2)^(3/2) = W^2 -+ W'."""
    R, u = mp.mpf(R), mp.mpf(u)
    g = R**2 + u**2
    return m * m / g + sign * m * u / g**1.5


def u_eff(R, m, lam, u):
    """Constant-velocity part plus the velocity-gradient part for the profile
    v_F(u) = lam*(1 + u^2/R^2)."""
    R, u = mp.mpf(R), mp.mpf(u)
    g = R**2 + u**2
    vf = lam * (1 + u**2 / R**2)
    vfp = 2 * lam * u / R**2
    vfpp = 2 * lam / R**2
    grad = -(vfp**2 - 2 * vf * (2 * m * vfp / mp.sqrt(g) + vfpp)) / (4 * vf**2)
    return v_eff(R, m, u, +1) + grad


# -- closed-form eigenfunctions -------------------------------------------


def jacobi_exponents(m, regularize=False):
    """a = sqrt(7+12m+4m^2)/4, b = sqrt(7-12m+4m^2)/4 (absolute radicands when
    regularizing)."""
    ra = 7 + 12 * m + 4 * m * m
    rb = 7 - 12 * m + 4 * m * m
    if regularize:
        ra, rb = abs(ra), abs(rb)
    return mp.sqrt(ra) / 4, mp.sqrt(rb) / 4


def chi_constant(R, m, n, u, regularize=False):
    """(1-t)^(a-1) (1+t)^(b-1) P_n^(2a,2b)(t), t = u/sqrt(u^2+R^2)."""
    a, b = jacobi_exponents(m, regularize)
    u = mp.mpf(u)
    t = u / mp.sqrt(u**2 + mp.mpf(R) ** 2)
    return (1 - t) ** (a - 1) * (1 + t) ** (b - 1) * mp.jacobi(n, 2 * a, 2 * b, t)


def scarf_upper(R, m):
    """Self-consistent Scarf parameters (A, B) on the decaying root of
    A(A-1)+B^2 = m^2-1, B(2A-1) = (4mR-2m-R)/2."""
    beta = (4 * m * mp.mpf(R) - 2 * m - R) / 2
    disc = (4 * m * m - 3) ** 2 - 16 * beta**2
    t = mp.sqrt(((4 * m * m - 3) + mp.sqrt(disc)) / 2)
    return (1 + t) / 2, beta / t


def constant_level(m, n, R=1, v_F=1):
    """|E_n| = v_F/(2 sqrt(2) R) sqrt(rad) of the polynomial branch, with
    rad = -27 + 4m^2 + 2s + M1 M2 + 8n^2 + 8n + 4ns, s = M1 + M2, M1 = 4b, M2 = 4a."""
    a, b = jacobi_exponents(m)
    M1, M2 = 4 * b, 4 * a
    s = M1 + M2
    rad = -27 + 4 * m * m + 2 * s + M1 * M2 + 8 * n * n + 8 * n + 4 * n * s
    return v_F / (2 * mp.sqrt(2) * R) * mp.sqrt(rad)


def pdfv_level(R, m, lam, n):
    """|E_n| = (lam/R) sqrt((A+n)^2 - 1) of the sec^2-velocity branch."""
    A, _ = scarf_upper(R, m)
    return lam / mp.mpf(R) * mp.sqrt((A + n) ** 2 - 1)


def chi_pdfv(R, A, B, n, u):
    """sqrt(1+u^2/R^2) (1-t)^((A-B)/2) (1+t)^((A+B)/2) P_n^(A-B-1/2, A+B-1/2)(t)."""
    R, u = mp.mpf(R), mp.mpf(u)
    t = u / mp.sqrt(R**2 + u**2)
    return (
        mp.sqrt(1 + u**2 / R**2)
        * (1 - t) ** ((A - B) / 2)
        * (1 + t) ** ((A + B) / 2)
        * mp.jacobi(n, A - B - mp.mpf(1) / 2, A + B - mp.mpf(1) / 2, t)
    )


def partner_constant(R, m, n, u):
    """Ladder image (d/du + m/sqrt(R^2+u^2)) chi_(n+1) of the polynomial branch,
    up to normalization."""
    def chi(x):
        return chi_constant(R, m, n + 1, x)

    return mp.diff(chi, mp.mpf(u)) + superpotential(R, m, u) * chi(u)


def near_origin(m, epsilon, r):
    """e^(-3mr/2) M(-alpha/2, 1/2, (3m/2 + r)^2), alpha = (10+5m^2+4eps^2)/8."""
    alpha = (10 + 5 * m * m + 4 * mp.mpf(epsilon) ** 2) / 8
    s = mp.mpf(3) * m / 2 + mp.mpf(r)
    return mp.exp(-mp.mpf(3) * m * r / 2) * mp.hyp1f1(-alpha / 2, mp.mpf(1) / 2, s * s)


def energy_dependent(m, n, eps_sq, r):
    """D_n((6m + (8m^2-11-12 eps^2) r) / f^(3/2)), f = sqrt(8m^2-11-12 eps^2)."""
    eps_sq = mp.mpf(eps_sq)
    f = mp.sqrt(-11 + 8 * m * m - 12 * eps_sq)
    return mp.pcfd(n, (6 * m + (8 * m * m - 11 - 12 * eps_sq) * mp.mpf(r)) / f**1.5)


def zero_energy(m, x):
    """(1+e^(2ix))^2 exp(-2i [x - m atan(e^(ix))])."""
    x = mp.mpf(x)
    return (1 + mp.expj(2 * x)) ** 2 * mp.exp(-2j * (x - m * mp.atan(mp.expj(x))))


def energy_dependent_root(m, n):
    """First root of f(n+1/2) - 9m^2/f^2 - 7/2 + m^2 - eps^2, f = sqrt(8m^2-11-12eps^2),
    bracketed by a scan of [0, (8m^2-11)/12)."""
    def g(e):
        f = mp.sqrt(-11 + 8 * m * m - 12 * e)
        return f * (n + mp.mpf(1) / 2) - 9 * m * m / f**2 - mp.mpf(7) / 2 + m * m - e

    top = (8 * m * m - 11) / mp.mpf(12) * (1 - mp.mpf("1e-9"))
    xs = [top * i / 200 for i in range(201)]
    vals = [g(v) for v in xs]
    for lo, hi, glo, ghi in zip(xs, xs[1:], vals, vals[1:]):
        if glo * ghi <= 0:
            return mp.findroot(g, (lo, hi), solver="anderson")
    raise ValueError(f"no energy-dependent level for m={m}, n={n}")
