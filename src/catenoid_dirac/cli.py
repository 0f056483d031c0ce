"""Command-line exports: potentials, spectra, wavefunctions, SUSY reports.

Every data file gets a JSON manifest sidecar at <out>.manifest.json with
the tool version, full parameter echo, truncation metadata, and any
validity flags raised during the run.  CSV uses 17 significant digits so
files round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    QuantumNumbers,
    _pdfv_weight,
    constant_case_rspace_potential,
    eigenfunction_constant_case,
    energy_constant_case,
    energy_pdfv,
    eigenfunction_pdfv,
    scarf_endpoint_kappa,
    scarf_params_physical,
)
from .geometry import CatenoidParams
from .numeric import (
    Grid,
    WavefunctionSamples,
    discretize,
    discretize_sturm_liouville,
    eigen_tridiagonal,
    trapezoid_norm,
)
from .potentials import (
    ConstantVF,
    PotentialModel,
    ScarfVF,
    SpinorBranch,
    partner_potentials_from_W,
    scarf_form_pdfv,
    superpotential,
    superpotential_derivative,
    u_eff,
    v_eff,
)
from .susy import (
    LadderDirection,
    apply_ladder,
    catenoid_ground_state,
    catenoid_ground_state_derivative,
    catenoid_system,
    check_intertwining,
)

X_DELTA = 1e-4  # clip distance from the +-pi/2 singularities
R_DELTA = 1e-6  # clip distance from the r = +-1 ends of the compact coordinate
CSV_BLOCK_ROWS = 8192  # rows formatted per % call: bounds the temporary strings


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> list[str]:
    """Header line, then one "%.17g" row per sample, comma-separated.

    Formats a block of rows in one % call: the same bytes as np.savetxt,
    without its per-row Python loop.  Returns one validity flag per column
    with non-finite cells, naming its count and the first value of the
    first column (u) at which one occurs.
    """
    table = np.column_stack(columns)
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    bad = ~np.isfinite(table)
    return [f"{name}: {count} of {len(table)} cells are not finite, the first at u = "
            f"{table[col.argmax(), 0]:g}"
            for name, col, count in zip(header, bad.T, bad.sum(axis=0)) if count]


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_manifest(out: Path, command: str, params: dict, truncation: dict,
                    validity_flags: list[str]) -> None:
    _write_json(
        Path(str(out) + ".manifest.json"),
        {
            "tool_version": __version__,
            "command": command,
            "parameters": params,
            "truncation": truncation,
            "validity_flags": validity_flags,
        },
    )


def _u_grid(args) -> np.ndarray:
    return np.linspace(args.umin, args.umax, args.samples)


def _params_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _v_eff_pair(args, params: CatenoidParams, u) -> list[np.ndarray]:
    """V_eff1, V_eff2: the constant-velocity potentials of both spinor components."""
    return [v_eff(PotentialModel(ConstantVF(args.vf), args.m, SpinorBranch(s)), params, u)
            for s in (+1, -1)]


def cmd_potentials(args) -> int:
    params = CatenoidParams(args.R)
    u = _u_grid(args)
    header = ["u", "V_eff1", "V_eff2", "W"]
    columns = [u, *_v_eff_pair(args, params, u), superpotential(params, args.m, u)]
    if args.lam is not None:
        header.append("U_eff1")
        columns.append(u_eff(PotentialModel(ScarfVF(args.lam), args.m, SpinorBranch(+1)), params, u))
    out = Path(args.out)
    flags = _write_csv(out, header, columns)
    echo = _params_echo(args, ["R", "m", "vf", "lam", "umin", "umax", "samples"])
    _write_manifest(out, "potentials", echo,
                    {"domain": [args.umin, args.umax], "samples": args.samples}, flags)
    return 0


def _numeric_levels(params: CatenoidParams, m: int, count: int, pdfv: bool) -> np.ndarray:
    """Lowest count levels eps^2: of the Scarf operator of the sec^2-velocity
    problem, or of the compact-coordinate form of the constant-velocity
    problem, where the discrete part of the spectrum is genuine."""
    if pdfv:
        grid = Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, 4001)
        op = discretize(lambda x: scarf_form_pdfv(params, m, x), grid)
    else:
        grid = Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, 4001)
        op = discretize_sturm_liouville(
            lambda r: 1.0 - r * r, lambda r: constant_case_rspace_potential(m, r), grid
        )
    return eigen_tridiagonal(op, count + 2, grid=grid).eigenvalues[:count]


def cmd_spectrum(args) -> int:
    params = CatenoidParams(args.R)
    pdfv = args.lam is not None
    n_levels = args.n + 1
    validity_flags: list[str] = []
    if pdfv:
        scarf = scarf_params_physical(params, args.m, args.lam)
        scale = args.lam / params.R
    else:
        scale = args.vf / params.R
    numeric = None
    if args.mode in ("numeric", "both"):
        eps_sq = _numeric_levels(params, args.m, n_levels, pdfv)
        numeric = [scale * math.sqrt(e) if e >= 0 else math.nan for e in eps_sq]
        validity_flags += [f"n={n}: numeric eps^2 = {e:g} is negative"
                           for n, e in enumerate(eps_sq) if e < 0]
        if pdfv:
            validity_flags += [
                f"Scarf potential ~ kappa/delta^2 at x = {end}pi/2 with kappa = {k:g} < 0: "
                f"the lowest numeric level scales like kappa/X_DELTA^2 (X_DELTA = {X_DELTA:g})"
                for end, k in zip("-+", scarf_endpoint_kappa(params, args.m)) if k < 0]
    records = []
    for n in range(n_levels):
        rec: dict = {"n": n, "m": args.m}
        if args.mode in ("analytic", "both"):
            level = (
                energy_pdfv(params, scarf, QuantumNumbers(n, args.m))
                if pdfv
                else energy_constant_case(params, args.vf, QuantumNumbers(n, args.m))
            )
            rec["valid"] = level.valid
            if level.valid:
                rec["E_analytic"] = level.value
            else:
                rec["reason"] = level.reason
                validity_flags.append(f"n={n}: {level.reason}")
        if numeric is not None:
            rec["E_numeric"] = numeric[n]
        if args.mode == "both" and rec.get("valid") and numeric is not None:
            denom = max(abs(rec["E_analytic"]), 1e-300)
            rec["relative_discrepancy"] = abs(rec["E_analytic"] - numeric[n]) / denom
            finite = [k for k, e in enumerate(numeric) if not math.isnan(e)]
            closest = min(finite, key=lambda k: abs(numeric[k] - rec["E_analytic"]), default=n)
            if closest != n:
                validity_flags.append(f"n={n}: closest numeric level is n={closest}")
        records.append(rec)
    out = Path(args.out)
    payload = {"levels": records}
    if args.format == "csv":
        keys = sorted({k for r in records for k in r})
        cols = [np.array([math.nan if isinstance(r.get(k), str) else float(r.get(k, math.nan))
                          for r in records]) for k in keys]
        _write_csv(out, keys, cols)  # NaN cells are placeholders, flagged above
    else:
        _write_json(out, payload)
    echo = _params_echo(args, ["R", "m", "n", "vf", "lam", "mode"])
    domain = None
    if args.mode != "analytic":
        domain = (f"Scarf x-grid [-pi/2 + {X_DELTA:g}, pi/2 - {X_DELTA:g}], 4001 points" if pdfv
                  else "compact coordinate, 4001 points")
    _write_manifest(out, "spectrum", echo, {"numeric_domain": domain}, validity_flags)
    return 0


def cmd_wavefunction(args) -> int:
    params = CatenoidParams(args.R)
    qn = QuantumNumbers(args.n, args.m)
    u = _u_grid(args)
    pdfv = args.lam is not None
    # realness check: the Scarf parameters, or the constant-velocity level
    branch = (scarf_params_physical(params, args.m, args.lam) if pdfv
              else energy_constant_case(params, args.vf, qn))
    validity_flags: list[str] = []
    if not branch.valid:
        if not args.allow_invalid:
            raise ValueError(f"{branch.reason}; rerun with --allow-invalid")
        validity_flags.append(branch.reason)
    if pdfv:
        vals = eigenfunction_pdfv(params, branch, qn, u, normalize=False)
        weight, weight_label = _pdfv_weight(params, args.lam, u), "1/v_F(u)^2"
    else:
        vals = eigenfunction_constant_case(
            params, qn, u, normalize=False, allow_invalid=args.allow_invalid
        )
        weight, weight_label = 1.0, "du"
    vals = vals / trapezoid_norm(vals, u, weight)
    density = vals**2
    out = Path(args.out)
    validity_flags += _write_csv(out, ["u", "value", "density"], [u, vals, density])
    echo = _params_echo(args, ["R", "m", "n", "vf", "lam", "umin", "umax", "samples", "allow_invalid"])
    _write_manifest(
        out, "wavefunction", echo,
        {
            "domain": [args.umin, args.umax],
            "samples": args.samples,
            "normalization": "unit integral of weight*density over the emitted grid",
            "weight": weight_label,
        },
        validity_flags,
    )
    return 0


def _partner_shift(W, dW, grid: Grid, count: int):
    """Isospectral shift table of the partner pair W^2 -+ W' on grid.

    Compares the partner levels E2_n with the first-system levels E1_(n+1)
    for n < count; returns (E1_0, rows, worst relative discrepancy).
    """
    v1, v2 = partner_potentials_from_W(W, grid.points, dW=dW)
    e1 = eigen_tridiagonal(discretize(lambda _: v1, grid), count + 2, grid=grid).eigenvalues
    e2 = eigen_tridiagonal(discretize(lambda _: v2, grid), count + 1, grid=grid).eigenvalues
    rows = []
    worst = 0.0
    for n in range(count):
        rel = abs(e2[n] - e1[n + 1]) / abs(e1[n + 1])
        worst = max(worst, rel)
        rows.append({"n": n, "E1_next": e1[n + 1], "E2": e2[n], "relative_discrepancy": rel})
    return e1[0], rows, worst


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": value < tolerance}


def cmd_susy_check(args) -> int:
    params = CatenoidParams(args.R)
    checks = []
    validity_flags: list[str] = []

    if args.mode == "harmonic":
        # oracle pair W = u: partners u^2 -+ 1 with known exact levels
        ground, shift, worst = _partner_shift(
            lambda x: x, lambda x: np.ones_like(x), Grid(-10.0, 10.0, 4001), 5
        )
        checks += [_check("ground_state_at_zero", abs(ground), 1e-3),
                   _check("partner_shift", worst, 1e-3)]
    else:
        u = np.linspace(-10.0, 10.0, 1001)
        w_val = superpotential(params, args.m, u)
        dw_val = superpotential_derivative(params, args.m, u)
        if args.inject_error:
            w_val = w_val + 0.5
            validity_flags.append("injected superpotential corruption (test hook)")
        v1, v2 = _v_eff_pair(args, params, u)
        checks += [
            _check("partner_identity_minus", float(np.max(np.abs(w_val**2 - dw_val - v1))), 1e-12),
            _check("partner_identity_plus", float(np.max(np.abs(w_val**2 + dw_val - v2))), 1e-12),
        ]

        grid = Grid(-5.0, 5.0, 2001)
        sys_u = catenoid_system(params, args.m, grid)
        chi0 = catenoid_ground_state(params, args.m, grid.points)
        dchi0 = catenoid_ground_state_derivative(params, args.m, grid.points)
        if args.inject_error:
            dchi0 = dchi0 + 0.5
        ann = apply_ladder(sys_u, LadderDirection.LOWERING,
                           WavefunctionSamples(grid=grid, values=chi0), derivative=dchi0)
        checks.append(_check("zero_mode_annihilation", float(np.max(np.abs(ann.values))), 1e-8))

        probe = WavefunctionSamples(grid=grid, values=np.exp(-grid.points**2))
        checks.append(_check("intertwining", float(check_intertwining(sys_u, probe)), 1e-3))

        # isospectral shift table on the exactly solvable Scarf pair of the
        # position-dependent-velocity problem
        scarf = scarf_params_physical(params, args.m, args.lam or 1.0)
        if scarf.valid:
            A, B = scarf.A, scarf.B
            _, shift, worst = _partner_shift(
                lambda x: A * np.tan(x) - B / np.cos(x),
                lambda x: A / np.cos(x) ** 2 - B * np.tan(x) / np.cos(x),
                Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, 4001),
                4,
            )
            checks.append(_check("partner_shift", worst, 1e-3))
        else:
            shift = []
            validity_flags.append(f"shift table skipped: {scarf.reason}")

    failures = [c["name"] for c in checks if not c["pass"]]
    report = {"checks": checks, "shift_table": shift, "all_pass": not failures,
              "failures": failures}
    out = Path(args.out)
    _write_json(out, report)
    echo = _params_echo(args, ["R", "m", "vf", "lam", "mode"])
    _write_manifest(out, "susy-check", echo, {}, validity_flags)
    return 0 if not failures else 1


FIGURE_M = -2
COMPANION_M = 3
FIGURE_LEVELS = (1, 3)


def cmd_report_figures(args) -> int:
    params = CatenoidParams(args.R)
    caveat = energy_constant_case(params, args.vf, QuantumNumbers(1, FIGURE_M)).reason
    if not args.allow_invalid:
        raise ValueError(
            f"the requested parameters (m={FIGURE_M}) fail the realness "
            f"check ({caveat}); rerun with --allow-invalid to apply the "
            "documented absolute-value regularization"
        )
    u = _u_grid(args)
    out = Path(args.out)
    companion = out.with_name(out.stem + "_companion" + (out.suffix or ".csv"))

    def densities(m: int, allow: bool) -> list[np.ndarray]:
        cols = []
        for n in FIGURE_LEVELS:
            chi = eigenfunction_constant_case(
                params, QuantumNumbers(n, m), u, allow_invalid=allow
            )
            cols.append(chi**2)
        return cols

    header = ["u"] + [f"density_n{n}" for n in FIGURE_LEVELS]
    flags = _write_csv(out, header, [u] + densities(FIGURE_M, True))
    companion_flags = _write_csv(companion, header, [u] + densities(COMPANION_M, False))
    echo = _params_echo(args, ["R", "vf", "umin", "umax", "samples", "allow_invalid"])
    trunc = {"domain": [args.umin, args.umax], "samples": args.samples,
             "regularization": "negative radicands replaced by absolute values"}
    _write_manifest(out, "report-figures", {**echo, "m": FIGURE_M},
                    trunc, [f"validity caveat: {caveat}", *flags])
    _write_manifest(companion, "report-figures", {**echo, "m": COMPANION_M}, trunc,
                    companion_flags)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catenoid-dirac",
        description="Exports for the reduced 1D Dirac problem on a catenoid bridge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_grid=True, need_n=False, need_model=True, allow_invalid=False):
        p.add_argument("--R", type=float, default=1.0, help="throat radius (>0)")
        if need_model:  # angular momentum and velocity profile
            p.add_argument("--m", type=int, default=2, help="angular momentum index")
            p.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="velocity scale of the position-dependent profile")
        p.add_argument("--vf", type=float, default=1.0, help="constant Fermi velocity (>0)")
        if need_n:
            p.add_argument("--n", type=int, default=3, help="level index (or maximum level)")
        if need_grid:
            p.add_argument("--umin", type=float, default=-10.0)
            p.add_argument("--umax", type=float, default=10.0)
            p.add_argument("--samples", type=int, default=1001)
        p.add_argument("--out", required=True, help="output file path")
        if allow_invalid:
            p.add_argument("--allow-invalid", action="store_true",
                           help="regularize parameter sets flagged by the realness check")

    p = sub.add_parser("potentials", help="export V_eff1, V_eff2, W (and U_eff1 with --lambda)")
    common(p)
    p.set_defaults(func=cmd_potentials)

    p = sub.add_parser("spectrum", help="export energy levels 0..n")
    common(p, need_grid=False, need_n=True)
    p.add_argument("--mode", choices=["analytic", "numeric", "both"], default="analytic")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="export one eigenfunction and its density")
    common(p, need_n=True, allow_invalid=True)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("susy-check", help="run factorization checks, nonzero exit on failure")
    common(p, need_grid=False)
    p.add_argument("--mode", choices=["catenoid", "harmonic"], default="catenoid")
    p.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_susy_check)

    p = sub.add_parser("report-figures",
                       help="export the density profiles at the flagged parameters plus a valid companion")
    common(p, need_model=False, allow_invalid=True)
    p.set_defaults(func=cmd_report_figures)
    return parser


def _check_inputs(args) -> None:
    """Validate every option the subcommand has, through the validated
    types, before any command runs: R, vf and lambda finite and > 0,
    n >= 0, samples >= 2 and finite umin < umax."""
    CatenoidParams(args.R)
    ConstantVF(args.vf)
    if getattr(args, "lam", None) is not None:
        ScarfVF(args.lam)
    if hasattr(args, "n"):
        QuantumNumbers(args.n, args.m)
    if hasattr(args, "samples"):
        if args.samples < 2:
            raise ValueError("need at least 2 samples")
        if not -math.inf < args.umin < args.umax < math.inf:
            raise ValueError(f"need finite umin < umax, got umin={args.umin}, umax={args.umax}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_inputs(args)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
