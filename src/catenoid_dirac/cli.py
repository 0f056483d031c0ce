"""Command-line exports: potentials, spectra, wavefunctions, SUSY reports.

Every data file gets a JSON manifest sidecar at <out>.manifest.json with
the tool version, the command, every parsed option but --out and --format,
truncation metadata, and any validity flags raised during the run.  CSV
uses 17 significant digits so files round-trip bit-exactly; ``_csv_rows``
formats them in bulk with numpy, CSV_UNIT_ROWS rows at a time, two chunks
at once on the calling thread and a helper thread.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._csv_rows import CSV_UNIT_ROWS, csv_text
from .analytic import (
    QuantumNumbers,
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
    SPECTRUM_POINTS,
    X_DELTA,
    Grid,
    _map_on_two_threads,
    box_levels,
    compact_levels,
    scarf_levels,
    trapezoid_norm,
)
from .potentials import (
    ConstantVF,
    ScarfVF,
    fermi_velocity,
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
    check_intertwining,
)

ANALYTIC_N_MAX = 10**6  # largest spectrum --mode analytic --n, which writes one record per level


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> list[str]:
    """Header line, then one "%.17g" row per sample, comma-separated: the
    same bytes as np.savetxt.  ``csv_text`` formats CSV_UNIT_ROWS rows at a
    time, two such chunks at once, the second on a helper thread, and the
    pair is written before the next is formatted; a table of one chunk
    starts no thread.  Returns one validity flag per column with non-finite
    cells, naming its count and the first value of the first column (u) at
    which one occurs.
    """
    table = np.column_stack(columns).astype(float, copy=False)
    chunks = [table[start:start + CSV_UNIT_ROWS] for start in range(0, len(table), CSV_UNIT_ROWS)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for pair in range(0, len(chunks), 2):
            fh.writelines(_map_on_two_threads(csv_text, chunks[pair:pair + 2]))
    bad = ~np.isfinite(table)
    return [f"{name}: {count} of {len(table)} cells are not finite, the first at u = "
            f"{table[col.argmax(), 0]:g}"
            for name, col, count in zip(header, bad.T, bad.sum(axis=0)) if count]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, args, truncation: dict, validity_flags: list[str], **extra) -> None:
    """<out>.manifest.json.  Its parameters are every parsed option but
    --out and --format, which only say where and how the data are written,
    plus ``extra``."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "format")}
    _write_json(
        Path(str(out) + ".manifest.json"),
        {
            "tool_version": __version__,
            "command": args.command,
            "parameters": {**params, **extra},
            "truncation": truncation,
            "validity_flags": validity_flags,
        },
    )


def cmd_potentials(args) -> int:
    params = CatenoidParams(args.R)
    u = np.linspace(args.umin, args.umax, args.samples)
    header = ["u", "V_eff1", "V_eff2", "W"]
    # V_eff2, the second spinor component, is V_eff1 at -m
    columns = [u, v_eff(params, args.m, u), v_eff(params, -args.m, u),
               superpotential(params, args.m, u)]
    if args.lam is not None:
        header.append("U_eff1")
        columns.append(u_eff(ScarfVF(args.lam), params, args.m, u))
    out = Path(args.out)
    flags = _write_csv(out, header, columns)
    _write_manifest(out, args, {"domain": [args.umin, args.umax], "samples": args.samples}, flags)
    return 0


def cmd_spectrum(args) -> int:
    params = CatenoidParams(args.R)
    pdfv = args.lam is not None
    validity_flags: list[str] = []
    # the numeric levels eps^2 are those of the Scarf operator of the
    # sec^2-velocity problem, or of the compact-coordinate form of the
    # constant-velocity problem, where the discrete part of the spectrum is genuine
    if pdfv:
        scarf = scarf_params_physical(params, args.m, args.lam)
        scale, levels, V = args.lam / params.R, scarf_levels, partial(scarf_form_pdfv, params, args.m)
    else:
        scale, levels, V = args.vf / params.R, compact_levels, partial(constant_case_rspace_potential, args.m)
    numeric = None
    if args.mode in ("numeric", "both"):
        # two spare levels: asking for exactly n + 1 changes the last bits of
        # the levels, because the bisection starts from another interval
        eps_sq = levels(V, args.n + 3).eigenvalues[:args.n + 1]
        numeric = np.array([scale * math.sqrt(e) if e >= 0 else math.nan for e in eps_sq])
        validity_flags += [f"n={n}: numeric eps^2 = {e:g} is negative" if e < 0
                           else f"n={n}: E_numeric = {x:g} is not finite"
                           for n, (e, x) in enumerate(zip(eps_sq, numeric)) if not math.isfinite(x)]
        if pdfv:
            validity_flags += [
                f"Scarf potential ~ kappa/delta^2 at x = {end}pi/2 with kappa = {k:g} < 0: "
                f"the lowest numeric level scales like kappa/X_DELTA^2 (X_DELTA = {X_DELTA:g})"
                for end, k in zip("-+", scarf_endpoint_kappa(params, args.m)) if k < 0]
    records = []
    for n in range(args.n + 1):
        rec: dict = {"n": n, "m": args.m}
        if args.mode in ("analytic", "both"):
            qn = QuantumNumbers(n, args.m)
            level = energy_pdfv(params, scarf, qn) if pdfv else energy_constant_case(params, args.vf, qn)
            rec["valid"] = level.valid
            if level.valid:
                rec["E_analytic"] = level.value
            else:
                rec["reason"] = level.reason
                validity_flags.append(f"n={n}: {level.reason}")
        if numeric is not None:
            rec["E_numeric"] = numeric[n]
        if args.mode == "both" and level.valid:
            rec["relative_discrepancy"] = abs(level.value - numeric[n]) / max(level.value, 1e-300)
            # nanargmin keeps the first of equal distances; with every numeric
            # level NaN there is no other level to be closest
            distance = np.abs(numeric - level.value)
            closest = n if np.isnan(distance).all() else np.nanargmin(distance)
            if closest != n:
                validity_flags.append(f"n={n}: closest numeric level is n={closest}")
        records.append(rec)
    out = Path(args.out)
    if args.format == "csv":
        keys = sorted({k for r in records for k in r})
        cols = [np.array([math.nan if isinstance(r.get(k), str) else float(r.get(k, math.nan))
                          for r in records]) for k in keys]
        _write_csv(out, keys, cols)  # NaN cells are placeholders, flagged above
    else:
        _write_json(out, {"levels": records})
    domain = None if args.mode == "analytic" else (
        f"Scarf x-grid [-pi/2 + {X_DELTA:g}, pi/2 - {X_DELTA:g}], {SPECTRUM_POINTS} points" if pdfv
        else f"compact coordinate, {SPECTRUM_POINTS} points")
    _write_manifest(out, args, {"numeric_domain": domain}, validity_flags)
    return 0


def cmd_wavefunction(args) -> int:
    params = CatenoidParams(args.R)
    qn = QuantumNumbers(args.n, args.m)
    u = np.linspace(args.umin, args.umax, args.samples)
    validity_flags: list[str] = []
    if args.lam is not None:
        # eigenfunction_pdfv refuses invalid Scarf parameters: this branch has no regularization
        vals = eigenfunction_pdfv(params, scarf_params_physical(params, args.m, args.lam), qn, u)
        weight, weight_label = 1.0 / fermi_velocity(ScarfVF(args.lam), params, u) ** 2, "1/v_F(u)^2"
    else:
        # realness check of the level, whose verdict does not depend on v_F
        level = energy_constant_case(params, 1.0, qn)
        if not level.valid:
            if not args.allow_invalid:
                raise ValueError(f"{level.reason}; rerun with --allow-invalid")
            validity_flags.append(level.reason)
        # 1 -+ t rounding to 0 under a negative power: an infinite norm, which trapezoid_norm refuses
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = eigenfunction_constant_case(params, qn, u, allow_invalid=args.allow_invalid)
        weight, weight_label = 1.0, "du"
    vals = vals / trapezoid_norm(vals, u, weight)
    density = vals**2
    out = Path(args.out)
    validity_flags += _write_csv(out, ["u", "value", "density"], [u, vals, density])
    _write_manifest(
        out, args,
        {
            "domain": [args.umin, args.umax],
            "samples": args.samples,
            "normalization": "unit integral of weight*density over the emitted grid",
            "weight": weight_label,
        },
        validity_flags,
    )
    return 0


def _partner_shift(W, dW, levels, count: int):
    """Isospectral shift table of the partner pair W^2 -+ W', solved by the
    numeric level function levels(V, k).

    Compares the partner levels E2_n with the first-system levels E1_(n+1)
    for n < count; returns (E1_0, rows, worst relative discrepancy).
    """
    e1 = levels(lambda x: partner_potentials_from_W(W, x, dW)[0], count + 2).eigenvalues
    e2 = levels(lambda x: partner_potentials_from_W(W, x, dW)[1], count + 1).eigenvalues
    rows = []
    worst = 0.0
    for n in range(count):
        rel = abs(e2[n] - e1[n + 1]) / abs(e1[n + 1])
        worst = max(worst, rel)
        rows.append({"n": n, "E1_next": e1[n + 1], "E2": e2[n], "relative_discrepancy": rel})
    return e1[0], rows, worst


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(value < tolerance)}


def cmd_susy_check(args) -> int:
    params = CatenoidParams(args.R)
    checks = []
    validity_flags: list[str] = []

    if args.mode == "harmonic":
        # oracle pair W = u: partners u^2 -+ 1 with known exact levels
        ground, shift, worst = _partner_shift(lambda x: x, lambda x: np.ones_like(x), box_levels, 5)
        checks += [_check("ground_state_at_zero", abs(ground), 1e-3),
                   _check("partner_shift", worst, 1e-3)]
    else:
        W = partial(superpotential, params, args.m)
        dW = partial(superpotential_derivative, params, args.m)
        u = np.linspace(-10.0, 10.0, 1001)
        # g^1.5 = (R^2 + u^2)^1.5 overflows at large R, where both sides of
        # each identity lose alike their term m*u/g^1.5, below 10|m|/R^3
        with np.errstate(over="ignore"):
            v1, v2 = partner_potentials_from_W(W, u, dW)  # W^2 - W' and W^2 + W'
            checks += [
                _check("partner_identity_minus", float(np.max(np.abs(v1 - v_eff(params, args.m, u)))), 1e-12),
                _check("partner_identity_plus", float(np.max(np.abs(v2 - v_eff(params, -args.m, u)))), 1e-12),
            ]

        grid = Grid(-5.0, 5.0, 2001)
        chi0 = catenoid_ground_state(params, args.m, grid.points)
        dchi0 = catenoid_ground_state_derivative(params, args.m, grid.points)
        ann = apply_ladder(W, grid, LadderDirection.LOWERING, chi0, derivative=dchi0)
        checks.append(_check("zero_mode_annihilation", float(np.max(np.abs(ann))), 1e-8))
        with np.errstate(over="ignore"):  # dW's m*u/g^1.5 as above
            checks.append(_check("intertwining", check_intertwining(W, dW, grid, np.exp(-grid.points**2)), 1e-3))

        # isospectral shift table on the exactly solvable Scarf pair of the
        # position-dependent-velocity problem
        scarf = scarf_params_physical(params, args.m, args.lam or 1.0)
        if scarf.valid:
            A, B = scarf.A, scarf.B
            _, shift, worst = _partner_shift(
                lambda x: A * np.tan(x) - B / np.cos(x),
                lambda x: A / np.cos(x) ** 2 - B * np.tan(x) / np.cos(x),
                scarf_levels,
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
    _write_manifest(out, args, {}, validity_flags)
    return 0 if not failures else 1


FIGURE_M = -2
COMPANION_M = 3
FIGURE_LEVELS = (1, 3)
FIGURE_BOX = (40.0, 16001)  # half-width in units of R and samples of the density norm


def cmd_report_figures(args) -> int:
    params = CatenoidParams(args.R)
    caveat = energy_constant_case(params, args.vf, QuantumNumbers(1, FIGURE_M)).reason
    if not args.allow_invalid:
        raise ValueError(
            f"the requested parameters (m={FIGURE_M}) fail the realness "
            f"check ({caveat}); rerun with --allow-invalid to apply the "
            "documented absolute-value regularization"
        )
    u = np.linspace(args.umin, args.umax, args.samples)
    out = Path(args.out)
    companion = out.with_name(out.stem + "_companion" + (out.suffix or ".csv"))

    box = np.linspace(-FIGURE_BOX[0] * params.R, FIGURE_BOX[0] * params.R, FIGURE_BOX[1])

    def densities(m: int, allow: bool) -> list[np.ndarray]:
        cols = []
        for n in FIGURE_LEVELS:
            qn = QuantumNumbers(n, m)
            chi, on_box = (eigenfunction_constant_case(params, qn, x, allow_invalid=allow)
                           for x in (u, box))
            cols.append((chi / trapezoid_norm(on_box, box)) ** 2)
        return cols

    header = ["u"] + [f"density_n{n}" for n in FIGURE_LEVELS]
    # 1 -+ t rounding to 0 under a negative power: infinite cells, which _write_csv flags
    with np.errstate(divide="ignore", invalid="ignore"):
        columns, companion_columns = densities(FIGURE_M, True), densities(COMPANION_M, False)
    flags = _write_csv(out, header, [u] + columns)
    companion_flags = _write_csv(companion, header, [u] + companion_columns)
    trunc = {"domain": [args.umin, args.umax], "samples": args.samples,
             "regularization": "negative radicands replaced by absolute values"}
    _write_manifest(out, args, trunc, [f"validity caveat: {caveat}", *flags], m=FIGURE_M)
    _write_manifest(companion, args, trunc, companion_flags, m=COMPANION_M)
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
    p.set_defaults(func=cmd_susy_check)

    p = sub.add_parser("report-figures",
                       help="export the density profiles at the flagged parameters plus a valid companion")
    common(p, need_model=False, allow_invalid=True)
    p.set_defaults(func=cmd_report_figures)
    return parser


def _check_inputs(args) -> None:
    """Validate every option the subcommand has, through the validated
    types, before any command runs: R, vf and lambda finite and > 0, |m| <=
    2**53 (m enters every formula as a float), n >= 0 (at most
    SPECTRUM_POINTS - 3 for numeric levels and ANALYTIC_N_MAX for analytic
    ones, below samples for a profile, whose n nodes fewer samples cannot
    resolve), samples >= 2, umin < umax, and R^2 + u^2 finite at the ends
    of each u range (its power 1.5 for potentials; report-figures also at
    +-40R), with --lambda also 4 v_F^2 and v_F'^2."""
    CatenoidParams(args.R)
    ConstantVF(args.vf)
    if hasattr(args, "m") and not abs(args.m) <= 2**53:
        raise ValueError(f"|--m| must be at most 2**53, got {args.m}")
    if getattr(args, "lam", None) is not None:
        ScarfVF(args.lam)
    if hasattr(args, "n"):
        QuantumNumbers(args.n, args.m)
    if args.command == "spectrum":  # numeric levels 0..n plus the two spare ones fit the grid
        n_max = ANALYTIC_N_MAX if args.mode == "analytic" else SPECTRUM_POINTS - 3
        if args.n > n_max:
            raise ValueError(f"--n must be at most {n_max} with --mode {args.mode}, got {args.n}")
    if hasattr(args, "samples"):
        if args.samples < 2:
            raise ValueError("need at least 2 samples")
        if getattr(args, "n", -1) >= args.samples:
            raise ValueError(f"--n must be below --samples ({args.samples}), got {args.n}")
        if not -math.inf < args.umin < args.umax < math.inf:
            raise ValueError(f"need finite umin < umax, got umin={args.umin}, umax={args.umax}")
        # the largest |u| of each u range, at its ends, bounds R^2 + u^2 and its power 1.5
        power = 1.5 if args.command == "potentials" else 1.0
        ends = [args.umin, args.umax]
        if args.command == "report-figures":  # and the ends of its +-40R norm box
            ends.append(FIGURE_BOX[0] * args.R)
        with np.errstate(over="ignore"):
            for u in ends:
                if not math.isfinite((args.R**2 + np.square(u)) ** power):
                    raise ValueError(f"(R^2 + u^2)^{power} overflows at u = {u:g}")
                # with --lambda, vbar_eff divides by 4 v_F^2 and adds v_F'^2
                if getattr(args, "lam", None) is not None and not np.isfinite(
                        [4.0 * np.square(fermi_velocity(ScarfVF(args.lam), CatenoidParams(args.R), u)),
                         np.square(2.0 * args.lam * u / args.R**2)]).all():
                    raise ValueError(f"4 v_F^2 or v_F'^2 overflows at u = {u:g}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_inputs(args)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
