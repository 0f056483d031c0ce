"""The benchmark's four workloads, and why each exists.

The paper's results reach users by two routes: exported artifacts (spectra,
eigenfunctions, potentials, SUSY reports) and library sweeps that compare
the closed-form branches with the finite-difference oracle.  Every workload
is a closed loop with one client, because CLI users and library callers both
wait for each result.  Ops are drawn from the seed only; each cycle holds
every op kind of the workload once (for the sweep: every m at every grid
size), in a seeded order, and a run measures whole cycles, so every run sees
the same mix.

cold-cli      Each op starts a fresh interpreter that runs the CLI, cycling
              through the five README example commands at default sizes.
              This is what a user pays per artifact: interpreter start-up and
              package import dominate (layer ``import``), compute is tens of
              milliseconds.
sweep         Warm, in-process parameter study: each op is one point (m in
              -4..4 including 1, 2 and negative m, R on a grid in [0.5, 2],
              grid size in {4001, 16001, 64001}, seeded top level n, branch
              and velocity) and computes the closed-form levels, the
              finite-difference levels through the public ``numeric``
              functions (the operators ``spectrum --mode both`` uses) and the
              partner shift table of ``susy-check``.  Eigensolves dominate
              (layer ``numeric``); no import, no files.
export        Warm, in-process ``cli.main`` calls at ``--samples 100001``:
              potentials (constant and --lambda), wavefunction (constant and
              --lambda), report-figures.  Large files and no import cost, so
              the per-value CSV formatting in ``cli`` dominates.
closed-forms  Warm, in-process closed-form branches (near-origin Kummer,
              energy-dependent parabolic cylinder, zero-energy mode, both
              partner eigenfunctions) and direct ``specfun`` calls over the
              whole argument range each accepts (Kummer z in [-50, 50]).  No
              CLI command and no sweep op reaches ``specfun``; its callers loop
              point by point in Python, so ``specfun`` and ``analytic``
              dominate.  The ranges are not trimmed: the known Kummer (z < 0)
              and parabolic-cylinder (nu < 0) errors stay visible.

Which per-layer metric should move which end-to-end metric:

  import.*                      setup_s on every workload; op_p50_ms on
                                cold-cli; no op metric elsewhere.
  numeric.self_ms,              ops_per_s on sweep; no change on export or
  numeric.eigensolve_ms         closed-forms.
  cli.self_ms,                  ops_per_s on export; little change on
  cli.write_mb_per_s            cold-cli.
  specfun.self_ms,              ops_per_s on closed-forms; analytic.self_ms
  specfun.calls_per_point,      also moves export through its normalization
  analytic.self_ms              boxes.
  susy.self_ms                  cold-cli (susy-check); the sweep's shift table
                                is built in ``potentials``.
  geometry.*, potentials.*      under a millisecond; measured, not a target.

Correctness: cold-cli and export compare every data file and manifest with
the SHA-256 digests of the reference outputs (``digests.json``, written by
``make_digests.py``); a mismatch fails the op, so a faster writer that
changes a byte cannot pass.  The error metric compares outputs with an independent
reference: mpmath closed forms for closed-forms, for sampled rows of the
exported files and for the levels in spectrum and susy-check reports and in
the sweep.  Errors are reported as measured and never fail an op.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
LAUNCHER = BENCH / "launcher.py"

# closed-forms ops whose sampled points are compared with mpmath; the
# reference values are computed before the timed region
ORACLE_CYCLES = 12
ORACLE_POINTS = 8
# exported rows compared with mpmath per file
ORACLE_ROWS = 50
CHILD_TIMEOUT_S = 120


def package(module: str):
    return importlib.import_module(f"catenoid_dirac.{module}")


class CheckFailed(Exception):
    """An op returned, but its output is not the reference output."""


@dataclass
class Op:
    kind: str
    params: dict
    sample: list = field(default_factory=list)  # output indices compared with the oracle
    ref: list | None = None  # oracle values at ``sample``, set by ``prepare``


@dataclass
class Context:
    workdir: Path
    trace_spans: Path | None = None  # cold-cli: where a traced child writes spans
    op_id: int = 0
    # cold-cli: ((names, spans, counters), -X importtime report) per traced child
    child_traces: list = field(default_factory=list)


class Workload:
    name = ""
    modules: tuple[str, ...] = ()  # package modules a user of the workload imports
    predicted: tuple[str, ...] = ()  # layers expected to hold the largest self time
    kinds: tuple[str, ...] = ()

    def cycle(self, rng, index: int = 0) -> list[Op]:
        """The ``index``-th cycle of a run: every kind once, in a seeded order."""
        return [self.draw(kind, rng) for kind in rng.permutation(self.kinds)]

    def draw(self, kind: str, rng) -> Op:
        raise NotImplementedError

    def warm_ops(self, rng) -> list[Op]:
        """Ops run once, untimed, before measuring, so lazy imports and caches
        are settled."""
        return self.cycle(rng)

    def prepare(self, ops: list[Op]) -> None:
        """Oracle work for ``ops``, done before the timed region."""

    def run(self, op: Op, ctx: Context):
        raise NotImplementedError

    def check(self, op: Op, result, ctx: Context) -> tuple[list[float], dict[str, float]]:
        """(relative errors against the oracle, cli counters); raises
        CheckFailed when the output is wrong."""
        return [], {}


# -- exported files: digests and sampled-row oracles -----------------------


def potential_checks(R, m, lam=None):
    cols = {
        "W": ("exact", lambda u: oracles.superpotential(R, m, u)),
        "V_eff1": ("exact", lambda u: oracles.v_eff(R, m, u, +1)),
        "V_eff2": ("exact", lambda u: oracles.v_eff(R, m, u, -1)),
    }
    if lam is not None:
        cols["U_eff1"] = ("exact", lambda u: oracles.u_eff(R, m, lam, u))
    return cols


def wavefunction_checks(chi):
    return {"value": ("shape", chi), "density": ("shape", lambda u: chi(u) ** 2)}


def figure_checks(m, regularize):
    return {
        f"density_n{n}": ("shape", lambda u, n=n: oracles.chi_constant(1, m, n, u, regularize) ** 2)
        for n in (1, 3)
    }


# id -> (argv without --out, output name, {file: {column: (mode, reference)}})
CLI_CONFIGS = {
    "potentials": (
        ["potentials", "--R", "1", "--m", "3"], "pots.csv",
        {"pots.csv": potential_checks(1, 3)},
    ),
    "potentials-lambda": (
        ["potentials", "--R", "1.5", "--m", "-2", "--lambda", "0.8"], "pots_l.csv",
        {"pots_l.csv": potential_checks(1.5, -2, 0.8)},
    ),
    "spectrum": (["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "both"], "spectrum.json", {}),
    "wavefunction": (
        ["wavefunction", "--R", "1", "--m", "3", "--n", "2"], "wf.csv",
        {"wf.csv": wavefunction_checks(lambda u: oracles.chi_constant(1, 3, 2, u))},
    ),
    "wavefunction-lambda": (
        ["wavefunction", "--R", "1", "--m", "2", "--n", "1", "--lambda", "1"], "wf_l.csv",
        {"wf_l.csv": wavefunction_checks(lambda u: oracles.chi_pdfv(1, *oracles.scarf_upper(1, 2), 1, u))},
    ),
    "susy-check": (["susy-check", "--mode", "catenoid"], "report.json", {}),
    "report-figures": (
        ["report-figures", "--allow-invalid"], "fig.csv",
        {"fig.csv": figure_checks(-2, True), "fig_companion.csv": figure_checks(3, False)},
    ),
}
EXPORT_SAMPLES = ["--samples", "100001"]


def load_digests(path: Path = DIGESTS) -> dict[str, dict[str, dict[str, str]]]:
    """{workload: {kind: {file name: sha256}}}."""
    return json.loads(path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _row_errors(path: Path, columns: dict, cache: dict) -> list[float]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = lines[1:]
    step = max(1, (len(rows) - 1) // ORACLE_ROWS)
    picked = [[float(v) for v in rows[i].split(",")] for i in range(0, len(rows), step)]
    u = [row[header.index("u")] for row in picked]
    errs = []
    for col, (mode, fn) in columns.items():
        key = (path.name, col, len(rows))
        if key not in cache:
            cache[key] = [fn(x) for x in u]
        vals = [row[header.index(col)] for row in picked]
        refs = cache[key]
        if mode == "exact":
            errs += [oracles.rel_err(v, r) for v, r in zip(vals, refs)]
        else:
            errs += oracles.shape_err(vals, refs)
    return errs


def _json_errors(path: Path) -> list[float]:
    """Spectrum levels against the closed form; shift-table partner levels
    against the first system's next level."""
    data = json.loads(path.read_text())
    errs = []
    for rec in data.get("levels", []):
        if rec.get("valid") and "E_numeric" in rec:
            ref = oracles.constant_level(rec["m"], rec["n"])  # README command: R = v_F = 1
            errs += [oracles.rel_err(rec["E_analytic"], ref), oracles.rel_err(rec["E_numeric"], ref)]
    for rec in data.get("shift_table", []):
        errs.append(oracles.rel_err(rec["E2"], rec["E1_next"]))
    return errs


class CliWorkload(Workload):
    """Shared output checking of the two CLI workloads."""

    extra_argv: list[str] = []

    def __init__(self, digests: dict[str, dict[str, str]] | None = None):
        """``digests``: {kind: {file name: sha256}}; the stored table by default."""
        self.digests = load_digests()[self.name] if digests is None else digests
        self._ref_cache: dict = {}

    def draw(self, kind, rng):
        argv, out, _ = CLI_CONFIGS[kind]
        return Op(kind, {"argv": argv + self.extra_argv, "out": out})

    def check(self, op, result, ctx):
        rc, detail = result
        if rc != 0:
            raise CheckFailed(f"{op.kind}: exit code {rc}: {detail[-300:]}")
        opdir = ctx.workdir / "op"
        written = {p.name: p for p in opdir.iterdir()}
        expected = self.digests[op.kind]
        if set(written) != set(expected):
            raise CheckFailed(f"{op.kind}: wrote {sorted(written)}, expected {sorted(expected)}")
        for name, digest in expected.items():
            if sha256(written[name]) != digest:
                raise CheckFailed(f"{op.kind}: {name} differs from the reference bytes")
        errs = []
        for name, columns in CLI_CONFIGS[op.kind][2].items():
            errs += _row_errors(written[name], columns, self._ref_cache)
        for name in written:
            if name.endswith(".json") and not name.endswith(".manifest.json"):
                errs += _json_errors(written[name])
        data = [p for n, p in written.items() if not n.endswith(".manifest.json")]
        counters = {
            "cli.bytes_written": float(sum(p.stat().st_size for p in written.values())),
            "cli.rows_written": float(
                sum(p.read_bytes().count(b"\n") - 1 for p in data if p.suffix == ".csv")
            ),
        }
        return errs, counters


class ColdCli(CliWorkload):
    name = "cold-cli"
    modules = ("cli",)
    predicted = ("import",)
    kinds = ("potentials", "spectrum", "wavefunction", "susy-check", "report-figures")

    def warm_ops(self, rng):
        return []  # every op starts cold by design

    def run(self, op, ctx):
        opdir = fresh_dir(ctx.workdir / "op")
        spans = str(ctx.trace_spans) if ctx.trace_spans else "-"
        cmd = [sys.executable]
        if ctx.trace_spans:
            cmd += ["-X", "importtime"]
        cmd += [str(LAUNCHER), "cli", spans, str(ctx.op_id), "--"]
        cmd += op.params["argv"] + ["--out", op.params["out"]]
        proc = subprocess.run(
            cmd, cwd=opdir, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr

    def check(self, op, result, ctx):
        if ctx.trace_spans is not None and ctx.trace_spans.exists():
            ctx.child_traces.append((tracing.load(ctx.trace_spans), result[1]))
            ctx.trace_spans.unlink()
        return super().check(op, result, ctx)


class Export(CliWorkload):
    name = "export"
    modules = ("cli",)
    predicted = ("cli",)
    kinds = ("potentials", "potentials-lambda", "wavefunction", "wavefunction-lambda", "report-figures")
    extra_argv = EXPORT_SAMPLES

    def warm_ops(self, rng):
        ops = self.cycle(rng)
        for op in ops:
            op.params["argv"] = op.params["argv"][: -len(EXPORT_SAMPLES)] + ["--samples", "1001"]
        return ops

    def run(self, op, ctx):
        opdir = fresh_dir(ctx.workdir / "op")
        rc = package("cli").main(op.params["argv"] + ["--out", str(opdir / op.params["out"])])
        return rc, ""


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# -- sweep -----------------------------------------------------------------

SWEEP_SIZES = (4001, 16001, 64001)
SWEEP_R = (0.5, 0.8, 1.1, 1.4, 1.7, 2.0)
X_DELTA = 1e-4  # the CLI's clip distance from the +-pi/2 singularities
R_DELTA = 1e-6  # the CLI's clip distance of the compact coordinate


class Sweep(Workload):
    name = "sweep"
    modules = ("geometry", "potentials", "analytic", "numeric")
    predicted = ("numeric",)

    def cycle(self, rng, index=0):
        """Every m at every grid size, in a seeded order.  R walks the grid
        SWEEP_R so that each (m, size) pair meets a different R in each of
        six consecutive cycles: every run covers the same parameter grid."""
        ops = []
        for m in range(-4, 5):
            for k, size in enumerate(SWEEP_SIZES):
                constant = bool(rng.random() < 0.5)
                ops.append(Op(str(size), {
                    "size": size,
                    "R": SWEEP_R[(index + 2 * k + m) % len(SWEEP_R)],
                    "m": m,
                    "n": int(rng.integers(0, 6)),
                    "vf": float(rng.uniform(0.5, 2.0)) if constant else None,
                    "lam": None if constant else float(rng.uniform(0.5, 2.0)),
                }))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_ops(self, rng):
        return self.cycle(rng)[:3]  # a whole cycle takes seconds

    def run(self, op, ctx):
        analytic, numeric, potentials = package("analytic"), package("numeric"), package("potentials")
        p = op.params
        params = package("geometry").CatenoidParams(p["R"])
        m, count, size = p["m"], p["n"] + 1, p["size"]
        qns = [analytic.QuantumNumbers(n, m) for n in range(count)]
        if p["lam"] is None:
            levels = [analytic.energy_constant_case(params, p["vf"], qn) for qn in qns]
            grid = numeric.Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, size)
            ham = numeric.discretize_sturm_liouville(
                lambda r: 1.0 - r * r, lambda r: analytic.constant_case_rspace_potential(m, r), grid
            )
            scale = p["vf"] / p["R"]
        else:
            scarf = analytic.scarf_params_physical(params, m, p["lam"])
            levels = [analytic.energy_pdfv(params, scarf, qn) for qn in qns]
            grid = numeric.Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, size)
            ham = numeric.discretize(lambda x: potentials.scarf_form_pdfv(params, m, x), grid)
            scale = p["lam"] / p["R"]
        eps_sq = numeric.eigen_tridiagonal(ham, count + 2, grid=grid).eigenvalues[:count]
        fd = [scale * math.sqrt(e) if e >= 0 else math.nan for e in eps_sq]
        # partner shift table on the Scarf pair, as susy-check builds it
        shift = []
        scarf = analytic.scarf_params_physical(params, m, p["lam"] or 1.0)
        if scarf.valid:
            A, B = scarf.A, scarf.B
            xg = numeric.Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, size)
            xv = xg.points
            p1, p2 = potentials.partner_potentials_from_W(
                lambda x: A * np.tan(x) - B / np.cos(x), xv,
                dW=lambda x: A / np.cos(x) ** 2 - B * np.tan(x) / np.cos(x),
            )
            s1 = numeric.eigen_tridiagonal(numeric.discretize(lambda x: np.interp(x, xv, p1), xg), 6, grid=xg)
            s2 = numeric.eigen_tridiagonal(numeric.discretize(lambda x: np.interp(x, xv, p2), xg), 5, grid=xg)
            shift = list(zip(s1.eigenvalues[1:5], s2.eigenvalues[:4]))
        return levels, fd, shift

    def check(self, op, result, ctx):
        """Closed-form and finite-difference levels against the mpmath closed
        form where the package calls the level valid; the shift table against
        the Scarf levels (A+k+1)^2 - A^2 shared by both partners."""
        levels, fd, shift = result
        p = op.params
        R, m = p["R"], p["m"]
        errs = []
        for n, (level, x) in enumerate(zip(levels, fd)):
            if level.valid and math.isfinite(x):
                if p["lam"] is None:
                    ref = oracles.constant_level(m, n, R, p["vf"])
                else:
                    ref = oracles.pdfv_level(R, m, p["lam"], n)
                errs += [oracles.rel_err(level.value, ref), oracles.rel_err(x, ref)]
        if shift:
            A, _ = oracles.scarf_upper(R, m)
            for k, (e1, e2) in enumerate(shift):
                ref = (A + k + 1) ** 2 - A**2
                errs += [oracles.rel_err(e1, ref), oracles.rel_err(e2, ref)]
        return errs, {}


# -- closed forms ------------------------------------------------------------


class ClosedForms(Workload):
    name = "closed-forms"
    modules = ("geometry", "specfun", "analytic")
    predicted = ("specfun", "analytic")
    kinds = (
        "near_origin", "energy_dependent", "zero_energy", "partner_pdfv", "partner_constant",
        "kummer_m", "parabolic_cylinder_d", "jacobi", "hermite",
    )

    def draw(self, kind, rng):
        def ints(lo, hi):
            return int(rng.integers(lo, hi + 1))

        def choice(values):
            return values[int(rng.integers(len(values)))]

        if kind == "near_origin":
            p = {"m": ints(-3, 3), "eps": float(rng.uniform(0, 3)), "points": ints(201, 2001)}
        elif kind == "energy_dependent":
            p = {"m": choice([-5, -4, -3, -2, 2, 3, 4, 5]), "n": ints(0, 7), "points": ints(201, 4001)}
        elif kind == "zero_energy":
            p = {"m": ints(-4, 4), "points": ints(201, 4001)}
        elif kind == "partner_pdfv":
            p = {"R": float(rng.uniform(0.5, 2)), "m": choice([-5, -4, 3, 4, 5]),
                 "lam": float(rng.uniform(0.5, 2)), "n": ints(0, 4), "points": ints(201, 4001)}
        elif kind == "partner_constant":
            p = {"R": float(rng.uniform(0.5, 2)), "m": choice([-5, -4, -3, 0, 3, 4, 5]),
                 "n": ints(0, 4), "points": ints(201, 2001)}
        elif kind == "kummer_m":
            p = {"a": float(rng.uniform(-10, 10)), "b": float(rng.uniform(0.5, 10)),
                 "z": np.sort(rng.uniform(-50, 50, ints(50, 400)))}
        elif kind == "parabolic_cylinder_d":
            if rng.random() < 0.5:  # integer orders are accepted out to |z| <= 20
                p = {"nu": float(ints(0, 20)), "z": np.sort(rng.uniform(-20, 20, ints(50, 400)))}
            else:
                p = {"nu": float(rng.uniform(-20, 20)), "z": np.sort(rng.uniform(-6, 6, ints(50, 400)))}
        elif kind == "jacobi":
            p = {"n": ints(0, 20), "alpha": float(rng.uniform(-0.99, 10)),
                 "beta": float(rng.uniform(-0.99, 10)), "points": ints(201, 4001)}
        else:
            p = {"n": ints(0, 30), "points": ints(201, 4001)}
        size = len(p["z"]) if "z" in p else p["points"]
        return Op(kind, p, sample=sorted(rng.choice(size, ORACLE_POINTS, replace=False).tolist()))

    @staticmethod
    def grid(op) -> np.ndarray:
        p, k = op.params, op.kind
        if "z" in p:
            return p["z"]
        if k == "near_origin":
            return np.linspace(-0.2, 0.2, p["points"])
        if k == "energy_dependent":
            return np.linspace(-0.5, 0.5, p["points"])  # the branch's own grid
        if k == "zero_energy":
            return np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, p["points"])
        if k in ("partner_pdfv", "partner_constant"):
            return np.linspace(-10 * p["R"], 10 * p["R"], p["points"])
        if k == "jacobi":
            return np.linspace(-1.0, 1.0, p["points"])
        return np.linspace(-10.0, 10.0, p["points"])

    def run(self, op, ctx):
        analytic, specfun = package("analytic"), package("specfun")
        p, k, x = op.params, op.kind, self.grid(op)
        if k == "near_origin":
            return analytic.near_origin_solution(p["m"], p["eps"], x)
        if k == "energy_dependent":
            return analytic.energy_dependent_branch(p["m"], p["n"], r_count=p["points"])[1].values
        if k == "zero_energy":
            return analytic.zero_energy_solution(p["m"], x)
        if k == "partner_pdfv":
            params = package("geometry").CatenoidParams(p["R"])
            scarf = analytic.scarf_params_physical(params, p["m"], p["lam"])
            return analytic.partner_eigenfunction_pdfv(params, scarf, analytic.QuantumNumbers(p["n"], p["m"]), x)
        if k == "partner_constant":
            params = package("geometry").CatenoidParams(p["R"])
            return analytic.partner_eigenfunction_constant(params, analytic.QuantumNumbers(p["n"], p["m"]), x)
        if k == "kummer_m":
            return np.array([specfun.kummer_m(p["a"], p["b"], float(z)) for z in x])
        if k == "parabolic_cylinder_d":
            return np.array([specfun.parabolic_cylinder_d(p["nu"], float(z)) for z in x])
        if k == "jacobi":
            return specfun.jacobi(specfun.JacobiParams(p["n"], p["alpha"], p["beta"]), x)
        return specfun.hermite(p["n"], x)

    def prepare(self, ops):
        mp = oracles.mp
        for op in ops:
            p, k = op.params, op.kind
            x = [float(v) for v in self.grid(op)[op.sample]]
            if k == "near_origin":
                op.ref = [oracles.near_origin(p["m"], p["eps"], v) for v in x]
            elif k == "energy_dependent":
                eps_sq = oracles.energy_dependent_root(p["m"], p["n"])
                op.ref = [oracles.energy_dependent(p["m"], p["n"], eps_sq, v) for v in x]
            elif k == "zero_energy":
                op.ref = [oracles.zero_energy(p["m"], v) for v in x]
            elif k == "partner_pdfv":
                A, B = oracles.scarf_upper(p["R"], p["m"])
                op.ref = [oracles.chi_pdfv(p["R"], A + 1, B, p["n"], v) for v in x]
            elif k == "partner_constant":
                op.ref = [oracles.partner_constant(p["R"], p["m"], p["n"], v) for v in x]
            elif k == "kummer_m":
                op.ref = [mp.hyp1f1(p["a"], p["b"], v) for v in x]
            elif k == "parabolic_cylinder_d":
                op.ref = [mp.pcfd(p["nu"], v) for v in x]
            elif k == "jacobi":
                op.ref = [mp.jacobi(p["n"], p["alpha"], p["beta"], v) for v in x]
            else:
                op.ref = [mp.hermite(p["n"], v) for v in x]

    def check(self, op, result, ctx):
        if op.ref is None:
            return [], {}
        values = [complex(v) if np.iscomplexobj(result) else float(v) for v in np.asarray(result)[op.sample]]
        if op.kind.startswith("partner"):  # normalized over a truncated box
            return oracles.shape_err(values, op.ref), {}
        return [oracles.rel_err(v, r) for v, r in zip(values, op.ref)], {}


WORKLOADS = {w.name: w for w in (ColdCli, Sweep, Export, ClosedForms)}
