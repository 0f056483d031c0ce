"""Benchmark of the catenoid_dirac package; see workloads.py for what it runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the run (environment, sample counts, errors, tail percentile,
layer shares).  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics: the run
measures half its time untraced and half traced, the traced half gives the
layer numbers and the ratio of the two rates is the tracing overhead.
Exits non-zero without a result when the package source is missing.

Machine speed.  On a small shared host the speed of the same code drifts
by tens of per cent over minutes (other tenants, clock changes), in CPU time
as well as wall time.  So every run also times a fixed calibration kernel
(``calibration_ms``), before each set-up probe and a few times a second
between ops, and reports its timings scaled to a machine on which the kernel
takes ``CAL_REF_MS``: a time ``t`` is reported as
``t * CAL_REF_MS / median(kernel times)``, a rate the inverse way.  One
factor per run: the few kernel times next to the set-up probes alone vary
more than the set-up times do.  The kernel is benchmark code and no change
to the package moves it.  The raw timings and the speed factor are in the
run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

import tracing
import workloads

OUT = workloads.ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
ERR_CAP = 1.0  # a relative error of 1 means no correct digit is left
CAL_EVERY_S = 0.25  # calibrate at most this often between ops
CAL_REF_MS = 12.0  # kernel time on the reference machine (2-vCPU Xeon VM)
_CAL_X = np.linspace(0.5, 50.0, 1500)
_CAL_U = np.linspace(0.5, 50.0, 15000)
_CAL_DIAG = 2.0 + np.cos(np.arange(1600.0))
_CAL_OFF = np.full(1599, -1.0)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe(modules, importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until it has imported the
    workload's package modules, and its ``-X importtime`` report."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(workloads.LAUNCHER), "probe", *modules]
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd, env=workloads.child_env(), capture_output=True, text=True,
        timeout=workloads.CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"importing {modules} failed: {proc.stderr.strip()[-500:]}")
    return (int(proc.stdout.split()[-1]) - t0) / 1e9, proc.stderr


def calibration_ms() -> float:
    """Wall time of a fixed kernel with the package's three kinds of work in
    about equal parts: per-value number formatting (``cli``), a scalar math
    loop in Python (``specfun``, ``analytic``) and a LAPACK tridiagonal
    eigensolve (``numeric``)."""
    t0 = time.perf_counter()
    "\n".join(f"{x:.17g},{x * x:.17g}" for x in _CAL_X.tolist())
    acc = 0.0
    for x in _CAL_U.tolist():
        acc += math.exp(-x) * math.cos(x) + math.sqrt(x)
    eigh_tridiagonal(_CAL_DIAG, _CAL_OFF, eigvals_only=True, select="i", select_range=(0, 7))
    return (time.perf_counter() - t0) * 1e3


class Speed:
    """Calibration kernel times of one run."""

    def __init__(self):
        calibration_ms()  # untimed: settles caches and lazy set-up
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        self.samples.append(calibration_ms())
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Reported time per raw time: below 1 when this machine runs slower
        than the reference machine."""
        return CAL_REF_MS / statistics.median(self.samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    TAIL_BEYOND samples beyond it (the median, for runs too short for that)."""
    ordered = sorted(samples)
    k = max(len(ordered) // 2, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def environment(seed: int) -> dict:
    import mpmath
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
    }


class Loop:
    """Closed loop with one client over whole cycles of a workload."""

    def __init__(self, workload, rng, workdir: Path, speed: Speed | None = None):
        self.w = workload
        self.speed = speed
        self.rng = rng
        self.ctx = workloads.Context(workdir=workdir)
        self.cycles = [workload.cycle(rng, i) for i in range(workloads.ORACLE_CYCLES)]
        self.cycles_drawn = len(self.cycles)
        workload.prepare([op for cycle in self.cycles for op in cycle])
        self.errors: list[float] = []
        self.counters: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def next_cycle(self):
        if self.cycles:
            return self.cycles.pop(0)
        self.cycles_drawn += 1
        return self.w.cycle(self.rng, self.cycles_drawn - 1)

    def run_op(self, op, tracer=None) -> float:
        """Run and check one op; returns its wall time in ms."""
        self.ctx.op_id = self.attempted
        if tracer is not None:
            tracer.op_id = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.w.run(op, self.ctx)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return (time.perf_counter() - t0) * 1e3
        ms = (time.perf_counter() - t0) * 1e3
        try:
            errs, counters = self.w.check(op, result, self.ctx)
        except workloads.CheckFailed as exc:
            self.failures.append(str(exc))
            return ms
        self.errors += errs
        add(self.counters, counters)
        return ms

    def measure(self, seconds: float, tracer=None) -> tuple[list[float], float]:
        """Run whole cycles, at least one, until ``seconds`` of wall time have
        passed; returns (op times in ms, their sum in s)."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            for op in self.next_cycle():
                times.append(self.run_op(op, tracer))
                if self.speed is not None:
                    self.speed.maybe()
        return times, sum(times) / 1e3


def untraced_run(loop, args, setup_s, record) -> dict:
    times, busy_s = loop.measure(args.seconds)
    value, pct, beyond = tail(times)
    f = loop.speed.factor()
    who = resource.RUSAGE_CHILDREN if isinstance(loop.w, workloads.ColdCli) else resource.RUSAGE_SELF
    record["samples"] = {
        "setup_s": SETUP_REPEATS, "op_p50_ms": len(times), "op_tail_ms": len(times),
        "ops_per_s": len(times), "peak_rss_mb": 1, "max_rel_err": len(loop.errors),
        "ok_share": loop.attempted, "calibration": len(loop.speed.samples),
    }
    record["tail"] = {"percentile": pct, "beyond": beyond}
    raw = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": value,
        # one client: completed ops per second of op time
        "ops_per_s": len(times) / busy_s,
    }
    record["raw"] = raw
    record["speed_factor"] = f
    return {
        "setup_s": {"value": raw["setup_s"] * f, "unit": "s"},
        "op_p50_ms": {"value": raw["op_p50_ms"] * f, "unit": "ms"},
        "op_tail_ms": {"value": raw["op_tail_ms"] * f, "unit": "ms"},
        "ops_per_s": {"value": raw["ops_per_s"] / f, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        "max_rel_err": {"value": min(max(loop.errors, default=0.0), ERR_CAP), "unit": "1"},
        "ok_share": {"value": 1.0 - len(loop.failures) / loop.attempted, "unit": "1"},
    }


def traced_run(loop, args, probes, record) -> dict:
    half = args.seconds / 2
    plain, plain_s = loop.measure(half)
    loop.counters.clear()
    stats = dict.fromkeys(tracing.per_layer_metric_names(), 0.0)
    if isinstance(loop.w, workloads.ColdCli):
        loop.ctx.trace_spans = loop.ctx.workdir / "child-spans.npz"
        traced, traced_s = loop.measure(half)
        children = loop.ctx.child_traces
        for (names, spans, counters), importtime in children:
            add(stats, tracing.layer_stats(names, spans))
            add(stats, counters)
            add(stats, tracing.parse_importtime(importtime))
        names, spans = tracing.concat([(names, spans) for (names, spans, _), _ in children])
    else:
        # the process imports once: take the median set-up probe's report
        imports = sorted((tracing.parse_importtime(p[1]) for p in probes), key=lambda d: d["import.total_ms"])
        add(stats, imports[len(imports) // 2])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_s = loop.measure(half, tracer=tracer)
        finally:
            tracer.uninstall()
        names, spans = tracer.names, tracer.arrays()
        add(stats, tracing.layer_stats(names, spans))
        add(stats, tracer.counters)
    add(stats, loop.counters)
    points = stats["analytic.points_out"]
    stats["specfun.calls_per_point"] = stats["specfun.scalar_calls"] / points if points else 0.0
    cli_s = stats["cli.self_ms"] / 1e3
    stats["cli.write_mb_per_s"] = stats["cli.bytes_written"] / 1e6 / cli_s if cli_s else 0.0
    stats["trace.overhead_ratio"] = (len(plain) / plain_s) / (len(traced) / traced_s)
    shares = {layer: stats[f"{layer}.self_ms"] for layer in tracing.LAYERS}
    total = sum(shares.values()) or 1.0
    top = max(shares, key=shares.get)
    stats["trace.predicted_self_share"] = sum(shares[l] for l in loop.w.predicted) / total
    spans_path = OUT / f"spans-{loop.w.name}.npz"
    tracing.save(spans_path, names, spans, stats)
    record["layers"] = {
        "self_share": {layer: shares[layer] / total for layer in tracing.LAYERS},
        "largest": top,
        "predicted": list(loop.w.predicted),
        "prediction_met": top in loop.w.predicted,
        "spans_file": str(spans_path.relative_to(workloads.ROOT)),
    }
    record["samples"] = {"traced_ops": len(traced), "untraced_ops": len(plain), "spans": len(spans["name"])}
    return {name: {"value": value, "unit": tracing.unit(name)} for name, value in stats.items()}


def add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0.0) + value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package_dir = workloads.SRC / "catenoid_dirac"
    if not (package_dir / "__init__.py").is_file():
        fail(f"no package source at {package_dir}; run from a source checkout")
    sys.path.insert(0, str(workloads.SRC))
    import catenoid_dirac

    if Path(catenoid_dirac.__file__).parent != package_dir:
        fail(f"catenoid_dirac was imported from {catenoid_dirac.__file__}, not this checkout")
    workload = workloads.WORKLOADS[args.workload]()

    speed = Speed()
    probes = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        probes.append(setup_probe(workload.modules, importtime=bool(args.trace)))
    setup_s = statistics.median(p[0] for p in probes)
    for module in workload.modules:
        workloads.package(module)

    OUT.mkdir(exist_ok=True)
    workdir = workloads.fresh_dir(OUT / f"work-{args.workload}-{os.getpid()}")
    record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                    "env": environment(args.seed)}
    try:
        loop = Loop(workload, np.random.default_rng(args.seed), workdir, speed)
        for op in workload.warm_ops(np.random.default_rng(args.seed + 1)):
            workload.run(op, loop.ctx)
        if args.trace:
            metrics = traced_run(loop, args, probes, record)
        else:
            metrics = untraced_run(loop, args, setup_s, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({
        "max_rel_err_uncapped": max(loop.errors, default=0.0),
        "errors_compared": len(loop.errors),
        "failures": loop.failures[:20],
    })
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not loop.failures and bool(loop.errors),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
