"""Self-tests of the benchmark itself (not of the package).

    python3 -m pytest bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def inputs(name: str, seed: int, cycles: int = 3) -> list:
    w = workloads.WORKLOADS[name]()
    rng = np.random.default_rng(seed)
    return [
        (op.kind, {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in op.params.items()}, op.sample)
        for i in range(cycles)
        for op in w.cycle(rng, i)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    assert inputs(name, 7) == inputs(name, 7)
    assert inputs(name, 7) != inputs(name, 8)


def same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and np.isnan(a):
        return np.isnan(b)
    return a == b


def written(ctx) -> dict[str, str]:
    return {p.name: workloads.sha256(p) for p in sorted((ctx.workdir / "op").iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    w = workloads.WORKLOADS[name]()
    ctx = workloads.Context(workdir=tmp_path)
    ops = w.cycle(np.random.default_rng(3))
    if name == "cold-cli":
        ops = [op for op in ops if op.kind == "spectrum"]
    plain, traced = [], []
    for op in ops:
        result = w.run(op, ctx)
        plain.append(written(ctx) if name in ("cold-cli", "export") else result)
    tracer = tracing.Tracer()
    if name == "cold-cli":
        ctx.trace_spans = tmp_path / "spans.npz"
    else:
        tracer.install()
    try:
        for op in ops:
            result = w.run(op, ctx)
            traced.append(written(ctx) if name in ("cold-cli", "export") else result)
    finally:
        tracer.uninstall()
    assert same(plain, traced)
    if name == "cold-cli":
        names, spans, _ = tracing.load(ctx.trace_spans)
        assert "cli.main" in names and len(spans["name"]) > 1
    else:
        assert len(tracer.name) > 0


def test_corrupted_digest_fails_affected_ops(tmp_path):
    digests = workloads.load_digests()["export"]
    digests["wavefunction-lambda"]["wf_l.csv"] = "0" * 64
    loop = run.Loop(workloads.Export(digests=digests), np.random.default_rng(5), tmp_path)
    loop.measure(0.0)  # one whole cycle
    assert loop.attempted == len(workloads.Export.kinds)
    assert len(loop.failures) == 1 and "wavefunction-lambda" in loop.failures[0]


def bench_result(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench_result(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:  # timings are the raw ones scaled by the run's speed factor
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        f = record["speed_factor"]
        for key, raw in record["raw"].items():
            scaled = raw / f if key == "ops_per_s" else raw * f
            assert result["metrics"][key]["value"] == pytest.approx(scaled)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_result(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
