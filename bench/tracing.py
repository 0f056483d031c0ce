"""Span tracing of the catenoid_dirac modules, installed from outside.

``Tracer.install`` wraps every function named in each module's ``__all__``
(plus ``cli.main``) and re-binds the wrapper wherever another package module
imported the function by name, so nested calls become child spans.  Nothing
under ``src/`` is edited; ``uninstall`` restores the original bindings.

Spans live in compact in-memory arrays (name, start, end, parent, op id,
raised flag, outermost-in-layer flag) and are written out once, when the run
ends.  Counters are recorded at the same call boundaries, so ratios such as
special-function calls per closed-form output point are measured where the
work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from array import array

import numpy as np

# Layers: the package modules, plus "import" (interpreter start-up of them),
# which comes from ``-X importtime`` rather than from spans.
MODULES = ("geometry", "potentials", "susy", "specfun", "analytic", "numeric", "cli")
LAYERS = ("import",) + MODULES
LAYER_FIELDS = ("calls", "busy_ms", "self_ms", "errors")

EXTRA_METRICS = (
    "import.total_ms",
    "import.numpy_ms",
    "import.scipy_ms",
    "import.catenoid_dirac_self_ms",
    "numeric.eigensolve_ms",
    "numeric.discretize_ms",
    "numeric.eigenpairs",
    "numeric.grid_points",
    "analytic.points_out",
    "analytic.norm_calls",
    "specfun.scalar_calls",
    "specfun.calls_per_point",
    "cli.bytes_written",
    "cli.rows_written",
    "cli.write_mb_per_s",
    "trace.overhead_ratio",
    "trace.predicted_self_share",
)


def per_layer_metric_names() -> list[str]:
    names = [f"{layer}.{field}" for layer in LAYERS for field in LAYER_FIELDS]
    return names + list(EXTRA_METRICS)


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("ratio", "share", "per_point")):
        return "1"
    return "count"


SPAN_FIELDS = ("name", "start", "end", "parent", "op", "raised", "outer")
SCALAR_SPECFUN = {"kummer_m", "parabolic_cylinder_d", "log_gamma", "reciprocal_gamma"}
DISCRETIZE = {"numeric.discretize", "numeric.discretize_sturm_liouville"}


def _points(result) -> int:
    """Number of sampled values a closed-form call handed back."""
    if isinstance(result, np.ndarray):
        return int(result.size)
    if isinstance(result, tuple):
        return sum(_points(r) for r in result)
    values = getattr(result, "values", None)
    return int(np.size(values)) if isinstance(values, np.ndarray) else 0


class Tracer:
    """Records spans and boundary counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.outer = array("b")
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {m: 0 for m in MODULES}
        self._saved: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _boundary_counts(self, qual, func_name, layer, parent_layer, bound, result):
        if qual == "numeric.eigen_tridiagonal":
            self.count("numeric.eigenpairs", len(result.eigenvalues))
        elif qual in DISCRETIZE:
            self.count("numeric.grid_points", bound.arguments["grid"].count)
        elif layer == "analytic":
            if parent_layer != "analytic":
                self.count("analytic.points_out", _points(result))
            if bound is not None and bound.arguments.get("normalize", False):
                self.count("analytic.norm_calls")
        elif layer == "specfun" and func_name in SCALAR_SPECFUN and parent_layer != "specfun":
            self.count("specfun.scalar_calls")

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, func):
        qual = f"{layer}.{func.__name__}"
        if qual not in self._name_id:
            self._name_id[qual] = len(self.names)
            self.names.append(qual)
            self._layer_of.append(layer)
        nid = self._name_id[qual]
        sig = inspect.signature(func)
        needs_args = "normalize" in sig.parameters or qual in DISCRETIZE
        clock = time.perf_counter_ns
        stack, depth, layer_of = self._stack, self._depth, self._layer_of

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            parent_layer = layer_of[self.name[parent]] if parent >= 0 else None
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.outer.append(depth[layer] == 0)
            self.raised.append(0)
            self.end.append(0)
            depth[layer] += 1
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                depth[layer] -= 1
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            self._boundary_counts(qual, func.__name__, layer, parent_layer, bound, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"catenoid_dirac.{m}") for m in MODULES}
        originals = {}
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", []))
            if layer == "cli":
                names.append("main")
            for n in names:
                obj = getattr(mod, n)
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(layer, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key)) for key in SPAN_FIELDS}

    def save(self, path) -> None:
        save(path, self.names, self.arrays(), self.counters)


def save(path, names: list[str], spans: dict[str, np.ndarray], counters: dict[str, float]) -> None:
    np.savez(
        path,
        names=np.array(names, dtype=str),
        counter_keys=np.array(list(counters), dtype=str),
        counter_values=np.array(list(counters.values()), dtype=float),
        **spans,
    )


def load(path) -> tuple[list[str], dict[str, np.ndarray], dict[str, float]]:
    """(names, span arrays, counters) as written by ``save``."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        spans = {key: data[key] for key in SPAN_FIELDS}
        counters = dict(zip(map(str, data["counter_keys"]), map(float, data["counter_values"])))
    return names, spans, counters


def concat(traces: list[tuple[list[str], dict[str, np.ndarray]]]) -> tuple[list[str], dict[str, np.ndarray]]:
    """Join the spans of several processes.  Every traced process wraps the
    same functions in the same order, so they share one name table."""
    names = traces[0][0] if traces else []
    if any(n != names for n, _ in traces):
        raise ValueError("traced processes disagree on the span name table")
    parts = {key: [np.zeros(0, dtype=np.int64)] for key in SPAN_FIELDS}
    offset = 0
    for _, spans in traces:
        for key in SPAN_FIELDS:
            col = spans[key]
            parts[key].append(np.where(col >= 0, col + offset, -1) if key == "parent" else col)
        offset += len(spans["name"])
    return names, {key: np.concatenate(cols) for key, cols in parts.items()}


def layer_stats(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-module calls, busy time (outermost spans of the module), self time
    (span time not covered by direct child spans) and raised calls."""
    out = {f"{m}.{f}": 0.0 for m in MODULES for f in LAYER_FIELDS}
    n = len(spans["name"])
    if n == 0:
        return out
    dur = (spans["end"] - spans["start"]).astype(float) / 1e6
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ms = dur - child
    layer_of = np.array([names[i].split(".")[0] for i in spans["name"]])
    for m in MODULES:
        sel = layer_of == m
        out[f"{m}.calls"] = float(sel.sum())
        out[f"{m}.busy_ms"] = float(dur[sel & (spans["outer"] == 1)].sum())
        out[f"{m}.self_ms"] = float(self_ms[sel].sum())
        out[f"{m}.errors"] = float(spans["raised"][sel].sum())
    qual = np.array(names)[spans["name"]]
    out["numeric.eigensolve_ms"] = float(dur[qual == "numeric.eigen_tridiagonal"].sum())
    out["numeric.discretize_ms"] = float(dur[np.isin(qual, list(DISCRETIZE))].sum())
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """import.* metrics from ``python -X importtime`` output.

    total: cumulative time of the top-level catenoid_dirac imports (numpy
    and scipy included); numpy, scipy and catenoid_dirac_self: the summed
    own time of each family's modules, which never overlap.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            own, cumulative, indent, name = m.groups()
            rows.append((int(own) / 1000.0, int(cumulative) / 1000.0, len(indent), name.split(".")[0]))

    def own(family):
        return sum(r[0] for r in rows if r[3] == family)

    total = sum(r[1] for r in rows if r[2] == 1 and r[3] == "catenoid_dirac")
    return {
        "import.calls": float(sum(1 for r in rows if r[3] == "catenoid_dirac")),
        "import.busy_ms": total,
        "import.self_ms": total,
        "import.errors": 0.0,
        "import.total_ms": total,
        "import.numpy_ms": own("numpy"),
        "import.scipy_ms": own("scipy"),
        "import.catenoid_dirac_self_ms": own("catenoid_dirac"),
    }
