import ctypes
import importlib.util
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catenoid_dirac import _lapack, cli, numeric
from catenoid_dirac.analytic import constant_case_rspace_potential
from catenoid_dirac.geometry import CatenoidParams
from catenoid_dirac.numeric import (
    R_DELTA,
    SPECTRUM_POINTS,
    X_DELTA,
    Grid,
    TridiagonalOperator,
    discretize,
    discretize_sturm_liouville,
    eigen_tridiagonal,
    first_derivative,
    second_derivative,
    trapezoid_norm,
)
from catenoid_dirac.potentials import partner_potentials_from_W, scarf_form_pdfv
from fd_oracles import count_features, eigenvectors, ode_residual

rng = np.random.default_rng(7)


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)

    def test_ordering(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 100)

    def test_spacing(self):
        g = Grid(0.0, 1.0, 101)
        assert abs(g.h - 0.01) < 1e-15

    @pytest.mark.parametrize("lo, hi, count", [
        (-math.inf, 1.0, 50),
        (0.0, math.inf, 50),
        (math.nan, 1.0, 50),
        (0.0, 1.0, 50.0),
        (0.0, 1.0, 50.5),
    ], ids=["inf_min", "inf_max", "nan_min", "float_count", "fractional_count"])
    def test_rejects_nonfinite_ends_and_noninteger_count(self, lo, hi, count):
        with pytest.raises(ValueError, match="finite|integer"):
            Grid(lo, hi, count)

    def test_accepts_numpy_integer_count(self):
        assert Grid(0.0, 1.0, np.int64(101)).h == Grid(0.0, 1.0, 101).h


class TestDiscretize:
    def test_box_levels(self):
        g = Grid(0.0, math.pi, 4001)
        vals = eigen_tridiagonal(discretize(lambda x: np.zeros_like(x), g), 3, grid=g).eigenvalues
        assert np.allclose(vals, [1.0, 4.0, 9.0], rtol=2e-3)

    def test_harmonic_levels(self):
        g = Grid(-10.0, 10.0, 4001)
        vals = eigen_tridiagonal(discretize(lambda x: x * x, g), 4, grid=g).eigenvalues
        assert np.allclose(vals, [1.0, 3.0, 5.0, 7.0], atol=1e-3)

    def test_rejects_nonfinite_potential(self):
        g = Grid(-1.0, 1.0, 101)
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            discretize(lambda x: 1.0 / x, g)

    def test_sturm_liouville_reduces_to_plain(self):
        g = Grid(-3.0, 3.0, 501)
        op1 = discretize(lambda x: x * x, g)
        op2 = discretize_sturm_liouville(lambda x: np.ones_like(x), lambda x: x * x, g)
        assert np.max(np.abs(op1.diagonal - op2.diagonal)) < 1e-10
        assert np.max(np.abs(op1.offdiagonal - op2.offdiagonal)) < 1e-10


class TestEigenTridiagonal:
    def test_2x2_diagonal(self):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        vals = eigen_tridiagonal(op, 2).eigenvalues
        assert np.allclose(vals, [1.0, 3.0])

    def test_2x2_coupled(self):
        a, b = 2.0, 0.7
        op = TridiagonalOperator(np.array([a, a]), np.array([b]))
        vals = eigen_tridiagonal(op, 2).eigenvalues
        assert np.allclose(vals, [a - b, a + b])

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_rejects_k_out_of_range(self, k):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\]"):
            eigen_tridiagonal(op, k)

    @pytest.mark.parametrize("k", [2.0, 2.5, True, np.True_])
    def test_rejects_k_that_is_not_an_integer(self, k):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="k must be an integer"):
            eigen_tridiagonal(op, k)

    def test_accepts_numpy_integer_k(self):
        op = TridiagonalOperator(np.array([1.0, 3.0]), np.array([0.0]))
        assert np.array_equal(eigen_tridiagonal(op, np.int64(2)).eigenvalues, [1.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "offdiagonal"])
    def test_rejects_non_finite_entries(self, where, bad):
        d, e = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])
        (d if where == "diagonal" else e)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            eigen_tridiagonal(TridiagonalOperator(d, e), 2)

    def test_rejects_offdiagonal_of_diagonal_length(self):
        with pytest.raises(ValueError, match="off-diagonal must be one shorter than diagonal"):
            TridiagonalOperator(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("grid", [None, Grid(0.0, 1.5, 16)], ids=["no_grid", "grid"])
    def test_1x1_operator(self, grid):
        res = eigen_tridiagonal(TridiagonalOperator(np.array([2.5]), np.array([])), 1, grid=grid)
        assert np.array_equal(res.eigenvalues, [2.5])
        assert res.grid is grid

    def test_oscillation_theorem(self):
        g = Grid(-10.0, 10.0, 2001)
        vecs = eigenvectors(discretize(lambda x: x * x, g), 5)
        for k in range(5):
            changes, _ = count_features(vecs[:, k])
            assert changes == k

    def test_convergence_ratio(self):
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        e = {}
        for npts in (2001, 4001):
            g = Grid(-10.0, 10.0, npts)
            e[npts] = eigen_tridiagonal(discretize(lambda x: x * x, g), 5, grid=g).eigenvalues
        ratio = np.abs(e[2001] - exact) / np.abs(e[4001] - exact)
        assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


@pytest.fixture
def fresh_lapack():
    """Clears the process-wide LAPACK handle before and after the test."""
    _lapack.handle.cache_clear()
    yield
    _lapack.handle.cache_clear()


# the INFO arguments of dstebz, which _lapack passes as a ctypes int by
# reference, and of dlaebz, which it passes as an address, as it does
# dlaebz's AB and NAB
DSTEBZ_INFO, DLAEBZ_INFO, DLAEBZ_AB, DLAEBZ_NAB = 17, 19, 13, 16


def _int_argument(arg):
    """The integer a routine received, as the handle's integer type."""
    return arg._obj if hasattr(arg, "_obj") else _lapack.handle().c_int.from_address(arg)


def _failing(name, fails):
    """The LAPACK routine name that runs and then reports info = -3 when
    fails(args) holds."""
    real = getattr(_lapack.handle(), name)
    info = {"dstebz": DSTEBZ_INFO, "dlaebz": DLAEBZ_INFO}[name]

    def routine(*args):
        real(*args)
        if fails(args):
            _int_argument(args[info]).value = -3

    return routine


def _run_fresh(code: str, path_first: tuple = ()) -> list[str]:
    """The lines that a fresh interpreter prints running code, with
    path_first and then the package's source ahead of the inherited path."""
    src = str(Path(numeric.__file__).parents[1])
    path = os.pathsep.join(filter(None, [*path_first, src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


class TestFlapack:
    def test_reuses_loaded_module(self, monkeypatch, fresh_lapack):
        # the handle opens, once, the file of numpy's LAPACK extension, which
        # import numpy has already mapped
        opened = []
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: opened.append(path) or real(path))
        lapack = _lapack.handle()
        assert _lapack.handle() is lapack
        assert opened == [np.linalg._umath_linalg.__file__]

    def test_missing_routines_name_numpy_version(self, monkeypatch, fresh_lapack):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace())
        message = (rf"numpy {re.escape(np.__version__)}: the LAPACK that .*_umath_linalg.* links exports none of "
                   r"scipy_dstebz_64_, dstebz_64_, dstebz_ \(with dlaebz\)")
        with pytest.raises(ImportError, match=message):
            _lapack.handle()

    def test_scipy_lapack_imported_after_eigensolve_gives_the_same_levels(self):
        # the eigensolve imports no scipy module; scipy.linalg imported
        # later, with a LAPACK of its own, gives the same levels bit for bit
        code = (
            "import sys, numpy as np; from catenoid_dirac import numeric; "
            "op = numeric.TridiagonalOperator(2.0 + np.cos(np.arange(50.0)), np.full(49, -1.0)); "
            "mine = numeric.eigen_tridiagonal(op, 4).eigenvalues; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "import scipy.linalg; "
            "ref = scipy.linalg.eigh_tridiagonal(op.diagonal, op.offdiagonal, eigvals_only=True, "
            "select='i', select_range=(0, 3)); "
            "print(mine.tobytes() == ref.tobytes())"
        )
        assert _run_fresh(code) == ["[]", "True"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task and maps")
    def test_first_eigensolve_maps_no_scipy_file_and_starts_no_thread(self):
        # scipy's folder, as a prefix that also covers a wheel's scipy.libs
        scipy_folder = os.path.realpath(os.path.dirname(importlib.util.find_spec("scipy").origin))
        code = (
            "import os, numpy as np; from catenoid_dirac import numeric; "
            "before = len(os.listdir('/proc/self/task')); "
            # k = n: one dstebz call, so no thread of the package's own
            "op = numeric.TridiagonalOperator(2.0 + np.cos(np.arange(50.0)), np.full(49, -1.0)); "
            "assert len(numeric.eigen_tridiagonal(op, 50).eigenvalues) == 50; "
            "print(len(os.listdir('/proc/self/task')) - before); "
            "mapped = {line.split(maxsplit=5)[-1].strip() for line in open('/proc/self/maps')}; "
            f"print(sorted(path for path in mapped if path.startswith({scipy_folder!r})))"
        )
        assert _run_fresh(code) == ["0", "[]"]

    def test_eigensolve_needs_no_scipy(self, tmp_path):
        # with a scipy that fails to import first on the path, an
        # eigensolving README command writes the bytes it writes here
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("raise ImportError('scipy is not installed')\n")
        argv = ["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "both", "--out"]
        code = ("import sys; from catenoid_dirac.cli import main; "
                f"sys.exit(main({argv + [str(tmp_path / 'fresh.json')]!r}))")
        _run_fresh(code, (str(tmp_path),))
        assert cli.main(argv + [str(tmp_path / "here.json")]) == 0
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()

    def test_lapack_error_raises(self, monkeypatch):
        # a dlaebz info the one dstebz call would not see sends the
        # two-thread bisection back to that call, whose info raises
        failing = SimpleNamespace(**{**vars(_lapack.handle()), "dstebz": _failing("dstebz", lambda args: True),
                                     "dlaebz": _failing("dlaebz", lambda args: True)})
        monkeypatch.setattr(_lapack, "handle", lambda: failing)
        op = TridiagonalOperator(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]))
        with pytest.raises(np.linalg.LinAlgError, match="dstebz failed with info = -3"):
            eigen_tridiagonal(op, 2)

    @pytest.mark.parametrize("thread, jobs", [("calling", (3, 2)), ("helper", (2,))], ids=["calling", "helper"])
    def test_failure_on_either_thread_raises_and_joins(self, monkeypatch, thread, jobs):
        # the search for WU runs on the calling thread (dlaebz job 3), then
        # the calling thread splits the bisection tree and each thread
        # bisects one half (job 2); a call that raises on either thread in
        # either phase reaches the caller
        real = _lapack.handle().dlaebz
        op = discretize(lambda x: x * x, Grid(-10.0, 10.0, 801))
        for job in jobs:
            def dlaebz(*args, job=job):
                on_calling = threading.current_thread() is threading.main_thread()
                if _int_argument(args[0]).value == job and on_calling == (thread == "calling"):
                    raise RuntimeError(f"dlaebz job {job} failed")
                real(*args)

            failing = SimpleNamespace(**{**vars(_lapack.handle()), "dlaebz": dlaebz})
            monkeypatch.setattr(_lapack, "handle", lambda: failing)
            before = threading.active_count()
            with pytest.raises(RuntimeError, match=f"dlaebz job {job} failed"):
                eigen_tridiagonal(op, 4)
            assert threading.active_count() == before


class TestDerivativesAndResidual:
    def test_box_eigenfunction_residual(self):
        g = Grid(0.0, 1.0, 1001)
        f = np.sin(math.pi * g.points)
        res = ode_residual(f, lambda x: np.zeros_like(x), math.pi**2, g)
        assert res < 1e-8

    def test_random_function_large_residual(self):
        g = Grid(0.0, 1.0, 1001)
        f = rng.standard_normal(g.count)
        assert ode_residual(f, lambda x: np.zeros_like(x), 1.0, g) > 1.0

    def test_first_derivative(self):
        g = Grid(0.0, 2.0, 2001)
        d = first_derivative(np.exp(g.points), g.h)
        assert np.max(np.abs(d - np.exp(g.points))) < 1e-10

    def test_second_derivative(self):
        g = Grid(0.0, 2.0, 2001)
        d = second_derivative(np.exp(g.points), g.h)
        assert np.max(np.abs(d - np.exp(g.points))) < 1e-7


class TestNormalize:
    def test_constant(self):
        g = Grid(0.0, 1.0, 1001)
        assert abs(trapezoid_norm(np.ones(g.count), g.points) - 1.0) < 1e-12
        # the weight multiplies the squared values under the integral
        assert abs(trapezoid_norm(np.ones(g.count), g.points, np.full(g.count, 4.0)) - 2.0) < 1e-12

    def test_sine(self):
        g = Grid(0.0, 1.0, 10001)
        assert abs(trapezoid_norm(np.sin(math.pi * g.points), g.points) - math.sqrt(0.5)) < 1e-8

    def test_zero_rejected(self):
        g = Grid(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="norm on the grid is zero"):
            trapezoid_norm(np.zeros(g.count), g.points)
        with pytest.raises(ValueError, match="norm on the grid is zero"):
            trapezoid_norm(np.ones(g.count), g.points, np.zeros(g.count))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_rejected(self, bad):
        # dividing by an infinite norm would turn every finite sample into 0
        g = Grid(0.0, 1.0, 101)
        values = np.ones(g.count)
        values[50] = bad
        with pytest.raises(ValueError, match=f"norm on the grid is {bad}"):
            trapezoid_norm(values, g.points)


class TestCountFeatures:
    def test_sine(self):
        x = np.linspace(0.0, 1.0, 3001)
        changes, maxima = count_features(np.sin(3 * math.pi * x))
        assert (changes, maxima) == (2, 3)

    @pytest.mark.parametrize("f, expected", [
        (np.full(100, 2.5), (0, 1)),
        ([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0], (0, 1)),  # plateau peak
        ([3.0, 3.0, 1.0, 2.0, 2.0], (0, 2)),  # plateaus at both edges
        ([1.0, 2.0, 2.0, 3.0, 1.0], (0, 1)),  # plateau on a slope
        ([1.0, 3.0, np.nan, -3.0, 1.0], ValueError),  # a NaN sample is refused
        ([1.0, 3.0, -np.inf, -3.0, 1.0], ValueError),
    ], ids=["constant", "plateau_peak", "edge_plateaus", "shoulder", "nan_sample", "inf_sample"])
    def test_constant(self, f, expected):
        if expected is ValueError:
            with pytest.raises(ValueError, match="not finite"):
                count_features(np.asarray(f))
        else:
            assert count_features(np.asarray(f)) == expected

    def test_noise_floor(self):
        x = np.linspace(0.0, 1.0, 1001)
        f = np.sin(math.pi * x)
        f[0] = 1e-13
        f[-1] = -1e-13  # tail round-off must not register as a sign change
        changes, _ = count_features(f)
        assert changes == 0


def _cli_operators():
    """The operators that ``spectrum --mode numeric|both`` and the harmonic
    ``susy-check`` eigensolve, built by hand, with their eigenvalue counts,
    and the first two on the finer grids of the benchmark sweep."""
    params = CatenoidParams(1.0)
    ops = {}
    for size in (SPECTRUM_POINTS, 16001, 64001):
        r = Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, size)
        suffix = "" if size == SPECTRUM_POINTS else f"_{size}"
        ops["constant_m3" + suffix] = (discretize_sturm_liouville(
            lambda r: 1.0 - r * r, lambda r: constant_case_rspace_potential(3, r), r
        ), 7)
        x = Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, size)
        ops["scarf_m2" + suffix] = (discretize(lambda x: scarf_form_pdfv(params, 2, x), x), 6)
    u = Grid(-10.0, 10.0, SPECTRUM_POINTS)
    v1, v2 = partner_potentials_from_W(lambda u: u, u.points, dW=np.ones_like)
    ops["harmonic_minus"] = (discretize(lambda _: v1, u), 7)
    ops["harmonic_plus"] = (discretize(lambda _: v2, u), 6)
    return ops


def _bunched_operators():
    """Operators of the benchmark sweep at 64001 points whose levels lie
    bunched at one end of (WL, WU]: the clipped compact operators at m = +-1
    and the Scarf operator at m = 0, R = 1.1, whose lowest levels lie far
    below the others (-1.3e5, and down to -3.9e6 for the Scarf operator)."""
    r = Grid(-1.0 + R_DELTA, 1.0 - R_DELTA, 64001)
    x = Grid(-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA, 64001)
    ops = {f"constant_m{m}_64001": (discretize_sturm_liouville(
        lambda r: 1.0 - r * r, lambda r, m=m: constant_case_rspace_potential(m, r), r
    ), 8) for m in (1, -1)}
    ops["scarf_m0_R1.1_64001"] = (discretize(lambda x: scarf_form_pdfv(CatenoidParams(1.1), 0, x), x), 8)
    return ops


def _random_operators():
    """Seeded matrices that split (zero off-diagonals) and repeat values."""
    ops = {}
    for seed in range(6):
        g = np.random.default_rng(1000 + seed)
        n = int(g.integers(20, 300))
        diag = g.integers(-3, 4, n).astype(float)  # few distinct values
        off = g.choice([0.0, 0.5, -1.0], n - 1)
        if seed % 3 == 0:
            off[:] = 0.0  # diagonal matrix: every eigenvalue repeated
        ops[f"random_{seed}"] = (TridiagonalOperator(diag, off), int(g.integers(1, n + 1)))
    return ops


@pytest.mark.parametrize("op, k", [
    pytest.param(op, k, id=name) for name, (op, k) in {**_cli_operators(), **_random_operators()}.items()
])
def test_eigenvalues_match_vector_path(op, k):
    # eigh_tridiagonal, which also solves for the vectors, is the reference
    # for the levels; the package itself never imports scipy.linalg
    from scipy.linalg import eigh_tridiagonal

    ref, _ = eigh_tridiagonal(op.diagonal, op.offdiagonal, select="i", select_range=(0, k - 1))
    assert np.array_equal(eigen_tridiagonal(op, k).eigenvalues, ref)


@pytest.mark.parametrize("name, levels, V, grid", [
    ("constant_m3", numeric.compact_levels, lambda r: constant_case_rspace_potential(3, r),
     (-1.0 + R_DELTA, 1.0 - R_DELTA)),
    ("scarf_m2", numeric.scarf_levels, lambda x: scarf_form_pdfv(CatenoidParams(1.0), 2, x),
     (-math.pi / 2 + X_DELTA, math.pi / 2 - X_DELTA)),
    ("harmonic_minus", numeric.box_levels, lambda u: u * u - 1.0, (-10.0, 10.0)),
    ("harmonic_plus", numeric.box_levels, lambda u: u * u + 1.0, (-10.0, 10.0)),
], ids=["compact", "scarf", "box_minus", "box_plus"])
def test_level_functions_solve_the_hand_built_operators(name, levels, V, grid):
    # each numeric level function the CLI calls gives, bit for bit, the
    # levels of eigen_tridiagonal on the operator built by hand, on its grid
    op, k = _cli_operators()[name]
    res = levels(V, k)
    assert res.eigenvalues.tobytes() == eigen_tridiagonal(op, k).eigenvalues.tobytes()
    assert res.grid == Grid(*grid, SPECTRUM_POINTS)


def _one_dstebz_call(d, e, k):
    """Levels 1..k from the one dstebz call (index mode, tolerance 0, through
    scipy's f2py wrapper) that eigen_tridiagonal reproduces."""
    from scipy.linalg import lapack

    m, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "E")
    assert info == 0
    return w[:m]


# two copies of Wilkinson's W_11^+ glued by 1e-10: their lowest levels lie
# 1e-10 apart, and so do levels 3 and 4
GLUED_W11 = (np.tile(np.abs(np.arange(-5.0, 6.0)), 2), np.r_[np.ones(10), 1e-10, np.ones(10)])


def _levels_and_route(d, e, k):
    """eigen_tridiagonal's levels and how they were found: "two threads"
    (the split bisection, no dstebz call) or "one call"."""
    calls = []
    real = _lapack.dstebz

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(_lapack, "dstebz", spy):
        levels = eigen_tridiagonal(TridiagonalOperator(d, e), k).eigenvalues
    return levels, {0: "two threads", 1: "one call"}[len(calls)]


def _assert_same_levels(d, e, k):
    levels, route = _levels_and_route(d, e, k)
    assert levels.tobytes() == _one_dstebz_call(d, e, k).tobytes()
    return route


def _threads_and_helper_jobs(monkeypatch, k):
    """The number of threads that eigen_tridiagonal starts for levels 1..k
    of a harmonic operator, which it must solve on two threads, and the
    dlaebz jobs called off the calling thread."""
    real = _lapack.handle().dlaebz
    off_calling, started = [], []

    def dlaebz(*args):
        if threading.current_thread() is not threading.main_thread():
            off_calling.append(_int_argument(args[0]).value)
        real(*args)

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    spying = SimpleNamespace(**{**vars(_lapack.handle()), "dlaebz": dlaebz})
    monkeypatch.setattr(_lapack, "handle", lambda: spying)
    monkeypatch.setattr(threading, "Thread", Thread)
    op = discretize(lambda x: x * x, Grid(-10.0, 10.0, 801))
    assert _assert_same_levels(op.diagonal, op.offdiagonal, k) == "two threads"
    return len(started), off_calling


@st.composite
def _tridiagonals(draw, max_n=40):
    """A random symmetric tridiagonal (d, e) of size 2..max_n and a k in
    [1, n]; zero off-diagonal entries, which split the matrix, come up too."""
    n = draw(st.integers(2, max_n))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    entries = st.floats(-100.0, 100.0)
    d = draw(arrays(float, n, elements=entries)) * scale
    e = draw(arrays(float, n - 1, elements=entries)) * scale
    return d, e, draw(st.integers(1, n))


@st.composite
def _clusters(draw):
    """Near-degenerate levels: copies of Wilkinson's W_(2p+1)^+, whose levels
    come in close pairs, glued by small couplings, and repeated diagonal
    values coupled weakly; k is any level count below n."""
    if draw(st.booleans()):
        p = draw(st.integers(2, 7))
        block = np.abs(np.arange(-p, p + 1.0))
        copies = draw(st.integers(1, 4))
        d = np.tile(block, copies)
        e = np.ones(len(d) - 1)
        glue = draw(arrays(float, copies - 1, elements=st.sampled_from([1e-14, 1e-10, 1e-6, 1e-2])))
        e[len(block) - 1 :: len(block)] = glue
    else:
        values = draw(arrays(float, draw(st.integers(2, 20)), elements=st.sampled_from([0.0, 1.0, 2.0])))
        d = np.repeat(values, 2)
        coupling = st.sampled_from([1e-15, 1e-12, 1e-8, 1e-4, 1.0])
        e = draw(arrays(float, len(d) - 1, elements=coupling))
    return d, e, draw(st.integers(1, len(d) - 1))


class TestSameLevelsAsOneDstebzCall:
    """eigen_tridiagonal's levels are bit for bit those of one dstebz call."""

    @settings(max_examples=300, deadline=None)
    @given(_tridiagonals())
    def test_random_tridiagonals(self, case):
        _assert_same_levels(*case)

    @settings(max_examples=300, deadline=None)
    @given(_clusters())
    def test_near_degenerate_clusters(self, case):
        _assert_same_levels(*case)

    @pytest.mark.parametrize("d, e, k, route", [
        ([2.0, 1.0, 3.0, 0.5], [0.3, -0.7, 0.2], 2, "two threads"),
        # W_5^+: an interval narrows to ulp*tnorm exactly, so the bisection
        # needs the tolerance dstebz recomputes from the widened bounds
        ([2.0, 1.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0], 4, "two threads"),
        ([2.0, 1.0, 3.0, 0.5], [0.3, 0.0, 0.2], 2, "one call"),  # a zero off-diagonal splits the matrix
        ([2.0, 1.0, 3.0, 0.5], [0.3, -0.7, 0.2], 4, "one call"),  # k = n: dstebz takes every level
        # the lowest levels of GLUED_W11 lie 1e-10 apart, so the search for
        # count 1 ends at count 2 and dstebz discards a level
        (*GLUED_W11, 1, "one call"),
        # (WL, WU] spans a few ulps; it is bisected as the one call does
        ([-1.0, -1.0], [2.0**-51], 1, "two threads"),
        # at k = 2 those two are levels j and j + 1, which the calling thread
        # steps until they part
        (*GLUED_W11, 2, "two threads"),
        (*GLUED_W11, 4, "two threads"),
    ], ids=["quarters", "tolerance", "split", "all_levels", "discarded_level", "narrow_quarters",
            "close_pair_k2", "close_pair_k4"])
    def test_routes(self, d, e, k, route):
        assert _assert_same_levels(np.asarray(d, dtype=float), np.asarray(e, dtype=float), k) == route

    @settings(max_examples=200, deadline=None)
    @given(_tridiagonals(max_n=80), st.integers(-2, 2))
    def test_about_half_the_levels(self, case, offset):
        # many levels: both halves hold many intervals
        d, e, _ = case
        _assert_same_levels(d, e, min(max(len(d) // 2 + offset, 1), len(d)))

    def test_split_solve_starts_one_thread_and_searches_on_the_calling_one(self, monkeypatch):
        # the only thread a two-thread solve starts is the helper, which
        # bisects the upper half with one job-2 call; no search (dlaebz job
        # 3) runs on it
        assert _threads_and_helper_jobs(monkeypatch, 7) == (1, [2])

    def test_bisecting_threads_share_no_dlaebz_arrays(self, monkeypatch):
        # each thread passes dlaebz an AB and a NAB of its own.  The two
        # bisecting calls, the only ones made once the helper has started,
        # wait for each other, so the arrays of both threads are alive at
        # once and no address freed by one can come back to the other
        real = _lapack.handle().dlaebz
        before, both, addresses = threading.active_count(), threading.Barrier(2, timeout=60), {}

        def dlaebz(*args):
            if threading.active_count() > before:
                both.wait()
            addresses.setdefault(threading.get_ident(), set()).update((args[DLAEBZ_AB], args[DLAEBZ_NAB]))
            real(*args)

        spying = SimpleNamespace(**{**vars(_lapack.handle()), "dlaebz": dlaebz})
        monkeypatch.setattr(_lapack, "handle", lambda: spying)
        op = discretize(lambda x: x * x, Grid(-10.0, 10.0, 801))
        assert _assert_same_levels(op.diagonal, op.offdiagonal, 7) == "two threads"
        calling, helper = addresses.values()
        assert calling.isdisjoint(helper)

    def test_one_level_starts_no_thread(self, monkeypatch):
        # at k = 1 the lower half holds no level and the calling thread
        # bisects the upper one alone
        assert _threads_and_helper_jobs(monkeypatch, 1) == (0, [])

    def test_overflowing_gershgorin_bounds_make_the_one_call(self):
        # the squares of these entries overflow, so the bisection's Gershgorin
        # bounds are not finite; the one call fails as scipy's does
        from scipy.linalg import eigh_tridiagonal

        d, e = np.full(6, 1e308), np.full(5, -9e307)
        calls = []
        real = _lapack.dstebz

        def spy(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(_lapack, "dstebz", spy):
            with pytest.raises(np.linalg.LinAlgError, match="dstebz failed with info = 4"):
                eigen_tridiagonal(TridiagonalOperator(d, e), 3)
            with pytest.raises(np.linalg.LinAlgError, match="info=4"):
                eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 2))
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_split_test_makes_the_one_call_without_a_warning(self):
        # the products of neighbouring diagonal entries near 1e158 overflow
        # in the split test, as in dstebz's own, which splits the matrix
        # there: the levels are that call's, and no overflow is reported
        # (the Scarf operator of spectrum --R 1e150 --lambda 1 has such entries)
        d = 1e158 * (2.0 + np.cos(np.arange(40.0)))
        assert _assert_same_levels(d, np.full(39, -1.0), 5) == "one call"

    @pytest.mark.parametrize("budget", [0, 2, 5])
    def test_exhausted_budget_makes_the_one_call(self, monkeypatch, budget):
        # with fewer bisection iterations than the one call has, an interval
        # is left unconverged and that call runs instead; the search for WU,
        # whose budget is asked for first, keeps its own
        real, budgets = _lapack._iterations, []

        def iterations(width, pivmin):
            budgets.append(real(width, pivmin) if not budgets else budget)
            return budgets[-1]

        monkeypatch.setattr(_lapack, "_iterations", iterations)
        op = discretize(lambda x: x * x, Grid(-10.0, 10.0, 801))
        assert _assert_same_levels(op.diagonal, op.offdiagonal, 4) == "one call"
        assert len(budgets) == 2

    @pytest.mark.parametrize("name", ["constant_m3_64001", "scarf_m2_64001", *_bunched_operators()])
    def test_clipped_64001_point_operators(self, name):
        op, k = {**_cli_operators(), **_bunched_operators()}[name]
        assert _assert_same_levels(op.diagonal, op.offdiagonal, k) == "two threads"

    @pytest.mark.parametrize("name", ["constant_m3_64001", "scarf_m2_64001"])
    def test_upper_end_search_takes_few_counts(self, monkeypatch, name):
        # the search for WU runs on the calling thread (dlaebz job 3); each
        # of its calls is run here one step, so one Sturm count, at a time.
        # The one call's search takes 28 and 26 counts on these operators
        op, k = _cli_operators()[name]
        real = _lapack.handle().dlaebz
        counts = []

        def dlaebz(*args):
            if threading.current_thread() is not threading.main_thread() or _int_argument(args[0]).value != 3:
                return real(*args)
            nitmax = _int_argument(args[1])
            budget, nitmax.value = nitmax.value, 1
            for _ in range(budget):
                real(*args)
                counts.append(1)
                if _int_argument(args[DLAEBZ_INFO]).value == 0:
                    break
            nitmax.value = budget

        counting = SimpleNamespace(**{**vars(_lapack.handle()), "dlaebz": dlaebz})
        monkeypatch.setattr(_lapack, "handle", lambda: counting)
        assert _assert_same_levels(op.diagonal, op.offdiagonal, k) == "two threads"
        assert 1 <= len(counts) <= 10

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "both"],
        ["susy-check", "--mode", "catenoid"],
        ["susy-check", "--mode", "harmonic"],
    ], ids=" ".join)
    def test_readme_command_operators(self, tmp_path, argv):
        solved = []
        real = numeric.eigen_tridiagonal

        def record(op, k, grid=None):
            solved.append((op, k))
            return real(op, k, grid=grid)

        with mock.patch.object(numeric, "eigen_tridiagonal", record):
            assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert solved
        for op, k in solved:
            assert _assert_same_levels(op.diagonal, op.offdiagonal, k) == "two threads"
