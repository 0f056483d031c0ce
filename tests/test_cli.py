import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catenoid_dirac
from catenoid_dirac import _csv_rows, cli
from catenoid_dirac._csv_rows import E_MAX, E_MIN, csv_text
from catenoid_dirac.cli import (
    CSV_UNIT_ROWS,
    _check_inputs,
    _write_csv,
    build_parser,
    main,
)
from catenoid_dirac.numeric import SPECTRUM_POINTS


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def read_manifest(path):
    return json.loads(Path(str(path) + ".manifest.json").read_text())


class TestPotentials:
    def test_row_count_and_values(self, tmp_path):
        out = tmp_path / "pot.csv"
        rc = main(["potentials", "--R", "1", "--m", "1", "--umin", "-10",
                   "--umax", "10", "--samples", "1001", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out)
        assert header == ["u", "V_eff1", "V_eff2", "W"]
        assert data.shape == (1001, 4)
        row0 = data[np.argmin(np.abs(data[:, 0]))]
        assert abs(row0[1] - 1.0) < 1e-15  # V_eff1(0) for m=1, R=1

    def test_pdfv_column_and_manifest(self, tmp_path):
        out = tmp_path / "pot.csv"
        main(["potentials", "--m", "2", "--lambda", "1.5", "--out", str(out)])
        header, _ = read_csv(out)
        assert header[-1] == "U_eff1"
        assert read_manifest(out)["parameters"]["lam"] == 1.5

    def test_invalid_radius(self, tmp_path):
        rc = main(["potentials", "--R", "-1", "--out", str(tmp_path / "x.csv")])
        assert rc != 0


class TestSpectrum:
    def test_analytic_record_count(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--m", "3", "--n", "3", "--mode", "analytic",
                   "--out", str(out)])
        assert rc == 0
        levels = json.loads(out.read_text())["levels"]
        assert len(levels) == 4
        assert all("valid" in r for r in levels)

    def test_both_mode_pdfv_discrepancy(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--m", "2", "--lambda", "1", "--n", "3",
                   "--mode", "both", "--out", str(out)])
        assert rc == 0
        levels = json.loads(out.read_text())["levels"]
        assert max(r["relative_discrepancy"] for r in levels) < 1e-3

    @pytest.mark.parametrize("extra, domain", [
        (["--lambda", "1", "--m", "2"], "Scarf x-grid [-pi/2 + 0.0001, pi/2 - 0.0001], 4001 points"),
        (["--m", "3"], "compact coordinate, 4001 points"),
    ], ids=["sec2_velocity", "constant_velocity"])
    def test_manifest_names_numeric_grid(self, tmp_path, extra, domain):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--n", "1", "--mode", "both", *extra, "--out", str(out)]) == 0
        assert read_manifest(out)["truncation"]["numeric_domain"] == domain

    def test_invalid_parameters_flagged(self, tmp_path):
        out = tmp_path / "spec.json"
        main(["spectrum", "--m", "-2", "--n", "1", "--mode", "analytic",
              "--out", str(out)])
        levels = json.loads(out.read_text())["levels"]
        rec = levels[1]
        assert rec["valid"] is False
        assert "sqrt(-1)" in rec["reason"]

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["spectrum", "--mode", "bogus", "--out", str(tmp_path / "s.json")])

    def test_negative_velocity_rejected(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--vf", "-1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_level_rejected(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--n", "-1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_numeric_levels_flagged(self, tmp_path):
        # the compact operator has eps^2 < 0 at n = 0 and 1 for m = 1
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--m", "1", "--mode", "both", "--n", "2",
                     "--out", str(out)]) == 0
        levels = json.loads(out.read_text())["levels"]
        assert [math.isnan(r["E_numeric"]) for r in levels] == [True, True, False]
        flags = [f for f in read_manifest(out)["validity_flags"] if "numeric eps^2" in f]
        assert [f.split(":")[0] for f in flags] == ["n=0", "n=1"]
        assert all(f.endswith("is negative") for f in flags)

    def test_csv_text(self, tmp_path):
        # every analytic level is invalid at m = 1: the reason string and the
        # missing E_analytic become nan cells, the valid flag 0
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--m", "1", "--n", "2", "--mode", "both",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_bytes().decode().split("\n")
        assert lines[:3] == ["E_numeric,m,n,reason,valid", "nan,1,0,nan,0", "nan,1,1,nan,0"]
        assert lines[4:] == [""]
        e_numeric, rest = lines[3].split(",", 1)
        assert rest == "1,2,nan,0"
        assert e_numeric == f"{float(e_numeric):.17g}"
        assert float(e_numeric) == pytest.approx(1.5632007904522918, rel=1e-9)

    @pytest.mark.parametrize("argv, expected", [
        # analytic 5.345 at n = 2 sits closest to numeric 5.481 at n = 3
        (["--R", "0.5", "--m", "1", "--lambda", "1", "--n", "3"],
         ["n=1: closest numeric level is n=2", "n=2: closest numeric level is n=3"]),
        (["--R", "1", "--m", "3", "--n", "4"], []),
        # the one numeric level has eps^2 < 0: no level to be closest
        (["--R", "1.7", "--m", "-3", "--lambda", "1", "--n", "0"], []),
    ], ids=["shifted", "aligned", "no_numeric_level"])
    def test_index_mismatch_flagged(self, tmp_path, argv, expected):
        out = tmp_path / "spec.json"
        assert main(["spectrum", *argv, "--mode", "both", "--out", str(out)]) == 0
        flags = [f for f in read_manifest(out)["validity_flags"] if "closest" in f]
        assert flags == expected


    @pytest.mark.parametrize("argv, expected", [
        # the n = 0 level of this run reads -2.19e7
        (["--R", "0.5", "--m", "1", "--lambda", "1", "--mode", "both"], [("-", "-0.25")]),
        (["--R", "0.8", "--m", "1", "--lambda", "1", "--mode", "numeric"], [("+", "-0.2")]),
        (["--R", "1", "--m", "2", "--lambda", "1", "--mode", "both"], []),
        (["--R", "0.5", "--m", "1", "--lambda", "1", "--mode", "analytic"], []),
    ], ids=["minus_end", "plus_end", "both_ends_positive", "analytic_only"])
    def test_oscillatory_scarf_end_flagged(self, tmp_path, argv, expected):
        out = tmp_path / "spec.json"
        assert main(["spectrum", *argv, "--n", "3", "--out", str(out)]) == 0
        flags = [f for f in read_manifest(out)["validity_flags"] if "kappa" in f]
        assert [(f.split("x = ")[1][0], f.split("kappa = ")[1].split()[0]) for f in flags] == expected
        assert all("kappa/X_DELTA^2" in f for f in flags)

    @pytest.mark.parametrize("R, reason", [
        ("2", "quartic discriminant -7 is negative"),
        ("1", "quartic root t^2 = -0.381966 is not positive"),
    ], ids=["discriminant", "root"])
    def test_invalid_scarf_parameters_flag_every_level(self, tmp_path, R, reason):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--lambda", "1", "--m", "0", "--R", R, "--mode", "both",
                     "--out", str(out)]) == 0
        levels = json.loads(out.read_text())["levels"]
        assert [(r["valid"], r["reason"]) for r in levels] == [(False, reason)] * 4
        assert [f"n={n}: {reason}" for n in range(4)] == read_manifest(out)["validity_flags"][-4:]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [["--vf", "1e300"], ["--lambda", "1e300"]], ids=["vf", "lambda"])
    def test_overflowing_level_flagged_invalid(self, tmp_path, scale):
        # v_F/R overflows: every level is infinite, and none is written as valid
        out = tmp_path / "big.json"
        assert main(["spectrum", "--m", "3", *scale, "--R", "1e-100", "--mode", "both",
                     "--out", str(out)]) == 0
        levels = json.loads(out.read_text())["levels"]
        assert [(r["valid"], r["reason"], r["E_numeric"]) for r in levels] == \
            [(False, "|E| = inf is not finite", math.inf)] * 4
        assert not any("relative_discrepancy" in r for r in levels)
        assert read_manifest(out)["validity_flags"] == \
            [f"n={n}: E_numeric = inf is not finite" for n in range(4)] + \
            [f"n={n}: |E| = inf is not finite" for n in range(4)]


class TestWavefunction:
    def test_ground_state_profile(self, tmp_path):
        out = tmp_path / "wf.csv"
        rc = main(["wavefunction", "--m", "3", "--n", "0", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        sign = np.sign(data[:, 1])
        nz = sign[sign != 0]
        assert np.sum(nz[:-1] * nz[1:] < 0) == 0
        du = data[1, 0] - data[0, 0]
        assert abs(np.trapezoid(data[:, 2], dx=du) - 1.0) < 1e-6

    def test_invalid_level_refused_without_toggle(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--m", "-2", "--n", "1", "--out", str(out)]) != 0
        assert main(["wavefunction", "--m", "-2", "--n", "1", "--allow-invalid",
                     "--out", str(out)]) == 0
        mani = read_manifest(out)
        assert any("sqrt(-1)" in f for f in mani["validity_flags"])

    @pytest.mark.parametrize("argv, message", [
        # the Scarf branch has no regularization, so --allow-invalid cannot help
        (["--lambda", "1", "--m", "0", "--R", "2"],
         "error: invalid Scarf parameters: quartic discriminant -7 is negative\n"),
        (["--lambda", "1", "--m", "0", "--R", "2", "--allow-invalid"],
         "error: invalid Scarf parameters: quartic discriminant -7 is negative\n"),
        (["--m", "-2", "--n", "1"], "error: M2 = sqrt(-1) is complex; rerun with --allow-invalid\n"),
    ], ids=["scarf", "scarf_allow_invalid", "constant_velocity"])
    def test_refusal_suggests_allow_invalid_only_where_it_regularizes(self, tmp_path, capsys, argv, message):
        assert main(["wavefunction", *argv, "--out", str(tmp_path / "wf.csv")]) == 1
        assert capsys.readouterr().err == message
        assert not any(tmp_path.iterdir())

    def test_manifest_declares_weight(self, tmp_path):
        out = tmp_path / "wf.csv"
        main(["wavefunction", "--m", "2", "--n", "0", "--lambda", "1",
              "--out", str(out)])
        assert read_manifest(out)["truncation"]["weight"] == "1/v_F(u)^2"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_norm_refused(self, tmp_path, capsys):
        # the weight 1/v_F^2 underflows to 0 at every sample
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--m", "3", "--n", "2", "--lambda", "1e300",
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSusyCheck:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "susy.json"
        rc = main(["susy-check", "--R", "1", "--m", "2", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["failures"] == []
        names = {c["name"] for c in report["checks"]}
        assert {"partner_identity_minus", "zero_mode_annihilation",
                "intertwining", "partner_shift"} <= names

    def test_harmonic_mode_shift_table(self, tmp_path):
        out = tmp_path / "susyh.json"
        rc = main(["susy-check", "--mode", "harmonic", "--out", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())["shift_table"]
        assert len(table) == 5
        assert max(r["relative_discrepancy"] for r in table) < 1e-3

    def test_injected_error_fails(self, tmp_path, monkeypatch):
        # a corrupted W breaks both partner identities, a corrupted zero-mode
        # derivative the annihilation check
        superpotential, derivative = cli.superpotential, cli.catenoid_ground_state_derivative
        monkeypatch.setattr(cli, "superpotential", lambda *a: superpotential(*a) + 0.5)
        monkeypatch.setattr(cli, "catenoid_ground_state_derivative", lambda *a: derivative(*a) + 0.5)
        out = tmp_path / "susybad.json"
        rc = main(["susy-check", "--m", "2", "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        assert report["failures"] == ["partner_identity_minus", "partner_identity_plus",
                                      "zero_mode_annihilation"]

    @pytest.mark.filterwarnings("error")
    def test_large_R_passes_without_warning(self, tmp_path):
        # (R^2 + u^2)^1.5 overflows in the partner identities and the
        # intertwining check, where the m*u term it drops is below 1e-190
        out = tmp_path / "susy.json"
        assert main(["susy-check", "--R", "1e150", "--m", "3", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [c["value"] for c in checks[:3]] == [0.0, 0.0, 0.0]
        assert checks[3]["name"] == "intertwining" and checks[3]["value"] < 1e-8

    def test_shift_table_skipped_at_nonpositive_quartic_root(self, tmp_path):
        out = tmp_path / "susy1.json"
        assert main(["susy-check", "--m", "0", "--R", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["shift_table"] == []
        assert read_manifest(out)["validity_flags"] == [
            "shift table skipped: quartic root t^2 = -0.381966 is not positive"]

    def test_shift_table_skipped_without_scarf_pair(self, tmp_path):
        out = tmp_path / "susy0.json"
        rc = main(["susy-check", "--m", "0", "--R", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["shift_table"] == []
        assert "shift table skipped: quartic discriminant -7 is negative" in \
            read_manifest(out)["validity_flags"]


class TestReportFigures:
    def test_refuses_without_toggle(self, tmp_path):
        rc = main(["report-figures", "--out", str(tmp_path / "fig.csv")])
        assert rc != 0
        assert not (tmp_path / "fig.csv").exists()

    def test_emits_two_files_with_manifests(self, tmp_path):
        out = tmp_path / "fig.csv"
        rc = main(["report-figures", "--allow-invalid", "--out", str(out)])
        assert rc == 0
        companion = tmp_path / "fig_companion.csv"
        assert out.exists() and companion.exists()
        assert Path(str(out) + ".manifest.json").exists()
        assert Path(str(companion) + ".manifest.json").exists()
        mani = read_manifest(out)
        assert any("sqrt(-1)" in f for f in mani["validity_flags"])

    def test_infinite_cells_flagged_without_warning(self, tmp_path):
        # at R = 1e-9, 1 -+ t rounds to 0 under a negative power at the ends
        # of the u range: the cells there are infinite and flagged, and the
        # bytes are the same with every warning an error
        argv = ["report-figures", "--allow-invalid", "--R", "1e-9", "--out"]
        plain, strict = tmp_path / "plain", tmp_path / "strict"
        for folder in (plain, strict):
            folder.mkdir()
        assert main(argv + [str(plain / "fig.csv")]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [str(strict / "fig.csv")]) == 0
        names = sorted(path.name for path in plain.iterdir())
        assert len(names) == 4 and names == sorted(path.name for path in strict.iterdir())
        assert all((plain / name).read_bytes() == (strict / name).read_bytes() for name in names)
        assert any("are not finite" in flag for flag in read_manifest(strict / "fig.csv")["validity_flags"])

    def test_companion_structure_matches_numeric(self, tmp_path):
        # density of level n at valid parameters carries n+1 humps
        from fd_oracles import count_features

        out = tmp_path / "fig.csv"
        main(["report-figures", "--allow-invalid", "--samples", "2001",
              "--out", str(out)])
        header, data = read_csv(tmp_path / "fig_companion.csv")
        assert header == ["u", "density_n1", "density_n3"]
        _, maxima1 = count_features(np.sqrt(data[:, 1]))
        _, maxima3 = count_features(np.sqrt(data[:, 2]))
        assert maxima1 == 2
        assert maxima3 == 4

    def test_densities_normalized_over_40R_box(self, tmp_path):
        # each density is chi^2 / int chi^2 du, the integral by the trapezoid
        # rule over 16001 points on [-40R, 40R], whatever the emitted grid
        from catenoid_dirac.analytic import QuantumNumbers, eigenfunction_constant_case
        from catenoid_dirac.geometry import CatenoidParams

        out = tmp_path / "fig.csv"
        main(["report-figures", "--allow-invalid", "--R", "1.5", "--umin", "-12",
              "--umax", "7", "--samples", "301", "--out", str(out)])
        params = CatenoidParams(1.5)
        box = np.linspace(-60.0, 60.0, 16001)
        for path, m in ((out, -2), (tmp_path / "fig_companion.csv", 3)):
            _, data = read_csv(path)
            for col, n in ((1, 1), (2, 3)):
                def chi(u):
                    return eigenfunction_constant_case(params, QuantumNumbers(n, m), u,
                                                       allow_invalid=True)

                norm = math.sqrt(np.trapezoid(chi(box) ** 2, box))
                assert np.array_equal(data[:, col], (chi(data[:, 0]) / norm) ** 2)


# options that were accepted but never read by their subcommand
UNREAD_OPTIONS = [
    ["potentials", "--format", "csv"],
    ["wavefunction", "--format", "csv"],
    ["susy-check", "--format", "json"],
    ["report-figures", "--allow-invalid", "--format", "csv"],
    ["potentials", "--allow-invalid"],
    ["spectrum", "--allow-invalid"],
    ["susy-check", "--allow-invalid"],
    ["report-figures", "--allow-invalid", "--m", "3"],
    ["report-figures", "--allow-invalid", "--lambda", "1"],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_unread_option_rejected(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# each subcommand's options (argparse dests) but --out and --format
ECHOED_OPTIONS = {
    "potentials": {"R", "m", "lam", "vf", "umin", "umax", "samples"},
    "spectrum": {"R", "m", "lam", "vf", "n", "mode"},
    "wavefunction": {"R", "m", "lam", "vf", "n", "umin", "umax", "samples", "allow_invalid"},
    "susy-check": {"R", "m", "lam", "vf", "mode"},
    "report-figures": {"R", "vf", "umin", "umax", "samples", "allow_invalid"},
}


# argv, and the extra parameters of each manifest it writes
ECHO_CASES = [
    (["potentials", "--R", "1", "--m", "3"], {"pots.csv": {}}),
    (["potentials", "--m", "-2", "--lambda", "0.8", "--samples", "51"], {"pots.csv": {}}),
    (["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "analytic"], {"s.json": {}}),
    (["spectrum", "--mode", "both", "--format", "csv"], {"s.csv": {}}),
    (["spectrum", "--lambda", "1", "--mode", "both"], {"s.json": {}}),
    (["wavefunction", "--R", "1", "--m", "3", "--n", "2"], {"wf.csv": {}}),
    (["wavefunction", "--m", "2", "--lambda", "1", "--n", "1"], {"wf.csv": {}}),
    (["susy-check", "--mode", "harmonic"], {"r.json": {}}),
    (["susy-check", "--lambda", "1"], {"r.json": {}}),
    (["report-figures", "--allow-invalid"], {"fig.csv": {"m": -2}, "fig_companion.csv": {"m": 3}}),
]


@pytest.mark.parametrize("argv, manifests", ECHO_CASES, ids=[" ".join(argv) for argv, _ in ECHO_CASES])
def test_manifest_echoes_parsed_options(tmp_path, argv, manifests):
    parsed = vars(build_parser().parse_args(argv + ["--out", "x"]))
    assert main(argv + ["--out", str(tmp_path / next(iter(manifests)))]) == 0
    for name, extra in manifests.items():
        manifest = read_manifest(tmp_path / name)
        assert manifest["command"] == argv[0]
        assert manifest["parameters"] == {**{k: parsed[k] for k in ECHOED_OPTIONS[argv[0]]}, **extra}


# values outside the input contract (R, vf, lambda finite and > 0; R^2 a
# finite normal float; n >= 0; samples >= 2; finite umin < umax), each
# refused before any file is written
REJECTED_INPUTS = [
    ["wavefunction", "--vf", "-1", "--m", "3", "--n", "0"],
    ["report-figures", "--allow-invalid", "--vf", "-1"],
    ["potentials", "--umin", "5", "--umax", "-5"],
    ["report-figures", "--allow-invalid", "--umin", "3", "--umax", "-3"],
    ["potentials", "--umin", "1", "--umax", "1"],
    ["susy-check", "--lambda", "0"],
    ["wavefunction", "--m", "3", "--n", "0", "--umin", "5", "--umax", "-5"],
    ["potentials", "--umax", "inf"],
    ["potentials", "--lambda", "inf"],
    ["spectrum", "--vf", "inf"],
    ["potentials", "--m", "2", "--R", "1e-300"],
    ["wavefunction", "--m", "3", "--n", "1", "--R", "1e-300"],
    ["potentials", "--m", "2", "--R", "1e200"],
    ["wavefunction", "--m", "3", "--n", "1", "--R", "1e200"],
    ["spectrum", "--R", "1", "--m", "3", "--n", "4000", "--mode", "both"],
    ["spectrum", "--m", "2", "--lambda", "1", "--n", "3999", "--mode", "numeric"],
    # an m that no float holds exactly
    ["potentials", "--m", str(10**200)],
    ["susy-check", "--m", str(10**200)],
    ["spectrum", "--lambda", "1", "--m", str(10**80)],
    # a degree-n profile has n nodes; 10**20 recurrence steps never returned
    ["wavefunction", "--m", "3", "--n", str(10**20)],
    ["wavefunction", "--m", "3", "--n", str(10**400)],
    # one record per level: 10**20 of them never returned
    ["spectrum", "--mode", "analytic", "--n", str(10**6 + 1)],
    ["spectrum", "--mode", "analytic", "--n", str(10**20)],
    ["potentials", "--samples", "1"],
    # R^2 + u^2 (to the power 1.5 in the potentials) overflows at an end of a
    # u range, where t = u/sqrt(R^2 + u^2) evaluates to 0 and V_eff1 loses its m*u term
    ["potentials", "--m", "3", "--umin=-1e103", "--umax=1e103"],
    ["wavefunction", "--m", "3", "--n", "0", "--umin=-1e160", "--umax=1e160"],
    ["report-figures", "--allow-invalid", "--R", "1e153"],  # its +-40R norm box
    # 4 v_F^2 overflows at an end, where vbar_eff drops its velocity-gradient
    # term and U_eff1 = V_eff1 = 1.2e-199 at u = 1e100 (the true value is 1.8e-199)
    ["potentials", "--m", "3", "--lambda", "1", "--umin=-1e100", "--umax=1e100"],
    # 2**50 samples ask numpy for 8 PiB, beyond the address space, so the
    # allocation fails before any page is touched
    ["potentials", "--samples", str(2**50)],
    ["wavefunction", "--m", "3", "--n", "0", "--samples", str(2**50)],
    ["report-figures", "--allow-invalid", "--samples", str(2**50)],
    # profiles whose norm on the u range is infinite, where 1 + t rounds to 0
    # under a negative power: dividing by that norm would write each finite
    # cell as 0, and the refusal must not come as a warning first
    *(pytest.param(argv, marks=pytest.mark.filterwarnings("error::RuntimeWarning")) for argv in [
        ["wavefunction", "--m", "3", "--n", "1", "--R", "1e-9"],
        ["wavefunction", "--m", "3", "--n", "0", "--umin=-1e9", "--umax=10"],
    ]),
]


@pytest.mark.parametrize("argv", REJECTED_INPUTS, ids=" ".join)
def test_rejected_input(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# just inside the bounds on R^2 + u^2 (and 4 v_F^2) at the ends of the u ranges
@pytest.mark.parametrize("argv", [
    ["potentials", "--m", "3", "--umin=-5e102", "--umax=5e102"],
    ["wavefunction", "--m", "3", "--n", "0", "--umin=-1e154", "--umax=1e154"],
    ["report-figures", "--allow-invalid", "--R", "3.3e152"],
    ["potentials", "--m", "3", "--lambda", "1", "--umin=-8e76", "--umax=8e76"],  # and 4 v_F^2
], ids=" ".join)
def test_largest_u_ranges_accepted(argv):
    _check_inputs(build_parser().parse_args(argv + ["--out", "x"]))


# numeric levels 0..n, plus two spare ones, must fit the spectrum grid
@pytest.mark.parametrize("mode, n, refused", [
    ("both", 3999, True), ("numeric", 3999, True), ("numeric", 3998, False),
    ("analytic", 10**6, False),
])
def test_spectrum_n_limited_by_numeric_grid(mode, n, refused):
    args = build_parser().parse_args(["spectrum", "--n", str(n), "--mode", mode, "--out", "x"])
    if refused:
        with pytest.raises(ValueError, match=rf"--n must be at most {SPECTRUM_POINTS - 3} "):
            _check_inputs(args)
    else:
        _check_inputs(args)


# every special value "%.17g" formats: nan, +-inf, -0.0, the smallest
# subnormal, the smallest normal, the largest float, and plain values
CSV_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 3.0, 0.1, -1e-5]


# one row either side of, and at, k chunks: k = 1 is the calling thread
# alone, 2 ends on the helper's chunk, 3 on the calling thread's after a
# helper's, 4 on the helper's second; 20001 rows is off every boundary
@pytest.mark.parametrize("ncols", [1, 3, 5])
@pytest.mark.parametrize("rows", [1, 2, *(k * CSV_UNIT_ROWS + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)),
                                  20001, 100001])
def test_write_csv_matches_savetxt(tmp_path, rows, ncols):
    rng = np.random.default_rng(rows * 10 + ncols)
    flat = rng.standard_normal(rows * ncols) * 10.0 ** rng.integers(-300, 300, rows * ncols)
    flat[::3] = np.resize(CSV_VALUES, flat[::3].size)
    # every special value lands in every CSV_UNIT_ROWS chunk with room for
    # them all, so the calling thread and the helper thread each format them
    step = CSV_UNIT_ROWS * ncols
    for unit in (flat[start:start + step] for start in range(0, flat.size, step)):
        if unit.size >= 3 * len(CSV_VALUES):
            assert {repr(v) for v in unit.tolist()} >= {repr(v) for v in CSV_VALUES}
    cols = list(flat.reshape(rows, ncols).T)
    header = [f"c{j}" for j in range(ncols)]
    out, oracle = tmp_path / "out.csv", tmp_path / "oracle.csv"
    _write_csv(out, header, cols)
    with open(oracle, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
    assert out.read_bytes() == oracle.read_bytes()


def _assert_kernel_matches_percent_g(values, ncols=1):
    """csv_text writes each cell of the row-major values as b"%.17g" % x."""
    values = np.asarray(values, dtype=float)
    cells = [b"%.17g" % v for v in values.tolist()]
    want = [b",".join(cells[i:i + ncols]) for i in range(0, len(cells), ncols)]
    got = csv_text(values.reshape(-1, ncols)).split(b"\n")
    assert got.pop() == b""
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{len(bad)} rows differ, the first: {bad[:1]}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_kernel_matches_percent_g_on_any_float(values):
    _assert_kernel_matches_percent_g(values)


def test_kernel_matches_percent_g_on_random_bit_patterns():
    bits = np.random.default_rng(2718).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    _assert_kernel_matches_percent_g(bits.view(np.float64), ncols=4)


def test_kernel_matches_percent_g_on_exact_ties():
    # A * 2**-j with A odd has the decimal significand A * 5**j, which ends
    # in 5: with 18 significant digits, its 17-digit rounding is an exact
    # tie, which "%.17g" breaks to even.  Odd A < 2**53 with 10**17 <=
    # A * 5**j < 10**18 exist for 4 <= j <= 25.
    rng = np.random.default_rng(31415)
    ties = []
    for j in range(4, 26):
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [math.ldexp(a, -j) for a in (rng.integers(low, high, 500) | 1).tolist() if a < high]
    ties = np.array(ties)
    assert len(ties) > 10000
    _assert_kernel_matches_percent_g(np.concatenate([ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, 1.0e300)]))


def _with_neighbours(values, count):
    """values and the count floats on either side of each."""
    up = down = np.asarray(values, dtype=float)
    out = [up]
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_kernel_matches_percent_g_at_notation_boundaries():
    # "%.17g" writes 0.0001 but 1.0000000000000001e-05, and 10000000000000000
    # but 1e+17; the floats just below each boundary round up onto it
    bounds = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = np.concatenate([_with_neighbours(bounds, 40), (bounds * (1 - 10.0 ** -np.arange(12, 18)[:, None])).ravel()])
    _assert_kernel_matches_percent_g(np.concatenate([near, -near]))


def test_kernel_matches_percent_g_next_to_every_power_of_ten():
    _assert_kernel_matches_percent_g(_with_neighbours([float(f"1e{k}") for k in range(-308, 309)], 1))


def test_kernel_powers_of_ten_are_correctly_rounded_pairs():
    rows = _csv_rows._powers().tolist()
    assert len(rows) == E_MAX + 1 - E_MIN
    for e, (hi, lo) in zip(range(E_MIN, E_MAX + 1), rows):
        exact = Fraction(10) ** (16 - e)
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi))), e


# the cells of the export workload's tables (100001 rows) that the kernel
# leaves to Python's formatter: each table's u = 0 and every exact 0, and
# the rare cell whose fraction of y lies within TIE_MARGIN of 1/2
@pytest.mark.parametrize("argv, expected", [
    (["potentials", "--R", "1", "--m", "3"], [0.0]),
    (["potentials", "--R", "1.5", "--m", "-2", "--lambda", "0.8"], [0.0]),
    (["wavefunction", "--R", "1", "--m", "3", "--n", "2"], [0.0]),
    (["wavefunction", "--R", "1", "--m", "2", "--n", "1", "--lambda", "1"], [0.0, 0.0028871012842567215]),
    (["report-figures", "--allow-invalid"], [0.0, 0.0, 0.0019584238674455455]),
], ids=lambda v: " ".join(v) if isinstance(v, list) and isinstance(v[0], str) else "")
def test_export_tables_fall_back_in_few_cells(tmp_path, monkeypatch, argv, expected):
    decimal, fallbacks = _csv_rows._decimal, []

    def counting(x):
        digits, exponent, certified = decimal(x)
        fallbacks.extend(x[~certified].tolist())
        return digits, exponent, certified

    monkeypatch.setattr(_csv_rows, "_decimal", counting)
    assert main(argv + ["--samples", "100001", "--out", str(tmp_path / "out.csv")]) == 0
    assert sorted(fallbacks) == expected


def test_write_csv_starts_no_process_and_no_temporary_file(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a process or made a temporary file")

    for module, name in [(subprocess, "Popen"), (os, "fork"), (os, "posix_spawn"),
                         (tempfile, "mkdtemp"), (tempfile, "mkstemp")]:
        monkeypatch.setattr(module, name, refuse)
    u = np.linspace(-10.0, 10.0, 100001)
    _write_csv(tmp_path / "out.csv", ["u", "v"], [u, u**2])


def test_write_csv_raises_what_the_helper_thread_raised(tmp_path, monkeypatch):
    def helper_fails(rows):
        if threading.current_thread() is not threading.main_thread():
            raise ArithmeticError("formatting failed in the helper thread")
        return csv_text(rows)

    monkeypatch.setattr(cli, "csv_text", helper_fails)
    before = set(threading.enumerate())
    with pytest.raises(ArithmeticError, match="helper thread"):
        _write_csv(tmp_path / "out.csv", ["u"], [np.arange(4.0 * CSV_UNIT_ROWS)])
    assert set(threading.enumerate()) == before


def test_write_csv_loads_no_executor_and_leaves_no_thread(tmp_path):
    # a 100001-row export formats its 25 chunks in pairs, the second of each
    # on a helper thread that is joined before the pair is written; no
    # executor module is loaded
    argv = ["potentials", "--R", "1.5", "--m", "-2", "--lambda", "0.8", "--samples", "100001", "--out", "out.csv"]
    code = (f"import sys, threading; from catenoid_dirac.cli import main; assert main({argv!r}) == 0; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    assert _python(code, cwd=tmp_path) == "False 1"


def test_write_csv_flags_non_finite_columns(tmp_path):
    u = np.arange(4.0)
    flags = _write_csv(tmp_path / "out.csv", ["u", "a", "b"],
                       [u, np.array([1.0, math.nan, math.inf, 2.0]), u])
    assert flags == ["a: 2 of 4 cells are not finite, the first at u = 1"]


# runs that write non-finite cells: each affected column gets one flag with
# its count and the first u, and the command still exits 0
@pytest.mark.parametrize("argv, expected", [
    (["potentials", "--m", "2", "--R", "1e-120"],
     ["V_eff1: 1 of 1001 cells are not finite, the first at u = 0",
      "V_eff2: 1 of 1001 cells are not finite, the first at u = 0"]),
], ids=["potentials"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cells_flagged(tmp_path, argv, expected):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert read_manifest(out)["validity_flags"] == expected


README_COMMANDS = [
    (["potentials", "--R", "1", "--m", "3"], "pots.csv"),
    (["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "both"], "spectrum.json"),
    (["wavefunction", "--R", "1", "--m", "3", "--n", "2"], "wf.csv"),
    (["report-figures", "--allow-invalid"], "fig.csv"),
]


@pytest.mark.parametrize("argv, name", README_COMMANDS, ids=lambda v: v[0] if isinstance(v, list) else None)
def test_readme_commands_flag_no_non_finite_cell(tmp_path, argv, name):
    assert main(argv + ["--out", str(tmp_path / name)]) == 0
    for manifest in tmp_path.glob("*.manifest.json"):
        assert not any("not finite" in f for f in json.loads(manifest.read_text())["validity_flags"])


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["potentials", "--m", "2", "--samples", "501"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_17_digits(self, tmp_path):
        out = tmp_path / "pot.csv"
        main(["potentials", "--m", "2", "--samples", "101", "--out", str(out)])
        _, data = read_csv(out)
        text = out.read_text().splitlines()[1:]
        for row, line in zip(data, text):
            rebuilt = ",".join(f"{v:.17g}" for v in row)
            assert rebuilt == line


def test_import_leaves_out_scipy_integrate():
    src = str(Path(catenoid_dirac.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, catenoid_dirac.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


# prints the sorted names of the loaded scipy modules, after the code before it ran
SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def _python(code, cwd=None, lines=None):
    """Last line of stdout of ``python -c code`` with the package importable,
    or a list of the last ``lines`` lines."""
    src = str(Path(catenoid_dirac.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    out = result.stdout.splitlines()
    return out[-1] if lines is None else out[-lines:]


def test_import_leaves_out_scipy():
    assert _python(f"import sys, catenoid_dirac.cli; {SCIPY_MODULES}") == "[]"


# no command loads a scipy module; the id says whether the command
# eigensolves, which imports catenoid_dirac._lapack and opens numpy's LAPACK
# through ctypes


@pytest.mark.parametrize("argv, eigensolves", [
    (["potentials", "--R", "1", "--m", "3"], False),
    (["wavefunction", "--R", "1", "--m", "3", "--n", "2"], False),
    (["wavefunction", "--m", "2", "--lambda", "1", "--n", "1"], False),
    (["report-figures", "--allow-invalid"], False),
    (["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "analytic"], False),
    (["spectrum", "--R", "1", "--m", "3", "--n", "4", "--mode", "both"], True),
    (["susy-check", "--mode", "catenoid"], True),
    (["susy-check", "--mode", "harmonic"], True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(bool(v)))
def test_command_loads_scipy_only_to_eigensolve(tmp_path, argv, eigensolves):
    code = (f"import sys; from catenoid_dirac.cli import main; "
            f"assert main({argv + ['--out', 'out']!r}) == 0; "
            f"lapack = sys.modules.get('catenoid_dirac._lapack'); "
            f"print(lapack is not None and lapack.handle.cache_info().currsize == 1); {SCIPY_MODULES}")
    assert _python(code, cwd=tmp_path, lines=2) == [str(eigensolves), "[]"]
