"""End-to-end command behavior through main(argv): exit codes, artifacts,
and error reporting."""

import math
import os

import numpy as np
import pytest

from thermoelast import (
    ScalarField,
    TorusGrid,
    VectorField,
    load_config,
    make_initial_data,
    read_snapshot,
    read_timeseries,
    write_snapshot,
)
from thermoelast.cli import main
from thermoelast.scenarios import ScenarioSpec


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def run_cfg(tmp_path):
    out = tmp_path / "artifacts"
    return _write(
        tmp_path / "run.cfg",
        "scenario = small-mixed\n"
        "n = 16\n"
        "epsilon = 0.1\n"
        "dt = 0.002\n"
        "t_end = 0.02\n"
        "record_every = 2\n"
        f"out_dir = {out}\n",
    ), str(out)


class TestRun:
    def test_writes_all_artifacts(self, run_cfg, capsys):
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "energy drift" in text
        assert "theta range" in text

        records = read_timeseries(os.path.join(out, "timeseries.csv"))
        assert len(records) == 6  # initial + every 2nd of 10 steps
        assert records[-1].t == pytest.approx(0.02)

        grid = TorusGrid((16, 16))
        u = read_snapshot(os.path.join(out, "final_u.tefld"), grid=grid)
        theta = read_snapshot(os.path.join(out, "final_theta.tefld"), grid=grid)
        assert isinstance(u, VectorField)
        assert isinstance(theta, ScalarField)

        saved = load_config(os.path.join(out, "run-config.txt"))
        assert saved.scenario.name == "small-mixed"
        assert saved.stepper.dt == 0.002

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.cfg", "mu = -1\n")
        assert main(["run", path]) == 1
        assert "mu must be > 0" in capsys.readouterr().err

    def test_unbuildable_scenario(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.cfg", "scenario = small-curl-free\nepsilon = 2.0\n")
        assert main(["run", path]) == 1
        assert "non-positive temperature" in capsys.readouterr().err


class TestDecompose:
    def test_pass_and_parts(self, tmp_path, capsys):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.3))
        snap = str(tmp_path / "u.tefld")
        write_snapshot(s.u, snap, t=0.0)
        parts_dir = str(tmp_path / "parts")
        assert main(["decompose", snap, "--out-dir", parts_dir]) == 0
        text = capsys.readouterr().out
        assert "verdict: PASS" in text
        div_free = read_snapshot(os.path.join(parts_dir, "div_free.tefld"))
        curl_free = read_snapshot(os.path.join(parts_dir, "curl_free.tefld"))
        potential = read_snapshot(os.path.join(parts_dir, "potential.tefld"))
        assert isinstance(potential, ScalarField)
        np.testing.assert_allclose(
            div_free.components + curl_free.components, s.u.components, atol=1e-12
        )

    def test_scalar_input_is_an_error(self, tmp_path, capsys):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16))
        snap = str(tmp_path / "theta.tefld")
        write_snapshot(s.theta, snap)
        assert main(["decompose", snap]) == 1
        assert "expects a vector snapshot" in capsys.readouterr().err

    def test_nan_field_fails_verdict(self, tmp_path, capsys):
        grid = TorusGrid((16, 16))
        vals = np.zeros((2,) + grid.shape)
        vals[0, 0, 0] = math.nan
        snap = str(tmp_path / "bad.tefld")
        write_snapshot(VectorField(grid, vals), snap)
        assert main(["decompose", snap]) == 2
        assert "verdict: FAIL" in capsys.readouterr().out


class TestDiagnose:
    def test_scalar_snapshot(self, tmp_path, capsys):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.2))
        snap = str(tmp_path / "theta.tefld")
        write_snapshot(s.theta, snap, t=1.5)
        assert main(["diagnose", snap, "--mu", "1.0"]) == 0
        text = capsys.readouterr().out
        assert "temperature field at t=1.5" in text
        assert "entropy" in text
        assert "verdict: PASS" in text

    def test_vector_snapshot(self, tmp_path, capsys):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.2))
        snap = str(tmp_path / "u.tefld")
        write_snapshot(s.u, snap)
        assert main(["diagnose", snap, "--mu", "1.0"]) == 0
        text = capsys.readouterr().out
        assert "div_free_l2" in text

    def test_state_directory(self, run_cfg, capsys):
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", out, "--mu", "1.0"]) == 0
        text = capsys.readouterr().out
        assert "state at t=0.02" in text
        assert "fisher_functional" in text
        assert "verdict: PASS" in text

    def test_state_directory_matches_last_record(self, run_cfg, capsys):
        # diagnose reads one full record of the state, so on a run's
        # directory it prints the run's last time-series row
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", out, "--mu", "1.0"]) == 0
        rows = [line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line]
        printed = {name.strip(): value for name, value in rows}
        last = read_timeseries(os.path.join(out, "timeseries.csv"))[-1]
        for name in ("energy", "entropy", "entropy_production", "fisher_functional",
                     "theta_min", "theta_max"):
            assert printed[name] == "%.12e" % getattr(last, name), name
        assert math.isnan(last.fisher_identity_residual)
        assert math.isfinite(float(printed["fisher_identity_residual"]))

    def test_printed_rows_pinned(self, tmp_path, capsys):
        # the printed output, byte for byte; every row shown is well
        # conditioned to its printed digits
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.3))
        theta_snap, u_snap = str(tmp_path / "theta.tefld"), str(tmp_path / "u.tefld")
        write_snapshot(s.theta, theta_snap, t=1.5)
        write_snapshot(s.u, u_snap, t=0.5)
        assert main(["diagnose", theta_snap, "--mu", "1.0"]) == 0
        assert capsys.readouterr().out == (
            "temperature field at t=1.5 on n=(16, 16)\n"
            "  entropy            = -9.198369589020e-01\n"
            "  entropy_production = 1.906208934208e+00\n"
            "  theta_min          = 7.000000000000e-01\n"
            "  theta_max          = 1.300000000000e+00\n"
            "  mean               = 1.000000000000e+00\n"
            "verdict: PASS\n"
        )
        assert main(["diagnose", u_snap, "--mu", "1.0"]) == 0
        assert capsys.readouterr().out == (
            "vector field at t=0.5 on n=(16, 16)\n"
            "  l2           = 2.665729762895e+00\n"
            "  h1_semi      = 3.264838855622e+00\n"
            "  div_free_l2  = 1.884955592154e+00\n"
            "  curl_free_l2 = 1.884955592154e+00\n"
            "verdict: PASS\n"
        )
        assert main(["decompose", u_snap]) == 0
        # the residual rows below these are rounding noise
        assert capsys.readouterr().out.startswith(
            "vector field on n=(16, 16), t=0.5\n"
            "  |field|_L2        = 2.665729762895e+00\n"
            "  |div-free|_L2     = 1.884955592154e+00\n"
            "  |curl-free|_L2    = 1.884955592154e+00\n"
            "  |potential|_L2    = 1.332864881448e+00\n"
        )

    def test_directory_without_triple(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["diagnose", str(tmp_path / "empty"), "--mu", "1.0"]) == 1
        assert "no u/v/theta snapshot triple" in capsys.readouterr().err

    def test_nan_state_fails_verdict(self, tmp_path, capsys):
        grid = TorusGrid((16, 16))
        vals = np.ones(grid.shape)
        vals[3, 4] = math.nan
        snap = str(tmp_path / "theta.tefld")
        write_snapshot(ScalarField(grid, vals), snap)
        assert main(["diagnose", snap, "--mu", "1.0"]) == 2
        assert "verdict: FAIL" in capsys.readouterr().out


@pytest.fixture
def oracle_cfg(tmp_path):
    return _write(
        tmp_path / "oracle.cfg",
        "scenario = band-limited\n"
        "n = 16\n"
        "epsilon = 0.04\n"
        "dt = 0.002\n"
        "t_end = 0.2\n",
    )


class TestCompareOracle:
    def test_agreement_passes(self, oracle_cfg, capsys):
        assert main(["compare-oracle", oracle_cfg]) == 0
        text = capsys.readouterr().out
        assert "sup distance" in text
        assert "verdict: PASS" in text

    def test_unreachable_tolerance_fails(self, oracle_cfg, capsys):
        assert main(["compare-oracle", oracle_cfg, "--tolerance", "1e-15"]) == 2
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_elastic_operator_agreement_passes(self, tmp_path, capsys):
        path = _write(
            tmp_path / "lame.cfg",
            "scenario = lame-band-limited\nn = 16\ndt = 0.002\nt_end = 0.2\n",
        )
        assert main(["compare-oracle", path]) == 0
        text = capsys.readouterr().out
        assert "sup distance" in text
        assert "verdict: PASS" in text

    def test_zero_length_run_rejected(self, tmp_path, capsys):
        path = _write(tmp_path / "idle.cfg", "scenario = band-limited\nn = 16\nt_end = 0\n")
        assert main(["compare-oracle", path]) == 1
        assert "needs t_end > 0" in capsys.readouterr().err


class TestExperiment:
    def test_bounds_fast_run(self, tmp_path, capsys):
        out = str(tmp_path / "exp")
        rc = main([
            "experiment", "bounds",
            "--set", "scenarios=small-mixed",
            "--set", "t_end=0.5",
            "--set", "n=16",
            "--set", "record_every=10",
            "--out-dir", out,
        ])
        text = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in text
        assert os.path.exists(os.path.join(out, "report.txt"))
        assert os.path.exists(os.path.join(out, "timeseries-small-mixed.csv"))

    def test_malformed_set(self, tmp_path, capsys):
        rc = main(["experiment", "bounds", "--set", "garbage",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "--set expects key=value" in capsys.readouterr().err

    def test_unknown_override_key(self, tmp_path, capsys):
        rc = main(["experiment", "bounds", "--set", "banana=1",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown override" in capsys.readouterr().err

    def test_override_value_uses_config_grammar(self, tmp_path, capsys):
        rc = main(["experiment", "bounds", "--set", "t_end=abc",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "t_end expects a number, got 'abc'" in capsys.readouterr().err

    def test_list_override_items_use_config_grammar(self, tmp_path, capsys):
        rc = main(["experiment", "attractor", "--set", "epsilons=0.1, abc",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "epsilons expects a number, got 'abc'" in capsys.readouterr().err
