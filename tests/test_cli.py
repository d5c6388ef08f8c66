"""End-to-end command behavior through main(argv): exit codes, artifacts,
and error reporting."""

import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from thermoelast import (
    ModelParams,
    ScalarField,
    TorusGrid,
    VectorField,
    fisher_identity_residual,
    load_config,
    make_initial_data,
    read_snapshot,
    read_timeseries,
    write_snapshot,
)
from thermoelast.cli import main
from thermoelast.scenarios import ScenarioSpec
from thermoelast.snapshots import read_state, write_state


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

    @pytest.mark.parametrize("key, raw", [("t_end", "inf"), ("dt", "inf"), ("mu", "nan")])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, key, raw):
        # an infinite t_end has no step count, and dt = inf would pass the
        # lattice check (0 * inf is NaN) and run zero steps
        path = _write(tmp_path / "bad.cfg", f"seed = 0\n{key} = {raw}\nout_dir = {tmp_path / 'out'}\n")
        assert main(["run", path]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: line 2: {key} expects a finite number, got {raw!r}\n"
        assert out == ""
        assert not os.path.exists(tmp_path / "out")

    def test_step_past_stability_bound_is_refused(self, tmp_path, capsys):
        # 2D N=32 small-mixed at dt = 0.15, past the bound 0.1414: refused
        # before the first step, so nothing is written
        out = tmp_path / "out"
        path = _write(tmp_path / "big.cfg", "scenario = small-mixed\nn = 32\ndt = 0.15\n"
                                            f"t_end = 60\nout_dir = {out}\n")
        assert main(["run", path]) == 1
        text, err = capsys.readouterr()
        assert text == ""
        assert err.startswith("error: dt=0.15 is past the split step's stability bound 0.1414")
        assert err.count("\n") == 1
        assert not os.path.exists(out / "timeseries.csv")

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
        assert main(["diagnose", snap]) == 0
        text = capsys.readouterr().out
        assert "temperature field at t=1.5" in text
        assert "entropy" in text
        assert "verdict: PASS" in text

    def test_vector_snapshot(self, tmp_path, capsys):
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.2))
        snap = str(tmp_path / "u.tefld")
        write_snapshot(s.u, snap)
        assert main(["diagnose", snap]) == 0
        text = capsys.readouterr().out
        assert "div_free_l2" in text

    def test_state_directory(self, run_cfg, capsys):
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", out]) == 0
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
        assert main(["diagnose", out]) == 0
        rows = [line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line]
        printed = {name.strip(): value for name, value in rows}
        last = read_timeseries(os.path.join(out, "timeseries.csv"))[-1]
        for name in ("energy", "entropy", "entropy_production", "fisher_functional",
                     "theta_min", "theta_max"):
            assert printed[name] == "%.12e" % getattr(last, name), name
        assert math.isfinite(float(printed["fisher_identity_residual"]))

    def test_lame_directory_is_read_with_its_own_model(self, tmp_path, capsys):
        # the model comes from the directory's run-config.txt, so a Lame run
        # prints its own last row, not the Laplacian values of the same state
        out = tmp_path / "lame"
        cfg_path = _write(tmp_path / "lame.cfg", "scenario = lame-small-mixed\nn = 16\n"
                          f"epsilon = 0.2\ndt = 0.01\nt_end = 0.1\nout_dir = {out}\n")
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(out)]) == 0
        rows = [line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line]
        printed = {name.strip(): value for name, value in rows}
        last = read_timeseries(str(out / "timeseries.csv"))[-1]
        for name in ("energy", "entropy", "entropy_production", "fisher_functional",
                     "theta_min", "theta_max"):
            assert printed[name] == "%.12e" % getattr(last, name), name

    def test_directory_without_config_is_refused(self, tmp_path, capsys):
        write_state(make_initial_data(ScenarioSpec("small-mixed", n=16)), str(tmp_path))
        assert main(["diagnose", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "run-config.txt") in err

    def test_model_flag_is_a_usage_error(self, run_cfg, capsys):
        # no second source of the model: the retired flags are unknown options
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", out, "--mu", "1.0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_identity_row_is_the_public_function(self, run_cfg, capsys):
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", out, "--dt-micro", "1e-4"]) == 0
        rows = [line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line]
        printed = {name.strip(): value for name, value in rows}
        want = fisher_identity_residual(read_state(out), ModelParams(mu=1.0), 1e-4)
        assert printed["fisher_identity_residual"] == "%.12e" % want

    @pytest.mark.parametrize("dt_micro", ["nan", "inf"])
    def test_non_finite_micro_step_is_refused(self, run_cfg, capsys, dt_micro):
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnose", out, "--dt-micro", dt_micro]) == 1
        out_text, err = capsys.readouterr()
        assert err == f"error: dt_micro must be > 0 and finite, got {dt_micro}\n"
        assert out_text == ""

    @pytest.mark.parametrize("dt_micro, cause", [
        ("0.1", "Fisher functional requires positive temperature"),
        ("10", "non-finite u at t=-9.9"),
    ])
    def test_micro_step_too_large_is_named(self, tmp_path, capsys, dt_micro, cause):
        # the backward half runs the heat flow backwards: a large step breaks
        # the probe, and the error says the micro-step did it
        out = tmp_path / "run"
        cfg_path = _write(tmp_path / "run.cfg", "scenario = small-mixed\nn = 32\ndt = 0.01\n"
                          f"t_end = 0.1\nout_dir = {out}\n")
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnose", str(out), "--dt-micro", dt_micro]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: dt_micro={dt_micro} is too large for the identity probe: {cause}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dt_micro", ["1e-4", "nan"])
    def test_micro_step_on_a_lone_snapshot_is_refused(self, run_cfg, capsys, dt_micro):
        # a lone snapshot has no identity row to read the micro-step
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        assert main(["diagnose", os.path.join(out, "final_u.tefld"), "--dt-micro", dt_micro]) == 1
        out_text, err = capsys.readouterr()
        assert err == "error: --dt-micro needs a run directory: a lone snapshot has no identity row\n"
        assert out_text == ""

    @pytest.mark.parametrize(
        "scenario, key, raw, message",
        [("small-mixed", "mu", "inf", "line 7: mu expects a finite number, got 'inf'"),
         ("lame-small-mixed", "lame_lambda", "nan",
          "line 10: lame_lambda expects a finite number, got 'nan'")],
        ids=["mu", "lame_lambda"],
    )
    def test_non_finite_parameter_is_refused(self, run_cfg, capsys, scenario, key, raw, message):
        # the run's own config is refused on its line before the state is
        # stepped; a Lame run's config is the one that holds lame_lambda
        cfg_path, out = run_cfg
        text = Path(cfg_path).read_text(encoding="utf-8")
        _write(Path(cfg_path), text.replace("scenario = small-mixed", f"scenario = {scenario}"))
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        config = Path(out) / "run-config.txt"
        lines = config.read_text(encoding="utf-8").splitlines(keepends=True)
        _write(config, "".join(f"{key} = {raw}\n" if line.startswith(f"{key} = ") else line
                               for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["diagnose", out]) == 1
        out_text, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert out_text == ""

    def test_mixed_time_stamps_are_refused(self, run_cfg, capsys):
        # a v from a later run on the same grid: the triple is not one state
        cfg_path, out = run_cfg
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        v_path = os.path.join(out, "final_v.tefld")
        write_snapshot(read_snapshot(v_path), v_path, t=0.04)
        assert main(["diagnose", out]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith(f"error: {v_path}: time stamp t=0.04 differs from t=0.02")
        assert err.endswith(f"on {os.path.join(out, 'final_u.tefld')}\n")
        assert out_text == ""

    def test_printed_rows_pinned(self, tmp_path, capsys):
        # the printed output, byte for byte; every row shown is well
        # conditioned to its printed digits
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.3))
        theta_snap, u_snap = str(tmp_path / "theta.tefld"), str(tmp_path / "u.tefld")
        write_snapshot(s.theta, theta_snap, t=1.5)
        write_snapshot(s.u, u_snap, t=0.5)
        assert main(["diagnose", theta_snap]) == 0
        assert capsys.readouterr().out == (
            "temperature field at t=1.5 on n=(16, 16)\n"
            "  entropy            = -9.198369589020e-01\n"
            "  entropy_production = 1.906208934208e+00\n"
            "  theta_min          = 7.000000000000e-01\n"
            "  theta_max          = 1.300000000000e+00\n"
            "  mean               = 1.000000000000e+00\n"
            "verdict: PASS\n"
        )
        assert main(["diagnose", u_snap]) == 0
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

    @pytest.mark.parametrize("layout", ["empty", "bare-triple"])
    def test_directory_without_triple(self, tmp_path, capsys, layout):
        # u/v/theta.tefld beside a run-config.txt are not a run's final_* triple
        where = tmp_path / layout
        where.mkdir()
        if layout == "bare-triple":
            for path in write_state(make_initial_data(ScenarioSpec("small-mixed", n=16)), str(where)):
                os.rename(path, where / os.path.basename(path).removeprefix("final_"))
            _write(where / "run-config.txt", "n = 16\n")
        assert main(["diagnose", str(where)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {where}: no u/v/theta snapshot triple "
                       "(expected final_u.tefld, final_v.tefld, final_theta.tefld)\n")

    def test_nan_state_fails_verdict(self, tmp_path, capsys):
        grid = TorusGrid((16, 16))
        vals = np.ones(grid.shape)
        vals[3, 4] = math.nan
        snap = str(tmp_path / "theta.tefld")
        write_snapshot(ScalarField(grid, vals), snap)
        assert main(["diagnose", snap]) == 2
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_non_finite_state_directory_is_refused(self, tmp_path, capsys):
        # the stepper's entry check names the field and the state's own time
        s = make_initial_data(ScenarioSpec("small-mixed", n=16, epsilon=0.2))
        s.t = 0.5
        s.theta.values[3, 4] = math.nan
        write_state(s, str(tmp_path))
        _write(tmp_path / "run-config.txt", "n = 16\n")
        assert main(["diagnose", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert "non-finite theta at t=0.5\n" in err
        assert out == ""

    def test_non_finite_time_stamp_is_refused(self, tmp_path, capsys):
        # a triple stamped inf is no state at any time
        for path in write_state(make_initial_data(ScenarioSpec("small-mixed", n=16)), str(tmp_path)):
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b" t=0 ", b" t=inf ", 1))
        assert main(["diagnose", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / 'final_u.tefld'}: time stamp must be finite, got inf\n"


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

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        # at dt = 0.01 the Strang error alone is 2.340e-05, past the fixed 1e-5
        path = _write(tmp_path / "coarse.cfg", "scenario = band-limited\nn = 16\nepsilon = 0.04\n"
                      "dt = 0.01\nt_end = 0.2\n")
        assert main(["compare-oracle", path]) == 2
        out = capsys.readouterr().out
        assert "sup distance 2.340" in out and "(tolerance 1e-05, n 16)" in out
        assert out.endswith("verdict: FAIL\n")

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

    def test_modes_flag_is_a_usage_error(self, oracle_cfg, capsys):
        # the oracle's cube is read off the grid: its dealias_band
        with pytest.raises(SystemExit) as exc:
            main(["compare-oracle", oracle_cfg, "--modes", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_tolerance_flag_is_a_usage_error(self, oracle_cfg, capsys):
        # the verdict's threshold is fixed: oracle.VERDICT_TOLERANCE
        with pytest.raises(SystemExit) as exc:
            main(["compare-oracle", oracle_cfg, "--tolerance", "1e-5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_grid_divisible_by_3_passes(self, tmp_path, capsys):
        # the 2/3 cube at n = 12 is |index| <= 3, so products do not alias into it
        path = _write(tmp_path / "n12.cfg", "scenario = band-limited\nn = 12\nepsilon = 0.04\n"
                      "dt = 0.002\nt_end = 0.2\n")
        assert main(["compare-oracle", path]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, message", [
        ("n = 16\ndealias = false\n", "the oracle checks the default stepper path: this run sets dealias = False"),
    ], ids=["no-dealias"])
    def test_run_off_the_default_path_is_refused(self, tmp_path, capsys, extra, message):
        path = _write(tmp_path / "off.cfg", "scenario = band-limited\nepsilon = 0.04\n"
                      "dt = 0.002\nt_end = 0.2\n" + extra)
        assert main(["compare-oracle", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


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

    @pytest.mark.parametrize("args", [
        ["attractor", "--set", "t_end=0.2", "--set", "epsilons=2e-3,5e-2"],
        ["oracle-xcheck", "--set", "t_end=0.2"],
    ], ids=["attractor", "oracle-xcheck"])
    def test_short_run_passes(self, tmp_path, capsys, args):
        rc = main(["experiment", *args, "--out-dir", str(tmp_path / "x")])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "verdict: PASS" in out.splitlines()
        assert err == ""

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

    def test_retired_modes_override_is_unknown(self, tmp_path, capsys):
        # the oracle's cube is read off the grid: its dealias_band
        rc = main(["experiment", "oracle-xcheck", "--set", "modes=3",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown override 'modes'") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "x")

    def test_control_too_coarse_for_the_cube_exits_cleanly(self, tmp_path, capsys):
        # refused before the oracle is integrated or the matched run stepped
        rc = main(["experiment", "oracle-xcheck", "--set", "n=16",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: control_n=8 cannot hold the oracle's cube at n=16: "
                       "truncation 5 needs control_n >= 12\n")
        assert not os.path.exists(tmp_path / "x")

    def test_repeated_override_key_refused(self, tmp_path, capsys):
        # config text refuses a repeated key; the last --set must not win silently
        rc = main(["experiment", "bounds", "--set", "n=16", "--set", "n=8",
                   "--set", "t_end=0.02", "--set", "scenarios=random",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: duplicate override 'n'\n"
        assert not os.path.exists(tmp_path / "x")

    def test_degenerate_sampling_exits_cleanly(self, tmp_path, capsys):
        # a run of no step has no sample past t = 0
        rc = main(["experiment", "oracle-xcheck", "--set", "t_end=0",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: t_end must be > 0, got 0\n"
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("name, key, value", [
        ("oracle-xcheck", "tolerance", "1"),
        ("oracle-xcheck", "sample_dt", "0.1"),
        ("oscillation", "tail", "10"),
    ])
    def test_retired_verdict_knob_is_unknown(self, tmp_path, capsys, name, key, value):
        # a verdict's threshold and sample window are fixed, not overrides
        rc = main(["experiment", name, "--set", f"{key}={value}", "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: unknown override {key!r}") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("args, message", [
        (["bounds", "--set", "scenarios=,"], "scenarios must list at least one item"),
        (["attractor", "--set", "epsilons="], "epsilons must list at least one item"),
        (["attractor", "--set", "epsilons=0", "--set", "t_end=0.1"], "epsilons must be > 0, got 0"),
        (["oscillation", "--set", "t_end=-1"], "t_end must be > 0, got -1"),
        (["bounds", "--set", "scenarios=random,random", "--set", "t_end=0.02", "--set", "n=16"],
         "scenarios lists random twice"),
        (["attractor", "--set", "epsilons=2e-3,0.002", "--set", "t_end=0.02", "--set", "n=16"],
         "epsilons lists 0.002 twice"),
        (["bounds", "--set", "t_end=0"], "t_end must be > 0, got 0"),
    ])
    def test_option_that_cannot_decide_exits_cleanly(self, tmp_path, capsys, args, message):
        rc = main(["experiment", *args, "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

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
