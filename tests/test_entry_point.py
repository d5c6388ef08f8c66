"""The command line as a process: `python -m thermoelast.cli` exits through
`sys.exit(main())` with 0 on a pass, 1 on a refusal, and 2 on a failed
verdict or a usage error.  A refusal writes one `error: ` line to stderr, with
no traceback or warning; a passing command writes nothing there.

Only a real process shows these.  What each command computes and says is
checked in process, by test_cli, test_config, test_experiments and
test_snapshots; a new refusal is added there, not here.  CI also runs this
file against the installed package.
"""

import pytest

from conftest import fresh_python

CONFIGS = {
    "run.cfg": "scenario = small-mixed\ndt = 0.01\nt_end = 0.02\nout_dir = {tmp}/run\n",
    "oracle.cfg": "scenario = band-limited\nn = 16\nepsilon = 0.04\ndt = 0.002\nt_end = 0.2\n",
    # the Strang error alone at dt = 0.01 is 2.340e-05, past the verdict's 1e-5
    "coarse.cfg": "scenario = band-limited\nn = 16\nepsilon = 0.04\ndt = 0.01\nt_end = 0.2\n",
    "infinite.cfg": "t_end = inf\n",
    # past the stability bound 0.1414 of 2D N=32 small-mixed
    "too-large-dt.cfg": "scenario = small-mixed\nn = 32\ndt = 0.15\nt_end = 60\n"
                        "out_dir = {tmp}/too-large-dt\n",
}

PASSING = {
    "run": ["run", "{tmp}/run.cfg"],
    "compare-oracle": ["compare-oracle", "{tmp}/oracle.cfg"],
    "experiment": ["experiment", "attractor", "--set", "t_end=0.2", "--set", "epsilons=2e-3,5e-2",
                   "--out-dir", "{tmp}/attractor"],
}

# one refusal from each layer a command reaches: config, stepper, snapshots, experiments
REFUSED = {
    "config": ["run", "{tmp}/infinite.cfg"],
    "stepper": ["run", "{tmp}/too-large-dt.cfg"],
    "snapshots": ["diagnose", "{tmp}/empty"],
    "experiment": ["experiment", "bounds", "--set", "t_end=0", "--out-dir", "{tmp}/no-steps"],
}


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("entry")
    for name, text in CONFIGS.items():
        (tmp / name).write_text(text.format(tmp=tmp), encoding="utf-8")
    (tmp / "empty").mkdir()
    return lambda *argv: fresh_python("-m", "thermoelast.cli", *(a.format(tmp=tmp) for a in argv))


@pytest.mark.parametrize("argv", PASSING.values(), ids=PASSING)
def test_pass_exits_0_and_leaves_stderr_empty(cli, argv):
    proc = cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refusal_exits_1_with_one_error_line(cli, argv):
    proc = cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.endswith("\n")


def test_run_directory_is_diagnosed(cli):
    # diagnose reads back the run-config.txt that run wrote into its directory
    assert cli("run", "{tmp}/run.cfg").returncode == 0
    proc = cli("diagnose", "{tmp}/run")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("verdict: PASS\n")


def test_failed_verdict_exits_2(cli):
    proc = cli("compare-oracle", "{tmp}/coarse.cfg")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.endswith("verdict: FAIL\n")


def test_usage_error_exits_2(cli):
    # the verdict's threshold is fixed: --tolerance is no option
    proc = cli("compare-oracle", "{tmp}/oracle.cfg", "--tolerance", "1e-5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: thermoelast ")
    assert proc.stderr.endswith("\nthermoelast: error: unrecognized arguments: --tolerance 1e-5\n")
    assert proc.stderr.count("\n") == 2
