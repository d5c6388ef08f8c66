"""Named experiments: the options each accepts, their conversion through the
config grammar, and a tiny run of every experiment."""

import os
from types import SimpleNamespace

import pytest

from thermoelast import ConfigError, parse_config, write_timeseries
from thermoelast.diagnostics import TrajectoryRecorder
from thermoelast.dynamics import run
from thermoelast.experiments import (
    DECAY_GATE,
    EXPERIMENT_NAMES,
    _fisher_rise,
    experiment_defaults,
    run_experiment,
)
from thermoelast.scenarios import make_initial_data

_RUN = {"n": "16", "t_end": "0.2", "record_every": "10"}

# small enough to finish in about a second each; the verdicts are not the point
TINY = {
    "attractor": dict(_RUN, epsilons="2e-3,1e-1"),
    "asymptotics": _RUN,
    "lame-asymptotics": dict(_RUN, zeta="1.5"),
    "oscillation": dict(_RUN, tail="0.1"),
    "bounds": dict(_RUN, scenarios="small-curl-free,random"),
    "oracle-xcheck": {"n": "16", "t_end": "0.2", "sample_dt": "0.1"},
}

CHECKS = {
    "attractor": ["fisher-monotone[eps=0.002]", "above-gate[eps=0.1]"],
    "asymptotics": ["chi-h1-decay", "theta-converges", "theta-bounds[small-mixed]"],
    "lame-asymptotics": ["chi-h1-decay", "theta-converges", "theta-bounds[lame-small-mixed]"],
    "oscillation": ["nu-energy-constant", "nu-no-decay", "theta-inert"],
    "bounds": ["theta-bounds[small-curl-free]", "theta-bounds[random]"],
    "oracle-xcheck": ["oracle-match", "aliased-control-fails", "control-separation"],
}

ARTIFACTS = {
    "attractor": ["timeseries-eps0.csv", "timeseries-eps1.csv"],
    "asymptotics": ["timeseries.csv", "final_u.tefld", "final_v.tefld", "final_theta.tefld"],
    "lame-asymptotics": ["timeseries.csv", "final_u.tefld", "final_v.tefld", "final_theta.tefld"],
    "oscillation": ["timeseries.csv", "nu_l2.csv"],
    "bounds": ["timeseries-small-curl-free.csv", "timeseries-random.csv"],
    "oracle-xcheck": ["distances-match.csv", "distances-control.csv"],
}


def test_tables_cover_every_experiment():
    assert set(TINY) == set(CHECKS) == set(ARTIFACTS) == set(EXPERIMENT_NAMES)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_tiny_run_writes_checks_and_artifacts(name, tmp_path):
    report = run_experiment(name, TINY[name], out_dir=str(tmp_path))
    assert [c.name for c in report.checks] == CHECKS[name]
    want = [str(tmp_path / f) for f in ARTIFACTS[name]] + [str(tmp_path / "report.txt")]
    assert report.artifacts == want
    assert all(os.path.getsize(path) > 0 for path in want)
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert text == f"experiment: {name}\n" + "\n".join(report.lines()) + "\n"


def test_defaults_key_sets():
    common = {"d", "n", "seed", "mu", "dt", "t_end", "record_every"}
    want = {
        "attractor": common | {"epsilons"},
        "asymptotics": common | {"epsilon", "zeta", "lame_lambda"},
        "lame-asymptotics": common | {"epsilon", "zeta", "lame_lambda"},
        "oscillation": common | {"epsilon", "tail"},
        "bounds": common | {"epsilon", "scenarios"},
        "oracle-xcheck": {"epsilon", "n", "control_n", "modes", "mu", "operator", "d",
                          "dt", "t_end", "sample_dt", "tolerance"},
    }
    assert {name: set(experiment_defaults(name)) for name in EXPERIMENT_NAMES} == want


class TestOverrides:
    @pytest.mark.parametrize(
        "key, raw, match",
        [
            ("t_end", "abc", "t_end expects a number, got 'abc'"),
            ("n", "2.5", "n expects an integer, got '2.5'"),
            ("record_every", "ten", "record_every expects an integer"),
        ],
    )
    def test_values_follow_the_config_grammar(self, key, raw, match, tmp_path):
        with pytest.raises(ConfigError, match=match):
            run_experiment("bounds", {key: raw}, out_dir=str(tmp_path))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown override 'theta_baseline'"):
            run_experiment("bounds", {"theta_baseline": "2"}, out_dir=str(tmp_path))

    def test_invalid_value_keeps_its_dataclass_message(self, tmp_path):
        with pytest.raises(ConfigError, match="^d must be 2 or 3, got 4$"):
            run_experiment("asymptotics", {"d": "4"}, out_dir=str(tmp_path))

    def test_lame_scenario_in_bounds_runs_like_thermoelast_run(self, tmp_path):
        # bounds builds its runs with the config builder, so a lame-* name
        # gets the elastic operator exactly as a config file would
        run_experiment("bounds", dict(_RUN, scenarios="lame-small-mixed"), out_dir=str(tmp_path))
        cfg = parse_config("scenario = lame-small-mixed\nn = 16\ndt = 0.002\n"
                           "t_end = 0.2\nrecord_every = 10\n")
        assert cfg.params.operator == "lame"
        rec = TrajectoryRecorder(cfg.params)
        run(make_initial_data(cfg.scenario), cfg.params, cfg.stepper, sink=rec)
        write_timeseries(rec.records, str(tmp_path / "direct.csv"))
        got = (tmp_path / "timeseries-lame-small-mixed.csv").read_bytes()
        assert got == (tmp_path / "direct.csv").read_bytes()


def _fisher_records(*values):
    return [SimpleNamespace(fisher_functional=f) for f in values]


class TestFisherRise:
    def test_gate_is_strict(self):
        assert _fisher_rise(_fisher_records(1.0, 0.5), DECAY_GATE) == (False, True, 0.0)
        assert _fisher_rise(_fisher_records(1.0, 0.5), 0.5 * DECAY_GATE)[0]

    def test_rise_allowance(self):
        assert _fisher_rise(_fisher_records(1.0, 1.0 + 1e-3), 0.0)[1]
        gated, flat, rise = _fisher_rise(_fisher_records(1.0, 1.01), 0.0)
        assert gated and not flat and rise == pytest.approx(0.01)
