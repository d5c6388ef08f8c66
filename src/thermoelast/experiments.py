"""Named experiment drivers with pass/fail verdicts.

Each experiment instantiates one of the structural claims the solver is
supposed to honor, runs the dynamics, evaluates explicit thresholds, and
writes its artifacts (time series, snapshots, a plain-text report) into an
output directory.  The asymptotics runs save a directory `diagnose` reads
as `thermoelast run` does (`_run_saved`), `run-config.txt` included.
Overrides arrive as strings (from `--set key=value`) and follow the config
grammar: each is converted to the type of the default it replaces, and the
run keys among them build the run as a config file would (`operator`
resolves against the scenario name unless an experiment sets it).  An
experiment accepts only the keys its runs read: `seed` only in `bounds`,
whose `random` scenario draws from it, and `zeta` and `lame_lambda` only
in `lame-asymptotics`.  No key sets a verdict's threshold or window:
`oscillation` reads the last fifth of its run, `oracle-xcheck` the oracle's
`VERDICT_TOLERANCE` and `sample_times`.  A `t_end` of 0 is refused.

    attractor         amplitude sweep: the decay functional never rises for
                      data under the empirical smallness gate
    asymptotics       t=100 run: gradient sector and temperature converge
    lame-asymptotics  same with the elastic operator
    oscillation       solenoidal data: the wave sector never decays
    bounds            temperature stays within [min0/2, 2*max0]
    oracle-xcheck     spectral run matches the truncated-system oracle;
                      aliased control run does not
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

from .config import RunConfig, build_config, convert_value, serialize_config
from .diagnostics import DiagnosticsRecord, TrajectoryRecorder, galerkin_initial_smallness
from .dynamics import SimState, run
from .grid import spectral_l2_sq
from .operators import longitudinal_part
from .oracle import (VERDICT_TOLERANCE, compare_oracle, matched_oracle, sample_times,
                     spectral_states_at)
from .scenarios import make_initial_data
from .snapshots import atomic_write_text, write_state, write_table, write_timeseries

__all__ = [
    "DECAY_GATE",
    "EXPERIMENT_NAMES",
    "Check",
    "ExperimentReport",
    "experiment_defaults",
    "run_experiment",
]

# Empirical smallness gate for the decay functional: data whose smallness
# functional sits strictly below this never shows a rising functional in the
# sweep; used as the default admission threshold.
DECAY_GATE = 1e-2


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {verdict} ({self.detail})"


@dataclass
class ExperimentReport:
    name: str
    checks: list[Check]
    artifacts: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return out


def _run_recorded(cfg: RunConfig, csv_path: str, s0: SimState | None = None, extra_sink=None
                  ) -> tuple[SimState, list[DiagnosticsRecord]]:
    """Run cfg (from s0, else its scenario) recording the full battery at
    its cadence; the records go to csv_path as a time series."""
    if s0 is None:
        s0 = make_initial_data(cfg.scenario)
    rec = TrajectoryRecorder(cfg.params)

    def sink(s: SimState) -> None:
        rec(s)
        if extra_sink is not None:
            extra_sink(s)
    final = run(s0, cfg.params, cfg.stepper, sink=sink)
    write_timeseries(rec.records, csv_path)
    return final, rec.records


def _run_saved(cfg: RunConfig, out_dir: str) -> tuple[SimState, list[DiagnosticsRecord], list[str]]:
    """Run cfg into out_dir: the final state, the records, and the paths of the
    time series, state triple and run-config.txt (out_dir its own) it wrote."""
    ts, config_path = os.path.join(out_dir, "timeseries.csv"), os.path.join(out_dir, "run-config.txt")
    final, records = _run_recorded(cfg, ts)
    paths = [ts, *write_state(final, out_dir), config_path]
    atomic_write_text(config_path, serialize_config(replace(cfg, out_dir=out_dir)))
    return final, records, paths


def _list_option(o: dict, key: str, convert: Callable[[str], Any] = str) -> list:
    """The comma-separated items of option `key`, each passed through
    `convert`; ValueError if it lists none, or an item equal to an earlier
    one, which would be run twice."""
    items = [convert(tok.strip()) for tok in str(o[key]).split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{key} must list at least one item")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"{key} lists {item} twice")
    return items


def _rel(x: float, ref: float) -> float:
    return x / ref if ref else float("inf")


def _fisher_rise(records, smallness: float) -> tuple[bool, bool, float]:
    """The decay rule for the Fisher functional F along a recorded run:
    (data under the gate, F never rose past F(0) * (1 + 1e-3), max F/F(0) - 1).
    Only data strictly under DECAY_GATE is required not to rise."""
    f0 = records[0].fisher_functional
    peak = max(r.fisher_functional for r in records)
    return smallness < DECAY_GATE, peak <= f0 * (1.0 + 1e-3), peak / f0 - 1.0


def _exp_attractor(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    eps_values = _list_option(o, "epsilons", lambda tok: convert_value("epsilons", tok, 0.0))
    if min(eps_values) <= 0.0:  # epsilon = 0 would mean the scenario's default amplitude
        raise ValueError(f"epsilons must be > 0, got {min(eps_values):g}")
    checks: list[Check] = []
    artifacts: list[str] = []
    for i, eps in enumerate(eps_values):
        cfg = build_config(o | {"scenario": "small-mixed", "epsilon": eps})
        s0 = make_initial_data(cfg.scenario)
        smallness = galerkin_initial_smallness(s0, cfg.params)
        path = os.path.join(out_dir, f"timeseries-eps{i}.csv")
        _, records = _run_recorded(cfg, path, s0)
        gated, flat, rise = _fisher_rise(records, smallness)
        artifacts.append(path)
        detail = f"smallness={smallness:.3e} gate={DECAY_GATE:g} maxF/F0-1={rise:.3e}"
        if gated:
            checks.append(Check(f"fisher-monotone[eps={eps:g}]", flat, detail))
        else:
            checks.append(Check(f"above-gate[eps={eps:g}]", True, detail + " (not required to decay)"))
    return checks, artifacts


def _asymptotics(scenario: str, o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    _, records, paths = _run_saved(build_config(o | {"scenario": scenario}), out_dir)
    first, last = records[0], records[-1]
    chi_ratio = _rel(last.chi_h1, first.chi_h1)
    th_ratio = _rel(last.theta_l2_dist, first.theta_l2_dist)
    checks = [
        Check("chi-h1-decay", chi_ratio <= 1e-2,
              f"chi_h1 {first.chi_h1:.6e} -> {last.chi_h1:.6e} (ratio {chi_ratio:.3e}, need <= 1e-2)"),
        Check("theta-converges", th_ratio <= 1e-2,
              f"|theta-theta_inf| {first.theta_l2_dist:.6e} -> {last.theta_l2_dist:.6e} "
              f"(ratio {th_ratio:.3e}, need <= 1e-2)"),
        _bounds_check(records, scenario),
    ]
    return checks, paths


def _exp_oscillation(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    nu_series: list[tuple[float, float]] = []

    def track_nu(s: SimState) -> None:
        uh = s.u.spectral()  # |nu| by Parseval on the remainder u^ - chi^
        nu = math.sqrt(spectral_l2_sq(s.grid, uh - longitudinal_part(s.grid, uh)[1]))
        nu_series.append((s.t, nu))

    ts = os.path.join(out_dir, "timeseries.csv")
    _, records = _run_recorded(build_config(o | {"scenario": "small-div-free"}), ts,
                               extra_sink=track_nu)

    e0 = records[0].nu_energy
    drift = max(abs(r.nu_energy - e0) for r in records) / e0
    tail_start = 0.8 * o["t_end"]  # the last fifth of the run
    tail_max = max(norm for t, norm in nu_series if t >= tail_start)
    nu0 = nu_series[0][1]
    spread = max(
        max(r.theta_max - r.theta_min for r in records),
        max(abs(r.theta_max - records[0].theta_max) for r in records),
    )
    checks = [
        Check("nu-energy-constant", drift <= 1e-5, f"relative drift {drift:.3e}, need <= 1e-5"),
        Check("nu-no-decay", tail_max >= 0.5 * nu0,
              f"max |nu| over t>={tail_start:g} is {tail_max:.6e}, half initial {0.5 * nu0:.6e}"),
        Check("theta-inert", spread <= 1e-10,
              f"max temperature spread {spread:.3e} (coupling vanishes identically)"),
    ]
    nu_path = os.path.join(out_dir, "nu_l2.csv")
    write_table(nu_path, ("t", "nu_l2"), nu_series)
    return checks, [ts, nu_path]


def _bounds_check(records, label: str) -> Check:
    """The factor-two corridor: theta stays within [min0 / 2, 2 * max0]."""
    t_min0, t_max0 = records[0].theta_min, records[0].theta_max
    lo = min(r.theta_min for r in records)
    hi = max(r.theta_max for r in records)
    ok = lo >= 0.5 * t_min0 and hi <= 2.0 * t_max0
    return Check(
        f"theta-bounds[{label}]", ok,
        f"theta in [{lo:.6g}, {hi:.6g}], allowed [{0.5 * t_min0:.6g}, {2.0 * t_max0:.6g}]",
    )


def _exp_bounds(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    checks: list[Check] = []
    artifacts: list[str] = []
    for name in _list_option(o, "scenarios"):
        path = os.path.join(out_dir, f"timeseries-{name}.csv")
        _, records = _run_recorded(build_config(o | {"scenario": name}), path)
        checks.append(_bounds_check(records, name))
        artifacts.append(path)
    return checks, artifacts


def _exp_oracle_xcheck(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    # the aliased control reads the same trajectory, so its grid must hold the
    # oracle's cube (the grid's dealias_band): refused before the oracle is integrated
    cfg = build_config(o | {"scenario": "band-limited"})
    s0 = make_initial_data(cfg.scenario)
    modes = s0.grid.dealias_band[0]
    if o["control_n"] < 2 * modes + 2:
        raise ValueError(f"control_n={o['control_n']} cannot hold the oracle's cube at n={o['n']}: "
                         f"truncation {modes} needs control_n >= {2 * modes + 2}")
    times = sample_times(s0.t, cfg.stepper)
    traj = matched_oracle(s0, cfg.params, cfg.stepper)
    main = compare_oracle(traj, spectral_states_at(s0, cfg.params, cfg.stepper, times))
    # the control: products alias freely on a grid too coarse to hold them
    ctl = build_config(o | {"scenario": "band-limited", "n": o["control_n"], "dealias": False})
    control = compare_oracle(traj, spectral_states_at(make_initial_data(ctl.scenario), ctl.params,
                                                      ctl.stepper, times))

    tol = VERDICT_TOLERANCE
    checks = [
        Check("oracle-match", main.sup_distance <= tol,
              f"sup L2 distance {main.sup_distance:.3e}, need <= {tol:g}"),
        Check("aliased-control-fails", control.sup_distance >= 10.0 * tol,
              f"control distance {control.sup_distance:.3e}, need >= {10.0 * tol:g}"),
        Check("control-separation", control.sup_distance >= 10.0 * main.sup_distance,
              f"control/main = {_rel(control.sup_distance, main.sup_distance):.3g}, need >= 10"),
    ]
    artifacts = []
    for label, cmp in (("match", main), ("control", control)):
        path = os.path.join(out_dir, f"distances-{label}.csv")
        write_table(path, ("t", "u_dist", "v_dist", "theta_dist"), cmp.rows())
        artifacts.append(path)
    return checks, artifacts


_ASYMPTOTICS_DEFAULTS = {
    "epsilon": 0.0, "d": 2, "n": 0, "mu": 1.0, "dt": 2e-3, "t_end": 100.0, "record_every": 50,
}

_EXPERIMENTS = {
    "attractor": (
        _exp_attractor,
        {"epsilons": "2e-3,5e-3,1e-2", "d": 2, "n": 0,
         "mu": 1.0, "dt": 2e-3, "t_end": 20.0, "record_every": 10},
    ),
    "asymptotics": (partial(_asymptotics, "small-mixed"), _ASYMPTOTICS_DEFAULTS),
    "lame-asymptotics": (partial(_asymptotics, "lame-small-mixed"),
                         _ASYMPTOTICS_DEFAULTS | {"zeta": 1.0, "lame_lambda": 0.5}),
    "oscillation": (
        _exp_oscillation,
        {"epsilon": 0.0, "d": 2, "n": 0, "mu": 1.0,
         "dt": 2e-3, "t_end": 50.0, "record_every": 5},
    ),
    "bounds": (
        _exp_bounds,
        {"scenarios": "small-curl-free,small-mixed,random", "epsilon": 0.0, "d": 2, "n": 0,
         "seed": 0, "mu": 1.0, "dt": 2e-3, "t_end": 20.0, "record_every": 10},
    ),
    "oracle-xcheck": (
        _exp_oracle_xcheck,
        {"epsilon": 4e-2, "n": 10, "control_n": 8, "mu": 1.0,
         "operator": "laplacian", "d": 2,
         "dt": 2e-4, "t_end": 1.0},
    ),
}

EXPERIMENT_NAMES = tuple(sorted(_EXPERIMENTS))


def experiment_defaults(name: str) -> dict:
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; know {', '.join(EXPERIMENT_NAMES)}")
    return dict(_EXPERIMENTS[name][1])


def _apply_overrides(defaults: dict, overrides: dict[str, str]) -> dict:
    out = dict(defaults)
    for key, raw in overrides.items():
        if key not in defaults:
            raise ValueError(
                f"unknown override {key!r}; this experiment accepts {', '.join(sorted(defaults))}"
            )
        out[key] = convert_value(key, raw, defaults[key])
    return out


def run_experiment(
    name: str, overrides: dict[str, str] | None = None, out_dir: str | None = None
) -> ExperimentReport:
    """Run one named experiment and write its artifacts and report; ValueError
    before anything is run or written unless t_end > 0."""
    opts = _apply_overrides(experiment_defaults(name), overrides or {})
    if opts["t_end"] <= 0.0:  # a run of no step has nothing to check
        raise ValueError(f"t_end must be > 0, got {opts['t_end']:g}")
    target = out_dir or os.path.join("out", name)
    started = time.perf_counter()
    checks, artifacts = _EXPERIMENTS[name][0](opts, target)
    report = ExperimentReport(name, checks, artifacts, elapsed=time.perf_counter() - started)
    report_path = os.path.join(target, "report.txt")
    atomic_write_text(report_path, f"experiment: {name}\n" + "\n".join(report.lines()) + "\n")
    report.artifacts.append(report_path)
    return report
