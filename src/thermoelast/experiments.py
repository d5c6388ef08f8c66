"""Named experiment drivers with pass/fail verdicts.

Each experiment instantiates one of the structural claims the solver is
supposed to honor, runs the dynamics, evaluates explicit thresholds, and
writes its artifacts (time series, snapshots, a plain-text report) into an
output directory.  Overrides arrive as strings (from `--set key=value`) and
are converted using the type of the default they replace.

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

import os
import time
from dataclasses import dataclass, field

from .diagnostics import TrajectoryRecorder, galerkin_initial_smallness
from .dynamics import ModelParams, SimState, StepperConfig, run
from .grid import field_norms
from .helmholtz import helmholtz_project
from .oracle import build_galerkin, compare_oracle, integrate_galerkin, spectral_states_at
from .scenarios import ScenarioSpec, make_initial_data
from .snapshots import atomic_write_text, write_snapshot, write_timeseries

__all__ = [
    "DECAY_GATE",
    "EXPERIMENT_NAMES",
    "Check",
    "ExperimentReport",
    "experiment_defaults",
    "run_experiment",
]

# Empirical smallness gate for the decay functional: data whose smallness
# functional sits at or below this never shows a rising functional in the
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


def _run_recorded(
    s0: SimState, p: ModelParams, cfg: StepperConfig, extra_sink=None
) -> tuple[SimState, TrajectoryRecorder]:
    rec = TrajectoryRecorder(p)
    if extra_sink is None:
        sink = rec
    else:
        def sink(s: SimState) -> None:
            rec(s)
            extra_sink(s)
    final = run(s0, p, cfg, sink=sink)
    return final, rec


def _rel(x: float, ref: float) -> float:
    return x / ref if ref else float("inf")


def _exp_attractor(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    eps_values = [float(tok) for tok in str(o["epsilons"]).split(",") if tok.strip()]
    if not eps_values:
        raise ValueError("epsilons must list at least one amplitude")
    p = ModelParams(mu=o["mu"])
    cfg = StepperConfig(dt=o["dt"], t_end=o["t_end"], record_every=o["record_every"])
    checks: list[Check] = []
    artifacts: list[str] = []
    for i, eps in enumerate(eps_values):
        s0 = make_initial_data(ScenarioSpec("small-mixed", d=o["d"], n=o["n"], epsilon=eps, seed=o["seed"]))
        smallness = galerkin_initial_smallness(s0, p)
        final, rec = _run_recorded(s0, p, cfg)
        f0 = rec.records[0].fisher_functional
        rise = max(r.fisher_functional for r in rec.records) / f0 - 1.0
        path = os.path.join(out_dir, f"timeseries-eps{i}.csv")
        write_timeseries(rec.records, path)
        artifacts.append(path)
        detail = f"smallness={smallness:.3e} gate={DECAY_GATE:g} maxF/F0-1={rise:.3e}"
        if smallness <= DECAY_GATE:
            checks.append(Check(f"fisher-monotone[eps={eps:g}]", rise <= 1e-3, detail))
        else:
            checks.append(Check(f"above-gate[eps={eps:g}]", True, detail + " (not required to decay)"))
    return checks, artifacts


def _asymptotics(o: dict, out_dir: str, scenario: str) -> tuple[list[Check], list[str]]:
    s0 = make_initial_data(
        ScenarioSpec(scenario, d=o["d"], n=o["n"], epsilon=o["epsilon"], seed=o["seed"])
    )
    operator = "lame" if scenario.startswith("lame-") else "laplacian"
    p = ModelParams(mu=o["mu"], operator=operator, zeta=o["zeta"], lame_lambda=o["lame_lambda"])
    p.validate_for_dimension(s0.grid.d)
    cfg = StepperConfig(dt=o["dt"], t_end=o["t_end"], record_every=o["record_every"])
    final, rec = _run_recorded(s0, p, cfg)
    first, last = rec.records[0], rec.records[-1]

    chi_ratio = _rel(last.chi_h1, first.chi_h1)
    th_ratio = _rel(last.theta_l2_dist, first.theta_l2_dist)
    checks = [
        Check("chi-h1-decay", chi_ratio <= 1e-2,
              f"chi_h1 {first.chi_h1:.6e} -> {last.chi_h1:.6e} (ratio {chi_ratio:.3e}, need <= 1e-2)"),
        Check("theta-converges", th_ratio <= 1e-2,
              f"|theta-theta_inf| {first.theta_l2_dist:.6e} -> {last.theta_l2_dist:.6e} "
              f"(ratio {th_ratio:.3e}, need <= 1e-2)"),
    ]
    checks.append(_bounds_check(rec, scenario))

    ts = os.path.join(out_dir, "timeseries.csv")
    write_timeseries(rec.records, ts)
    artifacts = [ts]
    for name, f in (("final_u", final.u), ("final_v", final.v), ("final_theta", final.theta)):
        path = os.path.join(out_dir, name + ".tefld")
        write_snapshot(f, path, t=final.t)
        artifacts.append(path)
    return checks, artifacts


def _exp_asymptotics(o: dict, out_dir: str):
    return _asymptotics(o, out_dir, "small-mixed")


def _exp_lame_asymptotics(o: dict, out_dir: str):
    return _asymptotics(o, out_dir, "lame-small-mixed")


def _exp_oscillation(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    s0 = make_initial_data(
        ScenarioSpec("small-div-free", d=o["d"], n=o["n"], epsilon=o["epsilon"], seed=o["seed"])
    )
    p = ModelParams(mu=o["mu"])
    cfg = StepperConfig(dt=o["dt"], t_end=o["t_end"], record_every=o["record_every"])
    nu_series: list[tuple[float, float]] = []

    def track_nu(s: SimState) -> None:
        nu = helmholtz_project(s.u).div_free
        nu_series.append((s.t, field_norms(nu)["l2"]))

    final, rec = _run_recorded(s0, p, cfg, extra_sink=track_nu)

    e0 = rec.records[0].nu_energy
    drift = max(abs(r.nu_energy - e0) for r in rec.records) / e0
    tail_start = o["t_end"] - o["tail"]
    tail_max = max(norm for t, norm in nu_series if t >= tail_start)
    nu0 = nu_series[0][1]
    spread = max(
        max(r.theta_max - r.theta_min for r in rec.records),
        max(abs(r.theta_max - rec.records[0].theta_max) for r in rec.records),
    )
    checks = [
        Check("nu-energy-constant", drift <= 1e-5, f"relative drift {drift:.3e}, need <= 1e-5"),
        Check("nu-no-decay", tail_max >= 0.5 * nu0,
              f"max |nu| over t>={tail_start:g} is {tail_max:.6e}, half initial {0.5 * nu0:.6e}"),
        Check("theta-inert", spread <= 1e-10,
              f"max temperature spread {spread:.3e} (coupling vanishes identically)"),
    ]
    ts = os.path.join(out_dir, "timeseries.csv")
    write_timeseries(rec.records, ts)
    nu_path = os.path.join(out_dir, "nu_l2.csv")
    atomic_write_text(nu_path, "t,nu_l2\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in nu_series))
    return checks, [ts, nu_path]


def _bounds_check(rec: TrajectoryRecorder, label: str) -> Check:
    t_min0 = rec.records[0].theta_min
    t_max0 = rec.records[0].theta_max
    lo = min(r.theta_min for r in rec.records)
    hi = max(r.theta_max for r in rec.records)
    ok = lo >= 0.5 * t_min0 and hi <= 2.0 * t_max0
    return Check(
        f"theta-bounds[{label}]", ok,
        f"theta in [{lo:.6g}, {hi:.6g}], allowed [{0.5 * t_min0:.6g}, {2.0 * t_max0:.6g}]",
    )


def _exp_bounds(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    names = [tok.strip() for tok in str(o["scenarios"]).split(",") if tok.strip()]
    p = ModelParams(mu=o["mu"])
    cfg = StepperConfig(dt=o["dt"], t_end=o["t_end"], record_every=o["record_every"])
    checks: list[Check] = []
    artifacts: list[str] = []
    for name in names:
        s0 = make_initial_data(
            ScenarioSpec(name, d=o["d"], n=o["n"], epsilon=o["epsilon"], seed=o["seed"])
        )
        final, rec = _run_recorded(s0, p, cfg)
        checks.append(_bounds_check(rec, name))
        path = os.path.join(out_dir, f"timeseries-{name}.csv")
        write_timeseries(rec.records, path)
        artifacts.append(path)
    return checks, artifacts


def _exp_oracle_xcheck(o: dict, out_dir: str) -> tuple[list[Check], list[str]]:
    p = ModelParams(mu=o["mu"])
    times = [round(i * o["sample_dt"], 12) for i in range(int(round(o["t_end"] / o["sample_dt"])) + 1)]

    def one(n_grid: int, dealias: bool):
        s0 = make_initial_data(ScenarioSpec("band-limited", d=2, n=n_grid, epsilon=o["epsilon"]))
        sys = build_galerkin(s0, p, o["modes"])
        traj = integrate_galerkin(sys, o["t_end"])
        # the matching run integrates the same truncated system (products
        # restricted to the oracle's mode cube); the control lets products
        # alias freely on a grid too coarse to hold them
        band = o["modes"] if dealias else 0
        cfg = StepperConfig(dt=o["dt"], t_end=o["t_end"], dealias=dealias, product_band=band)
        states = spectral_states_at(s0, p, cfg, times)
        return compare_oracle(traj, states)

    main = one(o["n"], True)
    control = one(o["control_n"], False)
    tol = o["tolerance"]

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
        body = "t,u_dist,v_dist,theta_dist\n" + "".join(
            f"{t:.17g},{a:.17g},{b:.17g},{c:.17g}\n" for t, a, b, c in cmp.rows()
        )
        atomic_write_text(path, body)
        artifacts.append(path)
    return checks, artifacts


_EXPERIMENTS = {
    "attractor": (
        _exp_attractor,
        {"epsilons": "2e-3,5e-3,1e-2", "d": 2, "n": 0, "seed": 0,
         "mu": 1.0, "dt": 2e-3, "t_end": 20.0, "record_every": 10},
    ),
    "asymptotics": (
        _exp_asymptotics,
        {"epsilon": 0.0, "d": 2, "n": 0, "seed": 0, "mu": 1.0, "zeta": 1.0, "lame_lambda": 0.5,
         "dt": 2e-3, "t_end": 100.0, "record_every": 50},
    ),
    "lame-asymptotics": (
        _exp_lame_asymptotics,
        {"epsilon": 0.0, "d": 2, "n": 0, "seed": 0, "mu": 1.0, "zeta": 1.0, "lame_lambda": 0.5,
         "dt": 2e-3, "t_end": 100.0, "record_every": 50},
    ),
    "oscillation": (
        _exp_oscillation,
        {"epsilon": 0.0, "d": 2, "n": 0, "seed": 0, "mu": 1.0,
         "dt": 2e-3, "t_end": 50.0, "record_every": 5, "tail": 10.0},
    ),
    "bounds": (
        _exp_bounds,
        {"scenarios": "small-curl-free,small-mixed,random", "epsilon": 0.0, "d": 2, "n": 0,
         "seed": 0, "mu": 1.0, "dt": 2e-3, "t_end": 20.0, "record_every": 10},
    ),
    "oracle-xcheck": (
        _exp_oracle_xcheck,
        {"epsilon": 4e-2, "n": 16, "control_n": 8, "modes": 3, "mu": 1.0,
         "dt": 2e-4, "t_end": 1.0, "sample_dt": 0.1, "tolerance": 1e-5},
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
        kind = type(defaults[key])
        try:
            out[key] = kind(raw)
        except ValueError:
            raise ValueError(f"override {key} expects {kind.__name__}, got {raw!r}") from None
    return out


def run_experiment(
    name: str, overrides: dict[str, str] | None = None, out_dir: str | None = None
) -> ExperimentReport:
    """Run one named experiment and write its artifacts and report."""
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; know {', '.join(EXPERIMENT_NAMES)}")
    fn, defaults = _EXPERIMENTS[name]
    opts = _apply_overrides(defaults, overrides or {})
    target = out_dir or os.path.join("out", name)
    os.makedirs(target, exist_ok=True)
    started = time.perf_counter()
    checks, artifacts = fn(opts, target)
    report = ExperimentReport(name, checks, artifacts, elapsed=time.perf_counter() - started)
    report_path = os.path.join(target, "report.txt")
    atomic_write_text(report_path, f"experiment: {name}\n" + "\n".join(report.lines()) + "\n")
    report.artifacts.append(report_path)
    return report
