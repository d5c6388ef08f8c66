"""Command-line surface.

    thermoelast run <config>               integrate and write artifacts
    thermoelast decompose <snapshot>       Helmholtz-split a vector snapshot
    thermoelast diagnose <snapshot> --mu M report invariants of a saved state
    thermoelast compare-oracle <config>    pseudo-spectral run vs exact truncation
    thermoelast experiment <name>          named verification experiment

Exit codes: 0 when the command's verdict passes (or it has none), 2 when a
verdict fails, 1 on any error (bad config, unreadable file, lost positivity).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, load_config, serialize_config
from .dynamics import ModelParams, NonFinite, PositivityLoss, SimState, run
from .experiments import EXPERIMENT_NAMES, experiment_defaults, run_experiment
from .grid import ScalarField, VectorField, field_norms, quadrature
from .helmholtz import helmholtz_project
from .oracle import build_galerkin, compare_oracle, integrate_galerkin, spectral_states_at
from .operators import curl, divergence
from .scenarios import make_initial_data
from .snapshots import (
    SnapshotError,
    atomic_write_text,
    read_header,
    read_snapshot,
    write_snapshot,
    write_timeseries,
)

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    s0 = make_initial_data(cfg.scenario)
    cfg.params.validate_for_dimension(s0.grid.d)
    rec = diag.TrajectoryRecorder(cfg.params)
    final = run(s0, cfg.params, cfg.stepper, sink=rec)

    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = {"timeseries": os.path.join(cfg.out_dir, "timeseries.csv")}
    write_timeseries(rec.records, paths["timeseries"])
    for name, f in (("final_u", final.u), ("final_v", final.v), ("final_theta", final.theta)):
        paths[name] = os.path.join(cfg.out_dir, name + ".tefld")
        write_snapshot(f, paths[name], t=final.t)
    paths["config"] = os.path.join(cfg.out_dir, "run-config.txt")
    atomic_write_text(paths["config"], serialize_config(cfg))

    first, last = rec.records[0], rec.records[-1]
    drift = max(abs(r.energy - first.energy) for r in rec.records) / abs(first.energy)
    print(f"scenario {cfg.scenario.name} (d={s0.grid.d}, n={s0.grid.n_per_axis[0]}), "
          f"{cfg.stepper.n_steps()} steps to t={final.t:g}")
    print(f"energy drift {drift:.3e}, entropy change {last.entropy - first.entropy:+.6e}")
    print(f"theta range [{last.theta_min:.6g}, {last.theta_max:.6g}]")
    for key in ("timeseries", "final_u", "final_v", "final_theta", "config"):
        print(f"wrote {paths[key]}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    f = read_snapshot(args.snapshot)
    if not isinstance(f, VectorField):
        raise SnapshotError(f"{args.snapshot}: decompose expects a vector snapshot")
    t = read_header(args.snapshot).t
    parts = helmholtz_project(f)
    recon = float(np.max(np.abs(parts.div_free.components + parts.curl_free.components - f.components)))
    div_resid = field_norms(divergence(parts.div_free))["linf"]
    curl_resid = field_norms(curl(parts.curl_free))["linf"]
    cross = quadrature(f.grid, np.sum(parts.div_free.components * parts.curl_free.components, axis=0))
    scale = max(field_norms(f)["linf"], 1e-300)

    print(f"vector field on n={f.grid.n_per_axis}, t={t:g}")
    print(f"  |field|_L2        = {field_norms(f)['l2']:.12e}")
    print(f"  |div-free|_L2     = {field_norms(parts.div_free)['l2']:.12e}")
    print(f"  |curl-free|_L2    = {field_norms(parts.curl_free)['l2']:.12e}")
    print(f"  |potential|_L2    = {field_norms(parts.potential)['l2']:.12e}")
    print(f"  reconstruction    = {recon:.3e}")
    print(f"  div residual      = {div_resid:.3e}")
    print(f"  curl residual     = {curl_resid:.3e}")
    print(f"  orthogonality     = {abs(cross):.3e}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, part in (("div_free", parts.div_free), ("curl_free", parts.curl_free),
                           ("potential", parts.potential)):
            path = os.path.join(args.out_dir, name + ".tefld")
            write_snapshot(part, path, t=t)
            print(f"wrote {path}")
    ok = max(recon, div_resid, curl_resid) <= 1e-11 * scale and abs(cross) <= 1e-11 * scale**2
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _model_from_args(args: argparse.Namespace) -> ModelParams:
    return ModelParams(mu=args.mu, operator=args.operator, zeta=args.zeta,
                       lame_lambda=args.lame_lambda)


def _state_paths(root: str) -> dict[str, str] | None:
    """Locate a u/v/theta snapshot triple under a directory."""
    for pattern in ("final_{}.tefld", "{}.tefld"):
        paths = {k: os.path.join(root, pattern.format(k)) for k in ("u", "v", "theta")}
        if all(os.path.exists(p) for p in paths.values()):
            return paths
    return None


def _diagnose_state(s: SimState, p: ModelParams, dt_micro: float) -> list[tuple[str, float]]:
    return [
        ("energy", diag.total_energy(s, p)),
        ("entropy", diag.entropy(s)),
        ("entropy_production", diag.entropy_production(s)),
        ("fisher_functional", diag.fisher_functional(s, p)),
        ("fisher_identity_residual", diag.fisher_identity_residual(s, p, dt_micro=dt_micro)),
        ("theta_min", field_norms(s.theta)["min"]),
        ("theta_max", field_norms(s.theta)["max"]),
    ]


def _cmd_diagnose(args: argparse.Namespace) -> int:
    p = _model_from_args(args)
    rows: list[tuple[str, float]]
    if os.path.isdir(args.snapshot):
        paths = _state_paths(args.snapshot)
        if paths is None:
            raise SnapshotError(
                f"{args.snapshot}: no u/v/theta snapshot triple "
                "(expected final_u.tefld, final_v.tefld, final_theta.tefld)"
            )
        u = read_snapshot(paths["u"])
        v = read_snapshot(paths["v"], grid=u.grid)
        theta = read_snapshot(paths["theta"], grid=u.grid)
        if not isinstance(u, VectorField) or not isinstance(v, VectorField) \
                or not isinstance(theta, ScalarField):
            raise SnapshotError(f"{args.snapshot}: triple has wrong field kinds")
        t = read_header(paths["u"]).t
        p.validate_for_dimension(u.grid.d)
        s = SimState(t, u, v, theta)
        print(f"state at t={t:g} on n={u.grid.n_per_axis}")
        rows = _diagnose_state(s, p, args.dt_micro)
    else:
        f = read_snapshot(args.snapshot)
        t = read_header(args.snapshot).t
        if isinstance(f, ScalarField):
            print(f"temperature field at t={t:g} on n={f.grid.n_per_axis}")
            s = SimState(t, VectorField.zeros(f.grid), VectorField.zeros(f.grid), f)
            rows = [
                ("entropy", diag.entropy(s)),
                ("entropy_production", diag.entropy_production(s)),
                ("theta_min", field_norms(f)["min"]),
                ("theta_max", field_norms(f)["max"]),
                ("mean", field_norms(f)["mean"]),
            ]
        else:
            print(f"vector field at t={t:g} on n={f.grid.n_per_axis}")
            parts = helmholtz_project(f)
            rows = [
                ("l2", field_norms(f)["l2"]),
                ("h1_semi", field_norms(f)["h1_semi"]),
                ("div_free_l2", field_norms(parts.div_free)["l2"]),
                ("curl_free_l2", field_norms(parts.curl_free)["l2"]),
            ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}} = {value:.12e}")
    ok = all(np.isfinite(value) for _, value in rows)
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_compare_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.params.operator != "laplacian":
        raise ValueError("the truncated-system oracle only covers the laplacian operator")
    s0 = make_initial_data(cfg.scenario)
    sys_ = build_galerkin(s0, cfg.params, args.modes)
    traj = integrate_galerkin(sys_, cfg.stepper.t_end)

    # unless the config pins its own product treatment, match the oracle's
    # truncation so the residual is pure time-integration error
    stepper = cfg.stepper
    if stepper.dealias and stepper.product_band == 0:
        stepper = replace(stepper, product_band=args.modes)

    n_steps = stepper.n_steps()
    if n_steps < 1:
        raise ValueError("compare-oracle needs t_end > 0")
    stride = max(1, n_steps // 10)
    idxs = list(range(0, n_steps + 1, stride))
    if idxs[-1] != n_steps:
        idxs.append(n_steps)
    times = [i * stepper.dt for i in idxs]
    states = spectral_states_at(s0, cfg.params, stepper, times)
    cmp = compare_oracle(traj, states)

    print(f"{'t':>10} {'|du|_L2':>13} {'|dv|_L2':>13} {'|dtheta|_L2':>13}")
    for t, du, dv, dth in cmp.rows():
        print(f"{t:10.4f} {du:13.4e} {dv:13.4e} {dth:13.4e}")
    print(f"sup distance {cmp.sup_distance:.6e} (tolerance {args.tolerance:g}, "
          f"modes {args.modes}, n {s0.grid.n_per_axis[0]}, dealias {stepper.dealias})")
    ok = cmp.sup_distance <= args.tolerance
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_experiment(args: argparse.Namespace) -> int:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    report = run_experiment(args.name, overrides, out_dir=args.out_dir)
    print(f"experiment {report.name} ({report.elapsed:.1f}s)")
    for line in report.lines():
        print(line)
    for path in report.artifacts:
        print(f"wrote {path}")
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoelast",
        description="Pseudo-spectral simulator and verification harness for "
                    "coupled wave-heat dynamics on periodic boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured scenario and write artifacts")
    p_run.add_argument("config", help="path to a key = value configuration file")
    p_run.set_defaults(fn=_cmd_run)

    p_dec = sub.add_parser("decompose", help="Helmholtz-split a vector snapshot")
    p_dec.add_argument("snapshot", help="TEFLD1 vector snapshot")
    p_dec.add_argument("--out-dir", default=None, help="also write the parts here")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_diag = sub.add_parser("diagnose", help="report invariants of a saved state")
    p_diag.add_argument("snapshot", help="TEFLD1 snapshot, or a directory holding a u/v/theta triple")
    p_diag.add_argument("--mu", type=float, required=True, help="coupling strength")
    p_diag.add_argument("--operator", choices=("laplacian", "lame"), default="laplacian")
    p_diag.add_argument("--zeta", type=float, default=1.0)
    p_diag.add_argument("--lame-lambda", type=float, default=0.5)
    p_diag.add_argument("--dt-micro", type=float, default=1e-5,
                        help="step for the identity-residual probe")
    p_diag.set_defaults(fn=_cmd_diagnose)

    p_cmp = sub.add_parser("compare-oracle",
                           help="compare a run against the exact truncated system")
    p_cmp.add_argument("config", help="configuration for the pseudo-spectral run")
    p_cmp.add_argument("--modes", type=int, default=3, help="oracle mode cube radius")
    p_cmp.add_argument("--tolerance", type=float, default=1e-5)
    p_cmp.set_defaults(fn=_cmd_compare_oracle)

    p_exp = sub.add_parser("experiment", help="run a named verification experiment")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override an experiment default (repeatable); "
                            "defaults per experiment: "
                            + "; ".join(f"{n}: {', '.join(sorted(experiment_defaults(n)))}"
                                        for n in EXPERIMENT_NAMES))
    p_exp.add_argument("--out-dir", default=None, help="artifact directory (default out/<name>)")
    p_exp.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SnapshotError, PositivityLoss, NonFinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
