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

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, load_config, serialize_config
from .dynamics import ModelParams, NonFinite, PositivityLoss, SimState
from .experiments import EXPERIMENT_NAMES, _run_recorded, experiment_defaults, run_experiment
from .grid import ScalarField, VectorField, field_norms, quadrature
from .oracle import crosscheck
from .operators import curl, divergence, helmholtz_project
from .scenarios import make_initial_data
from .snapshots import (
    SnapshotError,
    atomic_write_text,
    read_header,
    read_snapshot,
    read_state,
    write_snapshot,
    write_state,
)

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ts = os.path.join(cfg.out_dir, "timeseries.csv")
    final, records = _run_recorded(cfg, ts)
    config_path = os.path.join(cfg.out_dir, "run-config.txt")
    paths = [ts, *write_state(final, cfg.out_dir), config_path]
    atomic_write_text(config_path, serialize_config(cfg))

    first, last = records[0], records[-1]
    drift = max(abs(r.energy - first.energy) for r in records) / abs(first.energy)
    print(f"scenario {cfg.scenario.name} (d={final.grid.d}, n={final.grid.n_per_axis[0]}), "
          f"{cfg.stepper.n_steps()} steps to t={final.t:g}")
    print(f"energy drift {drift:.3e}, entropy change {last.entropy - first.entropy:+.6e}")
    print(f"theta range [{last.theta_min:.6g}, {last.theta_max:.6g}]")
    for path in paths:
        print(f"wrote {path}")
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
    norms = field_norms(f)
    scale = max(norms["linf"], 1e-300)

    print(f"vector field on n={f.grid.n_per_axis}, t={t:g}")
    print(f"  |field|_L2        = {norms['l2']:.12e}")
    print(f"  |div-free|_L2     = {field_norms(parts.div_free)['l2']:.12e}")
    print(f"  |curl-free|_L2    = {field_norms(parts.curl_free)['l2']:.12e}")
    print(f"  |potential|_L2    = {field_norms(parts.potential)['l2']:.12e}")
    print(f"  reconstruction    = {recon:.3e}")
    print(f"  div residual      = {div_resid:.3e}")
    print(f"  curl residual     = {curl_resid:.3e}")
    print(f"  orthogonality     = {abs(cross):.3e}")
    if args.out_dir:
        for name, part in (("div_free", parts.div_free), ("curl_free", parts.curl_free),
                           ("potential", parts.potential)):
            path = os.path.join(args.out_dir, name + ".tefld")
            write_snapshot(part, path, t=t)
            print(f"wrote {path}")
    ok = max(recon, div_resid, curl_resid) <= 1e-11 * scale and abs(cross) <= 1e-11 * scale**2
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_diagnose(args: argparse.Namespace) -> int:
    p = ModelParams(mu=args.mu, operator=args.operator, zeta=args.zeta, lame_lambda=args.lame_lambda)
    rows: list[tuple[str, float]]
    if os.path.isdir(args.snapshot):
        s = read_state(args.snapshot)
        p.validate_for_dimension(s.grid.d)
        print(f"state at t={s.t:g} on n={s.grid.n_per_axis}")
        rec = diag.TrajectoryRecorder(p, compute_identity=True, dt_micro=args.dt_micro)
        rec(s)
        rows = [(name, getattr(rec.records[0], name)) for name in (
            "energy", "entropy", "entropy_production", "fisher_functional",
            "fisher_identity_residual", "theta_min", "theta_max")]
    else:
        f = read_snapshot(args.snapshot)
        t = read_header(args.snapshot).t
        if isinstance(f, ScalarField):
            print(f"temperature field at t={t:g} on n={f.grid.n_per_axis}")
            s = SimState(t, VectorField.zeros(f.grid), VectorField.zeros(f.grid), f)
            rows = [
                ("entropy", diag.entropy(s)),
                ("entropy_production", diag.entropy_production(s)),
                ("theta_min", float(np.min(f.values))),
                ("theta_max", float(np.max(f.values))),
                ("mean", float(np.mean(f.values))),
            ]
        else:
            print(f"vector field at t={t:g} on n={f.grid.n_per_axis}")
            parts = helmholtz_project(f)
            norms = field_norms(f)
            rows = [
                ("l2", norms["l2"]),
                ("h1_semi", norms["h1_semi"]),
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
    n_steps = cfg.stepper.n_steps()
    if n_steps < 1:
        raise ValueError("compare-oracle needs t_end > 0")
    stride = max(1, n_steps // 10)
    times = [i * cfg.stepper.dt for i in sorted({*range(0, n_steps + 1, stride), n_steps})]
    s0 = make_initial_data(cfg.scenario)
    cmp = crosscheck(s0, cfg.params, cfg.stepper, args.modes, times)

    print(f"{'t':>10} {'|du|_L2':>13} {'|dv|_L2':>13} {'|dtheta|_L2':>13}")
    for t, du, dv, dth in cmp.rows():
        print(f"{t:10.4f} {du:13.4e} {dv:13.4e} {dth:13.4e}")
    print(f"sup distance {cmp.sup_distance:.6e} (tolerance {args.tolerance:g}, "
          f"modes {args.modes}, n {s0.grid.n_per_axis[0]}, dealias {cfg.stepper.dealias})")
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
    except (ConfigError, SnapshotError, PositivityLoss, NonFinite, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
