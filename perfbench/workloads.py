"""The benchmark workloads: inputs, one verdict pass of ops, and their gates.

An op is one trajectory, oracle case or artifact round trip. It returns the
number of Strang steps it completed, and raises when it fails: either the
library raised, or an output missed a correctness gate (`GateFailure`). A
pass is the list of ops that together reach the workload's verdict; its wall
time is the workload's time to verdict.

Every call into thermoelast goes through the Tracer `tr`, named
`<layer>.<what>`, so a traced run sees each layer boundary.
"""

from __future__ import annotations

import math
import os
import time
from functools import partial

import numpy as np

# the tolerances of the acceptance criteria the workloads reproduce
DRIFT_TOL = 1e-4  # criterion 5
HALVING_MIN = 3.5  # criterion 5: drift ratio across dt and dt/2
ENTROPY_STEP_MIN = -1e-8  # criterion 6
ORACLE_TOL = 1e-5  # criterion 13
DECOMPOSE_TOL = 1e-11  # `thermoelast decompose` verdict


class GateFailure(Exception):
    """An op finished, but one of its outputs missed a correctness gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def relative_drift(energies: list[float]) -> float:
    e0 = energies[0]
    return max(abs(e - e0) for e in energies) / abs(e0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Workload:
    """Base: subclasses build inputs in `setup` and list one pass in `ops`."""

    name = ""
    seeded = False
    field_shape: tuple[int, ...] = ()  # of a vector field; sizes the reference computation

    def __init__(self, te, tr, seed: int, workdir: str):
        self.te, self.tr, self.seed, self.workdir = te, tr, seed, workdir
        # worst value seen over all passes, by end-to-end quality metric
        self.quality: dict[str, float] = {}

    def note(self, metric: str, value: float) -> None:
        self.quality[metric] = max(value, self.quality.get(metric, value))

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def initial_data(self, spec):
        return self.tr.call("scenarios.initial_data", self.te.make_initial_data, spec)

    def roundtrip_snapshot(self, field, stem: str, t: float):
        """Write one field, read it back and require the same bits and time stamp."""
        te, tr = self.te, self.tr
        path = os.path.join(self.workdir, stem + ".tefld")
        tr.call("snapshots.write_snapshot", te.write_snapshot, field, path, t=t)
        tr.add("snapshots.bytes_written", os.path.getsize(path))
        back = tr.call("snapshots.read_snapshot", te.read_snapshot, path, grid=field.grid)
        header = tr.call("snapshots.read_header", te.read_header, path)
        data = field.values if hasattr(field, "values") else field.components
        got = back.values if hasattr(back, "values") else back.components
        gate(type(back) is type(field) and same_bits(data, got) and header.t == t,
             f"snapshot {stem} did not round-trip bit for bit")
        return back

    def decompose(self, f) -> None:
        """The `thermoelast decompose` verdict on a vector field."""
        te, tr = self.te, self.tr
        parts = tr.call("helmholtz.project", te.helmholtz_project, f)
        recon = float(np.max(np.abs(parts.div_free.components + parts.curl_free.components
                                    - f.components)))
        div_f = tr.call("operators.divergence", te.divergence, parts.div_free)
        curl_f = tr.call("operators.curl", te.curl, parts.curl_free)
        div_resid = tr.call("grid.field_norms", te.field_norms, div_f)["linf"]
        curl_resid = tr.call("grid.field_norms", te.field_norms, curl_f)["linf"]
        cross = tr.call("grid.quadrature", te.quadrature, f.grid,
                        np.sum(parts.div_free.components * parts.curl_free.components, axis=0))
        scale = max(tr.call("grid.field_norms", te.field_norms, f)["linf"], 1e-300)
        worst = max(recon, div_resid, curl_resid)
        gate(worst <= DECOMPOSE_TOL * scale and abs(cross) <= DECOMPOSE_TOL * scale**2,
             f"decompose verdict failed: residual {worst:.3e}, cross {abs(cross):.3e}, "
             f"scale {scale:.3e}")


class LedgerAudit(Workload):
    """Criteria 5-7: per-step ledger records, both operators, at dt and dt/2."""

    name = "ledger-2d"
    n = 32
    field_shape = (2, 32, 32)
    t_end = 0.25
    record_every = 1
    dts = (1e-3, 5e-4)

    def setup(self) -> None:
        te = self.te
        self.s0 = self.initial_data(te.ScenarioSpec("small-mixed", n=self.n, epsilon=0.2))
        self.params = {
            "laplacian": te.ModelParams(mu=1.0),
            "lame": te.ModelParams(mu=1.0, operator="lame", zeta=1.0, lame_lambda=0.5),
        }
        self.cfgs = {dt: te.StepperConfig(dt=dt, t_end=self.t_end, record_every=self.record_every)
                     for dt in self.dts}

    def ops(self):
        self._coarse_drift: dict[str, float] = {}
        return [(f"{op}@dt={dt:g}", partial(self.trajectory, op, dt))
                for op in self.params for dt in self.dts]

    def trajectory(self, op: str, dt: float) -> int:
        te, tr = self.te, self.tr
        p, cfg = self.params[op], self.cfgs[dt]
        rec = te.TrajectoryRecorder(p, battery="ledger")
        tr.run(te.run, self.s0.copy(), p, cfg, sink=tr.sink("diagnostics.record", rec))
        drift = relative_drift([r.energy for r in rec.records])
        residual = tr.call("diagnostics.dissipation_residual", te.dissipation_residual, rec.records)
        ent = [r.entropy for r in rec.records]
        worst_step = min(b - a for a, b in zip(ent, ent[1:]))
        self.note("energy_drift", drift)
        self.note("ledger_residual", residual)
        gate(drift <= DRIFT_TOL, f"{op}@dt={dt:g}: energy drift {drift:.3e} > {DRIFT_TOL:g}")
        gate(worst_step >= ENTROPY_STEP_MIN,
             f"{op}@dt={dt:g}: entropy increment {worst_step:.3e} < {ENTROPY_STEP_MIN:g}")
        if dt == self.dts[0]:
            self._coarse_drift[op] = drift
        else:
            coarse = self._coarse_drift.get(op)
            gate(coarse is not None, f"{op}: no dt={self.dts[0]:g} run to compare with")
            ratio = coarse / drift if drift > 0 else math.inf
            gate(ratio >= HALVING_MIN, f"{op}: drift halving ratio {ratio:.2f} < {HALVING_MIN}")
        return cfg.n_steps()


class FineLedger(LedgerAudit):
    """The 2D N=128 case at the acceptance amplitude, sparse ledger records."""

    name = "fine-2d"
    n = 128
    field_shape = (2, 128, 128)
    record_every = 25


class Wave3D(Workload):
    """3D N=48 Lame run: large transforms, energy at the ends only, snapshots."""

    name = "wave-3d"
    seeded = True
    field_shape = (3, 48, 48, 48)
    steps = 20
    cadence = 5

    def setup(self) -> None:
        te = self.te
        self.s0 = self.initial_data(te.ScenarioSpec("lame-random", d=3, n=48, seed=self.seed))
        self.p = te.ModelParams(mu=1.0, operator="lame", zeta=1.0, lame_lambda=0.5)
        self.cfg = te.StepperConfig(dt=1e-3, t_end=self.steps * 1e-3, record_every=self.cadence)

    def ops(self):
        self.final = None
        return [("trajectory", self.trajectory), ("snapshots", self.roundtrip)]

    def trajectory(self) -> int:
        te, tr = self.te, self.tr
        stamps: list[float] = []
        e0 = tr.call("diagnostics.record", te.total_energy, self.s0, self.p)
        final = tr.run(te.run, self.s0, self.p, self.cfg,
                       sink=tr.sink("dynamics.sink", lambda s: stamps.append(time.perf_counter())))
        e1 = tr.call("diagnostics.record", te.total_energy, final, self.p)
        drift = relative_drift([e0, e1])
        self.note("energy_drift", drift)
        gate(len(stamps) == self.steps // self.cadence + 1, f"sink saw {len(stamps)} states")
        gate(drift <= DRIFT_TOL, f"energy drift {drift:.3e} > {DRIFT_TOL:g}")
        self.final = final
        return self.cfg.n_steps()

    def roundtrip(self) -> int:
        final = self.final
        gate(final is not None, "no trajectory to write")
        u = self.roundtrip_snapshot(final.u, "final_u", final.t)
        self.roundtrip_snapshot(final.v, "final_v", final.t)
        self.roundtrip_snapshot(final.theta, "final_theta", final.t)
        self.decompose(u)
        return 0


RUN_CONFIG = """\
# the `thermoelast run` case of the run-2d benchmark workload
scenario = random
d = 2
n = 32
seed = {seed}
operator = laplacian
dt = 0.001
t_end = 0.2
record_every = 1
out_dir = {out_dir}
"""


class RunCLI(Workload):
    """The default `thermoelast run` path, then `decompose` and `diagnose` on its output."""

    name = "run-2d"
    seeded = True
    field_shape = (2, 32, 32)

    def setup(self) -> None:
        te = self.te
        text = RUN_CONFIG.format(seed=self.seed, out_dir=os.path.relpath(self.workdir))
        self.cfg = self.tr.call("config.parse", te.parse_config, text)
        self.s0 = self.initial_data(self.cfg.scenario)
        self.cfg.params.validate_for_dimension(self.s0.grid.d)

    def ops(self):
        self.result = None
        return [("trajectory", self.trajectory), ("artifacts", self.roundtrip)]

    def trajectory(self) -> int:
        te, tr, cfg = self.te, self.tr, self.cfg
        rec = te.TrajectoryRecorder(cfg.params)
        final = tr.run(te.run, self.s0, cfg.params, cfg.stepper, sink=tr.sink("diagnostics.record", rec))
        drift = relative_drift([r.energy for r in rec.records])
        self.note("energy_drift", drift)
        self.note("ledger_residual",
                  tr.call("diagnostics.dissipation_residual", te.dissipation_residual, rec.records))
        gate(drift <= DRIFT_TOL, f"energy drift {drift:.3e} > {DRIFT_TOL:g}")
        self.result = (final, rec.records)
        return cfg.stepper.n_steps()

    def roundtrip(self) -> int:
        te, tr = self.te, self.tr
        gate(self.result is not None, "no trajectory to write")
        final, records = self.result
        csv = os.path.join(self.cfg.out_dir, "timeseries.csv")
        tr.call("snapshots.write_timeseries", te.write_timeseries, records, csv)
        tr.add("snapshots.bytes_written", os.path.getsize(csv))
        back = tr.call("snapshots.read_timeseries", te.read_timeseries, csv)
        gate(same_bits(np.array([list(vars(r).values()) for r in records]),
                       np.array([list(vars(r).values()) for r in back])),
             "timeseries.csv did not round-trip bit for bit")
        u = self.roundtrip_snapshot(final.u, "final_u", final.t)
        v = self.roundtrip_snapshot(final.v, "final_v", final.t)
        theta = self.roundtrip_snapshot(final.theta, "final_theta", final.t)
        self.decompose(u)
        self.diagnose(te.SimState(final.t, u, v, theta), records[-1])
        return 0

    def diagnose(self, s, last) -> None:
        """The `thermoelast diagnose` battery on the re-read state."""
        te, tr, p = self.te, self.tr, self.cfg.params
        rows = {
            "energy": tr.call("diagnostics.total_energy", te.total_energy, s, p),
            "entropy": tr.call("diagnostics.entropy", te.entropy, s),
            "entropy_production": tr.call("diagnostics.entropy_production", te.entropy_production, s),
            "fisher_functional": tr.call("diagnostics.fisher_functional", te.fisher_functional, s, p),
            "fisher_identity_residual": tr.call("diagnostics.fisher_identity_residual",
                                                te.fisher_identity_residual, s, p, dt_micro=1e-5),
        }
        bad = [k for k, x in rows.items() if not math.isfinite(x)]
        gate(not bad, f"diagnose gave non-finite {', '.join(bad)}")
        gate(rows["energy"] == last.energy and rows["entropy"] == last.entropy,
             "diagnose of the re-read state disagrees with the run's last record")


class OracleXCheck(Workload):
    """Criterion 13: matched run against the truncated-system oracle, plus the aliased control."""

    name = "xcheck-2d"
    field_shape = (2, 16, 16)
    modes = 3
    t_end = 1.0
    # case: (grid points, dealias, product band)
    cases = {"matched": (16, True, 3), "control": (8, False, 0)}

    def setup(self) -> None:
        te, tr = self.te, self.tr
        self.p = te.ModelParams(mu=1.0)
        self.times = [round(i * 0.1, 12) for i in range(11)]
        self.inputs = {}
        for case, (n, dealias, band) in self.cases.items():
            s0 = self.initial_data(te.ScenarioSpec("band-limited", d=2, n=n, epsilon=4e-2))
            system = tr.call("oracle.build", te.build_galerkin, s0, self.p, self.modes)
            cfg = te.StepperConfig(dt=2e-4, t_end=self.t_end, dealias=dealias, product_band=band)
            self.inputs[case] = (s0, system, cfg)

    def ops(self):
        self._matched = None
        return [(case, partial(self.case, case)) for case in self.cases]

    def case(self, case: str) -> int:
        te, tr = self.te, self.tr
        s0, system, cfg = self.inputs[case]
        traj = tr.call("oracle.integrate", te.integrate_galerkin, system, self.t_end)
        states = tr.call("oracle.capture", te.spectral_states_at, s0, self.p, cfg, self.times)
        dist = tr.call("oracle.compare", te.compare_oracle, traj, states).sup_distance
        if case == "matched":
            self.note("oracle_err", dist)
            gate(dist <= ORACLE_TOL, f"matched distance {dist:.3e} > {ORACLE_TOL:g}")
            self._matched = dist
        else:
            gate(dist >= 10.0 * ORACLE_TOL, f"control distance {dist:.3e} < {10.0 * ORACLE_TOL:g}")
            gate(self._matched is not None, "no matched case to separate from")
            gate(dist >= 10.0 * self._matched,
                 f"control/matched = {dist / self._matched:.3g} < 10")
        return cfg.n_steps()


WORKLOADS = {w.name: w for w in (LedgerAudit, Wave3D, RunCLI, OracleXCheck, FineLedger)}
