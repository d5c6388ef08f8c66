"""Package acceptance gate.

Every advertised guarantee of the simulator is checked here end to end, one
test per guarantee, each printing a single verdict line that stays visible
under plain `pytest -v`.  Tolerances and time budgets are part of the
package contract and are asserted, not just reported.

The expensive trajectory fixtures are module-scoped and shared: the
conservation runs feed the drift, entropy, dissipation, and temperature-bound
checks; the long mixed run feeds both the Fisher monotonicity and bound
checks.
"""

import math
import time

import numpy as np
import pytest

from thermoelast import (
    ModelParams,
    ScalarField,
    StepperConfig,
    TorusGrid,
    VectorField,
    curl,
    curl_curl,
    divergence,
    dissipation_residual,
    fisher_identity_residual,
    galerkin_initial_smallness,
    gradient,
    helmholtz_project,
    lame_apply,
    laplacian,
    make_initial_data,
    parse_config,
    quadrature,
    read_header,
    read_snapshot,
    read_timeseries,
    run,
    run_experiment,
    serialize_config,
    write_snapshot,
    write_timeseries,
)
from thermoelast.diagnostics import (
    DiagnosticsRecord,
    RECORD_FIELDS,
    TrajectoryRecorder,
    hessian_inequality_constant,
    sqrt_hessian_integral,
    weighted_log_hessian_integral,
)
from thermoelast.experiments import DECAY_GATE, _bounds_check, _fisher_rise
from thermoelast.grid import field_norms, spectral_l2_sq
from thermoelast.scenarios import ScenarioSpec

from conftest import LEDGER_NAN_COLUMNS, random_scalar, random_vector


@pytest.fixture
def verdict(capsys):
    """Print one checklist line per criterion, then enforce it."""

    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        assert ok, f"{name}: {detail}"

    return emit


def _grids():
    return [TorusGrid((32, 32)), TorusGrid((16, 16, 16))]


# ---------------------------------------------------------------- criterion 1
def test_criterion_01_operator_exactness(verdict):
    t0 = time.perf_counter()
    worst = 0.0

    def rel_gap(got, want):
        scale = max(float(np.max(np.abs(want))), 1e-300)
        return float(np.max(np.abs(got - want))) / scale

    # single modes, 2D
    g2 = TorusGrid((32, 32))
    x, y = g2.meshes()
    f2 = ScalarField(g2, np.sin(3 * x + 2 * y) + 0 * y)
    worst = max(worst, rel_gap(gradient(f2).components[0], 3 * np.cos(3 * x + 2 * y) + 0 * y))
    worst = max(worst, rel_gap(gradient(f2).components[1], 2 * np.cos(3 * x + 2 * y) + 0 * y))
    worst = max(worst, rel_gap(laplacian(f2).values, -13 * f2.values))
    w2 = VectorField.from_functions(
        g2, [lambda *m: np.sin(m[0] + m[1]) + 0 * m[1], lambda *m: np.sin(m[0] + m[1]) + 0 * m[1]]
    )
    worst = max(worst, rel_gap(divergence(w2).values, 2 * np.cos(x + y) + 0 * y))
    # w2 is curl-free with |k|^2 = 2, so the elastic operator acts as
    # (2 zeta + lambda) |k|^2 = 2.5 * 2 on it
    worst = max(worst, rel_gap(lame_apply(w2, zeta=1.0, lam=0.5).components,
                               5.0 * w2.components))

    # single modes, 3D
    g3 = TorusGrid((16, 16, 16))
    x3, y3, z3 = g3.meshes()
    f3 = ScalarField(g3, np.sin(x3 + 2 * y3 + 3 * z3) + 0 * (x3 + y3 + z3))
    worst = max(worst, rel_gap(laplacian(f3).values, -14 * f3.values))
    w3 = VectorField.from_functions(
        g3,
        [lambda *m: np.sin(m[1]) + 0 * (m[0] + m[2]),
         lambda *m: 0.0 * (m[0] + m[1] + m[2]),
         lambda *m: 0.0 * (m[0] + m[1] + m[2])],
    )
    worst = max(worst, rel_gap(curl(w3).components[2], -np.cos(y3) + 0 * (x3 + z3)))

    # vector identity on random fields
    rng = np.random.default_rng(101)
    for grid in _grids():
        for _ in range(50):
            w = random_vector(grid, rng)
            lhs = laplacian(w).components
            rhs = gradient(divergence(w)).components - curl_curl(w).components
            worst = max(worst, rel_gap(rhs, lhs))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    verdict(1, "differential operators exact on the grid", ok,
            f"worst relative gap {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_02_helmholtz_decomposition(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(202)
    for grid in _grids():
        for _ in range(50):
            w = random_vector(grid, rng)
            scale = max(field_norms(w)["linf"], 1e-300)
            parts = helmholtz_project(w)
            recon = np.max(np.abs(parts.div_free.components + parts.curl_free.components
                                  - w.components))
            div_resid = field_norms(divergence(parts.div_free))["linf"]
            curl_resid = field_norms(curl(parts.curl_free))["linf"]
            cross = abs(quadrature(grid, np.sum(parts.div_free.components
                                                * parts.curl_free.components, axis=0)))
            again = helmholtz_project(parts.div_free)
            idem = np.max(np.abs(again.div_free.components - parts.div_free.components))
            grad_pot = gradient(parts.potential)
            pot_gap = np.max(np.abs(grad_pot.components - parts.curl_free.components))
            worst = max(
                worst,
                recon / scale,
                div_resid / scale,
                curl_resid / scale,
                cross / (scale**2 * grid.measure),
                idem / scale,
                pot_gap / scale,
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    verdict(2, "orthogonal splitting reconstructs and annihilates", ok,
            f"worst residual {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------- criterion 3
def test_criterion_03_gradient_laplacian_inequality(verdict):
    rng = np.random.default_rng(303)
    worst_excess = -math.inf
    for grid in _grids():
        for _ in range(50):
            f = random_scalar(grid, rng, zero_mean=True)
            spec = f.spectral()
            grad = math.sqrt(spectral_l2_sq(grid, spec, weight=grid.k_sq))
            lap = math.sqrt(spectral_l2_sq(grid, spec, weight=grid.k_sq**2))
            worst_excess = max(worst_excess, (grad - lap) / lap)
    ok = worst_excess <= 1e-12
    verdict(3, "mean-free gradient bound by laplacian", ok,
            f"worst relative excess {worst_excess:.2e} <= 1e-12 over 100 fields")


# ---------------------------------------------------------------- criterion 4
def test_criterion_04_hessian_weight_inequality(verdict):
    rng = np.random.default_rng(404)
    worst = -math.inf
    for grid in _grids():
        const = hessian_inequality_constant(grid.d)
        for _ in range(10):
            bump = random_scalar(grid, rng, band=3)
            peak = max(1.0, float(np.max(np.abs(bump.values))))
            w = ScalarField(grid, np.exp(bump.values / peak))
            lhs = sqrt_hessian_integral(w)
            rhs = const * weighted_log_hessian_integral(w)
            worst = max(worst, (lhs - rhs) / max(rhs, 1.0))
    ok = worst <= 1e-8
    verdict(4, "square-root hessian controlled by weighted log hessian", ok,
            f"worst relative excess {worst:.2e} <= 1e-8 over 20 weights")


# ------------------------------------------------------- criteria 5, 6, 7, 14
def _params_for(op: str) -> ModelParams:
    if op == "lame":
        return ModelParams(mu=1.0, operator="lame", zeta=1.0, lame_lambda=0.5)
    return ModelParams(mu=1.0)


@pytest.fixture(scope="module")
def conservation_runs():
    """t in [0, 10] at N=32 with per-step records, both elastic operators,
    at dt = 1e-3 and dt = 5e-4."""
    out = {}
    for op in ("laplacian", "lame"):
        p = _params_for(op)
        s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
        for dt in (1e-3, 5e-4):
            rec = TrajectoryRecorder(p, battery="ledger")
            started = time.perf_counter()
            run(s0.copy(), p, StepperConfig(dt=dt, t_end=10.0, record_every=1), sink=rec)
            out[(op, dt)] = (rec.records, time.perf_counter() - started)
    return out


def _drift(records) -> float:
    e0 = records[0].energy
    return max(abs(r.energy - e0) for r in records) / abs(e0)


def test_criterion_05_energy_conservation_second_order(verdict, conservation_runs):
    details = []
    ok = True
    for op in ("laplacian", "lame"):
        recs1, t1 = conservation_runs[(op, 1e-3)]
        recs2, t2 = conservation_runs[(op, 5e-4)]
        d1, d2 = _drift(recs1), _drift(recs2)
        ratio = d1 / d2 if d2 > 0 else math.inf
        ok = ok and d1 <= 1e-4 and ratio >= 3.5 and t1 < 60.0 and t2 < 60.0
        details.append(f"{op}: drift {d1:.2e} <= 1e-4, halving ratio {ratio:.2f} >= 3.5, "
                       f"{t1:.0f}s/{t2:.0f}s < 60s")
    verdict(5, "energy conserved to tolerance with 2nd-order drift", ok, "; ".join(details))


def test_criterion_06_entropy_monotone(verdict, conservation_runs):
    worst = math.inf
    for (_, _), (records, _) in conservation_runs.items():
        ent = [r.entropy for r in records]
        worst = min(worst, min(b - a for a, b in zip(ent, ent[1:])))
    ok = worst >= -1e-8
    verdict(6, "entropy nondecreasing along every run", ok,
            f"smallest increment {worst:.2e} >= -1e-8")


def test_criterion_07_dissipation_books_balance(verdict, conservation_runs):
    details = []
    ok = True
    for (op, dt), (records, _) in conservation_runs.items():
        res = dissipation_residual(records)
        drift = _drift(records)
        bound = 2.0 * drift
        ok = ok and res <= bound
        details.append(f"{op}@dt={dt:g}: residual {res:.2e} <= {bound:.2e}")
    verdict(7, "energy-entropy-production ledger closes", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 8
def test_criterion_08_fisher_identity(verdict):
    p = ModelParams(mu=1.0)
    s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
    states = []
    run(s0, p, StepperConfig(dt=1e-3, t_end=1.0, record_every=100),
        sink=lambda s: states.append(s))
    sampled = states[:10]
    residuals = [fisher_identity_residual(s, p, dt_micro=1e-5) for s in sampled]
    worst = max(abs(r) for r in residuals)
    r_coarse = abs(fisher_identity_residual(sampled[5], p, dt_micro=8e-3))
    r_fine = abs(fisher_identity_residual(sampled[5], p, dt_micro=4e-3))
    ratio = r_coarse / r_fine if r_fine > 0 else math.inf
    ok = worst <= 1e-3 and ratio >= 3.5
    verdict(8, "instantaneous Fisher derivative identity", ok,
            f"worst residual {worst:.2e} <= 1e-3 on 10 states, refinement ratio {ratio:.2f} >= 3.5")


# ---------------------------------------------------------------- criterion 9
@pytest.fixture(scope="module")
def gated_mixed_run():
    """Long small-amplitude mixed run under the decay gate."""
    p = ModelParams(mu=1.0)
    s0 = make_initial_data(ScenarioSpec("small-mixed"))
    smallness = galerkin_initial_smallness(s0, p)
    rec = TrajectoryRecorder(p)
    started = time.perf_counter()
    run(s0, p, StepperConfig(dt=2e-3, t_end=50.0, record_every=25), sink=rec)
    return rec.records, smallness, time.perf_counter() - started


def test_criterion_09_fisher_monotone_under_gate(verdict, gated_mixed_run):
    records, smallness, elapsed = gated_mixed_run
    gated, flat, rise = _fisher_rise(records, smallness)
    ok = gated and flat and elapsed < 300.0
    verdict(9, "Fisher functional never rises for gated data", ok,
            f"smallness {smallness:.2e} < {DECAY_GATE:g}, peak/initial - 1 = "
            f"{rise:.2e} <= 1e-3, {elapsed:.0f}s < 300s")


# --------------------------------------------------------------- criterion 10
@pytest.fixture(scope="module")
def free_wave_run():
    """Ten exact periods of the solenoidal component, mu = 1."""
    p = ModelParams(mu=1.0)
    s0 = make_initial_data(ScenarioSpec("small-mixed", epsilon=0.2))
    dt = 20.0 * math.pi / 32000
    rec = TrajectoryRecorder(p)
    states = []

    def sink(s):
        rec(s)
        states.append(s)

    run(s0.copy(), p, StepperConfig(dt=dt, t_end=32000 * dt, record_every=800), sink=sink)
    return s0, states, rec.records


def test_criterion_10_solenoidal_part_oscillates_freely(verdict, free_wave_run):
    s0, states, records = free_wave_run
    nu0 = helmholtz_project(s0.u).div_free
    scale = field_norms(nu0)["l2"]
    worst = 0.0
    for s in states:
        nu = helmholtz_project(s.u).div_free
        want = math.cos(s.t) * nu0.components  # unit-frequency free wave
        worst = max(worst, field_norms(VectorField(s.grid, nu.components - want))["l2"] / scale)
    e0 = records[0].nu_energy
    e_var = max(abs(r.nu_energy - e0) for r in records) / abs(e0)
    ok = worst <= 1e-5 and e_var <= 1e-5
    verdict(10, "solenoidal motion follows the exact free wave", ok,
            f"worst trajectory gap {worst:.2e} <= 1e-5 over 10 periods, "
            f"oscillation energy varies {e_var:.2e} <= 1e-5")


# --------------------------------------------------------------- criterion 11
@pytest.mark.parametrize("experiment", ["asymptotics", "lame-asymptotics"])
def test_criterion_11_long_time_decay(verdict, tmp_path, experiment):
    started = time.perf_counter()
    report = run_experiment(experiment, out_dir=str(tmp_path / experiment))
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 600.0
    detail = "; ".join(c.line() for c in report.checks)
    verdict(11, f"hundred-unit decay to uniform rest ({experiment})", ok,
            f"{detail}; {elapsed:.0f}s < 600s")


# --------------------------------------------------------------- criterion 12
def test_criterion_12_divergence_free_data_never_decays(verdict, tmp_path):
    report = run_experiment("oscillation", out_dir=str(tmp_path / "oscillation"))
    detail = "; ".join(c.line() for c in report.checks)
    verdict(12, "solenoidal data keeps oscillating", report.passed, detail)


# --------------------------------------------------------------- criterion 13
def test_criterion_13_truncated_system_oracle(verdict, tmp_path):
    report = run_experiment("oracle-xcheck", out_dir=str(tmp_path / "oracle-xcheck"))
    detail = "; ".join(c.line() for c in report.checks)
    verdict(13, "stepper matches the exact truncated system", report.passed, detail)


# --------------------------------------------------------------- criterion 14
def test_criterion_14_temperature_bounds(verdict, conservation_runs, gated_mixed_run,
                                         free_wave_run):
    runs = {f"{op}@dt={dt:g}": records for (op, dt), (records, _) in conservation_runs.items()}
    runs["gated-mixed"] = gated_mixed_run[0]
    runs["free-wave"] = free_wave_run[2]
    checks = [_bounds_check(records, label) for label, records in runs.items()]
    verdict(14, "temperature confined to a factor-two corridor", all(c.passed for c in checks),
            "; ".join(c.line() for c in checks))


# --------------------------------------------------------------- criterion 15
def test_criterion_15_artifact_round_trips(verdict, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1500)
    grids = [TorusGrid((8, 8)), TorusGrid((4, 8), (1.0, 2.5)), TorusGrid((4, 4, 6))]
    failures = 0
    for i in range(100):
        grid = grids[i % len(grids)]

        # field snapshot: write, read, rewrite, compare bytes
        if i % 2:
            field = ScalarField(grid, rng.standard_normal(grid.shape))
        else:
            field = VectorField(grid, rng.standard_normal((grid.d,) + grid.shape))
        p1 = str(tmp_path / "a.tefld")
        p2 = str(tmp_path / "b.tefld")
        write_snapshot(field, p1, t=float(rng.uniform(0, 10)))
        back = read_snapshot(p1)
        write_snapshot(back, p2, t=read_header(p1).t)
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            if fa.read() != fb.read():
                failures += 1

        # time series: one random row, every other one shaped like a ledger record
        vals = {name: float(rng.standard_normal()) for name in RECORD_FIELDS}
        if i % 2:
            vals.update(dict.fromkeys(LEDGER_NAN_COLUMNS, math.nan))
        rec = DiagnosticsRecord(**vals)
        c1 = str(tmp_path / "a.csv")
        c2 = str(tmp_path / "b.csv")
        write_timeseries([rec], c1)
        write_timeseries(read_timeseries(c1), c2)
        with open(c1, "rb") as fa, open(c2, "rb") as fb:
            if fa.read() != fb.read():
                failures += 1

        # config text: parse, serialize, parse
        text = (
            f"scenario = random\nseed = {int(rng.integers(0, 2**31))}\n"
            f"mu = {repr(float(rng.uniform(0.1, 5.0)))}\n"
            f"dt = {repr(float(rng.uniform(1e-4, 1e-2)))}\nt_end = 0\n"
            f"epsilon = {repr(float(rng.uniform(0.0, 0.5)))}\n"
        )
        cfg = parse_config(text)
        if parse_config(serialize_config(cfg)) != cfg:
            failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    verdict(15, "artifacts reproduce bit for bit", ok,
            f"{failures} failures in 100 rounds, {elapsed:.1f}s < 10s")
