#!/usr/bin/env python3
"""Benchmark of the thermoelast solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. Each workload is a closed loop in one
process and one thread: after one warm-up op, verdict passes run back to back
until their wall times add up to S seconds. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate traced
run with --trace 1. Bounded times are in units of a reference computation
timed between the same ops (reference.py).
`--workload all` runs every workload in a fresh process of its own.
"""

import time

STARTED = time.perf_counter()  # set-up time counts the package import

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse
import json
import platform
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name: (unit, better)
# wall_ref and steps_per_ref are wall_s and steps_per_s in units of the
# reference computation (reference.py) timed between the same ops
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "steps_per_ref": ("1/ref", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed beside the end-to-end metrics where they apply, but not bounded:
# raw times drift with the machine, and the rest are outputs the gates check
UNBOUNDED = {
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "ref_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "energy_drift": ("ratio", "lower"),
    "ledger_residual": ("ratio", "lower"),
    "oracle_err": ("L2", "lower"),
}
PER_LAYER = {
    "grid.transforms_per_step": ("count", "lower"),
    "grid.transform_ms_p50": ("ms", "lower"),
    "grid.transform_ms_p99": ("ms", "lower"),
    "grid.transform_share": ("ratio", "lower"),
    "grid.transform_mb_per_step": ("MB", "lower"),
    "dynamics.step_ms_p50": ("ms", "lower"),
    "dynamics.step_ms_p99": ("ms", "lower"),
    "dynamics.self_share": ("ratio", "lower"),
    "diagnostics.records": ("count", "lower"),
    "diagnostics.record_ms_p50": ("ms", "lower"),
    "diagnostics.record_ms_p99": ("ms", "lower"),
    "diagnostics.share": ("ratio", "lower"),
    "diagnostics.transforms_per_record": ("count", "lower"),
    "helmholtz.project_ms_p50": ("ms", "lower"),
    "oracle.build_ms": ("ms", "lower"),
    "oracle.integrate_s": ("s", "lower"),
    "oracle.capture_s": ("s", "lower"),
    "oracle.compare_ms": ("ms", "lower"),
    "snapshots.write_ms_p50": ("ms", "lower"),
    "snapshots.read_ms_p50": ("ms", "lower"),
    "snapshots.mb_written": ("MB", "lower"),
    "scenarios.initial_data_ms": ("ms", "lower"),
    "config.parse_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
SETUP_PROBES = 4  # fresh processes timing set-up, besides this one


def check_source() -> None:
    """Exit with an error unless the checkout holds the thermoelast sources."""
    if not os.path.isfile(os.path.join(SRC, "thermoelast", "__init__.py")):
        sys.exit(f"no thermoelast source tree under {SRC}; run from a source checkout")


def import_package():
    """Import thermoelast from the checkout's src/ and nowhere else."""
    check_source()
    sys.path.insert(0, SRC)
    import thermoelast

    if os.path.dirname(os.path.dirname(os.path.abspath(thermoelast.__file__))) != SRC:
        sys.exit(f"thermoelast was imported from {thermoelast.__file__}, not from {SRC}")
    return thermoelast


def environment(te) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thermoelast": te.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Tally:
    """Ops attempted and failed, Strang steps completed, and the error texts seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.steps = 0
        self.errors: dict[str, str] = {}  # error text -> first op that raised it
        self.passes = 0
        self.op_time = 0.0


def run_pass(w, tr, tally: Tally, ref=None) -> float:
    """One verdict pass; returns its wall time, the sum of its ops' wall times.

    Between ops, untimed, the reference computation keeps up with the op time.
    """
    pass_no = tally.passes
    tally.passes += 1
    wall = 0.0
    for label, op in w.ops():
        tr.start_op(tally.attempted, pass_no)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            tally.steps += op()
        except Exception as exc:  # a failed op is counted; the closed loop goes on
            tally.failed += 1
            tally.errors.setdefault(f"{type(exc).__name__}: {exc}", label)
        dt = time.perf_counter() - t0
        wall += dt
        tally.op_time += dt
        if ref is not None:
            ref.keep_up(tally.op_time)
    return wall


def measure(w, tr, tally: Tally, seconds: float, between=(), ref=None) -> list[float]:
    """Verdict passes back to back until their wall times add up to `seconds`.

    Each callable in `between` runs once between two passes, untimed; they are
    spread evenly over the window.
    """
    walls: list[float] = []
    pending = list(between)
    while not walls or sum(walls) < seconds:
        if pending and sum(walls) >= (len(between) - len(pending)) * seconds / len(between):
            pending.pop(0)()
        walls.append(run_pass(w, tr, tally, ref))
    return walls


def warm_up(w) -> None:
    """One untimed op, so caches fill and lazy set-up finishes before timing."""
    _, op = w.ops()[0]
    try:
        op()
    except Exception:  # the timed ops repeat it and count the failure
        pass


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: interpreter start to inputs built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def fmt(name: str, value, unit: str, better: str) -> str:
    return f"  {name:<34} {float(value)!r:<24} {unit:<6} ({better} is better)"


def bench(args) -> int:
    from reference import Reference
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    te = import_package()
    tr = Tracer()
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    w = WORKLOADS[args.workload](te, tr, args.seed, workdir)
    if args.trace:
        with tr.active(te):
            w.setup()
    else:
        w.setup()
    setup_samples = [time.perf_counter() - STARTED]
    if args.setup_probe:
        print(setup_samples[0])
        return 0

    warm_up(w)
    tally = Tally()
    if args.trace:
        # traced and untraced passes alternate, so drift in machine speed
        # does not show up as tracing overhead
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced += measure(w, tr, tally, 0.0)
            with tr.active(te):
                traced += measure(w, tr, tally, 0.0)
        values = layer_metrics(tr, traced, untraced)
        units, extra, notes = PER_LAYER, {}, []
    else:
        # set-up is timed again in fresh processes spread over the window, so
        # its median does not rest on one moment of a machine whose speed drifts
        probes = [lambda: setup_samples.append(setup_probe(args.workload, args.seed))] * SETUP_PROBES
        ref = Reference(w.field_shape)
        walls = measure(w, tr, tally, args.seconds, between=probes, ref=ref)
        # means, not medians: machine speed switches between states that last
        # tens of seconds, and a median jumps from one state to the other
        wall_s, steps_per_s = statistics.mean(walls), tally.steps / sum(walls)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": wall_s / ref.mean,
            "steps_per_ref": steps_per_s * ref.mean,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        extra = {"wall_s": wall_s, "steps_per_s": steps_per_s, "ref_s": ref.mean}
        notes = [
            f"pass wall: median {statistics.median(walls):.4f} s, max {max(walls):.4f} s, "
            f"all {json.dumps(walls)}",
            f"set-up samples: {json.dumps(setup_samples)}",
            f"reference: {len(ref.samples)} samples, {ref.total:.3f} s",
        ]
    info = {"fail_ratio": tally.failed / tally.attempted, **w.quality, **extra}

    print(f"thermoelast benchmark: workload {w.name} (seed {'used' if w.seeded else 'unused'}: "
          f"{args.seed}), {args.seconds:g} s, trace {'on' if args.trace else 'off'}")
    print("environment: " + json.dumps(environment(te), sort_keys=True))
    print(f"ops: {tally.attempted} attempted, {tally.failed} failed, in {tally.passes} verdict passes "
          f"(closed loop, 1 process, 1 thread)")
    for line in notes:
        print(line)
    for name, (unit, better) in {**units, **UNBOUNDED}.items():
        if name in values or name in info:
            print(fmt(name, values.get(name, info.get(name)), unit, better))
    for text, label in tally.errors.items():
        print(f"  error in {label}: {text}")
    if args.trace:
        path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.json")
        tr.write(path, {"workload": w.name, "seed": args.seed, "traced_pass_s": traced,
                        "untraced_pass_s": untraced})
        print(f"spans: {len(tr.spans)} written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }))
    return 0


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; one failing workload does not stop the rest."""
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}: {proc.stderr.strip()}")
            results[name] = None
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "workloads": results,
    }))
    return status


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    check_source()
    if args.workload == "all":
        from workloads import WORKLOADS

        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
