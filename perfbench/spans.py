"""Spans and counters for the traced benchmark run.

The workloads make every call into thermoelast through a `Tracer`. Disabled,
it calls straight through. Enabled, it records a span around each call: name
(`<layer>.<what>`), start, end, parent span and op id. Two kinds of call
happen inside the library, where the benchmark cannot wrap them at the call
site, so while tracing is on they are wrapped on the imported objects:

* `TorusGrid.to_spectral` / `to_physical` (span `grid.transform`, with the
  bytes of input plus output, a computed figure), and
* the `run` that `spectral_states_at` makes (span `dynamics.run`, with its
  sink calls as `dynamics.sink` children).

Nothing under src/ is modified; the wrappers are removed when tracing stops.
Spans stay in memory and are written once, by `write`, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

RUN = "dynamics.run"
SINKS = ("dynamics.sink", "diagnostics.record")
TRANSFORM = "grid.transform"
SETUP_OP = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "steps", "dt", "t", "nbytes")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.steps = 0
        self.dt = 0.0
        self.t = 0.0
        self.nbytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while enabled; otherwise every call goes straight through."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = SETUP_OP
        self.op_pass: dict[int, int] = {SETUP_OP: -1}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------
    def _begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def start_op(self, op: int, pass_no: int) -> None:
        self.op = op
        self.op_pass[op] = pass_no

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def run(self, fn, s0, p, cfg, sink=None):
        """A call of thermoelast.run; the span carries dt and the step count."""
        if not self.enabled:
            return fn(s0, p, cfg, sink=sink)
        if sink is not None and not getattr(sink, "traced", False):
            sink = self.sink("dynamics.sink", sink)
        span = self._begin(RUN)
        span.dt = cfg.dt
        try:
            out = fn(s0, p, cfg, sink=sink)
            span.steps = cfg.n_steps()  # a run that raised completed no counted steps
            return out
        finally:
            self._end(span)

    def sink(self, name: str, fn):
        """Wrap a run sink so each call is a span stamped with the state's time."""
        if not self.enabled:
            return fn

        def traced_sink(state) -> None:
            span = self._begin(name)
            span.t = state.t
            try:
                fn(state)
            finally:
                self._end(span)

        traced_sink.traced = True
        return traced_sink

    def add(self, counter: str, value: float) -> None:
        """Count work at a layer boundary (traced passes only)."""
        if self.enabled and self.op != SETUP_OP:
            self.counters[counter] += value

    # -- switching on and off ----------------------------------------------
    @contextmanager
    def active(self, te):
        """Enable tracing and wrap the library-internal calls named above."""
        grid_cls, oracle_mod = te.TorusGrid, te.oracle
        to_spectral, to_physical, run = grid_cls.to_spectral, grid_cls.to_physical, oracle_mod.run

        def transform(orig):
            def wrapped(grid, arr):
                span = self._begin(TRANSFORM)
                try:
                    out = orig(grid, arr)
                finally:
                    self._end(span)
                span.nbytes = arr.nbytes + out.nbytes
                return out

            return wrapped

        grid_cls.to_spectral = transform(to_spectral)
        grid_cls.to_physical = transform(to_physical)
        oracle_mod.run = lambda s0, p, cfg, sink=None: self.run(run, s0, p, cfg, sink)
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            grid_cls.to_spectral, grid_cls.to_physical, oracle_mod.run = to_spectral, to_physical, run

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self time of the traced passes: span duration minus children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.op != SETUP_OP:
                out[s.name.split(".")[0]] += s.duration - child[i]
        return dict(out)

    def write(self, path: str, meta: dict) -> None:
        doc = dict(meta)
        doc["self_time_s"] = self.self_times()
        doc["counters"] = dict(self.counters)
        doc["fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _per_pass_median(spans: list[Span], op_pass: dict[int, int], name: str) -> float:
    totals: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name == name:
            totals[op_pass[s.op]] += s.duration
    return statistics.median(totals.values()) if totals else 0.0


def layer_metrics(tr: Tracer, traced: list[float], untraced: list[float]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the spans of the traced passes.

    traced / untraced are the wall times of the traced and untraced passes.
    Layers a workload never calls read 0.
    """
    spans = tr.spans
    # where each span sits: inside the run loop itself, inside a sink, or neither
    ctx: list[str] = []
    for s in spans:
        if s.parent < 0:
            ctx.append("")
        else:
            parent = spans[s.parent]
            ctx.append(parent.name if parent.name in (RUN,) + SINKS else ctx[s.parent])
    timed = [i for i, s in enumerate(spans) if s.op != SETUP_OP]
    setup = [s for s in spans if s.op == SETUP_OP]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for i in timed:
        by_name[spans[i].name].append(spans[i])
    wall = sum(traced)
    n_pass = len(traced)

    runs = by_name[RUN]
    steps = sum(s.steps for s in runs)
    run_tf = [spans[i] for i in timed if spans[i].name == TRANSFORM and ctx[i] == RUN]
    rec_tf = [spans[i] for i in timed if spans[i].name == TRANSFORM and ctx[i] == "diagnostics.record"]
    records = by_name["diagnostics.record"]
    transforms = by_name[TRANSFORM]

    # step time: gaps between consecutive sink calls of one run, over the steps between
    step_ms: list[float] = []
    sink_time = 0.0
    children: dict[int, list[Span]] = defaultdict(list)
    for i in timed:
        s = spans[i]
        if s.parent >= 0 and spans[s.parent].name == RUN and s.name in SINKS:
            children[s.parent].append(s)
            sink_time += s.duration
    for parent, calls in children.items():
        dt = spans[parent].dt
        for a, b in zip(calls, calls[1:]):
            n = round((b.t - a.t) / dt)
            if n > 0:
                step_ms.append(1e3 * (b.start - a.end) / n)

    diag_time = sum(spans[i].duration for i in timed if spans[i].name.startswith("diagnostics."))

    def ms(xs: list[Span]) -> list[float]:
        return [1e3 * s.duration for s in xs]

    return {
        "grid.transforms_per_step": len(run_tf) / steps if steps else 0.0,
        "grid.transform_ms_p50": _p(ms(transforms), 50),
        "grid.transform_ms_p99": _p(ms(transforms), 99),
        "grid.transform_share": sum(s.duration for s in transforms) / wall,
        "grid.transform_mb_per_step": sum(s.nbytes for s in run_tf) / 1e6 / steps if steps else 0.0,
        "dynamics.step_ms_p50": _p(step_ms, 50),
        "dynamics.step_ms_p99": _p(step_ms, 99),
        "dynamics.self_share": (sum(s.duration for s in runs) - sink_time) / wall,
        "diagnostics.records": len(records) / n_pass,
        "diagnostics.record_ms_p50": _p(ms(records), 50),
        "diagnostics.record_ms_p99": _p(ms(records), 99),
        "diagnostics.share": diag_time / wall,
        "diagnostics.transforms_per_record": len(rec_tf) / len(records) if records else 0.0,
        "helmholtz.project_ms_p50": _p(ms(by_name["helmholtz.project"]), 50),
        "oracle.build_ms": 1e3 * sum(s.duration for s in setup if s.name == "oracle.build"),
        "oracle.integrate_s": _per_pass_median(spans, tr.op_pass, "oracle.integrate"),
        "oracle.capture_s": _per_pass_median(spans, tr.op_pass, "oracle.capture"),
        "oracle.compare_ms": 1e3 * _per_pass_median(spans, tr.op_pass, "oracle.compare"),
        "snapshots.write_ms_p50": _p(ms(by_name["snapshots.write_snapshot"]), 50),
        "snapshots.read_ms_p50": _p(ms(by_name["snapshots.read_snapshot"]), 50),
        "snapshots.mb_written": tr.counters["snapshots.bytes_written"] / 1e6 / n_pass,
        "scenarios.initial_data_ms": 1e3 * sum(s.duration for s in setup if s.name == "scenarios.initial_data"),
        "config.parse_ms": 1e3 * sum(s.duration for s in setup if s.name == "config.parse"),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
