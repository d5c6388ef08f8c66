"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They check that the gates count failures instead of aborting, and that the
metric tables of run.py match BENCHMARK.json.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, OracleXCheck  # noqa: E402


@pytest.fixture(scope="module")
def te():
    return bench.import_package()


def one_pass(w) -> bench.Tally:
    w.setup()
    tally = bench.Tally()
    bench.run_pass(w, w.tr, tally)
    return tally


def test_corrupted_snapshot_byte_is_a_failed_op(te, tmp_path, monkeypatch):
    write = te.write_snapshot

    def write_then_flip_last_byte(field, path, t=0.0):
        write(field, path, t=t)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)[0]
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last ^ 0x01]))

    monkeypatch.setattr(te, "write_snapshot", write_then_flip_last_byte)
    tally = one_pass(WORKLOADS["run-2d"](te, Tracer(), 0, str(tmp_path)))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert any("did not round-trip bit for bit" in text for text in tally.errors)


def test_aliased_n8_case_fails_the_match_gate(te, tmp_path):
    class AliasedMatch(OracleXCheck):
        cases = {"matched": OracleXCheck.cases["control"]}

    tally = one_pass(AliasedMatch(te, Tracer(), 0, str(tmp_path)))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any(text.startswith("GateFailure: matched distance") for text in tally.errors)


def test_failing_workloads_do_not_stop_the_rest(capsys):
    # fine-2d fails every op while grid.py's fixed reality threshold stands;
    # an unknown workload makes its process exit with an error
    status = bench.run_all(["fine-2d", "no-such-workload", "run-2d"], seed=0, seconds=0.5, trace=0)
    out = capsys.readouterr().out
    results = json.loads(out.strip().splitlines()[-1])["workloads"]
    assert status == 1 and results["no-such-workload"] is None
    fine = results["fine-2d"]
    assert fine["attempted"] > 0
    if fine["failed"]:
        assert "inverse transform lost reality" in out
    assert results["run-2d"]["correct"] and results["run-2d"]["failed"] == 0


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
