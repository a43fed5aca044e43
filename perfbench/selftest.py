"""Self-test of the benchmark: tiny runs of each workload, and the output checks.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

1. Each workload, run for two seconds untraced and traced, prints every metric
   ``BENCHMARK.json`` names, with its unit, and reports success.
2. A corrupted reference makes each workload's operations count as failed.
3. The HTTP check accepts exactly the registrations a request may have seen.
4. A pool sweep's chunks are counted once, though two wrapped methods make them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.ensure_program()

import cli_cold  # noqa: E402
import sweep_large  # noqa: E402
import tracer  # noqa: E402
import whatif_http  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    completed = subprocess.run(
        [common.python(), str(common.BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(common.ROOT), timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, completed.stderr[-2000:]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        # ... and the report line above the result shows it with its unit.
        assert any(line.split()[:1] == [entry["name"]] and line.endswith(" " + entry["unit"]) for line in lines)
    assert "machine" in json.loads(lines[-2])
    return completed


def test_every_metric_printed_with_its_unit():
    for workload in ("cli-cold", "sweep-large", "whatif-http"):
        for trace in (0, 1):
            completed = _run(workload, trace)
            if workload == "whatif-http":
                # The server's departure from the default flags stays visible.
                assert whatif_http.NOT_DEFAULT in completed.stderr
                assert "serve_args" in completed.stdout


def test_cli_cold_corrupted_reference_fails():
    scratch = common.workdir("selftest-cli")
    try:
        references = cli_cold.setup(scratch / "store")
        references["apb1"] = references["apb1"].replace(b'"final_rank": 1', b'"final_rank": 2')
        outcome = common.Outcome()
        phase = cli_cold.Phase(outcome, references, scratch / "store", scratch / "exit.json")
        phase.run_one("apb1")
        phase.run_one("retail")
        assert outcome.attempted == 2 and outcome.failed == 1
    finally:
        common.remove(scratch)


def test_sweep_large_corrupted_reference_fails():
    outcome = common.Outcome()
    phase = sweep_large.Phase(outcome, sweep_large.inputs(3), "0" * 64)
    phase.run_one()
    assert outcome.failed == outcome.attempted == 1 and not phase.latencies


def test_whatif_http_registrations_seen_by_a_request():
    a, b, c = {"dataset": "apb1", "disks": 32}, {"dataset": "apb1", "disks": 48}, {"dataset": "apb1", "disks": 96}
    initial = whatif_http.WAREHOUSES["apb1"]
    assert whatif_http.registrations([], 1.0, 2.0) == [initial]
    # a then b, one after the other: only b is in effect afterwards.
    assert whatif_http.registrations([(0.0, 0.1, a), (0.2, 0.3, b)], 1.0, 2.0) == [b]
    # a and b overlapped: either may have taken effect last.
    assert whatif_http.registrations([(0.0, 0.3, a), (0.1, 0.2, b)], 1.0, 2.0) == [a, b]
    # c overlaps the request itself.
    assert whatif_http.registrations([(0.0, 0.1, a), (1.5, 2.5, c)], 1.0, 2.0) == [a, c]


def test_whatif_http_corrupted_reference_fails():
    scratch = common.workdir("selftest-http")
    server, answers = whatif_http.setup(scratch / "exit.json")
    try:
        records, _wall = whatif_http.drive(server, whatif_http.Menu(3, answers), 0.5)
    finally:
        server.stop()
        common.remove(scratch)
    honest = common.Outcome()
    whatif_http.verify(records, honest, whatif_http.Oracle())
    assert honest.failed == 0 and honest.attempted == len(records) > 0
    corrupted = whatif_http.Oracle()
    corrupted.expect = lambda registration, operation: "corrupted"
    outcome = common.Outcome()
    whatif_http.verify(records, outcome, corrupted)
    checked = sum(1 for r in records if r.operation.kind != "write")
    assert checked > 0 and outcome.failed == checked


def test_engine_chunks_counts_each_pool_chunk_once():
    """``partition_indices`` calls the wrapped ``axis_groups``; its chunks count once."""
    import repro.cli as cli
    from repro import AdvisorSession, SystemParameters
    from repro.datasets import apb1_query_mix, apb1_schema
    from repro.engine.plan import EvaluationPlan

    schema, workload = apb1_schema(scale=cli.DEFAULT_SCALE), apb1_query_mix()
    session = AdvisorSession(schema, workload, SystemParameters(num_disks=cli.DEFAULT_DISKS))
    specs, _report = session.generate_specs()
    plan = EvaluationPlan.build(specs, workload, schema)
    recorder = tracer.Recorder()
    uninstall = tracer.install(recorder)
    try:
        # The call the executor makes before it starts a pool of two workers.
        chunks = plan.partition_indices(range(len(specs)), 2, by_axis_structure=True)
    finally:
        uninstall()
    assert tracer.aggregate(recorder)["engine.chunks"] == len(chunks) > 0


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
