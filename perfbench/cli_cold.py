"""Workload ``cli-cold``: one client, a fresh ``warlock recommend --json`` per operation.

The cold one-shot is the first latency a DBA feels.  Most of it is
interpreter start and ``import repro``; the default ``jobs="auto"`` starts a
process pool for both datasets, and retail adds allocation work APB-1 lacks.
Each operation is one of three kinds, in a seeded order (every block of three
operations is a seeded permutation of the kinds, so every run has the same
mix):

* ``apb1``: ``recommend --json --dataset apb1`` with default flags;
* ``retail``: the same on the retail dataset;
* ``warm-store``: APB-1 with ``--cache-dir`` on a store that set-up filled.

Every stdout is byte-compared with the reference set-up rendered in-process
(serially) from the same inputs.  The layer calls a CLI process makes inside
its pool workers cannot be seen from here: they count in ``engine.self_s``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from tracer import Recorder, aggregate, now

KINDS = ("apb1", "retail", "warm-store")
#: Counters that must repeat exactly for an operation kind.
STEADY_COUNTERS = (
    "enumerate.considered",
    "enumerate.surviving",
    "layout.count",
    "costmodel.work_units",
    "cache.hits",
    "cache.misses",
    "cache.disk_hits",
)


def cli_args(kind: str, store: Path) -> List[str]:
    if kind == "warm-store":
        return ["recommend", "--json", "--dataset", "apb1", "--cache-dir", str(store)]
    return ["recommend", "--json", "--dataset", kind]


def render_reference(dataset: str, store: Optional[Path] = None) -> bytes:
    """The CLI's ``recommend --json`` stdout, computed in-process with ``jobs=1``."""
    import repro.cli as cli
    from repro import AdvisorConfig, SystemParameters, Warlock
    from repro.api import EngineOptions
    from repro.datasets import apb1_query_mix, apb1_schema, retail_query_mix, retail_schema
    from repro.io import recommendation_to_dict

    args = cli.build_parser().parse_args(cli_args(dataset, store))
    if dataset == "apb1":
        schema, workload = apb1_schema(scale=cli.DEFAULT_SCALE), apb1_query_mix()
    else:
        schema, workload = retail_schema(scale=cli.DEFAULT_SCALE), retail_query_mix()
    advisor = Warlock(
        schema,
        workload,
        SystemParameters(num_disks=cli.DEFAULT_DISKS, architecture=cli.DEFAULT_ARCHITECTURE),
        AdvisorConfig(
            top_fraction=args.top_fraction,
            top_candidates=args.top,
            max_fragments=args.max_fragments,
        ),
        options=EngineOptions(jobs=1, cache_dir=str(store) if store is not None else None),
    )
    recommendation = advisor.recommend()
    if store is not None:
        advisor.persist_cache()
    payload = recommendation_to_dict(recommendation)
    payload["excluded"] = recommendation.exclusion_report.excluded_count
    payload["evaluated"] = recommendation.exclusion_report.surviving_count
    return (json.dumps(payload, indent=2) + "\n").encode()


def setup(store: Path) -> Dict[str, bytes]:
    """References for every kind; fills ``store`` for ``warm-store``."""
    references = {"apb1": render_reference("apb1", store), "retail": render_reference("retail")}
    references["warm-store"] = references["apb1"]
    return references


def schedule(seed: int):
    """Blocks of three operations, each block a seeded permutation of the kinds."""
    rng = random.Random(seed)
    while True:
        block = list(KINDS)
        rng.shuffle(block)
        yield block


class Phase:
    """Operations back to back until a deadline, each checked against its reference."""

    def __init__(self, outcome: common.Outcome, references, store: Path, report: Path, trace: bool = False):
        self.outcome = outcome
        self.references = references
        self.store = store
        self.report = report
        self.recorder = Recorder() if trace else None
        #: (kind, seconds) of every operation that passed its check, in order.
        self.timings: List[Tuple[str, float]] = []
        self.outputs: Dict[str, bytes] = {}
        self.counters: Dict[str, Dict[str, float]] = {}
        self.maxrss_kb = 0
        self.operations = 0

    def run_one(self, kind: str) -> None:
        argv = common.launcher_argv(cli_args(kind, self.store), self.report, self.recorder is not None)
        self.report.unlink(missing_ok=True)
        result = common.run_child(argv)
        self.outcome.attempted += 1
        self.operations += 1
        if result.returncode != 0 or result.stdout != self.references[kind]:
            detail = f"exit {result.returncode}" if result.returncode else "stdout differs from the reference"
            self.outcome.fail(f"{kind}: {detail}; stderr: {result.stderr.strip()[-300:]}")
            return
        exit_report = json.loads(self.report.read_text())
        self.timings.append((kind, result.wall_s))
        self.maxrss_kb = max(self.maxrss_kb, exit_report["peak_rss_kb"])
        self.outputs.setdefault(kind, result.stdout)
        if self.recorder is not None:
            self._collect(kind, result, exit_report)

    def _collect(self, kind: str, result: common.ChildResult, payload) -> None:
        self.recorder.extend(payload, request=self.operations)
        self.recorder.record("process.start", result.spawned, payload["started"], self.operations)
        own = Recorder()
        own.extend(payload)
        totals = aggregate(own)
        counters = {name: totals.get(name, 0.0) for name in STEADY_COUNTERS}
        counters["import.modules_loaded"] = payload["modules_loaded"]
        first = self.counters.setdefault(kind, counters)
        if first != counters:
            self.outcome.fail(f"{kind}: counters drifted within the run: {first} != {counters}")

    def run(self, seed: int, seconds: float, paired: common.Paired) -> None:
        """Whole blocks until the deadline, a probe sample after each operation."""
        deadline = now() + seconds
        for block in schedule(seed):
            if now() >= deadline:
                break
            for kind in block:
                done = len(self.timings)
                self.run_one(kind)
                latencies = [latency for _kind, latency in self.timings[done:]]
                kinds = [kind for kind, _latency in self.timings[done:]]
                paired.block(latencies, sum(latencies), kinds)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [seconds for k, seconds in self.timings if kind is None or k == kind]


def run(seed: int, seconds: float, trace: bool, probe: common.Probe) -> common.Outcome:
    outcome = common.Outcome()
    scratch = common.workdir("cli-cold")
    try:
        import repro.cli  # noqa: F401  (the benchmark's own import stays outside set-up)

        setups, references = common.Paired(probe), None
        for index in range(common.SETUP_REPEATS):
            store = scratch / f"store-{index}"
            started = now()
            rendered = setup(store)
            elapsed = now() - started
            setups.block([elapsed], elapsed)
            if references is not None and rendered != references:
                outcome.fail("set-up rendered different references on a repeat")
            references = rendered
        report = scratch / "exit.json"
        warmup = Phase(common.Outcome(), references, store, report)
        for kind in KINDS:  # bytecode and OS caches, as a user's second run has them
            warmup.run_one(kind)
        outcome.attempted += warmup.outcome.attempted
        outcome.failed += warmup.outcome.failed
        outcome.problems += warmup.outcome.problems
        untraced = Phase(outcome, references, store, report)
        paired = common.Paired(probe)
        untraced.run(seed, seconds / 2 if trace else seconds, paired)
        latencies = untraced.latencies()
        if not latencies:
            outcome.fail("no operation completed")
            return outcome
        common.report_latencies(outcome.report, "cli", latencies, sum(latencies))
        for kind in KINDS:
            values = untraced.latencies(kind)
            name = "cli_" + kind.replace("-", "_")
            outcome.report[name + "_p50_s"] = common.median(values) if values else None
            outcome.report[name + "_samples"] = len(values)
        common.gate_latencies(outcome, paired, setups)
        outcome.end_to_end["peak_rss_mb"] = untraced.maxrss_kb / 1024.0
        if trace:
            traced = Phase(outcome, references, store, report, trace=True)
            traced_paired = common.Paired(probe)
            traced.run(seed, seconds / 2, traced_paired)
            totals = aggregate(traced.recorder)
            per_op = max(traced.operations, 1)
            layers = common.layer_metrics(traced.recorder, traced.operations)
            layers.update(
                {
                    "import.repro_s": totals.get("import.repro_s", 0.0) / per_op,
                    "import.modules_loaded": max(
                        (c["import.modules_loaded"] for c in traced.counters.values()), default=0.0
                    ),
                    "process.start_s": totals.get("process.start.inclusive_s", 0.0) / per_op,
                    "store.bytes": float(common.directory_bytes(store)),
                    "trace.overhead_p50_ms": common.trace_overhead_ms(paired, traced_paired),
                }
            )
            outcome.per_layer = layers
            outcome.counters = traced.counters
            for kind, output in traced.outputs.items():
                if untraced.outputs.get(kind) != output:
                    outcome.fail(f"{kind}: the traced output differs from the untraced one")
        return outcome
    finally:
        common.remove(scratch)
