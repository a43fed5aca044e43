"""Workload ``sweep-large``: cold in-process sweeps of a large synthetic warehouse.

Each operation builds a fresh :class:`repro.AdvisorSession` with default
:class:`~repro.api.EngineOptions` (serial, vectorized, memory cache) and runs
``recommend()``.  The inputs are the full-size sweep of the engine benchmark:
the synthetic star schema of 7 dimensions x 3 levels (bottom cardinality 400)
that ``benchmarks/bench_e11_parallel_engine.py`` uses, and a random mix of 40
query classes seeded from the workload seed, on 64 disks.  1155 candidates
are enumerated and 263 survive the thresholds.  The schema keeps the engine
benchmark's jitter seed: seeding it from the workload seed changed the
surviving candidates from 253 to 283, and the work with them, so runs with
different seeds could not be compared.  The cost model and the allocation
do most of the work here and import does none; every layer call stays in
this process, so the wrappers see all of it.  Every result's fingerprint is
compared with the reference set-up computed.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Tuple

import common
from tracer import Recorder, cache_counts, counters_by_request, install, now

DIMENSIONS = 7
LEVELS = 3
BOTTOM_CARDINALITY = 400
FACT_ROWS = 30_000_000
CLASSES = 40
DISKS = 64
MAX_FRAGMENTS = 30_000
MAX_FRAGMENTATION_DIMENSIONS = 3
#: The schema's jitter seed, the one the engine benchmark uses.
SCHEMA_SEED = 7


def inputs(seed: int):
    from repro import AdvisorConfig, SystemParameters
    from repro.datasets import synthetic_schema
    from repro.workload.generator import random_query_mix

    schema = synthetic_schema(
        num_dimensions=DIMENSIONS,
        levels_per_dimension=LEVELS,
        bottom_cardinality=BOTTOM_CARDINALITY,
        fact_rows=FACT_ROWS,
        seed=SCHEMA_SEED,
    )
    workload = random_query_mix(schema, num_classes=CLASSES, seed=seed)
    config = AdvisorConfig(
        max_fragments=MAX_FRAGMENTS, max_fragmentation_dimensions=MAX_FRAGMENTATION_DIMENSIONS
    )
    return schema, workload, SystemParameters(num_disks=DISKS), config


def sweep(schema, workload, system, config) -> Tuple[object, object, float, float]:
    """One timed operation: a fresh session's cold ``recommend()``.

    Returns the session, the result, the seconds it took and the peak
    resident memory (MB) of this process while it ran.
    """
    from repro import AdvisorSession

    gc.collect()  # every sweep starts without the previous one's garbage
    common.reset_peak_rss()
    started = now()
    session = AdvisorSession(schema, workload, system, config)
    result = session.recommend()
    elapsed = now() - started
    return session, result, elapsed, common.peak_rss_mb()


def counters_of(session, result) -> Dict[str, float]:
    """The operation's counters that need no wrapper: enumeration and cache."""
    hits, misses, disk_hits = cache_counts(session.cache.stats)
    report = result.recommendation.exclusion_report
    return {
        "enumerate.considered": report.considered,
        "enumerate.surviving": report.surviving_count,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.disk_hits": disk_hits,
    }


class Phase:
    def __init__(self, outcome: common.Outcome, args, reference: str, recorder: Optional[Recorder] = None):
        self.outcome = outcome
        self.args = args
        self.reference = reference
        self.recorder = recorder
        self.latencies: List[float] = []
        self.peak_rss_mb: List[float] = []
        self.counters: Dict[str, float] = {}
        self.operations = 0

    def run_one(self) -> None:
        from repro.engine import recommendation_fingerprint

        self.operations += 1
        self.outcome.attempted += 1
        if self.recorder is not None:
            self.recorder.set_request(self.operations)
        session, result, elapsed, peak_rss_mb = sweep(*self.args)
        if recommendation_fingerprint(result.recommendation) != self.reference:
            self.outcome.fail(f"sweep {self.operations}: fingerprint differs from the reference")
            return
        self.latencies.append(elapsed)
        self.peak_rss_mb.append(peak_rss_mb)
        counters = counters_of(session, result)
        if self.recorder is not None:
            for name in ("cache.hits", "cache.misses", "cache.disk_hits"):
                self.recorder.add(name, counters[name], self.operations)
        if not self.counters:
            self.counters = counters
        elif counters != self.counters:
            self.outcome.fail(
                f"sweep {self.operations}: counters drifted within the run: {self.counters} != {counters}"
            )

    def run(self, seconds: float, paired: common.Paired) -> None:
        """Sweeps until the deadline, a probe sample after each."""
        deadline = now() + seconds
        while now() < deadline:
            done = len(self.latencies)
            self.run_one()
            paired.block(self.latencies[done:], sum(self.latencies[done:]))


def run(seed: int, seconds: float, trace: bool, probe: common.Probe) -> common.Outcome:
    from repro.engine import recommendation_fingerprint

    outcome = common.Outcome()
    setups, reference = common.Paired(probe), None
    for _ in range(common.SETUP_REPEATS):
        started = now()
        args = inputs(seed)
        _session, result, _elapsed, _rss = sweep(*args)
        fingerprint = recommendation_fingerprint(result.recommendation)
        elapsed = now() - started
        setups.block([elapsed], elapsed)
        if reference is not None and fingerprint != reference:
            outcome.fail("set-up computed a different reference on a repeat")
        reference = fingerprint
    surviving = len(result.recommendation.evaluated)
    outcome.report.update(
        candidates_considered=result.recommendation.exclusion_report.considered,
        candidates=surviving,
        classes=len(args[1]),
        work_units=surviving * len(args[1]),
    )
    del result, _session
    untraced = Phase(outcome, args, reference)
    paired = common.Paired(probe)
    untraced.run(seconds / 2 if trace else seconds, paired)
    if not untraced.latencies:
        outcome.fail("no sweep completed")
        return outcome
    p50 = common.median(untraced.latencies)
    common.report_latencies(outcome.report, "sweep", untraced.latencies, sum(untraced.latencies))
    outcome.report.update(sweep_p50_s=p50, sweep_candidates_per_s=surviving / p50)
    common.gate_latencies(outcome, paired, setups)
    outcome.end_to_end["peak_rss_mb"] = common.median(untraced.peak_rss_mb)
    outcome.counters = {"sweep": untraced.counters}
    if trace:
        # Every traced result is checked against the same reference as the
        # untraced ones, so the wrappers provably changed no output.
        recorder = Recorder()
        uninstall = install(recorder)
        try:
            traced = Phase(outcome, args, reference, recorder)
            traced_paired = common.Paired(probe)
            traced.run(seconds / 2, traced_paired)
        finally:
            uninstall()
        layers = common.layer_metrics(recorder, traced.operations)
        layers.update(common.import_probe())
        layers["trace.overhead_p50_ms"] = common.trace_overhead_ms(paired, traced_paired)
        outcome.per_layer = layers
        steady = {
            request: {k: v for k, v in values.items() if k in ("layout.count", "costmodel.work_units", "allocation.fragments")}
            for request, values in counters_by_request(recorder).items()
        }
        distinct = {tuple(sorted(values.items())) for values in steady.values()}
        if len(distinct) > 1:
            outcome.fail(f"layer counters drifted within the run: {sorted(distinct)}")
        outcome.counters = {"sweep": dict(traced.counters, **dict(next(iter(distinct), ())))}
        outcome.counters["import"] = {"modules_loaded": layers["import.modules_loaded"]}
    return outcome
