"""The WARLOCK benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation.  ``--trace 1`` spends the first half of the run untraced and
the second half with the layer wrappers of :mod:`tracer` installed, checks
that both halves produced the same outputs, and prints the per-layer metrics
and the tracing overhead.  Every line before the last is the human-readable
report and the machine descriptor; the last line is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = {
    "cli-cold": "cli_cold",
    "sweep-large": "sweep_large",
    "whatif-http": "whatif_http",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_drift(workload: str, seed: int, trace: int, counters) -> list:
    """Compare this run's counters with the last run of the same seed and program."""
    name = f"{workload}-seed{seed}-trace{trace}-{common.program_digest()}.json"
    record = common.OUT / "counters" / name
    current = json.loads(json.dumps(counters, sort_keys=True))
    if record.is_file():
        previous = json.loads(record.read_text())
        if previous != current:
            return [f"counters drifted from the previous run of seed {seed}: {previous} != {current}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(current, sort_keys=True))
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the processes it started (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common.ensure_program()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    probe = common.Probe()
    probe.sample(common.PROBE_REPEATS)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), probe)
    except Exception:
        traceback.print_exc()
        return 1
    for problem in check_drift(args.workload, args.seed, args.trace, outcome.counters):
        outcome.fail(problem)
    attempted = max(outcome.attempted, 1)
    failed = min(outcome.failed, attempted)
    measured = dict(outcome.per_layer if args.trace else outcome.end_to_end)
    measured["ok_ratio"] = (attempted - failed) / attempted
    measured["import.numpy_floor_s"] = probe.median()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured:
            outcome.fail(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": float(measured[entry["name"]]), "unit": entry["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in sorted(outcome.report.items()):
        print(f"  {name:36s} {value}")
    print(f"  {'failed_ratio':36s} {failed / attempted} ({failed} of {attempted} operations)")
    print(f"  {'probe.floor_s':36s} {probe.median()} (median of {len(probe.samples)} samples)")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"machine": common.machine(probe.median())}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and len(metrics) == len(declared),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
