"""Helpers shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracer import Recorder, aggregate, now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Run artifacts (stores, span dumps, counter records) stay in the checkout.
OUT = ROOT / ".perfbench"
LAUNCHER = BENCH / "launcher.py"

#: Set-ups per run; ``setup_s`` is their median (see :func:`gate_latencies`).
SETUP_REPEATS = 5
#: The probe (:class:`Probe`) of the machine the bounds were tuned on, a
#: 2-vCPU shared VM (Intel Xeon, Python 3.11, numpy 2.4), when it ran at
#: full speed.  ``setup_s`` is the set-up time at that speed.
REFERENCE_FLOOR_S = 0.075
#: One BLAS thread in the probe (see :class:`Probe`).
PROBE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Samples per probe at the start of a run, and fresh interpreters per
#: ``import repro`` measurement; medians are reported.
PROBE_REPEATS = 3
#: Seconds a child process may take before the benchmark gives up on it.
CHILD_TIMEOUT = 60.0


def ensure_program() -> None:
    """Put ``src`` on the path; exit non-zero when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def program_digest() -> str:
    """Digest of the program's source: counters are compared only within one version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def workdir(name: str) -> Path:
    """A fresh scratch directory under the checkout's ``.perfbench``."""
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=name + "-", dir=OUT))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """The environment of launched processes: the program's source, no user knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WARLOCK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: str
    spawned: float
    wall_s: float


def run_child(
    argv: Sequence[str], timeout: float = CHILD_TIMEOUT, env: Optional[Dict[str, str]] = None
) -> ChildResult:
    """Run one process to completion, killing it past ``timeout``; ``env`` adds variables."""
    with tempfile.TemporaryFile() as err:
        spawned = now()
        process = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=err, env=dict(child_env(), **(env or {})), cwd=str(ROOT)
        )
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            stdout, _ = process.communicate()
        ended = now()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ChildResult(process.returncode, stdout, stderr, spawned, ended - spawned)


def python() -> str:
    return sys.executable or "python3"


def launcher_argv(cli_args: Sequence[str], report: Path, trace: bool = False) -> List[str]:
    argv = [python(), str(LAUNCHER), "--report", str(report)]
    if trace:
        argv.append("--trace")
    return argv + ["--"] + list(cli_args)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Probe:
    """Machine-speed samples: the wall time of a fresh ``python3 -c "import numpy"``.

    The speed of a shared host drifts by up to 2x from minute to minute.
    Each gated latency is divided by a probe sample taken right after it
    (see :class:`Paired`), which cancels most of that drift.  The probe is
    process start plus import, the floor the ROADMAP asks latencies to be
    read against.  It runs with one BLAS thread: with the default two,
    ``import numpy`` waits for a thread on the other CPU and takes 60 % longer
    whenever that CPU is busy, a penalty single-threaded work does not pay.
    No repository code runs in the probe, so a change to the program cannot
    move it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples; returns their median."""
        for _ in range(count):
            result = run_child([python(), "-c", "import numpy"], env=PROBE_ENV)
            if result.returncode != 0:
                raise RuntimeError(f"import numpy failed: {result.stderr.strip()}")
            self.samples.append(result.wall_s)
        return median(self.samples[-count:])

    def median(self) -> float:
        return median(self.samples)


class Paired:
    """Latencies in units of the probe sampled right after them.

    After each block of operations the probe is sampled ``count`` times, and
    the block's latencies and busy time are divided by those samples' median.
    This follows the host's drift within a run, where one median per run
    would not.
    """

    def __init__(self, probe: Probe, count: int = 1) -> None:
        self.probe = probe
        self.count = count
        self.latencies_s: List[float] = []
        self.ratios: List[float] = []
        #: The operation kind of each ratio.
        self.kinds: List[str] = []
        self.busy_units = 0.0

    def block(self, latencies_s: Sequence[float], busy_s: float, kinds: Sequence[str] = ()) -> None:
        unit = self.probe.sample(self.count)
        self.latencies_s += latencies_s
        self.ratios += [latency / unit for latency in latencies_s]
        self.kinds += list(kinds) or ["operation"] * len(latencies_s)
        self.busy_units += busy_s / unit

    def p50(self) -> float:
        """The geometric mean of each operation kind's median ratio.

        A pooled median would sit inside one kind's cluster and ignore the
        others; this way a change to any kind moves the result.
        """
        by_kind: Dict[str, List[float]] = {}
        for kind, ratio in zip(self.kinds, self.ratios):
            by_kind.setdefault(kind, []).append(ratio)
        logs = [math.log(median(ratios)) for ratios in by_kind.values()]
        return math.exp(sum(logs) / len(logs))


def import_probe() -> Dict[str, float]:
    """Median in-interpreter ``import repro`` time and the modules it loads."""
    times, modules = [], set()
    for _ in range(PROBE_REPEATS):
        result = run_child([python(), str(LAUNCHER), "--probe-import"])
        if result.returncode != 0:
            raise RuntimeError(f"import repro failed: {result.stderr.strip()}")
        probe = json.loads(result.stdout)
        times.append(probe["import_repro_s"])
        modules.add(probe["modules_loaded"])
    return {"import.repro_s": median(times), "import.modules_loaded": float(max(modules))}


def machine(floor_s: float) -> Dict[str, Any]:
    """The descriptor recorded beside every result."""
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_floor_s": floor_s,
        "platform": platform.platform(),
    }


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident memory of a process since start or the last reset (``VmHWM``)."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: The ``end_to_end`` metrics of BENCHMARK.json (trace 0).
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: The ``per_layer`` metrics of BENCHMARK.json (trace 1).
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Everything else the report prints: the workload's own metric names,
    #: sample counts, input sizes.
    report: Dict[str, Any] = field(default_factory=dict)
    #: Deterministic counters by operation kind (the drift check).
    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def gate_latencies(outcome: Outcome, paired: Paired, setups: Paired) -> None:
    """The gated latency, throughput and set-up metrics.

    ``setups`` holds each set-up's time, paired with a probe sample like the
    operations.  Raw seconds would follow the host's drift from run to run
    (±40 % on the tuning VM), so ``setup_s`` is the median set-up in probe
    units times :data:`REFERENCE_FLOOR_S`: seconds at the tuning machine's
    speed.  The report prints the raw median as ``setup_raw_s``.
    """
    outcome.end_to_end.update(
        setup_s=setups.p50() * REFERENCE_FLOOR_S,
        p50_per_probe=paired.p50(),
        ops_per_probe=len(paired.ratios) / paired.busy_units,
    )
    outcome.report["setup_raw_s"] = median(setups.latencies_s)


def tail(latencies_s: Sequence[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    count = len(latencies_s)
    for q in (99, 98, 95, 90, 75):
        if count * (100 - q) / 100.0 >= 10:
            return q, percentile(latencies_s, q)
    return 50, median(latencies_s)


def report_latencies(report: Dict[str, Any], prefix: str, latencies_s: Sequence[float], busy_s: float) -> None:
    """The raw numbers beside the gated ones: median, tail, rate, samples."""
    q, value = tail(latencies_s)
    report[f"{prefix}_p50_ms"] = median(latencies_s) * 1e3
    report[f"{prefix}_p{q}_ms"] = value * 1e3
    report[f"{prefix}_per_s"] = len(latencies_s) / busy_s
    report[f"{prefix}_samples"] = len(latencies_s)


#: Per-layer metrics that are times: reported as seconds per operation.
LAYER_TIMES = (
    "cli.main_self_s",
    "cli.parse_s",
    "cli.inputs_s",
    "cli.render_s",
    "session.init_s",
    "session.compile_s",
    "session.recommend_s",
    "enumerate.specs_s",
    "layout.build_s",
    "ranking.rank_s",
    "costmodel.access_s",
    "costmodel.prefetch_s",
    "costmodel.cost_s",
    "allocation.place_s",
    "engine.self_s",
    "store.load_s",
    "store.save_s",
    "tuning.study_s",
)
#: Per-layer counters: reported per operation.
LAYER_COUNTS = (
    "enumerate.considered",
    "enumerate.surviving",
    "layout.count",
    "costmodel.work_units",
    "allocation.fragments",
    "engine.chunks",
    "cache.hits",
    "cache.misses",
)


#: Per-layer metrics only some workloads measure (the service, the process
#: start of a launched CLI, the on-disk store).
OFF_PATH_DEFAULTS = (
    "process.start_s",
    "store.bytes",
    "service.request_s",
    "service.submit_s",
    "service.overhead_s",
    "service.response_bytes",
)


def layer_metrics(recorder: Recorder, operations: int) -> Dict[str, float]:
    """Per-operation layer metrics from the spans of ``operations`` operations."""
    totals = aggregate(recorder)
    per_op = max(operations, 1)
    metrics = {name: totals.get(name, 0.0) / per_op for name in LAYER_TIMES + LAYER_COUNTS}
    # Layers off this workload's operation path read 0; the workloads that
    # drive them overwrite these.
    metrics.update(dict.fromkeys(OFF_PATH_DEFAULTS, 0.0))
    metrics["engine.evaluate_s"] = totals.get("engine.evaluate.inclusive_s", 0.0) / per_op
    considered = totals.get("enumerate.considered", 0.0)
    metrics["enumerate.surviving_ratio"] = (
        totals.get("enumerate.surviving", 0.0) / considered if considered else 0.0
    )
    sweeps = totals.get("engine.sweeps", 0.0)
    metrics["engine.jobs"] = totals.get("engine.jobs", 0.0) / sweeps if sweeps else 0.0
    lookups = totals.get("cache.hits", 0.0) + totals.get("cache.misses", 0.0)
    metrics["cache.hit_ratio"] = totals.get("cache.hits", 0.0) / lookups if lookups else 0.0
    metrics["cache.disk_hit_ratio"] = totals.get("cache.disk_hits", 0.0) / lookups if lookups else 0.0
    return metrics


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def canonical(payload: Any) -> str:
    """Digest of the key-sorted JSON form: two results are compared by it."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def trace_overhead_ms(untraced: Paired, traced: Paired) -> float:
    """Traced minus untraced median latency, in milliseconds.

    Both medians are taken in probe units (:meth:`Paired.p50`), so the host's
    drift between the two halves of the run cancels, and converted back with
    the run's median probe.
    """
    if not untraced.ratios or not traced.ratios:
        return 0.0
    return (traced.p50() - untraced.p50()) * untraced.probe.median() * 1e3
