"""Workload ``whatif-http``: two clients against a warm ``warlock serve``.

A warm interactive session is the second latency users feel.  The server runs
in its own process, started through the launcher, with ``apb1`` and
``retail`` registered and warmed during set-up.  Two client threads run a
closed loop (each sends its next request when the previous one has been
answered; the server closes every connection) over a seeded mix; every block
of twenty operations is a seeded permutation of

* 12 warm ``recommend`` reads, half on each warehouse, answered from the
  session memo: mostly the HTTP wire and the JSON encoding of a 30-40 KB
  response;
* 6 what-ifs, half on each warehouse, with seeded settings that hit the
  cache only in part: ``tune`` (disks, prefetch, architecture or query
  weights) or ``evaluate_spec`` with a seeded ``bitmap_exclude``;
* 2 writes: a ``PUT`` that re-registers ``apb1`` with a seeded skew and disk
  count, so the next request on it runs a cold sweep.

The writes next to the reads show when a change speeds up cache hits at the
cost of cold work, or the other way round.  Every answer is compared with an
in-process :class:`repro.AdvisorSession` on the same inputs: the recommend
``fingerprint``, and the canonical JSON of every other result.  A request that
overlaps a write, or follows two overlapping writes, may see any of those
registrations; it must match one of them.

The server runs with ``--jobs 1``, not the default ``--jobs auto``, and every
run says so on stderr and in its report.  With ``--jobs auto`` a cold sweep
forks a process pool from a request thread while other request threads run,
and now and then a forked worker deadlocks on a lock copied from the parent:
the request never returns and its warehouse stays locked (about one request
in 1500 under this mix).  So the pool start-up of the default server's cold
sweeps is measured by no workload.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
from tracer import Recorder, aggregate, now

CLIENTS = 2
#: The traffic runs in this many segments, with probe samples between them.
SEGMENTS = 15
#: Probe samples after each segment; their median is the segment's unit.
PROBES_PER_SEGMENT = 2
SERVE_ARGS = ["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1"]
#: Printed by every run while ``SERVE_ARGS`` departs from the default server.
NOT_DEFAULT = (
    "warning: whatif-http measures `serve --jobs 1`, not the default `--jobs auto`, "
    "whose forked pool workers can deadlock (see perfbench/README.md)"
)
#: One block of the mix as (kind, warehouse) slots, shuffled per block: the
#: same share of every kind on every warehouse in every run.
BLOCK = (
    [("read", "apb1")] * 6
    + [("read", "retail")] * 6
    + [("whatif", "apb1")] * 3
    + [("whatif", "retail")] * 3
    + [("write", "apb1")] * 2
)
WAREHOUSES = {"apb1": {"dataset": "apb1"}, "retail": {"dataset": "retail"}}
SKEWS = (0.0, 0.25, 0.5, 0.75, 1.0)
DISKS = (32, 48, 64, 96)
DISK_SETTINGS = (8, 16, 32, 48, 64, 96, 128)
PREFETCH_SETTINGS = (1, 4, 16, 64, 256, "auto")
WEIGHTS = (0.5, 2.0, 5.0, 10.0)
ANNOUNCE = re.compile(r"serving advisor sessions on http://[^:]+:(\d+)")


class Server:
    """A ``warlock serve`` process started through the launcher."""

    def __init__(self, report: Path, trace: bool = False) -> None:
        self.process = subprocess.Popen(
            common.launcher_argv(SERVE_ARGS, report, trace),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=common.child_env(),
            cwd=str(common.ROOT),
            text=True,
            start_new_session=True,  # its own process group: stop() ends every descendant
        )
        self._drain: Optional[threading.Thread] = None
        self.log: List[str] = []
        timer = threading.Timer(common.CHILD_TIMEOUT, self.process.kill)
        timer.start()
        try:
            self.port = self._await_port()
        finally:
            timer.cancel()
        self._drain = threading.Thread(target=self._drain_log, daemon=True)
        self._drain.start()

    def _await_port(self) -> int:
        for line in self.process.stderr:
            self.log.append(line)
            match = ANNOUNCE.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("warlock serve exited before listening: " + "".join(self.log)[-500:])

    def _drain_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=common.CHILD_TIMEOUT)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown) and wait; then end any descendant left."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        group = self.process.pid
        try:
            os.killpg(group, signal.SIGKILL)
            for _ in range(500):  # orphans are reaped by init; wait until the group is gone
                time.sleep(0.01)
                os.killpg(group, 0)
        except ProcessLookupError:
            pass
        if self._drain is not None:
            self._drain.join(timeout=10)


def setup(report: Path, trace: bool = False) -> Tuple[Server, Dict[str, Any]]:
    """Start, register and warm; returns the server and each warehouse's recommend answer."""
    server = Server(report, trace)
    try:
        answers = {}
        for name, body in WAREHOUSES.items():
            status, data = server.call("PUT", f"/warehouses/{name}", body)
            if status != 200:
                raise RuntimeError(f"registering {name} answered {status}: {data[:300]!r}")
        for name in WAREHOUSES:
            status, data = server.call("POST", f"/warehouses/{name}/submit", {"kind": "recommend"})
            if status != 200:
                raise RuntimeError(f"warming {name} answered {status}: {data[:300]!r}")
            answers[name] = json.loads(data)
    except BaseException:
        server.stop()
        raise
    return server, answers


@dataclass(frozen=True)
class Operation:
    kind: str  # read | whatif | write
    warehouse: str
    method: str
    path: str
    body: Dict[str, Any]

    @property
    def key(self) -> str:
        return json.dumps([self.method, self.path, self.body], sort_keys=True)


class Menu:
    """The seeded operation sequence; operation ``i`` depends only on (seed, i)."""

    def __init__(self, seed: int, answers: Dict[str, Any]) -> None:
        from repro.datasets import apb1_query_mix, retail_query_mix

        self.seed = seed
        self.classes = {
            "apb1": [c.name for c in apb1_query_mix().classes],
            "retail": [c.name for c in retail_query_mix().classes],
        }
        self.candidates = {
            name: [
                (
                    ranked["attributes"],
                    [[index["dimension"], index["level"]] for index in ranked["bitmap_scheme"]],
                )
                for ranked in answer["result"]["ranked"][:3]
            ]
            for name, answer in answers.items()
        }

    def operation(self, index: int) -> Operation:
        block, slot = divmod(index, len(BLOCK))
        slots = list(BLOCK)
        random.Random(f"{self.seed}:block:{block}").shuffle(slots)
        kind, warehouse = slots[slot]
        rng = random.Random(f"{self.seed}:op:{index}")
        if kind == "write":
            body = {"dataset": "apb1", "skew": rng.choice(SKEWS), "disks": rng.choice(DISKS)}
            return Operation(kind, warehouse, "PUT", f"/warehouses/{warehouse}", body)
        path = f"/warehouses/{warehouse}/submit"
        if kind == "read":
            return Operation(kind, warehouse, "POST", path, {"kind": "recommend"})
        return Operation(kind, warehouse, "POST", path, self._whatif(rng, warehouse))

    def _whatif(self, rng: random.Random, warehouse: str) -> Dict[str, Any]:
        choice = rng.choice(("disks", "prefetch", "architecture", "weights", "evaluate_spec"))
        if choice == "evaluate_spec":
            attributes, indexes = rng.choice(self.candidates[warehouse])
            excluded = rng.sample(indexes, min(len(indexes), rng.choice((1, 2))))
            return {"kind": "evaluate_spec", "spec": {"attributes": attributes}, "bitmap_exclude": excluded}
        if choice == "disks":
            return {"kind": "tune", "study": "disks", "settings": sorted(rng.sample(DISK_SETTINGS, 3))}
        if choice == "prefetch":
            settings = rng.sample(PREFETCH_SETTINGS, 3)
            return {"kind": "tune", "study": "prefetch", "settings": settings}
        if choice == "weights":
            names = rng.sample(self.classes[warehouse], 2)
            return {
                "kind": "tune",
                "study": "weights",
                "settings": {"what-if": {name: rng.choice(WEIGHTS) for name in names}},
            }
        return {"kind": "tune", "study": "architecture"}


@dataclass
class Record:
    operation: Operation
    start: float
    end: float
    status: int
    answer: Optional[str]
    size: int


def summarize(operation: Operation, status: int, data: bytes) -> Optional[str]:
    """What the check compares: the fingerprint, or the result's canonical JSON."""
    if status != 200:
        return None
    try:
        payload = json.loads(data)
        if operation.kind == "write":
            return "registered" if "registered" in payload else None
        if operation.body["kind"] == "recommend":
            return payload["fingerprint"]
        return common.canonical(payload["result"])
    except (ValueError, KeyError, TypeError):
        return None  # a malformed answer counts as failed


def drive(server: Server, menu: Menu, seconds: float, counter=None) -> Tuple[List[Record], float]:
    """Two closed-loop clients until the deadline; returns the records and the wall time."""
    records: List[Record] = []
    lock = threading.Lock()
    counter = counter if counter is not None else itertools.count()
    start = now()
    deadline = start + seconds
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while now() < deadline:
                with lock:
                    index = next(counter)
                operation = menu.operation(index)
                began = now()
                try:
                    status, data = server.call(operation.method, operation.path, operation.body)
                except OSError as error:
                    status, data = 0, str(error).encode()
                ended = now()
                record = Record(operation, began, ended, status, summarize(operation, status, data), len(data))
                with lock:
                    records.append(record)
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, now() - start


def traffic(server: Server, menu: Menu, seconds: float, paired: common.Paired) -> Tuple[List[Record], float]:
    """The mix in segments, probe samples after each; returns records and busy seconds."""
    records: List[Record] = []
    busy = 0.0
    counter = itertools.count()
    for _ in range(SEGMENTS):
        segment, wall = drive(server, menu, seconds / SEGMENTS, counter)
        records += segment
        busy += wall
        answered = [r for r in segment if r.answer is not None]
        paired.block(latencies_of(answered), wall, [r.operation.kind for r in answered])
    return records, busy


class Oracle:
    """In-process sessions on the same inputs as each registration."""

    def __init__(self) -> None:
        self.sessions: Dict[str, Any] = {}
        self.answers: Dict[Tuple[str, str], Optional[str]] = {}

    def expect(self, registration: Dict[str, Any], operation: Operation) -> Optional[str]:
        from repro import AdvisorSession
        from repro.api.requests import request_from_dict
        from repro.service import warehouse_inputs_from_dict

        state = json.dumps(registration, sort_keys=True)
        key = (state, operation.key)
        if key not in self.answers:
            session = self.sessions.get(state)
            if session is None:
                schema, workload, system, config, _engine = warehouse_inputs_from_dict(registration)
                session = self.sessions[state] = AdvisorSession(schema, workload, system, config)
            result = session.submit(request_from_dict(operation.body))
            if operation.body["kind"] == "recommend":
                self.answers[key] = result.fingerprint
            else:
                self.answers[key] = common.canonical(json.loads(json.dumps(result.to_dict())))
        return self.answers[key]


def registrations(writes, start: float, end: float) -> List[Dict[str, Any]]:
    """The ``apb1`` registrations a request sent at ``start`` and answered at ``end`` may see.

    Of the writes answered before ``start``, any one may be in effect unless
    another of them was sent after it was answered; two overlapping writes
    can take effect in either order.  Any write overlapping the request may
    be in effect too.
    """
    settled = [(s, e, body) for s, e, body in writes if e <= start]
    states = [body for s, e, body in settled if not any(other > e for other, _e, _b in settled)]
    if not settled:
        states = [WAREHOUSES["apb1"]]
    return states + [body for s, e, body in writes if s < end and e > start]


def verify(records: List[Record], outcome: common.Outcome, oracle: Oracle) -> None:
    """Check every answer against the registrations it may have seen."""
    writes = sorted(
        (r.start, r.end, r.operation.body) for r in records if r.operation.kind == "write" and r.status == 200
    )
    for record in records:
        operation = record.operation
        outcome.attempted += 1
        if record.answer is None:
            outcome.fail(f"{operation.method} {operation.path} {operation.body}: status {record.status}")
            continue
        if operation.kind == "write":
            continue
        if operation.warehouse == "apb1":
            states = registrations(writes, record.start, record.end)
        else:
            states = [WAREHOUSES[operation.warehouse]]
        if not any(oracle.expect(state, operation) == record.answer for state in states):
            outcome.fail(f"{operation.path} {operation.body}: answer differs from the in-process session")


def latencies_of(records: List[Record], kind: Optional[str] = None) -> List[float]:
    return [r.end - r.start for r in records if r.answer is not None and (kind is None or r.operation.kind == kind)]


def run(seed: int, seconds: float, trace: bool, probe: common.Probe) -> common.Outcome:
    outcome = common.Outcome()
    print("perfbench: " + NOT_DEFAULT, file=sys.stderr)
    outcome.report["serve_args"] = " ".join(SERVE_ARGS[1:])
    scratch = common.workdir("whatif-http")
    servers: List[Server] = []
    try:
        setups = common.Paired(probe)
        for _ in range(common.SETUP_REPEATS):
            started = now()
            server, answers = setup(scratch / "exit.json")
            elapsed = now() - started
            setups.block([elapsed], elapsed)
            for previous in servers:
                previous.stop()
            servers = [server]
        menu = Menu(seed, answers)
        oracle = Oracle()
        paired = common.Paired(probe, PROBES_PER_SEGMENT)
        records, busy = traffic(server, menu, seconds / 2 if trace else seconds, paired)
        peak_rss = common.peak_rss_mb(str(server.process.pid))
        server.stop()
        verify(records, outcome, oracle)
        latencies = latencies_of(records)
        if not latencies:
            outcome.fail("no request completed")
            return outcome
        common.gate_latencies(outcome, paired, setups)
        outcome.end_to_end["peak_rss_mb"] = peak_rss
        common.report_latencies(outcome.report, "http", latencies, busy)
        outcome.report["response_bytes_mean"] = sum(r.size for r in records) / len(records)
        for kind in ("read", "whatif", "write"):
            values = latencies_of(records, kind)
            outcome.report[f"{kind}_p50_ms"] = common.median(values) * 1e3 if values else None
            outcome.report[f"{kind}_samples"] = len(values)
        if trace:
            spans = scratch / "server-spans.json"
            server, _answers = setup(spans, trace=True)
            servers = [server]
            traced_paired = common.Paired(probe, PROBES_PER_SEGMENT)
            traced, _busy = traffic(server, menu, seconds / 2, traced_paired)
            server.stop()
            # The traced answers are checked against the same oracle as the
            # untraced ones, so the wrappers provably changed no output.
            verify(traced, outcome, oracle)
            recorder = Recorder()
            recorder.extend(json.loads(spans.read_text()))
            window = recorder.window(min(r.start for r in traced), max(r.end for r in traced))
            requests = max(len(traced), 1)
            totals = aggregate(window)
            request_s = sum(r.end - r.start for r in traced) / requests
            submit_s = totals.get("service.submit.inclusive_s", 0.0) / requests
            layers = common.layer_metrics(window, requests)
            layers.update(common.import_probe())
            layers.update(
                {
                    "service.request_s": request_s,
                    "service.submit_s": submit_s,
                    "service.overhead_s": request_s - submit_s,
                    "service.response_bytes": sum(r.size for r in traced) / requests,
                    "trace.overhead_p50_ms": common.trace_overhead_ms(paired, traced_paired),
                }
            )
            outcome.per_layer = layers
            outcome.counters = {"import": {"modules_loaded": layers["import.modules_loaded"]}}
        return outcome
    finally:
        for server in servers:
            server.stop()
        common.remove(scratch)
