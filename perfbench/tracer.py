"""Span recorder and the layer wrappers that feed it.

Spans are recorded from the benchmark's own files: :func:`install` replaces
each layer's public function *where its caller looks it up* (for example
``repro.engine.executor.build_layout``, not ``repro.fragmentation.build_layout``)
with a wrapper that records one span per call.  Nothing under ``src/`` is
edited.  Spans stay in memory until the run ends and are then aggregated (or,
in a launched child process, dumped to a JSON file the parent reads).

Every span carries a name, start, end, parent span and request id.  A layer's
self time is its span's duration minus the time its child spans cover.  The
clock is ``CLOCK_MONOTONIC``, which is shared by every process on the machine,
so spans from the server process can be filtered by the client's time window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "install", "now", "aggregate", "cache_counts", "counters_by_request"]


def now() -> float:
    """The shared span clock (seconds, ``CLOCK_MONOTONIC``)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory spans and counters, thread-safe, tagged by request id."""

    def __init__(self, clock: Callable[[], float] = now) -> None:
        self.clock = clock
        #: (span_id, parent_id, request_id, name, start, end)
        self.spans: List[Tuple[int, int, Any, str, float, float]] = []
        #: (request_id, name, amount, at)
        self.counts: List[Tuple[Any, str, float, float]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        """This thread's open spans as (span id, name), outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Any) -> None:
        """Tag this thread's following spans with ``request_id``."""
        self._local.request = request_id

    def call(self, name: str, function: Callable, args, kwargs, count=None):
        """Run ``function`` inside a span; ``count(result, args, kwargs)`` adds counters.

        Counters are added only by the outermost span of a name, so a wrapped
        method that calls another one under the same name (``partition_indices``
        calls ``axis_groups``) counts its work once.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        request = getattr(self._local, "request", None)
        if request is None:
            # Server threads carry no request id: the root span names the request.
            request = stack[0][0] if stack else span_id
        outermost = all(open_name != name for _span, open_name in stack)
        stack.append((span_id, name))
        start = self.clock()
        try:
            result = function(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, request, name, start, end))
        if count is not None and outermost:
            for counter, amount in count(result, args, kwargs):
                self.add(counter, amount, request)
        return result

    def add(self, name: str, amount: float, request: Any = None) -> None:
        """Add ``amount`` to counter ``name`` for the current request."""
        if request is None:
            request = getattr(self._local, "request", None)
        with self._lock:
            self.counts.append((request, name, amount, self.clock()))

    def record(self, name: str, start: float, end: float, request: Any = None) -> None:
        """Record a span measured outside a wrapper (e.g. ``import repro``)."""
        with self._lock:
            self.spans.append((next(self._ids), 0, request, name, start, end))

    def dump(self, path: str, **extra) -> None:
        """Write spans and counters to ``path`` (the launcher's exit hook)."""
        with self._lock:
            payload = dict(extra, spans=list(self.spans), counts=list(self.counts))
        with open(path, "w") as handle:
            json.dump(payload, handle)

    def extend(self, payload: Dict[str, Any], request: Any = None) -> None:
        """Merge a dumped child's spans, re-keyed under ``request`` if given."""
        offset = 10 ** 9 * (1 + len(self.spans))
        with self._lock:
            for span_id, parent, req, name, start, end in payload["spans"]:
                self.spans.append(
                    (
                        span_id + offset,
                        parent + offset if parent else 0,
                        request if request is not None else req,
                        name,
                        start,
                        end,
                    )
                )
            for req, name, amount, at in payload["counts"]:
                self.counts.append((request if request is not None else req, name, amount, at))

    def window(self, start: float, end: float) -> "Recorder":
        """A copy holding only the spans and counters inside ``[start, end]``."""
        copy = Recorder(self.clock)
        with self._lock:
            copy.spans = [s for s in self.spans if s[4] >= start and s[5] <= end]
            copy.counts = [c for c in self.counts if start <= c[3] <= end]
        return copy


# -- what is wrapped ------------------------------------------------------------------

def cache_counts(stats) -> Tuple[int, int, int]:
    """(hits, misses, disk hits) of an ``EvaluationCache.stats`` snapshot."""
    return stats.hits, stats.misses, stats.disk_hits


def cache_delta(before, after) -> List[Tuple[str, int]]:
    """The cache counters one operation added."""
    return [
        (name, a - b)
        for name, b, a in zip(("cache.hits", "cache.misses", "cache.disk_hits"), before, after)
    ]


def _advisor_cache_counts(result, args, kwargs):
    cache = args[0].cache  # the CLI's one advisor per process: totals are the op's
    return cache_delta((0, 0, 0), cache_counts(cache.stats)) if cache is not None else []


def _specs_counts(result, args, kwargs):
    specs, report = result
    return [("enumerate.considered", report.considered), ("enumerate.surviving", len(specs))]


def _one(counter):
    return lambda result, args, kwargs: [(counter, 1)]


def _jobs_counts(result, args, kwargs):
    return [("engine.jobs", result), ("engine.sweeps", 1)]


def _chunk_counts(result, args, kwargs):
    return [("engine.chunks", len(result))]


def _work_units_candidates(result, args, kwargs):
    layouts, matrix = args[0], args[2]
    return [("costmodel.work_units", len(layouts) * matrix.num_classes)]


def _work_units_single(result, args, kwargs):
    return [("costmodel.work_units", args[2].num_classes)]


def _fragments_batch(result, args, kwargs):
    return [("allocation.fragments", sum(layout.fragment_count for layout in args[0]))]


def _fragments_single(result, args, kwargs):
    return [("allocation.fragments", args[0].fragment_count)]


#: (module, attribute path, span name, counter function).  Each entry is the
#: place a caller looks the name up, so the wrapper sees every call.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.cli", "build_parser", "cli.parse", None),
    ("repro.cli", "_advisor", "cli.inputs", None),
    ("repro.cli", "_cmd_recommend", "cli.command", None),
    ("repro.cli", "_finish_cache", "cli.finish", _advisor_cache_counts),
    ("repro.api.session", "AdvisorSession.__init__", "session.init", None),
    ("repro.api.session", "AdvisorSession.recommend", "session.recommend", None),
    ("repro.api.session", "AdvisorSession.submit", "service.submit", None),
    ("repro.api.session", "AdvisorSession.generate_specs", "enumerate.specs", _specs_counts),
    ("repro.api.session", "rank_candidates_columnar", "ranking.rank", None),
    ("repro.engine.executor", "EvaluationEngine.bitmap_scheme", "session.compile", None),
    ("repro.engine.executor", "EvaluationEngine.class_matrix", "session.compile", None),
    ("repro.engine.executor", "EvaluationEngine.evaluate_specs", "engine.evaluate", None),
    ("repro.engine.executor", "EvaluationEngine.resolve_jobs", "engine.plan", _jobs_counts),
    ("repro.engine.plan", "EvaluationPlan.axis_groups", "engine.plan", _chunk_counts),
    ("repro.engine.plan", "EvaluationPlan.partition_indices", "engine.plan", _chunk_counts),
    ("repro.engine.executor", "evaluate_specs_in_context", "engine.chunk", None),
    ("repro.engine.executor", "evaluate_spec_in_context", "engine.chunk", None),
    ("repro.engine.executor", "build_layout", "layout.build", _one("layout.count")),
    ("repro.engine.executor", "compute_access_structure_batch_candidates", "costmodel.access", None),
    ("repro.engine.executor", "compute_access_structure_batch", "costmodel.access", None),
    ("repro.engine.executor", "resolve_prefetch_settings_batch_candidates", "costmodel.prefetch", None),
    ("repro.engine.executor", "resolve_prefetch_setting_batch", "costmodel.prefetch", None),
    ("repro.engine.executor", "evaluate_workload_batch_candidates", "costmodel.cost", _work_units_candidates),
    ("repro.engine.executor", "evaluate_workload_batch", "costmodel.cost", _work_units_single),
    ("repro.engine.executor", "choose_allocations_batch", "allocation.place", _fragments_batch),
    ("repro.engine.executor", "choose_allocation", "allocation.place", _fragments_single),
    ("repro.engine.store", "CacheStore.load", "store.load", None),
    ("repro.engine.store", "CacheStore.save", "store.save", None),
    ("repro.tuning", "disk_count_study", "tuning.study", None),
    ("repro.tuning", "architecture_study", "tuning.study", None),
    ("repro.tuning", "prefetch_study", "tuning.study", None),
    ("repro.tuning", "bitmap_exclusion_study", "tuning.study", None),
    ("repro.tuning", "workload_weight_study", "tuning.study", None),
]

#: Span name -> the layer whose self time it adds to.
LAYER_OF = {
    "cli.main": "cli.main_self",
    "cli.parse": "cli.parse",
    "cli.inputs": "cli.inputs",
    "cli.command": "cli.render",
    "cli.finish": "cli.render",
    "session.init": "session.init",
    "session.recommend": "session.recommend",
    "service.submit": "service.submit_self",
    "enumerate.specs": "enumerate.specs",
    "ranking.rank": "ranking.rank",
    "session.compile": "session.compile",
    "engine.evaluate": "engine.self",
    "engine.plan": "engine.self",
    "engine.chunk": "engine.self",
    "layout.build": "layout.build",
    "costmodel.access": "costmodel.access",
    "costmodel.prefetch": "costmodel.prefetch",
    "costmodel.cost": "costmodel.cost",
    "allocation.place": "allocation.place",
    "store.load": "store.load",
    "store.save": "store.save",
    "tuning.study": "tuning.study",
    "import.repro": "import.repro",
}


def _wrap(recorder: Recorder, function: Callable, name: str, count) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return recorder.call(name, function, args, kwargs, count)

    return wrapper


def _wrap_submit(recorder: Recorder, function: Callable) -> Callable:
    """``AdvisorSession.submit`` also counts the cache probes the request made."""

    @functools.wraps(function)
    def wrapper(session, *args, **kwargs):
        cache = session.cache
        before = cache_counts(cache.stats) if cache is not None else None
        try:
            return recorder.call("service.submit", function, (session,) + args, kwargs)
        finally:
            if cache is not None:
                for name, amount in cache_delta(before, cache_counts(cache.stats)):
                    recorder.add(name, amount)

    return wrapper


def _wrap_parse_args(recorder: Recorder, function: Callable) -> Callable:
    """``build_parser`` also times the returned parser's ``parse_args``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        parser = recorder.call("cli.parse", function, args, kwargs)
        parse = parser.parse_args
        parser.parse_args = lambda *a, **k: recorder.call("cli.parse", parse, a, k)
        return parser

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    restore = []
    for module_name, path, name, count in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if attribute == "build_parser":
            wrapped = _wrap_parse_args(recorder, original)
        elif attribute == "submit":
            wrapped = _wrap_submit(recorder, original)
        else:
            wrapped = _wrap(recorder, original, name, count)
        setattr(owner, attribute, wrapped)
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# -- aggregation ----------------------------------------------------------------------

def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, parent, _request, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, _request, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def aggregate(recorder: Recorder) -> Dict[str, float]:
    """Totals over the recorder: ``<layer>_s`` self times, inclusive times, counters."""
    totals: Dict[str, float] = {}
    own = self_times(recorder.spans)
    for span in recorder.spans:
        span_id, _parent, _request, name, start, end = span
        layer = LAYER_OF.get(name)
        if layer is not None:
            totals[layer + "_s"] = totals.get(layer + "_s", 0.0) + own[span_id]
        totals[name + ".inclusive_s"] = totals.get(name + ".inclusive_s", 0.0) + (end - start)
    for _request, name, amount, _at in recorder.counts:
        totals[name] = totals.get(name, 0.0) + amount
    return totals


def counters_by_request(recorder: Recorder) -> Dict[Any, Dict[str, float]]:
    """Request id -> its counters (the drift check compares these)."""
    result: Dict[Any, Dict[str, float]] = {}
    for request, name, amount, _at in recorder.counts:
        bucket = result.setdefault(request, {})
        bucket[name] = bucket.get(name, 0.0) + amount
    return result
