"""CPU discovery for choosing an explicit worker count.

``jobs="auto"`` is serial (see :meth:`repro.engine.EvaluationEngine.resolve_jobs`);
callers that want a process pool pass ``jobs=N`` and may size it with
:func:`available_cpus`.  No worker count ever changes a result: the parity
tests assert bit-identical recommendations for every ``jobs`` value.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """CPUs available to *this process* (affinity-aware where possible).

    Prefers :func:`os.process_cpu_count` (Python 3.13+), falls back to the
    scheduling affinity on platforms that expose it, then to
    :func:`os.cpu_count`.  Returns at least 1.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return max(1, count or 1)
