"""Evaluation plans: the unit-of-work expansion of a candidate sweep.

The advisor's prediction layer is an embarrassingly parallel sweep: every
surviving fragmentation candidate is evaluated against every query class of
the mix, and the per-class results are folded into one
:class:`~repro.costmodel.WorkloadEvaluation` per candidate.  An
:class:`EvaluationPlan` makes that shape explicit *before* execution: it
expands the (candidate × query class) work units up front, attaches a cost
estimate to every candidate (the fragment count — a good proxy, since layout
materialization and allocation scale with it), and partitions the candidates
into deterministic, load-balanced chunks for the executor.

Per-candidate granularity is the dispatch unit (a candidate's query classes
share its layout, prefetch resolution and allocation, so splitting a candidate
across workers would duplicate that work); the unit expansion is still exposed
because it is the engine's accounting currency — progress, cache sizing and
the benchmark's work counts are all unit-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.errors import AdvisorError
from repro.fragmentation import FragmentationSpec
from repro.schema import StarSchema
from repro.workload import QueryMix

__all__ = ["WorkUnit", "EvaluationPlan"]


@dataclass(frozen=True)
class WorkUnit:
    """One (candidate, query class) evaluation of the sweep."""

    spec_index: int
    query_index: int
    spec_label: str
    query_name: str
    #: Fragment count of the candidate — the unit's relative cost estimate.
    estimated_fragments: int


@dataclass(frozen=True)
class EvaluationPlan:
    """The expanded work of one candidate sweep.

    ``specs`` preserves the caller's candidate order — the executor reports
    results in exactly this order regardless of how the work is partitioned.
    """

    specs: Tuple[FragmentationSpec, ...]
    query_names: Tuple[str, ...]
    #: Per-candidate cost estimates, index-aligned with ``specs``.
    spec_costs: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        specs: Sequence[FragmentationSpec],
        workload: QueryMix,
        schema: StarSchema,
    ) -> "EvaluationPlan":
        """Expand ``specs`` × ``workload`` into an evaluation plan."""
        specs = tuple(specs)
        if not specs:
            raise AdvisorError("an evaluation plan needs at least one candidate spec")
        query_names = tuple(query.name for query, _ in workload.weighted_items())
        if not query_names:
            raise AdvisorError("an evaluation plan needs at least one query class")
        spec_costs = tuple(spec.fragment_count(schema) for spec in specs)
        return cls(
            specs=specs,
            query_names=query_names,
            spec_costs=spec_costs,
        )

    @cached_property
    def units(self) -> Tuple[WorkUnit, ...]:
        """The (candidate × query class) work units, expanded on first use.

        Lazy: the expansion materializes ``num_candidates × num_classes``
        objects, which is pure accounting (progress, cache sizing, benchmark
        work counts) — the executor dispatches per candidate and never needs
        it, so plain sweeps skip the cost entirely.
        """
        return tuple(
            WorkUnit(
                spec_index=spec_index,
                query_index=query_index,
                spec_label=spec.label,
                query_name=query_name,
                estimated_fragments=self.spec_costs[spec_index],
            )
            for spec_index, spec in enumerate(self.specs)
            for query_index, query_name in enumerate(self.query_names)
        )

    # -- shape ------------------------------------------------------------------

    @property
    def num_candidates(self) -> int:
        """Number of candidate specs in the sweep."""
        return len(self.specs)

    @property
    def num_units(self) -> int:
        """Number of (candidate × query class) work units."""
        return len(self.units)

    def units_for_spec(self, spec_index: int) -> Tuple[WorkUnit, ...]:
        """The work units of one candidate."""
        if not 0 <= spec_index < len(self.specs):
            raise AdvisorError(
                f"spec index {spec_index} out of range [0, {len(self.specs)})"
            )
        per_spec = len(self.query_names)
        return self.units[spec_index * per_spec : (spec_index + 1) * per_spec]

    # -- axis-structure grouping --------------------------------------------------

    def axis_groups(self, indices=None, max_size: int = 0) -> List[List[int]]:
        """Candidate indices grouped by their spec's axis structure.

        Groups preserve first-seen sweep order, and indices within a group
        stay in sweep order — the unit :meth:`partition_indices` assigns to
        pool workers with ``by_axis_structure=True``.

        A positive ``max_size`` splits larger groups into consecutive
        group-pure sub-chunks of at most that many candidates: batching is a
        pure execution strategy (the kernels are elementwise per candidate),
        so splitting never changes a number — it only bounds progress /
        cancellation latency and restores load balance when one axis
        structure dominates a sweep.
        """
        if indices is None:
            indices = range(len(self.specs))
        groups: dict = {}
        for index in indices:
            groups.setdefault(self.specs[index].axis_structure, []).append(index)
        if max_size <= 0:
            return list(groups.values())
        return [
            group[start : start + max_size]
            for group in groups.values()
            for start in range(0, len(group), max_size)
        ]

    # -- partitioning -----------------------------------------------------------

    def partition(self, jobs: int) -> List[List[int]]:
        """Split all candidate indices into ``jobs`` balanced chunks."""
        return self.partition_indices(range(len(self.specs)), jobs)

    def partition_indices(
        self, indices, jobs: int, by_axis_structure: bool = False
    ) -> List[List[int]]:
        """Split a subset of candidate indices into ``jobs`` balanced chunks.

        Deterministic longest-processing-time assignment: candidates are
        considered in decreasing cost (fragment count), each going to the
        currently least-loaded chunk; ties break towards the earlier candidate
        and the lower chunk number.  Within a chunk, indices are sorted so the
        executor streams each chunk in sweep order.  Empty chunks are dropped
        (when ``jobs`` exceeds the candidate count).

        With ``by_axis_structure=True`` the assignment unit is an
        axis-structure group (see :meth:`axis_groups`) instead of a single
        candidate, so same-structure candidates land on the same worker and
        the candidate-axis kernels batch at full width.  Groups larger than
        one ``jobs``-th of the sweep are split into group-pure sub-units, so
        a sweep dominated by one axis structure still spreads over all
        workers.  Still deterministic LPT: units are considered in
        decreasing total cost, ties towards the unit containing the earliest
        candidate.
        """
        if jobs < 1:
            raise AdvisorError(f"jobs must be at least 1, got {jobs}")
        if by_axis_structure:
            indices = list(indices)
            units = self.axis_groups(
                indices, max_size=max(1, -(-len(indices) // jobs))
            )
        else:
            units = [[index] for index in indices]
        costs = [
            sum(max(1, self.spec_costs[index]) for index in unit) for unit in units
        ]
        order = sorted(
            range(len(units)), key=lambda u: (-costs[u], units[u][0])
        )
        loads = [0] * jobs
        chunks: List[List[int]] = [[] for _ in range(jobs)]
        for u in order:
            target = min(range(jobs), key=lambda job: (loads[job], job))
            chunks[target].extend(units[u])
            loads[target] += costs[u]
        for chunk in chunks:
            chunk.sort()
        return [chunk for chunk in chunks if chunk]

    def describe(self) -> str:
        """One-line summary used by logs and the benchmark."""
        return (
            f"evaluation plan: {self.num_candidates} candidates x "
            f"{len(self.query_names)} query classes = {self.num_units} work units, "
            f"{sum(self.spec_costs):,} fragments total"
        )
