"""Vectorized cost estimation over a stack of layouts: (candidate × class).

The scalar path (:mod:`repro.costmodel.access` / :mod:`repro.costmodel.model`)
evaluates one (candidate, query class) pair per call; the advisor's sweep
would therefore pay ``num_classes`` Python passes per candidate.  This module
is the one vectorized implementation of the same model:

* a :class:`~repro.workload.ClassMatrix` supplies the workload in columnar
  form;
* a whole chunk of layouts, whatever its mix of *axis structures*
  (:attr:`~repro.fragmentation.FragmentationSpec.axis_structure` — the
  ordered fragmentation dimensions), stacks into (candidate × class) planes.
  :func:`compute_access_structure_batch_candidates` walks the axis positions
  and gathers each candidate's own matrix row, attribute depth and axis
  cardinality there; a candidate with fewer axes, or an axis no class
  restricts, reads a padded unrestricted row whose factor is exactly ×1.0;
* prefetch resolution and the cost model are purely elementwise per
  candidate, so :func:`resolve_prefetch_settings_batch_candidates` and
  :func:`evaluate_workload_batch_candidates` run over the same stack, and the
  executor evaluates a whole chunk in one fused kernel pass.

Single-spec evaluation (what-ifs, tuning studies) runs the same kernels on a
stack of one layout: :func:`compute_access_structure_batch`,
:func:`resolve_prefetch_setting_batch` and :func:`evaluate_workload_batch`
are those one-layout entry points.  :class:`AccessStructureBatch` — one
layout's slice of a stack — is the unit the evaluation cache and the
persistent store hold.

Evaluations come out **columnar** (:class:`~repro.costmodel.EvaluationColumns`
inside :class:`~repro.costmodel.WorkloadEvaluation`): per-class records are
lazy views, so the sweep materializes no per-class Python objects at all.

**Bit-parity contract.** The vectorized path is the *same model*, not an
approximation: every vector expression performs the identical IEEE-754 double
operations in the identical order as its scalar counterpart (down to routing
``pow`` through CPython floats, see
:func:`repro.costmodel.formulas._elementwise_pow`, and accumulating ragged
per-index sums with ``np.add.at`` in scalar iteration order; stacked flat
rows stay candidate-major so each candidate's slice replays the per-class
residual order).  The scalar path stays as the reference implementation;
``tests/test_vector_parity.py`` sweeps random layouts, bitmap schemes and
prefetch settings and asserts field-by-field equality of
:class:`~repro.costmodel.QueryAccessProfile` and
:class:`~repro.costmodel.QueryCost` between the scalar path and the kernels,
per class and per stacked candidate slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CostModelError
from repro.fragmentation import FragmentationLayout
from repro.storage import PrefetchSetting, SystemParameters
from repro.workload.matrix import ClassMatrix
from repro.costmodel.access import (
    SEQUENTIAL_DENSITY_THRESHOLD,
    AccessStructure,
    QueryAccessProfile,
)
from repro.costmodel.formulas import cardenas_pages, expected_distinct_ancestors
from repro.costmodel.model import (
    NUM_METRIC_FIELDS,
    EvaluationColumns,
    WorkloadEvaluation,
    _positioning_page_equivalent,
)

__all__ = [
    "AccessStructureBatch",
    "AccessStructureBatch2D",
    "AccessProfileBatch",
    "AccessProfileBatch2D",
    "compute_access_structure_batch",
    "compute_access_structure_batch_candidates",
    "estimate_access_batch_candidates",
    "resolve_prefetch_setting_batch",
    "resolve_prefetch_settings_batch_candidates",
    "evaluate_workload_batch",
    "evaluate_workload_batch_candidates",
]


@dataclass(frozen=True)
class AccessStructureBatch:
    """Prefetch-independent access structures of *all* classes on one layout.

    The columnar twin of :class:`~repro.costmodel.AccessStructure`: one numpy
    entry per query class (mix order), plus a flat representation of the
    ragged per-class bitmap-index extents (``index_class`` / ``index_pages``
    rows, in per-class residual order).  :meth:`structure` materializes the
    scalar dataclass for any class — bit-identical to
    :func:`~repro.costmodel.compute_access_structure`.
    """

    query_names: Tuple[str, ...]
    fragments_total: int
    fragments_accessed: np.ndarray
    rows_in_accessed_fragments: np.ndarray
    qualifying_rows: np.ndarray
    rows_per_fragment: np.ndarray
    fact_pages_per_fragment: np.ndarray
    forced_full_scan: np.ndarray
    has_residuals: np.ndarray
    bitmap_touched_per_fragment: np.ndarray
    bitmap_density: np.ndarray
    #: Class index of every usable residual bitmap index (flat, per-class
    #: residual order).
    index_class: np.ndarray
    #: Bitmap pages per fragment of that index.
    index_pages: np.ndarray
    #: (dimension, level) of that index.
    index_attributes: Tuple[Tuple[str, str], ...]
    #: Per-class sum of ``index_pages`` (scalar accumulation order).
    bitmap_pages_per_fragment: np.ndarray
    #: Per-class number of usable residual indexes.
    bitmap_index_counts: np.ndarray

    @property
    def num_classes(self) -> int:
        """Number of query classes in the batch."""
        return len(self.query_names)

    @cached_property
    def _index_rows_by_class(self) -> Tuple[Tuple[int, ...], ...]:
        rows: List[List[int]] = [[] for _ in range(self.num_classes)]
        for position, class_index in enumerate(self.index_class.tolist()):
            rows[class_index].append(position)
        return tuple(tuple(entry) for entry in rows)

    def index_pages_for(self, class_index: int) -> Tuple[float, ...]:
        """``bitmap_pages_per_index`` of one class (scalar-path order)."""
        pages = self.index_pages
        return tuple(float(pages[row]) for row in self._index_rows_by_class[class_index])

    def attributes_for(self, class_index: int) -> Tuple[Tuple[str, str], ...]:
        """``bitmap_attributes_available`` of one class (scalar-path order)."""
        return tuple(
            self.index_attributes[row]
            for row in self._index_rows_by_class[class_index]
        )

    def structure(self, class_index: int) -> AccessStructure:
        """Materialize the scalar :class:`AccessStructure` of one class."""
        return AccessStructure(
            query_name=self.query_names[class_index],
            fragments_accessed=float(self.fragments_accessed[class_index]),
            fragments_total=self.fragments_total,
            rows_in_accessed_fragments=float(
                self.rows_in_accessed_fragments[class_index]
            ),
            qualifying_rows=float(self.qualifying_rows[class_index]),
            rows_per_fragment=float(self.rows_per_fragment[class_index]),
            fact_pages_per_fragment=float(self.fact_pages_per_fragment[class_index]),
            bitmap_pages_per_index=self.index_pages_for(class_index),
            bitmap_attributes_available=self.attributes_for(class_index),
            forced_full_scan=bool(self.forced_full_scan[class_index]),
            has_residuals=bool(self.has_residuals[class_index]),
            bitmap_touched_per_fragment=float(
                self.bitmap_touched_per_fragment[class_index]
            ),
            bitmap_density=float(self.bitmap_density[class_index]),
        )


@dataclass(frozen=True)
class AccessProfileBatch:
    """Access profiles of all classes on one layout under one prefetch setting.

    The columnar twin of :class:`~repro.costmodel.QueryAccessProfile`;
    :meth:`profile` materializes the scalar dataclass for any class —
    bit-identical to :func:`~repro.costmodel.estimate_access`.
    """

    structures: AccessStructureBatch
    fact_pages_accessed: np.ndarray
    bitmap_pages_accessed: np.ndarray
    fact_io_requests: np.ndarray
    bitmap_io_requests: np.ndarray
    fact_pages_transferred: np.ndarray
    sequential_fact_access: np.ndarray
    use_bitmap_plan: np.ndarray

    def profile(self, class_index: int) -> QueryAccessProfile:
        """Materialize the scalar :class:`QueryAccessProfile` of one class."""
        structures = self.structures
        bitmap_pages = float(self.bitmap_pages_accessed[class_index])
        attributes = (
            structures.attributes_for(class_index)
            if self.use_bitmap_plan[class_index]
            else ()
        )
        return QueryAccessProfile(
            query_name=structures.query_names[class_index],
            fragments_accessed=float(structures.fragments_accessed[class_index]),
            fragments_total=structures.fragments_total,
            rows_in_accessed_fragments=float(
                structures.rows_in_accessed_fragments[class_index]
            ),
            qualifying_rows=float(structures.qualifying_rows[class_index]),
            fact_pages_per_fragment=float(
                structures.fact_pages_per_fragment[class_index]
            ),
            fact_pages_accessed=float(self.fact_pages_accessed[class_index]),
            bitmap_pages_accessed=bitmap_pages,
            fact_io_requests=float(self.fact_io_requests[class_index]),
            bitmap_io_requests=float(self.bitmap_io_requests[class_index]),
            fact_pages_transferred=float(self.fact_pages_transferred[class_index]),
            bitmap_pages_transferred=bitmap_pages,
            sequential_fact_access=bool(self.sequential_fact_access[class_index]),
            forced_full_scan=bool(structures.forced_full_scan[class_index]),
            bitmap_attributes_used=attributes,
        )


# ---------------------------------------------------------------------------
# Candidate-axis batching: a whole chunk of layouts as (candidate × class)
# ---------------------------------------------------------------------------
#
# Every layout of a chunk, whatever its fragmentation dimensions, is
# evaluated as 2-D (candidate × class) arrays.  Structure derivation walks the
# axis *positions*: at each position every candidate gathers its own matrix
# row, attribute depth and axis cardinality, and a candidate with fewer axes
# (or an axis no class restricts) reads a padded all-unrestricted row with
# cardinality 1.0, whose factor is exactly ×1.0.  Every operation is the same
# elementwise IEEE-754 double operation the scalar path performs, in each
# candidate's own spec order — slicing a candidate out of the stack is
# bit-identical to evaluating it alone, which the parity suite asserts.


@dataclass(frozen=True)
class _ResidualGroup2D:
    """One residual-restriction source over the (candidate × class) grid.

    Groups are built in the scalar residual order — fragmentation axes by
    position, then restriction slots — and carry explicit flat
    ``(candidate, class)`` coordinates, unique within a group.
    """

    candidates: np.ndarray
    columns: np.ndarray
    #: Matrix row (restricted dimension) of each coordinate.
    rows: np.ndarray
    fractions: np.ndarray
    has_bitmap: np.ndarray
    bits_read: np.ndarray


#: The per-class vectors of :class:`AccessStructureBatch`; each one is a
#: (candidate × class) plane of :class:`AccessStructureBatch2D`.
_PLANES = (
    "fragments_accessed",
    "rows_in_accessed_fragments",
    "qualifying_rows",
    "rows_per_fragment",
    "fact_pages_per_fragment",
    "forced_full_scan",
    "has_residuals",
    "bitmap_touched_per_fragment",
    "bitmap_density",
    "bitmap_pages_per_fragment",
    "bitmap_index_counts",
)


@dataclass(frozen=True)
class AccessStructureBatch2D:
    """Access structures of all classes on a *stack* of layouts.

    :class:`AccessStructureBatch` with a leading candidate axis on every
    per-class vector; the flat residual-index rows gain a candidate
    coordinate (sorted candidate-major, then class, then per-class residual
    order).  :meth:`candidate` slices one layout's batch back out —
    bit-identical to stacking that layout alone.
    """

    query_names: Tuple[str, ...]
    #: (candidates,) int64 — fragments of each stacked layout.
    fragments_total: np.ndarray
    #: (candidates × classes) float64 / bool metric planes.
    fragments_accessed: np.ndarray
    rows_in_accessed_fragments: np.ndarray
    qualifying_rows: np.ndarray
    rows_per_fragment: np.ndarray
    fact_pages_per_fragment: np.ndarray
    forced_full_scan: np.ndarray
    has_residuals: np.ndarray
    bitmap_touched_per_fragment: np.ndarray
    bitmap_density: np.ndarray
    #: Flat residual-index rows (candidate-major, class-sorted, stable).
    index_candidate: np.ndarray
    index_class: np.ndarray
    index_pages: np.ndarray
    index_attributes: Tuple[Tuple[str, str], ...]
    bitmap_pages_per_fragment: np.ndarray
    bitmap_index_counts: np.ndarray

    @property
    def num_candidates(self) -> int:
        """Number of stacked candidates."""
        return len(self.fragments_total)

    @property
    def num_classes(self) -> int:
        """Number of query classes in the batch."""
        return len(self.query_names)

    @cached_property
    def bitmap_plan_available(self) -> np.ndarray:
        """Per (candidate, class): residual filtering can run off bitmaps."""
        return (
            self.has_residuals
            & ~self.forced_full_scan
            & (self.bitmap_index_counts > 0)
        )

    @cached_property
    def _flat_keys(self) -> np.ndarray:
        """Combined (candidate, class) sort keys of the flat index rows."""
        return self.index_candidate * self.num_classes + self.index_class

    def _index_slice(self, candidate: int) -> slice:
        lo, hi = np.searchsorted(self.index_candidate, [candidate, candidate + 1])
        return slice(int(lo), int(hi))

    def candidate(self, k: int) -> AccessStructureBatch:
        """Slice one stacked layout back into its per-layout batch."""
        rows = self._index_slice(k)
        return AccessStructureBatch(
            query_names=self.query_names,
            fragments_total=int(self.fragments_total[k]),
            index_class=self.index_class[rows].copy(),
            index_pages=self.index_pages[rows].copy(),
            index_attributes=self.index_attributes[rows],
            **{name: getattr(self, name)[k].copy() for name in _PLANES},
        )

    @classmethod
    def stack(cls, batches: Sequence[AccessStructureBatch]) -> "AccessStructureBatch2D":
        """Stack per-layout batches into one candidate-axis batch.

        The inverse of :meth:`candidate`, used to mix cache-warm structures
        with freshly computed ones before the shared downstream kernels; the
        per-layout flat index rows are already class-sorted, so concatenating
        them candidate-major preserves the sorted flat order the 2-D kernels
        rely on.  A stack of one layout (single-spec evaluation) holds views
        of that layout's vectors instead of copies.
        """
        if not batches:
            raise CostModelError("cannot stack an empty structure-batch list")
        if len(batches) == 1:
            planes = {name: getattr(batches[0], name)[None] for name in _PLANES}
        else:
            planes = {
                name: np.stack([getattr(batch, name) for batch in batches])
                for name in _PLANES
            }
        return cls(
            query_names=batches[0].query_names,
            fragments_total=np.array(
                [batch.fragments_total for batch in batches], dtype=np.int64
            ),
            index_candidate=np.repeat(
                np.arange(len(batches), dtype=np.int64),
                [len(batch.index_class) for batch in batches],
            ),
            index_class=np.concatenate([batch.index_class for batch in batches]),
            index_pages=np.concatenate([batch.index_pages for batch in batches]),
            index_attributes=tuple(
                chain.from_iterable(batch.index_attributes for batch in batches)
            ),
            **planes,
        )


def _axis_groups_candidates(
    layouts: Sequence[FragmentationLayout],
    matrix: ClassMatrix,
) -> Tuple[np.ndarray, np.ndarray, List[_ResidualGroup2D]]:
    """Fragment confinement along every axis position, for the whole stack.

    At each axis position every candidate gathers its own matrix row,
    attribute depth and axis cardinality into (candidate × class) planes.
    Where the candidate's dimension is restricted by no class, or the
    candidate has fewer axes, it reads the padded unrestricted row (-1); a
    missing axis also gets cardinality 1.0, so its factor on both products is
    exactly ×1.0.
    """
    num_candidates = len(layouts)
    num_classes = matrix.num_classes
    fragments_accessed = np.ones((num_candidates, num_classes), dtype=np.float64)
    fragment_row_fraction = np.ones((num_candidates, num_classes), dtype=np.float64)
    groups: List[_ResidualGroup2D] = []
    row_of = matrix.row_of
    restricted_plane, value_plane, cardinality_plane, depth_plane = (
        matrix.padded_planes
    )
    dimensionality = max(layout.spec.dimensionality for layout in layouts)

    for position in range(dimensionality):
        rows = np.full(num_candidates, -1, dtype=np.int64)
        # Per-candidate axis cardinalities as an exact float64 column (the
        # integer cardinalities are far below 2**53, so the conversion — and
        # therefore every division against them — matches the scalar path).
        cards = np.ones((num_candidates, 1), dtype=np.float64)
        attribute_depths = np.zeros((num_candidates, 1), dtype=np.int64)
        for k, layout in enumerate(layouts):
            if position < layout.spec.dimensionality:
                attribute = layout.spec.attributes[position]
                cards[k, 0] = float(layout.axis_cardinalities[position])
                row = row_of.get(attribute.dimension)
                if row is not None:
                    rows[k] = row
                    attribute_depths[k, 0] = layout.schema.dimension(
                        attribute.dimension
                    ).level_index(attribute.level)
        restricted = restricted_plane[rows]
        value_count = value_plane[rows]
        query_cardinality = cardinality_plane[rows]
        depth = depth_plane[rows]

        accessed = np.repeat(cards, num_classes, axis=1)

        # Restriction at or above the fragmentation level: whole fragments.
        coarse = restricted & (depth <= attribute_depths)
        if coarse.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                fanout = cards / query_cardinality
                coarse_accessed = np.minimum(
                    cards, np.maximum(1.0, value_count * fanout)
                )
            accessed = np.where(coarse, coarse_accessed, accessed)

        # Restriction below the fragmentation level: residual filtering.
        fine = restricted & (depth > attribute_depths)
        cand_idx, class_idx = np.nonzero(fine)
        if cand_idx.size:
            cards_flat = cards[cand_idx, 0]
            selected = value_count[cand_idx, class_idx]
            fine_cardinality = query_cardinality[cand_idx, class_idx]
            fine_accessed = expected_distinct_ancestors(
                selected_values=selected,
                fine_cardinality=fine_cardinality,
                coarse_cardinality=cards_flat,
            )
            fine_accessed = np.minimum(cards_flat, np.maximum(1.0, fine_accessed))
            accessed[cand_idx, class_idx] = fine_accessed
            selected_fraction = selected / fine_cardinality
            accessed_fraction = fine_accessed / cards_flat
            residual = np.minimum(1.0, selected_fraction / accessed_fraction)
            fine_rows = rows[cand_idx]
            groups.append(
                _ResidualGroup2D(
                    candidates=cand_idx,
                    columns=class_idx,
                    rows=fine_rows,
                    fractions=residual,
                    has_bitmap=matrix.has_bitmap[fine_rows, class_idx],
                    bits_read=matrix.bitmap_bits_read[fine_rows, class_idx],
                )
            )

        fragments_accessed = fragments_accessed * accessed
        fragment_row_fraction = fragment_row_fraction * (accessed / cards)

    return fragments_accessed, fragment_row_fraction, groups


def _slot_groups_candidates(
    layouts: Sequence[FragmentationLayout], matrix: ClassMatrix
) -> List[_ResidualGroup2D]:
    """Residual restrictions on non-fragmentation dimensions, slot by slot.

    Slot membership depends on each candidate's own fragmentation
    dimensions, so every group carries explicit ``(candidate, class)``
    coordinates.
    """
    # (candidate, row) -> "is one of the candidate's fragmentation
    # dimensions".  The trailing column absorbs the NO_RESTRICTION (-1)
    # padding entries, which the validity mask filters out anyway.
    row_in_spec = np.zeros((len(layouts), matrix.num_dimensions + 1), dtype=bool)
    row_of = matrix.row_of
    for k, layout in enumerate(layouts):
        for dimension in layout.spec.dimensions:
            if dimension in row_of:
                row_in_spec[k, row_of[dimension]] = True
    groups: List[_ResidualGroup2D] = []
    for slot in range(matrix.slot_dimensions.shape[1]):
        dimension_rows = matrix.slot_dimensions[:, slot]
        mask = (dimension_rows >= 0) & ~row_in_spec[:, dimension_rows]
        cand_idx, class_idx = np.nonzero(mask)
        if not cand_idx.size:
            continue
        rows = dimension_rows[class_idx]
        groups.append(
            _ResidualGroup2D(
                candidates=cand_idx,
                columns=class_idx,
                rows=rows,
                fractions=matrix.restriction_selectivities[rows, class_idx],
                has_bitmap=matrix.has_bitmap[rows, class_idx],
                bits_read=matrix.bitmap_bits_read[rows, class_idx],
            )
        )
    return groups


def compute_access_structure_batch_candidates(
    layouts: Sequence[FragmentationLayout], matrix: ClassMatrix
) -> AccessStructureBatch2D:
    """Derive the access structures of a whole layout stack in one pass.

    The vectorized form of :func:`~repro.costmodel.compute_access_structure`
    over every class of every layout: the layouts may mix axis structures
    (ordered fragmentation dimensions); all per-class quantities are computed
    as (candidate × class) planes with the scalar path's elementwise
    operations, so each :meth:`AccessStructureBatch2D.candidate` slice is
    bit-identical to stacking that layout alone.  The workload is assumed
    validated (the advisor and the engine validate it once at construction).
    """
    if not layouts:
        raise CostModelError("candidate-axis batching needs at least one layout")
    num_candidates = len(layouts)
    num_classes = matrix.num_classes
    page_size = layouts[0].page_size_bytes
    rows_per_page = layouts[0].rows_per_page
    row_count = layouts[0].fact.row_count

    fragments_accessed, fragment_row_fraction, groups = _axis_groups_candidates(
        layouts, matrix
    )
    groups.extend(_slot_groups_candidates(layouts, matrix))

    rows_in_accessed = row_count * fragment_row_fraction
    qualifying_rows = row_count * np.asarray(matrix.selectivities, dtype=np.float64)[None, :]
    qualifying_rows = np.minimum(qualifying_rows, rows_in_accessed)

    non_positive = fragments_accessed <= 0
    if non_positive.any():
        failing_candidate, failing_class = (
            int(coords[0]) for coords in np.nonzero(non_positive)
        )
        raise CostModelError(
            f"query {matrix.query_names[failing_class]!r} accesses no fragments "
            f"on {layouts[failing_candidate].spec.label}"
        )

    rows_per_fragment = rows_in_accessed / fragments_accessed
    with np.errstate(invalid="ignore"):
        fact_pages_per_fragment = np.where(
            rows_per_fragment > 0,
            np.maximum(1.0, np.ceil(rows_per_fragment / rows_per_page)),
            0.0,
        )

    # --- residual filtering: bitmap extents and selectivity, group order ---------
    residual_selectivity = np.ones((num_candidates, num_classes), dtype=np.float64)
    forced_full_scan = np.zeros((num_candidates, num_classes), dtype=bool)
    has_residuals = np.zeros((num_candidates, num_classes), dtype=bool)
    index_cand_parts: List[np.ndarray] = []
    index_class_parts: List[np.ndarray] = []
    index_row_parts: List[np.ndarray] = []
    index_pages_parts: List[np.ndarray] = []
    for group in groups:
        cand, cols = group.candidates, group.columns
        has_residuals[cand, cols] = True
        residual_selectivity[cand, cols] *= np.minimum(1.0, group.fractions)
        no_index = ~group.has_bitmap
        forced_full_scan[cand[no_index], cols[no_index]] = True
        indexed = np.nonzero(group.has_bitmap)[0]
        if not indexed.size:
            continue
        flat_rows = rows_per_fragment[cand[indexed], cols[indexed]]
        pages = np.where(
            flat_rows > 0,
            np.maximum(
                1.0,
                np.ceil(group.bits_read[indexed] * flat_rows / 8.0 / page_size),
            ),
            0.0,
        )
        index_cand_parts.append(cand[indexed])
        index_class_parts.append(cols[indexed])
        index_row_parts.append(group.rows[indexed])
        index_pages_parts.append(pages)

    if index_cand_parts:
        # Sort the flat rows candidate-major, class within, stably: the groups
        # come in residual order, so each (candidate, class) run replays the
        # scalar accumulation order.
        index_candidate = np.concatenate(index_cand_parts)
        index_class = np.concatenate(index_class_parts)
        order = np.argsort(index_candidate * num_classes + index_class, kind="stable")
        index_candidate = index_candidate[order]
        index_class = index_class[order]
        index_rows = np.concatenate(index_row_parts)[order]
        index_pages = np.concatenate(index_pages_parts)[order]
        dimension_names = matrix.dimension_names
        level_names = matrix.level_names
        index_attributes = tuple(
            (dimension_names[row], level_names[row][column])
            for row, column in zip(index_rows.tolist(), index_class.tolist())
        )
    else:
        index_candidate = np.empty(0, dtype=np.int64)
        index_class = np.empty(0, dtype=np.int64)
        index_pages = np.empty(0, dtype=np.float64)
        index_attributes = ()

    bitmap_pages_per_fragment = np.zeros(
        (num_candidates, num_classes), dtype=np.float64
    )
    np.add.at(bitmap_pages_per_fragment, (index_candidate, index_class), index_pages)
    bitmap_index_counts = np.bincount(
        index_candidate * num_classes + index_class,
        minlength=num_candidates * num_classes,
    ).reshape(num_candidates, num_classes).astype(np.int64)

    # --- fact pages a bitmap-driven plan would touch (Cardenas) ------------------
    qualifying_per_fragment = rows_per_fragment * residual_selectivity
    touched_per_fragment = cardenas_pages(
        total_rows=rows_per_fragment,
        total_pages=fact_pages_per_fragment,
        selected_rows=qualifying_per_fragment,
    )
    touched_per_fragment = np.minimum(
        fact_pages_per_fragment, np.maximum(0.0, touched_per_fragment)
    )
    with np.errstate(invalid="ignore"):
        density = np.where(
            fact_pages_per_fragment > 0,
            touched_per_fragment / fact_pages_per_fragment,
            0.0,
        )

    return AccessStructureBatch2D(
        query_names=matrix.query_names,
        fragments_total=np.array(
            [layout.fragment_count for layout in layouts], dtype=np.int64
        ),
        fragments_accessed=fragments_accessed,
        rows_in_accessed_fragments=rows_in_accessed,
        qualifying_rows=qualifying_rows,
        rows_per_fragment=rows_per_fragment,
        fact_pages_per_fragment=fact_pages_per_fragment,
        forced_full_scan=forced_full_scan,
        has_residuals=has_residuals,
        bitmap_touched_per_fragment=touched_per_fragment,
        bitmap_density=density,
        index_candidate=index_candidate,
        index_class=index_class,
        index_pages=index_pages,
        index_attributes=index_attributes,
        bitmap_pages_per_fragment=bitmap_pages_per_fragment,
        bitmap_index_counts=bitmap_index_counts,
    )


@dataclass(frozen=True)
class AccessProfileBatch2D:
    """Access profiles of a layout stack under per-candidate prefetch settings.

    :class:`AccessProfileBatch` with a leading candidate axis: every plane is
    (candidate × class).  :meth:`candidate` materializes one layout's profile
    batch for the parity harness.
    """

    structures: AccessStructureBatch2D
    fact_pages_accessed: np.ndarray
    bitmap_pages_accessed: np.ndarray
    fact_io_requests: np.ndarray
    bitmap_io_requests: np.ndarray
    fact_pages_transferred: np.ndarray
    sequential_fact_access: np.ndarray
    use_bitmap_plan: np.ndarray

    def candidate(self, k: int) -> AccessProfileBatch:
        """Slice one stacked layout back into its per-layout profile batch."""
        return AccessProfileBatch(
            structures=self.structures.candidate(k),
            fact_pages_accessed=self.fact_pages_accessed[k].copy(),
            bitmap_pages_accessed=self.bitmap_pages_accessed[k].copy(),
            fact_io_requests=self.fact_io_requests[k].copy(),
            bitmap_io_requests=self.bitmap_io_requests[k].copy(),
            fact_pages_transferred=self.fact_pages_transferred[k].copy(),
            sequential_fact_access=self.sequential_fact_access[k].copy(),
            use_bitmap_plan=self.use_bitmap_plan[k].copy(),
        )


def estimate_access_batch_candidates(
    structures: AccessStructureBatch2D,
    fact_granules: np.ndarray,
    bitmap_granules: np.ndarray,
    positioning_page_equivalent: float,
) -> AccessProfileBatch2D:
    """Apply per-candidate prefetch granules to a structure stack at once.

    The vectorized form of :func:`~repro.costmodel.estimate_access`: the same
    scan-vs-bitmap access path selection, as masked (candidate × class)
    arithmetic.  ``fact_granules`` and ``bitmap_granules`` are (candidates,)
    float64 vectors holding each candidate's (integer-valued) granules —
    integer-to-double conversion is exact, so the per-element divisions match
    the scalar path bitwise.
    """
    fragments_accessed = structures.fragments_accessed
    fact_pages_per_fragment = structures.fact_pages_per_fragment
    num_candidates, num_classes = fragments_accessed.shape

    # --- bitmap request counts under the configured granules ---------------------
    granules_flat = bitmap_granules[structures.index_candidate]
    index_requests = np.where(
        structures.index_pages > 0,
        np.ceil(structures.index_pages / granules_flat),
        0.0,
    )
    bitmap_requests_per_fragment = np.zeros(
        (num_candidates, num_classes), dtype=np.float64
    )
    np.add.at(
        bitmap_requests_per_fragment,
        (structures.index_candidate, structures.index_class),
        index_requests,
    )
    bitmap_pages_per_fragment = structures.bitmap_pages_per_fragment

    # --- plan A: sequential scan of the accessed fragments ------------------------
    fact_granule_col = fact_granules[:, None]
    scan_requests_per_fragment = np.where(
        fact_pages_per_fragment > 0,
        np.ceil(fact_pages_per_fragment / fact_granule_col),
        0.0,
    )
    scan_cost_per_fragment = (
        scan_requests_per_fragment * positioning_page_equivalent
        + fact_pages_per_fragment
    )

    # --- plan B: bitmap-driven access ---------------------------------------------
    touched_per_fragment = structures.bitmap_touched_per_fragment
    bitmap_sequential = structures.bitmap_density >= SEQUENTIAL_DENSITY_THRESHOLD
    bitmap_fact_requests = np.where(
        bitmap_sequential, scan_requests_per_fragment, touched_per_fragment
    )
    bitmap_fact_transferred = np.where(
        bitmap_sequential, fact_pages_per_fragment, touched_per_fragment
    )
    bitmap_plan_cost = (
        bitmap_fact_requests * positioning_page_equivalent
        + bitmap_fact_transferred
        + bitmap_requests_per_fragment * positioning_page_equivalent
        + bitmap_pages_per_fragment
    )
    use_bitmap_plan = structures.bitmap_plan_available & (
        bitmap_plan_cost < scan_cost_per_fragment
    )

    sequential = np.where(use_bitmap_plan, bitmap_sequential, True)
    pages_touched_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_transferred, fact_pages_per_fragment
    )
    requests_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_requests, scan_requests_per_fragment
    )
    transferred_per_fragment = np.where(
        use_bitmap_plan, bitmap_fact_transferred, fact_pages_per_fragment
    )
    bitmap_pages = np.where(
        use_bitmap_plan, fragments_accessed * bitmap_pages_per_fragment, 0.0
    )
    bitmap_requests = np.where(
        use_bitmap_plan, fragments_accessed * bitmap_requests_per_fragment, 0.0
    )

    return AccessProfileBatch2D(
        structures=structures,
        fact_pages_accessed=fragments_accessed * pages_touched_per_fragment,
        bitmap_pages_accessed=bitmap_pages,
        fact_io_requests=fragments_accessed * requests_per_fragment,
        bitmap_io_requests=bitmap_requests,
        fact_pages_transferred=fragments_accessed * transferred_per_fragment,
        sequential_fact_access=sequential,
        use_bitmap_plan=use_bitmap_plan,
    )


def resolve_prefetch_settings_batch_candidates(
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
) -> Tuple[PrefetchSetting, ...]:
    """Resolve each stacked candidate's prefetch granules in one vector pass.

    The unit-granule estimation runs once over the whole stack; the (cheap)
    granule selection then runs per candidate on exactly the run-length floats
    the scalar path derives, so the returned settings are identical to
    per-layout :func:`~repro.costmodel.resolve_prefetch_setting` calls.
    """
    num_candidates = structures.num_candidates
    unit = np.ones(num_candidates, dtype=np.float64)
    unit_profiles = estimate_access_batch_candidates(
        structures, unit, unit, _positioning_page_equivalent(system)
    )
    fact_runs = structures.fact_pages_per_fragment
    with np.errstate(divide="ignore", invalid="ignore"):
        bitmap_runs = np.where(
            structures.fragments_accessed > 0,
            unit_profiles.bitmap_pages_accessed / structures.fragments_accessed,
            0.0,
        )
    # Granule selection, batched over the candidate axis.  Fixed granules
    # pass through; "auto" granules are optimized for the whole stack with
    # one (candidate × class × granule) cost tensor — bit-identical to the
    # per-candidate scalar selection (see optimal_prefetch_pages_batch).
    from repro.storage.prefetch import PrefetchPolicy, optimal_prefetch_pages_batch

    if system.fact_prefetch_is_auto:
        fact_pages = optimal_prefetch_pages_batch(
            fact_runs, system.disk, system.page_size_bytes, matrix.shares
        )
        fact_policy = PrefetchPolicy.AUTO
    else:
        fact_pages = [int(system.prefetch_pages_fact)] * num_candidates
        fact_policy = PrefetchPolicy.FIXED
    if system.bitmap_prefetch_is_auto:
        bitmap_pages = optimal_prefetch_pages_batch(
            bitmap_runs, system.disk, system.page_size_bytes
        )
        bitmap_policy = PrefetchPolicy.AUTO
    else:
        bitmap_pages = [int(system.prefetch_pages_bitmap)] * num_candidates
        bitmap_policy = PrefetchPolicy.FIXED
    return tuple(
        PrefetchSetting(
            fact_pages=fact_pages[k],
            bitmap_pages=bitmap_pages[k],
            fact_policy=fact_policy,
            bitmap_policy=bitmap_policy,
        )
        for k in range(num_candidates)
    )


def evaluate_workload_batch_candidates(
    layouts: Sequence[FragmentationLayout],
    structures: AccessStructureBatch2D,
    matrix: ClassMatrix,
    system: SystemParameters,
    prefetches: Sequence[PrefetchSetting],
) -> List[WorkloadEvaluation]:
    """Evaluate a whole layout stack against the mix, candidate-axis batched.

    The vectorized form of :meth:`repro.costmodel.IOCostModel.evaluate` (with
    resolved prefetch settings): access profiles, I/O cost, response time
    and disk counts are computed as (candidate × class) planes, then each
    candidate's columnar :class:`~repro.costmodel.EvaluationColumns` is
    sliced out of the shared metric cube — bit-identical to evaluating the
    layouts one by one.
    """
    num_candidates = structures.num_candidates
    num_classes = structures.num_classes
    fact_granules = np.array(
        [setting.fact_pages for setting in prefetches], dtype=np.float64
    )
    bitmap_granules = np.array(
        [setting.bitmap_pages for setting in prefetches], dtype=np.float64
    )
    profiles = estimate_access_batch_candidates(
        structures, fact_granules, bitmap_granules,
        _positioning_page_equivalent(system),
    )

    # --- I/O cost (IOCostModel.io_cost_ms, candidate-axis) ------------------------
    disk = system.disk
    page_time = disk.page_transfer_time_ms(system.page_size_bytes)
    fact_transfer = np.where(
        profiles.sequential_fact_access,
        np.maximum(
            profiles.fact_io_requests * fact_granules[:, None],
            profiles.fact_pages_transferred,
        ),
        profiles.fact_pages_transferred,
    )
    bitmap_transfer = np.where(
        profiles.bitmap_io_requests > 0,
        np.maximum(
            profiles.bitmap_io_requests * bitmap_granules[:, None],
            profiles.bitmap_pages_accessed,
        ),
        profiles.bitmap_pages_accessed,
    )
    total_requests = profiles.fact_io_requests + profiles.bitmap_io_requests
    io_cost = disk.positioning_time_ms * total_requests + page_time * (
        fact_transfer + bitmap_transfer
    )

    # --- disks used and response time (candidate-axis) ----------------------------
    disks_used = np.minimum(
        float(system.num_disks),
        np.ceil(np.maximum(1.0, structures.fragments_accessed)),
    ).astype(np.int64)
    disks_f = disks_used.astype(np.float64)
    parallel = disks_used > 1
    size_cvs = np.array(
        [layout.fragment_size_cv for layout in layouts], dtype=np.float64
    )[:, None]
    imbalance = np.where(parallel, 1.0 + size_cvs / np.sqrt(disks_f), 1.0)
    response = (
        io_cost / disks_f * imbalance
        + system.effective_coordination_overhead_ms * disks_f
    )

    # --- slice the shared metric cube into per-candidate columnar evaluations ----
    cube = np.empty((num_candidates, num_classes, NUM_METRIC_FIELDS), dtype=np.float64)
    cube[..., 0] = structures.fragments_accessed
    cube[..., 1] = structures.rows_in_accessed_fragments
    cube[..., 2] = structures.qualifying_rows
    cube[..., 3] = structures.fact_pages_per_fragment
    cube[..., 4] = profiles.fact_pages_accessed
    cube[..., 5] = profiles.bitmap_pages_accessed
    cube[..., 6] = profiles.fact_io_requests
    cube[..., 7] = profiles.bitmap_io_requests
    cube[..., 8] = profiles.fact_pages_transferred
    cube[..., 9] = profiles.bitmap_pages_accessed  # transferred == accessed
    cube[..., -2] = io_cost
    cube[..., -1] = response

    # Bitmap attributes of every (candidate, class) on a bitmap plan: one
    # vector lookup of each pair's flat-index run, then tuple slices.
    attributes_used: List[List[Tuple[Tuple[str, str], ...]]] = [
        [()] * num_classes for _ in range(num_candidates)
    ]
    used_candidates, used_classes = np.nonzero(profiles.use_bitmap_plan)
    keys = used_candidates * num_classes + used_classes
    starts = np.searchsorted(structures._flat_keys, keys, side="left")
    ends = np.searchsorted(structures._flat_keys, keys, side="right")
    for k, c, lo, hi in zip(
        used_candidates.tolist(), used_classes.tolist(), starts.tolist(), ends.tolist()
    ):
        attributes_used[k][c] = structures.index_attributes[lo:hi]

    evaluations: List[WorkloadEvaluation] = []
    for k in range(num_candidates):
        columns = EvaluationColumns(
            query_names=matrix.query_names,
            weights=matrix.shares,
            fragments_total=int(structures.fragments_total[k]),
            metrics=cube[k].copy(),
            disks_used=disks_used[k].copy(),
            sequential=profiles.sequential_fact_access[k].copy(),
            forced=structures.forced_full_scan[k].copy(),
            attributes_used=tuple(attributes_used[k]),
        )
        evaluations.append(
            WorkloadEvaluation(
                layout=layouts[k], prefetch=prefetches[k], columns=columns
            )
        )
    return evaluations


# ---------------------------------------------------------------------------
# Single-layout entry points: the same kernels on a stack of one
# ---------------------------------------------------------------------------


def compute_access_structure_batch(
    layout: FragmentationLayout, matrix: ClassMatrix
) -> AccessStructureBatch:
    """Every class's prefetch-independent access structure on one layout."""
    return compute_access_structure_batch_candidates([layout], matrix).candidate(0)


def resolve_prefetch_setting_batch(
    structures: AccessStructureBatch,
    matrix: ClassMatrix,
    system: SystemParameters,
) -> PrefetchSetting:
    """Resolve one layout's prefetch granules from its structure batch."""
    stacked = AccessStructureBatch2D.stack([structures])
    return resolve_prefetch_settings_batch_candidates(stacked, matrix, system)[0]


def evaluate_workload_batch(
    layout: FragmentationLayout,
    structures: AccessStructureBatch,
    matrix: ClassMatrix,
    system: SystemParameters,
    prefetch: PrefetchSetting,
) -> WorkloadEvaluation:
    """Evaluate one layout against the whole mix under ``prefetch``."""
    stacked = AccessStructureBatch2D.stack([structures])
    return evaluate_workload_batch_candidates(
        [layout], stacked, matrix, system, [prefetch]
    )[0]
