"""Parity tests for the LPT heap loop and the chunk allocation chooser.

``lpt_assignment`` is the one greedy placement loop that the scalar scheme
(``greedy_size_allocation``) and the chunk path (``choose_allocations_batch``)
share.  The oracle here is independent of it: the original
``heappop``/``heappush`` loop over numpy floats.  Every test demands exact
equality — same disk of every fragment, same accumulated occupancy doubles,
same scheme decision — on uniform, skewed and adversarially tie-heavy sizes,
and end to end on every greedy candidate of two skewed sweeps.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FragmentationSpec,
    SystemParameters,
    Warlock,
    apb1_query_mix,
    apb1_schema,
    build_layout,
    choose_allocation,
    design_bitmap_scheme,
    greedy_size_allocation,
    retail_query_mix,
    retail_schema,
)
from repro.allocation import choose_allocations_batch, lpt_assignment
from repro.cli import DEFAULT_DISKS, DEFAULT_SCALE
from repro.errors import AllocationError
from repro.fragmentation import dimension_row_shares


def _reference_lpt(pages: np.ndarray, num_disks: int) -> np.ndarray:
    """The original scalar heap loop: heappop + heappush over numpy floats."""
    order = np.argsort(-pages, kind="stable")
    assignment = np.empty(len(pages), dtype=np.int64)
    heap = [(0.0, disk) for disk in range(num_disks)]
    heapq.heapify(heap)
    for fragment_index in order:
        occupancy, disk = heapq.heappop(heap)
        assignment[fragment_index] = disk
        heapq.heappush(heap, (occupancy + float(pages[fragment_index]), disk))
    return assignment


def _pages(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


# Skewed distributions with heavy ties: tiny value pools plus large outliers.
_PAGE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 7.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_PAGES = st.one_of(
    st.lists(_PAGE_VALUES, min_size=0, max_size=50).map(_pages),
    # All-equal sizes (all-zero included): every placement is a pure
    # tie-break between equally occupied disks.
    st.builds(
        lambda value, count: np.full(count, value),
        st.sampled_from([0.0, 1.0, 3.5, 1e6]),
        st.integers(min_value=0, max_value=40),
    ),
)
# Up to 64 disks against at most 50 fragments covers num_disks > fragments;
# the explicit 1 keeps the single-disk case frequent.
_DISKS = st.one_of(st.just(1), st.integers(min_value=1, max_value=64))


class TestLptAssignments:
    @settings(max_examples=300, deadline=None)
    @given(pages=_PAGES, num_disks=_DISKS)
    def test_matches_scalar_heap(self, pages, num_disks):
        assignment = lpt_assignment(pages, num_disks)
        assert assignment.dtype == np.int64
        assert np.array_equal(assignment, _reference_lpt(pages, num_disks))

    def test_more_disks_than_fragments(self):
        pages = _pages([5.0, 9.0, 1.0])
        assert lpt_assignment(pages, 8).tolist() == [1, 0, 2]

    def test_single_disk(self):
        assert lpt_assignment(_pages([3.0, 1.0, 2.0]), 1).tolist() == [0, 0, 0]

    def test_all_zero_pages_deal_in_fragment_order(self):
        # Zero sizes never raise an occupancy, so every disk stays at 0.0 and
        # the tie-break keeps returning the lowest disk number.
        assert lpt_assignment(np.zeros(5), 3).tolist() == [0, 0, 0, 0, 0]

    def test_all_equal_pages_round_robin(self):
        assert lpt_assignment(np.full(7, 4.0), 3).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_empty(self):
        assignment = lpt_assignment(np.empty(0), 4)
        assert assignment.shape == (0,) and assignment.dtype == np.int64

    def test_invalid_disks(self):
        with pytest.raises(AllocationError):
            lpt_assignment(_pages([1.0]), 0)


@pytest.fixture
def mixed_layouts(toy_schema, skewed_schema):
    """Uniform and skewed layouts, as one candidate chunk would mix them."""
    return [
        build_layout(
            toy_schema, FragmentationSpec.of(("time", "month"), ("store", "region"))
        ),
        build_layout(skewed_schema, FragmentationSpec.of(("product", "item"))),
        build_layout(toy_schema, FragmentationSpec.of(("time", "quarter"))),
        build_layout(
            skewed_schema,
            FragmentationSpec.of(("product", "item"), ("time", "quarter")),
        ),
    ]


def _assert_allocations_identical(actual, expected):
    assert actual.scheme == expected.scheme
    assert np.array_equal(actual.disk_of_fragment, expected.disk_of_fragment)
    assert np.array_equal(actual.fragment_pages, expected.fragment_pages)
    assert np.array_equal(actual.occupancy_pages, expected.occupancy_pages)
    assert actual.occupancy_cv == expected.occupancy_cv


class TestGreedySizeAllocation:
    def test_matches_reference_per_layout(self, mixed_layouts, small_system):
        for layout in mixed_layouts:
            allocation = greedy_size_allocation(layout, small_system)
            assert allocation.scheme == "greedy_size"
            assert np.array_equal(
                allocation.disk_of_fragment,
                _reference_lpt(allocation.fragment_pages, small_system.num_disks),
            )

    def test_matches_reference_with_bitmaps(
        self, mixed_layouts, small_system, toy_schema, toy_workload
    ):
        scheme = design_bitmap_scheme(toy_schema, toy_workload)
        for layout in mixed_layouts:
            if layout.schema is not toy_schema:
                continue
            allocation = greedy_size_allocation(layout, small_system, scheme)
            assert np.array_equal(
                allocation.disk_of_fragment,
                _reference_lpt(allocation.fragment_pages, small_system.num_disks),
            )


class TestChooseAllocationsBatch:
    def test_scheme_decisions_match_scalar_chooser(self, mixed_layouts, small_system):
        chunk = choose_allocations_batch(mixed_layouts, small_system)
        assert {allocation.scheme for allocation in chunk} == {
            "round_robin",
            "greedy_size",
        }
        for layout, allocation in zip(mixed_layouts, chunk):
            _assert_allocations_identical(
                allocation, choose_allocation(layout, small_system)
            )

    def test_bitmaps_match_scalar_chooser(
        self, mixed_layouts, small_system, toy_schema, toy_workload
    ):
        scheme = design_bitmap_scheme(toy_schema, toy_workload)
        chunk = choose_allocations_batch(mixed_layouts, small_system, scheme)
        for layout, allocation in zip(mixed_layouts, chunk):
            _assert_allocations_identical(
                allocation, choose_allocation(layout, small_system, scheme)
            )

    def test_threshold_override(self, mixed_layouts, small_system):
        forced = choose_allocations_batch(
            mixed_layouts, small_system, skew_threshold_cv=1e9
        )
        assert all(allocation.scheme == "round_robin" for allocation in forced)

    def test_invalid_threshold(self, mixed_layouts, small_system):
        with pytest.raises(AllocationError):
            choose_allocations_batch(
                mixed_layouts, small_system, skew_threshold_cv=-1
            )

    def test_invalid_threshold_on_empty_chunk(self, small_system):
        with pytest.raises(AllocationError):
            choose_allocations_batch([], small_system, skew_threshold_cv=-1)

    def test_empty_group(self, small_system):
        assert choose_allocations_batch([], small_system) == []


@pytest.mark.parametrize(
    "schema, workload, num_disks",
    [
        pytest.param(
            retail_schema(scale=DEFAULT_SCALE),
            retail_query_mix(),
            DEFAULT_DISKS,
            id="retail",
        ),
        pytest.param(
            apb1_schema(scale=DEFAULT_SCALE, skew={"product": 1.0}),
            apb1_query_mix(),
            96,
            id="apb1-theta1-96disks",
        ),
    ],
)
def test_every_greedy_candidate_matches_reference(schema, workload, num_disks):
    recommendation = Warlock(
        schema, workload, SystemParameters(num_disks=num_disks)
    ).recommend()
    greedy = [
        candidate.allocation
        for candidate in recommendation.evaluated
        if candidate.allocation.scheme == "greedy_size"
    ]
    assert greedy, "the sweep produced no greedy-allocated candidate"
    for allocation in greedy:
        assert np.array_equal(
            allocation.disk_of_fragment,
            _reference_lpt(allocation.fragment_pages, num_disks),
        )


class TestRowShareMemo:
    def test_equals_uncached_computation(self, skewed_schema, toy_schema):
        for schema in (skewed_schema, toy_schema):
            for dimension in schema.dimensions:
                for level in dimension.levels:
                    cached = dimension_row_shares(dimension, level.name)
                    fresh = dimension_row_shares.__wrapped__(dimension, level.name)
                    assert cached is not fresh
                    assert np.array_equal(cached, fresh)
                    assert cached is dimension_row_shares(dimension, level.name)

    def test_memoized_array_is_read_only(self, skewed_schema):
        shares = dimension_row_shares(skewed_schema.dimension("product"), "item")
        with pytest.raises(ValueError):
            shares[0] = 1.0
