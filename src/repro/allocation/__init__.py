"""Disk allocation schemes (§2 of the paper).

Fact-table and bitmap fragments are placed on disks either with a *logical
round-robin* scheme (fragments follow the logical order of the fragmentation
dimensions and are dealt to disks in turn) or, under notable data skew, with a
*greedy size-based* scheme that places fragments ordered by decreasing size on
the currently least-occupied disk to keep disk occupancy balanced.

:func:`choose_allocation` makes that choice for one layout and
:func:`choose_allocations_batch` for a candidate chunk; both place greedy
layouts with the same heap loop, :func:`lpt_assignment`.
"""

from repro.allocation.placement import Allocation, fragment_total_pages
from repro.allocation.round_robin import round_robin_allocation
from repro.allocation.greedy import greedy_size_allocation, lpt_assignment
from repro.allocation.chooser import (
    NOTABLE_SKEW_CV,
    choose_allocation,
    choose_allocations_batch,
)

__all__ = [
    "Allocation",
    "fragment_total_pages",
    "round_robin_allocation",
    "greedy_size_allocation",
    "lpt_assignment",
    "choose_allocation",
    "choose_allocations_batch",
    "NOTABLE_SKEW_CV",
]
