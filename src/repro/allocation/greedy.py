"""Greedy size-based allocation.

Under notable data skew the fragment sizes differ widely and a round-robin
placement can leave disks unevenly occupied.  The greedy scheme therefore
considers fragments ordered by decreasing size and stores each on the currently
least-occupied disk (classic LPT / longest-processing-time placement), which
keeps disk occupancy balanced.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.allocation.placement import Allocation, fragment_total_pages
from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = ["lpt_assignment", "greedy_size_allocation"]


def lpt_assignment(pages: np.ndarray, num_disks: int) -> np.ndarray:
    """Disk of every fragment under LPT placement of ``pages``.

    Fragments are visited by decreasing size (stable order on ties) and each
    goes to the currently least-occupied disk, ties towards the lower disk
    number.  The heap holds ``(occupancy, disk)`` tuples; disk numbers are
    unique, so the tuples are totally ordered and ``heapreplace`` pops exactly
    the sequence a ``heappop``/``heappush`` pair would.  Occupancies are
    Python floats, whose addition is the same IEEE double addition numpy
    performs.
    """
    if num_disks < 1:
        raise AllocationError(f"need at least one disk, got {num_disks}")
    sizes = pages.tolist()
    assignment = [0] * len(sizes)
    heap = [(0.0, disk) for disk in range(num_disks)]  # sorted, so a heap
    for fragment in np.argsort(-pages, kind="stable").tolist():
        occupancy, disk = heap[0]
        assignment[fragment] = disk
        heapq.heapreplace(heap, (occupancy + sizes[fragment], disk))
    return np.array(assignment, dtype=np.int64)


def greedy_size_allocation(
    layout: FragmentationLayout,
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
) -> Allocation:
    """Place fragments by decreasing size onto the least occupied disk.

    Ties between equally occupied disks are broken towards the lower disk
    number, which makes the placement deterministic.
    """
    pages = fragment_total_pages(layout, bitmap_scheme)
    return Allocation(
        layout=layout,
        system=system,
        disk_of_fragment=lpt_assignment(pages, system.num_disks),
        fragment_pages=pages,
        scheme="greedy_size",
    )
