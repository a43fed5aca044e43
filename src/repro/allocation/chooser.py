"""Allocation scheme selection.

WARLOCK uses the logical round-robin scheme by default and switches to the
greedy size-based scheme "under notable data skew".  The chooser encodes that
decision: when the coefficient of variation of the fragment sizes exceeds a
threshold, the greedy scheme is used.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.allocation.greedy import greedy_size_allocation
from repro.allocation.placement import Allocation
from repro.allocation.round_robin import round_robin_allocation
from repro.bitmap import BitmapScheme
from repro.errors import AllocationError
from repro.fragmentation import FragmentationLayout
from repro.storage import SystemParameters

__all__ = ["choose_allocation", "choose_allocations_batch", "NOTABLE_SKEW_CV"]

#: Fragment-size coefficient of variation above which skew is considered
#: "notable" and the greedy size-based scheme is preferred.
NOTABLE_SKEW_CV = 0.10


def choose_allocation(
    layout: FragmentationLayout,
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
    skew_threshold_cv: float = NOTABLE_SKEW_CV,
) -> Allocation:
    """Pick and build the allocation WARLOCK would recommend for ``layout``.

    Parameters
    ----------
    layout, system, bitmap_scheme:
        As for the individual allocation schemes.
    skew_threshold_cv:
        Fragment-size CV above which the greedy size-based scheme is used.
    """
    _check_threshold(skew_threshold_cv)
    if layout.fragment_size_cv > skew_threshold_cv:
        return greedy_size_allocation(layout, system, bitmap_scheme)
    return round_robin_allocation(layout, system, bitmap_scheme)


def choose_allocations_batch(
    layouts: Sequence[FragmentationLayout],
    system: SystemParameters,
    bitmap_scheme: Optional[BitmapScheme] = None,
    skew_threshold_cv: float = NOTABLE_SKEW_CV,
) -> List[Allocation]:
    """:func:`choose_allocation` for every layout of a candidate chunk.

    The threshold is validated once, also for an empty chunk.
    """
    _check_threshold(skew_threshold_cv)
    return [
        choose_allocation(layout, system, bitmap_scheme, skew_threshold_cv)
        for layout in layouts
    ]


def _check_threshold(skew_threshold_cv: float) -> None:
    if skew_threshold_cv < 0:
        raise AllocationError(
            f"skew_threshold_cv must be non-negative, got {skew_threshold_cv}"
        )
