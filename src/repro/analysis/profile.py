"""Disk access profiles per query class.

The paper's output layer visualizes "a disk access profile per query class":
how the pages a query class reads are spread over the disks of the allocation.
The profile is obtained by instantiating the class several times (skew-aware)
and averaging the per-disk page counts of the instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.candidates import FragmentationCandidate
from repro.errors import ReportError
from repro.skew import coefficient_of_variation
from repro.workload import QueryClass

__all__ = ["DiskAccessProfile", "disk_access_profile"]


@dataclass(frozen=True)
class DiskAccessProfile:
    """Average per-disk pages read by one query class on one candidate."""

    query_name: str
    fragmentation: str
    pages_per_disk: np.ndarray
    samples: int

    @property
    def num_disks(self) -> int:
        """Number of disks in the profile."""
        return int(self.pages_per_disk.size)

    @property
    def disks_touched(self) -> int:
        """Disks from which at least one page is read (on average)."""
        return int(np.count_nonzero(self.pages_per_disk > 1e-9))

    @property
    def total_pages(self) -> float:
        """Total pages read per query (averaged over the samples)."""
        return float(self.pages_per_disk.sum())

    @property
    def access_cv(self) -> float:
        """Coefficient of variation of the per-disk page counts."""
        return coefficient_of_variation(self.pages_per_disk.tolist())

    @property
    def max_over_mean(self) -> float:
        """Hottest disk's load relative to the mean (1.0 = perfectly balanced)."""
        mean = self.pages_per_disk.mean()
        if mean == 0:
            return 1.0
        return float(self.pages_per_disk.max() / mean)

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.query_name} on {self.fragmentation}: {self.total_pages:,.0f} "
            f"pages over {self.disks_touched}/{self.num_disks} disks, access CV "
            f"{self.access_cv:.3f}, hottest/mean {self.max_over_mean:.2f}"
        )


def disk_access_profile(
    candidate: FragmentationCandidate,
    query_class: QueryClass,
    samples: int = 20,
    seed: Optional[int] = 0,
    weighted_values: bool = True,
) -> DiskAccessProfile:
    """Compute the disk access profile of ``query_class`` on ``candidate``.

    Parameters
    ----------
    candidate:
        Evaluated fragmentation candidate (provides layout, bitmaps, allocation).
    query_class:
        The query class to profile.
    samples:
        Number of query instances averaged.
    seed:
        Random seed for reproducible profiles.
    weighted_values:
        Draw restriction values proportionally to the data behind them.
    """
    # Imported here: the replay simulator is off the recommend path, which
    # loads this package for its report statistics.
    from repro.simulation import instantiate_query

    if samples <= 0:
        raise ReportError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    allocation = candidate.allocation
    totals = np.zeros(allocation.num_disks, dtype=np.float64)
    for _ in range(samples):
        instance = instantiate_query(
            candidate.layout,
            query_class,
            candidate.bitmap_scheme,
            rng=rng,
            weighted_values=weighted_values,
        )
        pages = instance.fact_pages + instance.bitmap_pages
        totals += allocation.access_distribution(
            instance.fragment_indices.tolist(), pages.tolist()
        )
    return DiskAccessProfile(
        query_name=query_class.name,
        fragmentation=candidate.label,
        pages_per_disk=totals / samples,
        samples=samples,
    )
