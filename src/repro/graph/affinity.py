"""Dimension affinity graph derived from a query workload.

Two dimensions are *affine* when the same query classes restrict both: queries
that restrict both ``time`` and ``product`` benefit from a fragmentation whose
attribute set includes both dimensions (the value combination pins down a small
set of fragments).  The affinity graph makes that structure explicit:

* node weight — workload share restricting the dimension at all,
* edge weight — workload share restricting both endpoint dimensions together.

:func:`suggest_fragmentation_dimensions` turns the graph into a cheap
pre-selection heuristic: greedily pick the dimension set with the highest
combined coverage of the workload.  It is *not* a replacement for the cost
model — the advisor still evaluates the surviving candidates analytically — but
it caps the candidate space for very wide schemas and gives the DBA an
at-a-glance explanation of why certain dimensions keep appearing in the top
fragmentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.schema import StarSchema
from repro.workload import QueryMix

__all__ = [
    "AffinityGraph",
    "build_affinity_graph",
    "dimension_ranking",
    "suggest_fragmentation_dimensions",
]


@dataclass
class AffinityGraph:
    """An undirected weighted graph over dimensions, as plain dicts.

    ``weights`` maps each dimension to its node weight; ``adjacency`` maps
    each dimension to ``{neighbour: edge weight}`` and is symmetric.  Both
    follow the fact table's dimension order.
    """

    name: str
    weights: Dict[str, float] = field(default_factory=dict)
    adjacency: Dict[str, Dict[str, float]] = field(default_factory=dict)


def build_affinity_graph(schema: StarSchema, workload: QueryMix) -> AffinityGraph:
    """Build the weighted dimension-affinity graph of ``workload`` over ``schema``."""
    workload.validate(schema)
    graph = AffinityGraph(name=f"affinity:{schema.name}")
    for dimension in schema.fact_table().dimension_names:
        graph.weights[dimension] = 0.0
        graph.adjacency[dimension] = {}
    for query_class, share in workload.weighted_items():
        accessed = [d for d in query_class.accessed_dimensions if d in graph.weights]
        for dimension in accessed:
            graph.weights[dimension] += share
        for index, first in enumerate(accessed):
            for second in accessed[index + 1:]:
                weight = graph.adjacency[first].get(second, 0.0) + share
                graph.adjacency[first][second] = weight
                graph.adjacency[second][first] = weight
    return graph


def dimension_ranking(schema: StarSchema, workload: QueryMix) -> List[Tuple[str, float]]:
    """Dimensions ranked by the workload share that restricts them (descending)."""
    ranking = list(build_affinity_graph(schema, workload).weights.items())
    ranking.sort(key=lambda item: (-item[1], item[0]))
    return ranking


def suggest_fragmentation_dimensions(
    schema: StarSchema,
    workload: QueryMix,
    max_dimensions: int = 3,
    min_share_gain: float = 0.05,
) -> List[str]:
    """Greedy pre-selection of fragmentation dimensions.

    The objective maximized is the *restriction mass* of the selected set: the
    workload-share-weighted number of selected dimensions each query class
    restricts.  Every selected dimension a class restricts multiplies the
    class's fragment confinement under MDHF, so the marginal gain of adding a
    dimension is exactly the workload share that restricts it — dimensions that
    are co-accessed with already selected ones therefore keep their full gain,
    unlike a pure coverage objective.  Dimensions are added greedily while each
    addition contributes at least ``min_share_gain``.

    The result is the dimension set a DBA would short-list before letting the
    cost model pick the exact hierarchy levels.

    Parameters
    ----------
    schema, workload:
        Configuration to analyse.
    max_dimensions:
        Upper bound on the number of suggested dimensions.
    min_share_gain:
        Minimum workload share that must restrict a dimension for it to be
        added to the suggestion.
    """
    if max_dimensions < 1:
        raise WorkloadError(f"max_dimensions must be at least 1, got {max_dimensions}")
    if not 0 <= min_share_gain <= 1:
        raise WorkloadError(
            f"min_share_gain must be within [0, 1], got {min_share_gain}"
        )
    workload.validate(schema)

    # The marginal restriction-mass gain of a dimension is independent of the
    # already selected set: it is simply the workload share restricting it.
    ranking = dimension_ranking(schema, workload)
    suggestion: List[str] = []
    for dimension, share in ranking:
        if len(suggestion) >= max_dimensions:
            break
        if share < min_share_gain:
            break
        suggestion.append(dimension)
    return suggestion
