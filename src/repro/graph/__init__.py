"""Graph views of schemas and workloads.

Two graph structures support the advisor and the analysis layer:

* the **schema graph** — dimensions, hierarchy levels and fact tables as a
  directed graph (hierarchy edges point from coarser to finer levels, foreign
  key edges from fact tables to the dimensions they reference).  It powers
  structural queries (hierarchy paths, shared dimensions between fact tables)
  and sanity checks beyond what the flat validators cover.

* the **dimension affinity graph** — an undirected, weighted graph over the
  dimensions where an edge's weight is the workload share that restricts both
  endpoints in the same query class.  Dimensions that are frequently co-accessed
  are the natural joint fragmentation dimensions; the affinity graph therefore
  yields a cheap pre-selection of promising fragmentation dimension sets, which
  the advisor can use to cap the candidate space on very wide schemas.

Both are plain dict adjacency structures (:class:`SchemaGraph`,
:class:`AffinityGraph`); the package needs no graph library.
"""

from repro.graph.schema_graph import (
    SchemaGraph,
    build_schema_graph,
    hierarchy_path,
    shared_dimensions,
)
from repro.graph.affinity import (
    AffinityGraph,
    build_affinity_graph,
    dimension_ranking,
    suggest_fragmentation_dimensions,
)

__all__ = [
    "SchemaGraph",
    "AffinityGraph",
    "build_schema_graph",
    "hierarchy_path",
    "shared_dimensions",
    "build_affinity_graph",
    "dimension_ranking",
    "suggest_fragmentation_dimensions",
]
