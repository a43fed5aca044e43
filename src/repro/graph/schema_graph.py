"""Directed graph view of a star schema.

Node naming convention:

* ``dim:<dimension>`` — one node per dimension,
* ``level:<dimension>.<level>`` — one node per hierarchy level,
* ``fact:<fact table>`` — one node per fact table.

Edge kinds (the values of :attr:`SchemaGraph.adjacency`):

* ``hierarchy`` — from a coarser level to the next finer level of the same
  dimension,
* ``has_level`` — from a dimension to each of its levels,
* ``references`` — from a fact table to each dimension it references.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SchemaError
from repro.schema import StarSchema

__all__ = ["SchemaGraph", "build_schema_graph", "hierarchy_path", "shared_dimensions"]


@dataclass
class SchemaGraph:
    """A directed graph as plain dicts.

    ``nodes`` maps each node to its attribute dict (always including
    ``kind``); ``adjacency`` maps each node to ``{successor: edge kind}``.
    Both preserve insertion order, so iteration follows the schema.
    """

    name: str
    nodes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    adjacency: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def add_node(self, node: str, **attributes: Any) -> None:
        self.nodes[node] = attributes
        self.adjacency.setdefault(node, {})

    def add_edge(self, source: str, target: str, kind: str) -> None:
        self.adjacency[source][target] = kind

    def shortest_path(self, source: str, target: str, kind: str) -> Optional[List[str]]:
        """Breadth-first path from ``source`` to ``target`` (both included).

        Only edges of ``kind`` are followed.  Returns ``None`` when
        ``target`` is unreachable that way.
        """
        parents: Dict[str, Optional[str]] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == target:
                path = []
                cursor: Optional[str] = node
                while cursor is not None:
                    path.append(cursor)
                    cursor = parents[cursor]
                return path[::-1]
            for successor, edge_kind in self.adjacency.get(node, {}).items():
                if successor not in parents and edge_kind == kind:
                    parents[successor] = node
                    queue.append(successor)
        return None


def _dim_node(dimension: str) -> str:
    return f"dim:{dimension}"


def _level_node(dimension: str, level: str) -> str:
    return f"level:{dimension}.{level}"


def _fact_node(fact: str) -> str:
    return f"fact:{fact}"


def build_schema_graph(schema: StarSchema) -> SchemaGraph:
    """Build the directed schema graph of ``schema``.

    Nodes carry ``kind`` (``dimension`` / ``level`` / ``fact``) plus the
    relevant metadata (cardinality for levels, row counts for facts), so the
    graph is self-contained for visualization or export.
    """
    graph = SchemaGraph(name=schema.name)
    for dimension in schema.dimensions:
        graph.add_node(
            _dim_node(dimension.name),
            kind="dimension",
            dimension=dimension.name,
            levels=len(dimension.levels),
            skew_theta=dimension.skew.theta,
        )
        previous = None
        for level in dimension.levels:
            node = _level_node(dimension.name, level.name)
            graph.add_node(
                node,
                kind="level",
                dimension=dimension.name,
                level=level.name,
                cardinality=level.cardinality,
            )
            graph.add_edge(_dim_node(dimension.name), node, kind="has_level")
            if previous is not None:
                graph.add_edge(previous, node, kind="hierarchy")
            previous = node
    for fact in schema.fact_tables:
        graph.add_node(
            _fact_node(fact.name),
            kind="fact",
            fact=fact.name,
            row_count=fact.row_count,
            row_size_bytes=fact.row_size_bytes,
        )
        for dimension_name in fact.dimension_names:
            graph.add_edge(
                _fact_node(fact.name), _dim_node(dimension_name), kind="references"
            )
    return graph


def hierarchy_path(
    schema: StarSchema, dimension: str, from_level: str, to_level: str
) -> List[str]:
    """Level names on the hierarchy path from ``from_level`` down to ``to_level``.

    Both endpoints are included.  Raises :class:`SchemaError` when ``from_level``
    is not an ancestor (or the same level) of ``to_level``.
    """
    graph = build_schema_graph(schema)
    source = _level_node(dimension, from_level)
    target = _level_node(dimension, to_level)
    if source not in graph.nodes or target not in graph.nodes:
        raise SchemaError(
            f"unknown level in hierarchy_path: {dimension}.{from_level} / "
            f"{dimension}.{to_level}"
        )
    nodes = graph.shortest_path(source, target, kind="hierarchy")
    if nodes is None:
        raise SchemaError(
            f"{dimension}.{from_level} is not an ancestor of {dimension}.{to_level}"
        )
    return [graph.nodes[node]["level"] for node in nodes]


def shared_dimensions(schema: StarSchema, fact_a: str, fact_b: str) -> Tuple[str, ...]:
    """Dimensions referenced by both fact tables (conformed dimensions)."""
    table_a = schema.fact_table(fact_a)
    table_b = schema.fact_table(fact_b)
    shared = [name for name in table_a.dimension_names if name in table_b.dimension_names]
    return tuple(shared)
