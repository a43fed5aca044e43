"""Unit tests for repro.graph: schema graph and dimension affinity graph."""

from __future__ import annotations

import pytest

from repro import (
    Dimension,
    DimensionRestriction,
    FactTable,
    Level,
    QueryClass,
    QueryMix,
    StarSchema,
    build_affinity_graph,
    build_schema_graph,
    dimension_ranking,
    suggest_fragmentation_dimensions,
)
from repro.errors import SchemaError, WorkloadError
from repro.graph import hierarchy_path, shared_dimensions


class TestSchemaGraph:
    def test_node_counts(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        dims = [n for n, d in graph.nodes.items() if d["kind"] == "dimension"]
        levels = [n for n, d in graph.nodes.items() if d["kind"] == "level"]
        facts = [n for n, d in graph.nodes.items() if d["kind"] == "fact"]
        assert len(dims) == 3
        assert len(levels) == 3 + 2 + 2
        assert len(facts) == 1

    def test_edge_kinds(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        kinds = {kind for successors in graph.adjacency.values() for kind in successors.values()}
        assert kinds == {"hierarchy", "has_level", "references"}

    def test_hierarchy_edges_follow_levels(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        assert graph.adjacency["level:time.year"]["level:time.quarter"] == "hierarchy"
        assert graph.adjacency["level:time.quarter"]["level:time.month"] == "hierarchy"
        assert "level:time.year" not in graph.adjacency["level:time.month"]

    def test_fact_references(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        successors = set(graph.adjacency["fact:sales"])
        assert {"dim:time", "dim:product", "dim:store"} <= successors

    def test_level_metadata(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        assert graph.nodes["level:time.month"]["cardinality"] == 24

    def test_is_dag(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        # Kahn's algorithm: every node is removed iff there is no cycle.
        indegree = {node: 0 for node in graph.nodes}
        for successors in graph.adjacency.values():
            for target in successors:
                indegree[target] += 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        removed = 0
        while ready:
            node = ready.pop()
            removed += 1
            for target in graph.adjacency[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        assert removed == len(graph.nodes)

    def test_adjacency_covers_every_node(self, toy_schema):
        graph = build_schema_graph(toy_schema)
        assert graph.name == toy_schema.name
        assert list(graph.adjacency) == list(graph.nodes)
        assert all(target in graph.nodes for s in graph.adjacency.values() for target in s)


class TestHierarchyPath:
    def test_full_path(self, toy_schema):
        assert hierarchy_path(toy_schema, "time", "year", "month") == [
            "year",
            "quarter",
            "month",
        ]

    def test_single_level_path(self, toy_schema):
        assert hierarchy_path(toy_schema, "time", "quarter", "quarter") == ["quarter"]

    def test_reverse_direction_rejected(self, toy_schema):
        with pytest.raises(SchemaError):
            hierarchy_path(toy_schema, "time", "month", "year")

    def test_unknown_level_rejected(self, toy_schema):
        with pytest.raises(SchemaError):
            hierarchy_path(toy_schema, "time", "week", "month")


class TestSharedDimensions:
    def test_conformed_dimensions(self):
        time = Dimension("time", [Level("month", 12)])
        product = Dimension("product", [Level("item", 100)])
        store = Dimension("store", [Level("store", 10)])
        sales = FactTable("sales", 1000, 64, ("time", "product", "store"))
        inventory = FactTable("inventory", 500, 32, ("time", "product"))
        schema = StarSchema("c", (time, product, store), (sales, inventory))
        assert shared_dimensions(schema, "sales", "inventory") == ("time", "product")

    def test_same_table(self, toy_schema):
        assert shared_dimensions(toy_schema, "sales", "sales") == (
            "time",
            "product",
            "store",
        )


class TestAffinityGraph:
    def test_node_weights_match_access_shares(self, toy_schema, toy_workload):
        graph = build_affinity_graph(toy_schema, toy_workload)
        shares = toy_workload.dimension_access_shares()
        for dimension, share in shares.items():
            assert graph.weights[dimension] == pytest.approx(share)
        # Dimensions never restricted still appear with zero weight.
        assert set(graph.weights) == set(toy_schema.fact_table().dimension_names)

    def test_edge_weights_are_coaccess_shares(self, toy_schema, toy_workload):
        graph = build_affinity_graph(toy_schema, toy_workload)
        # time+product are co-restricted by classes with weights 4 and 2 of 10.
        assert graph.adjacency["time"]["product"] == pytest.approx(0.6)
        # time+store co-restricted only by the weight-3 class.
        assert graph.adjacency["time"]["store"] == pytest.approx(0.3)
        # product and store never co-occur.
        assert "store" not in graph.adjacency["product"]

    def test_adjacency_is_symmetric(self, toy_schema, toy_workload):
        graph = build_affinity_graph(toy_schema, toy_workload)
        for first, neighbours in graph.adjacency.items():
            for second, weight in neighbours.items():
                assert graph.adjacency[second][first] == weight

    def test_invalid_workload_rejected(self, toy_schema):
        bad = QueryMix([QueryClass("q", [DimensionRestriction("ghost", "x")])])
        with pytest.raises(WorkloadError):
            build_affinity_graph(toy_schema, bad)


class TestDimensionRanking:
    def test_ranking_order(self, toy_schema, toy_workload):
        ranking = dimension_ranking(toy_schema, toy_workload)
        names = [name for name, _ in ranking]
        assert names[0] == "time"  # restricted by every class
        shares = [share for _, share in ranking]
        assert shares == sorted(shares, reverse=True)

    def test_ranking_covers_all_fact_dimensions(self, toy_schema, toy_workload):
        ranking = dimension_ranking(toy_schema, toy_workload)
        assert {name for name, _ in ranking} == set(
            toy_schema.fact_table().dimension_names
        )


class TestSuggestFragmentationDimensions:
    def test_suggests_most_useful_dimensions(self, toy_schema, toy_workload):
        suggestion = suggest_fragmentation_dimensions(toy_schema, toy_workload)
        assert suggestion[0] == "time"
        assert set(suggestion) <= set(toy_schema.fact_table().dimension_names)

    def test_max_dimensions_respected(self, toy_schema, toy_workload):
        assert len(
            suggest_fragmentation_dimensions(toy_schema, toy_workload, max_dimensions=1)
        ) == 1

    def test_share_gain_threshold_prunes(self, toy_schema, toy_workload):
        # Only "time" (restricted by 100% of the workload) clears a 0.7 threshold;
        # "product" (60%) and "store" (30%) are pruned.
        suggestion = suggest_fragmentation_dimensions(
            toy_schema, toy_workload, min_share_gain=0.7
        )
        assert suggestion == ["time"]

    def test_suggestion_ordered_by_share(self, toy_schema, toy_workload):
        suggestion = suggest_fragmentation_dimensions(toy_schema, toy_workload)
        assert suggestion == ["time", "product", "store"]

    def test_apb1_suggestion_matches_advisor_winner(self, apb_small_schema, apb_workload):
        """The affinity pre-selection short-lists the dimensions the advisor ends up using."""
        suggestion = suggest_fragmentation_dimensions(
            apb_small_schema, apb_workload, max_dimensions=2
        )
        assert "time" in suggestion
        assert "product" in suggestion

    def test_invalid_parameters(self, toy_schema, toy_workload):
        with pytest.raises(WorkloadError):
            suggest_fragmentation_dimensions(toy_schema, toy_workload, max_dimensions=0)
        with pytest.raises(WorkloadError):
            suggest_fragmentation_dimensions(
                toy_schema, toy_workload, min_share_gain=2.0
            )
