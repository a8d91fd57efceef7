"""The independent-set vertex hierarchy (repro.labels.hierarchy)."""

import numpy as np

from repro.distance.matrix import door_graph_edges
from repro.labels import affected_cone, build_hierarchy


def _graph_inputs(space):
    graph = space.distance_graph
    graph.precompute()
    return tuple(space.topology.door_ids), door_graph_edges(graph)


class TestBuildHierarchy:
    def test_every_door_gets_a_level(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        assert hierarchy.door_ids == door_ids
        assert len(hierarchy.levels) == len(door_ids)
        assert (hierarchy.levels >= 0).all()

    def test_order_is_a_permutation(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        assert sorted(hierarchy.order.tolist()) == list(range(len(door_ids)))

    def test_order_descends_through_levels(self, building_space):
        """Hubs are processed top-of-hierarchy first."""
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        levels_in_order = hierarchy.levels[hierarchy.order]
        assert (np.diff(levels_in_order) <= 0).all()

    def test_peeling_produces_multiple_levels(self, building_space):
        """The adaptive degree threshold must not collapse the hierarchy
        to a single level on partition-induced cliques."""
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        assert hierarchy.height > 1

    def test_deterministic(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        first = build_hierarchy(door_ids, edges)
        second = build_hierarchy(door_ids, edges)
        assert np.array_equal(first.levels, second.levels)
        assert np.array_equal(first.order, second.order)

    def test_rank_inverts_order(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        rank = hierarchy.rank_of()
        assert np.array_equal(
            rank[hierarchy.order], np.arange(len(door_ids))
        )

    def test_empty_graph(self):
        hierarchy = build_hierarchy((), [])
        assert hierarchy.height == 0
        assert len(hierarchy.order) == 0


class TestAffectedCone:
    def test_cone_contains_seed_and_everything_above(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        seed = int(np.argmin(hierarchy.levels))
        cone = affected_cone(hierarchy, [seed])
        assert seed in cone
        floor = int(hierarchy.levels[seed])
        assert set(cone.tolist()) == set(
            np.flatnonzero(hierarchy.levels >= floor).tolist()
        )

    def test_empty_seed_empty_cone(self, building_space):
        door_ids, edges = _graph_inputs(building_space)
        hierarchy = build_hierarchy(door_ids, edges)
        assert len(affected_cone(hierarchy, [])) == 0
