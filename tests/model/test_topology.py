"""Tests for the D2P / P2D topology mappings, mirroring the paper's §III-A
worked examples on the Figure-1 floor plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError, UnknownEntityError
from repro.model import Topology
from repro.model.figure1 import (
    D1,
    D11,
    D12,
    D13,
    D14,
    D15,
    D21,
    HALLWAY,
    ROOM_12,
    ROOM_13,
    ROOM_20,
    ROOM_21,
    build_figure1,
    build_figure1_subplan,
)


@pytest.fixture(scope="module")
def figure1():
    return build_figure1()


@pytest.fixture(scope="module")
def subplan():
    return build_figure1_subplan()


class TestPaperExamples:
    """Each assertion reproduces a concrete example from §III-A."""

    def test_d2p_of_unidirectional_d12(self, figure1):
        assert figure1.topology.d2p(D12) == frozenset({(ROOM_12, HALLWAY)})

    def test_d2p_of_unidirectional_d15(self, figure1):
        assert figure1.topology.d2p(D15) == frozenset({(ROOM_13, ROOM_12)})

    def test_d2p_of_bidirectional_d21(self, figure1):
        assert figure1.topology.d2p(D21) == frozenset(
            {(ROOM_20, ROOM_21), (ROOM_21, ROOM_20)}
        )

    def test_directionality_predicates(self, figure1):
        topo = figure1.topology
        assert topo.is_unidirectional(D12)
        assert topo.is_unidirectional(D15)
        assert topo.is_bidirectional(D21)
        assert topo.is_bidirectional(D13)

    def test_enterable_and_leaveable_partitions_of_d12(self, figure1):
        topo = figure1.topology
        assert topo.enterable_partitions(D12) == frozenset({HALLWAY})
        assert topo.leaveable_partitions(D12) == frozenset({ROOM_12})

    def test_enterable_and_leaveable_partitions_of_d15(self, figure1):
        topo = figure1.topology
        assert topo.enterable_partitions(D15) == frozenset({ROOM_12})
        assert topo.leaveable_partitions(D15) == frozenset({ROOM_13})

    def test_enterable_and_leaveable_partitions_of_d21(self, figure1):
        topo = figure1.topology
        assert topo.enterable_partitions(D21) == frozenset({ROOM_20, ROOM_21})
        assert topo.leaveable_partitions(D21) == frozenset({ROOM_20, ROOM_21})

    def test_p2d_of_hallway_in_subplan(self, subplan):
        # The paper: P2D⊣(v10) = {d1, d11, d12, d13, d14} and
        # P2D⊢(v10) = {d1, d11, d13, d14} (d12 cannot be used to leave).
        topo = subplan.topology
        assert topo.enterable_doors(HALLWAY) == frozenset({D1, D11, D12, D13, D14})
        assert topo.leaveable_doors(HALLWAY) == frozenset({D1, D11, D13, D14})

    def test_p2d_of_room_12(self, figure1):
        topo = figure1.topology
        assert topo.enterable_doors(ROOM_12) == frozenset({D15})
        assert topo.leaveable_doors(ROOM_12) == frozenset({D12})

    def test_p2d_of_room_13(self, figure1):
        topo = figure1.topology
        assert topo.enterable_doors(ROOM_13) == frozenset({D13})
        assert topo.leaveable_doors(ROOM_13) == frozenset({D13, D15})

    def test_undirected_p2d_is_union(self, figure1):
        topo = figure1.topology
        assert topo.doors_of(ROOM_12) == frozenset({D12, D15})

    def test_touches(self, figure1):
        topo = figure1.topology
        assert topo.touches(D12, ROOM_12)
        assert topo.touches(D12, HALLWAY)
        assert not topo.touches(D12, ROOM_13)

    def test_partitions_of_every_door_has_size_two(self, figure1):
        topo = figure1.topology
        for door_id in topo.door_ids:
            assert len(topo.partitions_of(door_id)) == 2


class TestConstruction:
    def test_self_loop_raises(self):
        topo = Topology()
        topo.add_partition(1)
        with pytest.raises(TopologyError):
            topo.connect(5, 1, 1)

    def test_unknown_partition_raises(self):
        topo = Topology()
        topo.add_partition(1)
        with pytest.raises(UnknownEntityError):
            topo.connect(5, 1, 2)

    def test_door_cannot_connect_three_partitions(self):
        topo = Topology()
        for p in (1, 2, 3):
            topo.add_partition(p)
        topo.connect(5, 1, 2)
        with pytest.raises(TopologyError):
            topo.connect(5, 2, 3)

    def test_incremental_same_pair_is_allowed(self):
        # A door declared one-way twice (both directions) becomes bidirectional.
        topo = Topology()
        topo.add_partition(1)
        topo.add_partition(2)
        topo.connect(5, 1, 2, bidirectional=False)
        assert topo.is_unidirectional(5)
        topo.connect(5, 2, 1, bidirectional=False)
        assert topo.is_bidirectional(5)

    def test_unknown_door_raises(self):
        topo = Topology()
        with pytest.raises(UnknownEntityError):
            topo.d2p(99)

    def test_unknown_partition_query_raises(self):
        topo = Topology()
        with pytest.raises(UnknownEntityError):
            topo.enterable_doors(99)

    def test_validate_passes_on_figure1(self, figure1):
        figure1.topology.validate()

    def test_directed_edges_are_deterministic(self, figure1):
        edges_a = list(figure1.topology.directed_edges())
        edges_b = list(figure1.topology.directed_edges())
        assert edges_a == edges_b
        assert (ROOM_12, HALLWAY, D12) in edges_a
        assert (HALLWAY, ROOM_12, D12) not in edges_a


# ----------------------------------------------------------------------
# Views under random connect / disconnect sequences
# ----------------------------------------------------------------------
PARTITIONS = (1, 2, 3, 4)
DOORS = (10, 11, 12, 13, 14)
UNKNOWN_DOOR = 99
UNKNOWN_PARTITION = 98

_connect = st.tuples(
    st.just("connect"),
    st.sampled_from(DOORS),
    st.sampled_from(PARTITIONS),
    st.sampled_from(PARTITIONS),
    st.booleans(),
)
_disconnect = st.tuples(st.just("disconnect"), st.sampled_from(DOORS))
# Connects are drawn twice as often as disconnects, so doors accumulate.
_operations = st.lists(st.one_of(_connect, _connect, _disconnect), max_size=30)


def _apply(topo, model, operation):
    """Apply one operation to ``topo`` and to the reference D2P ``model``,
    checking that the operations the paper forbids raise."""
    if operation[0] == "disconnect":
        door_id = operation[1]
        if door_id not in model:
            with pytest.raises(UnknownEntityError):
                topo.disconnect(door_id)
            return
        topo.disconnect(door_id)
        del model[door_id]
        return
    _, door_id, from_p, to_p, bidirectional = operation
    edges = model.get(door_id, set())
    touched = {p for edge in edges for p in edge}
    if from_p == to_p or (edges and touched != {from_p, to_p}):
        with pytest.raises(TopologyError):
            topo.connect(door_id, from_p, to_p, bidirectional)
        return
    topo.connect(door_id, from_p, to_p, bidirectional)
    edges = model.setdefault(door_id, set())
    edges.add((from_p, to_p))
    if bidirectional:
        edges.add((to_p, from_p))


def _views(topo):
    """Every view the topology hands out, keyed by (method, id)."""
    views = {}
    for door_id in topo.door_ids:
        for name in ("d2p", "enterable_partitions", "leaveable_partitions",
                     "partitions_of"):
            views[(name, door_id)] = getattr(topo, name)(door_id)
    for partition_id in topo.partition_ids:
        for name in ("enterable_doors", "leaveable_doors", "doors_of"):
            views[(name, partition_id)] = getattr(topo, name)(partition_id)
    return views


def _check_views_match_d2p(topo, model):
    assert set(topo.door_ids) == set(model)
    assert topo.partition_ids == PARTITIONS
    enterable = {p: set() for p in PARTITIONS}
    leaveable = {p: set() for p in PARTITIONS}
    for door_id in topo.door_ids:
        d2p = topo.d2p(door_id)
        assert d2p == frozenset(model[door_id])
        assert topo.enterable_partitions(door_id) == {t for _, t in d2p}
        assert topo.leaveable_partitions(door_id) == {f for f, _ in d2p}
        touched = {p for edge in d2p for p in edge}
        assert topo.partitions_of(door_id) == touched
        assert topo.is_unidirectional(door_id) == (len(d2p) == 1)
        for partition_id in PARTITIONS:
            assert topo.touches(door_id, partition_id) == (partition_id in touched)
        for from_p, to_p in d2p:
            leaveable[from_p].add(door_id)
            enterable[to_p].add(door_id)
    for partition_id in PARTITIONS:
        assert topo.enterable_doors(partition_id) == enterable[partition_id]
        assert topo.leaveable_doors(partition_id) == leaveable[partition_id]
        assert topo.doors_of(partition_id) == (
            enterable[partition_id] | leaveable[partition_id]
        )
    assert sorted(topo.directed_edges()) == sorted(
        (f, t, d) for d, edges in model.items() for f, t in edges
    )
    topo.validate()


def _check_unknown_ids_raise(topo, model):
    for door_id in (UNKNOWN_DOOR, *(d for d in DOORS if d not in model)):
        assert not topo.has_door(door_id)
        for name in ("d2p", "enterable_partitions", "leaveable_partitions",
                     "partitions_of", "is_unidirectional"):
            with pytest.raises(UnknownEntityError):
                getattr(topo, name)(door_id)
        with pytest.raises(UnknownEntityError):
            topo.touches(door_id, PARTITIONS[0])
    for name in ("enterable_doors", "leaveable_doors", "doors_of"):
        with pytest.raises(UnknownEntityError):
            getattr(topo, name)(UNKNOWN_PARTITION)
    with pytest.raises(UnknownEntityError):
        topo.connect(DOORS[0], PARTITIONS[0], UNKNOWN_PARTITION)


class TestViewsUnderMutation:
    @settings(max_examples=200, deadline=None)
    @given(_operations)
    def test_views_follow_d2p_and_stay_snapshots(self, operations):
        topo = Topology()
        for partition_id in PARTITIONS:
            topo.add_partition(partition_id)
        model = {}
        for operation in operations:
            before = _views(topo)
            frozen = {key: frozenset(view) for key, view in before.items()}
            _apply(topo, model, operation)
            # A view taken before the mutation is unchanged after it.
            for key, view in before.items():
                assert isinstance(view, frozenset)
                assert view == frozen[key], key
            _check_views_match_d2p(topo, model)
            _check_unknown_ids_raise(topo, model)

    def test_views_are_returned_without_copying(self, figure1):
        topo = figure1.topology
        assert topo.enterable_partitions(D12) is topo.enterable_partitions(D12)
        assert topo.leaveable_doors(HALLWAY) is topo.leaveable_doors(HALLWAY)
        assert topo.enterable_doors(ROOM_13) is topo.enterable_doors(ROOM_13)
