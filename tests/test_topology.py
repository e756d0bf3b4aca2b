import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from wsn_multipath import (
    Node,
    TopologyGraph,
    deploy_field,
    dump_topology,
    parse_topology,
)
from wsn_multipath.topology import ALIVE, FAILED


def grid_graph(radio=1.5):
    # 0 -- 1 -- 2 on a line, unit spacing
    nodes = [Node(id=i, position=(float(i), 0.0), residual_energy=10.0)
             for i in range(3)]
    return TopologyGraph(nodes, radio_range=radio)


class TestGraphBasics:
    def test_edges_respect_range(self):
        g = grid_graph(radio=1.5)
        assert g.neighbors(0) == [1]
        assert g.neighbors(1) == [0, 2]
        assert not g.has_edge(0, 2)

    def test_neighbors_sorted_ascending(self):
        nodes = [Node(id=i, position=(0.0, 0.0) if i == 0 else (1.0, 0.0),
                      residual_energy=1.0) for i in (0, 5, 3, 9)]
        g = TopologyGraph(nodes, radio_range=2.0)
        assert g.neighbors(0) == [3, 5, 9]

    def test_duplicate_ids_rejected(self):
        nodes = [Node(id=1, position=(0, 0), residual_energy=1.0),
                 Node(id=1, position=(1, 0), residual_energy=1.0)]
        with pytest.raises(ValueError):
            TopologyGraph(nodes, radio_range=1.0)

    def test_fail_node_bumps_version_and_drops_edges(self):
        g = grid_graph()
        v = g.version
        g.fail_node(1)
        assert g.version == v + 1
        assert not g.nodes[1].alive
        assert g.neighbors(0) == []
        assert not g.has_edge(0, 1)

    def test_disable_link(self):
        g = grid_graph()
        g.disable_link(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)
        # symmetric
        assert not g.has_edge(1, 0)

    def test_edge_at_range_boundary_follows_neighbors(self):
        # a pair at exactly the radio range, where a direct hypot test and
        # the k-d tree's range query once disagreed
        nodes = [Node(id=0, position=(0.0, 0.0), residual_energy=1.0),
                 Node(id=1, position=(1.0483280999484756, 12.164259424505179),
                      residual_energy=1.0)]
        g = TopologyGraph(nodes, radio_range=12.20934884225218)
        assert g.has_edge(0, 1) == (1 in g.neighbors(0))
        assert g.has_edge(1, 0) == (0 in g.neighbors(1))

    def test_repeat_failure_is_idempotent(self):
        g = grid_graph()
        g.fail_node(1)
        v = g.version
        g.fail_node(1)
        assert g.version == v


EDITS = st.one_of(
    st.tuples(st.just("fail_node"), st.integers(0, 9)),
    st.tuples(st.just("disable_link"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("activate_spare"), st.integers(0, 9)),
)


class TestInPlaceEdits:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=2, max_size=10),
           st.sampled_from([1.0, 3.0, 5.0, 7.5, 20.0]),
           st.lists(EDITS, max_size=12))
    def test_edits_match_a_fresh_build(self, points, radio, edits):
        # integer points put many pairs at exactly the range (3-4-5 triangles)
        ids = range(len(points))
        g = TopologyGraph([Node(id=i, position=(float(x), float(y)), residual_energy=1.0,
                                is_redundant=True) for i, (x, y) in enumerate(points)],
                          radio_range=radio)
        dead: set[int] = set()
        cut: set[frozenset[int]] = set()

        def rebuilt():
            # a fresh graph of the surviving nodes, less the cut pairs
            fresh = TopologyGraph([Node(id=i, position=g.nodes[i].position,
                                        residual_energy=1.0)
                                   for i in ids if i not in dead], radio_range=radio)
            return {u: [v for v in fresh.neighbors(u) if frozenset((u, v)) not in cut]
                    for u in ids}

        want = rebuilt()
        for op, *args in edits:
            if any(a not in g for a in args):
                continue
            before = g.version
            if op == "fail_node":
                changed = args[0] not in dead
                dead.add(args[0])
            elif op == "disable_link":
                changed = args[1] in want[args[0]]
                cut.add(frozenset(args))
            else:
                changed = True
            getattr(g, op)(*args)
            assert g.version == before + changed
            want = rebuilt()
            for u in ids:
                assert g.neighbors(u) == want[u]
                for v in ids:
                    assert g.has_edge(u, v) == (v in g.neighbors(u))


def pairwise_adjacency(nodes, radio):
    """The neighbour lists built pair by pair from the k-d tree's set output."""
    ids = sorted(n.id for n in nodes if n.alive)
    position = {n.id: n.position for n in nodes}
    adj = {i: [] for i in ids}
    if len(ids) > 1:
        pts = np.array([position[i] for i in ids])
        for a, b in cKDTree(pts).query_pairs(radio):
            adj[ids[a]].append(ids[b])
            adj[ids[b]].append(ids[a])
    for nbrs in adj.values():
        nbrs.sort()
    return adj


class TestAdjacencyBuild:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.booleans(),
                              st.integers(0, 10**6)),
                    max_size=40, unique_by=lambda p: p[3]),
           st.sampled_from([1.0, 3.0, 5.0, 7.5, 20.0]))
    @example([], 5.0)
    @example([(0, 0, True, 7)], 5.0)
    @example([(0, 0, True, 9), (3, 4, True, 2)], 5.0)
    @example([(0, 0, True, 9), (3, 4, False, 2), (0, 5, True, 4), (4, 3, True, 40)], 5.0)
    def test_matches_pairwise_build(self, points, radio):
        # integer points put many pairs at exactly the range (3-4-5
        # triangles); ids are sparse and unordered, and some nodes are
        # already failed when the graph is made
        nodes = [Node(id=i, position=(float(x), float(y)), residual_energy=1.0,
                      status=ALIVE if up else FAILED) for x, y, up, i in points]
        g = TopologyGraph(nodes, radio_range=radio)
        want = pairwise_adjacency(nodes, radio)
        for n in nodes:
            nbrs = g.neighbors(n.id)
            assert nbrs == want.get(n.id, [])
            assert all(type(v) is int for v in nbrs)
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))

    def test_copy_is_independent(self):
        g = grid_graph()
        g.disable_link(1, 2)
        g.nodes[0].residual_energy = 4.0
        h = g.copy()
        assert (h.version, h.radio_range) == (g.version, g.radio_range)
        assert h.nodes == g.nodes
        assert [h.neighbors(i) for i in range(3)] == [g.neighbors(i) for i in range(3)]
        h.fail_node(1)
        h.activate_spare(2, assumed_id=1)
        h.nodes[0].residual_energy = 1.0
        assert g.version == h.version - 2
        assert g.nodes[1].alive and g.nodes[2].assumed_id is None
        assert g.nodes[0].residual_energy == 4.0
        assert g.neighbors(0) == [1] and g.neighbors(1) == [0]


class TestNearestRedundant:
    def test_closest_spare_wins(self):
        nodes = [
            Node(id=0, position=(0.0, 0.0), residual_energy=1.0),
            Node(id=1, position=(1.0, 0.0), residual_energy=1.0, is_redundant=True),
            Node(id=2, position=(5.0, 0.0), residual_energy=1.0, is_redundant=True),
        ]
        g = TopologyGraph(nodes, radio_range=10.0)
        assert g.nearest_redundant(0).id == 1

    def test_equidistant_lowest_id(self):
        nodes = [
            Node(id=0, position=(0.0, 0.0), residual_energy=1.0),
            Node(id=7, position=(0.0, 2.0), residual_energy=1.0, is_redundant=True),
            Node(id=3, position=(2.0, 0.0), residual_energy=1.0, is_redundant=True),
        ]
        g = TopologyGraph(nodes, radio_range=10.0)
        assert g.nearest_redundant(0).id == 3

    def test_dead_and_excluded_spares_skipped(self):
        nodes = [
            Node(id=0, position=(0.0, 0.0), residual_energy=1.0),
            Node(id=1, position=(1.0, 0.0), residual_energy=1.0, is_redundant=True),
            Node(id=2, position=(2.0, 0.0), residual_energy=1.0, is_redundant=True),
        ]
        g = TopologyGraph(nodes, radio_range=10.0)
        g.fail_node(1)
        assert g.nearest_redundant(0).id == 2
        assert g.nearest_redundant(0, exclude=frozenset({2})) is None


class TestDeploy:
    def test_deterministic_for_seed(self):
        a = deploy_field((100.0, 100.0), 50, seed=7)
        b = deploy_field((100.0, 100.0), 50, seed=7)
        assert dump_topology(a) == dump_topology(b)

    def test_seed_changes_layout(self):
        a = deploy_field((100.0, 100.0), 50, seed=7)
        b = deploy_field((100.0, 100.0), 50, seed=8)
        assert dump_topology(a) != dump_topology(b)

    def test_positions_inside_area(self):
        g = deploy_field((30.0, 60.0), 200, seed=1)
        for n in g.nodes.values():
            assert 0.0 <= n.position[0] <= 30.0
            assert 0.0 <= n.position[1] <= 60.0

    def test_redundant_fraction(self):
        g = deploy_field((100.0, 100.0), 200, seed=3, redundant_fraction=0.1)
        assert sum(n.is_redundant for n in g.nodes.values()) == 20

    def test_initial_energy_applied(self):
        g = deploy_field((10.0, 10.0), 5, seed=0, initial_energy=42.0)
        assert all(n.residual_energy == 42.0 for n in g.nodes.values())


class TestTextFormat:
    def test_round_trip(self):
        g = deploy_field((50.0, 50.0), 25, seed=11, redundant_fraction=0.2)
        text = dump_topology(g)
        h = parse_topology(text, radio_range=g.radio_range)
        assert dump_topology(h) == text

    def test_line_format(self):
        g = TopologyGraph([Node(id=4, position=(1.25, -3.5), residual_energy=7.5,
                                is_redundant=True)], radio_range=1.0)
        assert dump_topology(g) == "4 1.25 -3.5 7.5 1\n"

    def test_comments_and_blanks_skipped(self):
        text = "# field dump\n\n0 0 0 5 0\n1 1 0 5 1  # spare\n"
        g = parse_topology(text, radio_range=2.0)
        assert set(g.nodes) == {0, 1}
        assert g.nodes[1].is_redundant

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_topology("0 0 0 5 0\n1 1 0\n", radio_range=1.0)
