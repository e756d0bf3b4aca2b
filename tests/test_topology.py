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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_position_rejected(self, bad, axis):
        position = [3.0, 4.0]
        position[axis] = bad
        nodes = [Node(id=0, position=(0.0, 0.0), residual_energy=1.0),
                 Node(id=7, position=tuple(position), residual_energy=1.0)]
        with pytest.raises(ValueError, match="node 7 has a non-finite position"):
            TopologyGraph(nodes, radio_range=5.0)

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
        # the squared-distance range test once disagreed
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
    st.tuples(st.just("set_residual"), st.integers(0, 9),
              st.floats(0.0, 10.0, allow_nan=False)),
)


def graph_state(g: TopologyGraph):
    """Everything a graph method can write, copied out of the graph."""
    return (g.version,
            {i: (n.residual_energy, n.status, n.is_redundant)
             for i, n in g.nodes.items()},
            {i: list(g.neighbors(i)) for i in g.nodes})


class TestInPlaceEdits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=2, max_size=10),
           st.sampled_from([1.0, 3.0, 5.0, 7.5, 20.0]),
           st.lists(EDITS, max_size=12),
           st.sampled_from([(0, 0), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)]))
    def test_edits_match_a_fresh_build(self, points, radio, edits, chain):
        # integer points put many pairs at exactly the range (3-4-5 triangles).
        # ``chain`` = (copies made, which graph of root, copy, copy of copy is
        # edited); every other graph of the chain must not see the edits
        depth, target = chain
        ids = range(len(points))
        graphs = [TopologyGraph([Node(id=i, position=(float(x), float(y)),
                                      residual_energy=1.0, is_redundant=True)
                                 for i, (x, y) in enumerate(points)],
                                radio_range=radio)]
        for _ in range(depth):
            graphs.append(graphs[-1].copy())
        g = graphs[target]
        others = [(h, graph_state(h)) for h in graphs if h is not g]
        dead: set[int] = set()
        cut: set[frozenset[int]] = set()
        nodes_want = {i: (1.0, ALIVE, True) for i in ids}

        def rebuilt():
            # a fresh graph of the surviving nodes, less the cut pairs
            fresh = TopologyGraph([Node(id=i, position=g.nodes[i].position,
                                        residual_energy=1.0)
                                   for i in ids if i not in dead], radio_range=radio)
            return {u: [v for v in fresh.neighbors(u) if frozenset((u, v)) not in cut]
                    for u in ids}

        want = rebuilt()
        for op, *args in edits:
            if any(a not in g for a in args[:2 if op == "disable_link" else 1]):
                continue
            before = g.version
            energy, status, spare = nodes_want[args[0]]
            if op == "fail_node":
                changed = args[0] not in dead
                dead.add(args[0])
                status = FAILED
            elif op == "disable_link":
                changed = args[1] in want[args[0]]
                cut.add(frozenset(args))
            elif op == "set_residual":
                changed = False
                energy = args[1]
            else:
                changed = True
                spare = False
            nodes_want[args[0]] = (energy, status, spare)
            getattr(g, op)(*args)
            assert g.version == before + changed
            want = rebuilt()
            for u in ids:
                assert g.neighbors(u) == want[u]
                n = g.nodes[u]
                assert (n.residual_energy, n.status, n.is_redundant) == nodes_want[u]
                for v in ids:
                    assert g.has_edge(u, v) == (v in g.neighbors(u))
            for h, state in others:
                assert graph_state(h) == state


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


_INTS = st.integers(0, 12).map(float)
_FLOATS = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)


@st.composite
def layouts(draw):
    """(points, radio), points as (x, y, alive, id) with sparse unordered ids.

    Integer points put many pairs at exactly the range (3-4-5 triangles);
    float points may take the range from one of their own pairs' distances.
    Also duplicate positions, one row, one column, and points 1e12 apart with
    a range of 1e-2, which is too wide for cells as small as the range.
    """
    kind = draw(st.sampled_from(["integer", "float", "duplicate", "row", "column",
                                 "wide"]))
    radio = draw(st.sampled_from([0.5, 1.0, 3.0, 5.0, 7.5, 20.0]))
    if kind == "integer":
        xy = st.tuples(_INTS, _INTS)
    elif kind == "float":
        xy = st.tuples(_FLOATS, _FLOATS)
    elif kind == "duplicate":
        xy = st.sampled_from(draw(st.lists(st.tuples(_FLOATS, _FLOATS),
                                           min_size=1, max_size=4)))
    elif kind == "row":
        xy = st.tuples(_FLOATS, st.just(draw(_FLOATS)))
    elif kind == "column":
        xy = st.tuples(st.just(draw(_FLOATS)), _FLOATS)
    else:
        far = st.integers(-3, 3).map(lambda k: k * 1e12)
        near = st.floats(0.0, 0.02, allow_nan=False)
        xy = st.tuples(st.builds(float.__add__, far, near), near)
        radio = 1e-2
    points = draw(st.lists(st.tuples(xy, st.booleans(), st.integers(0, 10**6)),
                           max_size=40, unique_by=lambda p: p[2]))
    if kind in ("float", "row", "column") and len(points) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(points))))[:2]
        radio = math.dist(points[i][0], points[j][0]) or radio
    return [(x, y, up, i) for (x, y), up, i in points], radio


class TestAdjacencyBuild:
    @settings(max_examples=500, deadline=None)
    @given(layouts())
    @example(([], 5.0))
    @example(([(0.0, 0.0, True, 7)], 5.0))
    @example(([(0.0, 0.0, True, 9), (3.0, 4.0, True, 2)], 5.0))
    @example(([(0.0, 0.0, True, 9), (3.0, 4.0, False, 2), (0.0, 5.0, True, 4),
               (4.0, 3.0, True, 40)], 5.0))
    @example(([(0.0, 0.0, True, 1), (1e12, 0.0, True, 2), (1e12 + 0.005, 0.0, True, 3),
               (-1e12, 0.01, True, 4)], 1e-2))
    def test_matches_pairwise_build(self, layout):
        # some nodes are already failed when the graph is made
        points, radio = layout
        nodes = [Node(id=i, position=(x, y), residual_energy=1.0,
                      status=ALIVE if up else FAILED) for x, y, up, i in points]
        g = TopologyGraph(nodes, radio_range=radio)
        want = pairwise_adjacency(nodes, radio)
        for n in nodes:
            nbrs = g.neighbors(n.id)
            assert nbrs == want.get(n.id, [])
            assert all(type(v) is int for v in nbrs)
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))

    @pytest.mark.parametrize("count, side", [(1_500, 300.0), (50_000, 1732.0)])
    def test_deployed_field_matches_pairwise_build(self, count, side):
        g = deploy_field((side, side), count, seed=3, radio_range=24.0)
        want = pairwise_adjacency(list(g.nodes.values()), 24.0)
        assert all(g.neighbors(i) == want[i] for i in g.nodes)

    def test_copy_is_independent(self):
        g = grid_graph()
        g.disable_link(1, 2)
        g.set_residual(0, 4.0)
        h = g.copy()
        assert (h.version, h.radio_range) == (g.version, g.radio_range)
        assert h.nodes == g.nodes
        assert [h.neighbors(i) for i in range(3)] == [g.neighbors(i) for i in range(3)]
        h.fail_node(1)
        h.activate_spare(2)
        h.set_residual(0, 1.0)
        assert g.version == h.version - 2
        assert g.nodes[1].alive
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column, name", [(1, "x"), (2, "y"), (3, "energy")])
    def test_non_finite_value_reports_line(self, bad, column, name):
        fields = ["4", "1.0", "2.0", "10.0", "0"]
        fields[column] = bad
        text = "0 0 0 10 0\n# spare below\n" + " ".join(fields) + "\n"
        with pytest.raises(ValueError, match=f"line 3: {name} must be finite"):
            parse_topology(text, radio_range=5.0)
