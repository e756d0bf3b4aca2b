import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from wsn_multipath import (
    TopologyGraph,
    deploy_field,
    topology,
)


def grid_graph(radio=1.5, spares=()):
    # 0 -- 1 -- 2 on a line, unit spacing
    return TopologyGraph([(float(i), 0.0) for i in range(3)], radio, 10.0,
                         spares=spares)


class TestGraphBasics:
    def test_edges_respect_range(self):
        g = grid_graph(radio=1.5)
        assert g.neighbors(0) == [1]
        assert g.neighbors(1) == [0, 2]
        assert not g.has_edge(0, 2)

    def test_neighbors_sorted_ascending(self):
        g = TopologyGraph([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0)], 2.0, 1.0)
        assert g.neighbors(2) == [0, 1, 3]

    def test_ids_are_positions_indices(self):
        g = TopologyGraph([(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)], 5.0, 2.5, spares=[2])
        assert len(g) == 3
        assert [i in g for i in (-1, 0, 2, 3)] == [False, True, True, False]
        assert g.position(1) == (3.0, 4.0) and g.distance(0, 2) == 10.0
        assert all(g.alive(i) and g.residual(i) == 2.5 for i in range(3))
        assert not g.alive(3)
        assert g.spares == {2}

    @pytest.mark.parametrize("node_id, member", [
        (2, True),
        (np.int64(2), True),
        (np.uint16(0), True),
        (np.intp(1), True),
        (1.0, False),
        (np.float64(1), False),
        ("1", False),
        (None, False),
        (3, False),
        (-1, False),
        (np.int64(3), False),
        (np.int64(-1), False),
    ])
    def test_membership_takes_integer_ids_in_range(self, node_id, member):
        # numpy's integer scalars are ids, as the graph's own arrays hand them out
        g = grid_graph()
        assert (node_id in g) is member
        assert g.alive(node_id) is member

    @pytest.mark.parametrize("spare", [-1, 3, 7])
    def test_spare_outside_the_graph_rejected(self, spare):
        with pytest.raises(ValueError, match=f"spare {spare} is not a node id"):
            TopologyGraph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.0, 1.0,
                          spares=(0, spare))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_position_rejected(self, bad, axis):
        position = [3.0, 4.0]
        position[axis] = bad
        positions = [(0.0, float(i)) for i in range(7)] + [tuple(position)]
        with pytest.raises(ValueError, match="node 7 has a non-finite position"):
            TopologyGraph(positions, 5.0, 1.0)

    def test_fail_node_bumps_version_and_drops_edges(self):
        g = grid_graph()
        v = g.version
        g.fail_node(1)
        assert g.version == v + 1
        assert not g.alive(1)
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
        g = TopologyGraph([(0.0, 0.0), (1.0483280999484756, 12.164259424505179)],
                          12.20934884225218, 1.0)
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
    ids = range(len(g))
    return (g.version,
            {i: (g.residual(i), g.alive(i), i in g.spares) for i in ids},
            {i: list(g.neighbors(i)) for i in ids})


class TestInPlaceEdits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=2, max_size=10),
           st.sampled_from([1.0, 3.0, 5.0, 7.5, 20.0]),
           st.lists(EDITS, max_size=12),
           st.sampled_from([(0, 0), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)]))
    def test_edits_match_a_fresh_build(self, each_builder, points, radio, edits,
                                       chain):
        # integer points put many pairs at exactly the range (3-4-5 triangles).
        # ``chain`` = (copies made, which graph of root, copy, copy of copy is
        # edited); every other graph of the chain must not see the edits
        depth, target = chain
        ids = range(len(points))
        for _ in each_builder():
            graphs = [TopologyGraph([(float(x), float(y)) for x, y in points], radio,
                                    1.0, spares=ids)]
            for _ in range(depth):
                graphs.append(graphs[-1].copy())
            g = graphs[target]
            others = [(h, graph_state(h)) for h in graphs if h is not g]
            dead: set[int] = set()
            cut: set[frozenset[int]] = set()
            nodes_want = {i: (1.0, True, True) for i in ids}

            def rebuilt():
                # a fresh graph of the surviving nodes, less the cut pairs
                up = [i for i in ids if i not in dead]
                fresh = TopologyGraph([g.position(i) for i in up], radio, 1.0)
                adj = {u: [up[c] for c in fresh.neighbors(r)] for r, u in enumerate(up)}
                return {u: [v for v in adj.get(u, []) if frozenset((u, v)) not in cut]
                        for u in ids}

            want = rebuilt()
            for op, *args in edits:
                if any(a not in g for a in args[:2 if op == "disable_link" else 1]):
                    continue
                before = g.version
                energy, alive, spare = nodes_want[args[0]]
                if op == "fail_node":
                    changed = args[0] not in dead
                    dead.add(args[0])
                    alive = False
                elif op == "disable_link":
                    changed = args[1] in want[args[0]]
                    cut.add(frozenset(args))
                elif op == "set_residual":
                    changed = False
                    energy = args[1]
                else:
                    changed = spare
                    spare = False
                nodes_want[args[0]] = (energy, alive, spare)
                getattr(g, op)(*args)
                assert g.version == before + changed
                want = rebuilt()
                for u in ids:
                    assert g.neighbors(u) == want[u]
                    assert (g.residual(u), g.alive(u), u in g.spares) == nodes_want[u]
                    for v in ids:
                        assert g.has_edge(u, v) == (v in g.neighbors(u))
                for h, state in others:
                    assert graph_state(h) == state


def pairwise_adjacency(positions, radio, alive=None):
    """The neighbour lists built pair by pair from the k-d tree's set output;
    ``alive`` says which nodes take part, all of them by default."""
    ids = [i for i in range(len(positions)) if alive is None or alive[i]]
    adj = {i: [] for i in range(len(positions))}
    if len(ids) > 1:
        pts = np.array([positions[i] for i in ids])
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
    """(points, radio), points as (x, y, alive).

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
    points = draw(st.lists(st.tuples(xy, st.booleans()), max_size=40))
    if kind in ("float", "row", "column") and len(points) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(points))))[:2]
        radio = math.dist(points[i][0], points[j][0]) or radio
    return [(x, y, up) for (x, y), up in points], radio


class TestAdjacencyBuild:
    @settings(max_examples=500, deadline=None)
    @given(layouts())
    @example(([], 5.0))
    @example(([(0.0, 0.0, True)], 5.0))
    @example(([(0.0, 0.0, True), (3.0, 4.0, True)], 5.0))
    @example(([(0.0, 0.0, True), (3.0, 4.0, False), (0.0, 5.0, True),
               (4.0, 3.0, True)], 5.0))
    @example(([(0.0, 0.0, True), (1e12, 0.0, True), (1e12 + 0.005, 0.0, True),
               (-1e12, 0.01, True)], 1e-2))
    # squares that underflow to 0 pass the range test for points 600 ranges apart
    @example(([(1.2169641316135087e-268, 0.0, True), (7.831658045683603e-266, 0.0, True),
               (0.0, 0.0, False)], 1.2169641316135087e-268))
    def test_matches_pairwise_build(self, each_builder, layout):
        # some nodes fail right after the graph is made
        points, radio = layout
        positions = [(x, y) for x, y, _ in points]
        want = pairwise_adjacency(positions, radio, [up for _, _, up in points])
        for _ in each_builder():
            g = TopologyGraph(positions, radio, 1.0)
            for i, (_, _, up) in enumerate(points):
                if not up:
                    g.fail_node(i)
            for i in range(len(g)):
                nbrs = g.neighbors(i)
                assert nbrs == want[i]
                assert all(type(v) is int for v in nbrs)
                assert all(a < b for a, b in zip(nbrs, nbrs[1:]))

    def test_builders_meet_at_the_threshold(self):
        # a graph of _PYTHON_NODES nodes is built in plain Python, one of a
        # node more by numpy; with that node failed, they agree on every
        # pair. Integer points put many pairs at exactly the range
        rng = random.Random(5)
        n = topology._PYTHON_NODES
        points = [(float(rng.randint(0, 40)), float(rng.randint(0, 40)))
                  for _ in range(n + 1)]
        small, large = TopologyGraph(points[:n], 5.0, 1.0), TopologyGraph(points, 5.0, 1.0)
        assert isinstance(small._indptr, memoryview)
        assert isinstance(large._indptr, np.ndarray)
        large.fail_node(n)
        ids = list(range(n))
        assert [small.neighbors(u) for u in ids] == [large.neighbors(u) for u in ids]
        assert all(small.has_edge(u, v) == large.has_edge(u, v) for u in ids for v in ids)
        assert links_by_id(small, ids) == links_by_id(large, ids)
        assert sum(map(len, (small.neighbors(u) for u in ids))) > n
        # plain floats from either form
        assert [type(c) for c in small.position(3) + large.position(3)] == [float] * 4
        assert small.position(3) == large.position(3) == points[3]

    def test_squares_past_the_float_range_build_silently(self, each_builder):
        # 257 points 1e152 apart on a line and a range of 1e154, whose square
        # is finite: pairs in adjacent cells, up to ~2e154 apart, square past
        # the float range to inf and fail the test, without numpy's overflow
        # warning
        points = [(i * 1e152, 1e154) for i in range(topology._PYTHON_NODES + 1)]
        rows = []
        for _ in each_builder():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = TopologyGraph(points, 1e154, 1.0)
            rows.append([g.neighbors(u) for u in range(len(g))])
        assert rows[0] == rows[1]
        assert 99 <= len(rows[0][0]) <= 101 and rows[0][0][0] == 1

    @pytest.mark.parametrize("count, side", [(1_500, 300.0), (50_000, 1732.0)])
    def test_deployed_field_matches_pairwise_build(self, count, side):
        g = deploy_field((side, side), count, seed=3, radio_range=24.0)
        want = pairwise_adjacency([g.position(i) for i in range(len(g))], 24.0)
        assert all(g.neighbors(i) == want[i] for i in range(len(g)))

    def test_copy_lists_stay_apart(self):
        # a cut or a failure in one graph never shows in another
        g = grid_graph()
        h = g.copy()
        h.disable_link(0, 1)
        assert g.neighbors(0) == [1] and g.neighbors(1) == [0, 2]
        g.fail_node(2)
        assert h.neighbors(1) == [2] and h.neighbors(2) == [1]
        assert h.neighbors(0) == [] and g.neighbors(1) == [0]
        # a list handed out is the caller's own
        g.neighbors(0).clear()
        assert g.neighbors(0) == [1]

    def test_copy_is_independent(self):
        g = grid_graph(spares=(2,))
        g.disable_link(1, 2)
        g.set_residual(0, 4.0)
        h = g.copy()
        assert (h.version, h.radio_range) == (g.version, g.radio_range)
        assert graph_state(h) == graph_state(g)
        h.fail_node(1)
        h.activate_spare(2)
        h.set_residual(0, 1.0)
        assert g.version == h.version - 2
        assert g.alive(1) and not h.alive(1)
        assert g.residual(0) == 4.0 and h.residual(0) == 1.0
        assert g.spares == {2} and h.spares == frozenset()
        assert g.neighbors(0) == [1] and g.neighbors(1) == [0]


def mixed_graph():
    # 1 -- 3 -- 0 -- 4 on a line, ids out of line order, and 2 in range of
    # 3 and 0 until it fails
    g = TopologyGraph([(2.0, 0.0), (0.0, 0.0), (1.5, 0.0), (1.0, 0.0), (3.0, 0.0)],
                      1.1, 1.0)
    g.fail_node(2)
    return g


def links_by_id(g, ids):
    src, dst = g.links_from(np.array(ids, dtype=np.intp))
    return sorted(zip(src.tolist(), dst.tolist()))


def links_by_neighbors(g, ids):
    return sorted((u, v) for u in ids for v in g.neighbors(u))


class TestRows:
    def test_rows_outlive_a_failure(self):
        # rows index the shared base, so a failure keeps its row and
        # empties its links instead
        g = mixed_graph()
        g.fail_node(0)
        assert len(g) == 5 and 0 in g
        assert links_by_id(g, [0]) == []

    def test_unknown_or_failed_has_no_links(self):
        g = mixed_graph()
        assert g.neighbors(2) == [] and g.neighbors(77) == []
        assert not g.has_edge(2, 3) and not g.has_edge(3, 2)

    def test_copy_shares_read_only_base(self, each_builder):
        for builder in each_builder():
            g = mixed_graph()
            h = g.copy()
            h.fail_node(3)
            for name in ("_pos", "_indptr", "_indices"):
                base = getattr(g, name)
                assert getattr(h, name) is base
                assert isinstance(base, memoryview) == (builder == "python")
                # numpy raises ValueError, a memoryview TypeError
                with pytest.raises((TypeError, ValueError), match="read-only"):
                    base[0] = base[0]
            assert g.neighbors(3) == [0, 1]


class TestLinksFrom:
    @pytest.mark.parametrize("edit", [
        [],
        [("neighbors", 3)],
        [("fail_node", 0)],
        [("disable_link", 1, 3)],
        [("neighbors", 4), ("disable_link", 3, 0), ("fail_node", 4)],
    ])
    def test_agrees_with_neighbors(self, edit):
        g = mixed_graph()
        for op, *args in edit:
            getattr(g, op)(*args)
        for ids in ([1], [3, 0], [4, 1, 0, 3], [2, 3]):
            assert links_by_id(g, ids) == links_by_neighbors(g, ids)

    def test_no_rows_no_links(self):
        g = mixed_graph()
        g.disable_link(3, 0)
        src, dst = g.links_from(np.array([], dtype=np.intp))
        assert len(src) == len(dst) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=20),
           st.sampled_from([1.0, 2.0, 3.0]), st.lists(EDITS, max_size=10),
           st.integers(0, 10), st.lists(st.integers(0, 19), unique=True))
    # a cut whose end later fails, the cut made in the copy
    @example([(0, 0), (1, 0), (2, 0), (1, 1)], 1.0,
             [("disable_link", 0, 1), ("fail_node", 1)], 0, [0, 1, 2, 3])
    def test_edited_graphs_agree_with_neighbors(self, each_builder, points, radio,
                                                edits, copy_at, ids):
        # the gather over many rows and has_edge read the same adjacency as
        # neighbors after any mix of failures, cuts and lookups, on a graph
        # or a copy made before edit ``copy_at``
        ids = [i for i in ids if i < len(points)]
        for _ in each_builder():
            g = TopologyGraph([(float(x), float(y)) for x, y in points], radio, 1.0)
            for k, (op, *args) in enumerate(edits):
                if k == copy_at:
                    g = g.copy()
                if args[0] in g and (op != "disable_link" or args[1] in g):
                    getattr(g, op)(*args)
            assert links_by_id(g, ids) == links_by_neighbors(g, ids)
            for u in ids:
                assert all(g.has_edge(u, v) == (v in g.neighbors(u)) for v in ids)


class TestDeploy:
    @staticmethod
    def layout(g):
        return [g.position(i) for i in range(len(g))], g.spares

    def test_deterministic_for_seed(self):
        a = deploy_field((100.0, 100.0), 50, seed=7)
        b = deploy_field((100.0, 100.0), 50, seed=7)
        assert self.layout(a) == self.layout(b)

    def test_seed_changes_layout(self):
        a = deploy_field((100.0, 100.0), 50, seed=7)
        b = deploy_field((100.0, 100.0), 50, seed=8)
        assert self.layout(a) != self.layout(b)

    def test_positions_inside_area(self):
        g = deploy_field((30.0, 60.0), 200, seed=1)
        assert len(g) == 200
        for x, y in self.layout(g)[0]:
            assert 0.0 <= x <= 30.0
            assert 0.0 <= y <= 60.0

    def test_redundant_fraction(self):
        g = deploy_field((100.0, 100.0), 200, seed=3, redundant_fraction=0.1)
        assert len(g.spares) == 20

    def test_initial_energy_applied(self):
        g = deploy_field((10.0, 10.0), 5, seed=0, initial_energy=42.0)
        assert all(g.residual(i) == 42.0 for i in range(len(g)))
