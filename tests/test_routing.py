import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from wsn_multipath import (
    LinkParams,
    Node,
    Route,
    StaleRouteError,
    TopologyGraph,
    UnrecoverableFailureError,
    build_routing_table,
    deploy_field,
    discover_disjoint_paths,
    estimate_path_params,
    replace_failed_node,
)
from wsn_multipath.routing import _shortest_hops


def graph_from(points, radio, spares=()):
    nodes = [Node(id=i, position=(float(x), float(y)), residual_energy=100.0,
                  is_redundant=i in spares)
             for i, (x, y) in points.items()]
    return TopologyGraph(nodes, radio_range=radio)


def diamond():
    # two 2-hop routes between 0 and 3, one through 1, one through 2
    return graph_from({0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0)}, radio=1.6)


class TestDiscovery:
    def test_diamond_two_routes(self):
        routes = discover_disjoint_paths(diamond(), 0, 3)
        assert [r.nodes for r in routes] == [(0, 1, 3), (0, 2, 3)]
        assert [r.path_id for r in routes] == [1, 2]

    def test_lowest_id_tiebreak(self):
        g = graph_from({0: (0, 0), 5: (1, 1), 4: (1, -1), 9: (2, 0)}, radio=1.6)
        routes = discover_disjoint_paths(g, 0, 9)
        # both interiors give 2 hops; id 4 must come out first
        assert routes[0].nodes == (0, 4, 9)

    def test_direct_edge_used_once(self):
        g = graph_from({0: (0, 0), 1: (0.5, 0.8), 2: (1, 0)}, radio=1.1)
        routes = discover_disjoint_paths(g, 0, 2)
        assert routes[0].nodes == (0, 2)
        assert routes[1].nodes == (0, 1, 2)
        assert len(routes) == 2

    def test_hop_counts_nondecreasing(self):
        g = deploy_field((60.0, 60.0), 60, seed=5, radio_range=15.0,
                         redundant_fraction=0.0)
        routes = discover_disjoint_paths(g, 0, 59, max_paths=6)
        hops = [r.hops for r in routes]
        assert hops == sorted(hops)

    def test_interiors_disjoint(self):
        g = deploy_field((60.0, 60.0), 80, seed=9, radio_range=14.0,
                         redundant_fraction=0.0)
        routes = discover_disjoint_paths(g, 0, 79, max_paths=8)
        seen = set()
        for r in routes:
            assert not (set(r.interior) & seen)
            seen.update(r.interior)

    def test_redundant_nodes_held_back(self):
        g = graph_from({0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0)},
                       radio=1.6, spares={1})
        routes = discover_disjoint_paths(g, 0, 3)
        assert [r.nodes for r in routes] == [(0, 2, 3)]

    def test_count_bounded_by_source_degree(self):
        g = deploy_field((40.0, 40.0), 60, seed=2, radio_range=12.0,
                         redundant_fraction=0.0)
        routes = discover_disjoint_paths(g, 0, 59, max_paths=10)
        assert len(routes) <= len(g.neighbors(0))

    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            discover_disjoint_paths(diamond(), 2, 2)

    def test_max_paths_cap(self):
        routes = discover_disjoint_paths(diamond(), 0, 3, max_paths=1)
        assert len(routes) == 1


def heap_shortest_hops(g, source, sink, removed, skip_direct):
    """Dijkstra over unit weights, popping (distance, id) off a heap: the
    reference the breadth-first search must reproduce exactly."""
    dist = {source: 0}
    parent = {}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == sink:
            break
        for v in g.neighbors(u):
            if v in removed and v != sink:
                continue
            if u == source and v == sink and skip_direct:
                continue
            if d + 1 < dist.get(v, math.inf):
                dist[v] = d + 1
                parent[v] = u
                heapq.heappush(heap, (d + 1, v))
    if sink not in dist:
        return None
    path = [sink]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class RecordingGraph:
    """Forwards ``neighbors`` to a graph and records whom it was asked about."""

    def __init__(self, g):
        self.g = g
        self.asked = []

    def neighbors(self, u):
        self.asked.append(u)
        return self.g.neighbors(u)


def assert_matches_heap_search(g, source, sink, removed, skip_direct):
    bfs, heap = RecordingGraph(g), RecordingGraph(g)
    got = _shortest_hops(bfs, source, sink, removed, skip_direct)
    want = heap_shortest_hops(heap, source, sink, removed, skip_direct)
    assert got == want
    # the same nodes expanded in the same order, so the search costs the same
    # number of neighbour lookups
    assert bfs.asked == heap.asked
    return got


class TestShortestHopsOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=2, max_size=40),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.data(), st.booleans())
    def test_lattice_fields(self, points, radio, data, skip_direct):
        # integer points give many equal-hop alternatives to break by id
        g = graph_from(dict(enumerate(points)), radio)
        ids = st.integers(0, len(points) - 1)
        source, sink = data.draw(ids), data.draw(ids)
        removed = data.draw(st.sets(ids))
        assert_matches_heap_search(g, source, sink, removed, skip_direct)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 10**6),
           st.sampled_from([8.0, 12.0, 20.0]), st.data(), st.booleans())
    def test_random_fields(self, count, seed, radio, data, skip_direct):
        g = deploy_field((100.0, 100.0), count, seed=seed, radio_range=radio)
        ids = st.integers(0, count - 1)
        source, sink = data.draw(ids), data.draw(ids)
        removed = data.draw(st.sets(ids, max_size=count // 2))
        assert_matches_heap_search(g, source, sink, removed, skip_direct)

    def test_direct_edge(self):
        # source 0 and sink 5 are in range of each other, and each of 2 and
        # 3 links them in two hops; 2 and 3 are out of range of each other
        g = graph_from({0: (0, 0), 5: (1, 0), 3: (0.5, 0.8), 2: (0.5, -0.8)},
                       radio=1.2)
        assert g.has_edge(0, 5)
        cases = [(set(), False, [0, 5]), ({2, 3}, False, [0, 5]),
                 (set(), True, [0, 2, 5]), ({2}, True, [0, 3, 5]),
                 ({2, 3}, True, None), ({5}, True, [0, 2, 5])]
        for removed, skip_direct, want in cases:
            assert assert_matches_heap_search(g, 0, 5, removed, skip_direct) == want


class TestAgainstFlowOracle:
    def test_greedy_never_beats_menger(self):
        # exact vertex-disjoint maximum via max-flow on small fields
        for seed in range(25):
            g = deploy_field((30.0, 30.0), 11, seed=seed, radio_range=12.0,
                             redundant_fraction=0.0)
            G = nx.Graph()
            G.add_nodes_from(g.nodes)
            for u in g.nodes:
                for v in g.neighbors(u):
                    G.add_edge(u, v)
            s, t = 0, 10
            ours = len(discover_disjoint_paths(g, s, t, max_paths=99))
            if not nx.has_path(G, s, t):
                assert ours == 0
                continue
            best = nx.connectivity.local_node_connectivity(G, s, t)
            assert ours <= best


class TestEstimate:
    def test_analytic_kilobit(self):
        g = graph_from({0: (0, 0), 1: (50, 0), 2: (100, 0)}, radio=60.0)
        r = Route(path_id=1, nodes=(0, 1, 2))
        prof = estimate_path_params(g, r, LinkParams(b=50000.0))
        assert prof.tau == 0.02
        assert prof.H == 2
        assert prof.T_dist == 100.0

    def test_dead_node_raises_stale(self):
        g = graph_from({0: (0, 0), 1: (50, 0), 2: (100, 0)}, radio=60.0)
        g.fail_node(1)
        r = Route(path_id=1, nodes=(0, 1, 2))
        with pytest.raises(StaleRouteError):
            estimate_path_params(g, r, LinkParams(b=50000.0))


class TestRoutingTable:
    def test_build_fills_profiles(self):
        g = diamond()
        table = build_routing_table(g, 0, [3], LinkParams(b=50000.0))
        routes = table.routes_for(3)
        assert len(routes) == 2
        assert all(r.profile is not None for r in routes)
        assert table.version == g.version

    def test_self_destination_skipped(self):
        table = build_routing_table(diamond(), 0, [0, 3], LinkParams(b=50000.0))
        assert table.destinations() == [3]

    def test_unreachable_destination_absent(self):
        g = graph_from({0: (0, 0), 1: (1, 0), 2: (50, 50)}, radio=1.5)
        table = build_routing_table(g, 0, [1, 2], LinkParams(b=50000.0))
        assert table.destinations() == [1]

    def test_stale_after_mutation(self):
        g = diamond()
        table = build_routing_table(g, 0, [3], LinkParams(b=50000.0))
        g.fail_node(1)
        with pytest.raises(StaleRouteError):
            table.check_fresh(g)

    def test_format_routes(self):
        table = build_routing_table(diamond(), 0, [3], LinkParams(b=50000.0))
        assert table.format_routes(3) == "1: 0,1,3\n2: 0,2,3\n"


class TestReplacement:
    def replacement_setup(self):
        return graph_from({0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0),
                           8: (1.2, 1.2), 9: (4, 4)},
                          radio=1.8, spares={8, 9})

    def test_nearest_spare_takes_slot(self):
        g = self.replacement_setup()
        g.fail_node(1)
        spare = replace_failed_node(g, 1)
        assert spare == 8
        assert not g.nodes[8].is_redundant

    def test_near_reference_changes_choice(self):
        g = self.replacement_setup()
        spare = replace_failed_node(g, 1, near=3)
        # node 9 is closer to nothing useful; 8 still wins from node 3
        assert spare == 8

    def test_exhausted_pool_raises(self):
        g = self.replacement_setup()
        g.fail_node(8)
        g.fail_node(9)
        with pytest.raises(UnrecoverableFailureError):
            replace_failed_node(g, 1)

    def test_on_route_nodes_not_borrowed(self):
        g = self.replacement_setup()
        # a still-redundant node the caller's routes use is skipped
        assert replace_failed_node(g.copy(), 1, exclude=frozenset({8})) == 9
        # spare 8 already promoted onto a route: only 9 remains
        replace_failed_node(g, 1)
        spare = replace_failed_node(g, 2)
        assert spare == 9
