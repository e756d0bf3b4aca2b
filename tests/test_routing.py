import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from wsn_multipath import (
    LinkParams,
    Route,
    TopologyGraph,
    build_network,
    build_routing_table,
    deploy_field,
    discover_disjoint_paths,
    estimate_path_params,
    parse_scenario,
)
from wsn_multipath.routing import _shortest_hops


def graph_from(points, radio, spares=()):
    # node i at points[i]
    return TopologyGraph([(float(x), float(y)) for x, y in points], radio, 100.0,
                         spares=spares)


def diamond():
    # two 2-hop routes between 0 and 3, one through 1, one through 2
    return graph_from([(0, 0), (1, 1), (1, -1), (2, 0)], radio=1.6)


class TestDiscovery:
    def test_diamond_two_routes(self):
        routes = discover_disjoint_paths(diamond(), 0, 3)
        assert [r.nodes for r in routes] == [(0, 1, 3), (0, 2, 3)]
        assert [r.path_id for r in routes] == [1, 2]

    def test_lowest_id_tiebreak(self):
        g = graph_from([(0, 0), (2, 0), (1, 1), (1, -1)], radio=1.6)
        routes = discover_disjoint_paths(g, 0, 1)
        # both interiors give 2 hops; id 2 must come out first
        assert routes[0].nodes == (0, 2, 1)

    def test_direct_edge_used_once(self):
        g = graph_from([(0, 0), (0.5, 0.8), (1, 0)], radio=1.1)
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
        g = graph_from([(0, 0), (1, 1), (1, -1), (2, 0)], radio=1.6, spares={1})
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


def assert_matches_heap_search(g, source, sink, removed, skip_direct):
    got = _shortest_hops(g, source, sink, removed, skip_direct)
    want = heap_shortest_hops(g, source, sink, removed, skip_direct)
    assert got == want
    return got


class TestShortestHopsOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=2, max_size=40),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.data(), st.booleans())
    def test_lattice_fields(self, each_builder, points, radio, data, skip_direct):
        # integer points give many equal-hop alternatives to break by id
        ids = st.integers(0, len(points) - 1)
        source, sink = data.draw(ids), data.draw(ids)
        removed = data.draw(st.sets(ids))
        for _ in each_builder():
            g = graph_from(points, radio)
            assert_matches_heap_search(g, source, sink, removed, skip_direct)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 10**6),
           st.sampled_from([8.0, 12.0, 20.0]), st.data(), st.booleans())
    def test_random_fields(self, each_builder, count, seed, radio, data, skip_direct):
        ids = st.integers(0, count - 1)
        source, sink = data.draw(ids), data.draw(ids)
        removed = data.draw(st.sets(ids, max_size=count // 2))
        for _ in each_builder():
            g = deploy_field((100.0, 100.0), count, seed=seed, radio_range=radio)
            assert_matches_heap_search(g, source, sink, removed, skip_direct)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=2, max_size=30),
           st.sampled_from([1.5, 2.0, 3.0]), st.data(), st.booleans())
    def test_mutated_graphs(self, each_builder, points, radio, data, skip_direct):
        # failures and link cuts write lists that override the base rows, on
        # the graph and on a copy; lookups make lists equal to their rows
        ids = st.integers(0, len(points) - 1)
        edits = data.draw(st.lists(st.one_of(
            st.tuples(st.just("fail_node"), ids),
            st.tuples(st.just("disable_link"), ids, ids),
            st.tuples(st.just("neighbors"), ids)), max_size=12))
        copy_at = data.draw(st.integers(0, len(edits) + 1))
        searches = [(data.draw(ids), data.draw(ids),
                     data.draw(st.sets(ids, max_size=len(points) // 2)))
                    for _ in range(1 + (copy_at < len(edits)))]
        for _ in each_builder():
            graphs = [graph_from(points, radio)]
            for k, (op, *args) in enumerate(edits):
                if k == copy_at:
                    graphs.append(graphs[-1].copy())
                getattr(graphs[-1], op)(*args)
            for h, (source, sink, removed) in zip(graphs, searches, strict=True):
                assert_matches_heap_search(h, source, sink, removed, skip_direct)

    def test_direct_edge(self, each_builder):
        # source 0 and sink 3 are in range of each other, and each of 1 and
        # 2 links them in two hops; 1 and 2 are out of range of each other
        cases = [(set(), False, [0, 3]), ({1, 2}, False, [0, 3]),
                 (set(), True, [0, 1, 3]), ({1}, True, [0, 2, 3]),
                 ({1, 2}, True, None), ({3}, True, [0, 1, 3])]
        for _ in each_builder():
            g = graph_from([(0, 0), (0.5, -0.8), (0.5, 0.8), (1, 0)], radio=1.2)
            assert g.has_edge(0, 3)
            for removed, skip_direct, want in cases:
                assert assert_matches_heap_search(g, 0, 3, removed, skip_direct) == want


class TestAgainstFlowOracle:
    def test_greedy_never_beats_menger(self):
        # exact vertex-disjoint maximum via max-flow on small fields
        for seed in range(25):
            g = deploy_field((30.0, 30.0), 11, seed=seed, radio_range=12.0,
                             redundant_fraction=0.0)
            G = nx.Graph()
            G.add_nodes_from(range(len(g)))
            for u in range(len(g)):
                for v in g.neighbors(u):
                    G.add_edge(u, v)
            s, t = 0, 10
            ours = len(discover_disjoint_paths(g, s, t, max_paths=99))
            if not nx.has_path(G, s, t):
                assert ours == 0
                continue
            best = nx.connectivity.local_node_connectivity(G, s, t)
            assert ours <= best


FIELD_50K = """
field.nodes 50000
field.area 1732 1732
field.radio_range 24
field.seed 3
field.source 0
field.sink 1
packets 100
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
"""

# the routes found on this field by the per-node search that the frontier
# search replaced; it must find the same ones
FIELD_50K_ROUTES = (
    "1: 0,19036,20037,9212,11339,25317,23332,8487,29918,2293,13105,30050,"
    "7961,38652,11354,47891,18275,12872,10432,8440,17728,4357,6617,18280,"
    "46637,21272,3287,7861,45640,11629,6335,35108,13648,1146,145,1\n"
    "2: 0,19701,33077,21884,8597,13761,10600,36725,10144,45961,377,6575,"
    "9985,33844,24479,36451,33947,10243,38729,35214,35514,37017,48022,"
    "14593,385,5822,14922,30754,7909,24040,11545,34,27383,2223,9863,1\n"
    "3: 0,38686,46233,33395,19533,2265,33031,21755,39855,35670,7855,35525,"
    "31277,25615,29330,27758,21134,39128,33525,30936,29737,13272,6344,"
    "39822,47967,598,8486,5053,3790,42947,43632,21129,45789,2689,17308,1\n"
    "4: 0,1167,8449,46768,32507,3709,6690,1271,1644,1526,18628,37793,30148,"
    "47660,25545,4987,38715,22707,15627,8763,4939,18044,4767,41554,35819,"
    "27817,17066,16460,4223,32604,45297,45929,5651,31133,47085,23130,1\n"
    "5: 0,45984,7711,1033,28026,8480,14766,17559,1646,26588,648,8966,18576,"
    "26146,47153,39752,21480,9125,29782,14623,12620,46910,25503,16942,"
    "33567,25986,10550,12427,22963,29576,7524,3803,28126,5659,14579,25676,"
    "1\n"
)


@pytest.fixture(scope="module")
def field_50k():
    return build_network(parse_scenario(FIELD_50K))


class TestLargeField:
    def test_routes_pinned(self, field_50k):
        g, table = field_50k
        assert table.format_routes() == FIELD_50K_ROUTES

    def test_discovery_leaves_the_graph_as_it_was(self, field_50k):
        # discovery only reads the graph: searching again finds the same
        # routes and leaves every node's state and links as they were
        g, table = field_50k
        ids = range(len(g))

        def view():
            return (g.version, g.spares,
                    [(g.alive(i), g.residual(i), g.neighbors(i)) for i in ids])

        before = view()
        routes = discover_disjoint_paths(g, table.source, table.sink)
        assert [r.nodes for r in routes] == [r.nodes for r in table.routes]
        assert view() == before
        h = g.copy()
        assert all(h.has_edge(u, v) for r in table.routes
                   for u, v in zip(r.nodes, r.nodes[1:]))


class TestEstimate:
    def test_analytic_kilobit(self):
        g = graph_from([(0, 0), (50, 0), (100, 0)], radio=60.0)
        r = Route(path_id=1, nodes=(0, 1, 2))
        prof = estimate_path_params(g, r, LinkParams(b=50000.0))
        assert prof.tau == 0.02
        assert prof.H == 2
        assert prof.T_dist == 100.0

    def test_dead_node_raises(self):
        g = graph_from([(0, 0), (50, 0), (100, 0)], radio=60.0)
        g.fail_node(1)
        r = Route(path_id=1, nodes=(0, 1, 2))
        with pytest.raises(ValueError, match="dead node 1"):
            estimate_path_params(g, r, LinkParams(b=50000.0))


class TestRoutingTable:
    def test_build_fills_profiles(self):
        g = diamond()
        table = build_routing_table(g, 0, 3, LinkParams(b=50000.0))
        assert (table.source, table.sink) == (0, 3)
        assert len(table.routes) == 2
        assert all(r.profile is not None for r in table.routes)

    def test_self_sink_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            build_routing_table(diamond(), 0, 0, LinkParams(b=50000.0))

    def test_unreachable_sink_no_routes(self):
        g = graph_from([(0, 0), (1, 0), (50, 50)], radio=1.5)
        table = build_routing_table(g, 0, 2, LinkParams(b=50000.0))
        assert table.routes == ()
        assert table.format_routes() == ""

    def test_format_routes(self):
        table = build_routing_table(diamond(), 0, 3, LinkParams(b=50000.0))
        assert table.format_routes() == "1: 0,1,3\n2: 0,2,3\n"
        # the one-sink view bench/tracer.py reads
        assert table.entries == {3: list(table.routes)}

