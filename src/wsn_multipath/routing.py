"""Node-disjoint route discovery and the routing table.

Routes are found greedily: repeat a hop-count shortest-path search, record the
result, delete its interior nodes from the working graph, and search again
until the sink becomes unreachable. The direct source-sink edge (if the two
are in radio range) may serve as at most one single-hop route. All tie-breaks
are by lowest node id, so discovery is fully deterministic.

The search is a level-synchronous frontier BFS over the graph's CSR rows,
which are indexed by node id (Beamer et al., "Direction-optimizing
breadth-first search", SC 2012): numpy gathers every link out of a hop level
at once through ``TopologyGraph.links_from``, so no Python code runs per
node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import LinkParams, PathProfile, per_hop_delay
from .topology import TopologyGraph

__all__ = [
    "Route",
    "RoutingTable",
    "discover_disjoint_paths",
    "estimate_path_params",
    "build_routing_table",
]


@dataclass(frozen=True)
class Route:
    path_id: int
    nodes: tuple[int, ...]
    profile: PathProfile | None = None

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError(f"route needs at least source and sink, got {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"route revisits a node: {self.nodes}")

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def sink(self) -> int:
        return self.nodes[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.nodes[1:-1]


@dataclass(frozen=True)
class RoutingTable:
    """The disjoint routes from ``source`` to ``sink``, shortest first."""

    source: int
    sink: int
    routes: tuple[Route, ...]

    @property
    def entries(self) -> dict[int, list[Route]]:
        # only reader: bench/tracer.py's on_table, run by CI's traced benchmark step
        return {self.sink: list(self.routes)}

    def format_routes(self) -> str:
        lines = [f"{r.path_id}: {','.join(str(n) for n in r.nodes)}" for r in self.routes]
        return "\n".join(lines) + ("\n" if lines else "")


def _shortest_hops(g: TopologyGraph, source: int, sink: int,
                   removed: set[int], skip_direct: bool) -> list[int] | None:
    """Min-hop path avoiding ``removed`` interiors; lowest-id tie-breaks.

    Breadth-first over the graph's rows, one hop level at a time: each level
    gathers every link out of the frontier at once, drops the nodes already
    seen, and gives each new node its lowest-id frontier parent, so the
    returned path is the lexicographically smallest among min-hop paths.
    """
    if source == sink:
        return [source]
    if source not in g or sink not in g:
        return None
    import numpy as np

    n = len(g)
    seen = np.zeros(n, dtype=bool)      # nodes no expansion may enter
    seen[list(removed - {sink})] = True
    seen[source] = True
    parent = np.full(n, n)
    frontier = np.array([source])
    while len(frontier):
        src, dst = g.links_from(frontier)
        fresh = ~seen[dst]
        if skip_direct and frontier[0] == source:    # the source's link to the sink
            fresh &= dst != sink
        src, dst = src[fresh], dst[fresh]
        np.minimum.at(parent, dst, src)
        seen[dst] = True
        if seen[sink]:
            path = [sink]
            while path[-1] != source:
                path.append(int(parent[path[-1]]))
            return path[::-1]
        level = np.zeros(n, dtype=bool)
        level[dst] = True
        frontier = np.flatnonzero(level)
    return None


def discover_disjoint_paths(g: TopologyGraph, source: int, sink: int,
                            max_paths: int = 5) -> list[Route]:
    """Greedy node-disjoint routes from source to sink, shortest first.

    Redundant nodes are held back as the replacement pool and never appear
    on an initial route.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    for nid in (source, sink):
        if not g.alive(nid):
            raise ValueError(f"node {nid} is not an alive node of the topology")
    removed = set(g.spares) - {source, sink}
    routes: list[Route] = []
    direct_used = False
    while len(routes) < max_paths:
        path = _shortest_hops(g, source, sink, removed, skip_direct=direct_used)
        if path is None:
            break
        if len(path) == 2:
            direct_used = True
        routes.append(Route(path_id=len(routes) + 1, nodes=tuple(path)))
        removed.update(path[1:-1])
    return routes


def estimate_path_params(g: TopologyGraph, route: Route, link: LinkParams,
                         packet_bits: float = 1000.0) -> PathProfile:
    """Per-hop delay and end-to-end distance for one route.

    tau comes from the nominal link parameters (bits/rate + latencies).
    """
    for nid in route.nodes:
        if not g.alive(nid):
            raise ValueError(f"route {route.path_id} references dead node {nid}")
    t_dist = g.distance(route.source, route.sink)
    if t_dist <= 0:
        raise ValueError("source and sink positions coincide; no path distance")
    return PathProfile(path_id=route.path_id, H=route.hops,
                       tau=per_hop_delay(packet_bits, link), T_dist=t_dist)


def build_routing_table(g: TopologyGraph, source: int, sink: int,
                        link: LinkParams, max_paths: int = 5,
                        packet_bits: float = 1000.0) -> RoutingTable:
    """Discover the routes from source to sink and their parameter profiles.

    An unreachable sink gives a table with no routes; a sink equal to the
    source is rejected.
    """
    routes = discover_disjoint_paths(g, source, sink, max_paths=max_paths)
    return RoutingTable(source, sink, tuple(
        replace(r, profile=estimate_path_params(g, r, link, packet_bits=packet_bits))
        for r in routes))

