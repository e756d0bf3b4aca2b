"""Node-disjoint route discovery and routing tables.

Routes are found greedily: repeat a hop-count shortest-path search, record the
result, delete its interior nodes from the working graph, and search again
until the sink becomes unreachable. The direct source-sink edge (if the two
are in radio range) may serve as at most one single-hop route. All tie-breaks
are by lowest node id, so discovery is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .model import EnergyParams, LinkParams, PathProfile, per_hop_delay
from .topology import TopologyGraph, UnrecoverableFailureError

__all__ = [
    "Route",
    "RoutingTable",
    "StaleRouteError",
    "discover_disjoint_paths",
    "estimate_path_params",
    "build_routing_table",
    "replace_failed_node",
]


class StaleRouteError(RuntimeError):
    """A route references a node that is no longer alive in the topology."""


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


@dataclass
class RoutingTable:
    source: int
    entries: dict[int, list[Route]] = field(default_factory=dict)
    version: int = 0

    def destinations(self) -> list[int]:
        return sorted(self.entries)

    def routes_for(self, destination: int) -> list[Route]:
        return self.entries.get(destination, [])

    def single_destination(self) -> int:
        dests = self.destinations()
        if len(dests) != 1:
            raise ValueError(f"expected exactly one destination, table has {dests}")
        return dests[0]

    def check_fresh(self, g: TopologyGraph):
        if self.version != g.version:
            raise StaleRouteError(
                f"routing table built at topology version {self.version}, "
                f"graph is now at {g.version}")

    def format_routes(self, destination: int) -> str:
        lines = [f"{r.path_id}: {','.join(str(n) for n in r.nodes)}"
                 for r in self.routes_for(destination)]
        return "\n".join(lines) + ("\n" if lines else "")


def _shortest_hops(g: TopologyGraph, source: int, sink: int,
                   removed: set[int], skip_direct: bool) -> list[int] | None:
    """Min-hop path avoiding ``removed`` interiors; lowest-id tie-breaks.

    Breadth-first, one hop level at a time, each level expanded in ascending
    id order until the sink's turn comes: the order and extent a heap over
    (hops, id) would pop. A node keeps its first (lowest-id) parent, so the
    returned path is the lexicographically smallest among min-hop paths.
    """
    parent: dict[int, int] = {}
    seen = removed - {sink}   # nodes no expansion may enter
    seen.add(source)
    frontier = [source]
    while frontier:
        level: list[int] = []
        for u in frontier:
            if u == sink:
                path = [sink]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            fresh = [v for v in g.neighbors(u) if v not in seen]
            if u == source and skip_direct and sink in fresh:
                fresh.remove(sink)
            seen.update(fresh)
            parent.update(dict.fromkeys(fresh, u))
            level += fresh
        level.sort()
        frontier = level
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
        if nid not in g or not g.nodes[nid].alive:
            raise ValueError(f"node {nid} is not an alive node of the topology")
    removed = {n.id for n in g.nodes.values() if n.is_redundant}
    removed.discard(source)
    removed.discard(sink)
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
        if nid not in g or not g.nodes[nid].alive:
            raise StaleRouteError(f"route {route.path_id} references dead node {nid}")
    t_dist = g.distance(route.source, route.sink)
    if t_dist <= 0:
        raise ValueError("source and sink positions coincide; no path distance")
    return PathProfile(path_id=route.path_id, H=route.hops,
                       tau=per_hop_delay(packet_bits, link), T_dist=t_dist)


def build_routing_table(g: TopologyGraph, source: int, destinations: list[int],
                        link: LinkParams, max_paths: int = 5,
                        packet_bits: float = 1000.0) -> RoutingTable:
    """Discover routes and parameter profiles for each destination.

    Unreachable destinations get no entry; a destination equal to the source
    is rejected (no self-entry).
    """
    table = RoutingTable(source=source)
    for dest in destinations:
        if dest == source:
            continue
        routes = [replace(r, profile=estimate_path_params(g, r, link, packet_bits=packet_bits))
                  for r in discover_disjoint_paths(g, source, dest, max_paths=max_paths)]
        if routes:
            table.entries[dest] = routes
    table.version = g.version
    return table


def replace_failed_node(g: TopologyGraph, failed_id: int, near: int | None = None,
                        exclude: frozenset[int] = frozenset()) -> int:
    """Activate the nearest alive redundant node to take a failed node's slot.

    ``near`` picks the reference point for "nearest" (defaults to the failed
    node itself; recovery passes the node that detected the fault). Nodes in
    ``exclude`` are never borrowed; recovery passes the nodes its routes
    already use. Only the graph changes: the caller puts the returned spare
    into its own copy of the route, and routing tables are never written.
    Raises UnrecoverableFailureError when the pool is empty.
    """
    if failed_id not in g:
        raise ValueError(f"unknown node {failed_id}")
    spare = g.nearest_redundant(near if near is not None else failed_id, exclude=exclude)
    if spare is None:
        raise UnrecoverableFailureError(
            f"no redundant node available to replace node {failed_id}")
    g.activate_spare(spare.id)
    return spare.id
