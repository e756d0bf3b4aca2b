"""Sensor field deployment and radio-range connectivity.

Nodes live on a plane. The graph keeps one adjacency: for each alive node,
its alive neighbours within the radio range in ascending id order, built from
the positions once, when the graph is made: one k-d tree range query gives
the pairs as an array, and numpy sorts and splits them into lists. Failures
and link cuts then edit it in place; nothing is rebuilt. ``neighbors`` and
``has_edge`` both read it, so route discovery, beacons and the transfer
engine share one rule for "u and v are linked". The graph is a single-writer
structure: mutations bump ``version`` so routing tables built against an
older topology can be detected as stale.

``copy`` is copy-on-write. The copy shares every ``Node`` and neighbour list
with its parent and costs two shallow dict copies; a graph method that writes
a node or a list (``fail_node``, ``disable_link``, ``activate_spare``,
``set_residual``) first gives the writing graph its own copy of it, and
after a ``copy`` the parent copies on its first write too. So a copy costs
what its writes touch, not the field. Writing ``g.nodes[i].<attr>``
directly is not supported: it would show through every graph sharing that
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Node",
    "TopologyGraph",
    "UnrecoverableFailureError",
    "deploy_field",
    "dump_topology",
    "parse_topology",
]

ALIVE = "alive"
FAILED = "failed"


class UnrecoverableFailureError(RuntimeError):
    """No redundant node is available to take over for a failed one."""


@dataclass
class Node:
    id: int
    position: tuple[float, float]
    residual_energy: float
    is_redundant: bool = False
    status: str = ALIVE
    assumed_id: int | None = None  # serial taken over from a failed node

    @property
    def alive(self) -> bool:
        return self.status == ALIVE


class TopologyGraph:
    def __init__(self, nodes: list[Node], radio_range: float):
        if radio_range <= 0:
            raise ValueError(f"radio range must be > 0, got {radio_range}")
        self.nodes: dict[int, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id}")
            self.nodes[n.id] = n
        self.radio_range = radio_range
        self.version = 1
        ids = sorted(self.alive_ids())
        n = len(ids)
        pairs = np.empty((0, 2), dtype=np.intp)
        if n > 1:
            pts = np.array([self.nodes[i].position for i in ids])
            pairs = cKDTree(pts).query_pairs(radio_range, output_type="ndarray")
        # each pair in both directions as one key, row * n + column, so one
        # sort groups the pairs by node and orders each group by neighbour
        keys = np.sort(np.concatenate((pairs[:, 0] * n + pairs[:, 1],
                                       pairs[:, 1] * n + pairs[:, 0])))
        flat = np.asarray(ids, dtype=np.int64)[keys % n].tolist()
        ends = np.cumsum(np.bincount(keys // n, minlength=n)).tolist()
        self._adjacency: dict[int, list[int]] = {
            u: flat[start:end] for u, start, end in zip(ids, [0] + ends, ends)}
        # ids whose Node / neighbour list no other graph shares
        self._own_nodes = set(self.nodes)
        self._own_lists = set(self._adjacency)

    def copy(self) -> TopologyGraph:
        """An independent graph in this one's state, sharing until written."""
        g = TopologyGraph.__new__(TopologyGraph)
        g.nodes = dict(self.nodes)
        g.radio_range = self.radio_range
        g.version = self.version
        g._adjacency = dict(self._adjacency)
        g._own_nodes, g._own_lists = set(), set()
        self._own_nodes, self._own_lists = set(), set()
        return g

    def _node_for_write(self, node_id: int) -> Node:
        if node_id not in self._own_nodes:
            self.nodes[node_id] = replace(self.nodes[node_id])
            self._own_nodes.add(node_id)
        return self.nodes[node_id]

    def _list_for_write(self, node_id: int) -> list[int]:
        if node_id not in self._own_lists:
            self._adjacency[node_id] = self._adjacency[node_id][:]
            self._own_lists.add(node_id)
        return self._adjacency[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def alive_ids(self) -> list[int]:
        return [n.id for n in self.nodes.values() if n.alive]

    def distance(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.nodes[u].position, self.nodes[v].position
        return math.hypot(x1 - x2, y1 - y2)

    def neighbors(self, u: int) -> list[int]:
        """Alive neighbors of u in ascending id order (do not modify)."""
        return self._adjacency.get(u, [])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency.get(u, ())

    def fail_node(self, node_id: int):
        if self.nodes[node_id].alive:
            self._node_for_write(node_id).status = FAILED
            for v in self._adjacency.pop(node_id):
                self._list_for_write(v).remove(node_id)
            self.version += 1

    def disable_link(self, u: int, v: int):
        if self.has_edge(u, v):
            self._list_for_write(u).remove(v)
            self._list_for_write(v).remove(u)
            self.version += 1

    def activate_spare(self, node_id: int, assumed_id: int | None = None):
        """Turn a redundant node into a regular route participant."""
        node = self._node_for_write(node_id)
        node.is_redundant = False
        node.assumed_id = assumed_id
        self.version += 1

    def set_residual(self, node_id: int, joules: float):
        """Store a node's residual energy; the topology is unchanged."""
        self._node_for_write(node_id).residual_energy = joules

    def nearest_redundant(self, near: int, exclude: frozenset[int] = frozenset()) -> Node | None:
        """Closest alive redundant node to ``near``; lowest id wins ties."""
        ref = self.nodes[near].position
        best = None
        for n in self.nodes.values():
            if not (n.alive and n.is_redundant) or n.id in exclude:
                continue
            d = math.hypot(n.position[0] - ref[0], n.position[1] - ref[1])
            key = (d, n.id)
            if best is None or key < best[0]:
                best = (key, n)
        return best[1] if best else None


def deploy_field(area: tuple[float, float], node_count: int, seed: int,
                 radio_range: float = 24.0, redundant_fraction: float = 0.05,
                 initial_energy: float = 23760.0) -> TopologyGraph:
    """Scatter ``node_count`` nodes uniformly over the area, deterministically.

    A fixed fraction of the nodes is flagged redundant; those stay out of
    initial routes and form the replacement pool for fault recovery.
    """
    w, h = area
    if w <= 0 or h <= 0:
        raise ValueError(f"area dimensions must be positive, got {area}")
    if node_count < 0:
        raise ValueError(f"node count must be >= 0, got {node_count}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, w, node_count)
    ys = rng.uniform(0.0, h, node_count)
    n_spare = int(node_count * redundant_fraction)
    spares = set(rng.choice(node_count, size=n_spare, replace=False).tolist()) if n_spare else set()
    nodes = [
        Node(id=i, position=(float(xs[i]), float(ys[i])),
             residual_energy=initial_energy, is_redundant=i in spares)
        for i in range(node_count)
    ]
    return TopologyGraph(nodes, radio_range=radio_range)


def dump_topology(g: TopologyGraph) -> str:
    """One node per line: ``id x y energy redundant_flag``."""
    lines = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        lines.append(f"{n.id} {n.position[0]:.10g} {n.position[1]:.10g} "
                     f"{n.residual_energy:.10g} {int(n.is_redundant)}")
    return "\n".join(lines) + "\n"


def parse_topology(text: str, radio_range: float) -> TopologyGraph:
    """Inverse of dump_topology; blank lines and # comments are skipped."""
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 'id x y energy redundant_flag', got {raw!r}")
        try:
            nodes.append(Node(
                id=int(parts[0]),
                position=(float(parts[1]), float(parts[2])),
                residual_energy=float(parts[3]),
                is_redundant=bool(int(parts[4])),
            ))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return TopologyGraph(nodes, radio_range=radio_range)
