"""Sensor field deployment and radio-range connectivity.

Nodes live on a plane. The graph keeps one adjacency: for each alive node,
its alive neighbours within the radio range in ascending id order, built from
the positions once, when the graph is made: a uniform cell grid gives the
pairs within range as an array (``_pairs_within``), and numpy sorts and
splits them into lists. Failures and link cuts then update it; nothing is
rebuilt. ``neighbors`` and ``has_edge`` both read it, so route discovery,
beacons and the transfer engine share one rule for "u and v are linked".
The graph is a single-writer structure: mutations bump ``version`` so
routing tables built against an older topology can be detected as stale.

Writes replace, they never edit in place: ``fail_node``, ``activate_spare``
and ``set_residual`` store a new ``Node`` in this graph's ``nodes`` dict, and
``fail_node`` and ``disable_link`` store new neighbour lists in its
adjacency. So ``copy`` is two shallow dict copies that share every ``Node``
and list with the parent, and a write to either graph never shows through
the other. Writing ``g.nodes[i].<attr>`` directly is not supported: it would
show through every graph sharing that node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

    @property
    def alive(self) -> bool:
        return self.status == ALIVE


_SPANS_PER_BLOCK = 2048


def _pairs_within(pts: np.ndarray, r: float) -> np.ndarray:
    """Each pair ``(i, j)`` of rows of the ``(n, 2)`` array ``pts`` with
    ``dx*dx + dy*dy <= r*r`` in float64, once, in no particular order.

    Points are bucketed into square cells of side at least ``r`` and sorted
    by cell key, so a pair in range lies in one cell or in two adjacent
    ones. Each point is compared with the later points of its own cell and
    the points of the 4 forward neighbour cells (up, and the three in the
    next column), so every candidate pair is seen once. Own cell plus the
    cell above, and the three cells of the next column, are each one run of
    consecutive keys, so two ``searchsorted`` spans per point cover them.
    The spans are expanded and tested a block at a time to bound memory.
    """
    n, r = len(pts), float(r)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    lo = pts.min(axis=0)
    # at most 2**20 cells a side, so the int64 key cannot overflow; the
    # 2**-20 margin keeps two points whose rounded distance passes the test
    # in the same or adjacent cells despite rounding in the cell arithmetic
    side = max(r, float((pts.max(axis=0) - lo).max()) / 2**20) * (1 + 2**-20)
    # an empty row of cells below and above, so a step of one cell in y
    # never reaches into the next column's cells
    cells = ((pts - lo) / side).astype(np.int64) + 1
    ny = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * ny + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    xs, ys = pts[order, 0], pts[order, 1]
    here = np.arange(n)
    src = np.concatenate((here, here))
    first = np.concatenate((here + 1, np.searchsorted(keys, keys + ny - 1)))
    end = np.concatenate((np.searchsorted(keys, keys + 2),
                          np.searchsorted(keys, keys + ny + 2)))
    found = []
    for s in range(0, 2 * n, _SPANS_PER_BLOCK):
        block = slice(s, s + _SPANS_PER_BLOCK)
        counts = end[block] - first[block]
        a = np.repeat(src[block], counts)
        b = np.arange(len(a)) + np.repeat(first[block] - (np.cumsum(counts) - counts), counts)
        dx, dy = xs[a] - xs[b], ys[a] - ys[b]
        hit = np.flatnonzero(dx * dx + dy * dy <= r * r)
        found.append(np.stack((order[a[hit]], order[b[hit]]), axis=1))
    return np.concatenate(found)


class TopologyGraph:
    def __init__(self, nodes: list[Node], radio_range: float):
        if not radio_range > 0:
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
        pts = np.array([self.nodes[i].position for i in ids],
                       dtype=np.float64).reshape(n, 2)
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            bad = self.nodes[ids[int(np.argmin(finite))]]
            raise ValueError(f"node {bad.id} has a non-finite position {bad.position}")
        pairs = _pairs_within(pts, radio_range)
        # each pair in both directions as one key, row * n + column, so one
        # sort groups the pairs by node and orders each group by neighbour
        keys = np.sort(np.concatenate((pairs[:, 0] * n + pairs[:, 1],
                                       pairs[:, 1] * n + pairs[:, 0])))
        flat = np.asarray(ids, dtype=np.int64)[keys % n].tolist()
        ends = np.cumsum(np.bincount(keys // n, minlength=n)).tolist()
        self._adjacency: dict[int, list[int]] = {
            u: flat[start:end] for u, start, end in zip(ids, [0] + ends, ends)}

    def copy(self) -> TopologyGraph:
        """An independent graph in this one's state; writes replace, so it
        shares every node and neighbour list with this one."""
        g = TopologyGraph.__new__(TopologyGraph)
        g.nodes = dict(self.nodes)
        g.radio_range = self.radio_range
        g.version = self.version
        g._adjacency = dict(self._adjacency)
        return g

    def _unlink(self, u: int, v: int):
        self._adjacency[u] = [w for w in self._adjacency[u] if w != v]

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
            self.nodes[node_id] = replace(self.nodes[node_id], status=FAILED)
            for v in self._adjacency.pop(node_id):
                self._unlink(v, node_id)
            self.version += 1

    def disable_link(self, u: int, v: int):
        if self.has_edge(u, v):
            self._unlink(u, v)
            self._unlink(v, u)
            self.version += 1

    def activate_spare(self, node_id: int):
        """Turn a redundant node into a regular route participant."""
        self.nodes[node_id] = replace(self.nodes[node_id], is_redundant=False)
        self.version += 1

    def set_residual(self, node_id: int, joules: float):
        """Store a node's residual energy; the topology is unchanged."""
        self.nodes[node_id] = replace(self.nodes[node_id], residual_energy=joules)

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
            x, y, energy = (float(v) for v in parts[1:4])
            for name, v in (("x", x), ("y", y), ("energy", energy)):
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v}")
            nodes.append(Node(id=int(parts[0]), position=(x, y),
                              residual_energy=energy,
                              is_redundant=bool(int(parts[4]))))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return TopologyGraph(nodes, radio_range=radio_range)
