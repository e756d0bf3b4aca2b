"""Sensor field deployment and radio-range connectivity.

Nodes live on a plane. Two alive nodes are linked when they lie within the
radio range. The graph finds those pairs once, when it is made: a uniform
cell grid gives them as an array (``_pairs_within``), and one numpy sort
turns them into a base adjacency in CSR form. A row is the rank of an alive
id, row ``r``'s neighbours are rows ``indices[indptr[r]:indptr[r + 1]]`` in
ascending order, and an object array maps rows back to the nodes' own id
objects. The base arrays are never written, so every ``copy`` shares them.

On top of the base, each graph keeps a small dict of Python neighbour lists.
``neighbors(u)`` makes u's list from its row on first use; ``fail_node`` and
``disable_link`` write replacement lists. A node's list, when it has one, is
its adjacency; otherwise its row is. ``neighbors``, ``has_edge`` and
``links_from`` (the route search's gather over many rows at once) all follow
that one rule, so beacons, the transfer engine and route discovery never
disagree about whether u and v are linked. On a 50,000-node field only the
few hundred nodes the engine asks about ever get a list.

``version`` counts the graph's mutations (failed nodes, disabled links,
activated spares), starting at 1. Writes replace, they never edit in place:
``fail_node``, ``activate_spare`` and ``set_residual`` store a new ``Node`` in
this graph's ``nodes`` dict, and ``fail_node`` and ``disable_link`` store new
lists in its own list dict. So ``copy`` is two shallow dict copies that share
every ``Node``, list and base array with the parent, and a write to either
graph never shows through the other. Writing ``g.nodes[i].<attr>`` directly is
not supported: it would show through every graph sharing that node.
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
    # in the same or adjacent cells despite rounding in the cell arithmetic.
    # Below a range of 2**-500 the squares underflow, and ``dx*dx <= r*r``
    # can pass for a pair many ranges apart; cells no smaller than 2**-500,
    # whose square is still a normal float, keep such a pair adjacent too.
    side = max(r, float((pts.max(axis=0) - lo).max()) / 2**20, 2.0**-500) * (1 + 2**-20)
    # an empty row of cells below and above, so a step of one cell in y
    # never reaches into the next column's cells
    cells = ((pts - lo) / side).astype(np.int64) + 1
    ny = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * ny + cells[:, 1]
    # rows in the smallest dtype that holds one, which sizes the result
    order = np.argsort(keys, kind="stable").astype(np.min_scalar_type(n))
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
        # sort groups the pairs by row and orders each row by neighbour.
        # Filled in place, so only the pairs and the keys are ever live
        m = len(pairs)
        keys = np.empty(2 * m, dtype=np.int64)
        for half, (u, v) in ((keys[:m], pairs.T), (keys[m:], pairs.T[::-1])):
            np.multiply(u, n, out=half, dtype=np.int64)
            half += v
        del pairs
        keys.sort()
        # row r's keys are the ones in [r * n, (r + 1) * n)
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self._indices = np.remainder(keys, n, out=keys).astype(np.min_scalar_type(n))
        # indexing the object array hands out the nodes' own id objects, so
        # the lists share one int per node instead of one per entry
        self._ids = np.array(ids, dtype=object)
        self._row = dict(zip(ids, range(n)))
        for shared in (self._indptr, self._indices, self._ids):
            shared.flags.writeable = False
        # this graph's neighbour lists: made from a row on first use, or
        # written by fail_node / disable_link; they override the base
        self._lists: dict[int, list[int]] = {}

    def copy(self) -> TopologyGraph:
        """An independent graph in this one's state; writes replace, so it
        shares every node, neighbour list and base array with this one."""
        g = TopologyGraph.__new__(TopologyGraph)
        g.__dict__.update(self.__dict__)
        g.nodes = dict(self.nodes)
        g._lists = dict(self._lists)
        return g

    def _unlink(self, u: int, v: int):
        self._lists[u] = [w for w in self.neighbors(u) if w != v]

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
        nbrs = self._lists.get(u)
        if nbrs is None:
            row = self._row.get(u)
            if row is None:
                return []
            nbrs = self._lists[u] = self._ids[
                self._indices[self._indptr[row]:self._indptr[row + 1]]].tolist()
        return nbrs

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._lists.get(u)
        return v in (self.neighbors(u) if nbrs is None else nbrs)

    def rows(self, ids) -> np.ndarray:
        """The base rows of those of ``ids`` that were alive when the graph
        was made, in the order given; other ids are left out."""
        row = self._row
        return np.fromiter((row[i] for i in ids if i in row), dtype=np.intp)

    def row_ids(self, rows) -> list[int]:
        """The node ids of base rows."""
        return self._ids[rows].tolist()

    @property
    def row_count(self) -> int:
        return len(self._ids)

    def links_from(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every link out of ``rows``, as arrays ``(from_rows, to_rows)``.

        A row whose node has a neighbour list in this graph reads that list,
        any other row the base, so this and ``neighbors`` agree on every pair.
        """
        src, dst = [], []
        if self._lists:
            listed = np.isin(rows, self.rows(self._lists))
            for r, u in zip(rows[listed], self.row_ids(rows[listed])):
                dst.append(self.rows(self._lists[u]))
                src.append(np.full(len(dst[-1]), r))
            rows = rows[~listed]
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        # gathered entry k of row i sits at indices[starts[i] + k - first[i]]
        first = np.cumsum(counts) - counts
        src.append(np.repeat(rows, counts))
        dst.append(self._indices[np.arange(counts.sum())
                                 + np.repeat(starts - first, counts)])
        return np.concatenate(src), np.concatenate(dst)

    def fail_node(self, node_id: int):
        if self.nodes[node_id].alive:
            self.nodes[node_id] = replace(self.nodes[node_id], status=FAILED)
            for v in self.neighbors(node_id):
                self._unlink(v, node_id)
            self._lists[node_id] = []
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
        Node(id=i, position=(x, y), residual_energy=initial_energy,
             is_redundant=i in spares)
        for i, x, y in zip(range(node_count), xs.tolist(), ys.tolist())
    ]
    return TopologyGraph(nodes, radio_range=radio_range)
