"""Sensor field deployment and radio-range connectivity.

Nodes live on a plane, and a node's id is its index in the positions the
graph is made from: ids run ``0..len(g) - 1``. Two alive nodes are linked
when they lie within the radio range, ``dx*dx + dy*dy <= r*r`` in float64.
The graph finds those pairs once, when it is made, and keeps them as a base
adjacency in CSR form, node ``u``'s neighbours being
``indices[indptr[u]:indptr[u + 1]]`` in ascending order, beside the
positions stored flat (``x0, y0, x1, y1, ...``). Two builders make that base:
- up to ``_PYTHON_NODES`` nodes, ``_python_base`` tests every pair in plain
  Python and stores the base in read-only memoryviews over ``array.array``;
- above that, a uniform cell grid gives the pairs in blocks
  (``_pairs_within``), and one numpy sort turns them into read-only numpy
  arrays (``_numpy_base``).
Both apply the same float64 test, so they find the same pairs, and every
method reads either form with the same code. The base is never written, so
every ``copy`` shares it. numpy is imported only by the functions that need
it: importing this module, parsing a scenario or building a small graph
does not load it; the first large graph and the first route search
(``links_from``) do.

Each graph keeps its own link state as two small sets over that base: the
failed ids, and the cut links, each disabled link in both directions. One
rule decides every pair: ``u``-``v`` is a link when ``v`` is in ``u``'s base
row, both nodes are alive and ``(u, v)`` is not cut. ``neighbors``,
``has_edge`` and ``links_from`` (the route search's gather over many nodes
at once) all apply it, so beacons, the transfer engine and route discovery
never disagree about whether u and v are linked. ``fail_node`` and
``disable_link`` only add to a set.

The graph is the one owner of node state. Every node starts alive with the
same initial energy. Besides its failed ids and cut links, each graph holds
a set of spares (redundant nodes not yet activated) and the residuals
``set_residual`` wrote; ``alive``, ``residual``, ``position`` and ``spares``
read that state. ``copy`` copies those four containers and shares the rest,
so a write to either graph never shows through the other.

``version`` counts the graph's mutations (failed nodes, disabled links,
activated spares), starting at 1.
"""

from __future__ import annotations

import bisect
import math
import numbers
from array import array
from itertools import accumulate, chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TopologyGraph",
    "deploy_field",
]


_SPANS_PER_BLOCK = 2048
# a graph of at most this many nodes tests every pair in plain Python, which
# takes ~4.5 ms at 256 nodes, and never loads numpy for its base
_PYTHON_NODES = 256


def _pairs_within(pts: np.ndarray, r: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each pair ``(i, j)`` of rows of the ``(n, 2)`` array ``pts`` with
    ``dx*dx + dy*dy <= r*r`` in float64, once, in no particular order, as
    blocks of hits ``(i's, j's)``.

    Points are bucketed into square cells of side at least ``r`` and sorted
    by cell key, so a pair in range lies in one cell or in two adjacent
    ones. Each point is compared with the later points of its own cell and
    the points of the 4 forward neighbour cells (up, and the three in the
    next column), so every candidate pair is seen once. Own cell plus the
    cell above, and the three cells of the next column, are each one run of
    consecutive keys, so two ``searchsorted`` spans per point cover them.
    Each kind of span is expanded and tested a block at a time, and the
    blocks' hits are kept as they are, to bound memory.
    """
    import numpy as np

    n, r = len(pts), float(r)
    if n < 2:
        return []
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

    def spans():
        # own cell and the one above, then the three cells of the next column
        yield here + 1, np.searchsorted(keys, keys + 2)
        yield np.searchsorted(keys, keys + ny - 1), np.searchsorted(keys, keys + ny + 2)

    found = []
    for first, end in spans():
        for s in range(0, n, _SPANS_PER_BLOCK):
            block = slice(s, s + _SPANS_PER_BLOCK)
            counts = end[block] - first[block]
            a = np.repeat(here[block], counts)
            b = np.arange(len(a)) + np.repeat(first[block] - (np.cumsum(counts) - counts), counts)
            # a difference or a square past the float range is inf, and
            # compares as inf, as in ``_python_base``: no warning
            with np.errstate(over="ignore"):
                dx, dy = xs[a] - xs[b], ys[a] - ys[b]
                hit = np.flatnonzero(dx * dx + dy * dy <= r * r)
            found.append((order[a[hit]], order[b[hit]]))
        del first, end
    return found


def _python_base(positions, r: float) -> tuple[memoryview, memoryview, memoryview]:
    """A small graph's base, ``(positions, indptr, indices)``, as read-only
    memoryviews over ``array.array``: each pair of ``positions`` tested in
    turn by ``_pairs_within``'s float64 rule, in plain Python."""
    flat = array("d")
    for x, y in positions:
        flat.extend((x, y))
    xs, ys, r = flat[0::2].tolist(), flat[1::2].tolist(), float(r)
    for u, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"node {u} has a non-finite position {(x, y)}")
    # node u's row gets each lower neighbour on that one's turn, then its
    # higher ones on its own, so every row comes out in ascending order
    rows: list[list[int]] = [[] for _ in xs]
    for u, (x, y, row) in enumerate(zip(xs, ys, rows)):
        for v, xv, yv in zip(range(u + 1, len(xs)), xs[u + 1:], ys[u + 1:]):
            dx, dy = x - xv, y - yv
            if dx * dx + dy * dy <= r * r:
                row.append(v)
                rows[v].append(u)
    indptr = array("q", accumulate(map(len, rows), initial=0))
    indices = array("q", chain.from_iterable(rows))
    return tuple(memoryview(a).toreadonly() for a in (flat, indptr, indices))


def _numpy_base(positions, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A graph's base as read-only numpy arrays, from ``_pairs_within``'s
    blocks of hits: flat positions, ``indptr`` and ``indices``."""
    import numpy as np

    pts = np.array(positions, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"node {bad} has a non-finite position "
                         f"{tuple(pts[bad].tolist())}")
    found = _pairs_within(pts, r)
    # each pair in both directions as one key, row * n + column, so one
    # sort groups the pairs by row and orders each row by neighbour.
    # Filled in place from the blocks of hits, each let go once written,
    # and in the narrowest dtype that holds n * n (uint32 up to 65,535 nodes)
    m = sum(len(u) for u, _ in found)
    keys = np.empty(2 * m, dtype=np.min_scalar_type(n * n))
    at = 0
    while found:
        u, v = found.pop()
        for half, (x, y) in ((keys[at:at + len(u)], (u, v)),
                             (keys[m + at:m + at + len(u)], (v, u))):
            np.multiply(x, n, out=half, dtype=keys.dtype)
            half += y
        at += len(u)
    keys.sort()
    # row u's keys are the ones in [u * n, (u + 1) * n)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    indices = np.remainder(keys, n, out=keys).astype(np.min_scalar_type(n))
    base = (pts.reshape(-1), indptr, indices)
    for shared in base:
        shared.flags.writeable = False
    return base


class TopologyGraph:
    def __init__(self, positions, radio_range: float, initial_energy: float,
                 spares=()):
        """``positions`` is a sequence of ``(x, y)`` pairs, node i at the i-th."""
        if not radio_range > 0:
            raise ValueError(f"radio range must be > 0, got {radio_range}")
        build = _python_base if len(positions) <= _PYTHON_NODES else _numpy_base
        self._pos, self._indptr, self._indices = build(positions, radio_range)
        self.radio_range = radio_range
        self.version = 1
        self._initial_energy = initial_energy
        self._spares = set(spares)
        outside = sorted(s for s in self._spares if s not in self)
        if outside:
            raise ValueError(f"spare {outside[0]} is not a node id in [0, {len(self)})")
        self._failed: set[int] = set()
        self._cut: set[tuple[int, int]] = set()  # disabled links, both directions
        self._residual: dict[int, float] = {}   # only the residuals written

    def copy(self) -> TopologyGraph:
        """An independent graph in this one's state, sharing the base arrays."""
        g = TopologyGraph.__new__(TopologyGraph)
        g.__dict__.update(self.__dict__)
        g._failed, g._cut, g._spares = set(self._failed), set(self._cut), set(self._spares)
        g._residual = dict(self._residual)
        return g

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __contains__(self, node_id) -> bool:
        # numpy registers its integer scalars as numbers.Integral; int comes
        # first so that the engine's plain ids skip the slower ABC check
        return isinstance(node_id, (int, numbers.Integral)) and 0 <= node_id < len(self)

    def alive(self, node_id: int) -> bool:
        return node_id in self and node_id not in self._failed

    def residual(self, node_id: int) -> float:
        return self._residual.get(node_id, self._initial_energy)

    def position(self, node_id: int) -> tuple[float, float]:
        p = self._pos    # x0, y0, x1, y1, ...
        return float(p[2 * node_id]), float(p[2 * node_id + 1])

    @property
    def spares(self) -> frozenset[int]:
        """The redundant nodes not yet activated, failed or not."""
        return frozenset(self._spares)

    def distance(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.position(u), self.position(v)
        return math.hypot(x1 - x2, y1 - y2)

    def neighbors(self, u: int) -> list[int]:
        """Alive neighbours of u in ascending id order, as a new list."""
        if not self.alive(u):
            return []
        failed, cut = self._failed, self._cut
        return [v for v in self._indices[self._indptr[u]:self._indptr[u + 1]].tolist()
                if v not in failed and (u, v) not in cut]

    def has_edge(self, u: int, v: int) -> bool:
        # v, when it is no node, is in no row
        if not self.alive(u) or v in self._failed or (u, v) in self._cut:
            return False
        end = self._indptr[u + 1]
        at = bisect.bisect_left(self._indices, v, self._indptr[u], end)
        return at < end and int(self._indices[at]) == v

    def links_from(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every link out of the nodes ``ids``, as arrays ``(from, to)``: the
        base rows, less the pairs with a failed end or a cut."""
        import numpy as np

        # views of the base, which a small graph keeps in memoryviews
        indptr, indices = np.asarray(self._indptr), np.asarray(self._indices)
        starts = indptr[ids]
        counts = indptr[ids + 1] - starts
        # gathered entry k of node i sits at indices[starts[i] + k - first[i]]
        first = np.cumsum(counts) - counts
        src = np.repeat(ids, counts)
        dst = indices[np.arange(counts.sum()) + np.repeat(starts - first, counts)]
        if self._failed or self._cut:
            failed = list(self._failed)
            keep = ~(np.isin(src, failed) | np.isin(dst, failed))
            if self._cut:
                n = len(self)
                keep &= ~np.isin(src.astype(np.int64) * n + dst,
                                 [u * n + v for u, v in self._cut])
            src, dst = src[keep], dst[keep]
        return src, dst

    def fail_node(self, node_id: int):
        if self.alive(node_id):
            self._failed.add(node_id)
            self.version += 1

    def disable_link(self, u: int, v: int):
        if self.has_edge(u, v):
            self._cut.update(((u, v), (v, u)))
            self.version += 1

    def activate_spare(self, node_id: int):
        """Turn a redundant node into a regular route participant; any
        other node is left as it is, and the version with it."""
        if node_id in self._spares:
            self._spares.remove(node_id)
            self.version += 1

    def set_residual(self, node_id: int, joules: float):
        """Store a node's residual energy; the topology is unchanged."""
        self._residual[node_id] = joules


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
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, w, node_count)
    ys = rng.uniform(0.0, h, node_count)
    n_spare = int(node_count * redundant_fraction)
    spares = rng.choice(node_count, size=n_spare, replace=False).tolist() if n_spare else ()
    return TopologyGraph(np.column_stack((xs, ys)), radio_range, initial_energy,
                         spares=spares)
