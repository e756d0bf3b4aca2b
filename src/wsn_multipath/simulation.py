"""Discrete-event transfer simulator with fault detection and recovery.

Each path moves one packet at a time: the next packet enters the pipe only
after the previous one reached the sink, so a fault-free path finishes its
share in exactly packets * tau * hops seconds. Every node that handles a
packet pays one transmit and one receive charge (the source receives from the
sensing stage, the sink transmits the handoff), which makes the communication
energy of a path equal to the closed-form traffic term. When the round ends,
every alive node of the route fabric pays idle power for the round minus its
time on air; sensing is priced by the comparison harness. A node's energy
ledger is made on its first charge, so the engine's bookkeeping covers the
route fabric and beacon neighbours, not the whole field; the residuals of
charged nodes are written back to the graph when the round ends.

Fault handling mirrors a two-sided detection protocol. The receiver of a hop
arms a timer for m*tau past the expected arrival; an unacknowledged sender
retries, and after m attempts pings a neighbor to check its own radio.
Whichever check concludes first drives recovery, the other is logged as a
non-driving detection. Recovery splices in the min-hop detour that route
discovery's search finds between the alive route nodes nearest the failed
node, through nodes no route uses, and resumes from the upstream one. When
both ends of the hop are dead nobody is left to detect the fault, so the path
fails when the receiver's timer is due and drops its remaining packets. A
beacon whose partner dies before replying leaves the fault to the timer; once
both checks have ended without a detection, the sender beacons its next alive
neighbour. Both checks act only on a failed hop, so a hop is a send and an
arrival: an arrival over a missing link decides the ack timeout due at that
instant, and the receiver's timer is pushed, under a fresh key, when the
hop is first seen to fail.

Events pop by the key ``(time, lane, seq)``: the lane is -1 for a scripted
fault and the path id for any other event, and ``seq`` counts pushes. So at
one time faults pop first, then paths in id order, each path's events in push
order, and where two paths' events interact (a detour node, a shared node's
energy) the lower id acts first.

A ledger counts charges by unit: per node, the charges of each size in joules
and the seconds on air of each size, and per path its communication charges.
Every total is the exactly rounded sum (``math.fsum``) of count times unit, so
it does not depend on the order the charges were made in.

Between disruptions a path's progress follows from its hop time and its
charge counts alone, so the engine advances every path in one window instead
of stepping every hop. A window starts only when every running path's one
pending event is the arrival of its hop in flight; a pending send, a path's
first hop at t=0 or the hop a repair resumes, pops stepped. A window ends at
the next possible disruption: a scripted fault, a pending beacon exchange or
detection timer, a route with a dead node or broken link, or a route node
whose residual energy could reach zero. Each path's walk (``_walk``) builds
its hop times by the same chain of ``t + tau`` additions stepping makes; a
closed form such as ``t0 + k * H * tau`` would change the low bits and could
move a hop across a fault scheduled on it. Each route node then takes the
walk's arrival, injection and delivery counts as one charge per unit. At the
window's end each path in flight pushes its ``PacketArrive``, as stepping
would, and stale events (``_stale``), which the main loop would drop
unhandled, are dropped. The result is bit-identical to stepping.

``SimConfig.trace`` is the run's line sink, a text writable or None; it
decides only whether lines are written, not how the engine runs. A stepped pop
writes its event's line, and a window the lines of the arrivals it consumes
and of the sends they start, in chunks, from each path's hop and packet as
they stood before its walk (``_write_window``). No line is held once written.
Windows start only after every earlier event has popped, so the trace lists
each event the engine acts on, in pop order; an event no handler would act on
is skipped in both modes and has no line.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import TextIO

from .model import (EnergyParams, LinkParams, PathProfile, per_hop_delay,
                    rx_energy_per_bit, tx_energy_per_bit)
from .distribution import Distribution
from .routing import RoutingTable, _shortest_hops
from .topology import TopologyGraph

__all__ = [
    "EventKind",
    "SimEvent",
    "EnergyLedger",
    "FaultEvent",
    "FaultScript",
    "FaultRecord",
    "FaultCase",
    "SimConfig",
    "TransferReport",
    "run_transfer",
]


class EventKind(Enum):
    PACKET_SEND = "PacketSend"
    PACKET_ARRIVE = "PacketArrive"
    BEACON_SEND = "BeaconSend"
    BEACON_RESULT = "BeaconResult"
    TIMER_EXPIRE = "TimerExpire"
    FAULT_TRIGGER = "FaultTrigger"


# a trace line: the time in _TRACE_TIME's format, the event kind, then the
# from, to, packet and path ids, "-" for an id the event lacks; each line ends
# in a newline, so a sink takes lines as they are. Windows build the same
# lines from pieces (_WindowLines)
_TRACE_LINE = "{} {} {} {} {} {}\n"
_TRACE_TIME = ".10g"


@dataclass(frozen=True)
class SimEvent:
    time: float
    seq: int
    kind: EventKind
    node_from: int | None = None
    node_to: int | None = None
    packet_id: int | None = None
    path_id: int | None = None
    instance: int = 0
    payload: object = None

    def trace_line(self) -> str:
        return _TRACE_LINE.format(format(self.time, _TRACE_TIME), self.kind.value, *(
            "-" if v is None else v
            for v in (self.node_from, self.node_to, self.packet_id, self.path_id)))


def _finite_sum(values: list[float], what: str) -> float:
    """``math.fsum`` of ``values``, refusing a total past the float range."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # intermediate overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise ValueError(f"the {what} total overflows")
    return total


def _products(*counts: dict[float, int]) -> list[float]:
    return [unit * n for c in counts for unit, n in c.items()]


@dataclass
class NodeLedger:
    """One node's charges, counted by unit: ``tx`` and ``rx`` map joules per
    charge to a number of charges, ``busy`` maps seconds on air per charge to
    one, and ``idle`` is the one end-of-round charge. A total is the exactly
    rounded sum of count times unit, so it does not depend on charge order."""

    initial: float
    tx: dict[float, int] = field(default_factory=lambda: defaultdict(int))
    rx: dict[float, int] = field(default_factory=lambda: defaultdict(int))
    busy: dict[float, int] = field(default_factory=lambda: defaultdict(int))
    idle: float = 0.0

    @property
    def time_on_air(self) -> float:
        return math.fsum(_products(self.busy))

    @property
    def consumed(self) -> float:
        return math.fsum(_products(self.tx, self.rx) + [self.idle])

    @property
    def residual(self) -> float:
        return self.initial - self.consumed


class EnergyLedger:
    """Per-node energy bookkeeping plus per-path communication totals.

    A node's ledger is made on its first charge, starting from the residual
    the graph holds for it then, so ``nodes`` holds exactly the nodes that
    took a charge. Until ``settle`` hands the residuals back to the graph,
    ``residual`` of an uncharged node is the graph's value. A path's
    communication energy is counted by unit, as a node's charges are.
    """

    def __init__(self, g: TopologyGraph | None = None):
        self._g = g
        self.nodes: dict[int, NodeLedger] = {}
        self.path_comm: dict[int, dict[float, int]] = defaultdict(
            lambda: defaultdict(int))

    def ensure(self, node_id: int) -> NodeLedger:
        led = self.nodes.get(node_id)
        if led is None:
            led = self.nodes[node_id] = NodeLedger(initial=self._g.residual(node_id))
        return led

    def charge(self, node_id: int, part: str, joules: float, count: int,
               busy: float = 0.0, path_id: int | None = None) -> NodeLedger:
        """Add ``count`` charges of ``joules`` to the node's ``part`` ("tx"
        or "rx"), each on air for ``busy`` seconds, and to the path's
        communication energy when ``path_id`` is given."""
        led = self.ensure(node_id)
        getattr(led, part)[joules] += count
        if busy:
            led.busy[busy] += count
        if path_id is not None:
            self.path_comm[path_id][joules] += count
        return led

    def residual(self, node_id: int) -> float:
        led = self.nodes.get(node_id)
        return led.residual if led else self._g.residual(node_id)

    def settle(self):
        """Write every charged node's residual back to the graph, and let
        go of the graph."""
        for nid, led in self.nodes.items():
            self._g.set_residual(nid, led.residual)
        self._g = None

    def comm_for_path(self, path_id: int) -> float:
        return math.fsum(_products(self.path_comm.get(path_id, {})))

    def total(self, component: str) -> float:
        leds = self.nodes.values()
        parts = ([led.idle for led in leds] if component == "idle" else
                 [p for led in leds for p in _products(getattr(led, component))])
        return _finite_sum(parts, f"{component} energy")


@dataclass(frozen=True)
class FaultEvent:
    time: float
    kind: str  # node_fail | link_fail
    target: int | tuple[int, int]

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError(f"fault time must be finite, got {self.time}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind not in ("node_fail", "link_fail"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "link_fail" and not (isinstance(self.target, tuple) and len(self.target) == 2):
            raise ValueError("link_fail target must be a (u, v) pair")
        if self.kind == "link_fail" and self.target[0] == self.target[1]:
            raise ValueError("link_fail needs two different nodes")
        if self.kind == "node_fail" and not isinstance(self.target, int):
            raise ValueError("node_fail target must be a node id")


@dataclass
class FaultScript:
    events: list[FaultEvent] = field(default_factory=list)

    def sorted_events(self) -> list[FaultEvent]:
        return sorted(self.events, key=lambda e: e.time)


class FaultCase(Enum):
    NODE_SILENT = 1   # upstream node gone quiet; receiver timer detects
    HOP_UNREACHABLE = 2  # sender healthy, next hop unreachable; beacon detects


def _beacon_neighbor(g: TopologyGraph, sender: int, avoid: int) -> int | None:
    for nid in g.neighbors(sender):
        if nid != avoid:
            return nid
    return None


@dataclass(frozen=True)
class FaultRecord:
    time: float
    path_id: int
    case: FaultCase
    failed_node: int
    initiator: int
    replacement: int | None
    drove_recovery: bool
    note: str = ""


@dataclass(frozen=True)
class SimConfig:
    max_attempts: int = 5
    control_bits: float = 100.0
    idle_power: float = 0.0
    trace: TextIO | None = None  # where trace lines go as they are made


_RUNNING, _FAILED, _DONE = "running", "failed", "done"

# pending events that end a window at their time
_WINDOW_STOPS = (EventKind.FAULT_TRIGGER, EventKind.BEACON_SEND,
                 EventKind.BEACON_RESULT)
# the events a path's own state can make stale
_PATH_EVENTS = (EventKind.PACKET_SEND, EventKind.PACKET_ARRIVE,
                EventKind.TIMER_EXPIRE)


class _PathRun:
    def __init__(self, path_id: int, nodes: list[int], profile: PathProfile,
                 total: int, base_pkt: int, j_tx: float, j_ctrl_tx: float):
        self.path_id = path_id
        self.nodes = nodes
        self.profile = profile
        self.j_tx = j_tx              # joules to send one data packet one hop
        self.j_ctrl_tx = j_ctrl_tx    # joules to send one control message
        self.total = total
        self.base_pkt = base_pkt
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.retrans = 0
        self.state = _RUNNING if total > 0 else _DONE
        self.hop = 0          # current hop index: nodes[hop] -> nodes[hop+1]
        self.hop_start = 0.0  # send time of the current hop
        self.attempt = 0
        self.instance = 0     # bumped on every fresh hop start
        self.armed: int | None = None  # the hop instance whose timer is pushed
        self.last_recovery_instance: int | None = None
        self.unheard: int | None = None  # hop instance with one check ended unheard
        self.resolved_time = 0.0  # the last delivery, or the failure

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def pkt(self) -> int:
        # the packet on the route: the last one injected
        return self.base_pkt + self.sent - 1


@dataclass
class TransferReport:
    distribution: Distribution
    m: int
    completion_time: float = 0.0
    path_delays: dict[int, float] = field(default_factory=dict)
    delivered: dict[int, int] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)
    retransmissions: dict[int, int] = field(default_factory=dict)
    failed_paths: list[int] = field(default_factory=list)
    fault_records: list[FaultRecord] = field(default_factory=list)
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    fabric_nodes: tuple[int, ...] = ()

    @property
    def trace_lines(self) -> list[str]:
        # only reader: bench/tracer.py's on_transfer; the lines themselves go
        # to SimConfig.trace as they are made
        return []

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def comm_energy(self) -> float:
        return _finite_sum([self.ledger.comm_for_path(p) for p in self.path_delays],
                           "communication energy")

    def to_text(self) -> str:
        out = [f"transfer packets={self.distribution.total} m={self.m}"]
        for pid in sorted(self.path_delays):
            d = self.path_delays[pid]
            delay = "failed" if math.isinf(d) else f"{d:.10g}"
            out.append(
                f"path {pid} packets={self.distribution.packets_for(pid)} "
                f"delivered={self.delivered[pid]} dropped={self.dropped[pid]} "
                f"retrans={self.retransmissions[pid]} delay={delay}")
        for fr in self.fault_records:
            rep = "-" if fr.replacement is None else str(fr.replacement)
            out.append(
                f"fault t={fr.time:.10g} path={fr.path_id} case={fr.case.value} "
                f"failed={fr.failed_node} by={fr.initiator} replacement={rep} "
                f"drove={int(fr.drove_recovery)}{' ' + fr.note if fr.note else ''}")
        out.append(f"completion {self.completion_time:.10g}")
        out.append(
            f"energy tx={self.ledger.total('tx'):.10g} rx={self.ledger.total('rx'):.10g} "
            f"idle={self.ledger.total('idle'):.10g}")
        return "\n".join(out) + "\n"


# a window builds the trace lines of at most this many hops at once, so that
# its arrays and strings stay small however long the window runs
_TRACE_CHUNK = 2048


class _WindowLines:
    """One path's trace lines in a window, built in chunks.

    A unit is a hop: an arrival's line and that of the send it starts at the
    same time, which pops right after it. The arrival that delivers the
    path's last packet starts no send. A lane is made from its path before
    the path's walk, whose hop count then sets ``units`` and whose end sets
    ``done``. Only a traced run makes lanes, so only it imports numpy here.
    """

    def __init__(self, pr: _PathRun, a: float):
        import numpy as np

        self.path_id, self.tau, self.hops = pr.path_id, pr.profile.tau, pr.hops
        # unit i holds the arrival of hop ``hop + i`` and the send of the
        # next, counting on from the hop in flight, ``hop`` of packet ``pkt``
        self.hop, self.pkt = pr.hop, pr.pkt
        self.units, self.done = 0, False
        self.next = a                             # the next unit's time
        self.taken, self.times = 0, np.empty(0)   # times: built, not taken
        links = list(zip(pr.nodes, pr.nodes[1:]))
        self.send, self.arrive = (
            np.array([f" {kind.value} {u} {v} " for u, v in links], dtype=object)
            for kind in (EventKind.PACKET_SEND, EventKind.PACKET_ARRIVE))
        self.end = f" {pr.path_id}\n"

    def build(self, n: int):
        """Build the times of the next ``n`` units not yet taken."""
        import numpy as np

        more = min(self.units, self.taken + n) - self.taken - len(self.times)
        if more > 0:  # accumulate adds in sequence: stepping's t + tau chain
            steps = np.full(more + 1, self.tau)
            steps[0] = self.next
            with np.errstate(over="ignore"):  # past the float range: inf, as in stepping
                chain = np.add.accumulate(steps)
            self.times, self.next = np.concatenate((self.times, chain[:-1])), chain[-1]

    def take(self, n: int) -> tuple:
        """The next ``n`` units: their times, the eight pieces of their two
        lines with the times left out, and which units have a send."""
        import numpy as np

        unit = np.arange(self.taken, self.taken + n)
        pos = self.hop + unit
        pkt = self.pkt + pos // self.hops
        nxt = self.pkt + (pos + 1) // self.hops
        ids = np.array([str(p) for p in range(pkt[0], nxt[-1] + 1)], dtype=object)
        pieces = np.empty((n, 8), dtype=object)
        pieces[:, 1] = self.arrive[pos % self.hops]
        pieces[:, 2] = ids[pkt - pkt[0]]
        pieces[:, 3] = pieces[:, 7] = self.end
        pieces[:, 5] = self.send[(pos + 1) % self.hops]
        pieces[:, 6] = ids[nxt - pkt[0]]
        sends = (unit < self.units - 1) | (not self.done)
        pieces[~sends, 5:] = ""
        times, self.times = self.times[:n], self.times[n:]
        self.taken += n
        return times, pieces, sends


def _write_window(trace: TextIO, lanes: list[_WindowLines]):
    """Write the lanes' lines in pop order, ``_TRACE_CHUNK`` units at a time."""
    import numpy as np

    per = max(1, _TRACE_CHUNK // len(lanes))
    while lanes:
        for lane in lanes:
            lane.build(per)
        # a unit not yet built keys after the last built unit of its path, so
        # every built unit keyed up to the least such last key can go now
        t, pid = min(((lane.times[-1], lane.path_id) for lane in lanes
                      if lane.taken + len(lane.times) < lane.units),
                     default=(math.inf, math.inf))
        parts = []
        for lane in lanes:
            n = len(lane.times) if lane.path_id == pid else int(np.searchsorted(
                lane.times, t, "right" if lane.path_id < pid else "left"))
            if n:
                parts.append((np.full(n, lane.path_id),) + lane.take(n))
        lane_ids, times, pieces, sends = map(np.concatenate, zip(*parts))
        if len(parts) > 1:  # a stable sort: each lane's units keep their order
            order = np.lexsort((lane_ids, times))
            times, pieces, sends = (x[order] for x in (times, pieces, sends))
        new = np.r_[True, times[1:] != times[:-1]]  # each distinct time formatted once
        stamps = np.array([format(x, _TRACE_TIME) for x in times[new].tolist()],
                          dtype=object)[new.cumsum() - 1]
        pieces[:, 0] = stamps
        pieces[:, 4] = np.where(sends, stamps, "")
        trace.write("".join(pieces.ravel().tolist()))
        lanes = [lane for lane in lanes if lane.taken < lane.units]


class _Engine:
    def __init__(self, g: TopologyGraph, table: RoutingTable, dist: Distribution,
                 ep: EnergyParams, link: LinkParams, faults: FaultScript | None,
                 config: SimConfig):
        self.g = g
        self.dist = dist
        self.config = config
        self.tau_ctrl = per_hop_delay(config.control_bits, link)
        rx_per_bit = rx_energy_per_bit(ep)
        self.j_rx = rx_per_bit * ep.S
        self.j_ctrl_rx = rx_per_bit * config.control_bits
        routes = {r.path_id: r for r in table.routes}
        self.paths: dict[int, _PathRun] = {}
        base = 0
        for pid, packets in dist.allocations:
            if pid not in routes:
                raise ValueError(f"distribution references unknown path {pid}")
            r = routes[pid]
            if r.profile is None:
                raise ValueError(f"route {pid} has no estimated parameters")
            tx_per_bit = tx_energy_per_bit(ep, r.profile.hop_distance)
            self.paths[pid] = _PathRun(
                pid, list(r.nodes), r.profile, packets, base,
                j_tx=tx_per_bit * ep.S, j_ctrl_tx=tx_per_bit * config.control_bits)
            base += packets
        self.heap: list[tuple[float, int, int, SimEvent]] = []
        self.seq = 0
        self.ledger = EnergyLedger(g)
        self.records: list[FaultRecord] = []
        self.fabric: set[int] = set()
        for pr in self.paths.values():
            self.fabric.update(pr.nodes)
        # nodes no repair may splice in: the table's routes and the repairs'
        self.barred = {n for r in table.routes for n in r.nodes}
        if faults:
            for fe in faults.sorted_events():
                self._push(fe.time, EventKind.FAULT_TRIGGER, payload=fe)

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: float, kind: EventKind, **kw):
        ev = SimEvent(time=time, seq=self.seq, kind=kind, **kw)
        self.seq += 1
        lane = -1 if kind is EventKind.FAULT_TRIGGER else ev.path_id
        heapq.heappush(self.heap, (time, lane, ev.seq, ev))

    def _check_death(self, node_id: int, led: NodeLedger):
        # deplete-to-zero kills the node on the spot
        if led.residual <= 0.0 and self.g.alive(node_id):
            self.g.fail_node(node_id)

    def _data_tx(self, node_id: int, pr: _PathRun, busy: float):
        self._check_death(node_id, self.ledger.charge(
            node_id, "tx", pr.j_tx, 1, busy, pr.path_id))

    def _data_rx(self, node_id: int, pr: _PathRun, busy: float):
        self._check_death(node_id, self.ledger.charge(
            node_id, "rx", self.j_rx, 1, busy, pr.path_id))

    def _ctrl_tx(self, node_id: int, pr: _PathRun):
        self._check_death(node_id, self.ledger.charge(
            node_id, "tx", pr.j_ctrl_tx, 1, self.tau_ctrl))

    def _ctrl_rx(self, node_id: int):
        self._check_death(node_id, self.ledger.charge(
            node_id, "rx", self.j_ctrl_rx, 1, self.tau_ctrl))

    # -- pipeline ---------------------------------------------------------

    def _inject(self, t: float, pr: _PathRun):
        pr.sent += 1
        pr.hop = 0
        # acquisition: the source receives the payload from its sensing stage
        if self.g.alive(pr.nodes[0]):
            self._data_rx(pr.nodes[0], pr, busy=0.0)
        self._start_hop(t, pr)

    def _start_hop(self, t: float, pr: _PathRun):
        pr.instance += 1
        pr.hop_start = t
        pr.attempt = 1
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        self._push(t, EventKind.PACKET_SEND, node_from=a, node_to=b,
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)

    def _arm_timer(self, pr: _PathRun):
        # the receiver's watchdog is due m*tau past the expected arrival;
        # it is pushed once, when the hop is first seen to fail
        if pr.armed == pr.instance:
            return
        pr.armed = pr.instance
        tau = pr.profile.tau
        self._push(pr.hop_start + tau + self.config.max_attempts * tau,
                   EventKind.TIMER_EXPIRE, node_from=pr.nodes[pr.hop + 1],
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)

    def _retry(self, t: float, pr: _PathRun):
        pr.attempt += 1
        pr.retrans += 1
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        self._push(t, EventKind.PACKET_SEND, node_from=a, node_to=b,
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)

    def _deliver(self, t: float, pr: _PathRun):
        pr.delivered += 1
        pr.resolved_time = t
        if pr.sent < pr.total:
            self._inject(t, pr)
        elif pr.delivered + pr.dropped == pr.total:
            pr.state = _DONE

    def _fail_path(self, t: float, pr: _PathRun, case: FaultCase, failed: int,
                   initiator: int, note: str):
        pr.state = _FAILED
        remaining = pr.total - pr.delivered
        pr.dropped += remaining
        pr.resolved_time = t
        self.records.append(FaultRecord(
            time=t, path_id=pr.path_id, case=case, failed_node=failed,
            initiator=initiator, replacement=None, drove_recovery=True,
            note=note or "unrecoverable"))

    def _begin_recovery(self, t: float, pr: _PathRun, case: FaultCase,
                        failed: int, initiator: int):
        pr.last_recovery_instance = pr.instance
        if failed in (pr.nodes[0], pr.nodes[-1]):
            self._fail_path(t, pr, case, failed, initiator,
                            "source/sink cannot be replaced")
            return
        # repair as discovery searches: the min-hop detour through nodes no
        # route uses, between the alive route nodes nearest the failed slot
        slot = pr.nodes.index(failed)
        lo, hi = slot - 1, slot + 1
        while lo > 0 and not self.g.alive(pr.nodes[lo]):
            lo -= 1
        while hi < len(pr.nodes) - 1 and not self.g.alive(pr.nodes[hi]):
            hi += 1
        up, down = pr.nodes[lo], pr.nodes[hi]
        if not (self.g.alive(up) and self.g.alive(down)):
            self._fail_path(t, pr, case, failed, initiator,
                            "source/sink cannot be replaced")
            return
        detour = _shortest_hops(self.g, up, down, removed=self.barred - {up, down},
                                skip_direct=True)
        if detour is None:
            self._fail_path(t, pr, case, failed, initiator, "")
            return
        spliced = detour[1:-1]
        pr.nodes[lo + 1:hi] = spliced
        seam = pr.nodes[lo:lo + len(spliced) + 2]
        for u, v in zip(seam, seam[1:]):
            if not self.g.has_edge(u, v):
                raise RuntimeError(f"the repair of path {pr.path_id} "
                                   f"spliced in a missing link {u}-{v}")
        self.barred.update(spliced)
        self.fabric.update(spliced)
        for node in spliced:  # all alive: the search only crosses live links
            self.g.activate_spare(node)
            # the detecting node briefs each spliced node over one control exchange
            self._ctrl_tx(initiator, pr)
            self._ctrl_rx(node)
        self.records.append(FaultRecord(
            time=t, path_id=pr.path_id, case=case, failed_node=failed,
            initiator=initiator, replacement=spliced[0], drove_recovery=True,
            note="" if len(spliced) == 1 else "detour " + ",".join(map(str, spliced))))
        # resume from the last alive holder of the packet once the detour is briefed
        pr.hop = lo
        self._start_hop(t + self.tau_ctrl, pr)

    # -- handlers ---------------------------------------------------------

    def _on_send(self, ev: SimEvent, pr: _PathRun):
        a = ev.node_from
        if not self.g.alive(a):
            self._arm_timer(pr)
            return  # silent sender; the receiver timer will notice
        self._push(ev.time + pr.profile.tau, EventKind.PACKET_ARRIVE,
                   node_from=a, node_to=ev.node_to, packet_id=ev.packet_id,
                   path_id=pr.path_id, instance=ev.instance)

    def _on_arrive(self, ev: SimEvent, pr: _PathRun):
        a, b = ev.node_from, ev.node_to
        if not self.g.alive(a):
            self._arm_timer(pr)
            return  # died mid-flight
        tau = pr.profile.tau
        self._data_tx(a, pr, busy=tau)
        if self.g.has_edge(a, b):
            self._data_rx(b, pr, busy=tau)
            if b == pr.nodes[-1]:
                self._data_tx(b, pr, busy=0.0)  # handoff out of the network
                self._deliver(ev.time, pr)
            else:
                pr.hop += 1
                self._start_hop(ev.time, pr)
            return
        # no ack comes back: the sender retries, then checks its radio by beacon
        self._arm_timer(pr)
        if not self.g.alive(a):
            return  # the transmission spent the sender's last energy
        if pr.attempt < self.config.max_attempts:
            self._retry(ev.time, pr)
            return
        self._beacon(ev.time, pr)

    def _beacon(self, t: float, pr: _PathRun):
        # the hop's sender checks its radio with a neighbour other than the receiver
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        c = _beacon_neighbor(self.g, a, avoid=b)
        if c is None:
            # nowhere to verify the radio: treat the upstream side as faulty
            self._begin_recovery(t, pr, FaultCase.NODE_SILENT,
                                 failed=a, initiator=a)
            return
        self._push(t, EventKind.BEACON_SEND, node_from=a, node_to=c,
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)

    def _unheard(self, t: float, pr: _PathRun, instance: int):
        """One of a failed hop's two checks, the receiver's timer or the
        sender's beacon, ended without a detection. The first leaves the
        fault to the other. After the second nothing is left to detect it,
        so the sender beacons again, through its next alive neighbour, or
        with the sender dead too the path fails."""
        if pr.state != _RUNNING or instance != pr.instance:
            return
        if pr.unheard != instance:
            pr.unheard = instance
            return
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        if self.g.alive(a):
            self._beacon(t, pr)
        else:
            self._fail_path(t, pr, FaultCase.NODE_SILENT, a, b,
                            "sender and receiver both failed")

    def _on_beacon_send(self, ev: SimEvent, pr: _PathRun):
        a, c = ev.node_from, ev.node_to
        if not self.g.alive(a):
            return
        self._ctrl_tx(a, pr)
        if self.g.alive(c):
            self._ctrl_rx(c)
        self._push(ev.time + 2 * self.tau_ctrl, EventKind.BEACON_RESULT,
                   node_from=c, node_to=a, packet_id=ev.packet_id,
                   path_id=pr.path_id, instance=ev.instance)

    def _on_beacon_result(self, ev: SimEvent, pr: _PathRun):
        c, a = ev.node_from, ev.node_to
        replied = self.g.alive(c)
        if replied:
            self._ctrl_tx(c, pr)
        if not (replied and self.g.alive(a)):
            # no reply reached the sender; the receiver's timer may detect
            self._unheard(ev.time, pr, ev.instance)
            return
        self._ctrl_rx(a)
        b = pr.nodes[pr.hop + 1]
        if pr.state == _RUNNING and ev.instance == pr.instance:
            self._begin_recovery(ev.time, pr, FaultCase.HOP_UNREACHABLE,
                                 failed=b, initiator=a)
        elif ev.instance == pr.last_recovery_instance:
            self.records.append(FaultRecord(
                time=ev.time, path_id=pr.path_id, case=FaultCase.HOP_UNREACHABLE,
                failed_node=b, initiator=a, replacement=None,
                drove_recovery=False, note="lost race"))

    def _on_timer(self, ev: SimEvent, pr: _PathRun):
        b = ev.node_from
        if pr.state == _RUNNING and ev.instance == pr.instance:
            a = pr.nodes[pr.hop]
            if self.g.alive(b):
                self._begin_recovery(ev.time, pr, FaultCase.NODE_SILENT,
                                     failed=a, initiator=b)
            elif not self.g.alive(a):
                # nobody is left to detect the fault, so the path fails
                self._fail_path(ev.time, pr, FaultCase.NODE_SILENT, a, b,
                                "sender and receiver both failed")
            else:  # the sender's beacon may detect
                self._unheard(ev.time, pr, ev.instance)
        elif ev.instance == pr.last_recovery_instance and self.g.alive(b):
            self.records.append(FaultRecord(
                time=ev.time, path_id=pr.path_id, case=FaultCase.NODE_SILENT,
                failed_node=pr.nodes[pr.hop],
                initiator=b, replacement=None,
                drove_recovery=False, note="lost race"))

    def _on_fault_trigger(self, ev: SimEvent):
        fe: FaultEvent = ev.payload
        if fe.kind == "node_fail":
            self.g.fail_node(fe.target)
        else:
            self.g.disable_link(*fe.target)

    def _stale(self, ev: SimEvent) -> bool:
        """An event no handler acts on: a hop event or timer of a path that
        stopped running or moved on to a later hop, unless it is a timer that
        lost its race to a recovery."""
        if ev.kind not in _PATH_EVENTS:
            return False
        pr = self.paths[ev.path_id]
        if pr.state == _RUNNING and ev.instance == pr.instance:
            return False
        return not (ev.kind is EventKind.TIMER_EXPIRE
                    and ev.instance == pr.last_recovery_instance)

    # -- fast-forward windows ---------------------------------------------

    def _route_intact(self, pr: _PathRun) -> bool:
        nodes = pr.nodes
        return all(self.g.has_edge(u, v) for u, v in zip(nodes, nodes[1:]))

    def _depletion_horizon(self, running: list[_PathRun], now: float) -> float:
        """A time before which no route node can spend its residual energy.

        In W seconds a path of H hops delivers at most W / (H * tau) + 3
        packets through a node, and never more than it has left; each costs
        the node at most one data transmission plus one reception.
        """
        rate: dict[int, float] = {}
        slack: dict[int, float] = {}
        cap: dict[int, float] = {}
        for pr in running:
            per_packet = pr.j_tx + self.j_rx
            per_s = per_packet / (pr.hops * pr.profile.tau)
            left = (pr.total - pr.delivered) * per_packet
            for n in pr.nodes:
                rate[n] = rate.get(n, 0.0) + per_s
                slack[n] = slack.get(n, 0.0) + 3 * per_packet
                cap[n] = cap.get(n, 0.0) + left
        horizon = math.inf
        for n, per_s in rate.items():
            budget = self.ledger.residual(n) * (1.0 - 1e-9)
            if budget > cap[n]:
                continue
            budget -= slack[n]
            if budget <= 0.0:
                return now
            horizon = min(horizon, now + budget / per_s)
        return horizon

    def _walk(self, pr: _PathRun, a: float, horizon: float) -> int:
        """Move ``pr`` through its hops that arrive before ``horizon`` and
        charge them; returns their number, and with none changes nothing.

        The hop in flight arrives at ``a``; later hop times are built by the
        same ``t + tau`` chain stepping builds.
        """
        tau = pr.profile.tau
        hops = pr.hops
        n = hops - pr.hop            # arrivals left for the packet in flight
        left = pr.total - pr.sent    # packets not yet injected
        k = delivered = 0
        s = last = 0.0               # the last send, and the last delivery
        while True:
            n0 = n
            while n and a < horizon:
                s = a
                a += tau
                n -= 1
            k += n0 - n
            if n:
                break
            delivered += 1
            last = s
            if delivered > left:
                break
            n = hops
        if not k:
            return 0
        done = delivered > left
        injects = delivered - done
        # arrivals per hop index
        full, extra = divmod(k, hops)
        arrivals = [full + ((h - pr.hop) % hops < extra) for h in range(hops)]
        # node i sends hop i and receives hop i - 1, on air for tau each; the
        # source's acquisition of each injected packet and the sink's handoff
        # of each delivered one are off the air
        for i, node in enumerate(pr.nodes):
            tx = (arrivals[i], tau) if i < hops else (delivered, 0.0)
            rx = (arrivals[i - 1], tau) if i else (injects, 0.0)
            for part, joules, (count, busy) in (("tx", pr.j_tx, tx), ("rx", self.j_rx, rx)):
                if count:  # stepping would charge no zero count either
                    self.ledger.charge(node, part, joules, count, busy, pr.path_id)
        pr.delivered += delivered
        pr.sent += injects
        if delivered:
            pr.resolved_time = last
        if done:
            pr.state = _DONE
            pr.hop = hops - 1
            pr.instance += k - 1
        else:
            pr.hop = (pr.hop + k) % hops
            pr.instance += k
            pr.hop_start = s
        return k

    def _fast_forward(self, now: float) -> bool:
        """Advance every running path through one window that ends before
        the next possible disruption; ``now`` is the earliest pending event
        time, and every event popped so far is earlier. A window opens only
        when each running path's one live event is its hop in flight.
        Returns False, having changed nothing, when no path can advance.
        """
        running = [self.paths[pid] for pid in sorted(self.paths)
                   if self.paths[pid].state == _RUNNING]
        if not all(self._route_intact(pr) for pr in running):
            return False
        horizon = self._depletion_horizon(running, now)
        kept: list[tuple[float, int, int, SimEvent]] = []
        pending: dict[int, list] = {pr.path_id: [] for pr in running}
        for item in self.heap:
            ev = item[-1]
            if self._stale(ev):
                continue
            pr = self.paths.get(ev.path_id)
            if (ev.kind not in _WINDOW_STOPS and pr.state == _RUNNING
                    and ev.instance == pr.instance):
                pending[pr.path_id].append(item)
            else:
                kept.append(item)
                horizon = min(horizon, item[0])
        if horizon <= now:
            return False
        if any(len(items) != 1 or items[0][-1].kind is not EventKind.PACKET_ARRIVE
               for items in pending.values()):
            return False
        trace = self.config.trace
        walked, lanes = [], []
        for pr in running:
            (item,) = pending[pr.path_id]
            lane = _WindowLines(pr, item[0]) if trace is not None else None
            k = self._walk(pr, item[0], horizon)
            if not k:
                kept.append(item)
                continue
            walked.append(pr)
            if lane is not None:
                lane.units, lane.done = k, pr.state == _DONE
                lanes.append(lane)
        if not walked:
            return False
        if lanes:
            _write_window(trace, lanes)  # every path's lines in pop order
        kept.sort()
        self.heap[:] = kept
        for pr in walked:
            if pr.state == _RUNNING:  # a hop still in flight
                self._push(pr.hop_start + pr.profile.tau, EventKind.PACKET_ARRIVE,
                           node_from=pr.nodes[pr.hop], node_to=pr.nodes[pr.hop + 1],
                           packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)
        return True

    # -- main loop --------------------------------------------------------

    def run(self) -> TransferReport:
        for pid in sorted(self.paths):
            pr = self.paths[pid]
            if pr.total > 0:
                self._inject(0.0, pr)
        last_key = (-math.inf, -1, -1)
        trace = self.config.trace
        handlers = {EventKind.PACKET_SEND: self._on_send,
                    EventKind.PACKET_ARRIVE: self._on_arrive,
                    EventKind.BEACON_SEND: self._on_beacon_send,
                    EventKind.BEACON_RESULT: self._on_beacon_result,
                    EventKind.TIMER_EXPIRE: self._on_timer}
        while self.heap:
            # windows start only between time steps, so that every event a
            # window consumes is later than every event popped before it
            if (self.heap[0][0] > last_key[0]
                    and self._fast_forward(self.heap[0][0])):
                continue
            time, lane, seq, ev = heapq.heappop(self.heap)
            key = (time, lane, seq)
            if key <= last_key:
                raise RuntimeError(
                    f"event order went backwards on path {ev.path_id}: "
                    f"{key!r} popped after {last_key!r}")
            last_key = key
            if self._stale(ev):
                continue
            if trace is not None:
                trace.write(ev.trace_line())
            if ev.kind is EventKind.FAULT_TRIGGER:
                self._on_fault_trigger(ev)
            else:
                handlers[ev.kind](ev, self.paths[ev.path_id])
        report = TransferReport(distribution=self.dist, m=self.config.max_attempts,
                                ledger=self.ledger)
        for pid in sorted(self.paths):
            pr = self.paths[pid]
            if pr.state == _RUNNING:
                raise RuntimeError(f"path {pid} stalled without detection")
            if pr.delivered + pr.dropped != pr.total:
                raise RuntimeError(
                    f"packet conservation broken on path {pid}: delivered "
                    f"{pr.delivered} + dropped {pr.dropped} != allocated {pr.total}")
            report.delivered[pid] = pr.delivered
            report.dropped[pid] = pr.dropped
            report.retransmissions[pid] = pr.retrans
            if pr.state == _FAILED:
                report.failed_paths.append(pid)
                report.path_delays[pid] = math.inf
            else:
                report.path_delays[pid] = pr.resolved_time
        report.completion_time = max(
            (pr.resolved_time for pr in self.paths.values()), default=0.0)
        if not math.isfinite(report.completion_time):
            raise ValueError("the transfer's completion time overflows")
        report.fault_records = self.records
        report.fabric_nodes = tuple(sorted(self.fabric))
        # fabric radios idle for the round minus their time on air
        for nid in report.fabric_nodes:
            if self.g.alive(nid):
                led = self.ledger.ensure(nid)
                led.idle = self.config.idle_power * max(
                    0.0, report.completion_time - led.time_on_air)
        # energy totals past the float range raise here, as the completion
        # time does, and not in whichever reader takes them first
        report.comm_energy()
        self.ledger.total("idle")
        self.ledger.settle()
        return report


def run_transfer(g: TopologyGraph, table: RoutingTable, dist: Distribution,
                 ep: EnergyParams, link: LinkParams,
                 faults: FaultScript | None = None,
                 config: SimConfig | None = None) -> TransferReport:
    """Simulate one transfer of ``dist`` over the table's routes.

    The run writes ``g`` (faults, spares, residual energy), so each run takes
    its own graph. A route node already dead in ``g`` is a fault at t=0.
    """
    return _Engine(g, table, dist, ep, link, faults, config or SimConfig()).run()
