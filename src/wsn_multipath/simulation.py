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
non-driving detection. Recovery swaps the unreachable node for the nearest
redundant spare and resumes from the last holder of the packet. When both ends
of the hop are dead nobody is left to detect the fault, so the path fails when
the receiver's timer is due and drops its remaining packets. Both checks act
only on a failed hop, so a hop is a send and an arrival: an arrival over a
missing link decides the ack timeout due at that instant, and the receiver's
timer is pushed when the hop is first seen to fail, under the ``(time, seq)``
key it took when the hop was sent.

Between disruptions a path's progress follows from its hop time and per-hop
charges alone, so the engine advances every path in one window instead of
stepping every hop. A disruption is the next scripted fault, a pending beacon
exchange or detection timer, a route with a dead node or broken link, or a
route node whose residual energy could reach zero. The window's flat loop
applies the per-hop handlers' charges in the same per-path order and builds
hop times by the same chain of ``t + tau`` additions; a closed form such as
``t0 + k * H * tau`` would change the low bits and could move a hop across a
fault scheduled on it. The source and sink, which every path charges, take
those charges in the order stepping would pop the arrivals. At the window's
end each in-flight ``PacketArrive`` goes back on the heap and its timer's key
is taken, in the order stepping would make them, since same-time events of
different paths pop in push order; stale events, which the handlers would
ignore, are dropped. The result is bit-identical to stepping.
``SimConfig.trace`` steps every event, and the trace lists each one the engine
acts on, in pop order.
"""

from __future__ import annotations

import heapq
import math
from heapq import merge
from dataclasses import dataclass, field
from enum import Enum

from .model import EnergyParams, LinkParams, PathProfile, per_hop_delay
from .distribution import Distribution
from .routing import RoutingTable, replace_failed_node
from .topology import TopologyGraph, UnrecoverableFailureError

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
    "TransferActiveError",
    "run_transfer",
]


class EventKind(Enum):
    PACKET_SEND = "PacketSend"
    PACKET_ARRIVE = "PacketArrive"
    BEACON_SEND = "BeaconSend"
    BEACON_RESULT = "BeaconResult"
    TIMER_EXPIRE = "TimerExpire"
    FAULT_TRIGGER = "FaultTrigger"


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
        def f(v):
            return "-" if v is None else str(v)
        return (f"{self.time:.10g} {self.kind.value} {f(self.node_from)} "
                f"{f(self.node_to)} {f(self.packet_id)} {f(self.path_id)}")


def _finite_sum(values: list[float], what: str) -> float:
    """``math.fsum`` of ``values``, refusing a total past the float range."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # intermediate overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise ValueError(f"the {what} total overflows")
    return total


class TransferActiveError(RuntimeError):
    """A transfer is already running on this topology."""


class _Kahan:
    """Compensated accumulator; keeps long charge sums near fsum accuracy."""

    __slots__ = ("value", "_c")

    def __init__(self):
        self.value = 0.0
        self._c = 0.0

    def add(self, x: float):
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t

    def add_repeat(self, x: float, n: int):
        """``add(x)`` n times, with the same rounding."""
        v, c = self.value, self._c
        for _ in range(n):
            y = x - c
            t = v + y
            c = (t - v) - y
            v = t
        self.value, self._c = v, c

    def add_alternate(self, x1: float, x2: float, pairs: int):
        """``add(x1); add(x2)`` ``pairs`` times, with the same rounding."""
        v, c = self.value, self._c
        for _ in range(pairs):
            y = x1 - c
            t = v + y
            c = (t - v) - y
            v = t
            y = x2 - c
            t = v + y
            c = (t - v) - y
            v = t
        self.value, self._c = v, c


@dataclass
class NodeLedger:
    initial: float
    tx: _Kahan = field(default_factory=_Kahan)
    rx: _Kahan = field(default_factory=_Kahan)
    idle: _Kahan = field(default_factory=_Kahan)
    busy: float = 0.0

    @property
    def consumed(self) -> float:
        return self.tx.value + self.rx.value + self.idle.value

    @property
    def residual(self) -> float:
        return self.initial - self.consumed


class EnergyLedger:
    """Per-node energy bookkeeping plus per-path communication totals.

    A node's ledger is made on its first charge, starting from the residual
    the graph holds for it then, so ``nodes`` holds exactly the nodes that
    took a charge. Until ``settle`` hands the residuals back to the graph,
    ``residual`` of an uncharged node is the graph's value.
    """

    def __init__(self, g: TopologyGraph | None = None):
        self._g = g
        self.nodes: dict[int, NodeLedger] = {}
        self.path_comm: dict[int, _Kahan] = {}

    def ensure(self, node_id: int) -> NodeLedger:
        led = self.nodes.get(node_id)
        if led is None:
            led = self.nodes[node_id] = NodeLedger(
                initial=self._g.nodes[node_id].residual_energy)
        return led

    def _path(self, path_id: int) -> _Kahan:
        if path_id not in self.path_comm:
            self.path_comm[path_id] = _Kahan()
        return self.path_comm[path_id]

    def charge(self, node_id: int, part: str, joules: float, busy: float = 0.0,
               path_id: int | None = None) -> NodeLedger:
        """Add ``joules`` to the node's ``part`` ("tx" or "rx")."""
        led = self.ensure(node_id)
        getattr(led, part).add(joules)
        led.busy += busy
        if path_id is not None:
            self._path(path_id).add(joules)
        return led

    def residual(self, node_id: int) -> float:
        led = self.nodes.get(node_id)
        return led.residual if led else self._g.nodes[node_id].residual_energy

    def settle(self):
        """Write every charged node's residual back to the graph, and let
        go of the graph."""
        for nid, led in self.nodes.items():
            self._g.set_residual(nid, led.residual)
        self._g = None

    def comm_for_path(self, path_id: int) -> float:
        acc = self.path_comm.get(path_id)
        return acc.value if acc else 0.0

    def total(self, component: str) -> float:
        return _finite_sum([getattr(led, component).value for led in self.nodes.values()],
                           f"{component} energy")


@dataclass(frozen=True)
class FaultEvent:
    time: float
    kind: str  # node_fail | link_fail
    target: int | tuple[int, int]

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind not in ("node_fail", "link_fail"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "link_fail" and not (isinstance(self.target, tuple) and len(self.target) == 2):
            raise ValueError("link_fail target must be a (u, v) pair")
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
    trace: bool = False


_RUNNING, _FAILED, _DONE = "running", "failed", "done"

# pending events that end a window at their time
_WINDOW_STOPS = (EventKind.FAULT_TRIGGER, EventKind.BEACON_SEND,
                 EventKind.BEACON_RESULT)
# the one pending event of a path that a window may advance: a hop about to
# be sent, or a hop in flight
_CLEAN_HOPS = (EventKind.PACKET_SEND, EventKind.PACKET_ARRIVE)


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
        self.pkt: int | None = None
        self.hop = 0          # current hop index: nodes[hop] -> nodes[hop+1]
        self.hop_start = 0.0  # send time of the current hop
        self.attempt = 0
        self.instance = 0     # bumped on every fresh hop start
        self.deadline: tuple[float, int] | None = None  # hop's timer key until pushed
        self.last_recovery_instance: int | None = None
        self.delivery_time = 0.0
        self.resolved_time = 0.0

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


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
    trace_lines: list[str] = field(default_factory=list)
    fabric_nodes: tuple[int, ...] = ()

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


class _Engine:
    def __init__(self, g: TopologyGraph, table: RoutingTable, dist: Distribution,
                 ep: EnergyParams, link: LinkParams, faults: FaultScript | None,
                 config: SimConfig, destination: int | None):
        table.check_fresh(g)
        self.g = g
        self.dist = dist
        self.config = config
        self.tau_ctrl = per_hop_delay(config.control_bits, link)
        self.j_rx = ep.e_r * ep.T_2b * ep.S
        self.j_ctrl_rx = ep.e_r * ep.T_2b * config.control_bits
        dest = destination if destination is not None else table.single_destination()
        routes = {r.path_id: r for r in table.routes_for(dest)}
        self.paths: dict[int, _PathRun] = {}
        base = 0
        for pid, packets in dist.allocations:
            if pid not in routes:
                raise ValueError(f"distribution references unknown path {pid}")
            r = routes[pid]
            if r.profile is None:
                raise ValueError(f"route {pid} has no estimated parameters")
            power = ep.amplified_tx_power(r.profile.hop_distance)
            self.paths[pid] = _PathRun(
                pid, list(r.nodes), r.profile, packets, base,
                j_tx=power * ep.T_1b * ep.S,
                j_ctrl_tx=power * ep.T_1b * config.control_bits)
            base += packets
        self.heap: list[tuple[float, int, SimEvent]] = []
        self.seq = 0
        self.ledger = EnergyLedger(g)
        self.records: list[FaultRecord] = []
        self.trace: list[str] = []
        self.fabric: set[int] = set()
        for pr in self.paths.values():
            self.fabric.update(pr.nodes)
        if faults:
            for fe in faults.sorted_events():
                self._push(fe.time, EventKind.FAULT_TRIGGER, payload=fe)

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: float, kind: EventKind, **kw):
        ev = SimEvent(time=time, seq=self.seq, kind=kind, **kw)
        self.seq += 1
        heapq.heappush(self.heap, (time, ev.seq, ev))

    def _alive(self, node_id: int) -> bool:
        n = self.g.nodes.get(node_id)
        return n is not None and n.alive

    def _check_death(self, node_id: int, led: NodeLedger):
        # deplete-to-zero kills the node on the spot
        if led.residual <= 0.0 and self._alive(node_id):
            self.g.fail_node(node_id)

    def _data_tx(self, node_id: int, pr: _PathRun, busy: float):
        self._check_death(node_id, self.ledger.charge(
            node_id, "tx", pr.j_tx, busy, pr.path_id))

    def _data_rx(self, node_id: int, pr: _PathRun, busy: float):
        self._check_death(node_id, self.ledger.charge(
            node_id, "rx", self.j_rx, busy, pr.path_id))

    def _ctrl_tx(self, node_id: int, pr: _PathRun):
        self._check_death(node_id, self.ledger.charge(
            node_id, "tx", pr.j_ctrl_tx, self.tau_ctrl))

    def _ctrl_rx(self, node_id: int):
        self._check_death(node_id, self.ledger.charge(
            node_id, "rx", self.j_ctrl_rx, self.tau_ctrl))

    # -- pipeline ---------------------------------------------------------

    def _inject(self, t: float, pr: _PathRun):
        pr.pkt = pr.base_pkt + pr.sent
        pr.sent += 1
        pr.hop = 0
        # acquisition: the source receives the payload from its sensing stage
        if self._alive(pr.nodes[0]):
            self._data_rx(pr.nodes[0], pr, busy=0.0)
        self._start_hop(t, pr)

    def _start_hop(self, t: float, pr: _PathRun):
        pr.instance += 1
        pr.hop_start = t
        pr.attempt = 1
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        self._push(t, EventKind.PACKET_SEND, node_from=a, node_to=b,
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)
        self._reserve_timer(pr)

    def _reserve_timer(self, pr: _PathRun):
        # the receiver's watchdog is due m*tau past the expected arrival;
        # _arm_timer pushes it under this key if the hop fails
        tau = pr.profile.tau
        pr.deadline = (pr.hop_start + tau + self.config.max_attempts * tau, self.seq)
        self.seq += 1

    def _arm_timer(self, pr: _PathRun):
        if pr.deadline is None:
            return
        time, seq = pr.deadline
        pr.deadline = None
        heapq.heappush(self.heap, (time, seq, SimEvent(
            time=time, seq=seq, kind=EventKind.TIMER_EXPIRE,
            node_from=pr.nodes[pr.hop + 1], packet_id=pr.pkt,
            path_id=pr.path_id, instance=pr.instance)))

    def _retry(self, t: float, pr: _PathRun):
        pr.attempt += 1
        pr.retrans += 1
        a, b = pr.nodes[pr.hop], pr.nodes[pr.hop + 1]
        self._push(t, EventKind.PACKET_SEND, node_from=a, node_to=b,
                   packet_id=pr.pkt, path_id=pr.path_id, instance=pr.instance)

    def _deliver(self, t: float, pr: _PathRun):
        pr.delivered += 1
        pr.delivery_time = t
        pr.resolved_time = t
        pr.pkt = None
        if pr.sent < pr.total:
            self._inject(t, pr)
        elif pr.delivered + pr.dropped == pr.total:
            pr.state = _DONE

    def _fail_path(self, t: float, pr: _PathRun, case: FaultCase, failed: int,
                   initiator: int, note: str):
        pr.state = _FAILED
        remaining = pr.total - pr.delivered
        pr.dropped += remaining
        pr.pkt = None
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
        try:
            spare = replace_failed_node(self.g, failed, near=initiator,
                                        exclude=frozenset(self.fabric))
        except UnrecoverableFailureError:
            self._fail_path(t, pr, case, failed, initiator, "")
            return
        slot = pr.nodes.index(failed)
        pr.nodes[slot] = spare
        self.fabric.add(spare)
        # the detecting node briefs the spare over one control exchange
        self._ctrl_tx(initiator, pr)
        if self._alive(spare):
            self._ctrl_rx(spare)
        self.records.append(FaultRecord(
            time=t, path_id=pr.path_id, case=case, failed_node=failed,
            initiator=initiator, replacement=spare, drove_recovery=True))
        pr.state = _RUNNING
        # resume from the last holder of the packet once the spare is briefed
        if case is FaultCase.NODE_SILENT:
            pr.hop = slot - 1
        self._start_hop(t + self.tau_ctrl, pr)

    # -- handlers ---------------------------------------------------------

    def _on_send(self, ev: SimEvent, pr: _PathRun):
        if pr.state != _RUNNING or ev.instance != pr.instance:
            return
        a = ev.node_from
        if not self._alive(a):
            self._arm_timer(pr)
            return  # silent sender; the receiver timer will notice
        self._push(ev.time + pr.profile.tau, EventKind.PACKET_ARRIVE,
                   node_from=a, node_to=ev.node_to, packet_id=ev.packet_id,
                   path_id=pr.path_id, instance=ev.instance)

    def _on_arrive(self, ev: SimEvent, pr: _PathRun):
        if pr.state != _RUNNING or ev.instance != pr.instance:
            return
        a, b = ev.node_from, ev.node_to
        if not self._alive(a):
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
        if not self._alive(a):
            return  # the transmission spent the sender's last energy
        if pr.attempt < self.config.max_attempts:
            self._retry(ev.time, pr)
            return
        c = _beacon_neighbor(self.g, a, avoid=b)
        if c is None:
            # nowhere to verify the radio: treat the upstream side as faulty
            self._begin_recovery(ev.time, pr, FaultCase.NODE_SILENT,
                                 failed=a, initiator=a)
            return
        self._push(ev.time, EventKind.BEACON_SEND, node_from=a, node_to=c,
                   packet_id=ev.packet_id, path_id=pr.path_id,
                   instance=ev.instance)

    def _on_beacon_send(self, ev: SimEvent, pr: _PathRun):
        a, c = ev.node_from, ev.node_to
        if not self._alive(a):
            return
        self._ctrl_tx(a, pr)
        if self._alive(c):
            self._ctrl_rx(c)
        self._push(ev.time + 2 * self.tau_ctrl, EventKind.BEACON_RESULT,
                   node_from=c, node_to=a, packet_id=ev.packet_id,
                   path_id=pr.path_id, instance=ev.instance)

    def _on_beacon_result(self, ev: SimEvent, pr: _PathRun):
        c, a = ev.node_from, ev.node_to
        if not self._alive(c):
            return
        self._ctrl_tx(c, pr)
        if not self._alive(a):
            return  # requester gone; its receiver-side timer path takes over
        self._ctrl_rx(a)
        b = pr.nodes[pr.hop + 1] if pr.hop + 1 < len(pr.nodes) else a
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
            if self._alive(b):
                self._begin_recovery(ev.time, pr, FaultCase.NODE_SILENT,
                                     failed=a, initiator=b)
            elif not self._alive(a):
                # nobody is left to detect the fault, so the path fails
                self._fail_path(ev.time, pr, FaultCase.NODE_SILENT, a, b,
                                "sender and receiver both failed")
        elif ev.instance == pr.last_recovery_instance and self._alive(b):
            self.records.append(FaultRecord(
                time=ev.time, path_id=pr.path_id, case=FaultCase.NODE_SILENT,
                failed_node=pr.nodes[pr.hop] if pr.hop < len(pr.nodes) else b,
                initiator=b, replacement=None,
                drove_recovery=False, note="lost race"))

    def _on_fault_trigger(self, ev: SimEvent):
        fe: FaultEvent = ev.payload
        if fe.kind == "node_fail":
            self.g.fail_node(fe.target)
        else:
            self.g.disable_link(*fe.target)

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

    def _advance(self, pr: _PathRun, s: float, a: float, horizon: float,
                 entry: tuple, out: list):
        """Complete every hop of ``pr`` that arrives before ``horizon``.

        The hop in flight was sent at ``s`` and arrives at ``a``. Applies the
        charges and state changes the per-hop handlers would, except the
        source's and sink's transmissions and busy time, which other paths
        share: for each of those it yields ``((arrival, send time) + entry,
        node, pr)``, in time order. Once exhausted it leaves the number of
        arrivals and the send time of the hop now in flight (or of the last
        one) in ``out``.
        """
        tau = pr.profile.tau
        hops = pr.hops
        source, sink = pr.nodes[0], pr.nodes[-1]
        n = hops - pr.hop            # arrivals left for the packet in flight
        left = pr.total - pr.sent    # packets not yet injected
        prev = s
        k = delivered = 0
        last = 0.0
        while True:
            n0 = n
            if n == hops and a < horizon:
                yield (a, s) + entry, source, pr
            while n and a < horizon:
                prev = s
                s = a
                a += tau
                n -= 1
            k += n0 - n
            if n:
                break
            yield (s, prev) + entry, sink, pr
            delivered += 1
            last = s
            if delivered > left:
                break
            n = hops
        out[:] = k, s
        if not k:
            return
        done = delivered > left
        injects = delivered - done
        # arrivals per hop index; the sink's handoff and the source's
        # acquisition ride on deliveries and injections
        full, extra = divmod(k, hops)
        arrivals = [full + ((h - pr.hop) % hops < extra) for h in range(hops)]
        for i, node in enumerate(pr.nodes):
            n_rx = arrivals[i - 1] if i else injects
            n_tx = arrivals[i] if 0 < i < hops else 0
            if not n_rx + n_tx:
                continue  # stepping would make this node no ledger either
            led = self.ledger.ensure(node)
            led.rx.add_repeat(self.j_rx, n_rx)
            led.tx.add_repeat(pr.j_tx, n_tx)
            if 0 < i < hops:
                busy = led.busy
                for _ in range(n_tx + n_rx):
                    busy += tau
                led.busy = busy
        # each arrival charges tx then rx, each delivery tx then, if it injects, rx
        comm = self.ledger._path(pr.path_id)
        comm.add_alternate(pr.j_tx, self.j_rx, k + injects)
        if done:
            comm.add(pr.j_tx)
        pr.delivered += delivered
        pr.sent += injects
        if delivered:
            pr.delivery_time = pr.resolved_time = last
        if done:
            pr.state = _DONE
            pr.pkt = None
            pr.hop = hops - 1
            pr.instance += k - 1
        else:
            pr.hop = hops - n
            pr.pkt = pr.base_pkt + pr.sent - 1
            pr.instance += k
            pr.hop_start = s

    def _fast_forward(self, now: float) -> bool:
        """Advance every running path through one window that ends before
        the next possible disruption; ``now`` is the earliest pending event
        time, and every event popped so far is earlier. Returns False, having
        changed nothing, when no path can advance.
        """
        running = [self.paths[pid] for pid in sorted(self.paths)
                   if self.paths[pid].state == _RUNNING]
        if not all(self._route_intact(pr) for pr in running):
            return False
        horizon = self._depletion_horizon(running, now)
        kept: list[tuple[float, int, SimEvent]] = []
        pending: dict[int, list] = {pr.path_id: [] for pr in running}
        for item in self.heap:
            ev = item[2]
            pr = self.paths.get(ev.path_id)
            if ev.kind in _WINDOW_STOPS or (ev.kind is EventKind.TIMER_EXPIRE
                                            and ev.instance == pr.last_recovery_instance):
                kept.append(item)
                horizon = min(horizon, item[0])
            elif pr.state == _RUNNING and ev.instance == pr.instance:
                pending[pr.path_id].append(item)
            # anything else is stale: its handler would ignore it
        if horizon <= now:
            return False
        walks, chains = [], []
        for pr in running:
            # _advance is a generator: nothing changes until merge runs it
            items = pending[pr.path_id]
            if len(items) != 1 or items[0][2].kind not in _CLEAN_HOPS:
                return False
            item = t0, seq0, first = items[0]
            sending = first.kind is EventKind.PACKET_SEND
            if sending and t0 >= horizon:
                kept.append(item)
                continue
            tau = pr.profile.tau
            s, a = (t0, t0 + tau) if sending else (pr.hop_start, t0)
            # the sort keys order the charges and pushes as stepping would
            # make them: by the time of the pop that makes them, arrivals
            # before the sends they start; events that then share a time
            # belong to paths with one tau moving in step, ordered by how
            # each path entered the window. A path entering later had its
            # event on the heap before an in-step path's event at that time
            # was pushed; at one entry time a pending send precedes the send
            # a pending arrival will start
            entry = (-t0, not sending, seq0)
            out = []
            chains.append(self._advance(pr, s, a, horizon, entry, out))
            walks.append((pr, item, sending, entry, out))
        # the source's and sink's charges from every path, in pop order
        for _, node, pr in merge(*chains):
            led = self.ledger.ensure(node)
            led.tx.add(pr.j_tx)
            led.busy += pr.profile.tau
        pushes = []
        advanced = False
        for pr, item, sending, entry, (k, s) in walks:
            if k:
                if pr.state == _RUNNING:
                    pushes.append(((s, 0) + entry, pr))  # its timer's key
                    pushes.append(((s, 1) + entry, pr))  # its arrival
            elif sending:
                pushes.append(((s, 1) + entry, pr))
            else:
                kept.append(item)
                continue
            advanced = True
        if not advanced:
            return False
        kept.sort()
        self.heap[:] = kept
        pushes.sort(key=lambda p: p[0])
        for key, pr in pushes:
            if key[1] == 0:
                self._reserve_timer(pr)
            else:
                self._push(pr.hop_start + pr.profile.tau, EventKind.PACKET_ARRIVE,
                           node_from=pr.nodes[pr.hop], node_to=pr.nodes[pr.hop + 1],
                           packet_id=pr.pkt, path_id=pr.path_id,
                           instance=pr.instance)
        return True

    # -- main loop --------------------------------------------------------

    def run(self) -> TransferReport:
        for pid in sorted(self.paths):
            pr = self.paths[pid]
            if pr.total > 0:
                self._inject(0.0, pr)
        last_key = (-1.0, -1)
        fast = not self.config.trace
        handlers = {EventKind.PACKET_SEND: self._on_send,
                    EventKind.PACKET_ARRIVE: self._on_arrive,
                    EventKind.BEACON_SEND: self._on_beacon_send,
                    EventKind.BEACON_RESULT: self._on_beacon_result,
                    EventKind.TIMER_EXPIRE: self._on_timer}
        while self.heap:
            # windows start only between time steps, so that every event a
            # window consumes is later than every event popped before it
            if (fast and self.heap[0][0] > last_key[0]
                    and self._fast_forward(self.heap[0][0])):
                continue
            time, seq, ev = heapq.heappop(self.heap)
            if (time, seq) <= last_key:
                raise RuntimeError(
                    f"event order went backwards on path {ev.path_id}: "
                    f"(t={time!r}, seq={seq}) popped after {last_key!r}")
            last_key = (time, seq)
            if self.config.trace:
                self.trace.append(ev.trace_line())
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
                report.path_delays[pid] = pr.delivery_time
        report.completion_time = max(
            (pr.resolved_time for pr in self.paths.values()), default=0.0)
        if not math.isfinite(report.completion_time):
            raise ValueError("the transfer's completion time overflows")
        report.fault_records = self.records
        report.trace_lines = self.trace
        report.fabric_nodes = tuple(sorted(self.fabric))
        # fabric radios idle for the round minus their time on air
        for nid in report.fabric_nodes:
            if self._alive(nid):
                led = self.ledger.ensure(nid)
                led.idle.add(self.config.idle_power
                             * max(0.0, report.completion_time - led.busy))
        self.ledger.settle()
        return report


def run_transfer(g: TopologyGraph, table: RoutingTable, dist: Distribution,
                 ep: EnergyParams, link: LinkParams,
                 faults: FaultScript | None = None,
                 config: SimConfig | None = None,
                 destination: int | None = None) -> TransferReport:
    """Simulate one transfer of ``dist`` over the table's routes.

    Only one transfer may run on a topology at a time; reentrant calls are
    rejected.
    """
    if getattr(g, "_transfer_active", False):
        raise TransferActiveError("a transfer is already running on this topology")
    g._transfer_active = True
    try:
        engine = _Engine(g, table, dist, ep, link, faults,
                         config or SimConfig(), destination)
        return engine.run()
    finally:
        g._transfer_active = False
