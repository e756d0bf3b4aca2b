import hashlib
import heapq
import io
import math
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsn_multipath import (
    Distribution,
    EnergyParams,
    FaultCase,
    FaultEvent,
    FaultScript,
    LinkParams,
    PathProfile,
    Route,
    RoutingTable,
    ScenarioConfig,
    Scheme,
    SimConfig,
    TopologyGraph,
    allocate,
    build_network,
    parse_scenario,
    path_energy,
    run_comparison,
    run_transfer,
)
from wsn_multipath import simulation
from wsn_multipath.model import rx_energy_per_bit
from wsn_multipath.simulation import EventKind, _Engine

SINGLE_PATH_TEXT = """
paths.hops 5
paths.tau 0.02
paths.distance 100
paths.redundant {spares}
packets {packets}
schemes 3
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
"""

TAU, TC, M = 0.02, 0.002, 5


def single_path_net(packets=1, spares=1):
    cfg = parse_scenario(SINGLE_PATH_TEXT.format(packets=packets, spares=spares))
    g, table = build_network(cfg)
    profiles = [r.profile for r in table.routes]
    dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, packets)
    return cfg, g, table, dist


def bench_net(bench_scenario_text, packets=100):
    cfg = parse_scenario(bench_scenario_text)
    cfg.packets = packets
    g, table = build_network(cfg)
    profiles = [r.profile for r in table.routes]
    return cfg, g, table, profiles


class TestFaultEvent:
    @pytest.mark.parametrize("time, kind, target", [
        (math.nan, "node_fail", 3),
        (math.inf, "node_fail", 3),
        (0.1, "link_fail", (3, 3)),
    ])
    def test_rejects_bad_event(self, time, kind, target):
        with pytest.raises(ValueError):
            FaultEvent(time=time, kind=kind, target=target)


class TestFaultFreeTransfer:
    def test_per_path_delay_matches_closed_form(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link)
        for p in profiles:
            want = 20 * p.tau * p.H
            assert rep.path_delays[p.path_id] == pytest.approx(want, rel=1e-9)
        assert rep.completion_time == pytest.approx(8.8, rel=1e-9)
        assert rep.total_delivered == 100

    def test_comm_energy_matches_traffic_term(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link)
        for p in profiles:
            delta = dist.packets_for(p.path_id)
            traffic = path_energy(cfg.ep, p, delta) - cfg.ep.K_r * (p.H + 1)
            assert rep.ledger.comm_for_path(p.path_id) == pytest.approx(
                traffic, rel=1e-6)

    def test_no_faults_no_records_no_drops(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(Scheme.SINGLE_PATH, cfg.ep, profiles, 50)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link)
        assert rep.fault_records == []
        assert rep.total_dropped == 0
        assert rep.retransmissions == {p.path_id: 0 for p in profiles}

    def test_zero_packets(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 0)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link)
        assert rep.completion_time == 0.0
        assert rep.total_delivered == 0


class TestCaseOneRecovery:
    def run(self, fail_time=0.05):
        cfg, g, table, dist = single_path_net()
        faults = FaultScript([FaultEvent(time=fail_time, kind="node_fail", target=3)])
        trace = io.StringIO()
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           config=SimConfig(trace=trace))
        self.lines = trace.getvalue().splitlines()
        return rep

    def test_delay_overhead(self):
        rep = self.run()
        # baseline H*tau plus: timer m*tau, briefing tau_ctrl, two extra hops
        want = 5 * TAU + (M * TAU + TC + 2 * TAU)
        assert rep.path_delays[1] == pytest.approx(want, rel=1e-9)
        assert rep.total_delivered == 1

    def test_classification_and_replacement(self):
        rep = self.run()
        driving = [fr for fr in rep.fault_records if fr.drove_recovery]
        assert len(driving) == 1
        fr = driving[0]
        assert fr.case is FaultCase.NODE_SILENT
        assert fr.failed_node == 3
        assert fr.initiator == 4  # downstream neighbor's timer
        assert fr.replacement == 6  # the scenario's one spare

    def test_a_spare_on_a_route_is_not_borrowed(self):
        # spare 6 stands in node 2's slot and node 2 is dead; recovery bars
        # the table's nodes, so node 3's slot goes to spare 7, though 6 is
        # nearer the initiator
        cfg, g, table, dist = single_path_net(spares=2)
        (route,) = table.routes
        table = RoutingTable(0, 1, (Route(1, (0, 6, 3, 4, 5, 1), route.profile),))
        faults = FaultScript([FaultEvent(time=0.0, kind="node_fail", target=2),
                              FaultEvent(time=0.05, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        assert g.distance(4, 6) < g.distance(4, 7)
        driving = [fr for fr in rep.fault_records if fr.drove_recovery]
        assert [(fr.failed_node, fr.initiator, fr.replacement) for fr in driving] == [(3, 4, 7)]
        assert rep.total_delivered == 1

    def test_timer_fires_exactly_m_tau_after_expected_arrival(self):
        self.run()
        sends = [l for l in self.lines if " PacketSend 3 4 " in l]
        timers = [l for l in self.lines if l.split()[1] == "TimerExpire"
                  and l.split()[2] == "4"]
        t_send = float(sends[0].split()[0])
        t_fire = float(timers[0].split()[0])
        assert t_fire == (t_send + TAU) + M * TAU  # exact float equality


class TestCaseTwoRecovery:
    def run(self):
        cfg, g, table, dist = single_path_net()
        faults = FaultScript([FaultEvent(time=0.05, kind="link_fail", target=(3, 4))])
        trace = io.StringIO()
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(trace=trace), faults=faults)
        self.lines = trace.getvalue().splitlines()
        return rep

    def test_delay_overhead(self):
        rep = self.run()
        # m failed attempts, beacon round trip, briefing; path length unchanged
        want = 5 * TAU + (M * TAU + 3 * TC)
        assert rep.path_delays[1] == pytest.approx(want, rel=1e-9)
        assert rep.total_delivered == 1

    def test_classification_replacement_retries(self):
        rep = self.run()
        driving = [fr for fr in rep.fault_records if fr.drove_recovery]
        assert len(driving) == 1
        fr = driving[0]
        assert fr.case is FaultCase.HOP_UNREACHABLE
        assert fr.failed_node == 4
        assert fr.initiator == 3  # the sender proved its own radio works
        assert fr.replacement == 6
        assert rep.retransmissions[1] == M - 1

    def test_losing_timer_logged_not_driving(self):
        rep = self.run()
        losers = [fr for fr in rep.fault_records if not fr.drove_recovery]
        assert len(losers) == 1
        assert losers[0].case is FaultCase.NODE_SILENT
        assert losers[0].note == "lost race"

    def test_beacon_events_traced(self):
        self.run()
        kinds = [l.split()[1] for l in self.lines]
        assert "BeaconSend" in kinds
        assert "BeaconResult" in kinds
        # the hop 3 -> 4 fails all m attempts, but its receiver's timer is
        # pushed once, at the first failure
        failed = [l for l in self.lines if l.split()[1:4] == ["PacketArrive", "3", "4"]]
        assert len(failed) == M
        timers = [l.split()[2:] for l in self.lines if l.split()[1] == "TimerExpire"]
        assert timers == [["4", "-", "0", "1"]]


class TestTracePromise:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_fault_free_trace_is_two_lines_per_hop(self, bench_scenario_text, scheme):
        # a hop that does not fail arms no timer and waits on no ack, so the
        # trace holds only its send and its arrival
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(scheme, cfg.ep, profiles, cfg.packets)
        trace = io.StringIO()
        run_transfer(g, table, dist, cfg.ep, cfg.link, config=SimConfig(trace=trace))
        lines = trace.getvalue().splitlines()
        hops = {p.path_id: p.H for p in profiles}
        assert len(lines) == 2 * sum(n * hops[pid] for pid, n in dist.allocations)
        assert {l.split()[1] for l in lines} == {"PacketSend", "PacketArrive"}

    @pytest.mark.parametrize("windows", [True, False])
    def test_events_no_handler_acts_on_have_no_line(self, windows, monkeypatch):
        # a send of a hop instance the path never started is ignored, so
        # neither a window nor a stepped pop may list it
        if not windows:
            monkeypatch.setattr(_Engine, "_fast_forward", lambda self, now: False)
        traces = []
        for stale in (False, True):
            cfg, g, table, dist = single_path_net(packets=3, spares=0)
            trace = io.StringIO()
            engine = _Engine(g, table, dist, cfg.ep, cfg.link, None,
                             SimConfig(trace=trace))
            if stale:
                engine._push(0.01, EventKind.PACKET_SEND, node_from=0, node_to=2,
                             packet_id=0, path_id=1, instance=0)
            engine.run()
            traces.append(trace.getvalue().splitlines())
        assert traces[1] == traces[0]
        assert len(traces[0]) == 2 * 3 * 5


class TestTableReadOnly:
    def test_recovery_leaves_routing_table_as_built(self):
        cfg, g, table, dist = single_path_net(packets=3, spares=2)
        before = table.routes
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        # routes and profiles unchanged; the spare lives in the report
        assert table.routes == before
        assert [r.nodes for r in table.routes] == [(0, 2, 3, 4, 5, 1)]
        assert [fr.replacement for fr in rep.fault_records if fr.drove_recovery] == [6]
        assert 6 in rep.fabric_nodes
        assert rep.total_delivered == 3


class TestUnrecoverable:
    def test_no_spares_drops_remaining(self):
        cfg, g, table, dist = single_path_net(packets=4, spares=0)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        assert rep.failed_paths == [1]
        assert math.isinf(rep.path_delays[1])
        assert rep.delivered[1] + rep.dropped[1] == 4
        assert rep.dropped[1] >= 1
        assert any("unrecoverable" in fr.note for fr in rep.fault_records)

    def test_source_death_cannot_be_replaced(self):
        cfg, g, table, dist = single_path_net(packets=3, spares=2)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=0)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        assert rep.failed_paths == [1]
        assert any("source/sink" in fr.note for fr in rep.fault_records)

    def test_sender_and_receiver_both_dead_fails_path(self):
        # hop 3 -> 4 is in flight when both ends die: no sender retries and
        # no receiver timer detects, so the path fails when the timer is due
        cfg, g, table, dist = single_path_net(packets=12, spares=2)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3),
                              FaultEvent(time=0.05, kind="node_fail", target=4)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        assert rep.failed_paths == [1]
        assert (rep.delivered[1], rep.dropped[1]) == (0, 12)
        [fr] = rep.fault_records
        assert (fr.case, fr.failed_node, fr.initiator) == (FaultCase.NODE_SILENT, 3, 4)
        assert fr.time == pytest.approx(3 * TAU + M * TAU, rel=1e-9)
        assert fr.note == "sender and receiver both failed"

    def test_multipath_other_paths_unaffected(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text + "paths.redundant 1\n")
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 50)
        # node on path 3 (the 5-hop one) dies; its spare keeps it going
        victim = table.routes[2].nodes[2]
        faults = FaultScript([FaultEvent(time=0.3, kind="node_fail", target=victim)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults)
        assert rep.total_delivered == 50
        assert rep.failed_paths == []
        for pid in (1, 2, 4, 5):
            assert rep.path_delays[pid] == pytest.approx(
                10 * TAU * profiles[pid - 1].H, rel=1e-9)


# a line field: source 0 at (0, 0), relays 2 and 3 at x = 1 and 2, sink 1 at
# (3, 0), and the extra nodes from id 4 on; a 1.5 m radio range links only
# neighbours on the line
LINE = [(0.0, 0.0), (3.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
EP = EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024)


def line_run(extra=(), spares=(), routes=((0, 2, 3, 1),), packets=(3,),
             fails=((0.05, 3),)):
    """Run ``packets`` over the hand-made ``routes`` of a line field whose
    ``fails`` nodes fail at their times; by default relay 3 at 0.05, with the
    first packet in flight to the sink, so the sink's timer detects it.
    Returns the report and the trace lines."""
    g = TopologyGraph(LINE + list(extra), 1.5, 23760.0, spares=spares)
    table = RoutingTable(0, 1, tuple(
        Route(j, nodes, PathProfile(path_id=j, H=len(nodes) - 1, tau=TAU, T_dist=3.0))
        for j, nodes in enumerate(routes, start=1)))
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=sum(packets),
                        allocations=tuple(enumerate(packets, start=1)))
    trace = io.StringIO()
    rep = run_transfer(g, table, dist, EP, LinkParams(b=50000.0),
                       faults=FaultScript([FaultEvent(time=when, kind="node_fail", target=n)
                                           for when, n in fails]),
                       config=SimConfig(trace=trace))
    return rep, trace.getvalue().splitlines()


def sends(lines):
    return {tuple(line.split()[2:4]) for line in lines if line.split()[1] == "PacketSend"}


def repairs(rep):
    return [(fr.failed_node, fr.initiator, fr.replacement, fr.note)
            for fr in rep.fault_records if fr.drove_recovery]


class TestRepair:
    """Recovery splices in the min-hop detour between the failed slot's route
    neighbours, through nodes no route of the table or earlier repair uses."""

    def test_one_node_detour_through_a_relay_that_is_no_spare(self):
        rep, lines = line_run(extra=[(2.0, 1.0)])
        assert repairs(rep) == [(3, 1, 4, "")]
        assert {("2", "4"), ("4", "1")} <= sends(lines)
        assert rep.total_delivered == 3
        assert 4 in rep.fabric_nodes

    def test_detour_of_two_nodes_is_noted(self):
        # 4 hears only 2 and 5, and 5 only 4, 3 and the sink
        rep, lines = line_run(extra=[(1.0, 1.4), (2.4, 1.2)])
        assert repairs(rep) == [(3, 1, 4, "detour 4,5")]
        assert {("2", "4"), ("4", "5"), ("5", "1")} <= sends(lines)
        assert rep.total_delivered == 3
        # the sink, whose timer detected the silence, briefs both nodes
        ctrl_rx = rx_energy_per_bit(EP) * SimConfig().control_bits
        assert [rep.ledger.nodes[n].rx[ctrl_rx] for n in (4, 5)] == [1, 1]
        assert "detour 4,5" in rep.to_text()

    def test_no_detour_fails_the_path(self):
        rep, _ = line_run()
        assert repairs(rep) == [(3, 1, None, "unrecoverable")]
        assert rep.failed_paths == [1]
        assert rep.delivered[1] + rep.dropped[1] == 3

    def test_dead_route_neighbours_widen_the_slot(self):
        # relays 2 and 3 both fail: the detour bridges the source and the
        # sink, the nearest alive route nodes, in one repair, and the source
        # sends the packet again
        rep, lines = line_run(extra=[(1.0, 1.0), (2.0, 1.0)],
                              fails=((0.05, 2), (0.05, 3)))
        assert repairs(rep) == [(3, 1, 4, "detour 4,5")]
        assert {("0", "4"), ("4", "5"), ("5", "1")} <= sends(lines)
        assert rep.total_delivered == 3

    def test_a_slot_widened_to_a_dead_sink_fails_the_path(self):
        # relay 3 and the sink fail before the first packet reaches 2; 2's
        # beacon blames 3, and past it only the dead sink is left
        rep, _ = line_run(extra=[(2.0, 1.0)], fails=((0.0, 3), (0.0, 1)))
        assert repairs(rep) == [(3, 2, None, "source/sink cannot be replaced")]
        assert rep.failed_paths == [1]

    def test_a_spare_on_a_table_route_is_not_borrowed(self):
        # spare 4 bridges 2 and the sink, but route 2 (0-5-4-1) uses it, so
        # the detour goes through 6
        rep, lines = line_run(extra=[(2.0, 1.0), (1.0, 1.0), (2.0, -1.0)], spares={4},
                              routes=((0, 2, 3, 1), (0, 5, 4, 1)), packets=(2, 2))
        assert repairs(rep) == [(3, 1, 6, "")]
        assert ("2", "4") not in sends(lines)
        assert rep.total_delivered == 4

    def test_a_splice_over_a_missing_link_raises(self):
        # node 4 is out of everyone's range; a search that returned it would
        # make a route that cannot carry a packet
        with mock.patch.object(simulation, "_shortest_hops",
                               lambda *args, **kw: [2, 4, 1]):
            with pytest.raises(RuntimeError, match="missing link 2-4"):
                line_run(extra=[(10.0, 10.0)])


def nearest_spare(engine, near):
    """The rule the min-hop detour replaced: the alive spare no route uses
    nearest to ``near``, lowest id on ties."""
    g = engine.g
    free = [s for s in g.spares if g.alive(s) and s not in engine.barred]
    return min(free, key=lambda s: (g.distance(near, s), s), default=None)


@st.composite
def explicit_repairs(draw):
    n_paths = draw(st.integers(1, 4))
    hops = draw(st.lists(st.integers(2, 8), min_size=n_paths, max_size=n_paths))
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2], ep=EP, link=LinkParams(b=50000.0),
        hops=hops, taus=draw(st.lists(st.sampled_from([0.01, 0.02, 0.0173]),
                                      min_size=n_paths, max_size=n_paths)),
        t_dist=100.0, redundant=draw(st.integers(1, 5)),
        max_attempts=draw(st.integers(1, 5)))
    alloc = tuple((j + 1, draw(st.integers(1, 20))) for j in range(n_paths))
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, allocations=alloc,
                        total=sum(n for _, n in alloc))
    # route interiors, and the spares they may take in
    targets = st.integers(2, 1 + sum(h - 1 for h in hops) + cfg.redundant)
    faults = draw(st.lists(st.builds(
        lambda t, n: FaultEvent(time=t, kind="node_fail", target=n),
        st.floats(0.0, 1.0), targets), min_size=1, max_size=5))
    return cfg, dist, faults


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(explicit_repairs())
def test_explicit_layouts_repair_with_the_nearest_spare(case):
    # every spare of an explicit layout hears every node, and the other table
    # routes are barred, so the detour is one spare: the nearest to the
    # initiator, as the old rule chose, also where the slot widens over dead
    # route neighbours
    cfg, dist, faults = case
    g, table = build_network(cfg)
    real = _Engine._begin_recovery

    def checked(self, t, pr, fault_case, failed, initiator):
        want = None if failed in (pr.nodes[0], pr.nodes[-1]) else nearest_spare(self, initiator)
        before = len(self.records)
        real(self, t, pr, fault_case, failed, initiator)
        (fr,) = self.records[before:]
        assert (fr.replacement, fr.note == "") == (want, want is not None)

    with mock.patch.object(_Engine, "_begin_recovery", checked):
        run_transfer(g, table, dist, cfg.ep, cfg.link, faults=FaultScript(faults),
                     config=SimConfig(max_attempts=cfg.max_attempts))


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        texts = []
        for _ in range(2):
            cfg, g, table, dist = single_path_net(packets=3)
            faults = FaultScript([FaultEvent(time=0.05, kind="link_fail", target=(3, 4))])
            trace = io.StringIO()
            rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                               config=SimConfig(trace=trace))
            texts.append(rep.to_text() + trace.getvalue())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("lane", ["fault", "lower path"])
    def test_event_order_going_back_raises(self, lane, monkeypatch):
        # the pop key is (time, lane, seq): an event of a lower lane pushed at
        # the time being popped sorts before the pop, so the run must stop
        # with an error, not carry on out of order
        monkeypatch.setattr(_Engine, "_fast_forward", lambda self, now: False)
        cfg, g, table, dist = single_path_net(packets=1)
        engine = _Engine(g, table, dist, cfg.ep, cfg.link, None, SimConfig())
        on_send = engine._on_send

        def send_and_push_back(ev, pr):
            if lane == "fault":
                engine._push(ev.time, EventKind.FAULT_TRIGGER,
                             payload=FaultEvent(time=ev.time, kind="node_fail", target=9))
            else:
                engine._push(ev.time, EventKind.PACKET_SEND, path_id=pr.path_id - 1)
            on_send(ev, pr)

        engine._on_send = send_and_push_back
        with pytest.raises(RuntimeError, match="event order went backwards"):
            engine.run()

    def test_trace_line_shape(self):
        cfg, g, table, dist = single_path_net()
        trace = io.StringIO()
        run_transfer(g, table, dist, cfg.ep, cfg.link, config=SimConfig(trace=trace))
        first = trace.getvalue().splitlines()[0].split()
        assert len(first) == 6
        assert first[1] == "PacketSend"


class TestClassifyFault:
    def test_isolated_sender_falls_back_to_case_one(self):
        # the sender's only neighbour is the receiver, so once their link
        # breaks it has nobody to verify its radio with and takes the blame
        g = TopologyGraph([(0, 0), (2, 0), (1, 0), (1.5, -1)], 1.5, 10.0, spares=(3,))
        profile = PathProfile(path_id=1, H=2, tau=TAU, T_dist=2.0)
        table = RoutingTable(source=0, sink=1, routes=(Route(1, (0, 2, 1), profile),))
        dist = Distribution(scheme=Scheme.SINGLE_PATH, allocations=((1, 1),), total=1)
        ep = EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024)
        faults = FaultScript([FaultEvent(time=0.0, kind="link_fail", target=(0, 2))])
        rep = run_transfer(g, table, dist, ep, LinkParams(b=50000.0),
                           faults=faults)
        driving = [fr for fr in rep.fault_records if fr.drove_recovery]
        assert len(driving) == 1
        fr = driving[0]
        assert fr.case is FaultCase.NODE_SILENT
        assert (fr.failed_node, fr.initiator) == (0, 0)
        assert fr.note == "source/sink cannot be replaced"
        assert rep.failed_paths == [1]


class TestAccounting:
    def test_off_path_node_does_not_idle(self):
        cfg, g, table, dist = single_path_net(packets=1, spares=1)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6))
        # spare 6 never joins the fabric: no idle and no traffic charges,
        # so it has no ledger
        assert 6 not in rep.fabric_nodes
        assert 6 not in rep.ledger.nodes
        # the source idles for the 5-hop round minus its one hop on air
        assert rep.ledger.nodes[0].idle == pytest.approx(
            409.6e-6 * (5 * TAU - TAU), rel=1e-9)

    def test_busy_time_subtracted_from_idle(self, bench_scenario_text):
        cfg, g, table, profiles = bench_net(bench_scenario_text)
        dist = allocate(Scheme.SINGLE_PATH, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6))
        idle = math.fsum(rep.ledger.nodes[n].idle for n in rep.fabric_nodes)
        assert idle == pytest.approx(0.237568, rel=1e-6)

    def test_residual_write_back_consistent(self):
        cfg, g, table, dist = single_path_net(packets=5)
        initial = {i: g.residual(i) for i in range(len(g))}
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6))
        for nid, led in rep.ledger.nodes.items():
            assert led.initial == initial[nid]
            # the write-back stores exactly initial minus the ledger sum
            assert g.residual(nid) == led.initial - led.consumed

    def test_depleted_node_dies_mid_run(self):
        cfg, g, table, dist = single_path_net(packets=3, spares=1)
        g.set_residual(3, 0.005)  # about one packet's worth
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link)
        assert not g.alive(3)
        # the transfer still completes through the spare
        assert rep.total_delivered == 3


FIELD_FAULTS = """
field.nodes 1500
field.area 300 300
field.radio_range 24
field.seed 3
field.source 0
field.sink 1
packets 200
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
"""


class TestLazyLedgers:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_only_touched_nodes_get_ledgers(self, scheme):
        # node_fail faults on the middle interior nodes of routes 1-3
        cfg = parse_scenario(FIELD_FAULTS)
        runs = []
        sink = io.StringIO()
        for trace in (None, sink):
            g, table = build_network(cfg)
            routes = table.routes
            discovered = {r.path_id: r.nodes for r in routes}
            # and a cut of route 1's first link, which its sender's beacon detects
            faults = FaultScript([
                FaultEvent(time=when, kind="node_fail",
                           target=r.interior[len(r.interior) // 2])
                for when, r in zip((0.05, 0.10, 0.15), routes)] + [
                FaultEvent(time=0.3, kind="link_fail", target=routes[0].nodes[:2])])
            dist = allocate(scheme, cfg.ep, [r.profile for r in routes], cfg.packets)
            initial = {i: g.residual(i) for i in range(len(g))}
            rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                               config=SimConfig(idle_power=cfg.idle_power, trace=trace))
            runs.append((g, initial, discovered, rep))
        # the traced run's trace names every beacon neighbour
        beacons = {int(line.split()[3]) for line in sink.getvalue().splitlines()
                   if line.split()[1] == "BeaconSend"}
        assert beacons
        for g, initial, discovered, rep in runs:
            assert any(fr.replacement is not None for fr in rep.fault_records)
            route_nodes = {n for pid in rep.delivered for n in discovered[pid]}
            assert set(rep.ledger.nodes) <= route_nodes | set(rep.fabric_nodes) | beacons
            for nid in range(len(g)):
                if nid not in rep.ledger.nodes:
                    assert g.residual(nid) == initial[nid]
                else:
                    assert g.residual(nid) == rep.ledger.nodes[nid].residual
        assert runs[0][3].ledger.nodes.keys() == runs[1][3].ledger.nodes.keys()


# one node_fail on the middle interior node of routes 1-3, as the benchmark's
# field_faults workload places them
FIELD_FAULTS_PINNED = FIELD_FAULTS + """
fault node_fail 0.05 34
fault node_fail 0.10 59
fault node_fail 0.15 149
"""

# the benchmark's field_50k workload with one relay of route 1 failed
FIELD_50K_FAULT = """
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
sim.idle_power 409.6e-6
fault node_fail 0.05 10432
"""


class TestRandomFieldRecovery:
    """Which detours a random field splices in, pinned byte for byte per
    scheme: one repair per fault, each through a node no route uses."""

    PINNED = {
        Scheme.SINGLE_PATH: (
            1, "f5519181ec72233f66937074972239b9fd0fee16542a809be2062a42087b827f"),
        Scheme.EQUAL_SPLIT: (
            3, "be7bb7e2dda495b813f108d34dad3c0734d7a271cfbca1e256bd4f8c6dc2da19"),
        Scheme.ADAPTIVE: (
            3, "be7bb7e2dda495b813f108d34dad3c0734d7a271cfbca1e256bd4f8c6dc2da19"),
    }

    def test_reports_are_pinned(self):
        cfg = parse_scenario(FIELD_FAULTS_PINNED)
        runs = run_comparison(cfg).runs
        got = {r.scheme: (len(r.transfer.fault_records),
                          hashlib.sha256(r.transfer.to_text().encode()).hexdigest())
               for r in runs}
        assert got == self.PINNED
        assert sum(records for records, _ in got.values()) == 7
        # every scheme delivers, with one repair per fault
        for r in runs:
            rep = r.transfer
            assert rep.total_delivered >= 0.99 * cfg.packets, r.scheme
            repaired = [fr.failed_node for fr in rep.fault_records
                        if fr.drove_recovery and fr.replacement is not None]
            assert len(repaired) == len(set(repaired)) <= len(cfg.faults.events)
            assert [(fr.failed_node, fr.replacement) for fr in rep.fault_records
                    if fr.path_id == 1] == [(34, 657)]

    def test_windows_resume_after_repairs(self):
        # a repair resumes its hop by a send that pops stepped; once it has
        # popped, every path has a hop in flight again and windows resume, so
        # the windowed run pops a small share of the events stepping pops
        cfg = parse_scenario(FIELD_FAULTS_PINNED)

        def pops(windows: bool) -> int:
            counting = mock.Mock(wraps=heapq)
            no_windows = mock.patch.object(_Engine, "_fast_forward",
                                           lambda self, now: False)
            with mock.patch.object(simulation, "heapq", counting), (
                    nullcontext() if windows else no_windows):
                run_comparison(cfg)
            return counting.heappop.call_count

        windowed, stepped = pops(True), pops(False)
        assert 10 * windowed < stepped, (windowed, stepped)

    def test_one_fault_on_the_50k_field(self):
        # the benchmark's 50,000-node field loses relay 10432 of route 1: one
        # detour through 32315 per scheme, and no packet is dropped
        rep = run_comparison(parse_scenario(FIELD_50K_FAULT))
        for r in rep.runs:
            assert r.transfer.total_dropped == 0, r.scheme
            assert [(fr.failed_node, fr.replacement, fr.drove_recovery)
                    for fr in r.transfer.fault_records] == [(10432, 32315, True)]
