import math

import pytest

from wsn_multipath import (
    Distribution,
    EnergyParams,
    FaultCase,
    FaultEvent,
    FaultScript,
    LinkParams,
    Node,
    PathProfile,
    Route,
    RoutingTable,
    Scheme,
    SimConfig,
    TopologyGraph,
    allocate,
    build_network,
    parse_scenario,
    path_energy,
    run_transfer,
)
from wsn_multipath.simulation import TransferActiveError

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
    g, table, s, t = build_network(cfg)
    profiles = [r.profile for r in table.routes_for(t)]
    dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, packets)
    return cfg, g, table, dist, t


def bench_net(bench_scenario_text, packets=100):
    cfg = parse_scenario(bench_scenario_text)
    cfg.packets = packets
    g, table, s, t = build_network(cfg)
    profiles = [r.profile for r in table.routes_for(t)]
    return cfg, g, table, profiles, t


class TestFaultFreeTransfer:
    def test_per_path_delay_matches_closed_form(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        for p in profiles:
            want = 20 * p.tau * p.H
            assert rep.path_delays[p.path_id] == pytest.approx(want, rel=1e-9)
        assert rep.completion_time == pytest.approx(8.8, rel=1e-9)
        assert rep.total_delivered == 100

    def test_comm_energy_matches_traffic_term(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        for p in profiles:
            delta = dist.packets_for(p.path_id)
            traffic = path_energy(cfg.ep, p, delta) - cfg.ep.K_r * (p.H + 1)
            assert rep.ledger.comm_for_path(p.path_id) == pytest.approx(
                traffic, rel=1e-6)

    def test_no_faults_no_records_no_drops(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(Scheme.SINGLE_PATH, cfg.ep, profiles, 50)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        assert rep.fault_records == []
        assert rep.total_dropped == 0
        assert rep.retransmissions == {p.path_id: 0 for p in profiles}

    def test_zero_packets(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 0)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        assert rep.completion_time == 0.0
        assert rep.total_delivered == 0


class TestCaseOneRecovery:
    def run(self, fail_time=0.05):
        cfg, g, table, dist, t = single_path_net()
        faults = FaultScript([FaultEvent(time=fail_time, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           config=SimConfig(trace=True), destination=t)
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

    def test_timer_fires_exactly_m_tau_after_expected_arrival(self):
        rep = self.run()
        sends = [l for l in rep.trace_lines if " PacketSend 3 4 " in l]
        timers = [l for l in rep.trace_lines if l.split()[1] == "TimerExpire"
                  and l.split()[2] == "4"]
        t_send = float(sends[0].split()[0])
        t_fire = float(timers[0].split()[0])
        assert t_fire == (t_send + TAU) + M * TAU  # exact float equality


class TestCaseTwoRecovery:
    def run(self):
        cfg, g, table, dist, t = single_path_net()
        faults = FaultScript([FaultEvent(time=0.05, kind="link_fail", target=(3, 4))])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(trace=True), faults=faults,
                           destination=t)
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
        rep = self.run()
        kinds = [l.split()[1] for l in rep.trace_lines]
        assert "BeaconSend" in kinds
        assert "BeaconResult" in kinds
        assert "TimerExpire" in kinds


class TestTracePromise:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_fault_free_trace_is_two_lines_per_hop(self, bench_scenario_text, scheme):
        # a hop that does not fail arms no timer and waits on no ack, so the
        # trace holds only its send and its arrival
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(scheme, cfg.ep, profiles, cfg.packets)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(trace=True), destination=t)
        hops = {p.path_id: p.H for p in profiles}
        assert len(rep.trace_lines) == 2 * sum(n * hops[pid]
                                               for pid, n in dist.allocations)
        assert {l.split()[1] for l in rep.trace_lines} == {"PacketSend",
                                                          "PacketArrive"}


class TestTableReadOnly:
    def test_recovery_leaves_routing_table_as_built(self):
        cfg, g, table, dist, t = single_path_net(packets=3, spares=2)
        before = ({d: list(rs) for d, rs in table.entries.items()}, table.version)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           destination=t)
        # routes, profiles and version all unchanged; the spare lives in the report
        assert (table.entries, table.version) == before
        assert [fr.replacement for fr in rep.fault_records if fr.drove_recovery] == [6]
        assert 6 in rep.fabric_nodes
        assert rep.total_delivered == 3


class TestUnrecoverable:
    def test_no_spares_drops_remaining(self):
        cfg, g, table, dist, t = single_path_net(packets=4, spares=0)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           destination=t)
        assert rep.failed_paths == [1]
        assert math.isinf(rep.path_delays[1])
        assert rep.delivered[1] + rep.dropped[1] == 4
        assert rep.dropped[1] >= 1
        assert any("unrecoverable" in fr.note for fr in rep.fault_records)

    def test_source_death_cannot_be_replaced(self):
        cfg, g, table, dist, t = single_path_net(packets=3, spares=2)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=0)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           destination=t)
        assert rep.failed_paths == [1]
        assert any("source/sink" in fr.note for fr in rep.fault_records)

    def test_sender_and_receiver_both_dead_fails_path(self):
        # hop 3 -> 4 is in flight when both ends die: no sender retries and
        # no receiver timer detects, so the path fails when the timer is due
        cfg, g, table, dist, t = single_path_net(packets=12, spares=2)
        faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3),
                              FaultEvent(time=0.05, kind="node_fail", target=4)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           destination=t)
        assert rep.failed_paths == [1]
        assert (rep.delivered[1], rep.dropped[1]) == (0, 12)
        [fr] = rep.fault_records
        assert (fr.case, fr.failed_node, fr.initiator) == (FaultCase.NODE_SILENT, 3, 4)
        assert fr.time == pytest.approx(3 * TAU + M * TAU, rel=1e-9)
        assert fr.note == "sender and receiver both failed"

    def test_multipath_other_paths_unaffected(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text + "paths.redundant 1\n")
        dist = allocate(Scheme.EQUAL_SPLIT, cfg.ep, profiles, 50)
        # node on path 3 (the 5-hop one) dies; its spare keeps it going
        victim = table.routes_for(t)[2].nodes[2]
        faults = FaultScript([FaultEvent(time=0.3, kind="node_fail", target=victim)])
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                           destination=t)
        assert rep.total_delivered == 50
        assert rep.failed_paths == []
        for pid in (1, 2, 4, 5):
            assert rep.path_delays[pid] == pytest.approx(
                10 * TAU * profiles[pid - 1].H, rel=1e-9)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        texts = []
        for _ in range(2):
            cfg, g, table, dist, t = single_path_net(packets=3)
            faults = FaultScript([FaultEvent(time=0.05, kind="link_fail", target=(3, 4))])
            rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                               config=SimConfig(trace=True), destination=t)
            texts.append(rep.to_text() + "\n".join(rep.trace_lines))
        assert texts[0] == texts[1]

    def test_reentrant_transfer_rejected(self):
        cfg, g, table, dist, t = single_path_net()
        g._transfer_active = True
        with pytest.raises(TransferActiveError):
            run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        g._transfer_active = False

    def test_trace_line_shape(self):
        cfg, g, table, dist, t = single_path_net()
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(trace=True), destination=t)
        first = rep.trace_lines[0].split()
        assert len(first) == 6
        assert first[1] == "PacketSend"


class TestClassifyFault:
    def test_isolated_sender_falls_back_to_case_one(self):
        # the sender's only neighbour is the receiver, so once their link
        # breaks it has nobody to verify its radio with and takes the blame
        nodes = [Node(id=0, position=(0, 0), residual_energy=10.0),
                 Node(id=2, position=(1, 0), residual_energy=10.0),
                 Node(id=1, position=(2, 0), residual_energy=10.0),
                 Node(id=3, position=(1.5, -1), residual_energy=10.0,
                      is_redundant=True)]
        g = TopologyGraph(nodes, radio_range=1.5)
        profile = PathProfile(path_id=1, H=2, tau=TAU, T_dist=2.0)
        table = RoutingTable(source=0, entries={1: [Route(1, (0, 2, 1), profile)]},
                             version=g.version)
        dist = Distribution(scheme=Scheme.SINGLE_PATH, allocations=((1, 1),), total=1)
        ep = EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024)
        faults = FaultScript([FaultEvent(time=0.0, kind="link_fail", target=(0, 2))])
        rep = run_transfer(g, table, dist, ep, LinkParams(b=50000.0),
                           faults=faults, destination=1)
        driving = [fr for fr in rep.fault_records if fr.drove_recovery]
        assert len(driving) == 1
        fr = driving[0]
        assert fr.case is FaultCase.NODE_SILENT
        assert (fr.failed_node, fr.initiator) == (0, 0)
        assert fr.note == "source/sink cannot be replaced"
        assert rep.failed_paths == [1]


class TestAccounting:
    def test_off_path_node_does_not_idle(self):
        cfg, g, table, dist, t = single_path_net(packets=1, spares=1)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6), destination=t)
        # spare 6 never joins the fabric: no idle and no traffic charges,
        # so it has no ledger
        assert 6 not in rep.fabric_nodes
        assert 6 not in rep.ledger.nodes
        # the source idles for the 5-hop round minus its one hop on air
        assert rep.ledger.nodes[0].idle.value == pytest.approx(
            409.6e-6 * (5 * TAU - TAU), rel=1e-9)

    def test_busy_time_subtracted_from_idle(self, bench_scenario_text):
        cfg, g, table, profiles, t = bench_net(bench_scenario_text)
        dist = allocate(Scheme.SINGLE_PATH, cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6), destination=t)
        idle = math.fsum(rep.ledger.nodes[n].idle.value for n in rep.fabric_nodes)
        assert idle == pytest.approx(0.237568, rel=1e-6)

    def test_residual_write_back_consistent(self):
        cfg, g, table, dist, t = single_path_net(packets=5)
        initial = {n.id: n.residual_energy for n in g.nodes.values()}
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                           config=SimConfig(idle_power=409.6e-6), destination=t)
        for nid, led in rep.ledger.nodes.items():
            assert led.initial == initial[nid]
            # the write-back stores exactly initial minus the ledger sum
            assert g.nodes[nid].residual_energy == led.initial - led.consumed

    def test_depleted_node_dies_mid_run(self):
        cfg, g, table, dist, t = single_path_net(packets=3, spares=1)
        g.set_residual(3, 0.005)  # about one packet's worth
        table.version = g.version
        rep = run_transfer(g, table, dist, cfg.ep, cfg.link, destination=t)
        assert not g.nodes[3].alive
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
        # three node_fail faults on the middle interior nodes of routes 1-3
        cfg = parse_scenario(FIELD_FAULTS)
        runs = []
        for trace in (False, True):
            g, table, _, t = build_network(cfg)
            routes = table.routes_for(t)
            # recovery swaps spares into the table's route list, so keep
            # the discovered routes aside
            discovered = {r.path_id: r.nodes for r in routes}
            faults = FaultScript([
                FaultEvent(time=when, kind="node_fail",
                           target=r.interior[len(r.interior) // 2])
                for when, r in zip((0.05, 0.10, 0.15), routes)])
            dist = allocate(scheme, cfg.ep, [r.profile for r in routes], cfg.packets)
            initial = {n.id: n.residual_energy for n in g.nodes.values()}
            rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                               config=SimConfig(idle_power=cfg.idle_power, trace=trace),
                               destination=t)
            runs.append((g, initial, discovered, rep))
        # the stepped run's trace names every beacon neighbour
        beacons = {int(line.split()[3]) for line in runs[1][3].trace_lines
                   if line.split()[1] == "BeaconSend"}
        assert beacons
        for g, initial, discovered, rep in runs:
            assert any(fr.replacement is not None for fr in rep.fault_records)
            route_nodes = {n for pid in rep.delivered for n in discovered[pid]}
            briefed = {fr.replacement for fr in rep.fault_records
                       if fr.replacement is not None}
            assert set(rep.ledger.nodes) <= route_nodes | briefed | beacons
            for nid, n in g.nodes.items():
                if nid not in rep.ledger.nodes:
                    assert n.residual_energy == initial[nid]
                else:
                    assert n.residual_energy == rep.ledger.nodes[nid].residual
        assert runs[0][3].ledger.nodes.keys() == runs[1][3].ledger.nodes.keys()
