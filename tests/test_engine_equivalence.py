"""The windowed engine against the per-hop engine it shortcuts.

The engine advances the paths in windows between disruptions; with its
windows switched off it steps every event. A traced stepped run is the oracle
for a traced and an untraced windowed run: counts, delays, fault records,
per-path energy and every node's charge counts must be equal, and the traced
windowed run must list the oracle's trace lines, in pop order. When the
oracle raises, both windowed runs must raise the same message.
"""

import io
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wsn_multipath import (
    Distribution,
    EnergyParams,
    FaultCase,
    FaultEvent,
    FaultScript,
    LinkParams,
    PathProfile,
    ScenarioConfig,
    ScenarioError,
    Scheme,
    SimConfig,
    allocate,
    build_network,
    parse_scenario,
    run_transfer,
)
from wsn_multipath import simulation
from wsn_multipath.cli import main
from wsn_multipath.simulation import _Engine, _PathRun, _WindowLines


def _runs(cfg, dist_for, faults=(), idle_power=409.6e-6, tweak=None):
    """Run one transfer traced and stepped, one traced and windowed and one
    untraced and windowed, each on a fresh copy of ``cfg``'s network. Each
    run is ``(report or error message, graph, trace lines)``."""
    out = []
    for stepped, traced in ((True, True), (False, True), (False, False)):
        sink = io.StringIO() if traced else None
        g, table = build_network(cfg)
        if tweak:
            tweak(g)
        dist = dist_for([r.profile for r in table.routes])
        no_windows = mock.patch.object(_Engine, "_fast_forward",
                                       lambda self, now: False)
        try:
            with no_windows if stepped else nullcontext():
                rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                                   faults=FaultScript(list(faults)),
                                   config=SimConfig(max_attempts=cfg.max_attempts,
                                                    control_bits=cfg.control_bits,
                                                    idle_power=idle_power, trace=sink))
        except RuntimeError as exc:  # the oracle's own failures must recur
            rep = str(exc)
        out.append((rep, g, sink.getvalue().splitlines() if traced else []))
    return out


def assert_equivalent(runs):
    (slow, g_slow, slow_lines), traced, untraced = runs
    for (fast, g_fast, lines), with_lines in ((traced, True), (untraced, False)):
        if isinstance(slow, str) or isinstance(fast, str):
            assert fast == slow
        else:
            assert lines == (slow_lines if with_lines else [])
            assert_same_run(slow, g_slow, fast, g_fast)


def assert_same_run(slow, g_slow, fast, g_fast):
    for name in ("delivered", "dropped", "retransmissions", "failed_paths",
                 "path_delays", "completion_time", "fault_records",
                 "fabric_nodes"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert fast.ledger.path_comm == slow.ledger.path_comm
    assert fast.ledger.nodes == slow.ledger.nodes
    for nid in slow.ledger.nodes:
        assert g_fast.alive(nid) == g_slow.alive(nid), nid
        assert g_fast.residual(nid) == g_slow.residual(nid), nid


def _scheme(scheme, cfg):
    return lambda profiles: allocate(scheme, cfg.ep, profiles, cfg.packets)


def _hop_time(tau, hops):
    """The time of the ``hops``-th arrival, built as the engine builds it."""
    t = 0.0
    for _ in range(hops):
        t += tau
    return t


def _in_chunks(chunk):
    """Windows build trace lines ``chunk`` hops at a time."""
    return mock.patch.object(simulation, "_TRACE_CHUNK", chunk)


class TestBundled:
    def test_every_scheme_at_d100(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        for scheme in Scheme:
            assert_equivalent(_runs(cfg, _scheme(scheme, cfg)))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_every_scheme_at_d100_in_small_chunks(self, bench_scenario_text, chunk):
        # every seam between chunks falls inside a window of five paths
        # whose hop times coincide
        cfg = parse_scenario(bench_scenario_text)
        with _in_chunks(chunk):
            for scheme in Scheme:
                assert_equivalent(_runs(cfg, _scheme(scheme, cfg)))

    def test_node_and_link_faults(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 3\n")
        faults = [
            FaultEvent(time=0.3, kind="node_fail", target=4),         # path 1
            FaultEvent(time=0.61, kind="link_fail", target=(33, 34)),  # path 3
            FaultEvent(time=1.0, kind="node_fail", target=61),        # a spare
            FaultEvent(time=0.0, kind="link_fail", target=(0, 1)),    # no route
        ]
        for scheme in (Scheme.EQUAL_SPLIT, Scheme.ADAPTIVE):
            runs = _runs(cfg, _scheme(scheme, cfg), faults)
            assert runs[0][0].fault_records
            assert_equivalent(runs)

    def test_sink_fails_before_any_delivery(self, bench_scenario_text):
        # the window before the fault reaches no path's sink, and the dead
        # sink pays no idle, so neither engine may make it a ledger
        cfg = parse_scenario(bench_scenario_text)
        faults = [FaultEvent(time=0.05, kind="node_fail", target=1)]
        for scheme in Scheme:
            runs = _runs(cfg, _scheme(scheme, cfg), faults)
            assert runs[0][0].total_delivered == 0
            assert 1 not in runs[0][0].ledger.nodes
            assert_equivalent(runs)

    def test_faults_exactly_on_hop_times(self, bench_scenario_text):
        # a fault at the very time a hop arrives pops first; the window must
        # stop short of it and leave the tie to the per-hop engine
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 2\n")
        path3 = [0, 31, 32, 33, 34, 1]
        for k in (1, 7, 12, 23):
            faults = [
                FaultEvent(time=_hop_time(0.02, k), kind="node_fail",
                           target=path3[1 + k % 4]),
                FaultEvent(time=_hop_time(0.02, k + 5), kind="link_fail",
                           target=(2, 3)),
            ]
            runs = _runs(cfg, _scheme(Scheme.EQUAL_SPLIT, cfg), faults)
            assert runs[0][0].fault_records
            assert_equivalent(runs)


class TestDepletion:
    def test_route_node_runs_dry_mid_run(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 1\n")

        def drain(g):
            g.set_residual(33, 0.02)   # about four packets' worth

        runs = _runs(cfg, _scheme(Scheme.ADAPTIVE, cfg), tweak=drain)
        assert not runs[0][1].alive(33)
        assert_equivalent(runs)

    @pytest.mark.parametrize("spares, victim, failed, note", [
        (2, 3, [], ""),                                   # spare 60 takes over
        (0, 3, [1], "unrecoverable"),
        (2, 0, [1, 2, 3, 4, 5], "source/sink cannot be replaced"),
    ])
    def test_route_node_dead_before_run(self, bench_scenario_text, spares,
                                        victim, failed, note):
        # nothing checks the graph against the table: a node that died before
        # the run is a fault at t=0, detected on the first hop that needs it
        cfg = parse_scenario(bench_scenario_text + f"paths.redundant {spares}\n")
        for scheme in (Scheme.EQUAL_SPLIT, Scheme.ADAPTIVE):
            runs = _runs(cfg, _scheme(scheme, cfg),
                         tweak=lambda g: g.fail_node(victim))
            rep = runs[0][0]
            assert rep.failed_paths == failed
            assert rep.total_delivered + rep.total_dropped == 100
            assert {fr.note for fr in rep.fault_records} == {note}
            if not failed:
                assert rep.total_delivered == 100
                assert [fr.replacement for fr in rep.fault_records] == [60]
            assert_equivalent(runs)

    def test_tiny_initial_energy(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "sim.initial_energy 1e-6\n")
        for scheme in Scheme:
            runs = _runs(cfg, _scheme(scheme, cfg))
            assert runs[0][0].total_dropped == 100
            assert_equivalent(runs)


FIELD = """
field.nodes 1500
field.area 300 300
field.radio_range 24
field.seed 3
field.source 0
field.sink 1
packets 200
schemes 2
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
"""


def test_field_with_three_node_failures():
    cfg = parse_scenario(FIELD)
    g, table = build_network(cfg)
    routes = table.routes
    faults = [FaultEvent(time=t, kind="node_fail",
                         target=r.nodes[1:-1][len(r.nodes[1:-1]) // 2])
              for t, r in zip((0.05, 0.10, 0.15), routes)]
    runs = _runs(cfg, _scheme(Scheme.EQUAL_SPLIT, cfg), faults)
    assert runs[0][0].fault_records
    assert_equivalent(runs)


# the beacon partner c dies between the sender's beacon and c's reply, while
# the hop's receiver is dead too, so neither check can detect the fault
STALL_40 = """
field.nodes 40
field.area 60 60
field.radio_range 24
field.seed 0
field.source 0
field.sink 1
packets 1
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
fault node_fail 0.0 1
fault node_fail 0.12109375 0
"""

# the benchmark's 50,000-node field: route 1 loses 9212, and 1033, the lowest
# neighbour of 9212's sender 20037, dies after 20037 beacons it at 0.14
STALL_50K = """
field.nodes 50000
field.area 1732 1732
field.radio_range 24
field.seed 3
field.source 0
field.sink 1
packets 1
schemes 1
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
fault node_fail 0.0 9212
fault node_fail 0.141 1033
"""


class TestBeaconPartnerDies:
    def _check(self, text, scheme, sender, partner):
        cfg = parse_scenario(text)
        runs = _runs(cfg, _scheme(scheme, cfg), cfg.faults.events)
        assert_equivalent(runs)
        rep, _, lines = runs[0]
        assert not isinstance(rep, str), rep
        # the partner never replies, so the sender beacons its next neighbour
        beacons = [line.split()[2:4] for line in lines
                   if line.split()[1] == "BeaconSend"]
        assert beacons[:2] == [[sender, partner], [sender, beacons[1][1]]]
        assert beacons[1][1] != partner
        assert any(fr.drove_recovery for fr in rep.fault_records)
        return rep

    def test_small_field(self, tmp_path):
        rep = self._check(STALL_40, Scheme.ADAPTIVE, "6", "0")
        assert [(fr.case, fr.failed_node, fr.initiator, fr.note)
                for fr in rep.fault_records] == [
            (FaultCase.HOP_UNREACHABLE, 1, 6, "source/sink cannot be replaced")]
        path = tmp_path / "stall.scenario"
        path.write_text(STALL_40)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_field_50k(self):
        self._check(STALL_50K, Scheme.SINGLE_PATH, "20037", "1033")

    @pytest.mark.parametrize("sender_dies, record", [
        # no neighbour is left to beacon, so the sender counts itself faulty,
        # and its slot widens over the dead sink and source
        (False, (FaultCase.NODE_SILENT, 2, 2, "source/sink cannot be replaced")),
        (True, (FaultCase.NODE_SILENT, 2, 1, "sender and receiver both failed")),
    ])
    def test_timer_passes_before_the_reply(self, sender_dies, record):
        # 1000-bit control messages take 0.02 s a hop, so the timer of hop
        # 2 -> 1 (due 0.03) passes before the reply to 2's beacon to 0 (due
        # 0.06), which the partner's death at 0.04 cuts off
        cfg = ScenarioConfig(
            mode="explicit", packets=0, schemes=[2],
            ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
            link=LinkParams(b=50000.0), hops=[2], taus=[0.01], t_dist=100.0,
            max_attempts=1, control_bits=1000.0)
        dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=1, allocations=((1, 1),))
        faults = [FaultEvent(time=0.0, kind="node_fail", target=1),
                  FaultEvent(time=0.04, kind="node_fail", target=0)]
        if sender_dies:
            faults.append(FaultEvent(time=0.05, kind="node_fail", target=2))
        runs = _runs(cfg, lambda profiles: dist, faults)
        assert_equivalent(runs)
        rep = runs[0][0]
        assert [(fr.time, fr.case, fr.failed_node, fr.initiator, fr.note)
                for fr in rep.fault_records] == [(0.06, *record)]


# two recoveries re-time paths 2 and 4 onto hop times that differ by rounding
# only, until both paths' hops meet at 0.286; from there path 2, the lower
# id, pops first at every shared time, whatever order the paths entered in
IN_STEP_40 = """
field.nodes 40
field.area 60 60
field.radio_range 24
field.seed 2
field.redundant_fraction 0
field.source 0
field.sink 1
packets 10
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
fault node_fail 0.0 10
fault node_fail 0.125 4
"""


def test_paths_falling_in_step_after_recoveries():
    cfg = parse_scenario(IN_STEP_40)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=10,
                        allocations=((2, 5), (4, 5)))
    runs = _runs(cfg, lambda profiles: dist, cfg.faults.events,
                 tweak=lambda g: g._spares.update({29, 30}))
    assert_equivalent(runs)
    lines = runs[0][2]
    assert lines[62:66] == ["0.286 PacketArrive 0 30 4 2", "0.286 PacketSend 30 1 4 2",
                            "0.286 PacketArrive 0 29 9 4", "0.286 PacketSend 29 1 9 4"]
    assert [fr.replacement for fr in runs[0][0].fault_records] == [29, 30]


@pytest.mark.parametrize("hops, taus, alloc", [
    # the source is on air 8 * 0.01 + 2 * 0.04 s, in whatever order its
    # paths charge it, so its idle charge, idle_power * (0.16 - on air), is
    # zero; a running sum in stepping's order would reach 0.15999999999999998
    ([1, 1, 1, 2], [0.01, 0.01, 0.01, 0.04], (0, 0, 8, 2)),
    # both paths reach the sink at t=0.05; path 1, the lower id, pops first
    ([1, 1, 1], [0.01, 0.025, 0.01], (5, 2, 0)),
])
def test_shared_ends_sum_paths_in_event_order(hops, taus, alloc):
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=hops, taus=taus, t_dist=100.0,
        max_attempts=1)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=sum(alloc),
                        allocations=tuple(enumerate(alloc, start=1)))
    runs = _runs(cfg, lambda profiles: dist)
    assert_equivalent(runs)
    if alloc == (0, 0, 8, 2):
        assert [rep.ledger.nodes[0].idle for rep, *_ in runs] == [0.0] * 3


def test_same_time_timers_pop_by_path_id():
    # three hops fail as their senders run dry; the receivers' timers of
    # paths 1 and 4 fall due at one time and pop in path id order, and each
    # path's fault record keeps its own time
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=[6, 7, 3, 8],
        taus=[0.025, 0.04, 0.02, 0.02], t_dist=100.0, max_attempts=3,
        initial_energy=0.05)
    alloc = (5, 13, 4, 23)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=sum(alloc),
                        allocations=tuple(enumerate(alloc, start=1)))
    runs = _runs(cfg, lambda profiles: dist)
    assert_equivalent(runs)
    for rep, *_ in runs:
        assert [(fr.time, fr.path_id, fr.initiator, fr.note)
                for fr in rep.fault_records] == [
            (0.4, 1, 2, "source/sink cannot be replaced"),
            (0.4, 4, 15, "source/sink cannot be replaced"),
            (0.72, 2, 7, "source/sink cannot be replaced"),
        ]


def test_same_time_recoveries_give_the_last_spare_to_the_lower_path_id():
    # path 1's hop into its dead relay is sent at 0.01 over 0.01 s hops and
    # path 2's at 0 over a 0.02 s hop, so both senders beacon at 0.02 and
    # both replies are due at 0.024. Path 2's events there were pushed first,
    # but path 1 pops first and takes the one spare
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=[3, 3], taus=[0.01, 0.02], t_dist=100.0,
        redundant=1, max_attempts=1)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=4, allocations=((1, 2), (2, 2)))
    # routes 0-2-3-1 and 0-4-5-1, spare 6
    faults = [FaultEvent(time=0.0, kind="node_fail", target=3),
              FaultEvent(time=0.0, kind="node_fail", target=4)]
    runs = _runs(cfg, lambda profiles: dist, faults)
    assert_equivalent(runs)
    for rep, *_ in runs:
        assert [(fr.time, fr.path_id, fr.failed_node, fr.replacement, fr.note)
                for fr in rep.fault_records] == [
            (0.024, 1, 3, 6, ""), (0.024, 2, 4, None, "unrecoverable")]
        assert rep.delivered == {1: 2, 2: 0}


def test_deadline_rounded_onto_the_arrival_arms_no_timer():
    # after the 2 ms recovery briefing, t + tau + m*tau rounds to t: the
    # timer of a healthy hop falls due with its arrival, and since it goes
    # on the heap only for a hop that fails, the hop is delivered
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=[3], taus=[1e-20], t_dist=100.0,
        redundant=2, max_attempts=2)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=4, allocations=((1, 4),))
    runs = _runs(cfg, lambda profiles: dist,
                 [FaultEvent(time=0.0, kind="link_fail", target=(2, 3))])
    assert_equivalent(runs)
    assert runs[0][0].delivered == {1: 4}


def test_deadline_rounded_onto_a_failed_arrival_pops_after_it():
    # the repair at 0.004 is briefed by 0.006, where t + tau + m*tau rounds
    # to t + tau = t: packet 1's arrival over the cut link 0-2 arms a timer
    # due at its own time, which must pop right after it under a fresh seq,
    # not before it under the seq reserved at the send
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=[3], taus=[1e-20], t_dist=100.0,
        redundant=2, max_attempts=2)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=4, allocations=((1, 4),))
    runs = _runs(cfg, lambda profiles: dist,
                 [FaultEvent(time=0.0, kind="node_fail", target=3),
                  FaultEvent(time=0.001, kind="link_fail", target=(0, 2))])
    assert_equivalent(runs)
    rep = runs[0][0]
    assert not isinstance(rep, str), rep
    assert [(fr.time, fr.failed_node, fr.replacement, fr.note)
            for fr in rep.fault_records] == [
        (0.004, 3, 4, ""), (0.006, 0, None, "source/sink cannot be replaced")]


@st.composite
def explicit_runs(draw):
    n_paths = draw(st.integers(1, 4))
    hops = draw(st.lists(st.integers(1, 8), min_size=n_paths, max_size=n_paths))
    # a few shared per-hop delays make hop times of different paths collide
    tau = st.one_of(st.sampled_from([0.01, 0.02, 0.025, 0.04, 0.0173]),
                    st.floats(0.001, 0.05))
    taus = draw(st.lists(tau, min_size=n_paths, max_size=n_paths))
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=draw(st.sampled_from([0.0, 1e-6])),
                        e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=hops, taus=taus, t_dist=100.0,
        redundant=draw(st.integers(0, 3)),
        max_attempts=draw(st.integers(1, 5)),
        initial_energy=draw(st.sampled_from([23760.0, 0.05, 0.012, 1e-6])))
    alloc = tuple((j + 1, draw(st.integers(0, 25))) for j in range(n_paths))
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, allocations=alloc,
                        total=sum(n for _, n in alloc))
    n_nodes = 2 + sum(h - 1 for h in hops) + cfg.redundant
    fault = st.one_of(
        st.builds(lambda t, n: FaultEvent(time=t, kind="node_fail", target=n),
                  st.floats(0.0, 2.0), st.integers(0, n_nodes - 1)),
        st.builds(lambda t, u: FaultEvent(time=t, kind="link_fail", target=(u, u + 1)),
                  st.floats(0.0, 2.0), st.integers(0, n_nodes - 2)),
        st.builds(lambda k, n, j: FaultEvent(time=_hop_time(taus[j], k),
                                             kind="node_fail", target=n),
                  st.integers(0, 60), st.integers(0, n_nodes - 1),
                  st.integers(0, n_paths - 1)),
        st.builds(lambda k, u, j: FaultEvent(time=_hop_time(taus[j], k),
                                             kind="link_fail", target=(u, u + 1)),
                  st.integers(0, 60), st.integers(0, n_nodes - 2),
                  st.integers(0, n_paths - 1)),
    )
    faults = draw(st.lists(fault, max_size=4))
    return cfg, dist, faults


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(explicit_runs())
def test_random_explicit_runs_match(case):
    cfg, dist, faults = case
    assert_equivalent(_runs(cfg, lambda profiles: dist, faults))


@st.composite
def in_step_runs(draw):
    # paths of one tau whose relays fail, so recoveries re-time them onto hop
    # times that differ by rounding only, until they coincide
    n_paths = draw(st.integers(2, 4))
    hops = draw(st.lists(st.integers(2, 6), min_size=n_paths, max_size=n_paths))
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=hops, taus=[draw(st.floats(0.001, 0.05))] * n_paths,
        t_dist=100.0, redundant=draw(st.integers(2, 5)),
        max_attempts=draw(st.integers(1, 5)),
        control_bits=draw(st.sampled_from([100.0, 37.0, 450.0])))
    alloc = tuple((j + 1, draw(st.integers(3, 25))) for j in range(n_paths))
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, allocations=alloc,
                        total=sum(n for _, n in alloc))
    relays = st.integers(2, 1 + sum(h - 1 for h in hops))
    fault = st.builds(lambda t, n: FaultEvent(time=t, kind="node_fail", target=n),
                      st.one_of(st.just(0.0), st.floats(0.0, 0.3)), relays)
    return cfg, dist, draw(st.lists(fault, min_size=2, max_size=4))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(in_step_runs())
def test_random_in_step_runs_match(case):
    cfg, dist, faults = case
    assert_equivalent(_runs(cfg, lambda profiles: dist, faults))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("chunk", [1, 2, 7])
@given(in_step_runs())
def test_random_in_step_runs_match_in_small_chunks(chunk, case):
    cfg, dist, faults = case
    with _in_chunks(chunk):
        assert_equivalent(_runs(cfg, lambda profiles: dist, faults))


@pytest.mark.parametrize("t0, tau", [
    (0.0, 0.02), (0.002, 0.01), (0.1234567, 0.0173), (3.0, 1e-7), (0.05, 0.025)])
def test_window_hop_times_are_the_stepped_chain(t0, tau):
    # a window's trace takes its hop times from np.add.accumulate, in chunks;
    # over 250,000 hops and every seam they must equal stepping's t + tau
    n = 250_000
    pr = _PathRun(1, [0, 2, 3, 1], PathProfile(path_id=1, H=3, tau=tau, T_dist=100.0),
                  total=n, base_pkt=0, j_tx=0.0, j_ctrl_tx=0.0)
    pr.sent = 1
    lane = _WindowLines(pr, t0)
    lane.units = n
    times = []
    while lane.taken < lane.units:
        lane.build(simulation._TRACE_CHUNK)
        times += lane.take(len(lane.times))[0].tolist()
    t, stepped = t0, []
    for _ in range(n):
        stepped.append(t)
        t += tau
    assert times == stepped


FIELD_FUZZ = """
field.nodes {nodes}
field.area {side} {side}
field.radio_range 24
field.seed {seed}
field.source 0
field.sink 1
field.redundant_fraction {spares}
packets {packets}
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
sim.initial_energy {energy}
"""


@st.composite
def field_runs(draw):
    # random fields about as dense as the benchmark's 1,500-node field, with
    # node and link faults on the discovered routes
    nodes = draw(st.integers(40, 400))
    cfg = parse_scenario(FIELD_FUZZ.format(
        nodes=nodes, side=round(8 * nodes ** 0.5), seed=draw(st.integers(0, 999)),
        spares=draw(st.sampled_from([0.0, 0.05, 0.2])),
        packets=draw(st.integers(1, 200)),
        energy=draw(st.sampled_from([23760.0, 0.05, 0.01]))))
    try:
        _, table = build_network(cfg)
    except ScenarioError:  # no route from the source to the sink
        assume(False)
    faults = []
    for _ in range(draw(st.integers(1, 3))):
        route = draw(st.sampled_from(table.routes))
        i = draw(st.integers(0, len(route.nodes) - 2))
        time = draw(st.one_of(st.floats(0.0, 2.0), st.integers(0, 60).map(
            lambda k: _hop_time(route.profile.tau, k))))
        if draw(st.booleans()):
            faults.append(FaultEvent(time=time, kind="node_fail",
                                     target=draw(st.sampled_from(route.nodes[i:i + 2]))))
        else:
            faults.append(FaultEvent(time=time, kind="link_fail",
                                     target=tuple(route.nodes[i:i + 2])))
    return cfg, draw(st.sampled_from(list(Scheme))), faults


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_runs())
def test_random_field_runs_match(case):
    cfg, scheme, faults = case
    runs = _runs(cfg, _scheme(scheme, cfg), faults)
    assert_equivalent(runs)
    rep = runs[0][0]
    if not isinstance(rep, str):
        # a repair answers a scripted fault or a node run dry, never a
        # detour that cannot carry the packet on
        repaired = sum(fr.drove_recovery and fr.replacement is not None
                       for fr in rep.fault_records)
        dry = sum(led.residual <= 0.0 for led in rep.ledger.nodes.values())
        assert repaired <= len(faults) + dry
