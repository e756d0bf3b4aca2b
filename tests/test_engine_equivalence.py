"""The windowed engine against the per-hop engine it shortcuts.

With ``SimConfig(trace=True)`` the engine steps every event; without it, it
advances the paths in windows between disruptions. The stepped run is the
oracle: counts, delays, fault records and per-path energy must be equal, and
per-node ledgers must agree within 1e-12 relative (in practice they match
bit for bit).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsn_multipath import (
    Distribution,
    EnergyParams,
    FaultEvent,
    FaultScript,
    LinkParams,
    ScenarioConfig,
    Scheme,
    SimConfig,
    allocate,
    build_network,
    parse_scenario,
    run_transfer,
)

REL = 1e-12


def _both(cfg, dist_for, faults=(), idle_power=409.6e-6, tweak=None):
    """Run one transfer per engine on fresh copies of ``cfg``'s network."""
    out = []
    for trace in (True, False):
        g, table, _, sink = build_network(cfg)
        if tweak:
            tweak(g, table)
        dist = dist_for([r.profile for r in table.routes_for(sink)])
        try:
            rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                               faults=FaultScript(list(faults)),
                               config=SimConfig(max_attempts=cfg.max_attempts,
                                                control_bits=cfg.control_bits,
                                                idle_power=idle_power, trace=trace),
                               destination=sink)
        except RuntimeError as exc:  # the oracle's own failures must recur
            rep = str(exc)
        out.append((rep, g))
    return out


def assert_equivalent(runs):
    (slow, g_slow), (fast, g_fast) = runs
    if isinstance(slow, str) or isinstance(fast, str):
        assert fast == slow
        return
    assert not fast.trace_lines
    for name in ("delivered", "dropped", "retransmissions", "failed_paths",
                 "path_delays", "completion_time", "fault_records",
                 "fabric_nodes"):
        assert getattr(fast, name) == getattr(slow, name), name
    for pid in slow.path_delays:
        assert fast.ledger.comm_for_path(pid) == slow.ledger.comm_for_path(pid), pid
    assert fast.ledger.nodes.keys() == slow.ledger.nodes.keys()
    for nid, want in slow.ledger.nodes.items():
        got = fast.ledger.nodes[nid]
        for part in ("tx", "rx", "idle"):
            assert math.isclose(getattr(got, part).value, getattr(want, part).value,
                                rel_tol=REL, abs_tol=0.0), (nid, part)
        assert math.isclose(got.busy, want.busy, rel_tol=REL, abs_tol=0.0), nid
        assert g_fast.nodes[nid].alive == g_slow.nodes[nid].alive, nid
        assert math.isclose(g_fast.nodes[nid].residual_energy,
                            g_slow.nodes[nid].residual_energy,
                            rel_tol=REL, abs_tol=0.0), nid


def _scheme(scheme, cfg):
    return lambda profiles: allocate(scheme, cfg.ep, profiles, cfg.packets)


def _hop_time(tau, hops):
    """The time of the ``hops``-th arrival, built as the engine builds it."""
    t = 0.0
    for _ in range(hops):
        t += tau
    return t


class TestBundled:
    def test_every_scheme_at_d100(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        for scheme in Scheme:
            assert_equivalent(_both(cfg, _scheme(scheme, cfg)))

    def test_node_and_link_faults(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 3\n")
        faults = [
            FaultEvent(time=0.3, kind="node_fail", target=4),         # path 1
            FaultEvent(time=0.61, kind="link_fail", target=(33, 34)),  # path 3
            FaultEvent(time=1.0, kind="node_fail", target=61),        # a spare
            FaultEvent(time=0.0, kind="link_fail", target=(0, 1)),    # no route
        ]
        for scheme in (Scheme.EQUAL_SPLIT, Scheme.ADAPTIVE):
            runs = _both(cfg, _scheme(scheme, cfg), faults)
            assert runs[0][0].fault_records
            assert_equivalent(runs)

    def test_sink_fails_before_any_delivery(self, bench_scenario_text):
        # the window before the fault reaches no path's sink, and the dead
        # sink pays no idle, so neither engine may make it a ledger
        cfg = parse_scenario(bench_scenario_text)
        faults = [FaultEvent(time=0.05, kind="node_fail", target=1)]
        for scheme in Scheme:
            runs = _both(cfg, _scheme(scheme, cfg), faults)
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
            runs = _both(cfg, _scheme(Scheme.EQUAL_SPLIT, cfg), faults)
            assert runs[0][0].fault_records
            assert_equivalent(runs)


class TestDepletion:
    def test_route_node_runs_dry_mid_run(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 1\n")

        def drain(g, table):
            g.set_residual(33, 0.02)   # about four packets' worth
            table.version = g.version

        runs = _both(cfg, _scheme(Scheme.ADAPTIVE, cfg), tweak=drain)
        assert not runs[0][1].nodes[33].alive
        assert_equivalent(runs)

    def test_tiny_initial_energy(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "sim.initial_energy 1e-6\n")
        for scheme in Scheme:
            runs = _both(cfg, _scheme(scheme, cfg))
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
    g, table, _, sink = build_network(cfg)
    routes = table.routes_for(sink)
    faults = [FaultEvent(time=t, kind="node_fail",
                         target=r.nodes[1:-1][len(r.nodes[1:-1]) // 2])
              for t, r in zip((0.05, 0.10, 0.15), routes)]
    runs = _both(cfg, _scheme(Scheme.EQUAL_SPLIT, cfg), faults)
    assert runs[0][0].fault_records
    assert_equivalent(runs)


@pytest.mark.parametrize("hops, taus, alloc", [
    # summed path by path, the source's busy time reaches 0.16 rather than
    # 0.15999999999999998, and its idle charge, idle_power * (0.16 - busy),
    # drops from 1.1e-20 J to zero
    ([1, 1, 1, 2], [0.01, 0.01, 0.01, 0.04], (0, 0, 8, 2)),
    # both paths reach the sink at t=0.05; the one sent earlier pops first
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
    runs = _both(cfg, lambda profiles: dist)
    assert_equivalent(runs)
    (slow, _), (fast, _) = runs
    for end in (0, 1):  # source and sink, bit for bit
        want, got = slow.ledger.nodes[end], fast.ledger.nodes[end]
        assert (got.tx.value, got.rx.value, got.idle.value, got.busy) == \
            (want.tx.value, want.rx.value, want.idle.value, want.busy), end


def test_same_time_timers_keep_their_push_order():
    # three hops fail as their senders run dry; the receivers' timers of
    # paths 1 and 4 fall due at one time and must pop in the order their
    # hops were sent, so each path's fault record keeps its own time
    cfg = ScenarioConfig(
        mode="explicit", packets=0, schemes=[2],
        ep=EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024),
        link=LinkParams(b=50000.0), hops=[6, 7, 3, 8],
        taus=[0.025, 0.04, 0.02, 0.02], t_dist=100.0, max_attempts=3,
        initial_energy=0.05)
    alloc = (5, 13, 4, 23)
    dist = Distribution(scheme=Scheme.EQUAL_SPLIT, total=sum(alloc),
                        allocations=tuple(enumerate(alloc, start=1)))
    runs = _both(cfg, lambda profiles: dist)
    assert_equivalent(runs)
    for rep, _ in runs:
        assert [(fr.time, fr.path_id, fr.initiator, fr.note)
                for fr in rep.fault_records] == [
            (0.4, 1, 2, "source/sink cannot be replaced"),
            (0.4, 4, 15, "source/sink cannot be replaced"),
            (0.72, 2, 7, "source/sink cannot be replaced"),
        ]


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
    runs = _both(cfg, lambda profiles: dist,
                 [FaultEvent(time=0.0, kind="link_fail", target=(2, 3))])
    assert_equivalent(runs)
    assert runs[0][0].delivered == {1: 4}


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
    assert_equivalent(_both(cfg, lambda profiles: dist, faults))
