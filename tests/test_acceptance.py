"""Acceptance gate: one test per criterion, each at its stated
tolerance, each printing a single ``CRITERION n PASS/FAIL`` line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import io
import itertools
import math
import time
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.connectivity import local_node_connectivity

from wsn_multipath import (
    Distribution,
    EnergyParams,
    FaultCase,
    FaultEvent,
    FaultScript,
    LinkParams,
    QuadraticCoefficients,
    Scheme,
    ScenarioConfig,
    SimConfig,
    allocate,
    average_edp,
    build_network,
    bundled_scenario_path,
    coefficients_for_path,
    deploy_field,
    discover_disjoint_paths,
    load_scenario,
    normalize_distribution,
    parse_scenario,
    path_delay,
    path_edp,
    path_energy,
    run_comparison,
    run_transfer,
    solve_max_packets,
    verify_edp_bound,
)
from wsn_multipath.cli import main as cli_main

# benchmark reference targets (per-path delays in seconds and the adaptive
# packet split back-solved from them)
EQUAL_SPLIT_D100 = {1: 3.595, 2: 8.794, 3: 1.994, 4: 7.994, 5: 2.794}
EQUAL_SPLIT_D200 = {1: 7.194, 2: 17.59, 3: 3.994, 4: 15.994, 5: 5.594}
ADAPTIVE_D100 = {1: 3.594, 2: 3.514, 3: 3.694, 4: 3.594, 5: 3.634}
ADAPTIVE_SPLIT_D100 = {1: 20, 2: 8, 3: 37, 4: 9, 5: 26}


class _Verdict:
    """Prints CRITERION n PASS/FAIL when the guarded block exits."""

    def __init__(self, num: int):
        self.num = num
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        print(f"\nCRITERION {self.num} {status}{tail}")
        return False


@pytest.fixture(scope="module")
def bench_cfg():
    return load_scenario(bundled_scenario_path())


def _equal_split_delays(cfg, D):
    run_cfg = replace(cfg, packets=D, schemes=[2])
    rep = run_comparison(run_cfg)
    return rep.run_for(Scheme.EQUAL_SPLIT).transfer.path_delays


def test_criterion_1_equal_split_benchmark_delays(bench_cfg):
    with _Verdict(1) as v:
        start = time.perf_counter()
        worst = 0.0
        for D, targets in ((100, EQUAL_SPLIT_D100), (200, EQUAL_SPLIT_D200)):
            delays = _equal_split_delays(bench_cfg, D)
            for pid, want in targets.items():
                rel = abs(delays[pid] - want) / want
                worst = max(worst, rel)
                assert rel <= 0.005, (D, pid, delays[pid], want)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        v.detail = (f"equal-split delays within 0.5% of the reference table "
                    f"(worst {worst:.3%}), runtime {elapsed:.2f}s")


def test_criterion_2_adaptive_benchmark_delays_and_split(bench_cfg):
    with _Verdict(2) as v:
        rep = run_comparison(replace(bench_cfg, schemes=[3]))
        run = rep.run_for(Scheme.ADAPTIVE)
        worst = 0.0
        for pid, want in ADAPTIVE_D100.items():
            rel = abs(run.transfer.path_delays[pid] - want) / want
            worst = max(worst, rel)
            assert rel <= 0.01, (pid, run.transfer.path_delays[pid], want)
        off = 0
        for pid, want in ADAPTIVE_SPLIT_D100.items():
            got = run.distribution.packets_for(pid)
            off = max(off, abs(got - want))
            assert abs(got - want) <= 1, (pid, got, want)
        v.detail = (f"adaptive delays within 1% (worst {worst:.3%}), "
                    f"split {run.distribution.as_list()} off by <= {off} packets")


def test_criterion_3_scheme_orderings_via_harness_exit_code(bench_cfg, tmp_path):
    with _Verdict(3) as v:
        code = cli_main(["run", str(bundled_scenario_path()),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        rep = run_comparison(bench_cfg)
        d = {r.scheme: r.overall_delay for r in rep.runs}
        e = {r.scheme: r.total_energy for r in rep.runs}
        s1, s2, s3 = Scheme.SINGLE_PATH, Scheme.EQUAL_SPLIT, Scheme.ADAPTIVE
        assert d[s3] < d[s2] < d[s1]
        assert e[s1] <= e[s3] <= e[s2]
        assert abs(e[s3] - e[s1]) < abs(e[s3] - e[s2])
        v.detail = (f"exit code 0; delay {d[s3]:.3g} < {d[s2]:.3g} < {d[s1]:.3g}; "
                    f"energy {e[s1]:.4g} <= {e[s3]:.4g} <= {e[s2]:.4g} "
                    f"with adaptive closer to single-path")


def test_criterion_4_solver_root_properties():
    with _Verdict(4) as v:
        rng = np.random.default_rng(20260814)
        draws = 10_000
        for _ in range(draws):
            A = 10.0 ** rng.uniform(-8.0, 3.0)
            B = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-8.0, 3.0)
            C = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-8.0, 5.0)
            root = solve_max_packets(QuadraticCoefficients(A, B, C))
            assert root >= 0.0
            residual = abs(A * root * root + B * root - C)
            assert residual <= 1e-9 * max(C, 1.0), (A, B, C, root, residual)
            # larger budget never shrinks the root
            bigger_c = solve_max_packets(
                QuadraticCoefficients(A, B, C * rng.uniform(1.5, 5.0)))
            assert bigger_c >= root, (A, B, C)
            # costlier path never grows it
            bigger_a = solve_max_packets(
                QuadraticCoefficients(A * rng.uniform(1.5, 5.0), B, C))
            assert bigger_a <= root, (A, B, C)
        v.detail = (f"{draws} random (A, B, C) draws: root nonnegative, "
                    f"residual <= 1e-9*max(C, 1), monotone in C and A")


def test_criterion_5_edp_budget_met_at_root_and_after_scaling(bench_cfg):
    with _Verdict(5) as v:
        g, table = build_network(bench_cfg)
        paths = [r.profile for r in table.routes]
        ep = bench_cfg.ep
        budget = average_edp(ep, paths, 100)
        worst = 0.0
        for p in paths:
            root = solve_max_packets(coefficients_for_path(ep, p, budget))
            rel = abs(path_edp(ep, p, root) - budget) / budget
            worst = max(worst, rel)
            assert rel <= 1e-6, (p.path_id, rel)
        dist = allocate(Scheme.ADAPTIVE, ep, paths, 100)
        assert not dist.infeasible  # raw capacity 139 > 100 means a down-scale
        report = verify_edp_bound(ep, paths, dist)
        assert report.passed
        assert all(c.passed for c in report.checks)
        v.detail = (f"EDP at each real root within 1e-6 of the budget "
                    f"(worst {worst:.2e}); all {len(report.checks)} scaled "
                    f"allocations inside the bound")


def test_criterion_6_simulator_matches_closed_forms():
    with _Verdict(6) as v:
        rng = np.random.default_rng(6)
        worst_delay = worst_comm = 0.0
        for case in range(100):
            n_paths = int(rng.integers(1, 5))
            hops = [int(rng.integers(2, 11)) for _ in range(n_paths)]
            if n_paths == 1 and rng.random() < 0.2:
                hops = [1]  # direct source-sink link
            taus = [float(rng.uniform(0.002, 0.05)) for _ in range(n_paths)]
            ep = EnergyParams(
                e_t=float(rng.uniform(1e-4, 0.2)),
                e_d=float(rng.uniform(1e-7, 1e-4)) if rng.random() < 0.5 else 0.0,
                e_r=float(rng.uniform(1e-4, 0.2)),
                K_r=float(rng.uniform(0.0, 0.05)),
                S=float(rng.integers(100, 4000)),
            )
            link = LinkParams(b=float(rng.uniform(2e4, 2e5)),
                              l=float(rng.uniform(0.0, 0.01)),
                              q=float(rng.uniform(0.0, 0.01)))
            cfg = ScenarioConfig(mode="explicit", packets=1, schemes=[2],
                                 ep=ep, link=link, hops=hops, taus=taus,
                                 t_dist=float(rng.uniform(50.0, 200.0)))
            g, table = build_network(cfg)
            profiles = [r.profile for r in table.routes]
            alloc = tuple((p.path_id, int(rng.integers(1, 30))) for p in profiles)
            dist = Distribution(scheme=Scheme.EQUAL_SPLIT, allocations=alloc,
                                total=sum(n for _, n in alloc))
            rep = run_transfer(g, table, dist, ep, link)
            assert rep.total_delivered == dist.total
            assert not rep.fault_records
            for p in profiles:
                delta = dist.packets_for(p.path_id)
                want_t = path_delay(delta, p)
                got_t = rep.path_delays[p.path_id]
                rel_t = abs(got_t - want_t) / want_t
                worst_delay = max(worst_delay, rel_t)
                assert rel_t <= 1e-9, (case, p.path_id, got_t, want_t)
                want_e = path_energy(ep, p, delta) - ep.K_r * (p.H + 1)
                got_e = rep.ledger.comm_for_path(p.path_id)
                rel_e = abs(got_e - want_e) / want_e
                worst_comm = max(worst_comm, rel_e)
                assert rel_e <= 1e-6, (case, p.path_id, got_e, want_e)
        v.detail = (f"100 randomized fault-free scenarios: delay within 1e-9 "
                    f"(worst {worst_delay:.2e}), communication energy within "
                    f"1e-6 (worst {worst_comm:.2e}) of the closed forms")


SINGLE_PATH_TEXT = """
paths.hops 5
paths.tau 0.02
paths.distance 100
paths.redundant 2
packets 12
schemes 3
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
"""

TAU, TC, M = 0.02, 0.002, 5


def _fault_run(fault):
    cfg = parse_scenario(SINGLE_PATH_TEXT)
    g, table = build_network(cfg)
    profiles = [r.profile for r in table.routes]
    dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, cfg.packets)
    trace = io.StringIO()
    rep = run_transfer(g, table, dist, cfg.ep, cfg.link,
                       faults=FaultScript([fault]),
                       config=SimConfig(trace=trace))
    return rep, trace.getvalue().splitlines()


def test_criterion_7_fault_cases_recover_and_deliver():
    with _Verdict(7) as v:
        node_fault = FaultEvent(time=0.05, kind="node_fail", target=3)
        link_fault = FaultEvent(time=0.05, kind="link_fail", target=(3, 4))

        rep1, lines1 = _fault_run(node_fault)
        drove = [fr for fr in rep1.fault_records if fr.drove_recovery]
        assert len(drove) == 1 and drove[0].case is FaultCase.NODE_SILENT
        assert drove[0].failed_node == 3 and drove[0].replacement == 6
        assert rep1.total_delivered == 12 and rep1.total_dropped == 0
        assert not rep1.failed_paths

        # downstream timer must fire exactly m*tau past the expected arrival
        send = [l for l in lines1 if " PacketSend 3 4 " in l][0]
        timer = [l for l in lines1
                 if l.split()[1] == "TimerExpire" and l.split()[2] == "4"][0]
        t_send, t_fire = float(send.split()[0]), float(timer.split()[0])
        assert t_fire == (t_send + TAU) + M * TAU

        rep2, lines2 = _fault_run(link_fault)
        drove = [fr for fr in rep2.fault_records if fr.drove_recovery]
        assert len(drove) == 1 and drove[0].case is FaultCase.HOP_UNREACHABLE
        assert drove[0].failed_node == 4 and drove[0].replacement == 6
        assert rep2.total_delivered == 12 and rep2.total_dropped == 0

        # bit-identical repetition under the same seed
        (again1, again_lines1), (again2, again_lines2) = (
            _fault_run(node_fault), _fault_run(link_fault))
        assert again1.to_text() == rep1.to_text()
        assert again_lines1 == lines1
        assert again2.to_text() == rep2.to_text()
        assert again_lines2 == lines2
        v.detail = ("node failure handled as case 1, link failure as case 2, "
                    "both recovered via the nearest spare with all 12 packets "
                    "delivered; timer exact; reruns bit-identical")


def test_criterion_8_route_disjointness_and_count_bound():
    with _Verdict(8) as v:
        rng = np.random.default_rng(88)
        small_checked = 0
        for i in range(1000):
            n = int(rng.integers(4, 13) if i % 4 == 0 else rng.integers(4, 51))
            side = float(rng.uniform(30.0, 120.0))
            g = deploy_field(area=(side, side), node_count=n,
                             seed=int(rng.integers(0, 2**31)),
                             radio_range=float(rng.uniform(15.0, 60.0)),
                             redundant_fraction=0.0)
            routes = discover_disjoint_paths(g, 0, 1, max_paths=n)
            interiors = [set(r.nodes[1:-1]) for r in routes]
            for a, b in itertools.combinations(range(len(routes)), 2):
                assert not (interiors[a] & interiors[b]), (i, routes)
            for inner in interiors:
                assert 0 not in inner and 1 not in inner
            if n <= 12 and routes:
                G = nx.Graph()
                G.add_nodes_from(range(len(g)))
                for u in range(len(g)):
                    G.add_edges_from((u, w) for w in g.neighbors(u))
                assert len(routes) <= local_node_connectivity(G, 0, 1), i
                small_checked += 1
        v.detail = (f"1000 random graphs: routes pairwise node-disjoint; "
                    f"greedy count within the exact maximum on "
                    f"{small_checked} small graphs")


def test_criterion_9_energy_conservation_and_allocation_totals(bench_cfg):
    with _Verdict(9) as v:
        # bitwise residual identity on a clean benchmark round
        g, table = build_network(bench_cfg)
        profiles = [r.profile for r in table.routes]
        dist = allocate(Scheme.ADAPTIVE, bench_cfg.ep, profiles, 100)
        rep = run_transfer(g, table, dist, bench_cfg.ep, bench_cfg.link,
                           config=SimConfig(idle_power=bench_cfg.idle_power))
        nodes_checked = 0
        for nid, led in rep.ledger.nodes.items():
            assert g.residual(nid) == led.initial - led.consumed
            nodes_checked += 1
        assert nodes_checked > 0

        # and on a round with a failure, replacement and control traffic
        fcfg = parse_scenario(SINGLE_PATH_TEXT)
        fg, ftable = build_network(fcfg)
        fprofiles = [r.profile for r in ftable.routes]
        fdist = allocate(Scheme.ADAPTIVE, fcfg.ep, fprofiles, 12)
        frep = run_transfer(fg, ftable, fdist, fcfg.ep, fcfg.link,
                            faults=FaultScript([FaultEvent(
                                time=0.05, kind="node_fail", target=3)]),
                            config=SimConfig(idle_power=409.6e-6))
        for nid, led in frep.ledger.nodes.items():
            assert fg.residual(nid) == led.initial - led.consumed
            nodes_checked += 1

        # every produced distribution carries exactly D packets
        dists = 0
        rng = np.random.default_rng(9)
        for scheme in Scheme:
            for D in (1, 7, 100, 200, 997):
                d = allocate(scheme, bench_cfg.ep, profiles, D)
                assert d.total == D == sum(d.as_list())
                assert all(n >= 0 for n in d.as_list())
                dists += 1
        for _ in range(50):
            raw = [(j + 1, float(rng.uniform(0.01, 80.0))) for j in range(5)]
            D = int(rng.integers(1, 400))
            d = normalize_distribution(raw, D)
            assert d.total == D == sum(d.as_list())
            dists += 1
        v.detail = (f"initial - residual matches the ledger bitwise on "
                    f"{nodes_checked} nodes across clean and faulted rounds; "
                    f"{dists} distributions all sum to their demand")
