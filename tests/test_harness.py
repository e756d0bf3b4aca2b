import dataclasses
import math
import os
import tracemalloc

import pytest

from wsn_multipath import (
    FaultEvent,
    Scheme,
    build_network,
    emit_outputs,
    parse_scenario,
    run_comparison,
)
from wsn_multipath import harness


@pytest.fixture
def bench_report(bench_scenario_text):
    return run_comparison(parse_scenario(bench_scenario_text))


class TestRunComparison:
    def test_distributions(self, bench_report):
        assert bench_report.run_for(Scheme.SINGLE_PATH).distribution.as_list() == \
            [0, 0, 100, 0, 0]
        assert bench_report.run_for(Scheme.EQUAL_SPLIT).distribution.as_list() == \
            [20, 20, 20, 20, 20]
        assert bench_report.run_for(Scheme.ADAPTIVE).distribution.as_list() == \
            [20, 8, 37, 9, 26]

    def test_overall_delays(self, bench_report):
        assert bench_report.run_for(Scheme.SINGLE_PATH).overall_delay == \
            pytest.approx(10.0, rel=1e-9)
        assert bench_report.run_for(Scheme.EQUAL_SPLIT).overall_delay == \
            pytest.approx(8.8, rel=1e-9)
        assert bench_report.run_for(Scheme.ADAPTIVE).overall_delay == \
            pytest.approx(3.7, rel=1e-9)
        assert bench_report.observation_window == pytest.approx(10.0, rel=1e-9)

    def test_energy_totals(self, bench_report):
        assert bench_report.run_for(Scheme.SINGLE_PATH).total_energy == \
            pytest.approx(17.402368, rel=1e-6)
        assert bench_report.run_for(Scheme.EQUAL_SPLIT).total_energy == \
            pytest.approx(20.86250496, rel=1e-6)
        assert bench_report.run_for(Scheme.ADAPTIVE).total_energy == \
            pytest.approx(19.09796045, rel=1e-6)

    def test_verdicts(self, bench_report):
        assert bench_report.delay_ordering_ok is True
        assert bench_report.energy_ordering_ok is True
        assert bench_report.closeness_ok is True
        assert bench_report.all_ok

    def test_sensing_uses_common_window(self, bench_report):
        # every scheme's sensing is priced over the slowest round
        for r in bench_report.runs:
            assert r.sensing_energy == pytest.approx(
                0.024 * bench_report.observation_window * 60, rel=1e-9)

    def test_single_scheme_skips_verdicts(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        cfg.schemes = [2]
        rep = run_comparison(cfg)
        assert [r.scheme for r in rep.runs] == [Scheme.EQUAL_SPLIT]
        assert rep.delay_ordering_ok is None
        assert rep.energy_ordering_ok is None
        assert rep.closeness_ok is None
        assert rep.all_ok  # nothing checked, nothing failed

    def test_doubling_demand_doubles_deterministic_schemes(self, bench_scenario_text):
        cfg1 = parse_scenario(bench_scenario_text)
        cfg2 = parse_scenario(bench_scenario_text)
        cfg2.packets = 200
        r1, r2 = run_comparison(cfg1), run_comparison(cfg2)
        for scheme in (Scheme.SINGLE_PATH, Scheme.EQUAL_SPLIT):
            a = r1.run_for(scheme).overall_delay
            b = r2.run_for(scheme).overall_delay
            assert b / a == pytest.approx(2.0, rel=0.005)


class TestEmitOutputs:
    def test_files_written(self, bench_report, tmp_path):
        files = emit_outputs(bench_report, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert names == {"distribution.csv", "delays.csv", "energy.csv", "report.txt"}

    def test_trace_files_when_enabled(self, bench_scenario_text, tmp_path):
        cfg = parse_scenario(bench_scenario_text)
        rep = run_comparison(cfg, trace_dir=str(tmp_path))
        assert [os.path.basename(f) for f in rep.trace_files] == [
            "trace_single_path.txt", "trace_equal_split.txt", "trace_adaptive.txt"]
        # the traces are all the comparison leaves; emit_outputs adds the rest
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(f) for f in rep.trace_files)
        assert emit_outputs(rep, str(tmp_path))[4:] == rep.trace_files
        first = (tmp_path / "trace_single_path.txt").read_text().splitlines()[0]
        assert first.split()[1:] == ["PacketSend", "0", "31", "0", "3"]

    @staticmethod
    def _peaks(text, packets, tmp_path):
        """The tracemalloc peaks of an untraced and a traced comparison."""
        cfg = parse_scenario(text)
        cfg.packets = packets
        peaks = []
        for trace_dir in (None, tmp_path / "traced"):
            tracemalloc.start()
            try:
                emit_outputs(run_comparison(cfg, trace_dir=trace_dir), str(tmp_path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_traced_run_holds_no_trace(self, bench_scenario_text, tmp_path):
        # 1,000 packets make ~53k lines (~3 MB); streamed, they add only the
        # file buffers to the untraced run's peak
        peaks = self._peaks(bench_scenario_text, 1000, tmp_path)
        assert peaks[1] - peaks[0] < 2**20, peaks

    def test_traced_run_holds_no_trace_at_full_scale(self, bench_scenario_text, tmp_path):
        # 10,000 packets make ~536k lines (~15 MB), most of them in three
        # windows that each span nearly a whole scheme's run; a window builds
        # its lines in bounded chunks, so the peak still grows by less than 1 MB
        peaks = self._peaks(bench_scenario_text, 10000, tmp_path)
        assert peaks[1] - peaks[0] < 2**20, peaks

    def test_distribution_csv(self, bench_report, tmp_path):
        emit_outputs(bench_report, str(tmp_path))
        lines = (tmp_path / "distribution.csv").read_text().splitlines()
        assert lines[0] == "path_id,hops,single_path,equal_split,adaptive"
        assert lines[1] == "1,9,0,20,20"
        assert lines[3] == "3,5,100,20,37"

    def test_delays_csv_overall_row(self, bench_report, tmp_path):
        emit_outputs(bench_report, str(tmp_path))
        lines = (tmp_path / "delays.csv").read_text().splitlines()
        assert lines[0] == "path_id,single_path,equal_split,adaptive"
        assert lines[-1].startswith("overall,")
        overall = lines[-1].split(",")
        assert float(overall[1]) == pytest.approx(10.0, rel=1e-9)
        assert float(overall[3]) == pytest.approx(3.7, rel=1e-9)

    def test_energy_csv_columns(self, bench_report, tmp_path):
        emit_outputs(bench_report, str(tmp_path))
        lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert lines[0] == "scheme,communication,idle,sensing,total"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["scheme"] == "single_path"
        assert float(row["communication"]) == pytest.approx(2.7648, rel=1e-9)

    def test_report_verdict_lines(self, bench_report, tmp_path):
        emit_outputs(bench_report, str(tmp_path))
        text = (tmp_path / "report.txt").read_text()
        assert "check delay_ordering PASS" in text
        assert "check energy_ordering PASS" in text
        assert "check energy_closeness PASS" in text

    def test_byte_stable(self, bench_scenario_text, tmp_path):
        cfg = parse_scenario(bench_scenario_text)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_comparison(cfg), str(a))
        emit_outputs(run_comparison(cfg), str(b))
        for name in ("distribution.csv", "delays.csv", "energy.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_allocation_warns_once(self, bench_scenario_text, tmp_path,
                                              monkeypatch):
        # only the adaptive split can fall short of the demand, and the
        # bound check names that once
        allocate = harness.allocate

        def short(scheme, *args):
            dist = allocate(scheme, *args)
            return dataclasses.replace(dist, infeasible=scheme is Scheme.ADAPTIVE)

        monkeypatch.setattr(harness, "allocate", short)
        emit_outputs(run_comparison(parse_scenario(bench_scenario_text)), str(tmp_path))
        warnings = [line for line in (tmp_path / "report.txt").read_text().splitlines()
                    if line.startswith("warning ")]
        assert [w for w in warnings if "integer split" in w] == [
            "warning adaptive: no integer split meets every path's bound"]


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

EXPLICIT_FAULTS = """
paths.hops 9 22 5 20 7
paths.tau 0.02 0.03 0.025 0.02 0.03
paths.redundant 4
packets 100
link.bit_rate 50000
energy.e_t 0.128
energy.e_d 1e-6
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
fault node_fail 0.05 5
fault node_fail 0.2 33
fault link_fail 0.1 12 13
fault link_fail 0.3 40 41
"""


def field_faults_config():
    # node_fail on the middle interior node of routes 1-3, as the benchmark's
    # field_faults workload places them
    cfg = parse_scenario(FIELD_FAULTS)
    _, table = build_network(cfg)
    for route, t in zip(table.routes, (0.05, 0.10, 0.15)):
        interior = route.interior
        cfg.faults.events.append(FaultEvent(time=t, kind="node_fail",
                                            target=interior[len(interior) // 2]))
    return cfg


def transfer_state(rep):
    ledger = rep.ledger
    return dict(
        delivered=rep.delivered, dropped=rep.dropped,
        retransmissions=rep.retransmissions, path_delays=rep.path_delays,
        completion_time=rep.completion_time, failed_paths=rep.failed_paths,
        fault_records=rep.fault_records, fabric_nodes=rep.fabric_nodes,
        path_comm={p: dict(counts) for p, counts in ledger.path_comm.items()},
        nodes={i: (led.initial, dict(led.busy), dict(led.tx), dict(led.rx), led.idle)
               for i, led in ledger.nodes.items()})


def graph_state(g):
    ids = range(len(g))
    return (g.version,
            {i: (g.residual(i), g.alive(i), i in g.spares) for i in ids},
            {i: list(g.neighbors(i)) for i in ids})


class TestSchemeIsolation:
    @pytest.fixture(params=["field", "explicit"])
    def faulty_config(self, request):
        if request.param == "field":
            return field_faults_config()
        return parse_scenario(EXPLICIT_FAULTS)

    def test_one_build_and_schemes_match_solo_runs(self, faulty_config, monkeypatch):
        built = []

        def counting_build(cfg):
            net = build_network(cfg)
            built.append((net, graph_state(net[0]), net[1].routes))
            return net

        monkeypatch.setattr(harness, "build_network", counting_build)
        rep = run_comparison(faulty_config)
        assert len(built) == 1
        (g, table), g_before, routes_before = built[0]
        # every scheme ran on a copy: the pristine network is untouched
        assert graph_state(g) == g_before
        assert table.routes == routes_before
        assert sum(len(r.transfer.fault_records) for r in rep.runs) > 0

        for r in rep.runs:
            solo = run_comparison(dataclasses.replace(faulty_config,
                                                      schemes=[r.scheme.value]))
            assert transfer_state(solo.runs[0].transfer) == transfer_state(r.transfer)
        assert len(built) == 1 + len(rep.runs)
