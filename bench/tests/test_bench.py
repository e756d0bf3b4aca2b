"""Tests of the benchmark's own code: scenarios, spans, output checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import heapq
import shutil
from collections import Counter
from pathlib import Path

import pytest

from checks import check_run, compare_csv
from tracer import Tracer, counting_heapq
from workloads import WORKLOADS, fault_lines, parse_routes, scenario_text
from wsn_multipath.scenario import parse_scenario
from wsn_multipath.simulation import EventKind, SimEvent

EXPECTED = Path(__file__).resolve().parents[1] / "expected"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scenario_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert scenario_text(w, 5) == scenario_text(w, 5)
    assert scenario_text(w, 5) != scenario_text(w, 6)
    # another seed reorders the file but describes the same experiment
    assert parse_scenario(scenario_text(w, 5)) == parse_scenario(scenario_text(w, 6))
    cfg = parse_scenario(scenario_text(w, 5))
    assert (cfg.packets, len(cfg.schemes)) == (w.packets, w.schemes)


def test_faults_go_on_the_middle_interior_node_of_routes_1_to_3():
    routes = parse_routes("1: 0,283,34,1\n2: 0,534,59,7,1\n3: 0,1\n"
                          "4: 0,1315,307,1\n")
    with pytest.raises(ValueError, match="route 3"):
        fault_lines(routes)
    routes[3] = [0, 904, 149, 1]
    w = WORKLOADS["field_faults"]
    text = scenario_text(w, 1, fault_lines(routes))
    faults = parse_scenario(text).faults.sorted_events()
    assert [(f.time, f.target) for f in faults] == [(0.05, 34), (0.10, 59), (0.15, 149)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle()

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle, keep=True)
    outer = tracer.wrap("outer", outer, keep=True)
    outer()
    assert tracer.stats["leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["middle"] == [1, 5.5, 1.5]
    assert tracer.stats["outer"] == [1, 8.5, 3.0]
    # kept spans carry their parent; the unkept leaf spans are not stored
    assert tracer.spans == [(0, None, "outer", 0.0, 8.5), (1, 0, "middle", 3.0, 8.5)]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    boom = tracer.wrap("boom", boom, keep=True)
    with pytest.raises(RuntimeError):
        boom()
    assert tracer.stats["boom"] == [1, 1.0, 1.0]
    assert tracer.spans == [(0, None, "boom", 0.0, 1.0)]


def test_counting_heapq_counts_pops_by_kind():
    counts = Counter()
    hq = counting_heapq(counts)
    heap = []
    for seq, kind in enumerate([EventKind.PACKET_SEND, EventKind.TIMER_EXPIRE,
                                EventKind.PACKET_SEND]):
        ev = SimEvent(time=float(seq), seq=seq, kind=kind)
        hq.heappush(heap, (ev.time, seq, ev))
    while heap:
        hq.heappop(heap)
    assert counts == {"PacketSend": 2, "TimerExpire": 1}
    assert hq.heappush is heapq.heappush


def _bundled_outputs(tmp_path) -> Path:
    """A copy of the recorded bundled_d10k outputs plus a matching report."""
    out = tmp_path / "out"
    shutil.copytree(EXPECTED / "bundled_d10k", out)
    header, *rows = [ln.split(",") for ln in
                     (out / "distribution.csv").read_text().splitlines()]
    lines = ["packets 10000"]
    for col, label in enumerate(header[2:], start=2):
        lines += [f"scheme {label}",
                  "  allocation " + " ".join(r[col] for r in rows)]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    return out


def _check(out: Path) -> list[str]:
    w = WORKLOADS["bundled_d10k"]
    expected = {"exit": 3, "verdicts": ["delay ordering: PASS",
                                        "energy ordering: PASS",
                                        "energy closeness: FAIL"]}
    stdout = "\n".join(expected["verdicts"]) + "\n"
    return check_run(w, expected, 3, stdout, str(out),
                     str(EXPECTED / "bundled_d10k"))


def test_checks_accept_the_recorded_outputs(tmp_path):
    assert _check(_bundled_outputs(tmp_path)) == []


def test_checks_reject_a_perturbed_distribution(tmp_path):
    out = _bundled_outputs(tmp_path)
    fn = out / "distribution.csv"
    fn.write_text(fn.read_text().replace("2047", "2048", 1))
    assert _check(out) == ["distribution.csv differs from the reference"]


def test_csv_values_compare_within_1e9_relative(tmp_path):
    ref = EXPECTED / "bundled_d10k" / "energy.csv"
    near = tmp_path / "energy.csv"
    near.write_text(ref.read_text().replace("1918.927254", "1918.9272540000001"))
    assert compare_csv(str(near), str(ref)) == []
    near.write_text(ref.read_text().replace("1918.927254", "1918.92726"))
    assert compare_csv(str(near), str(ref)) == [
        "energy.csv: row 4: 1918.92726 != 1918.927254"]


def test_checks_reject_an_unexpected_exit_code(tmp_path):
    out = _bundled_outputs(tmp_path)
    w = WORKLOADS["field_faults"]
    # field_faults accepts exit 0 or 3 only when it agrees with the verdicts
    report = out / "report.txt"
    report.write_text("packets 200\n" + "".join(
        f"scheme {s}\n  allocation 40 40 40 40 40\n  dropped 117\n"
        for s in ("single_path", "equal_split", "adaptive")))
    verdicts = "delay ordering: FAIL\nenergy ordering: PASS\nenergy closeness: FAIL\n"
    assert check_run(w, {}, 3, verdicts, str(out), "") == []
    assert check_run(w, {}, 0, verdicts, str(out), "") != []
    assert check_run(w, {}, 1, "", str(out), "") != []


def test_traced_run_reports_every_per_layer_metric():
    import json
    from run import layer_metrics
    spec = json.loads((EXPECTED.parents[1] / "BENCHMARK.json").read_text())
    names = set(layer_metrics({"stats": {}, "counts": {}, "events": {}}))
    # per_layer() adds these to the traced run's own figures
    names |= {"cli.traced_run_s", "cli.trace_overhead_s", "drop_ratio", "fail_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
