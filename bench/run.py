"""Benchmark of ``wsn-multipath run`` on four workloads.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 bench/run.py --record

The load is a closed loop with one client: each program run is a fresh
process, started after the previous one has exited, and nothing runs in
parallel. With ``--trace 0`` the benchmark times ``wsn-multipath validate``
(set-up) and ``wsn-multipath run`` and prints the end-to-end metrics; with
``--trace 1`` it runs the program under ``traced_cli.py`` and prints the
per-layer metrics. Every run's outputs are checked against ``expected/``,
which ``--record`` rewrites from the current checkout. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_run, dropped, read_report, verdict_lines
from workloads import WORKLOADS, fault_lines, parse_routes, scenario_text

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
WORK = ROOT / ".bench_build" / "bench"

CLI = "import sys; from wsn_multipath.cli import main; sys.exit(main())"
SETUP_RUNS = 3      # validate runs per benchmark run; set-up is their median
MIN_RUNS = 2        # program runs per benchmark run, however long they take
MIN_TRACED = 2      # traced runs, so that event counts can be compared
TIME_LIMIT_S = 150  # no new program run starts that would end after this
CHILD_TIMEOUT_S = 60  # route discovery for a scenario; runs get what is left
# EventKind values at the seed commit: the per-kind metric names BENCHMARK.json
# lists. A kind the engine adds later still counts in simulation.events.
EVENT_KINDS = ("PacketSend", "PacketArrive", "AckTimeout", "BeaconSend",
               "BeaconResult", "TimerExpire", "FaultTrigger")


class Child:
    """One finished program run: exit code, output, wall time and peak RSS."""

    def __init__(self, argv: list[str], log_dir: Path,
                 timeout: float = CHILD_TIMEOUT_S):
        out_fn, err_fn = log_dir / "stdout.txt", log_dir / "stderr.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(out_fn, "wb") as out, open(err_fn, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                # wait4, not Popen.wait, so the child's rusage is kept
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:       # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_fn.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_fn.read_text(encoding="utf-8", errors="replace")


def cli(args: list[str], log_dir: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    return Child([sys.executable, "-c", CLI, *args], log_dir, timeout)


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    digest = hashlib.sha256()
    for fn in sorted((SRC / "wsn_multipath").rglob("*")):
        if fn.is_file() and "__pycache__" not in fn.parts:
            digest.update(fn.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(fn.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def _commit() -> str:
    """HEAD's hash when the checkout is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def write_scenario(w, seed: int, run_dir: Path) -> Path:
    """Write the workload's scenario; place faults on the discovered routes."""
    path = run_dir / "scenario.txt"
    path.write_text(scenario_text(w, seed), encoding="utf-8")
    if w.faults:
        found = cli(["paths", str(path)], run_dir)
        if found.code != 0:
            raise SystemExit(f"route discovery failed: {found.stderr.strip()}")
        extra = fault_lines(parse_routes(found.stdout))
        path.write_text(scenario_text(w, seed, extra), encoding="utf-8")
    return path


class Bench:
    def __init__(self, w, scenario: Path, run_dir: Path, expected: dict,
                 deadline: float):
        self.w, self.scenario, self.run_dir = w, scenario, run_dir
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []

    def _note(self, problems: list[str], what: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def more(self, took: list[float], minimum: int, start: float,
             seconds: float) -> bool:
        """Start another round: until ``seconds`` have passed and ``minimum``
        rounds were made, unless one more (taking as long as the last one,
        ``took[-1]``) would overrun the time limit."""
        now = time.perf_counter()
        if took and now + took[-1] > self.deadline:
            return False
        return len(took) < minimum or now - start < seconds

    def _timeout(self) -> float:
        return max(5.0, self.deadline + 20.0 - time.perf_counter())

    def validate(self) -> Child:
        c = cli(["validate", str(self.scenario)], self.run_dir, self._timeout())
        self._note([] if c.code == 0 and c.stdout.startswith("OK:")
                   else [f"validate exit {c.code}: {c.stderr.strip()[-200:]}"],
                   "validate")
        return c

    def _run_args(self, out: Path) -> list[str]:
        args = ["run", str(self.scenario), "--out", str(out)]
        return args + ["--trace"] if self.w.trace else args

    def _check(self, c: Child, out: Path, what: str,
               extra: list[str] = ()) -> dict | None:
        ref = EXPECTED / self.w.reference if self.w.reference else None
        problems = check_run(self.w, self.expected, c.code, c.stdout, str(out),
                             str(ref)) + list(extra)
        if problems and c.stderr.strip():
            problems.append(f"stderr: {c.stderr.strip()[-200:]}")
        self._note(problems, what)
        report = read_report(out / "report.txt") if not problems else None
        shutil.rmtree(out, ignore_errors=True)
        return report

    def run(self) -> tuple[Child, dict | None]:
        out = self.run_dir / "out"
        c = cli(self._run_args(out), self.run_dir, self._timeout())
        return c, self._check(c, out, "run")

    def traced(self, index: int) -> tuple[Child, dict | None, dict | None]:
        out = self.run_dir / "out"
        metrics_fn = self.run_dir / f"traced-{index}.json"
        c = Child([sys.executable, str(BENCH / "traced_cli.py"), str(metrics_fn),
                   *self._run_args(out)], self.run_dir, self._timeout())
        data = (json.loads(metrics_fn.read_text(encoding="utf-8"))
                if metrics_fn.is_file() else None)
        extra = []
        if data is None:
            extra.append("the traced run wrote no metrics")
        elif data["counts"].get("simulation.conservation_errors"):
            extra.append("delivered + dropped != allocation on some path")
        elif data["missing"]:
            # a renamed call is a gap in the benchmark, not a program failure
            warning = f"tracer found no {', '.join(data['missing'])}"
            if warning not in self.warnings:
                self.warnings.append(warning)
        return c, self._check(c, out, f"traced run {index}", extra), data


def _drops(w, reports: list[dict]) -> list[int]:
    """[dropped, demanded] packets, summed over the runs whose checks passed."""
    return [sum(dropped(r) for r in reports), w.packets * w.schemes * len(reports)]


def end_to_end(b: Bench, seconds: float) -> tuple[dict, dict]:
    w = b.w
    setup = [b.validate().wall_s for _ in range(SETUP_RUNS)]
    runs, reports = [], []
    start = time.perf_counter()
    while b.more([c.wall_s for c in runs], MIN_RUNS, start, seconds):
        c, report = b.run()
        runs.append(c)
        if report is not None:
            reports.append(report)
    run_s = statistics.median(c.wall_s for c in runs)
    drops = _drops(w, reports)
    samples = {"setup_s": setup, "run_s": [c.wall_s for c in runs],
               "peak_rss_mb": [c.rss_mb for c in runs], "dropped/demanded": drops}
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "packets_per_s": (w.packets * w.schemes / run_s, "packets/s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "delivered_ratio": (1.0 - drops[0] / drops[1] if drops[1] else 0.0, "ratio"),
    }
    return metrics, samples


def layer_metrics(data: dict) -> dict:
    """Per-layer values of one traced run; ``_s`` is self time."""
    stats, counts, events = data["stats"], data["counts"], data["events"]

    def calls(n):
        return stats.get(n, [0])[0]

    def total(n):
        return stats.get(n, [0, 0.0])[1]

    def own(n):
        return stats.get(n, [0, 0.0, 0.0])[2]

    n_events = sum(events.values())
    transfer_s = total("simulation.run_transfer")
    out = {
        "scenario.load_s": (total("scenario.load"), "s"),
        "scenario.build_network_s": (own("scenario.build_network"), "s"),
        "scenario.build_network_total_s": (total("scenario.build_network"), "s"),
        "scenario.build_network_calls": (calls("scenario.build_network"), "count"),
        "topology.deploy_field_s": (total("topology.deploy_field"), "s"),
        "topology.neighbors_s": (total("topology.neighbors"), "s"),
        "topology.neighbors_calls": (calls("topology.neighbors"), "count"),
        "topology.adjacency_builds": (counts.get("topology.adjacency_builds", 0), "count"),
        "topology.mutations": (counts.get("topology.mutations", 0), "count"),
        "topology.nearest_redundant_s": (total("topology.nearest_redundant"), "s"),
        "topology.nearest_redundant_calls": (calls("topology.nearest_redundant"), "count"),
        "routing.build_routing_table_s": (own("routing.build_routing_table"), "s"),
        "routing.build_routing_table_total_s": (total("routing.build_routing_table"), "s"),
        "routing.routes": (counts.get("routing.routes", 0), "count"),
        "routing.route_hops": (counts.get("routing.route_hops", 0), "count"),
        "routing.replace_failed_node_s": (own("routing.replace_failed_node"), "s"),
        "routing.replace_failed_node_total_s": (total("routing.replace_failed_node"), "s"),
        "routing.replace_failed_node_calls": (calls("routing.replace_failed_node"), "count"),
        "distribution.allocate_s": (total("distribution.allocate"), "s"),
        "distribution.verify_edp_bound_s": (total("distribution.verify_edp_bound"), "s"),
        "simulation.run_transfer_s": (own("simulation.run_transfer"), "s"),
        "simulation.run_transfer_total_s": (transfer_s, "s"),
        "simulation.events": (n_events, "count"),
        **{f"simulation.events.{k}": (events.get(k, 0), "count") for k in EVENT_KINDS},
        "simulation.events_per_s": (n_events / transfer_s if transfer_s else 0.0, "1/s"),
        "simulation.timer_event_share": (
            (events.get("AckTimeout", 0) + events.get("TimerExpire", 0)) / n_events
            if n_events else 0.0, "ratio"),
        "simulation.account_s": (total("simulation.account"), "s"),
        "simulation.retransmissions": (counts.get("simulation.retransmissions", 0), "count"),
        "simulation.fault_records": (counts.get("simulation.fault_records", 0), "count"),
        "simulation.recoveries": (counts.get("simulation.recoveries", 0), "count"),
        "simulation.trace_lines": (counts.get("simulation.trace_lines", 0), "count"),
        "harness.run_comparison_s": (own("harness.run_comparison"), "s"),
        "harness.run_comparison_total_s": (total("harness.run_comparison"), "s"),
        "harness.emit_outputs_s": (total("harness.emit_outputs"), "s"),
        "harness.output_bytes": (counts.get("harness.output_bytes", 0), "bytes"),
        "cli.main_s": (total("cli.main"), "s"),
    }
    return out


def per_layer(b: Bench, seconds: float) -> tuple[dict, dict, list]:
    """One untraced run, then traced runs; per-layer figures are medians."""
    plain, _ = b.run()
    traced, reports, layers, spans = [], [], [], []
    start = time.perf_counter()
    while b.more([c.wall_s for c in traced], MIN_TRACED, start, seconds):
        c, report, data = b.traced(len(traced))
        traced.append(c)
        if report is not None:
            reports.append(report)
        if data is not None:
            layers.append(layer_metrics(data))
            spans.append(data["spans"])
    counted = [{k: v for k, v in lay.items() if k.startswith("simulation.events.")}
               for lay in layers]
    if any(c != counted[0] for c in counted):
        b.problems.append(f"event counts differ between traced runs: {counted}")
    walls = [c.wall_s for c in traced]
    metrics = {name: (statistics.median(lay[name][0] for lay in layers), unit)
               for name, (_, unit) in (layers[0].items() if layers else ())}
    metrics["cli.traced_run_s"] = (statistics.median(walls), "s")
    metrics["cli.trace_overhead_s"] = (statistics.median(walls) - plain.wall_s, "s")
    drops = _drops(b.w, reports)
    metrics["drop_ratio"] = (drops[0] / drops[1] if drops[1] else 1.0, "ratio")
    metrics["fail_ratio"] = (b.failed / b.attempted, "ratio")
    return metrics, {"cli.traced_run_s": walls, "dropped/demanded": drops}, spans


def _summary(name: str, value: float, unit: str, samples: list | None) -> str:
    line = f"  {name:40s} {value:.10g} {unit}"
    if samples:
        line += (f"  (median of n={len(samples)}, min {min(samples):.6g},"
                 f" max {max(samples):.6g})")
    return line


def record() -> int:
    """Rewrite expected/ from this checkout: exit codes, verdicts, CSVs."""
    run_dir = WORK / "record"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    expected = {}
    for w in WORKLOADS.values():
        scenario = write_scenario(w, 0, run_dir)
        out = run_dir / "out"
        args = ["run", str(scenario), "--out", str(out)]
        c = cli(args + ["--trace"] if w.trace else args, run_dir)
        rep = read_report(out / "report.txt")
        expected[w.name] = {"exit": c.code, "verdicts": verdict_lines(c.stdout),
                            "dropped": dropped(rep),
                            "demanded": w.packets * w.schemes}
        if w.reference == w.name:
            ref = EXPECTED / w.name
            ref.mkdir(parents=True, exist_ok=True)
            for fn in ("distribution.csv", "delays.csv", "energy.csv"):
                shutil.copyfile(out / fn, ref / fn)
        shutil.rmtree(out)
        print(w.name, expected[w.name])
    (EXPECTED / "expected.json").write_text(
        json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected/ from this checkout and exit")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (SRC / "wsn_multipath" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'wsn_multipath'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    w = WORKLOADS[args.workload]
    expected = json.loads((EXPECTED / "expected.json").read_text())[w.name]
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env = environment()
        b = Bench(w, write_scenario(w, args.seed, run_dir), run_dir, expected,
                  deadline)
        if args.trace:
            metrics, samples, spans = per_layer(b, args.seconds)
        else:
            (metrics, samples), spans = end_to_end(b, args.seconds), []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{w.packets} packets x {w.schemes} schemes; expected at the seed commit: "
          f"exit {expected['exit']}, dropped {expected['dropped']}/{expected['demanded']}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(_summary(name, value, unit, samples.get(name)))
    print("  packets dropped / demanded over the checked runs: "
          "{}/{}".format(*samples["dropped/demanded"]))
    for warning in b.warnings:
        print(f"  WARNING {warning}")
    for problem in b.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "samples": samples,
                    "spans": spans}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
