"""Run the three distribution schemes on one scenario and compare them.

The network is built once per comparison: one deploy, one adjacency and one
route discovery. Each scheme then runs on its own copy of that pristine graph,
so faults and energy drain do not leak between runs. The copy copies the
graph's small sets and dict of changed node state and shares the rest.
Every scheme reads the same routing table: it is read-only once built, and
recovery puts spares into the engine's own route lists.
Delay is the completion time of the whole transfer; energy is communication
plus radio idling plus sensing. Sensing is priced over the longest round
among the compared schemes, the common observation window: the field keeps
sensing while the slowest scheme is still draining, so a faster transfer must
not be credited for sensing time it did not save. Idle is priced by the
engine over each scheme's own round (the radio can sleep once the transfer
is done).

A traced comparison streams each scheme's event trace to
``trace_<scheme>.txt`` in the output directory as the engine makes the lines
(``SimConfig.trace`` is the sink), so no trace is held in memory. A file is
written under a temporary name and takes its own only once the whole
comparison has run; a scheme without a line leaves no file, and a comparison
that raises leaves no trace, nor a directory it made.
"""

from __future__ import annotations

import math
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field

from .distribution import Distribution, Scheme, allocate, verify_edp_bound
from .scenario import ScenarioConfig, build_network
from .simulation import SimConfig, TransferReport, run_transfer

__all__ = [
    "SchemeRun",
    "ComparisonReport",
    "run_comparison",
    "emit_outputs",
]

_SCHEME_LABEL = {
    Scheme.SINGLE_PATH: "single_path",
    Scheme.EQUAL_SPLIT: "equal_split",
    Scheme.ADAPTIVE: "adaptive",
}


@dataclass
class SchemeRun:
    scheme: Scheme
    distribution: Distribution
    transfer: TransferReport
    sensing_energy: float = 0.0

    @property
    def label(self) -> str:
        return _SCHEME_LABEL[self.scheme]

    @property
    def overall_delay(self) -> float:
        return self.transfer.completion_time

    @property
    def comm_energy(self) -> float:
        return self.transfer.comm_energy()

    @property
    def idle_energy(self) -> float:
        return self.transfer.ledger.total("idle")

    @property
    def total_energy(self) -> float:
        return self.comm_energy + self.idle_energy + self.sensing_energy


@dataclass
class ComparisonReport:
    packets: int
    runs: list[SchemeRun]
    observation_window: float
    fabric_count: int
    background_nodes: int
    hops_by_path: dict[int, int]
    delay_ordering_ok: bool | None = None
    energy_ordering_ok: bool | None = None
    closeness_ok: bool | None = None
    warnings: list[str] = field(default_factory=list)
    trace_files: list[str] = field(default_factory=list)

    def run_for(self, scheme: Scheme) -> SchemeRun:
        for r in self.runs:
            if r.scheme is scheme:
                return r
        raise KeyError(f"scheme {scheme} was not part of this comparison")

    @property
    def all_ok(self) -> bool:
        verdicts = [self.delay_ordering_ok, self.energy_ordering_ok, self.closeness_ok]
        return all(v is not False for v in verdicts)


class _TraceFiles:
    """The trace files of one comparison in ``out_dir``, or none when it is
    None. Each is written as ``trace_<label>.txt.part``; on leaving, a file
    with lines takes its final name and an empty one is removed, or, when
    the comparison raised, every file goes, with the directory if it was made
    here."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.made: str | None = None    # top directory made here
        self.names: list[str] = []
        self.kept: list[str] = []

    def __enter__(self) -> _TraceFiles:
        if self.out_dir is not None:
            head = os.path.abspath(self.out_dir)
            while not os.path.isdir(head):
                self.made, head = head, os.path.dirname(head)
            os.makedirs(self.out_dir, exist_ok=True)
        return self

    def open(self, label: str):
        """A context giving the scheme's sink: a file, or None untraced."""
        if self.out_dir is None:
            return nullcontext()
        fn = os.path.join(self.out_dir, f"trace_{label}.txt")
        sink = open(fn + ".part", "w", encoding="utf-8", newline="\n")
        self.names.append(fn)
        return sink

    def __exit__(self, exc_type, *_) -> None:
        for fn in self.names:
            if exc_type is None and os.path.getsize(fn + ".part"):
                os.replace(fn + ".part", fn)
                self.kept.append(fn)
            else:
                os.remove(fn + ".part")
        if exc_type is not None and self.made is not None:
            shutil.rmtree(self.made)


def run_comparison(cfg: ScenarioConfig, trace_dir: str | None = None) -> ComparisonReport:
    """Allocate, simulate and account each requested scheme.

    Ordering verdicts (adaptive fastest, single path cheapest, adaptive
    energy closer to single path than to equal split) are only produced
    when all three schemes were requested; all three fail when any scheme
    dropped packets. Every scheme that dropped packets gets a warning,
    whichever schemes ran. With ``trace_dir``, each scheme's event trace is
    streamed to ``trace_<label>.txt`` there, and ``trace_files`` lists the
    files written.
    """
    with _TraceFiles(trace_dir) as traces:
        rep = _compare(cfg, traces)
    rep.trace_files = traces.kept
    return rep


def _compare(cfg: ScenarioConfig, traces: _TraceFiles) -> ComparisonReport:
    runs: list[SchemeRun] = []
    warnings: list[str] = []
    fabric_count = 0
    pristine, table = build_network(cfg)
    profiles = [r.profile for r in table.routes]
    hops_by_path = {p.path_id: p.H for p in profiles}
    for code in cfg.schemes:
        scheme = Scheme(code)
        dist = allocate(scheme, cfg.ep, profiles, cfg.packets)
        if scheme is Scheme.ADAPTIVE:
            bound = verify_edp_bound(cfg.ep, profiles, dist)
            warnings.extend(f"adaptive: {w}" for w in bound.warnings)
        with traces.open(_SCHEME_LABEL[scheme]) as sink:
            sim_cfg = SimConfig(max_attempts=cfg.max_attempts,
                                control_bits=cfg.control_bits,
                                idle_power=cfg.idle_power, trace=sink)
            # the graph copy is made in the call so it is freed when the run ends
            report = run_transfer(pristine.copy(), table, dist, cfg.ep, cfg.link,
                                  faults=cfg.faults, config=sim_cfg)
        fabric_count = max(fabric_count, len(report.fabric_nodes))
        runs.append(SchemeRun(scheme=scheme, distribution=dist, transfer=report))
    t_obs = max((r.overall_delay for r in runs), default=0.0)
    for r in runs:
        n_sensing = len(r.transfer.fabric_nodes) + cfg.background_nodes
        r.sensing_energy = cfg.ep.K_r * t_obs * n_sensing
        for name, value in (("sensing", r.sensing_energy), ("total", r.total_energy)):
            if not math.isfinite(value):
                raise ValueError(f"{r.label}: the {name} energy overflows")
    rep = ComparisonReport(packets=cfg.packets, runs=runs,
                           observation_window=t_obs,
                           fabric_count=fabric_count,
                           background_nodes=cfg.background_nodes,
                           hops_by_path=hops_by_path,
                           warnings=warnings)
    # a scheme that lost packets was not measured moving the demand: its
    # delay is when its paths failed and its energy is for a partial load
    lossy = [r for r in runs if r.transfer.total_dropped or r.transfer.failed_paths]
    compared = {r.scheme for r in runs} == set(Scheme)
    for r in lossy:
        rep.warnings.append(
            f"{r.label}: dropped {r.transfer.total_dropped} of {r.distribution.total} "
            f"packets on failed paths {' '.join(map(str, r.transfer.failed_paths))}"
            + ("; ordering checks fail" if compared else ""))
    if compared:
        one = rep.run_for(Scheme.SINGLE_PATH)
        two = rep.run_for(Scheme.EQUAL_SPLIT)
        three = rep.run_for(Scheme.ADAPTIVE)
        rep.delay_ordering_ok = (three.overall_delay <= two.overall_delay
                                 <= one.overall_delay)
        rep.energy_ordering_ok = (one.total_energy <= three.total_energy
                                  <= two.total_energy)
        rep.closeness_ok = (abs(three.total_energy - one.total_energy)
                            <= abs(three.total_energy - two.total_energy))
        if lossy:
            rep.delay_ordering_ok = rep.energy_ordering_ok = rep.closeness_ok = False
    return rep


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _path_ids(rep: ComparisonReport) -> list[int]:
    ids: set[int] = set()
    for r in rep.runs:
        ids.update(pid for pid, _ in r.distribution.allocations)
    return sorted(ids)


def emit_outputs(rep: ComparisonReport, out_dir: str) -> list[str]:
    """Write distribution.csv, delays.csv, energy.csv and report.txt.

    Output is byte-stable: same report, same bytes. Returns the paths of the
    comparison's output files: these four, then the trace files
    ``run_comparison`` wrote.
    """
    os.makedirs(out_dir, exist_ok=True)
    labels = [r.label for r in rep.runs]
    paths = _path_ids(rep)
    written = []

    fn = os.path.join(out_dir, "distribution.csv")
    with open(fn, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path_id", "hops"] + labels) + "\n")
        for pid in paths:
            row = [str(pid), str(rep.hops_by_path[pid])]
            row += [str(r.distribution.packets_for(pid)) for r in rep.runs]
            fh.write(",".join(row) + "\n")
    written.append(fn)

    fn = os.path.join(out_dir, "delays.csv")
    with open(fn, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path_id"] + labels) + "\n")
        for pid in paths:
            row = [str(pid)]
            for r in rep.runs:
                d = r.transfer.path_delays.get(pid, 0.0)
                row.append("failed" if math.isinf(d) else _fmt(d))
            fh.write(",".join(row) + "\n")
        fh.write(",".join(["overall"] + [_fmt(r.overall_delay) for r in rep.runs]) + "\n")
    written.append(fn)

    fn = os.path.join(out_dir, "energy.csv")
    with open(fn, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scheme,communication,idle,sensing,total\n")
        for r in rep.runs:
            fh.write(",".join([r.label, _fmt(r.comm_energy), _fmt(r.idle_energy),
                               _fmt(r.sensing_energy), _fmt(r.total_energy)]) + "\n")
    written.append(fn)

    fn = os.path.join(out_dir, "report.txt")
    with open(fn, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"packets {rep.packets}\n")
        fh.write(f"observation_window {_fmt(rep.observation_window)}\n")
        fh.write(f"sensing_nodes {rep.fabric_count + rep.background_nodes}\n")
        for r in rep.runs:
            alloc = " ".join(str(r.distribution.packets_for(p)) for p in paths)
            fh.write(f"\nscheme {r.label}\n")
            fh.write(f"  allocation {alloc}\n")
            fh.write(f"  delay {_fmt(r.overall_delay)}\n")
            fh.write(f"  energy comm={_fmt(r.comm_energy)} idle={_fmt(r.idle_energy)} "
                     f"sensing={_fmt(r.sensing_energy)} total={_fmt(r.total_energy)}\n")
            if r.transfer.failed_paths:
                fh.write(f"  failed_paths {' '.join(map(str, r.transfer.failed_paths))}\n")
            dropped = r.transfer.total_dropped
            if dropped:
                fh.write(f"  dropped {dropped}\n")
        fh.write("\n")
        for name, verdict in (("delay_ordering", rep.delay_ordering_ok),
                              ("energy_ordering", rep.energy_ordering_ok),
                              ("energy_closeness", rep.closeness_ok)):
            if verdict is None:
                fh.write(f"check {name} skipped\n")
            else:
                fh.write(f"check {name} {'PASS' if verdict else 'FAIL'}\n")
        for w in rep.warnings:
            fh.write(f"warning {w}\n")
    written.append(fn)
    return written + rep.trace_files
