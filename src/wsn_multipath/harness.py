"""Run the three distribution schemes on one scenario and compare them.

The network is built once per comparison: one deploy, one adjacency and one
route discovery. Each scheme then runs on its own copy of that pristine graph,
so faults and energy drain do not leak between runs. The copy costs two
shallow dict copies: graph writes replace the node or neighbour list they
change, never edit it, so the copy and the pristine graph share the rest.
Every scheme reads the same routing table: it is read-only once built, and
recovery puts spares into the engine's own route lists.
Delay is the completion time of the whole transfer; energy is communication
plus radio idling plus sensing. Sensing is priced over the longest round
among the compared schemes, the common observation window: the field keeps
sensing while the slowest scheme is still draining, so a faster transfer must
not be credited for sensing time it did not save. Idle is priced by the
engine over each scheme's own round (the radio can sleep once the transfer
is done).
"""

from __future__ import annotations

import math
import os
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
    overall_delay: float
    comm_energy: float
    idle_energy: float = 0.0
    sensing_energy: float = 0.0

    @property
    def label(self) -> str:
        return _SCHEME_LABEL[self.scheme]

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

    def run_for(self, scheme: Scheme) -> SchemeRun:
        for r in self.runs:
            if r.scheme is scheme:
                return r
        raise KeyError(f"scheme {scheme} was not part of this comparison")

    @property
    def all_ok(self) -> bool:
        verdicts = [self.delay_ordering_ok, self.energy_ordering_ok, self.closeness_ok]
        return all(v is not False for v in verdicts)


def run_comparison(cfg: ScenarioConfig) -> ComparisonReport:
    """Allocate, simulate and account each requested scheme.

    Ordering verdicts (adaptive fastest, single path cheapest, adaptive
    energy closer to single path than to equal split) are only produced
    when all three schemes were requested; all three fail when any scheme
    dropped packets. Every scheme that dropped packets gets a warning,
    whichever schemes ran.
    """
    runs: list[SchemeRun] = []
    warnings: list[str] = []
    fabric_count = 0
    pristine, pristine_table, _, sink = build_network(cfg)
    profiles = [r.profile for r in pristine_table.routes_for(sink)]
    hops_by_path = {p.path_id: p.H for p in profiles}
    for code in cfg.schemes:
        scheme = Scheme(code)
        dist = allocate(scheme, cfg.ep, profiles, cfg.packets)
        if dist.infeasible:
            warnings.append(
                f"{_SCHEME_LABEL[scheme]}: raw path capacities fall short of "
                f"the demand; allocation was scaled up past the per-path bound")
        if scheme is Scheme.ADAPTIVE:
            bound = verify_edp_bound(cfg.ep, profiles, dist)
            warnings.extend(f"adaptive: {w}" for w in bound.warnings)
        sim_cfg = SimConfig(max_attempts=cfg.max_attempts,
                            control_bits=cfg.control_bits,
                            idle_power=cfg.idle_power, trace=cfg.trace)
        # the graph copy is made in the call so it is freed when the run ends
        report = run_transfer(pristine.copy(), pristine_table, dist, cfg.ep, cfg.link,
                              faults=cfg.faults, config=sim_cfg,
                              destination=sink)
        fabric_count = max(fabric_count, len(report.fabric_nodes))
        runs.append(SchemeRun(
            scheme=scheme,
            distribution=dist,
            transfer=report,
            overall_delay=report.completion_time,
            comm_energy=report.comm_energy(),
            idle_energy=report.ledger.total("idle"),
        ))
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

    Output is byte-stable: same report, same bytes. Returns the file paths.
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

    for r in rep.runs:
        if not r.transfer.trace_lines:
            continue
        fn = os.path.join(out_dir, f"trace_{r.label}.txt")
        with open(fn, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(r.transfer.trace_lines) + "\n")
        written.append(fn)
    return written
