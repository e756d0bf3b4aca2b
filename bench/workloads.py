"""The benchmark's workloads and the scenario files it writes for them.

Every workload fixes its model inputs: radio constants, demand, field size and
field seed. The benchmark's ``--seed`` picks the order of the scenario's lines
and tags the file, so each seed hands the program a distinct file with the
same meaning, and the results recorded from the seed commit hold for every
seed. The field seed stays at 3, the seed the recorded figures were taken at;
other field seeds give other routes and, on ``field_faults``, a recovery storm
of unknown length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The bundled five-path scenario's constants, copied so that a change to the
# package's data file does not change the workload.
RADIO = [
    ("schemes", "1 2 3"),
    ("link.bit_rate", "50000"),
    ("link.delay", "0"),
    ("link.queue_delay", "0"),
    ("energy.e_t", "0.128"),
    ("energy.e_d", "0"),
    ("energy.e_r", "0.1024"),
    ("energy.path_loss_k", "2.0"),
    ("energy.t_1b", "2e-5"),
    ("energy.t_2b", "2e-5"),
    ("energy.k_r", "0.024"),
    ("energy.packet_bits", "1000"),
    ("sim.max_attempts", "5"),
    ("sim.control_bits", "100"),
    ("sim.idle_power", "409.6e-6"),
    ("sim.initial_energy", "23760"),
    ("comparison.background_nodes", "0"),
]

FIVE_PATHS = [
    ("paths.hops", "9 22 5 20 7"),
    ("paths.tau", "0.02"),
    ("paths.distance", "100.0"),
    ("paths.redundant", "0"),
]


def _field(nodes: int, side: float) -> list[tuple[str, str]]:
    return [
        ("field.nodes", str(nodes)),
        ("field.area", f"{side:g} {side:g}"),
        ("field.radio_range", "24"),
        ("field.seed", "3"),
        ("field.source", "0"),
        ("field.sink", "1"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    lines: tuple[tuple[str, str], ...]
    packets: int
    trace: bool = False      # pass --trace to the program
    faults: bool = False     # place node_fail faults on the discovered routes
    reference: str = ""      # workload whose recorded CSVs this one must match

    @property
    def schemes(self) -> int:
        return len(dict(self.lines)["schemes"].split())


def _workload(name, topology, packets, **kw) -> Workload:
    lines = tuple(RADIO + topology + [("packets", str(packets))])
    return Workload(name=name, lines=lines, packets=packets, **kw)


WORKLOADS = {w.name: w for w in (
    _workload("bundled_d10k", FIVE_PATHS, 10_000, reference="bundled_d10k"),
    # 1,732 m square: the density of 1,500 nodes on 300 m
    _workload("field_50k", _field(50_000, 1732), 100, reference="field_50k"),
    _workload("field_faults", _field(1_500, 300), 200, faults=True),
    _workload("bundled_trace", FIVE_PATHS, 10_000, trace=True,
              reference="bundled_d10k"),
)}

# node_fail on the middle interior node of routes 1-3, at these times
FAULT_TIMES = ((1, "0.05"), (2, "0.10"), (3, "0.15"))


def parse_routes(text: str) -> dict[int, list[int]]:
    """Routes as printed by ``wsn-multipath paths``: ``id: n0,n1,...``."""
    routes = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        pid, _, nodes = line.partition(":")
        routes[int(pid)] = [int(n) for n in nodes.split(",")]
    return routes


def fault_lines(routes: dict[int, list[int]]) -> list[tuple[str, str]]:
    """One ``fault node_fail`` per route 1-3, on its middle interior node."""
    out = []
    for pid, t in FAULT_TIMES:
        interior = routes[pid][1:-1]
        if not interior:
            raise ValueError(f"route {pid} has no interior node to fail")
        out.append(("fault", f"node_fail {t} {interior[len(interior) // 2]}"))
    return out


def scenario_text(w: Workload, seed: int,
                  extra: list[tuple[str, str]] = ()) -> str:
    """The scenario file for one run: the workload's lines in a seeded order."""
    lines = list(w.lines) + list(extra)
    random.Random(seed).shuffle(lines)
    body = "".join(f"{k} {v}\n" for k, v in lines)
    return f"# benchmark workload {w.name}, seed {seed}\n{body}"
