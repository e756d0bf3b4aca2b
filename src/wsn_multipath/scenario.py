"""Scenario files: a flat key/value format describing one experiment.

A scenario names the topology (either explicit per-path hop counts or a
random field to run discovery on), the radio constants, the demand and the
schemes to compare. Lines are ``key value [value ...]``; ``#`` starts a
comment; ``fault`` lines may repeat. Parse and validation errors carry the
offending line number and field name.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

from .model import EnergyParams, LinkParams, PathProfile
from .routing import Route, RoutingTable, build_routing_table
from .simulation import FaultEvent, FaultScript
from .topology import Node, TopologyGraph, deploy_field

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
    "build_network",
    "bundled_scenario_path",
]


class ScenarioError(ValueError):
    def __init__(self, message: str, field_name: str | None = None,
                 line: int | None = None):
        self.field = field_name
        self.line = line
        where = []
        if field_name:
            where.append(f"field {field_name!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


@dataclass
class ScenarioConfig:
    mode: str                       # explicit | field
    packets: int
    schemes: list[int]
    ep: EnergyParams
    link: LinkParams
    # explicit topology
    hops: list[int] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    t_dist: float = 100.0
    redundant: int = 0
    # random field topology
    area: tuple[float, float] = (300.0, 300.0)
    field_nodes: int = 0
    radio_range: float = 24.0
    field_seed: int = 1
    source: int = 0
    sink: int = 1
    max_paths: int = 5
    redundant_fraction: float = 0.05
    # simulation knobs
    max_attempts: int = 5
    control_bits: float = 100.0
    idle_power: float = 0.0
    trace: bool = False
    initial_energy: float = 23760.0
    background_nodes: int = 0
    out_dir: str = "out"
    faults: FaultScript = field(default_factory=FaultScript)


# key -> (min values, max values or None for variable)
_KNOWN = {
    "paths.hops": (1, None),
    "paths.tau": (1, None),
    "paths.distance": (1, 1),
    "paths.redundant": (1, 1),
    "field.area": (2, 2),
    "field.nodes": (1, 1),
    "field.radio_range": (1, 1),
    "field.seed": (1, 1),
    "field.source": (1, 1),
    "field.sink": (1, 1),
    "field.max_paths": (1, 1),
    "field.redundant_fraction": (1, 1),
    "packets": (1, 1),
    "schemes": (1, 3),
    "link.bit_rate": (1, 1),
    "link.delay": (1, 1),
    "link.queue_delay": (1, 1),
    "energy.e_t": (1, 1),
    "energy.e_d": (1, 1),
    "energy.e_r": (1, 1),
    "energy.path_loss_k": (1, 1),
    "energy.t_1b": (1, 1),
    "energy.t_2b": (1, 1),
    "energy.k_r": (1, 1),
    "energy.packet_bits": (1, 1),
    "sim.max_attempts": (1, 1),
    "sim.control_bits": (1, 1),
    "sim.idle_power": (1, 1),
    "sim.initial_energy": (1, 1),
    "comparison.background_nodes": (1, 1),
    "output.dir": (1, 1),
}


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        yield lineno, parts[0], parts[1:]


def parse_scenario(text: str) -> ScenarioConfig:
    raw: dict[str, list[str]] = {}
    lines: dict[str, int] = {}
    faults: list[tuple[int, list[str]]] = []
    for lineno, key, values in _tokenize(text):
        if key == "fault":
            faults.append((lineno, values))
            continue
        if key not in _KNOWN:
            raise ScenarioError(f"unknown field {key!r}", field_name=key, line=lineno)
        if key in raw:
            raise ScenarioError(f"duplicate field {key!r}", field_name=key, line=lineno)
        lo, hi = _KNOWN[key]
        if len(values) < lo or (hi is not None and len(values) > hi):
            raise ScenarioError(
                f"field {key!r} expects {lo if hi == lo else f'{lo}..{hi or chr(8734)}'} "
                f"value(s), got {len(values)}", field_name=key, line=lineno)
        raw[key] = values
        lines[key] = lineno
    return _validate(raw, lines, faults)


def _conv(raw, lines, key, cast, default=None, required=False):
    if key not in raw:
        if required:
            raise ScenarioError(f"missing required field {key!r}", field_name=key)
        return default
    try:
        vals = [cast(v) for v in raw[key]]
    except ValueError:
        raise ScenarioError(f"cannot parse value(s) {' '.join(raw[key])!r}",
                            field_name=key, line=lines[key]) from None
    return vals


def _one(raw, lines, key, cast, default=None, required=False):
    vals = _conv(raw, lines, key, cast, None, required)
    return default if vals is None else vals[0]


def _validate(raw, lines, fault_lines) -> ScenarioConfig:
    packets = _one(raw, lines, "packets", int, required=True)
    if packets < 0:
        raise ScenarioError("packet demand must be >= 0", "packets", lines["packets"])

    explicit = "paths.hops" in raw
    field_mode = "field.nodes" in raw
    if explicit == field_mode:
        which = "both" if explicit else "neither"
        raise ScenarioError(
            f"exactly one of 'paths.hops' or 'field.nodes' must be given, got {which}",
            field_name="paths.hops")

    ep = EnergyParams(
        e_t=_one(raw, lines, "energy.e_t", float, required=True),
        e_d=_one(raw, lines, "energy.e_d", float, default=0.0),
        e_r=_one(raw, lines, "energy.e_r", float, required=True),
        k=_one(raw, lines, "energy.path_loss_k", float, default=2.0),
        T_1b=_one(raw, lines, "energy.t_1b", float, default=2e-5),
        T_2b=_one(raw, lines, "energy.t_2b", float, default=2e-5),
        K_r=_one(raw, lines, "energy.k_r", float, required=True),
        S=_one(raw, lines, "energy.packet_bits", float, default=1000.0),
    )
    link = LinkParams(
        b=_one(raw, lines, "link.bit_rate", float, required=True),
        l=_one(raw, lines, "link.delay", float, default=0.0),
        q=_one(raw, lines, "link.queue_delay", float, default=0.0),
    )

    schemes = _conv(raw, lines, "schemes", int, default=[1, 2, 3])
    if not schemes or len(set(schemes)) != len(schemes) or not set(schemes) <= {1, 2, 3}:
        raise ScenarioError("schemes must be distinct values from 1, 2, 3",
                            "schemes", lines.get("schemes"))

    cfg = ScenarioConfig(
        mode="explicit" if explicit else "field",
        packets=packets, schemes=schemes, ep=ep, link=link,
        t_dist=_one(raw, lines, "paths.distance", float, default=100.0),
        redundant=_one(raw, lines, "paths.redundant", int, default=0),
        field_nodes=_one(raw, lines, "field.nodes", int, default=0),
        radio_range=_one(raw, lines, "field.radio_range", float, default=24.0),
        field_seed=_one(raw, lines, "field.seed", int, default=1),
        source=_one(raw, lines, "field.source", int, default=0),
        sink=_one(raw, lines, "field.sink", int, default=1),
        max_paths=_one(raw, lines, "field.max_paths", int, default=5),
        redundant_fraction=_one(raw, lines, "field.redundant_fraction", float, default=0.05),
        max_attempts=_one(raw, lines, "sim.max_attempts", int, default=5),
        control_bits=_one(raw, lines, "sim.control_bits", float, default=100.0),
        idle_power=_one(raw, lines, "sim.idle_power", float, default=0.0),
        initial_energy=_one(raw, lines, "sim.initial_energy", float, default=23760.0),
        background_nodes=_one(raw, lines, "comparison.background_nodes", int, default=0),
        out_dir=_one(raw, lines, "output.dir", str, default="out"),
    )
    if "field.area" in raw:
        w, h = _conv(raw, lines, "field.area", float)
        cfg.area = (w, h)

    if explicit:
        cfg.hops = _conv(raw, lines, "paths.hops", int)
        if any(h < 1 for h in cfg.hops):
            raise ScenarioError("hop counts must be >= 1", "paths.hops", lines["paths.hops"])
        taus = _conv(raw, lines, "paths.tau", float, default=None)
        if taus is None:
            from .model import per_hop_delay
            taus = [per_hop_delay(ep.S, link)]
        if len(taus) == 1:
            taus = taus * len(cfg.hops)
        if len(taus) != len(cfg.hops):
            raise ScenarioError(
                f"need 1 or {len(cfg.hops)} tau values, got {len(taus)}",
                "paths.tau", lines.get("paths.tau"))
        if any(t <= 0 for t in taus):
            raise ScenarioError("tau values must be > 0", "paths.tau", lines.get("paths.tau"))
        cfg.taus = taus
        if cfg.t_dist <= 0:
            raise ScenarioError("path distance must be > 0", "paths.distance",
                                lines.get("paths.distance"))
        if cfg.redundant < 0:
            raise ScenarioError("redundant count must be >= 0", "paths.redundant",
                                lines.get("paths.redundant"))
    checks = [
        (cfg.max_attempts >= 1, "sim.max_attempts", "max attempts must be >= 1"),
        (cfg.control_bits >= 0, "sim.control_bits", "control bits must be >= 0"),
        (cfg.idle_power >= 0, "sim.idle_power", "idle power must be >= 0"),
        (cfg.initial_energy > 0, "sim.initial_energy", "initial energy must be > 0"),
        (cfg.background_nodes >= 0, "comparison.background_nodes",
         "background node count must be >= 0"),
    ]
    if field_mode:
        checks += [
            (cfg.field_nodes >= 2, "field.nodes", "field needs at least 2 nodes"),
            (min(cfg.area) > 0, "field.area", "area dimensions must be > 0"),
            (cfg.radio_range > 0, "field.radio_range", "radio range must be > 0"),
            (0.0 <= cfg.redundant_fraction <= 1.0, "field.redundant_fraction",
             "redundant fraction must be in [0, 1]"),
            (cfg.max_paths >= 1, "field.max_paths", "max paths must be >= 1"),
            (0 <= cfg.source < cfg.field_nodes, "field.source",
             f"source must be a node id in [0, {cfg.field_nodes})"),
            (0 <= cfg.sink < cfg.field_nodes, "field.sink",
             f"sink must be a node id in [0, {cfg.field_nodes})"),
            (cfg.source != cfg.sink, "field.sink", "source and sink must differ"),
        ]
    for ok, key, message in checks:
        if not ok:
            raise ScenarioError(message, key, lines.get(key))

    # the ids the network will have: the field's nodes, or the synthesized
    # layout's source, sink, path interiors and spares
    node_count = (cfg.field_nodes if field_mode
                  else 2 + sum(h - 1 for h in cfg.hops) + cfg.redundant)
    for lineno, values in fault_lines:
        if len(values) < 3:
            raise ScenarioError("fault needs: kind time target...", "fault", lineno)
        kind = values[0]
        try:
            t = float(values[1])
            ids = [int(v) for v in values[2:]]
        except ValueError:
            raise ScenarioError(f"cannot parse fault {' '.join(values)!r}",
                                "fault", lineno) from None
        if (kind, len(ids)) not in (("node_fail", 1), ("link_fail", 2)):
            raise ScenarioError(
                "fault must be 'node_fail <t> <id>' or 'link_fail <t> <u> <v>'",
                "fault", lineno)
        for nid in ids:
            if not 0 <= nid < node_count:
                raise ScenarioError(
                    f"fault target {nid} is not a node id in [0, {node_count})",
                    "fault", lineno)
        if len(ids) == 2 and ids[0] == ids[1]:
            raise ScenarioError("link_fail needs two different nodes", "fault", lineno)
        try:
            cfg.faults.events.append(FaultEvent(
                time=t, kind=kind, target=ids[0] if len(ids) == 1 else tuple(ids)))
        except ValueError as exc:
            raise ScenarioError(str(exc), "fault", lineno) from None
    return cfg


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def bundled_scenario_path(name: str = "five_path_benchmark"):
    """Filesystem path of a scenario shipped inside the package."""
    return importlib.resources.files("wsn_multipath").joinpath(
        "data", f"{name}.scenario")


def _synthesize_topology(cfg: ScenarioConfig) -> tuple[TopologyGraph, RoutingTable]:
    """Lay out one physical network realizing the requested per-path shape.

    Source is node 0 at the origin, sink node 1 at (distance, 0). Path j
    gets its interior nodes on a horizontal line at y = 10*(j+1); spares sit
    below the axis. The radio range covers the whole layout so recovery
    beacons always find a neighbor.
    """
    t = cfg.t_dist
    nodes = [
        Node(id=0, position=(0.0, 0.0), residual_energy=cfg.initial_energy),
        Node(id=1, position=(t, 0.0), residual_energy=cfg.initial_energy),
    ]
    next_id = 2
    routes = []
    for j, h in enumerate(cfg.hops):
        ids = [0]
        for i in range(1, h):
            nodes.append(Node(id=next_id,
                              position=(t * i / h, 10.0 * (j + 1)),
                              residual_energy=cfg.initial_energy))
            ids.append(next_id)
            next_id += 1
        ids.append(1)
        routes.append(Route(path_id=j + 1, nodes=tuple(ids),
                            profile=PathProfile(path_id=j + 1, H=h,
                                                tau=cfg.taus[j], T_dist=t)))
    for s in range(cfg.redundant):
        nodes.append(Node(id=next_id, position=(t / 2.0, -10.0 * (s + 1)),
                          residual_energy=cfg.initial_energy, is_redundant=True))
        next_id += 1
    g = TopologyGraph(nodes, radio_range=3.0 * t + 1.0)
    table = RoutingTable(source=0, entries={1: routes}, version=g.version)
    return g, table


def build_network(cfg: ScenarioConfig) -> tuple[TopologyGraph, RoutingTable, int, int]:
    """Materialize the scenario's topology and routing table.

    Returns (graph, table, source, sink). Explicit-path scenarios synthesize
    a layout matching the requested hop counts; field scenarios deploy nodes
    at random and run route discovery.
    """
    if cfg.mode == "explicit":
        g, table = _synthesize_topology(cfg)
        return g, table, 0, 1
    g = deploy_field(cfg.area, cfg.field_nodes, cfg.field_seed,
                     radio_range=cfg.radio_range,
                     redundant_fraction=cfg.redundant_fraction,
                     initial_energy=cfg.initial_energy)
    for key, nid in (("field.source", cfg.source), ("field.sink", cfg.sink)):
        if nid not in g:
            raise ScenarioError(f"node {nid} not in deployed field", field_name=key)
    g.activate_spare(cfg.source)
    g.activate_spare(cfg.sink)
    table = build_routing_table(g, cfg.source, [cfg.sink], cfg.link,
                                max_paths=cfg.max_paths, packet_bits=cfg.ep.S)
    if not table.routes_for(cfg.sink):
        raise ScenarioError(
            f"no route from node {cfg.source} to node {cfg.sink} in the deployed field",
            field_name="field.sink")
    return g, table, cfg.source, cfg.sink
