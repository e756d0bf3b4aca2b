"""Scenario files: a flat key/value format describing one experiment.

A scenario names the topology (either explicit per-path hop counts or a
random field to run discovery on), the radio constants, the demand and the
schemes to compare. Lines are ``key value [value ...]``; ``#`` starts a
comment; ``fault`` lines may repeat.

``_KEYS`` holds one row per key: the field it fills, its type, how many
values it takes and its bound. ``energy.*`` keys fill ``EnergyParams``,
``link.*`` keys fill ``LinkParams`` and the rest fill ``ScenarioConfig``; a
key the file omits keeps its record's default. Checks that span keys (tau
count against hops, source and sink against the field, fault ids against the
layout) run once the records are built, and ``FaultEvent`` checks each fault
line's kind, arity and time. Parse and validation errors carry the offending
line number and field name.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .model import EnergyParams, LinkParams, PathProfile, per_hop_delay
from .routing import Route, RoutingTable, build_routing_table
from .simulation import FaultEvent, FaultScript
from .topology import TopologyGraph, deploy_field

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
    initial_energy: float = 23760.0
    background_nodes: int = 0
    out_dir: str = "out"
    faults: FaultScript = field(default_factory=FaultScript)


class _Key(NamedTuple):
    field: str                # attribute path from ScenarioConfig: "ep.e_t" is EnergyParams.e_t
    type: type
    least: int                # fewest values the key takes
    most: int | None          # most values it takes; None for any number
    bound: Callable[[Any], bool] | None = None  # applied to the stored value
    message: str = ""         # the error when the bound fails


_KEYS = {
    "paths.hops": _Key("hops", int, 1, None, lambda v: min(v) >= 1, "hop counts must be >= 1"),
    "paths.tau": _Key("taus", float, 1, None, lambda v: min(v) > 0, "tau values must be > 0"),
    "paths.distance": _Key("t_dist", float, 1, 1, lambda v: v > 0, "path distance must be > 0"),
    "paths.redundant": _Key("redundant", int, 1, 1, lambda v: v >= 0,
                            "redundant count must be >= 0"),
    "field.area": _Key("area", float, 2, 2, lambda v: min(v) > 0, "area dimensions must be > 0"),
    "field.nodes": _Key("field_nodes", int, 1, 1, lambda v: v >= 2, "field needs at least 2 nodes"),
    "field.radio_range": _Key("radio_range", float, 1, 1, lambda v: v > 0,
                              "radio range must be > 0"),
    "field.seed": _Key("field_seed", int, 1, 1, lambda v: v >= 0, "field seed must be >= 0"),
    "field.source": _Key("source", int, 1, 1),
    "field.sink": _Key("sink", int, 1, 1),
    "field.max_paths": _Key("max_paths", int, 1, 1, lambda v: v >= 1, "max paths must be >= 1"),
    "field.redundant_fraction": _Key("redundant_fraction", float, 1, 1, lambda v: 0.0 <= v <= 1.0,
                                     "redundant fraction must be in [0, 1]"),
    "packets": _Key("packets", int, 1, 1, lambda v: v >= 0, "packet demand must be >= 0"),
    "schemes": _Key("schemes", int, 1, 3, lambda v: len(set(v)) == len(v) and set(v) <= {1, 2, 3},
                    "schemes must be distinct values from 1, 2, 3"),
    "link.bit_rate": _Key("link.b", float, 1, 1, lambda v: v > 0, "link bit rate must be > 0"),
    "link.delay": _Key("link.l", float, 1, 1, lambda v: v >= 0, "link delay must be >= 0"),
    "link.queue_delay": _Key("link.q", float, 1, 1, lambda v: v >= 0, "queue delay must be >= 0"),
    "energy.e_t": _Key("ep.e_t", float, 1, 1, lambda v: v >= 0, "energy.e_t must be >= 0"),
    "energy.e_d": _Key("ep.e_d", float, 1, 1, lambda v: v >= 0, "energy.e_d must be >= 0"),
    "energy.e_r": _Key("ep.e_r", float, 1, 1, lambda v: v >= 0, "energy.e_r must be >= 0"),
    "energy.path_loss_k": _Key("ep.k", float, 1, 1, lambda v: v >= 0,
                               "energy.path_loss_k must be >= 0"),
    "energy.t_1b": _Key("ep.T_1b", float, 1, 1, lambda v: v >= 0, "energy.t_1b must be >= 0"),
    "energy.t_2b": _Key("ep.T_2b", float, 1, 1, lambda v: v >= 0, "energy.t_2b must be >= 0"),
    "energy.k_r": _Key("ep.K_r", float, 1, 1, lambda v: v >= 0, "energy.k_r must be >= 0"),
    "energy.packet_bits": _Key("ep.S", float, 1, 1, lambda v: v > 0, "packet size must be > 0"),
    "sim.max_attempts": _Key("max_attempts", int, 1, 1, lambda v: v >= 1,
                             "max attempts must be >= 1"),
    "sim.control_bits": _Key("control_bits", float, 1, 1, lambda v: v >= 0,
                             "control bits must be >= 0"),
    "sim.idle_power": _Key("idle_power", float, 1, 1, lambda v: v >= 0, "idle power must be >= 0"),
    "sim.initial_energy": _Key("initial_energy", float, 1, 1, lambda v: v > 0,
                               "initial energy must be > 0"),
    "comparison.background_nodes": _Key("background_nodes", int, 1, 1, lambda v: v >= 0,
                                        "background node count must be >= 0"),
    "output.dir": _Key("out_dir", str, 1, 1),
}

_REQUIRED = ("packets", "link.bit_rate", "energy.e_t", "energy.e_r", "energy.k_r")


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
        if key not in _KEYS:
            raise ScenarioError(f"unknown field {key!r}", field_name=key, line=lineno)
        if key in raw:
            raise ScenarioError(f"duplicate field {key!r}", field_name=key, line=lineno)
        lo, hi = _KEYS[key].least, _KEYS[key].most
        if len(values) < lo or (hi is not None and len(values) > hi):
            raise ScenarioError(
                f"field {key!r} expects {lo if hi == lo else f'{lo}..{hi or chr(8734)}'} "
                f"value(s), got {len(values)}", field_name=key, line=lineno)
        raw[key] = values
        lines[key] = lineno
    return _validate(raw, lines, faults)


def _check(key: str, value, line: int | None):
    """``value`` if it is within ``key``'s bound, else a ScenarioError."""
    row = _KEYS[key]
    if row.bound is not None and not row.bound(value):
        raise ScenarioError(row.message, key, line)
    return value


def _value(key: str, values: list[str], line: int):
    """The value one key's line stores: one value bare, a fixed count of
    values as a tuple, any number as a list."""
    row = _KEYS[key]
    try:
        vals = [row.type(v) for v in values]
    except ValueError:
        raise ScenarioError(f"cannot parse value(s) {' '.join(values)!r}",
                            field_name=key, line=line) from None
    if row.type is float and not all(map(math.isfinite, vals)):
        raise ScenarioError(f"value(s) {' '.join(values)!r} must be finite",
                            field_name=key, line=line)
    return _check(key, vals[0] if row.most == 1 else tuple(vals) if row.most == row.least
                  else vals, line)


def _validate(raw, lines, fault_lines) -> ScenarioConfig:
    explicit = "paths.hops" in raw
    field_mode = "field.nodes" in raw
    mode, other = ("explicit", "field.") if explicit else ("field", "paths.")
    if explicit != field_mode:
        for key in raw:
            if key.startswith(other):
                article = "an" if explicit else "a"
                raise ScenarioError(f"field {key!r} does not apply to {article} {mode} scenario",
                                    field_name=key, line=lines[key])

    # the scenario's own defaults; any other key the file omits keeps its
    # record's default
    records = {"": {"schemes": [1, 2, 3]}, "ep": {"e_d": 0.0}, "link": {}}
    for key, values in raw.items():
        record, _, name = _KEYS[key].field.rpartition(".")
        records[record][name] = _value(key, values, lines[key])
    for key in _REQUIRED:
        if key not in raw:
            raise ScenarioError(f"missing required field {key!r}", field_name=key)
    if explicit == field_mode:
        which = "both" if explicit else "neither"
        raise ScenarioError(
            f"exactly one of 'paths.hops' or 'field.nodes' must be given, got {which}",
            field_name="paths.hops")
    cfg = ScenarioConfig(mode=mode, ep=EnergyParams(**records["ep"]),
                         link=LinkParams(**records["link"]), **records[""])

    if field_mode:
        node_count = cfg.field_nodes
        for key, name, nid in (("field.source", "source", cfg.source),
                               ("field.sink", "sink", cfg.sink)):
            if not 0 <= nid < node_count:
                raise ScenarioError(f"{name} must be a node id in [0, {node_count})",
                                    key, lines.get(key))
        if cfg.source == cfg.sink:
            raise ScenarioError("source and sink must differ", "field.sink",
                                lines.get("field.sink"))
    else:
        taus = cfg.taus or _check("paths.tau", [per_hop_delay(cfg.ep.S, cfg.link)], None)
        if len(taus) == 1:
            taus = taus * len(cfg.hops)
        if len(taus) != len(cfg.hops):
            raise ScenarioError(
                f"need 1 or {len(cfg.hops)} tau values, got {len(taus)}",
                "paths.tau", lines.get("paths.tau"))
        cfg.taus = taus
        # the layout puts path j's node i at x = distance * i / hops_j, and
        # distance * i must not overflow on the longest path
        if not math.isfinite(cfg.t_dist * (max(cfg.hops) - 1)):
            raise ScenarioError(
                f"path distance {cfg.t_dist:g} puts a node of a {max(cfg.hops)}-hop "
                f"path at an infinite position", "paths.distance", lines.get("paths.distance"))
        # the synthesized layout's source, sink, path interiors and spares
        node_count = 2 + sum(h - 1 for h in cfg.hops) + cfg.redundant

    for lineno, values in fault_lines:
        try:
            kind, time, *ids = values
            time, ids = float(time), [int(v) for v in ids]
        except ValueError:
            raise ScenarioError(f"cannot parse fault {' '.join(values)!r}",
                                "fault", lineno) from None
        try:
            event = FaultEvent(time=time, kind=kind,
                               target=ids[0] if len(ids) == 1 else tuple(ids))
        except ValueError as exc:
            raise ScenarioError(str(exc), "fault", lineno) from None
        for nid in ids:
            if not 0 <= nid < node_count:
                raise ScenarioError(
                    f"fault target {nid} is not a node id in [0, {node_count})",
                    "fault", lineno)
        cfg.faults.events.append(event)
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
    gets its interior nodes on a horizontal line at y = 10*(j+1); spare s sits
    at y = -10*(s+1). The radio range is the layout's diagonal plus 1 m, so
    every node hears every other and recovery beacons always find a neighbor.
    """
    t = cfg.t_dist
    positions = [(0.0, 0.0), (t, 0.0)]
    routes = []
    for j, h in enumerate(cfg.hops):
        ids = [0]
        for i in range(1, h):
            ids.append(len(positions))
            positions.append((t * i / h, 10.0 * (j + 1)))
        ids.append(1)
        routes.append(Route(path_id=j + 1, nodes=tuple(ids),
                            profile=PathProfile(path_id=j + 1, H=h,
                                                tau=cfg.taus[j], T_dist=t)))
    spares = range(len(positions), len(positions) + cfg.redundant)
    positions += [(t / 2.0, -10.0 * (s + 1)) for s in range(cfg.redundant)]
    span = 10.0 * (len(cfg.hops) + cfg.redundant)
    g = TopologyGraph(positions, math.hypot(t, span) + 1.0, cfg.initial_energy,
                      spares=spares)
    return g, RoutingTable(source=0, sink=1, routes=tuple(routes))


def build_network(cfg: ScenarioConfig) -> tuple[TopologyGraph, RoutingTable]:
    """Materialize the scenario's topology and routing table.

    Explicit-path scenarios synthesize a layout matching the requested hop
    counts; field scenarios deploy nodes at random and run route discovery.
    """
    if cfg.mode == "explicit":
        return _synthesize_topology(cfg)
    g = deploy_field(cfg.area, cfg.field_nodes, cfg.field_seed,
                     radio_range=cfg.radio_range,
                     redundant_fraction=cfg.redundant_fraction,
                     initial_energy=cfg.initial_energy)
    for key, nid in (("field.source", cfg.source), ("field.sink", cfg.sink)):
        if nid not in g:
            raise ScenarioError(f"node {nid} not in deployed field", field_name=key)
    g.activate_spare(cfg.source)
    g.activate_spare(cfg.sink)
    table = build_routing_table(g, cfg.source, cfg.sink, cfg.link,
                                max_paths=cfg.max_paths, packet_bits=cfg.ep.S)
    if not table.routes:
        raise ScenarioError(
            f"no route from node {cfg.source} to node {cfg.sink} in the deployed field",
            field_name="field.sink")
    return g, table
