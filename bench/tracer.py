"""Spans and counts at the package's module boundaries, taken from outside.

``install`` replaces the names the pipeline calls, at the module that calls
them, with wrappers that time each call. Nothing in the package changes. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import heapq
import os
import time
import types
from collections import Counter
from importlib import import_module


class Tracer:
    """Per-name call counts, total and self time, plus kept span records.

    Spans of names wrapped with ``keep=True`` are also stored one by one as
    ``(id, parent_id, name, start, end)``; the hot leaf calls (neighbour
    lookups) are only aggregated: a 50k-node field makes 250,000 of them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.events: Counter = Counter()    # engine events popped, by kind
        self._stack: list[list] = []        # open spans: [child_s, span_id]

    def wrap(self, name: str, fn, keep: bool = False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, spans = self._stack, self.clock, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if keep else None]
            if keep:
                spans.append(None)          # reserve the id in start order
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    spans[frame[1]] = (frame[1], parent, name, start, end)

        traced.__wrapped__ = fn
        return traced


def counting_heapq(counts: Counter) -> types.SimpleNamespace:
    """A stand-in for ``heapq`` that counts each popped event by its kind."""
    pop = heapq.heappop

    def heappop(heap):
        item = pop(heap)
        kind = getattr(item[-1], "kind", None)
        counts[getattr(kind, "value", str(kind))] += 1
        return item

    return types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def install(tracer: Tracer, wsn) -> list[str]:
    """Wrap the pipeline's calls in ``wsn`` (the imported package).

    Returns the names that could not be found, so that a renamed call is
    reported instead of its figures silently reading zero.
    """
    mods = {m: import_module(f"{wsn.__name__}.{m}")
            for m in ("cli", "harness", "scenario", "simulation", "topology")}
    counts = tracer.counts
    missing = []

    def patch(owner, attr, span, keep=True, observe=None):
        """Wrap ``owner.attr`` in a span; ``observe(call, args, kwargs)``,
        if given, makes the call and reads its arguments and result."""
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        inner = tracer.wrap(span, fn, keep=keep)
        if observe is not None:
            def observed(*args, **kwargs):
                return observe(inner, args, kwargs)
            setattr(owner, attr, observed)
        else:
            setattr(owner, attr, inner)

    def on_table(call, args, kwargs):
        table = call(*args, **kwargs)
        routes = [r for rs in table.entries.values() for r in rs]
        counts["routing.routes"] = len(routes)
        counts["routing.route_hops"] = sum(r.hops for r in routes)
        return table

    def on_transfer(call, args, kwargs):
        g = args[0]
        before = g.version
        report = call(*args, **kwargs)
        counts["topology.mutations"] += g.version - before
        counts["simulation.retransmissions"] += sum(report.retransmissions.values())
        counts["simulation.fault_records"] += len(report.fault_records)
        counts["simulation.recoveries"] += sum(
            1 for fr in report.fault_records
            if fr.drove_recovery and fr.replacement is not None)
        counts["simulation.trace_lines"] += len(report.trace_lines)
        counts["simulation.conservation_errors"] += sum(
            1 for p in report.delivered
            if report.delivered[p] + report.dropped[p]
            != report.distribution.packets_for(p))
        return report

    def on_outputs(call, args, kwargs):
        files = call(*args, **kwargs)
        counts["harness.output_bytes"] += sum(os.path.getsize(f) for f in files)
        return files

    cli, harness, scenario = mods["cli"], mods["harness"], mods["scenario"]
    simulation, topology = mods["simulation"], mods["topology"]
    patch(cli, "load_scenario", "scenario.load")
    patch(cli, "run_comparison", "harness.run_comparison")
    patch(cli, "emit_outputs", "harness.emit_outputs", observe=on_outputs)
    patch(harness, "build_network", "scenario.build_network")
    patch(harness, "allocate", "distribution.allocate")
    patch(harness, "verify_edp_bound", "distribution.verify_edp_bound")
    patch(harness, "run_transfer", "simulation.run_transfer", observe=on_transfer)
    patch(harness, "account_idle_and_sensing", "simulation.account")
    patch(scenario, "deploy_field", "topology.deploy_field")
    patch(scenario, "build_routing_table", "routing.build_routing_table",
          observe=on_table)
    patch(simulation, "replace_failed_node", "routing.replace_failed_node")
    patch(topology.TopologyGraph, "neighbors", "topology.neighbors", keep=False)
    patch(topology.TopologyGraph, "nearest_redundant",
          "topology.nearest_redundant", keep=False)

    tree = getattr(topology, "cKDTree", None)
    if tree is None:
        missing.append("topology.cKDTree")
    else:
        def counted_tree(*args, **kwargs):
            counts["topology.adjacency_builds"] += 1
            return tree(*args, **kwargs)
        topology.cKDTree = counted_tree

    if getattr(simulation, "heapq", None) is None:
        missing.append("simulation.heapq")
    else:
        simulation.heapq = counting_heapq(tracer.events)
    return missing
