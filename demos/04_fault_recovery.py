"""
Failure detection and detour repair, step by step
=================================================

Runs a 12-packet transfer over a single 5-hop path, kills a relay node
mid-stream, and traces how the transfer notices, recovers and finishes.
"""

import io

from wsn_multipath import (
    FaultEvent,
    FaultScript,
    Scheme,
    SimConfig,
    allocate,
    build_network,
    parse_scenario,
    run_transfer,
)

SCENARIO = """
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

cfg = parse_scenario(SCENARIO)
g, table = build_network(cfg)
profiles = [r.profile for r in table.routes]
dist = allocate(Scheme.ADAPTIVE, cfg.ep, profiles, cfg.packets)

# Node 3 goes silent at t = 50 ms, while the first packet is on the wire
# between it and node 4. Node 4 detects the silence when its arrival timer
# runs out, and recovery searches the shortest detour from node 2 to node 4
# through nodes no route uses: here one spare, which takes the dead node's
# place on the route.
faults = FaultScript([FaultEvent(time=0.05, kind="node_fail", target=3)])
trace = io.StringIO()  # the engine writes each event's line as it happens
rep = run_transfer(g, table, dist, cfg.ep, cfg.link, faults=faults,
                   config=SimConfig(trace=trace))

print(rep.to_text())

# The trace shows the retries, the expired timer and the resumed flow.
print("events around the failure:")
for line in trace.getvalue().splitlines():
    t = float(line.split()[0])
    if 0.04 <= t <= 0.30:
        print(" ", line)

# A link can also fail while both endpoints stay alive; the sender proves
# its own radio with a beacon round-trip and the blame lands on the far
# end of the broken hop instead.
g2, table2 = build_network(parse_scenario(SCENARIO))
faults2 = FaultScript([FaultEvent(time=0.05, kind="link_fail", target=(3, 4))])
rep2 = run_transfer(g2, table2, dist, cfg.ep, cfg.link, faults=faults2)
for fr in rep2.fault_records:
    print(f"\nlink failure verdict: case {fr.case.value}, failed node "
          f"{fr.failed_node}, detected by {fr.initiator}, "
          f"replacement {fr.replacement}")
