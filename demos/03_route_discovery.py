"""
Node-disjoint route discovery on a random field
===============================================

Deploys a random sensor field, finds hop-minimal node-disjoint routes
between two nodes, and estimates per-path timing the simulator will use.
"""

from wsn_multipath import (
    LinkParams,
    build_routing_table,
    deploy_field,
    discover_disjoint_paths,
    estimate_path_params,
)

# 120 nodes on an 80 x 80 m field, 18 m radio range, 5% held back as
# spares for fault recovery. The seed fixes the layout.
g = deploy_field(area=(80.0, 80.0), node_count=120, seed=4,
                 radio_range=18.0, redundant_fraction=0.05)
print(f"deployed {len(g)} nodes, spares held back: {sorted(g.spares)}")

# Routes are peeled off one at a time: shortest first, then its interior
# nodes are removed and the next shortest is found, so no two routes share
# anything but the endpoints.
source, sink = 0, 119
routes = discover_disjoint_paths(g, source, sink, max_paths=5)
print(f"\n{len(routes)} node-disjoint routes from {source} to {sink}")
for r in routes:
    print(f"  path {r.path_id} ({r.hops:2d} hops): {','.join(map(str, r.nodes))}")

# Each route gets a timing profile. A hop costs the packet's serialization
# time at the bit rate plus the propagation and queuing delays.
link = LinkParams(b=50_000.0, l=0.001, q=0.0005)
for r in routes:
    prof = estimate_path_params(g, r, link)
    print(f"  path {r.path_id}: tau = {prof.tau * 1e3:.1f} ms/hop, "
          f"span {prof.T_dist:.1f} m")

# The routing table bundles the routes with their profiles. It is frozen:
# a transfer writes only its own copy of each route, so one table serves
# every run, and a route node that dies later is handled as a fault.
table = build_routing_table(g, source, sink, link)
print(f"\ntable {table.source} -> {table.sink} holds {len(table.routes)} routes")
