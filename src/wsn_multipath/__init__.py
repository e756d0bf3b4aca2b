"""Multipath packet distribution for wireless sensor networks.

A closed-form delay/energy model, three load distribution schemes (single
path, equal split, and an adaptive split that bounds every path's
energy-delay product), a discrete-event transfer simulator with fault
recovery, and a harness that compares the schemes on scenario files.
"""

from .model import (
    EnergyParams,
    LinkParams,
    PathProfile,
    average_edp,
    packet_comm_energy,
    path_delay,
    path_edp,
    path_energy,
    per_hop_delay,
)
from .distribution import (
    DegeneratePathError,
    Distribution,
    NoCapacityError,
    QuadraticCoefficients,
    Scheme,
    allocate,
    coefficients_for_path,
    largest_remainder,
    normalize_distribution,
    solve_max_packets,
    verify_edp_bound,
)
from .topology import (
    TopologyGraph,
    deploy_field,
)
from .routing import (
    Route,
    RoutingTable,
    build_routing_table,
    discover_disjoint_paths,
    estimate_path_params,
)
from .simulation import FaultCase, FaultEvent, FaultScript, SimConfig, run_transfer
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    build_network,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)
from .harness import emit_outputs, run_comparison

__version__ = "0.1.0"

# what the demos, the command line and the tests take from the package root;
# everything else is imported from its module
__all__ = [
    "EnergyParams", "LinkParams", "PathProfile", "per_hop_delay", "path_delay",
    "packet_comm_energy", "path_energy", "path_edp", "average_edp",
    "Scheme", "Distribution", "QuadraticCoefficients", "DegeneratePathError",
    "NoCapacityError", "coefficients_for_path", "solve_max_packets",
    "largest_remainder", "normalize_distribution", "allocate", "verify_edp_bound",
    "TopologyGraph", "deploy_field",
    "Route", "RoutingTable", "discover_disjoint_paths",
    "estimate_path_params", "build_routing_table",
    "FaultCase", "FaultEvent", "FaultScript", "SimConfig", "run_transfer",
    "ScenarioConfig", "ScenarioError", "parse_scenario", "load_scenario",
    "build_network", "bundled_scenario_path",
    "run_comparison", "emit_outputs",
]
