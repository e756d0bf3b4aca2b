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
    rx_energy_per_bit,
    tx_energy_per_bit,
)
from .distribution import (
    BoundReport,
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
    Node,
    TopologyGraph,
    UnrecoverableFailureError,
    deploy_field,
    dump_topology,
    parse_topology,
)
from .routing import (
    Route,
    RoutingTable,
    StaleRouteError,
    build_routing_table,
    discover_disjoint_paths,
    estimate_path_params,
    replace_failed_node,
)
from .simulation import (
    EnergyLedger,
    FaultCase,
    FaultEvent,
    FaultRecord,
    FaultScript,
    SimConfig,
    TransferReport,
    run_transfer,
)
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    build_network,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)
from .harness import ComparisonReport, SchemeRun, emit_outputs, run_comparison

__version__ = "0.1.0"

__all__ = [
    "EnergyParams", "LinkParams", "PathProfile", "per_hop_delay", "path_delay",
    "tx_energy_per_bit", "rx_energy_per_bit", "packet_comm_energy",
    "path_energy", "path_edp", "average_edp",
    "Scheme", "Distribution", "QuadraticCoefficients", "BoundReport",
    "DegeneratePathError", "NoCapacityError", "coefficients_for_path",
    "solve_max_packets", "largest_remainder", "normalize_distribution",
    "allocate", "verify_edp_bound",
    "Node", "TopologyGraph", "UnrecoverableFailureError", "deploy_field",
    "dump_topology", "parse_topology",
    "Route", "RoutingTable", "StaleRouteError", "discover_disjoint_paths",
    "estimate_path_params", "build_routing_table", "replace_failed_node",
    "EnergyLedger", "FaultCase", "FaultEvent", "FaultRecord", "FaultScript",
    "SimConfig", "TransferReport", "run_transfer",
    "ScenarioConfig", "ScenarioError", "parse_scenario", "load_scenario",
    "build_network", "bundled_scenario_path",
    "ComparisonReport", "SchemeRun", "run_comparison", "emit_outputs",
    "__version__",
]
