"""Packet allocation schemes over node-disjoint paths.

Three strategies are supported: put everything on the minimum-hop path,
split equally, or split adaptively so that no path's energy-delay product
exceeds the equal-split average. The adaptive rule reduces per path to a
quadratic A*delta^2 + B*delta = C whose nonnegative root is the path's raw
capacity; raw capacities are then rescaled proportionally onto the integer
demand with largest-remainder rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .model import EnergyParams, PathProfile, average_edp, packet_comm_energy, path_edp

__all__ = [
    "Scheme",
    "Distribution",
    "QuadraticCoefficients",
    "DegeneratePathError",
    "NoCapacityError",
    "EdpCheck",
    "BoundReport",
    "coefficients_for_path",
    "solve_max_packets",
    "largest_remainder",
    "normalize_distribution",
    "allocate",
    "verify_edp_bound",
]


class Scheme(enum.Enum):
    SINGLE_PATH = 1
    EQUAL_SPLIT = 2
    ADAPTIVE = 3


class DegeneratePathError(ValueError):
    """Raised when a path has no positive delay-energy cost (A <= 0)."""


class NoCapacityError(ValueError):
    """Raised when every path reports zero raw capacity but demand is positive."""


@dataclass(frozen=True)
class QuadraticCoefficients:
    A: float
    B: float
    C: float


@dataclass(frozen=True)
class Distribution:
    scheme: Scheme
    allocations: tuple[tuple[int, int], ...]  # (path_id, packets)
    total: int
    infeasible: bool = False  # no integer split meets every path's bound

    def __post_init__(self):
        if sum(d for _, d in self.allocations) != self.total:
            raise ValueError("allocations must sum to the total packet count")
        if any(d < 0 for _, d in self.allocations):
            raise ValueError("packet counts must be >= 0")

    def packets_for(self, path_id: int) -> int:
        for pid, d in self.allocations:
            if pid == path_id:
                return d
        raise KeyError(f"no allocation for path {path_id}")

    def as_list(self) -> list[int]:
        return [d for _, d in self.allocations]


def coefficients_for_path(ep: EnergyParams, profile: PathProfile, edp_avg: float) -> QuadraticCoefficients:
    """Quadratic coefficients of the per-path EDP bound.

    EDP_j(delta) = A*delta^2 + B*delta with
      A = [(e_t + e_d*(T/H)^k)*T_1b + e_r*T_2b] * S * (H+1) * tau * H
      B = K_r * (H+1) * tau * H
    and C is the average-EDP budget the path may not exceed.
    """
    if edp_avg < 0:
        raise ValueError(f"edp_avg must be >= 0, got {edp_avg}")
    hop_term = (profile.H + 1) * profile.tau * profile.H
    A = packet_comm_energy(ep, profile.hop_distance) * hop_term
    B = ep.K_r * hop_term
    return QuadraticCoefficients(A=A, B=B, C=edp_avg)


def solve_max_packets(coeffs: QuadraticCoefficients) -> float:
    """Nonnegative root of A*delta^2 + B*delta = C.

    Mathematically delta = (-B + sqrt(B^2 + 4*A*C)) / (2*A); computed as
    2*C / (B + sqrt(B^2 + 4*A*C)), which is the same root without the
    subtractive cancellation that wrecks the residual when B^2 >> 4*A*C.
    When B^2 + 4*A*C passes the float range the root is taken as
    C / h / (1 + B / (2*h)) with h = sqrt(B^2 / 4 + A*C), which does not.
    """
    A, B, C = coeffs.A, coeffs.B, coeffs.C
    if A <= 0:
        raise DegeneratePathError(
            f"quadratic coefficient A={A} is not positive; the path has no "
            "finite EDP capacity and must be excluded by the caller"
        )
    if C <= 0.0:
        return 0.0
    discriminant = B * B + 4.0 * A * C
    if math.isinf(discriminant):
        half = math.hypot(0.5 * B, math.sqrt(A) * math.sqrt(C))
        return C / half / (1.0 + 0.5 * B / half)
    denominator = B + math.sqrt(discriminant)
    if denominator == 0.0:
        # B == 0 and 4*A*C underflowed: the root is sqrt(C / A)
        return math.sqrt(C / A)
    return 2.0 * C / denominator


_BOUND_SLACK = 1e-9  # relative tolerance so the exact-root case passes


def largest_remainder(shares: list[float], total: int) -> list[int]:
    """Round real shares summing to ``total`` onto integers preserving the sum.

    Floors every share, then hands the leftover units to the largest
    fractional parts, lowest index first on ties.
    """
    floors = [math.floor(s) for s in shares]
    leftover = total - sum(floors)
    if leftover < 0 or leftover > len(shares):
        raise ValueError("shares do not sum to the requested total")
    order = sorted(range(len(shares)), key=lambda i: (-(shares[i] - floors[i]), i))
    out = list(floors)
    for i in order[:leftover]:
        out[i] += 1
    return out


def normalize_distribution(raw: list[tuple[int, float]], D: int) -> Distribution:
    """Rescale raw per-path capacities onto the integer demand D.

    Each path receives (raw_j / sum(raw)) * D packets, rounded by the
    largest-remainder method so the result sums to D exactly. A path meets
    its bound with at most floor(raw_j) packets, so when those floors sum
    to less than D no integer split meets every bound; the rescale runs in
    the same way, and the result is flagged infeasible. A raw capacity
    within ``_BOUND_SLACK`` of an integer counts as that integer: the gap is
    rounding in the roots, not a lack of capacity.
    """
    if D < 0:
        raise ValueError(f"demand must be >= 0, got {D}")
    if any(r < 0 for _, r in raw):
        raise ValueError("raw capacities must be >= 0")
    total_raw = math.fsum(r for _, r in raw)
    if total_raw == 0:
        if D == 0:
            allocs = tuple((pid, 0) for pid, _ in raw)
            return Distribution(scheme=Scheme.ADAPTIVE, allocations=allocs, total=0)
        raise NoCapacityError("all paths report zero capacity but demand is positive")
    shares = [r / total_raw * D for _, r in raw]
    counts = largest_remainder(shares, D)
    allocs = tuple((pid, c) for (pid, _), c in zip(raw, counts))
    return Distribution(
        scheme=Scheme.ADAPTIVE,
        allocations=allocs,
        total=D,
        infeasible=sum(math.floor(r * (1.0 + _BOUND_SLACK)) for _, r in raw) < D,
    )


def allocate(scheme: Scheme, ep: EnergyParams, paths: list[PathProfile], D: int) -> Distribution:
    """Produce the packet distribution for one scheme."""
    if not paths:
        raise ValueError("allocate needs at least one path")
    if D < 0:
        raise ValueError(f"total packet count must be >= 0, got {D}")

    if scheme is Scheme.SINGLE_PATH:
        best = min(paths, key=lambda p: (p.H, p.path_id))
        allocs = tuple((p.path_id, D if p.path_id == best.path_id else 0) for p in paths)
        return Distribution(scheme=scheme, allocations=allocs, total=D)

    if scheme is Scheme.EQUAL_SPLIT:
        shares = [D / len(paths)] * len(paths)
        counts = largest_remainder(shares, D)
        allocs = tuple((p.path_id, c) for p, c in zip(paths, counts))
        return Distribution(scheme=scheme, allocations=allocs, total=D)

    edp_avg = average_edp(ep, paths, D)
    if not math.isfinite(edp_avg):
        raise ValueError(f"the average-path EDP budget overflows (got {edp_avg})")
    raw = []
    for p in paths:
        capacity = solve_max_packets(coefficients_for_path(ep, p, edp_avg))
        if not math.isfinite(capacity):
            raise ValueError(f"path {p.path_id}: the EDP-bounded packet capacity "
                             f"is not finite (got {capacity})")
        raw.append((p.path_id, capacity))
    return normalize_distribution(raw, D)


@dataclass(frozen=True)
class EdpCheck:
    path_id: int
    packets: int
    edp: float
    budget: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[EdpCheck, ...]
    budget: float
    infeasible: bool = False
    warnings: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_edp_bound(ep: EnergyParams, paths: list[PathProfile], dist: Distribution) -> BoundReport:
    """Check EDP_j(delta_j) <= EDP_avg for every path of a distribution."""
    budget = average_edp(ep, paths, dist.total)
    by_id = {p.path_id: p for p in paths}
    checks = []
    for pid, delta in dist.allocations:
        edp = path_edp(ep, by_id[pid], delta)
        ok = edp <= budget * (1.0 + _BOUND_SLACK)
        checks.append(EdpCheck(path_id=pid, packets=delta, edp=edp, budget=budget, passed=ok))
    notes = []
    if dist.infeasible:
        notes.append("no integer split meets every path's bound")
    notes.extend(
        f"path {c.path_id} exceeds the average-path budget: "
        f"{c.edp:.6g} > {c.budget:.6g}" for c in checks if not c.passed)
    return BoundReport(checks=tuple(checks), budget=budget,
                       infeasible=dist.infeasible, warnings=tuple(notes))
