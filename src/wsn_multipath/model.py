"""Closed-form delay, energy and energy-delay-product model.

All quantities describe one source-to-sink path carrying ``delta`` fixed-size
packets over ``H`` hops. Delay grows linearly with the allocated packet count
(tau seconds per packet per hop) and energy is affine in the packet count with
a sensing intercept, so every function here is cheap enough to call inside
optimization loops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "EnergyParams",
    "LinkParams",
    "PathProfile",
    "per_hop_delay",
    "path_delay",
    "tx_energy_per_bit",
    "rx_energy_per_bit",
    "packet_comm_energy",
    "path_energy",
    "path_edp",
    "average_edp",
]


@dataclass(frozen=True)
class EnergyParams:
    """Radio and node electronics constants.

    e_t:  transmitter electronics power while sending (J/s)
    e_d:  amplifier coefficient (J/s per m^k)
    e_r:  receiver electronics power (J/s)
    k:    path-loss exponent, physical radios fall in [2, 4]
    T_1b: time to transmit one bit (s)
    T_2b: time to receive one bit (s)
    K_r:  sensing/processing power drain per node (W)
    S:    packet size (bits)
    """

    e_t: float
    e_d: float
    e_r: float
    k: float = 2.0
    T_1b: float = 2e-5
    T_2b: float = 2e-5
    K_r: float = 0.0
    S: float = 1000.0

    def __post_init__(self):
        for name in ("e_t", "e_d", "e_r", "k", "T_1b", "T_2b", "K_r", "S"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.S <= 0:
            raise ValueError(f"S must be > 0, got {self.S}")
        if not 2.0 <= self.k <= 4.0:
            warnings.warn(
                f"path-loss exponent k={self.k} outside the usual [2, 4] range",
                stacklevel=2,
            )

    def amplified_tx_power(self, d: float) -> float:
        """Effective transmit power e_t + e_d * d^k at hop distance d."""
        try:
            power = self.e_t + self.e_d * d**self.k
            if math.isfinite(power):
                return power
        except OverflowError:
            pass
        raise ValueError(f"transmit power e_t + e_d * d^k overflows at d={d:g} m, k={self.k:g}")


@dataclass(frozen=True)
class LinkParams:
    """Link speed b (bits/s), propagation delay l (s), queuing delay q (s)."""

    b: float
    l: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError(f"link speed b must be > 0, got {self.b}")
        if self.l < 0 or self.q < 0:
            raise ValueError("link delays l and q must be >= 0")


@dataclass(frozen=True)
class PathProfile:
    """One discovered path: hop count H, per-hop packet delay tau (s),
    straight-line source-sink distance T_dist (m)."""

    path_id: int
    H: int
    tau: float
    T_dist: float

    def __post_init__(self):
        if self.H < 1:
            raise ValueError(f"hop count must be >= 1, got {self.H}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.T_dist <= 0:
            raise ValueError(f"T_dist must be > 0, got {self.T_dist}")

    @property
    def hop_distance(self) -> float:
        """Average inter-hop distance, d = T_dist / H."""
        return self.T_dist / self.H


def per_hop_delay(S: float, link: LinkParams) -> float:
    """Time for one packet of S bits to traverse one hop.

    tau = S/b + l + q
    """
    return S / link.b + link.l + link.q


def path_delay(delta: float, profile: PathProfile) -> float:
    """End-to-end delay for delta packets: T_j = delta * tau_j * H_j."""
    if delta < 0:
        raise ValueError(f"packet count must be >= 0, got {delta}")
    return delta * profile.tau * profile.H


def tx_energy_per_bit(ep: EnergyParams, d: float) -> float:
    """Energy to transmit one bit over distance d: (e_t + e_d*d^k) * T_1b."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return ep.amplified_tx_power(d) * ep.T_1b


def rx_energy_per_bit(ep: EnergyParams) -> float:
    """Energy to receive one bit: e_r * T_2b."""
    return ep.e_r * ep.T_2b


def packet_comm_energy(ep: EnergyParams, d: float) -> float:
    """Transmit-plus-receive energy one node spends handling one packet."""
    return (tx_energy_per_bit(ep, d) + rx_energy_per_bit(ep)) * ep.S


def path_energy(ep: EnergyParams, profile: PathProfile, delta: float) -> float:
    """Total energy dissipated by the H+1 nodes of a path carrying delta packets.

    E_j = [(e_t + e_d*(T/H)^k)*T_1b + e_r*T_2b] * delta * S * (H+1) + K_r * (H+1)

    Every node on the path is charged both the transmit and the receive cost
    of each packet it handles; the K_r intercept is the per-round sensing and
    processing cost of the path's nodes and is independent of the traffic.
    """
    if delta < 0:
        raise ValueError(f"packet count must be >= 0, got {delta}")
    nodes = profile.H + 1
    traffic = packet_comm_energy(ep, profile.hop_distance) * delta * nodes
    return traffic + ep.K_r * nodes


def path_edp(ep: EnergyParams, profile: PathProfile, delta: float) -> float:
    """Energy-delay product EDP_j = E_j * T_j."""
    return path_energy(ep, profile, delta) * path_delay(delta, profile)


def average_edp(ep: EnergyParams, paths: list[PathProfile], D: float) -> float:
    """EDP of a synthetic average path carrying the equal-split load D/n,
    n = len(paths).

    The average path has H_avg = mean(H_j), tau_avg = mean(tau_j) and
    T_avg = mean(T_dist_j); the load D/n stays real-valued. This is the
    budget the adaptive allocation bounds every individual path against.
    """
    if not paths:
        raise ValueError("average_edp needs at least one path")
    if D < 0:
        raise ValueError(f"total packet count must be >= 0, got {D}")
    try:
        h_avg = math.fsum(p.H for p in paths) / len(paths)
        tau_avg = math.fsum(p.tau for p in paths) / len(paths)
        t_avg = math.fsum(p.T_dist for p in paths) / len(paths)
    except OverflowError:
        raise ValueError("the paths' mean per-hop delay or distance overflows") from None
    load = D / len(paths)
    nodes = h_avg + 1.0
    per_bit = ep.amplified_tx_power(t_avg / h_avg) * ep.T_1b + ep.e_r * ep.T_2b
    energy = per_bit * load * ep.S * nodes + ep.K_r * nodes
    return energy * (load * tau_avg * h_avg)
