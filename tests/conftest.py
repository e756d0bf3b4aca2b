from unittest import mock

import pytest

from wsn_multipath import EnergyParams, LinkParams, PathProfile, topology

BENCH_HOPS = [9, 22, 5, 20, 7]
BENCH_TAU = 0.02
BENCH_DIST = 100.0


@pytest.fixture
def bench_ep() -> EnergyParams:
    return EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, k=2.0,
                        T_1b=2e-5, T_2b=2e-5, K_r=0.024, S=1000.0)


@pytest.fixture
def bench_link() -> LinkParams:
    return LinkParams(b=50000.0, l=0.0, q=0.0)


@pytest.fixture
def bench_paths() -> list[PathProfile]:
    return [PathProfile(path_id=i + 1, H=h, tau=BENCH_TAU, T_dist=BENCH_DIST)
            for i, h in enumerate(BENCH_HOPS)]


BENCH_SCENARIO = """
paths.hops      9 22 5 20 7
paths.tau       0.02
paths.distance  100.0
packets         100
schemes         1 2 3
link.bit_rate   50000
energy.e_t      0.128
energy.e_d      0
energy.e_r      0.1024
energy.k_r      0.024
sim.idle_power  409.6e-6
"""


@pytest.fixture
def bench_scenario_text() -> str:
    return BENCH_SCENARIO


@pytest.fixture(scope="session")
def each_builder():
    """``for builder in each_builder(): ...`` runs the loop's body once under
    each of the graph's base builders: plain Python, then numpy's cell grid,
    whatever the graph's size."""
    def each():
        for builder, nodes in (("python", 2**62), ("numpy", -1)):
            with mock.patch.object(topology, "_PYTHON_NODES", nodes):
                yield builder
    return each
