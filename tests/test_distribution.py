import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wsn_multipath import (
    Distribution,
    EnergyParams,
    NoCapacityError,
    DegeneratePathError,
    PathProfile,
    QuadraticCoefficients,
    Scheme,
    allocate,
    average_edp,
    coefficients_for_path,
    largest_remainder,
    normalize_distribution,
    path_edp,
    solve_max_packets,
    verify_edp_bound,
)

# raw per-path roots for the benchmark at D=100, frozen from a spreadsheet
# pass over the quadratic (values are loads where a path meets the budget)
RAW_ROOTS_D100 = [
    28.487874394690355,
    10.719527057768778,
    51.12275101923616,
    11.972584824244393,
    36.759924635277265,
]


class TestCoefficients:
    def test_nine_hop_path_d100(self, bench_ep, bench_paths):
        budget = average_edp(bench_ep, bench_paths, 100)
        c = coefficients_for_path(bench_ep, bench_paths[0], budget)
        assert c.A == pytest.approx(0.008294400000000002, rel=1e-12)
        assert c.B == pytest.approx(0.043199999999999995, rel=1e-12)
        assert c.C == pytest.approx(7.962071040000001, rel=1e-12)

    def test_solver_recovers_root(self):
        c = QuadraticCoefficients(A=0.008294400000000002,
                                  B=0.043199999999999995,
                                  C=7.962071040000001)
        assert solve_max_packets(c) == pytest.approx(28.487874394690355, rel=1e-12)

    def test_all_benchmark_roots(self, bench_ep, bench_paths):
        budget = average_edp(bench_ep, bench_paths, 100)
        roots = [solve_max_packets(coefficients_for_path(bench_ep, p, budget))
                 for p in bench_paths]
        assert roots == pytest.approx(RAW_ROOTS_D100, rel=1e-12)
        assert math.fsum(roots) == pytest.approx(139.06266193121695, rel=1e-12)

    def test_root_residual_tiny(self, bench_ep, bench_paths):
        budget = average_edp(bench_ep, bench_paths, 100)
        for p in bench_paths:
            c = coefficients_for_path(bench_ep, p, budget)
            r = solve_max_packets(c)
            assert abs(c.A * r * r + c.B * r - c.C) <= 1e-9 * max(c.C, 1.0)

    def test_edp_at_root_hits_budget(self, bench_ep, bench_paths):
        budget = average_edp(bench_ep, bench_paths, 100)
        for p in bench_paths:
            r = solve_max_packets(coefficients_for_path(bench_ep, p, budget))
            assert path_edp(bench_ep, p, r) == pytest.approx(budget, rel=1e-6)

    def test_degenerate_path_rejected(self):
        with pytest.raises(DegeneratePathError):
            solve_max_packets(QuadraticCoefficients(A=0.0, B=1.0, C=1.0))

    @given(st.floats(1e-9, 1e3), st.floats(0, 1e3), st.floats(0, 1e6))
    @example(a=0.125, b=0.0, c=5e-324)  # 4*A*C underflows to 0
    def test_root_nonnegative(self, a, b, c):
        assert solve_max_packets(QuadraticCoefficients(A=a, B=b, C=c)) >= 0.0

    @given(st.floats(1e-6, 1e3), st.floats(0, 1e3),
           st.floats(1e-6, 1e6), st.floats(1.0001, 10))
    def test_root_monotone_in_budget(self, a, b, c, factor):
        lo = solve_max_packets(QuadraticCoefficients(A=a, B=b, C=c))
        hi = solve_max_packets(QuadraticCoefficients(A=a, B=b, C=c * factor))
        assert hi >= lo


class TestLargestRemainder:
    def test_exact_shares(self):
        assert largest_remainder([50.0, 25.0, 25.0], 100) == [50, 25, 25]

    def test_two_to_one_to_one(self):
        # 2:1:1 over 100
        assert largest_remainder([50.0, 25.0, 25.0], 100) == [50, 25, 25]

    def test_equal_thirds_lowest_index_gets_spare(self):
        shares = [100 / 3] * 3
        assert largest_remainder(shares, 100) == [34, 33, 33]

    def test_sum_preserved(self):
        assert sum(largest_remainder([1.7, 2.6, 0.7], 5)) == 5

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=8),
           st.integers(0, 500))
    def test_property_sum_and_rounding(self, shares, total):
        # rescale so shares sum to the total, as callers do
        s = sum(shares)
        if s <= 0:
            return
        scaled = [x * total / s for x in shares]
        counts = largest_remainder(scaled, total)
        assert sum(counts) == total
        for got, want in zip(counts, scaled):
            assert math.floor(want) <= got <= math.ceil(want) + 1


class TestNormalize:
    def test_proportional_two_to_one_to_one(self):
        raw = [(1, 2.0), (2, 1.0), (3, 1.0)]
        dist = normalize_distribution(raw, 100)
        assert dist.as_list() == [50, 25, 25]

    def test_scale_down_keeps_proportions(self):
        raw = [(1, 200.0), (2, 100.0), (3, 100.0)]
        dist = normalize_distribution(raw, 100)
        assert dist.as_list() == [50, 25, 25]
        assert not dist.infeasible

    def test_equal_raw_lowest_id_breaks_tie(self):
        raw = [(1, 1.0), (2, 1.0), (3, 1.0)]
        dist = normalize_distribution(raw, 100)
        assert dist.as_list() == [34, 33, 33]

    def test_infeasible_flagged_on_scale_up(self):
        raw = [(1, 10.0), (2, 10.0)]
        dist = normalize_distribution(raw, 100)
        assert dist.infeasible
        assert sum(dist.as_list()) == 100

    def test_no_capacity(self):
        with pytest.raises(NoCapacityError):
            normalize_distribution([(1, 0.0), (2, 0.0)], 5)

    def test_zero_demand_ok(self):
        dist = normalize_distribution([(1, 0.0)], 0)
        assert dist.as_list() == [0]


class TestAllocate:
    def test_single_path_takes_min_hops(self, bench_ep, bench_paths):
        dist = allocate(Scheme.SINGLE_PATH, bench_ep, bench_paths, 100)
        assert dist.as_list() == [0, 0, 100, 0, 0]

    def test_equal_split(self, bench_ep, bench_paths):
        dist = allocate(Scheme.EQUAL_SPLIT, bench_ep, bench_paths, 100)
        assert dist.as_list() == [20, 20, 20, 20, 20]

    def test_adaptive_benchmark_distribution(self, bench_ep, bench_paths):
        dist = allocate(Scheme.ADAPTIVE, bench_ep, bench_paths, 100)
        assert dist.as_list() == [20, 8, 37, 9, 26]
        assert not dist.infeasible

    def test_adaptive_d200(self, bench_ep, bench_paths):
        dist = allocate(Scheme.ADAPTIVE, bench_ep, bench_paths, 200)
        assert dist.as_list() == [41, 16, 72, 18, 53]

    def test_scheme_numbering(self):
        assert Scheme(1) is Scheme.SINGLE_PATH
        assert Scheme(2) is Scheme.EQUAL_SPLIT
        assert Scheme(3) is Scheme.ADAPTIVE

    def test_distribution_sums_validated(self):
        with pytest.raises(ValueError):
            Distribution(scheme=Scheme.ADAPTIVE, allocations=((1, 5),), total=6)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6),
           st.integers(0, 300))
    def test_adaptive_always_sums_to_demand(self, hops, demand):
        ep = EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024)
        paths = [PathProfile(path_id=i + 1, H=h, tau=0.02, T_dist=100.0)
                 for i, h in enumerate(hops)]
        dist = allocate(Scheme.ADAPTIVE, ep, paths, demand)
        assert sum(dist.as_list()) == demand
        assert all(d >= 0 for d in dist.as_list())


class TestVerifyBound:
    def test_benchmark_passes(self, bench_ep, bench_paths):
        dist = allocate(Scheme.ADAPTIVE, bench_ep, bench_paths, 100)
        report = verify_edp_bound(bench_ep, bench_paths, dist)
        assert report.passed
        assert not report.infeasible
        assert len(report.checks) == 5

    def test_lopsided_load_reports_violations(self, bench_ep, bench_paths):
        # pile most of the demand on one path, far past its bound
        dist = Distribution(scheme=Scheme.ADAPTIVE, total=100,
                            allocations=((1, 90), (2, 5), (3, 2), (4, 2), (5, 1)))
        report = verify_edp_bound(bench_ep, bench_paths, dist)
        assert not report.passed
        assert any(not c.passed for c in report.checks)
        assert report.warnings

    def test_infeasible_flag_carried_through(self, bench_ep, bench_paths):
        raw = [(p.path_id, 1.0) for p in bench_paths]
        dist = normalize_distribution(raw, 100)
        assert dist.infeasible
        report = verify_edp_bound(bench_ep, bench_paths, dist)
        assert report.infeasible
