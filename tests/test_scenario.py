import dataclasses
import itertools
import math
import sys
import warnings
from operator import attrgetter
from pathlib import Path

import pytest

from wsn_multipath import (
    ScenarioError,
    build_network,
    bundled_scenario_path,
    deploy_field,
    load_scenario,
    parse_scenario,
    run_comparison,
)
from wsn_multipath.scenario import _KEYS, _REQUIRED


class TestParsing:
    def test_bundled_benchmark_loads(self):
        cfg = load_scenario(bundled_scenario_path())
        assert cfg.mode == "explicit"
        assert cfg.hops == [9, 22, 5, 20, 7]
        assert cfg.taus == [0.02] * 5
        assert cfg.packets == 100
        assert cfg.schemes == [1, 2, 3]
        assert cfg.ep.e_t == 0.128
        assert cfg.ep.K_r == 0.024
        assert cfg.idle_power == pytest.approx(409.6e-6)

    def test_defaults(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        assert cfg.max_attempts == 5
        assert cfg.control_bits == 100.0
        assert cfg.ep.k == 2.0
        assert cfg.ep.T_1b == 2e-5

    def test_single_tau_broadcasts(self):
        cfg = parse_scenario("""
paths.hops 3 4
paths.tau 0.05
packets 10
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert cfg.taus == [0.05, 0.05]

    def test_tau_defaults_to_link_rate(self):
        cfg = parse_scenario("""
paths.hops 3
packets 10
link.bit_rate 50000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert cfg.taus == [0.02]

    def test_comments_and_blank_lines(self):
        cfg = parse_scenario("""
# a comment
paths.hops 2   # trailing note
packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert cfg.hops == [2]

    def test_fault_lines(self):
        cfg = parse_scenario("""
paths.hops 5
packets 10
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
fault node_fail 0.15 5
fault link_fail 0.1 3 4
""")
        assert len(cfg.faults.events) == 2
        assert cfg.faults.events[0].target == 5
        assert cfg.faults.events[1].target == (3, 4)


class TestKeyMapping:
    # key: (value in the file, attribute path from ScenarioConfig, parsed value);
    # every value differs from what the key's field holds when it is omitted
    COMMON = {
        "packets": ("7", "packets", 7),
        "schemes": ("3 1", "schemes", [3, 1]),
        "link.bit_rate": ("40000", "link.b", 40000.0),
        "link.delay": ("0.001", "link.l", 0.001),
        "link.queue_delay": ("0.002", "link.q", 0.002),
        "energy.e_t": ("0.2", "ep.e_t", 0.2),
        "energy.e_d": ("1e-9", "ep.e_d", 1e-9),
        "energy.e_r": ("0.3", "ep.e_r", 0.3),
        "energy.path_loss_k": ("3", "ep.k", 3.0),
        "energy.t_1b": ("1e-5", "ep.T_1b", 1e-5),
        "energy.t_2b": ("3e-5", "ep.T_2b", 3e-5),
        "energy.k_r": ("0.05", "ep.K_r", 0.05),
        "energy.packet_bits": ("800", "ep.S", 800.0),
        "sim.max_attempts": ("3", "max_attempts", 3),
        "sim.control_bits": ("50", "control_bits", 50.0),
        "sim.idle_power": ("1e-4", "idle_power", 1e-4),
        "sim.initial_energy": ("100", "initial_energy", 100.0),
        "comparison.background_nodes": ("10", "background_nodes", 10),
        "output.dir": ("results", "out_dir", "results"),
    }
    MODES = {
        "explicit": ("paths.hops 5\n", {
            "paths.hops": ("4 6", "hops", [4, 6]),
            "paths.tau": ("0.01 0.03", "taus", [0.01, 0.03]),
            "paths.distance": ("50", "t_dist", 50.0),
            "paths.redundant": ("3", "redundant", 3),
        }),
        "field": ("field.nodes 120\n", {
            "field.nodes": ("50", "field_nodes", 50),
            "field.area": ("100 120", "area", (100.0, 120.0)),
            "field.radio_range": ("30", "radio_range", 30.0),
            "field.seed": ("9", "field_seed", 9),
            "field.source": ("4", "source", 4),
            "field.sink": ("7", "sink", 7),
            "field.max_paths": ("2", "max_paths", 2),
            "field.redundant_fraction": ("0.1", "redundant_fraction", 0.1),
        }),
    }
    MINIMAL = """packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
"""

    def test_every_key_is_covered(self):
        covered = set(self.COMMON).union(*(keys for _, keys in self.MODES.values()))
        assert covered == set(_KEYS)

    @pytest.mark.parametrize("mode", ["explicit", "field"])
    def test_each_value_lands_on_its_field(self, mode):
        mode_line, mode_keys = self.MODES[mode]
        keys = {**self.COMMON, **mode_keys}
        cfg = parse_scenario("".join(f"{k} {text}\n" for k, (text, _, _) in keys.items()))
        omitted = parse_scenario(self.MINIMAL + mode_line)
        assert (cfg.mode, omitted.mode) == (mode, mode)
        for key, (_, path, want) in keys.items():
            got = attrgetter(path)(cfg)
            assert (got, type(got)) == (want, type(want)), key
            assert attrgetter(path)(omitted) != want, key

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in section.splitlines() if line.startswith("| `")]
        keys = [row[0].strip("`") for row in rows]
        assert sorted(keys) == sorted(_KEYS)
        assert {key for key, row in zip(keys, rows) if row[1] == "required"} == set(_REQUIRED)


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        return exc.value

    def test_empty_names_first_missing_field(self):
        e = self.err("")
        assert e.field == "packets"
        assert "missing" in str(e)

    def test_unknown_field_reports_line(self):
        e = self.err("packets 10\nbogus.key 3\n")
        assert e.field == "bogus.key"
        assert e.line == 2

    def test_duplicate_field(self):
        e = self.err("packets 10\npackets 20\n")
        assert "duplicate" in str(e)
        assert e.line == 2

    def test_negative_packets(self):
        e = self.err("""
paths.hops 5
packets -1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert e.field == "packets"

    def test_both_topologies_rejected(self):
        e = self.err("""
paths.hops 5
field.nodes 100
packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert "exactly one" in str(e)

    def test_unparseable_value_reports_line_and_field(self):
        e = self.err("packets ten\n")
        assert e.field == "packets"
        assert e.line == 1

    def test_bad_fault_kind(self):
        e = self.err("""
paths.hops 5
packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
fault meteor_strike 0.1 3
""")
        assert e.field == "fault"

    # source and sink, 4 + 1 + 2 interiors and 2 spares: node ids 0..10
    EXPLICIT_BASE = """paths.hops 5 2 3
paths.redundant 2
packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
"""

    @pytest.mark.parametrize("fault", [
        "node_fail 0.1 11",
        "node_fail 0.1 -1",
        "link_fail 0.1 3 11",
        "link_fail 0.1 -2 3",
        "link_fail 0.1 4 4",
    ])
    def test_bad_fault_target_explicit(self, fault):
        e = self.err(self.EXPLICIT_BASE + f"fault {fault}\n")
        assert (e.field, e.line) == ("fault", 8)

    @pytest.mark.parametrize("fault", [
        "node_fail 0.1 120",
        "node_fail 0.1 -1",
        "link_fail 0.1 0 120",
        "link_fail 0.1 7 7",
    ])
    def test_bad_fault_target_field(self, fault):
        e = self.err(self.RANGE_BASE + f"fault {fault}\n")
        assert (e.field, e.line) == ("fault", 7)

    def test_fault_targets_at_the_last_id_accepted(self):
        cfg = parse_scenario(self.EXPLICIT_BASE + "fault link_fail 0.1 0 10\n")
        assert cfg.faults.events[0].target == (0, 10)
        cfg = parse_scenario(self.RANGE_BASE + "fault node_fail 0.1 119\n")
        assert cfg.faults.events[0].target == 119

    def test_fault_error_names_line_once(self):
        e = self.err(self.EXPLICIT_BASE + "fault meteor_strike 0.1 3\n")
        assert str(e).count("line 8") == 1

    def test_zero_tau_rejected(self):
        e = self.err("""
paths.hops 5
paths.tau 0
packets 1
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
""")
        assert e.field == "paths.tau"

    RANGE_BASE = """field.nodes 120
packets 30
link.bit_rate 50000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
"""

    @pytest.mark.parametrize("key, value", [
        ("field.radio_range", "0"),
        ("field.radio_range", "-5"),
        ("field.area", "0 80"),
        ("field.area", "80 -1"),
        ("field.redundant_fraction", "1.5"),
        ("field.redundant_fraction", "-0.1"),
        ("field.max_paths", "0"),
        ("field.sink", "0"),  # same as the default source
        ("field.sink", "120"),
        ("field.sink", "5000"),
        ("field.source", "-1"),
        ("field.source", "120"),
        ("sim.idle_power", "-1e-4"),
        ("sim.control_bits", "-100"),
        ("sim.initial_energy", "0"),
        ("sim.initial_energy", "-3"),
        ("field.seed", "-1"),
        ("link.bit_rate", "0"),
        ("link.delay", "-0.1"),
        ("link.queue_delay", "-1"),
        ("energy.packet_bits", "0"),
        ("energy.e_r", "-0.5"),
        ("energy.e_d", "-1"),
        ("energy.e_t", "nan"),
        ("energy.k_r", "inf"),
        ("link.bit_rate", "inf"),
        ("field.radio_range", "nan"),
        ("field.area", "80 inf"),
        ("sim.idle_power", "-inf"),
    ])
    def test_out_of_range_value_reports_field_and_line(self, key, value):
        # a key the base already sets is moved to the last line
        base = [l for l in self.RANGE_BASE.splitlines() if l.split()[0] != key]
        e = self.err("\n".join(base + [f"{key} {value}"]) + "\n")
        assert e.field == key
        assert e.line == len(base) + 1

    @pytest.mark.parametrize("line", [
        "paths.tau nan",
        "paths.distance inf",
        "fault node_fail nan 3",
        "fault link_fail inf 3 4",
    ])
    def test_non_finite_explicit_value_reports_field_and_line(self, line):
        e = self.err(self.EXPLICIT_BASE + line + "\n")
        assert (e.field, e.line) == (line.split()[0], 8)
        assert "finite" in str(e)

    @pytest.mark.filterwarnings("ignore:path-loss exponent")
    def test_distance_that_overflows_the_layout_reports_field_and_line(self):
        # node i of the base's longest path, 5 hops, sits at x = distance * i / 5;
        # with k = 1 the transmit power stays finite over such hops
        base = self.EXPLICIT_BASE + "energy.path_loss_k 1\n"
        edge = sys.float_info.max / 4
        cfg = parse_scenario(base + f"paths.distance {edge!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # squared distances overflow
            g, _ = build_network(cfg)
        assert all(map(math.isfinite, itertools.chain(*map(g.position, range(len(g))))))
        e = self.err(base + f"paths.distance {math.nextafter(edge, math.inf)!r}\n")
        assert (e.field, e.line) == ("paths.distance", 9)
        assert "infinite position" in str(e)
        e = self.err("paths.hops 3\npaths.distance 1e308\n" + base.split("\n", 2)[2])
        assert (e.field, e.line) == ("paths.distance", 2)

    def test_distance_that_overflows_the_transmit_power_reports_field_and_line(self):
        # a 3-hop path's hop is distance / 3 long, and at k = 2 its square
        # passes the float range above this distance
        edge = 4.0223423789827785e+154
        text = "paths.hops 3\npaths.distance {!r}\n" + self.EXPLICIT_BASE.split("\n", 1)[1]
        cfg = parse_scenario(text.format(edge))
        assert cfg.ep.amplified_tx_power(cfg.t_dist / 3) == cfg.ep.e_t
        for distance in (math.nextafter(edge, math.inf), 1e200, 8.98e307):
            e = self.err(text.format(distance))
            assert (e.field, e.line) == ("paths.distance", 2)
            assert "transmit power" in str(e)

    @pytest.mark.parametrize("base, line", [
        ("RANGE_BASE", "paths.tau nan"),
        ("RANGE_BASE", "paths.redundant -4"),
        ("RANGE_BASE", "paths.distance 100"),
        ("EXPLICIT_BASE", "field.seed -7"),
        ("EXPLICIT_BASE", "field.radio_range 0"),
        ("EXPLICIT_BASE", "field.area 80 80"),
    ])
    def test_other_mode_key_reports_field_and_line(self, base, line):
        text = getattr(self, base)
        e = self.err(text + line + "\n")
        key, at = line.split()[0], len(text.splitlines()) + 1
        assert (e.field, e.line) == (key, at)
        mode = "a field" if base == "RANGE_BASE" else "an explicit"
        assert str(e) == (f"field {key!r} does not apply to {mode} scenario "
                          f"(field {key!r}, line {at})")


class TestSynthesizedTopology:
    def test_node_count_matches_hops(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 2\n")
        g, table = build_network(cfg)
        interiors = sum(h - 1 for h in cfg.hops)
        assert len(g) == 2 + interiors + 2
        assert (table.source, table.sink) == (0, 1)

    def test_routes_realize_requested_hops(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        g, table = build_network(cfg)
        routes = table.routes
        assert [r.hops for r in routes] == cfg.hops
        assert [r.profile.tau for r in routes] == cfg.taus
        assert all(r.profile.T_dist == 100.0 for r in routes)

    def test_routes_disjoint_and_alive(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text)
        g, table = build_network(cfg)
        seen = set()
        for r in table.routes:
            inner = set(r.interior)
            assert not inner & seen
            seen |= inner
            assert all(g.alive(n) for n in r.nodes)

    def test_spares_marked_redundant(self, bench_scenario_text):
        cfg = parse_scenario(bench_scenario_text + "paths.redundant 3\n")
        g, _ = build_network(cfg)
        assert g.spares == {len(g) - 3, len(g) - 2, len(g) - 1}

    @pytest.mark.parametrize("distance", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("spares", [0, 3])
    def test_range_covers_layout(self, distance, spares):
        # the rows sit 10 m apart whatever the distance, so a short layout
        # is taller than it is wide: every node must still hear every other
        cfg = dataclasses.replace(load_scenario(bundled_scenario_path()),
                                  t_dist=distance, redundant=spares)
        g, _ = build_network(cfg)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(range(len(g)), 2))
        rep = run_comparison(cfg)
        assert [r.transfer.total_dropped for r in rep.runs] == [0, 0, 0]
        assert not rep.warnings


class TestFieldMode:
    FIELD = """
field.nodes 120
field.area 80 80
field.radio_range 18
field.seed 4
field.source 0
field.sink 119
packets 30
link.bit_rate 50000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
"""

    def test_discovery_runs(self):
        cfg = parse_scenario(self.FIELD)
        g, table = build_network(cfg)
        routes = table.routes
        assert routes, "expected at least one route through the field"
        assert all(r.profile is not None for r in routes)

    def test_built_graph_is_unmutated(self):
        # neither end is a spare, so activating them changes nothing
        cfg = parse_scenario(self.FIELD)
        spares = deploy_field(cfg.area, cfg.field_nodes, cfg.field_seed,
                              redundant_fraction=cfg.redundant_fraction).spares
        assert spares and cfg.source not in spares and cfg.sink not in spares
        g, _ = build_network(cfg)
        assert g.version == 1

    def test_unknown_sink_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(self.FIELD.replace("field.sink 119", "field.sink 500"))
        assert (exc.value.field, exc.value.line) == ("field.sink", 7)

    @pytest.mark.parametrize("attr", ["source", "sink"])
    def test_node_outside_field_rejected_when_built(self, attr):
        # a config made without the parser is still checked by build_network
        cfg = dataclasses.replace(parse_scenario(self.FIELD), **{attr: 500})
        with pytest.raises(ScenarioError) as exc:
            build_network(cfg)
        assert exc.value.field == f"field.{attr}"
