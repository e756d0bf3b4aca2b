import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsn_multipath
from wsn_multipath import bundled_scenario_path
from wsn_multipath.cli import main

BAD_FIELD = """
paths.hops 5
packets ten
link.bit_rate 1000
energy.e_t 0.1
energy.e_r 0.1
energy.k_r 0.01
"""

# communication energy alone puts the adaptive scheme closer to equal split
# than to single path, so the closeness check fails without idle/sensing
NO_OVERHEADS = """
paths.hops 9 22 5 20 7
paths.tau 0.02
packets 100
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0
sim.idle_power 0
"""

SMALL_FIELD = """
field.nodes 400
field.area 150 150
field.radio_range 24
field.seed 3
field.source 0
field.sink 1
packets 60
link.bit_rate 50000
energy.e_t 0.128
energy.e_r 0.1024
energy.k_r 0.024
sim.idle_power 409.6e-6
"""


@pytest.fixture
def bench_path():
    return str(bundled_scenario_path())


class TestRun:
    def test_benchmark_exits_zero(self, bench_path, tmp_path, capsys):
        code = main(["run", bench_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "delay ordering: PASS" in out
        assert (tmp_path / "energy.csv").exists()

    def test_packet_override(self, bench_path, tmp_path, capsys):
        code = main(["run", bench_path, "--out", str(tmp_path), "--packets", "200"])
        assert code == 0
        lines = (tmp_path / "distribution.csv").read_text().splitlines()
        assert lines[1] == "1,9,0,40,41"

    def test_negative_packet_override_rejected(self, bench_path, tmp_path, capsys):
        code = main(["run", bench_path, "--out", str(tmp_path / "out"),
                     "--packets", "-1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == "error: --packets must be >= 0\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_ordering_failure_exits_three(self, tmp_path, capsys):
        scn = tmp_path / "no_overheads.scenario"
        scn.write_text(NO_OVERHEADS)
        code = main(["run", str(scn), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 3
        assert "energy closeness: FAIL" in out

    def test_drops_fail_every_ordering_check(self, bench_path, tmp_path, capsys):
        # every node dies on its first charge: no scheme delivers a packet
        scn = tmp_path / "drained.scenario"
        scn.write_text(Path(bench_path).read_text().replace(
            "sim.initial_energy 23760", "sim.initial_energy 1e-6"))
        code = main(["run", str(scn), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 3
        assert [ln for ln in out.splitlines() if ln.endswith(("PASS", "FAIL"))] == [
            "delay ordering: FAIL", "energy ordering: FAIL", "energy closeness: FAIL"]
        for label in ("single_path", "equal_split", "adaptive"):
            assert f"warning: {label}: dropped 100 of 100 packets" in err
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "check energy_ordering FAIL" in report
        assert "warning adaptive: dropped 100 of 100 packets" in report

    def test_drops_warn_without_verdicts(self, bench_path, tmp_path, capsys):
        scn = tmp_path / "drained.scenario"
        scn.write_text(Path(bench_path).read_text().replace(
            "sim.initial_energy 23760", "sim.initial_energy 1e-6"))
        code = main(["run", str(scn), "--out", str(tmp_path / "out"), "--schemes", "2"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "ordering" not in out
        warning = "equal_split: dropped 100 of 100 packets on failed paths 1 2 3 4 5"
        assert f"warning: {warning}\n" in err
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "check delay_ordering skipped" in report
        assert f"warning {warning}\n" in report

    def test_scheme_subset(self, bench_path, tmp_path, capsys):
        code = main(["run", bench_path, "--out", str(tmp_path), "--schemes", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "equal_split" in out
        assert "ordering" not in out

    def test_trace_writes_event_logs(self, bench_path, tmp_path, capsys):
        code = main(["run", bench_path, "--out", str(tmp_path), "--trace",
                     "--schemes", "3"])
        assert code == 0
        trace = (tmp_path / "trace_adaptive.txt").read_text().splitlines()
        assert trace[0].split()[1] == "PacketSend"
        assert all(len(line.split()) == 6 for line in trace)

    def test_no_trace_no_log_files(self, bench_path, tmp_path):
        main(["run", bench_path, "--out", str(tmp_path), "--schemes", "3"])
        assert not list(tmp_path.glob("trace_*.txt"))

    def test_trace_without_lines_writes_no_file(self, bench_path, tmp_path, capsys):
        # with no packets no event gets a line, so no scheme leaves a trace
        runs = []
        for args in ([], ["--trace"]):
            out_dir = tmp_path / f"out{len(runs)}"
            code = main(["run", bench_path, "--out", str(out_dir), "--packets", "0", *args])
            out = capsys.readouterr().out.replace(str(out_dir), "OUT")
            runs.append((code, out, {f.name: f.read_bytes() for f in out_dir.iterdir()}))
        assert runs[1] == runs[0]
        assert sorted(runs[0][2]) == ["delays.csv", "distribution.csv", "energy.csv",
                                      "report.txt"]


class TestBadFaultTarget:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_one_with_field_and_line(self, bench_path, tmp_path, capsys, command):
        # the bundled layout has nodes 0..59; node 99 does not exist
        text = Path(bench_path).read_text() + "fault node_fail 0.05 99\n"
        scn = tmp_path / "bad_fault.scenario"
        scn.write_text(text)
        out_dir = tmp_path / "out"
        args = [command, str(scn)] + (["--out", str(out_dir)] if command == "run" else [])
        assert main(args) == 1  # returned, so no exception and no traceback
        err = capsys.readouterr().err
        assert err.startswith("error: fault target 99 ")
        assert f"(field 'fault', line {len(text.splitlines())})" in err
        assert not out_dir.exists()


class TestOverflow:
    """Values finite on their own whose products or sums pass the float
    range end in one error line naming the quantity, not a traceback."""

    @pytest.mark.parametrize("values, quantity", [
        ({"energy.path_loss_k": "1000", "energy.e_d": "1"}, "transmit power"),
        ({"paths.tau": "1e308"}, "completion time"),
        ({"sim.idle_power": "1e308"}, "idle energy"),
        ({"energy.e_d": "1e308"}, "transmit power"),
        ({"energy.e_t": "1e308"}, "EDP budget"),
        ({"energy.k_r": "1e308"}, "EDP budget"),
        ({"energy.t_1b": "1e308"}, "communication energy"),
    ])
    @pytest.mark.filterwarnings("ignore:path-loss exponent")
    def test_exits_one_naming_the_quantity(self, bench_path, tmp_path, capsys,
                                          values, quantity):
        kept = [line for line in Path(bench_path).read_text().splitlines()
                if line.partition(" ")[0] not in values]
        scn = tmp_path / "overflow.scenario"
        scn.write_text("\n".join(kept + [f"{k} {v}" for k, v in values.items()]) + "\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(scn), "--out", str(out_dir)]) == 1  # no traceback
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert quantity in err[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", [{"paths.tau": "1e308"}, {"sim.idle_power": "1e308"}])
    @pytest.mark.parametrize("existing", [False, True])
    def test_traced_run_leaves_no_trace(self, bench_path, tmp_path, capsys, values,
                                        existing):
        # both raise after the first scheme's run has streamed its lines
        kept = [line for line in Path(bench_path).read_text().splitlines()
                if line.partition(" ")[0] not in values]
        scn = tmp_path / "overflow.scenario"
        scn.write_text("\n".join(kept + [f"{k} {v}" for k, v in values.items()]) + "\n")
        out_dir = tmp_path / "out" / "nested"
        if existing:
            out_dir.mkdir(parents=True)
        assert main(["run", str(scn), "--out", str(out_dir), "--trace"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        if existing:
            assert not list(out_dir.iterdir())
        else:
            assert not (tmp_path / "out").exists()

    def test_largest_distance_runs_without_a_warning(self, tmp_path):
        # the largest 3-hop distance the scenario check accepts: the layout's
        # radio range and its end-to-end span square past the float range,
        # and every pair passes the range test as inf <= inf, silently
        scn = tmp_path / "huge.scenario"
        scn.write_text("paths.hops 3\npaths.distance 4.0223423789827785e+154\n"
                       "paths.redundant 2\npackets 1\nlink.bit_rate 1000\n"
                       "energy.e_t 0.1\nenergy.e_r 0.1\nenergy.k_r 0.01\n")
        code, _, err, files = run_outputs(CLI, scn, tmp_path / "run")
        assert (code, err) == (0, b"") and len(files) == 4

    def test_capacity_survives_an_overflowing_discriminant(self, bench_path, tmp_path,
                                                           capsys):
        # e_t = 1e155 makes B*B + 4*A*C of every path's EDP quadratic pass the
        # float range while its budget C stays finite; each path still has a
        # capacity of about sqrt(C/A), so the adaptive split is made
        kept = [line for line in Path(bench_path).read_text().splitlines()
                if line.partition(" ")[0] != "energy.e_t"]
        scn = tmp_path / "huge_e_t.scenario"
        scn.write_text("\n".join(kept + ["energy.e_t 1e155"]) + "\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(scn), "--schemes", "3", "--out", str(out_dir)]) == 0
        assert "zero capacity" not in capsys.readouterr().err
        rows = (out_dir / "distribution.csv").read_text().splitlines()[1:]
        shares = [int(row.split(",")[2]) for row in rows]
        assert sum(shares) == 100 and all(shares)


class TestValidate:
    def test_ok(self, bench_path, capsys):
        assert main(["validate", bench_path]) == 0
        assert "OK: 5 explicit paths" in capsys.readouterr().out

    def test_bad_field_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "bad.scenario"
        scn.write_text(BAD_FIELD)
        assert main(["validate", str(scn)]) == 1
        err = capsys.readouterr().err
        assert "packets" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["validate", "/nonexistent/file.scenario"]) == 1


class TestPaths:
    def test_route_listing(self, bench_path, capsys):
        assert main(["paths", bench_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("1: 0,")
        assert all(line.endswith(",1") for line in lines)


class TestArgparse:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


CLI = "import sys; from wsn_multipath.cli import main; sys.exit(main())"


def python(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code *args`` in a new process that imports this package."""
    src = str(Path(wsn_multipath.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, env=dict(os.environ, PYTHONPATH=path))


def run_outputs(code, scenario, run_dir, *args):
    """Exit code, stdout, stderr and output files of ``run`` in ``run_dir``."""
    run_dir.mkdir()
    proc = python(code, "run", str(scenario), "--out", "out", *args, cwd=run_dir)
    files = {f.name: f.read_bytes() for f in sorted((run_dir / "out").glob("*"))}
    return proc.returncode, proc.stdout, proc.stderr, files


class TestWithoutScipy:
    """The command line never imports scipy: a run in a process where any
    scipy import fails writes the same bytes as a normal run."""

    BLOCKED = "import sys; sys.modules['scipy'] = None; " + CLI

    def test_bundled_scenario(self, bench_path, tmp_path):
        plain = run_outputs(CLI, bench_path, tmp_path / "plain")
        assert plain[0] == 0 and b"Traceback" not in plain[2]
        assert run_outputs(self.BLOCKED, bench_path, tmp_path / "blocked") == plain

    def test_field_with_a_node_failure(self, tmp_path, capsys):
        scn = tmp_path / "field.scenario"
        scn.write_text(SMALL_FIELD)
        assert main(["paths", str(scn)]) == 0
        route = capsys.readouterr().out.splitlines()[0].split(": ")[1].split(",")
        scn.write_text(SMALL_FIELD + f"fault node_fail 0.05 {route[1]}\n")
        plain = run_outputs(CLI, scn, tmp_path / "plain", "--trace")
        assert plain[0] in (0, 3) and "trace_single_path.txt" in plain[3]
        assert run_outputs(self.BLOCKED, scn, tmp_path / "blocked", "--trace") == plain


class TestWithoutNumpy:
    """Parsing and checking a scenario, the closed-form model and split, and
    a small graph build no array: in a process where any numpy import fails,
    ``validate``, the package's allocation API and a fault-free run of a
    small explicit layout work as in a normal process."""

    NO_NUMPY = "import sys; sys.modules['numpy'] = None; "

    @pytest.mark.parametrize("text, code", [
        (None, 0),
        (SMALL_FIELD + "fault node_fail 0.05 7\nfault link_fail 0.1 3 4\n", 0),
        (BAD_FIELD, 1),
    ], ids=["bundled", "field_with_faults", "bad"])
    def test_validate(self, text, code, bench_path, tmp_path):
        scn = bench_path
        if text is not None:
            scn = tmp_path / "s.scenario"
            scn.write_text(text)
        plain = python(CLI, "validate", str(scn))
        assert plain.returncode == code and b"Traceback" not in plain.stderr
        if code:
            assert b"line 3" in plain.stderr
        blocked = python(self.NO_NUMPY + CLI, "validate", str(scn))
        assert ((blocked.returncode, blocked.stdout, blocked.stderr)
                == (plain.returncode, plain.stdout, plain.stderr))

    def test_package_and_readme_allocation(self):
        # README's quick start
        proc = python(self.NO_NUMPY + """
from wsn_multipath import EnergyParams, PathProfile, Scheme, allocate
ep = EnergyParams(e_t=0.128, e_d=0.0, e_r=0.1024, K_r=0.024, S=1000.0)
paths = [PathProfile(path_id=j + 1, H=h, tau=0.02, T_dist=100.0)
         for j, h in enumerate([9, 22, 5, 20, 7])]
print(allocate(Scheme.ADAPTIVE, ep, paths, 100).as_list())
""")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[20, 8, 37, 9, 26]\n", b"")

    def test_explicit_run(self, bench_path, tmp_path):
        # the bundled layout's 60 nodes build in plain Python, and with no
        # fault no route is searched; each process says on its last stderr
        # line whether it loaded numpy
        code = ("import sys; from wsn_multipath.cli import main; code = main(); "
                "print('numpy loaded:', sys.modules.get('numpy') is not None, "
                "file=sys.stderr); sys.exit(code)")
        plain = run_outputs(code, bench_path, tmp_path / "plain", "--packets", "1000")
        # exit 3: at 1,000 packets the energy closeness check fails
        assert plain[0] == 3 and plain[2] == b"numpy loaded: False\n"
        assert len(plain[3]) == 4
        assert run_outputs(self.NO_NUMPY + code, bench_path, tmp_path / "blocked",
                           "--packets", "1000") == plain

    def test_a_graph_build_needs_numpy(self, tmp_path):
        # the block is real: deploying a field imports numpy
        scn = tmp_path / "field.scenario"
        scn.write_text(SMALL_FIELD)
        proc = python(self.NO_NUMPY + CLI, "paths", str(scn))
        assert proc.returncode != 0 and b"numpy" in proc.stderr
