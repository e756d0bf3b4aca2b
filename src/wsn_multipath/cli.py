"""Command line front end: run a scenario, validate it, or list its routes.

Exit codes: 0 success, 1 scenario or runtime error, 2 bad command line,
3 scenario ran but an ordering check failed.
"""

from __future__ import annotations

import argparse
import sys

from .harness import emit_outputs, run_comparison
from .scenario import ScenarioError, build_network, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ORDERING = 3


def _add_scenario_arg(p: argparse.ArgumentParser):
    p.add_argument("scenario", help="scenario file to load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsn-multipath",
        description="Multipath packet distribution: simulate and compare schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the scheme comparison and write outputs")
    _add_scenario_arg(run)
    run.add_argument("--out", help="output directory (default from scenario)")
    run.add_argument("--packets", type=int, help="override packet demand")
    run.add_argument("--schemes", type=int, nargs="+", choices=(1, 2, 3),
                     help="override schemes to run")
    run.add_argument("--trace", action="store_true",
                     help="write per-scheme event traces next to the CSVs")

    val = sub.add_parser("validate", help="parse and validate a scenario file")
    _add_scenario_arg(val)

    paths = sub.add_parser("paths", help="print the discovered routes")
    _add_scenario_arg(paths)
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.packets is not None:
        if args.packets < 0:
            print("error: --packets must be >= 0", file=sys.stderr)
            return EXIT_ERROR
        cfg.packets = args.packets
    if args.schemes:
        cfg.schemes = list(dict.fromkeys(args.schemes))
    out_dir = args.out or cfg.out_dir
    rep = run_comparison(cfg, trace_dir=out_dir if args.trace else None)
    files = emit_outputs(rep, out_dir)
    for r in rep.runs:
        print(f"{r.label}: delay={r.overall_delay:.10g} s, "
              f"energy={r.total_energy:.10g} J")
    for name, verdict in (("delay ordering", rep.delay_ordering_ok),
                          ("energy ordering", rep.energy_ordering_ok),
                          ("energy closeness", rep.closeness_ok)):
        if verdict is not None:
            print(f"{name}: {'PASS' if verdict else 'FAIL'}")
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {', '.join(files)}")
    return EXIT_OK if rep.all_ok else EXIT_ORDERING


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.scenario)
    shape = (f"{len(cfg.hops)} explicit paths" if cfg.mode == "explicit"
             else f"{cfg.field_nodes} field nodes")
    print(f"OK: {shape}, {cfg.packets} packets, schemes "
          f"{' '.join(map(str, cfg.schemes))}, {len(cfg.faults.events)} scripted fault(s)")
    return EXIT_OK


def _cmd_paths(args) -> int:
    cfg = load_scenario(args.scenario)
    _, table = build_network(cfg)
    sys.stdout.write(table.format_routes())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate, "paths": _cmd_paths}[args.command]
    try:
        return handler(args)
    except (ScenarioError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
