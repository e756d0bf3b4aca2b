"""Run the ``wsn-multipath`` command line with the module-boundary tracer on.

usage: python3 bench/traced_cli.py METRICS_JSON CLI_ARG...

Runs ``wsn_multipath.cli.main(CLI_ARG...)`` in this process, writes the
tracer's per-span stats, counts, engine event counts and kept spans to
METRICS_JSON, and exits with the command line's exit code. The package must
be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys

import wsn_multipath
from wsn_multipath import cli

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    metrics_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer, wsn_multipath)
    code = tracer.wrap("cli.main", cli.main, keep=True)(cli_args)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump({"stats": tracer.stats, "counts": tracer.counts,
                   "events": tracer.events, "spans": tracer.spans,
                   "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
