"""Output checks for one ``wsn-multipath run``, against the recorded results.

Fault-free workloads must reproduce the seed commit: the same exit code and
verdict lines, a byte-identical ``distribution.csv``, and ``delays.csv`` /
``energy.csv`` values within 1e-9 relative. ``field_faults`` is held to
invariants only, so that a fix of its recovery defect is not a failure.
"""

from __future__ import annotations

import math
import os
import re

REL_TOL = 1e-9
VERDICT = re.compile(r"^(delay ordering|energy ordering|energy closeness): (PASS|FAIL)$")


def verdict_lines(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if VERDICT.match(ln)]


def read_report(path: str) -> dict:
    """``report.txt`` as {"packets": D, "schemes": {label: {...}}}."""
    rep = {"packets": None, "schemes": {}}
    scheme = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.strip().partition(" ")
            if key == "packets":
                rep["packets"] = int(rest)
            elif key == "scheme":
                scheme = rep["schemes"].setdefault(
                    rest, {"allocation": [], "dropped": 0})
            elif key == "allocation" and scheme is not None:
                scheme["allocation"] = [int(x) for x in rest.split()]
            elif key == "dropped" and scheme is not None:
                scheme["dropped"] = int(rest)
    return rep


def dropped(report: dict) -> int:
    return sum(s["dropped"] for s in report["schemes"].values())


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def compare_csv(actual: str, reference: str) -> list[str]:
    """Problems found comparing two CSVs cell by cell, numbers within REL_TOL."""
    with open(actual, encoding="utf-8") as fa, open(reference, encoding="utf-8") as fr:
        rows_a = [ln.rstrip("\n").split(",") for ln in fa]
        rows_r = [ln.rstrip("\n").split(",") for ln in fr]
    name = os.path.basename(actual)
    if [len(r) for r in rows_a] != [len(r) for r in rows_r]:
        return [f"{name}: shape differs from the reference"]
    return [f"{name}: row {i + 1}: {a} != {r}"
            for i, (ra, rr) in enumerate(zip(rows_a, rows_r))
            for a, r in zip(ra, rr) if not _close(a, r)][:5]


def _invariants(out_dir: str, packets: int, schemes: int) -> list[str]:
    rep = read_report(os.path.join(out_dir, "report.txt"))
    problems = []
    if rep["packets"] != packets:
        problems.append(f"report.txt: packets {rep['packets']} != {packets}")
    if len(rep["schemes"]) != schemes:
        problems.append(f"report.txt: {len(rep['schemes'])} schemes, expected {schemes}")
    for label, s in rep["schemes"].items():
        if sum(s["allocation"]) != packets:
            problems.append(f"report.txt: {label} allocates {sum(s['allocation'])} "
                            f"of {packets} packets")
        if not 0 <= s["dropped"] <= packets:
            problems.append(f"report.txt: {label} dropped {s['dropped']} "
                            f"of {packets} packets")
    return problems


def _trace_problems(out_dir: str) -> list[str]:
    """Each scheme's trace must hold one PacketArrive per packet per hop."""
    with open(os.path.join(out_dir, "distribution.csv"), encoding="utf-8") as fh:
        header, *rows = [ln.rstrip("\n").split(",") for ln in fh]
    problems = []
    for col, label in enumerate(header[2:], start=2):
        want = sum(int(r[1]) * int(r[col]) for r in rows)
        fn = os.path.join(out_dir, f"trace_{label}.txt")
        if not os.path.isfile(fn):
            problems.append(f"trace_{label}.txt missing")
            continue
        with open(fn, "rb") as fh:
            got = fh.read().count(b" PacketArrive ")
        if got != want:
            problems.append(f"trace_{label}.txt: {got} PacketArrive lines, "
                            f"expected {want}")
    return problems


def check_run(w, expected: dict, code: int, stdout: str, out_dir: str,
              ref_dir: str) -> list[str]:
    """Every way this run disagrees with the workload's expected result."""
    verdicts = verdict_lines(stdout)
    if not os.path.isfile(os.path.join(out_dir, "report.txt")):
        return [f"exit {code} and no report.txt"]
    problems = _invariants(out_dir, w.packets, w.schemes)
    if not w.reference:
        failing = any(v.endswith("FAIL") for v in verdicts)
        if code not in (0, 3) or (code == 3) != failing or len(verdicts) != 3:
            problems.append(f"exit {code} does not match verdicts {verdicts}")
        return problems
    if code != expected["exit"]:
        problems.append(f"exit {code}, expected {expected['exit']}")
    if verdicts != expected["verdicts"]:
        problems.append(f"verdicts {verdicts}, expected {expected['verdicts']}")
    with open(os.path.join(out_dir, "distribution.csv"), "rb") as fa, \
            open(os.path.join(ref_dir, "distribution.csv"), "rb") as fr:
        if fa.read() != fr.read():
            problems.append("distribution.csv differs from the reference")
    for name in ("delays.csv", "energy.csv"):
        problems += compare_csv(os.path.join(out_dir, name),
                                os.path.join(ref_dir, name))
    if w.trace:
        problems += _trace_problems(out_dir)
    return problems
