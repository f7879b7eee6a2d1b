"""Correctness gate: every report an invocation wrote is read back and checked.

:func:`read_reports` checks the ``# generated`` header line and hashes each
body, :func:`parse_reports` checks that each body parses, and the ``check_*``
functions check what each workload's reports must say.  Every function
returns a list of problems; an empty list means the invocation is correct.
The checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SG_DIAMETER = 2.0 / 3.0  # resistance diameter of every Sierpinski-gasket level
VALUE_TOL = 1e-10  # round-off allowed on semigroup values of a 0..1 input
MC_SIGMAS = 4.0


def _parse_body(name: str, body: str):
    if name.endswith(".json"):
        return json.loads(body)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in body.splitlines() if line]
    if name.endswith(".csv"):
        rows = list(csv.reader(body.splitlines()))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged or empty CSV")
        return [dict(zip(rows[0], r)) for r in rows[1:]]
    if name.endswith(".txt"):
        values = {}
        for line in body.splitlines():
            key, value = line.split()
            values[int(key)] = float(value)
        return values
    raise ValueError("unknown report type")


def read_reports(out_dir: Path) -> tuple[dict, dict, list[str]]:
    """Read every report in ``out_dir``.

    Returns ``(body of each report, sha256 of each body, problems)`` keyed
    by file name.  Trajectory exports (``.jsonl``) carry no header line;
    every other report must start with ``# generated``.
    """
    bodies, digests, problems = {}, {}, []
    for path in sorted(Path(out_dir).iterdir()):
        body = path.read_text(encoding="utf-8")
        if not path.name.endswith(".jsonl"):
            header, _, body = body.partition("\n")
            if not header.startswith("# generated "):
                problems.append(f"{path.name}: missing '# generated' header")
                continue
        bodies[path.name] = body
        digests[path.name] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return bodies, digests, problems


def parse_reports(bodies: dict) -> tuple[dict, list[str]]:
    """Parse each report body; returns ``(parsed bodies, problems)``."""
    parsed, problems = {}, []
    for name, body in bodies.items():
        try:
            parsed[name] = _parse_body(name, body)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            problems.append(f"{name}: body does not parse ({exc})")
    return parsed, problems


def _require(reports: dict, *names: str) -> list[str]:
    return [f"{n}: missing" for n in names if n not in reports]


def check_semigroup(reports: dict, expect: dict) -> list[str]:
    txt = f"semigroup_t_{expect['t']:g}.txt"
    problems = _require(reports, "semigroup_report.json", txt)
    if problems:
        return problems
    apps = reports["semigroup_report.json"]["applications"]
    if len(apps) != 1 or not all(a["markov_check"]["ok"] for a in apps):
        problems.append("semigroup_report.json: markov_check failed")
    values = np.array(list(reports[txt].values()))
    if len(values) != expect["vertices"]:
        problems.append(f"{txt}: {len(values)} values, expected {expect['vertices']}")
    if not np.all((values >= -VALUE_TOL) & (values <= 1.0 + VALUE_TOL)):
        problems.append(f"{txt}: values leave [0, 1] for an input in [0, 1]")
    return problems


def check_simulate(reports: dict, expect: dict, adjacency: np.ndarray) -> list[str]:
    problems = _require(reports, "simulate_report.json", "trajectories.jsonl",
                        "trajectory_grid.csv", "law_summary.csv", "paired_summary.csv")
    if problems:
        return problems
    paths, times = expect["paths"], expect["times"]
    horizon = max(times)
    trajectories = reports["trajectories.jsonl"]
    if len(trajectories) != paths or reports["simulate_report.json"]["paths"] != paths:
        problems.append(f"trajectories.jsonl: {len(trajectories)} paths, expected {paths}")
    for k, traj in enumerate(trajectories):
        jt = np.asarray(traj["times"], dtype=float)
        st = np.asarray(traj["states"], dtype=np.int64)
        if (traj["horizon"] != horizon or len(jt) != len(st) or jt[0] != 0.0
                or st[0] != expect["start"] or np.any(np.diff(jt) <= 0)
                or jt[-1] >= horizon):
            problems.append(f"trajectories.jsonl: path {k} has a bad start or time axis")
            break
        if np.any((st < 0) | (st >= len(adjacency))) or not np.all(adjacency[st[:-1], st[1:]]):
            problems.append(f"trajectories.jsonl: path {k} jumps along a non-edge")
            break
    if len(reports["trajectory_grid.csv"]) != paths * len(times):
        problems.append("trajectory_grid.csv: wrong row count")
    totals: dict = {}
    for row in reports["law_summary.csv"]:
        totals[row["time"]] = totals.get(row["time"], 0.0) + float(row["frequency"])
    if len(totals) != len(times) or any(abs(v - 1.0) > 1e-9 for v in totals.values()):
        problems.append(f"law_summary.csv: laws do not sum to 1 ({totals})")
    ones = [r for r in reports["paired_summary.csv"] if r["function"] == "one"]
    if len(ones) != len(times) or any(float(r["difference"]) != 0.0 for r in ones):
        problems.append("paired_summary.csv: paired 'one' rows differ")
    return problems


def check_converge(reports: dict, expect: dict) -> list[str]:
    csvs = ("ks_norm.csv", "resolvent.csv", "semigroup.csv", "path_law.csv")
    problems = _require(reports, "converge_report.json", *csvs)
    if problems:
        return problems
    rep = reports["converge_report.json"]
    diam = rep["constants"]["diam_proxy"]
    if abs(diam - SG_DIAMETER) > 1e-9:
        problems.append(f"converge_report.json: diam_proxy {diam!r} is not 2/3")
    for level, rows in rep["reports"]["path_law"]["mc"].items():
        for row in rows:
            if not row["mc_vs_exact"] <= MC_SIGMAS * row["mc_se"]:
                problems.append(f"path_law level {level}: |mc - exact| > {MC_SIGMAS:g} SE")
    sandwich = rep["sandwich_passed_by_level"]
    if sorted(map(int, sandwich)) != expect["levels"] or not all(sandwich.values()):
        problems.append(f"converge_report.json: sandwich failed ({sandwich})")
    errors = [e for r in rep["reports"].values() for e in r["errors"]]
    errors += [float(row["error"]) for name in csvs for row in reports[name]]
    if not errors or not all(math.isfinite(e) for e in errors):
        problems.append("converge: non-finite or missing errors")
    return problems
