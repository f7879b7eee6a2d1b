"""Compare the report bodies of a git revision with those of the working tree.

    python scripts/compare_reports.py REV

Runs a fixed list of driftform commands (the README's CLI examples and some
deeper runs) on a ``git archive`` of REV and on the working tree, each
command in a fresh interpreter with one BLAS thread and the working tree's
config files (a config new since REV runs on both sides), and compares every
output file byte for byte: a report after its ``# generated`` line, any
other file (``trajectories.jsonl``) whole.  Prints each file that differs,
with the largest absolute change of its numbers when only numbers differ and
``text differs`` otherwise, followed for a ``.json`` report by the key paths
that differ (``reports.path_law.mc.4[1].mc_mean``) and for a ``.csv`` report
by the columns that differ; then each file that exists on one side only, and
each command whose exit code differs.  Exits 1 on any difference, 0
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SHOWN_KEYS = 12  # key paths or columns printed per file

COMMANDS = {
    # the README's CLI examples
    "readme_check": ["check", "--level", "3", "--reference-level", "6"],
    "readme_plain": ["check", "--drift", "none", "--level", "3"],
    "readme_converge": ["converge", "--levels", "1:5", "--reference-level", "6",
                        "--t", "0.1", "--paths", "20000", "--seed", "0"],
    "readme_simulate": ["simulate", "--level", "2", "--paths", "1000",
                        "--t", "0.01,0.1", "--paired"],
    "readme_resolvent": ["resolvent", "--level", "3", "--alpha", "8,12", "--f", "x"],
    "readme_semigroup": ["semigroup", "--level", "3", "--t", "0.05,0.2",
                         "--f", "harmonic:1,0,0"],
    # deeper levels, the benchmark's workloads and the shipped configs
    "check_l6": ["check", "--level", "6", "--seed", "1"],
    "check_l8": ["check", "--level", "8"],
    "check_l9": ["check", "--level", "9"],
    # an h given on level 1: a trace and a harmonic extension onto N_1
    "check_base1": ["check", "--level", "4", "--drift", "docs/configs/drift_base1.json"],
    "semigroup_l6": ["semigroup", "--level", "6", "--t", "0.1", "--f", "x", "--seed", "1"],
    # one column (and the Markov check's block) on the Krylov kernel
    "semigroup_l8": ["semigroup", "--level", "8", "--t", "0.1", "--f", "x", "--seed", "1"],
    # refused by the lower bound of Lambda t, before the diameter (exit 2)
    "semigroup_past_ceiling": ["semigroup", "--level", "9", "--t", "10"],
    "simulate_l4": ["simulate", "--level", "4", "--paths", "4000", "--t", "0.01,0.1",
                    "--paired", "--seed", "1"],
    "converge_ref7": ["converge", "--levels", "1:6", "--reference-level", "7",
                      "--t", "0.1", "--paths", "20000", "--seed", "1"],
    "converge_ref8": ["converge", "--levels", "1:7", "--reference-level", "8",
                      "--t", "0.1", "--paths", "20000", "--seed", "1"],
    "sg_combinatorial": ["check", "--level", "4",
                         "--structure", "docs/configs/sg_combinatorial.json",
                         "--drift", "docs/configs/drift_constant.json"],
    "interval": ["check", "--level", "2", "--structure", "docs/configs/interval.json"],
    # a diameter between a corner and an inner vertex (not on V_0)
    "sg_weighted_check": ["check", "--level", "4",
                          "--structure", "docs/configs/sg_weighted.json"],
    # the default drift sized by the level energy of h0, not its base energy
    "sg_weighted_converge": ["converge", "--levels", "1:3", "--reference-level", "4",
                             "--structure", "docs/configs/sg_weighted.json",
                             "--f", "harmonic:1,0,0", "--paths", "2000"],
    # the level-3 gasket: 7-vertex pivot blocks in every elimination
    "sg3_check": ["check", "--level", "4", "--structure", "docs/configs/sg3.json"],
    "sg3_converge": ["converge", "--levels", "1:3", "--reference-level", "4",
                     "--structure", "docs/configs/sg3.json"],
    # a 1-D test function, and the constant test function on a structure
    # with no embedding
    "interval_converge": ["converge", "--levels", "1:3", "--reference-level", "4",
                          "--structure", "docs/configs/interval.json"],
    "sg_combinatorial_converge": ["converge", "--levels", "1:3", "--reference-level", "4",
                                  "--structure", "docs/configs/sg_combinatorial.json",
                                  "--drift", "docs/configs/drift_constant.json", "--f", "one"],
    # the drift-free chain outside check
    "converge_none": ["converge", "--drift", "none", "--levels", "1:5", "--reference-level", "6",
                      "--t", "0.1", "--paths", "2000", "--seed", "1"],
    "simulate_none_paired": ["simulate", "--drift", "none", "--level", "3", "--paths", "500",
                             "--t", "0.01,0.1", "--paired", "--seed", "1"],
    # one long path (Lambda t about 6.8e4) and a 1-D structure's paths
    "simulate_long_path": ["simulate", "--level", "1", "--paths", "1", "--t", "2000",
                           "--seed", "1"],
    "simulate_interval": ["simulate", "--level", "3", "--paths", "200", "--t", "0.01,0.1",
                          "--structure", "docs/configs/interval.json", "--seed", "1"],
    # resolvent solves: no nested counts (only the dense end), a deeper
    # level, and the shipped configs
    "resolvent_l0": ["resolvent", "--level", "0"],
    "resolvent_l7": ["resolvent", "--level", "7", "--f", "x"],
    "resolvent_interval": ["resolvent", "--level", "4",
                           "--structure", "docs/configs/interval.json"],
    "resolvent_sg3": ["resolvent", "--level", "3", "--structure", "docs/configs/sg3.json"],
    "resolvent_sg_combinatorial": ["resolvent", "--level", "3",
                                   "--structure", "docs/configs/sg_combinatorial.json",
                                   "--drift", "docs/configs/drift_constant.json", "--f", "one"],
}


def run_all(tree: Path, out: Path) -> dict[str, int]:
    """Run every command on the sources of ``tree``, its config files read
    from the working tree so that both sides take the same inputs; the exit
    code of each."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    codes = {}
    for name, args in COMMANDS.items():
        args = [str(ROOT / a) if a.startswith("docs/") else a for a in args]
        done = subprocess.run(
            [sys.executable, "-m", "driftform.cli", *args, "--out", str(out / name)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        codes[name] = done.returncode
    return codes


def body(path: Path) -> bytes:
    data = path.read_bytes()
    if data.startswith(b"# generated "):
        return data.split(b"\n", 1)[1]
    return data


def change(old: bytes, new: bytes) -> str:
    """How two differing bodies differ: the largest absolute change of a
    number when the text around the numbers is the same, else ``text
    differs``."""
    if NUMBER.split(old) != NUMBER.split(new):
        return "text differs"
    pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
    return f"largest change {max(abs(float(a) - float(b)) for a, b in pairs):.3g}"


def _json_paths(old, new, path: str = "") -> list[str]:
    """The key paths at which two parsed JSON values differ: ``.key`` for a
    member, ``[i]`` for a list item; a value whose type or length differs,
    or a member on one side only, is one path."""
    if isinstance(old, dict) and isinstance(new, dict):
        found = []
        for key in sorted(old.keys() | new.keys()):
            inner = f"{path}.{key}" if path else key
            if key in old and key in new:
                found += _json_paths(old[key], new[key], inner)
            else:
                found.append(inner)
        return found
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in _json_paths(a, b, f"{path}[{i}]")]
    return [] if old == new else [path or "(root)"]


def _csv_columns(old: bytes, new: bytes) -> list[str]:
    """The columns (by the first row's names) whose values differ in some
    row; a different header or row count is named as such."""
    a, b = (list(csv.reader(body.decode().splitlines())) for body in (old, new))
    if not a or not b or a[0] != b[0]:
        return ["(header)"]
    cols = [name for k, name in enumerate(a[0])
            if any(ra[k:k + 1] != rb[k:k + 1] for ra, rb in zip(a[1:], b[1:]))]
    return cols + ([f"(rows {len(a) - 1} -> {len(b) - 1})"] if len(a) != len(b) else [])


def changed_keys(name: str, old: bytes, new: bytes) -> str:
    """What differs inside two report bodies: ``keys: ...`` for JSON,
    ``columns: ...`` for CSV, empty for other files or unparsable bodies."""
    try:
        if name.endswith(".json"):
            label, found = "keys", _json_paths(json.loads(old), json.loads(new))
        elif name.endswith(".csv"):
            label, found = "columns", _csv_columns(old, new)
        else:
            return ""
    except (ValueError, UnicodeDecodeError):
        return ""
    more = f" and {len(found) - SHOWN_KEYS} more" if len(found) > SHOWN_KEYS else ""
    return f"{label}: {', '.join(found[:SHOWN_KEYS])}{more}" if found else ""


def _compare(base: Path, head: Path):
    """``(line, keys)`` for each file under ``base`` and ``head`` whose body
    differs or that exists on one side only: the file and how it differs
    (see :func:`change`), and what differs inside it (see
    :func:`changed_keys`)."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old, new = files(base), files(head)
    for rel in sorted(old | new):
        if rel not in old or rel not in new:
            yield f"{rel} (one side only)", ""
        else:
            a, b = body(base / rel), body(head / rel)
            if a != b:
                yield f"{rel}: {change(a, b)}", changed_keys(rel.name, a, b)


def differences(base: Path, head: Path) -> list[str]:
    """One line for each file under ``base`` and ``head`` whose body differs
    (see :func:`change`) or that exists on one side only."""
    return [line for line, _ in _compare(base, head)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/compare_reports.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "base", filter="data")
        codes = {side: run_all(tree, tmp / f"out_{side}")
                 for side, tree in (("base", tmp / "base"), ("head", ROOT))}
        diff = []
        for line, keys in _compare(tmp / "out_base", tmp / "out_head"):
            print(line + (f"\n    {keys}" if keys else ""))
            diff.append(line)
    exits = [f"{name}: exit {codes['base'][name]} at {rev}, {codes['head'][name]} here"
             for name in COMMANDS if codes["base"][name] != codes["head"][name]]
    for line in exits:
        print(line)
    diff += exits
    print(f"{len(diff)} differences over {len(COMMANDS)} commands")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
