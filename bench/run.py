"""Outside-in benchmark of the driftform CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N        # every workload

Each CLI invocation runs in a fresh interpreter (``child.py``), one after
another: a closed loop with one client.  An invocation starts while it is
expected to end within ``--seconds`` of the first, and at least
``MIN_SAMPLES`` run, unless the run's deadline comes first.  Every
report an invocation writes is checked (``checks.py``); an invocation that
exits non-zero, raises or fails a check counts as failed.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every invocation is traced (``tracer.py``) and the run reports the
per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

# One BLAS thread on both sides of every comparison: the dense pinv of
# converge_ref7 and the sparse series of semigroup_l6 react in opposite
# directions to the thread count, and one thread is the steadier setting on
# a shared machine.
BLAS_THREADS = "1"
# A median of three survives one invocation caught in a slow phase of a
# shared machine; with two it is their mean.
MIN_SAMPLES = 3
# A run must end within 180 s.  No invocation starts that could not finish
# before DEADLINE_S, judged by the slowest invocation of the run so far.
DEADLINE_S = 170.0
DEADLINE_MARGIN = 1.5
COMMON_ARGS = ("--structure", "sg", "--drift", "default")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    expect: dict


def sg_vertices(level: int) -> int:
    return (3 ** (level + 1) + 3) // 2


def make_workloads(semi_level=6, sim_level=4, sim_paths=4000,
                   conv_top=6, conv_paths=20000) -> dict[str, Workload]:
    """The three workloads; the defaults are the benchmark, smaller values
    give the smoke configuration of the self-tests.  ``BENCHMARK.json``
    gates ``semigroup_l6`` and ``converge_ref7``; ``simulate_l4`` runs only
    on request (README.md says why)."""
    times = [0.01, 0.1]
    ws = [
        Workload(
            "semigroup_l6",
            ("semigroup", "--level", str(semi_level), "--t", "0.1", "--f", "x"),
            {"t": 0.1, "vertices": sg_vertices(semi_level)},
        ),
        Workload(
            "simulate_l4",
            ("simulate", "--level", str(sim_level), "--paths", str(sim_paths),
             "--t", ",".join(map(str, times)), "--paired"),
            {"level": sim_level, "paths": sim_paths, "times": times, "start": 1},
        ),
        Workload(
            "converge_ref7",
            ("converge", "--levels", f"1:{conv_top}", "--reference-level",
             str(conv_top + 1), "--t", "0.1", "--paths", str(conv_paths)),
            {"levels": list(range(1, conv_top + 1))},
        ),
    ]
    return {w.name: w for w in ws}


WORKLOADS = make_workloads()
SMOKE_WORKLOADS = make_workloads(semi_level=2, sim_level=2, sim_paths=200,
                                 conv_top=2, conv_paths=2000)


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def _child(args: list[str], result_path: Path, timeout: float, importtime=False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "child.py"), str(result_path)] + args
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    record = {}
    if result_path.exists():
        record = json.loads(result_path.read_text(encoding="utf-8"))
    return proc, record


def _adjacency(level: int):
    import numpy as np

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from driftform.pcf import build_level, build_sierpinski_structure

    complex_ = build_level(build_sierpinski_structure(), level)
    adj = np.zeros((complex_.vertex_count,) * 2, dtype=bool)
    for a, b in complex_.edges:
        adj[a, b] = adj[b, a] = True
    return adj


def check_invocation(workload: Workload, out_dir: Path, adjacency=None):
    """``(digests, problems)`` of the reports in ``out_dir``."""
    import checks

    bodies, digests, problems = checks.read_reports(out_dir)
    reports, parse_problems = checks.parse_reports(bodies)
    problems += parse_problems
    kind = workload.argv[0]
    try:
        if kind == "semigroup":
            problems += checks.check_semigroup(reports, workload.expect)
        elif kind == "simulate":
            problems += checks.check_simulate(reports, workload.expect, adjacency)
        else:
            problems += checks.check_converge(reports, workload.expect)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        problems.append(f"report content malformed: {type(exc).__name__}: {exc}")
    return digests, problems


def invoke(workload: Workload, seed: int, work: Path, index: int, timeout: float,
           adjacency=None, traced=False) -> dict:
    """One CLI invocation in a fresh interpreter, then its correctness gate.

    Returns the child's record with ``problems`` (empty when correct),
    ``digests``, ``bytes_written`` and ``wall_s`` (child and checks) added.
    """
    started = time.monotonic()
    out_dir = work / f"inv{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_args = (["--trace", str(work / f"spans{index}.jsonl"),
                   f"{workload.name}-seed{seed}-inv{index}"] if traced else [])
    argv = [*workload.argv, *COMMON_ARGS, "--seed", str(seed), "--out", str(out_dir)]
    try:
        proc, record = _child(trace_args + ["--", *argv], work / f"inv{index}.json",
                              timeout, importtime=traced)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"],
                "wall_s": time.monotonic() - started}
    problems = []
    if proc.returncode != 0 or "run_s" not in record:
        problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    elif record["rc"] != 0 or record["error"]:
        problems.append(f"cli returned {record['rc']}: {record['error'] or proc.stderr.strip()[-300:]}")
    if Path(record.get("driftform", "")).resolve().parent != SRC / "driftform":
        problems.append(f"driftform imported from {record.get('driftform')}, not {SRC}")
    if traced:
        import tracer

        record["layers"] = {**record.get("layers", {}), **tracer.import_times(proc.stderr)}
    if not problems and not out_dir.is_dir():
        problems.append("no reports written")
    if not problems:
        record["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        record["digests"], problems = check_invocation(workload, out_dir, adjacency)
    record["problems"] = problems
    if not problems:
        shutil.rmtree(out_dir)
    record["wall_s"] = time.monotonic() - started
    return record


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def numeric_stack() -> dict:
    """Versions of the stack the children run on (same interpreter and
    site-packages as this process)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip()}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the contract result plus everything
    recorded about the run (environment, samples, digests)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    loadavg = os.getloadavg()
    work = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    adjacency = (_adjacency(workload.expect["level"])
                 if workload.argv[0] == "simulate" else None)

    records: list[dict] = []
    begin = time.monotonic()
    while True:
        now = time.monotonic()
        typical = _median(r["wall_s"] for r in records)
        if len(records) >= (1 if trace else MIN_SAMPLES) and now - begin + typical > seconds:
            break  # the next invocation would most likely end after --seconds
        slowest = max((r["wall_s"] for r in records), default=0.0)
        if records and deadline - now < DEADLINE_MARGIN * slowest:
            break  # report the samples taken rather than start one that is cut
        first = next((r for r in records if not r["problems"]), None)
        record = invoke(workload, seed, work, len(records), deadline - now,
                        adjacency, trace)
        known = first["digests"] if first else None
        if first and not record["problems"] and record["digests"] != known:
            changed = sorted(k for k in set(record["digests"]) | set(known)
                             if record["digests"].get(k) != known.get(k))
            record["problems"].append(f"report bodies differ between invocations: {changed}")
        records.append(record)

    ok = [r for r in records if not r["problems"]] or records
    # Each invocation imports driftform.cli in a fresh interpreter: the
    # set-up samples are spread over the whole run.
    setup = [r["import_s"] for r in ok if "import_s" in r]
    if trace:
        names = sorted(ok[0].get("layers", {}))
        metrics = {n: _median(r.get("layers", {}).get(n) for r in ok) for n in names}
        metrics["cli.bytes_written"] = _median(r.get("bytes_written") for r in ok)
    else:
        metrics = {"run_s": _median(r.get("run_s") for r in ok), "setup_s": _median(setup),
                   "peak_rss_mb": _median(r.get("peak_rss_mb") for r in ok)}
    failed = sum(1 for r in records if r["problems"])
    digests = next((r["digests"] for r in records if not r["problems"]), {})
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "result": {"correct": failed == 0, "attempted": len(records), "failed": failed,
                   "metrics": metrics},
        "samples": {"run_s": [r.get("run_s") for r in ok], "setup_s": setup,
                    "peak_rss_mb": [r.get("peak_rss_mb") for r in ok]},
        "problems": [p for r in records for p in r["problems"]],
        "digests": digests,
        "environment": {"commit": git_commit(), **numeric_stack(),
                        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
                        "nproc": os.cpu_count(), "loadavg_at_start": loadavg},
        "wall_s": time.monotonic() - started,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def contract_metrics(run: dict, spec: dict) -> dict:
    """The run's metrics with their units, in the order BENCHMARK.json names them."""
    group = spec["per_layer" if run["trace"] else "end_to_end"]
    values = run["result"]["metrics"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in group}


def compare_digests(run: dict) -> str:
    if not DIGESTS.exists():
        return "no recorded digests"
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    base = recorded.get(run["workload"], {}).get(str(run["seed"]))
    if base is None:
        return f"no recorded digests for seed {run['seed']}"
    changed = sorted(k for k in set(base) | set(run["digests"])
                     if base.get(k) != run["digests"].get(k))
    return "report bodies match the recorded digests" if not changed else \
        f"report bodies CHANGED against the recorded digests: {changed}"


def record_digests(runs: list[dict]) -> None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for run in runs:
        if run["result"]["correct"]:
            recorded.setdefault(run["workload"], {})[str(run["seed"])] = run["digests"]
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def print_summary(run: dict, metrics: dict) -> None:
    res = run["result"]
    print(f"== {run['workload']} seed {run['seed']} trace {int(run['trace'])}: "
          f"{res['attempted']} invocations, {res['failed']} failed, {run['wall_s']:.1f} s")
    counts = {k: len(v) for k, v in run["samples"].items()}
    for name, m in metrics.items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':34s} {res['failed'] / res['attempted']:.6g} ratio"
          f"  ({res['failed']} of {res['attempted']})")
    if not run["trace"] and res["attempted"] < MIN_SAMPLES:
        print(f"  NOTE: only {res['attempted']} invocations, fewer than {MIN_SAMPLES}, "
              f"before the {DEADLINE_S:.0f} s deadline")
    for problem in run["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  digests: {compare_digests(run)}")
    print(f"  environment: {json.dumps(run['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the report digests of this run in {DIGESTS.name}")
    args = parser.parse_args(argv)

    if not (SRC / "driftform" / "cli.py").is_file():
        print(f"error: no driftform sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    if any(n not in table for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(table)} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    sys.path.insert(0, str(HERE))
    runs, results = [], {}
    for name in names:
        run = run_workload(table[name], args.seed, seconds, bool(args.trace))
        result = dict(run["result"], metrics=contract_metrics(run, spec))
        print_summary(run, result["metrics"])
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
        runs.append(run)
        results[name] = result
    if args.record_digests:
        record_digests(runs)
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    if len(names) > 1:
        return 0 if all(r["correct"] for r in results.values()) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
