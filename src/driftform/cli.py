"""Command-line surface for the laboratory.

Modes
-----
check      admissibility of a drift at one level: smallness conditions,
           derived constants, form axioms, rate validation; admissible
           only when every one of them passes.
resolvent  solve the shifted systems for a grid of shifts.
semigroup  evaluate the semigroup on a time grid, with Markov checks.
simulate   sample paths and their empirical laws.
converge   per-level gap reports against a reference level.

Exit codes: 0 success, 1 admissibility or numerical failure (a solve whose
residual exceeds its tolerance, an eigen-certificate that cannot be formed),
2 usage/config error.
All report files start with one timestamp header line; everything after it
is a deterministic function of the configuration and seed.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import convergence as cv
from . import drift as dr
from . import markov as mk
from . import spectral as sp
from . import tower as tw
from .pcf import StructureError, build_sierpinski_structure, load_structure, vertex_count
from .resistance import NetworkError, harmonic_extension

MAX_LAMBDA_T = 1e7  # largest Lambda t a run takes (L10 at t = 0.1 is about 6e6)
# Largest level a run builds.  Measured peaks: SG L10 (88575 vertices) 231 MiB
# for check, 342 MiB for semigroup; SG L11 (265722 vertices) 602 MiB for check.
MAX_VERTICES = 100_000
# simulate keeps every jump until it writes the trajectories.  Measured peak
# memory: at most 129 B per path and recording time (the samplers' per-path
# arrays and a grid row, with --paired) and 43 B per engine step (at most
# paths * Lambda t steps); a run estimated past MAX_LOG_BYTES is refused.
MAX_LOG_BYTES = 2**30
LOG_OBJECT_BYTES = 144  # per path and recording time
LOG_STEP_BYTES = 48  # per engine step


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Report files: one "# generated ..." header line, deterministic body.
# ---------------------------------------------------------------------------

def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _header() -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return f"# generated {stamp}\n"


def write_json_report(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header())
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv_report(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header())
        for row in rows:
            fh.write(row + "\n")


def write_vertex_function_report(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header())
        for k, v in enumerate(np.asarray(values, dtype=float)):
            fh.write(f"{k} {v:.17g}\n")


def read_vertex_function(path, n: int) -> np.ndarray:
    """Values at vertices ``0 .. n-1`` from an ``id value`` file, the format
    :func:`write_vertex_function_report` writes; blank lines and ``#``
    lines are skipped, ids past ``n - 1`` are ignored, no id may be
    negative or appear twice and every value must be finite."""
    data: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                x, v = fields
                x, v = int(x), float(v)
            except ValueError:
                raise ConfigError(
                    f"{path} line {lineno}: expected 'id value', got {line.strip()!r}"
                ) from None
            if x < 0:
                raise ConfigError(f"{path} line {lineno}: vertex id {x} is negative")
            if not math.isfinite(v):
                raise ConfigError(f"{path} line {lineno}: value {v} is not finite")
            if x in data:
                raise ConfigError(f"{path} line {lineno}: vertex {x} is listed twice")
            data[x] = v
    missing = next((k for k in range(n) if k not in data), None)
    if missing is not None:
        raise ConfigError(f"{path} has no value for vertex {missing} (needs ids 0..{n - 1})")
    return np.array([data[k] for k in range(n)])


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_levels(text: str) -> list[int]:
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = (int(x) for x in text.split(":"))
            # a descending range keeps its ends so the order check names it
            levels = list(range(lo, hi + 1)) if lo <= hi else [lo, hi]
        else:
            levels = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"bad level range {text!r}: use 'a:b' or 'a,b,c'") from exc
    if not levels or min(levels) < 1:
        raise ConfigError(f"levels must be >= 1, got {text!r}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"levels must be strictly increasing, got {text!r}")
    return levels


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"bad numeric grid {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError(f"empty numeric grid {text!r}")
    # times are >= 0 and resolvent shifts > 0, so no grid takes a negative value
    if not all(math.isfinite(v) and v >= 0 for v in vals):
        raise ConfigError(f"grid values must be finite and >= 0, got {text!r}")
    return vals


def _one_file_each(values: list[float], flag: str) -> list[float]:
    """``values``, refused when two would write one ``{value:g}`` report
    file, a repeated value included."""
    for a, b in itertools.combinations(values, 2):
        if a == b:
            raise ConfigError(f"{flag} value {a!r} is given twice")
        if f"{a:g}" == f"{b:g}":
            raise ConfigError(f"{flag} values {a!r} and {b!r} share the file name suffix {a:g}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftform",
        description="drift-perturbed energy forms on self-similar graph hierarchies",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--structure", default="sg",
                        help="builtin 'sg' or a structure config path")
    common.add_argument("--drift", default="default",
                        help="'default' (admissible half-threshold instance), "
                             "'none' (no drift) or a drift config path")
    common.add_argument("--level", type=int, default=3, help="working level")
    common.add_argument("--levels", default="1:5", help="level range 'a:b' or list 'a,b,c'")
    common.add_argument("--reference-level", type=int, default=None,
                        help="proxy/reference level (default: working level for "
                             "check, 6 for converge)")
    common.add_argument("--alpha", default=None,
                        help="comma-separated resolvent shifts (default: 2*lambda)")
    common.add_argument("--t", default="0.1", help="comma-separated times")
    common.add_argument("--f", default="x",
                        help="input function: 'one', 'x', 'y', 'indicator:<id>', "
                             "'harmonic:<v0,v1,...>' or a vertex-function file")
    common.add_argument("--paths", type=int, default=1000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--delta", type=float, default=None,
                        help="override the derived delta")
    common.add_argument("--assumption", choices=["A", "B"], default="A")
    common.add_argument("--out", default="runs")
    common.add_argument("--config", default=None,
                        help="JSON file whose keys override the flags")

    sub.add_parser("check", parents=[common], help="admissibility report")
    sub.add_parser("resolvent", parents=[common], help="resolvent solves")
    sub.add_parser("semigroup", parents=[common], help="semigroup evaluation")
    psim = sub.add_parser("simulate", parents=[common], help="trajectory sampling")
    psim.add_argument("--paired", action="store_true",
                      help="also run the drift-free chain on the same seeds and "
                           "emit a paired-difference summary")
    pconv = sub.add_parser("converge", parents=[common], help="per-level gap reports")
    pconv.add_argument("--path-law-max-level", type=int, default=4,
                       help="cap for the Monte-Carlo path-law levels")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Convert one config value the way argparse converts the flag's text."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if value is None:
        return action.default
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {key!r} needs a number or a string, got {value!r}")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
    if action.choices is not None and converted not in action.choices:
        raise ConfigError(
            f"config key {key!r} must be one of {sorted(action.choices)}, got {value!r}"
        )
    return converted


def apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    if not args.config:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config {args.config} must hold a JSON object")
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = {a.dest: a for a in subparsers.choices[args.mode]._actions}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions or not hasattr(args, dest):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(args, dest, _config_value(actions[dest], key, value))
    return args


# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------

def _input_function(args, tower: tw.LevelTower, level: int) -> np.ndarray:
    spec = args.f
    n = tower.vertex_count(level)
    if spec == "one":
        return np.ones(n)
    if spec in ("x", "y"):
        coords = tower.coordinates(level)
        if coords is None:
            raise ConfigError("coordinate input needs an embedded structure")
        col = 0 if spec == "x" else 1
        if coords.shape[1] <= col:
            raise ConfigError(f"structure has no {spec!r} coordinate")
        return coords[:, col].copy()
    if spec.startswith("indicator:"):
        vid = spec.split(":", 1)[1]
        if not vid.isdecimal() or int(vid) >= n:
            raise ConfigError(f"{spec!r}: level {level} has vertex ids 0..{n - 1}")
        f = np.zeros(n)
        f[int(vid)] = 1.0
        return f
    if spec.startswith("harmonic:"):
        try:
            vals = [float(x) for x in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad boundary values in {spec!r}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"boundary values in {spec!r} must be finite")
        if len(vals) != tower.structure.boundary_size:
            raise ConfigError("harmonic input needs one value per boundary point")
        return harmonic_extension(tower.network(level), vals)
    return read_vertex_function(spec, n)


def _setup(args, levels: list[int] | None = None, proxy_level: int | None = None,
           times: list[float] = (), sampled: bool = False):
    """The run's tower and drift configuration, and the smallness report of
    each level (default: the working level) against one proxy diameter
    (default: ``--reference-level``, else the working level).  Refused
    unbuilt: a level past ``MAX_VERTICES``, a ``sampled`` run whose states
    pass ``MAX_LOG_BYTES``; refused before any diameter: a ``Lambda t`` whose
    lower bound is past ``MAX_LAMBDA_T``; refused: a ``Lambda t`` past
    ``MAX_LAMBDA_T``, a ``simulate`` run whose jump log passes
    ``MAX_LOG_BYTES``.

    Returns ``(tower, config, reports, failed)``: the reports stop at the
    first level that fails the chosen assumption, and ``failed`` lists that
    level's failed conditions (empty when every level passes).
    """
    if args.paths < 0:
        raise ConfigError(f"--paths must be >= 0, got {args.paths}")
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    if proxy_level is None:
        proxy_level = args.reference_level if args.reference_level is not None else args.level
    structure = (build_sierpinski_structure() if args.structure == "sg"
                 else load_structure(args.structure))
    for n in {*(levels or [args.level]), proxy_level}:
        # past level 64 a level has at least 2**64 vertices, unless the
        # gluing makes none fresh and every level has |V0|
        if n >= 0 and vertex_count(structure, min(n, 64)) > MAX_VERTICES:
            raise ConfigError(f"level {n} has more than {MAX_VERTICES} vertices, the ceiling")
    states = args.paths * LOG_OBJECT_BYTES / 2**30
    if sampled and states > MAX_LOG_BYTES / 2**30:
        raise ConfigError(f"--paths {args.paths} needs about {states:.3g} GiB of sampled states, "
                          f"past the ceiling {MAX_LOG_BYTES / 2**30:g} GiB")
    tower = tw.LevelTower(structure)
    config = None if args.drift in ("none", "default") else tw.load_drift_config(args.drift)
    if times:
        # Off the drift's base set V_m every h_i is harmonic, so a row's drift
        # terms sum to 0 there and its holding rate is the drift-free
        # deg / mu.  The largest of those bounds Lambda from below before the
        # diameter or the generator is built; with no drift, every vertex.
        if args.drift == "none":
            base = None
        elif config is None:  # the default drift
            base = 0
        else:
            base = max((m for m, _ in config.h_specs), default=None)
        for n in levels or [args.level]:
            if base is not None and not 0 <= base <= n:
                continue  # realize_drift refuses this base level
            first = 0 if base is None else tower.vertex_count(base)
            rates = (tower.network(n).laplacian().diagonal() / tower.measure(n))[first:]
            lam_t = max(times) * float(rates.max(initial=0.0))
            if lam_t > MAX_LAMBDA_T * (1.0 + 1e-9):
                raise ConfigError(f"--t {max(times):g} gives Lambda t = {lam_t:.3g} or more at "
                                  f"level {n}, past the ceiling {MAX_LAMBDA_T:g}")
    if args.drift == "default":
        config = tw.default_admissible_drift(tower, proxy_level=proxy_level)
    reports: dict[int, dr.SmallnessReport] = {}
    for n in levels or [args.level]:
        reports[n] = tw.constants_for(
            tower, config, n, proxy_level=proxy_level, delta=args.delta
        )
        lam_t = max(times, default=0.0) * float(tower.generator(n, config).q.max())
        if not lam_t <= MAX_LAMBDA_T:
            raise ConfigError(f"--t {max(times):g} gives Lambda t = {lam_t:.3g} at level {n}, "
                              f"past the ceiling {MAX_LAMBDA_T:g}")
        if args.mode == "simulate":
            log = args.paths * (LOG_OBJECT_BYTES * len(times) + LOG_STEP_BYTES * lam_t)
            if log > MAX_LOG_BYTES:
                raise ConfigError(f"--paths {args.paths} and --t {max(times):g} (Lambda t = "
                                  f"{lam_t:.3g}) need about {log / 2**30:.3g} GiB of jumps, "
                                  f"past the ceiling {MAX_LOG_BYTES / 2**30:g} GiB")
        failed = reports[n].failed_conditions(args.assumption)
        if failed:
            return tower, config, reports, failed
    return tower, config, reports, []


def _fail_admissibility(failed) -> int:
    for name, margin in failed:
        print(f"admissibility failure: {name} violated (margin {margin:.6g})",
              file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    """The admissibility report of one level.  The drift is admissible when
    it meets the smallness conditions, its rates are valid and every form
    certificate passes; each failure gets one stderr line, after the report
    is written, and exit code 1."""
    tower, config, reports, failed = _setup(args)
    level = args.level
    report = reports[level]
    payload: dict = {
        "mode": "check",
        "structure": tower.structure.name,
        "level": level,
        "assumption": args.assumption,
        "seed": args.seed,
        "smallness": report.to_dict(),
        "condition_III": {
            "structurally_satisfied": True,
            "note": "finitely ramified: complement components are the level "
                    "cells and their boundaries are level vertices",
            "cell_count": len(tower.complex(level).cell_ids),
            "cell_boundary_size": tower.structure.boundary_size,
        },
        "trace_compatibility_gap": tower.trace_compatibility_gap(),
    }
    gen = tower.generator(level, config)
    rates = mk.validate_rates(gen)
    payload["rate_validation"] = rates.to_dict()
    payload["detailed_balance_gap"] = mk.detailed_balance_gap(gen)
    if not rates.ok:
        failed.append(("rate validation", float(np.min([v for *_, v in rates.violations]))))
    if report.constants is not None:
        c = report.constants
        sandwich = dr.certify_sandwich(gen, c.s, c.lam)
        bound = dr.certify_drift_bound(sandwich)
        axioms = dr.certify_SD_axioms(gen, sandwich, c.delta, report.diam_proxy)
        payload["sandwich"] = sandwich.to_dict()
        payload["drift_bound"] = bound.to_dict()
        payload["sd_axioms"] = axioms.to_dict()
        failed += sandwich.failures() + bound.failures() + axioms.failures()
    payload["admissible"] = not failed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json_report(out / "check_report.json", payload)
    if failed:
        return _fail_admissibility(failed)
    return 0


def _alphas(args, constants) -> list[float]:
    if args.alpha is None:
        return [2.0 * constants.lam]
    alphas = _parse_floats(args.alpha)
    for alpha in alphas:
        if alpha <= constants.lam:
            raise ConfigError(f"alpha {alpha} must exceed lambda {constants.lam:.6g}")
    return alphas


def cmd_resolvent(args) -> int:
    tower, config, reports, failed = _setup(args)
    if failed:
        return _fail_admissibility(failed)
    level = args.level
    constants = reports[level].constants
    gen = tower.generator(level, config)
    f = _input_function(args, tower, level)
    alphas = _one_file_each(_alphas(args, constants), "--alpha")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    solves = []
    for alpha in alphas:
        solve = sp.resolvent_solve(gen, alpha, f)
        write_vertex_function_report(out / f"resolvent_alpha_{alpha:g}.txt", solve.output)
        solves.append({"alpha": alpha, "residual": solve.residual,
                       "sup_norm": float(np.max(np.abs(solve.output)))})
    write_json_report(out / "resolvent_report.json", {
        "mode": "resolvent", "level": level, "f": args.f,
        "lambda": constants.lam, "solves": solves,
    })
    return 0


def cmd_semigroup(args) -> int:
    times = _one_file_each(_parse_floats(args.t), "--t")
    tower, config, _, failed = _setup(args, times=times)
    if failed:
        return _fail_admissibility(failed)
    level = args.level
    gen = tower.generator(level, config)
    f = _input_function(args, tower, level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    applications = []
    for t in times:
        solve = sp.semigroup_solve(gen, t, f)
        write_vertex_function_report(out / f"semigroup_t_{t:g}.txt", solve.output)
        check = sp.markov_check(gen, t, trials=20, seed=args.seed)
        applications.append({
            "t": t,
            "method": solve.method,
            "truncation_order": solve.truncation_order,
            "tail_bound": solve.tail_bound,
            "growth": solve.growth,
            "uniformization_rate": solve.uniformization_rate,
            "markov_check": check.__dict__,
        })
        if solve.krylov is not None:
            applications[-1]["krylov"] = solve.krylov
    write_json_report(out / "semigroup_report.json", {
        "mode": "semigroup", "level": level, "f": args.f,
        "applications": applications,
    })
    return 0


def cmd_simulate(args) -> int:
    times = _parse_floats(args.t)
    if args.paired and args.paths < 2:
        raise ConfigError(f"--paired needs --paths >= 2 for a standard error, got {args.paths}")
    tower, config, _, failed = _setup(args, times=times)
    if failed:
        return _fail_admissibility(failed)
    level = args.level
    gen = tower.generator(level, config)
    init = mk.point_mass(gen.n, 1 if gen.n > 1 else 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    states, *paths = mk.sample_paths(gen, init, times, args.paths, args.seed)
    mk.write_trajectories_jsonl(out / "trajectories.jsonl", *paths, max(times), args.seed, gen.n)
    del paths  # the jumps are written; free them before the grid rows
    # states has one row per time in increasing order; take them in --t order
    in_t_order = np.searchsorted(np.sort(times), times)
    states = states[in_t_order]
    grid_rows = ["path,time,state"]
    grid_rows += [f"{k},{t!r},{s}" for k, column in enumerate(states.T)
                  for t, s in zip(times, column)]
    write_csv_report(out / "trajectory_grid.csv", grid_rows)

    rows = ["time,state,frequency"]
    if args.paths:
        for t, row in zip(times, states):
            law = np.bincount(row, minlength=gen.n) / args.paths
            rows += [f"{t!r},{s},{float(p)!r}" for s, p in enumerate(law)]
    write_csv_report(out / "law_summary.csv", rows)

    payload = {
        "mode": "simulate", "level": level, "paths": args.paths,
        "seed": args.seed, "times": times,
        "rate_validation": mk.validate_rates(gen).to_dict(),
        "detailed_balance_gap": mk.detailed_balance_gap(gen),
    }
    if args.paired:
        gen0 = tower.generator(level, None)
        coords = tower.coordinates(level)
        test_fns = {"one": np.ones(gen.n)}
        if coords is not None:
            test_fns["x"] = coords[:, 0]
            if coords.shape[1] > 1:
                test_fns["y"] = coords[:, 1]
        # the drift-free chain on the same key, so the pair is coupled; the
        # empty drift's chain is the drift-free one: same seed, same states
        plain = states if gen0 is gen else mk.ensemble_states(
            gen0, init, times, args.paths, args.seed)[in_t_order]
        prows = ["time,function,mean_drift,mean_plain,difference,se_difference"]
        for t, s1, s0 in zip(times, states, plain):
            for name, fn in test_fns.items():
                d = fn[s1] - fn[s0]
                se = float(np.std(d, ddof=1) / np.sqrt(len(d)))
                prows.append(
                    f"{t!r},{name},{float(np.mean(fn[s1]))!r},"
                    f"{float(np.mean(fn[s0]))!r},{float(np.mean(d))!r},{se!r}"
                )
        write_csv_report(out / "paired_summary.csv", prows)
        payload["paired"] = True
    write_json_report(out / "simulate_report.json", payload)
    return 0


def cmd_converge(args) -> int:
    times = _parse_floats(args.t)
    alphas = [] if args.alpha is None else _parse_floats(args.alpha)
    # one time and one shift per report: a list is refused, not cut short
    for flag, values in (("--t", times), ("--alpha", alphas)):
        if len(values) > 1:
            dropped = ", ".join(f"{v:g}" for v in values[1:])
            raise ConfigError(f"converge takes one {flag} value; it would drop {dropped}")
    t = times[0]
    levels = _parse_levels(args.levels)
    reference = args.reference_level if args.reference_level is not None else 6
    if reference <= max(levels):
        raise ConfigError(
            f"reference level {reference} must exceed the requested levels"
        )
    if args.paths < 2:
        raise ConfigError(f"converge needs --paths >= 2 for a standard error, got {args.paths}")
    if args.path_law_max_level < 0:
        raise ConfigError(f"--path-law-max-level must be >= 0, got {args.path_law_max_level}")
    pl_levels = [n for n in levels if n <= args.path_law_max_level]
    # Admissibility at every requested level, constants from the reference
    # proxy so all levels share one shift.
    tower, config, reports, failed = _setup(args, levels + [reference], reference, times,
                                            sampled=bool(pl_levels))
    if failed:
        return _fail_admissibility(failed)
    constants = reports[reference].constants
    alpha = _alphas(args, constants)[0]

    sandwiches = {n: dr.certify_sandwich(tower.generator(n, config), constants.s, constants.lam)
                  for n in levels}
    smallest_pass = next((n for n in levels if sandwiches[n].passed), None)

    f = _input_function(args, tower, reference)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ks = cv.ks_norm_check(tower, f, levels, reference)
    write_csv_report(out / "ks_norm.csv", ks.csv_rows())
    resolvent_rep = cv.resolvent_convergence(tower, config, alpha, f, levels, reference)
    write_csv_report(out / "resolvent.csv", resolvent_rep.csv_rows())
    coords = tower.coordinates(reference)  # the test functions: x and y, or 1 unembedded
    test_fns = [np.ones(tower.vertex_count(reference))] if coords is None else [*coords.T[:2]]
    semigroup_rep, path_rep = cv.semigroup_convergence(
        tower, config, t, f, levels, reference, test_fns, pl_levels, args.paths, args.seed)
    write_csv_report(out / "semigroup.csv", semigroup_rep.csv_rows())
    write_csv_report(out / "path_law.csv", path_rep.csv_rows())

    payload = {
        "mode": "converge",
        "levels": levels,
        "reference_level": reference,
        "alpha": alpha,
        "t": t,
        "constants": constants.to_dict(),
        "per_level_drift_energy": {
            n: reports[n].drift_energy for n in levels
        },
        "per_level_sandwich_margins": {
            n: {"lower_margin": sw.lower_margin.to_dict(),
                "upper_margin": sw.upper_margin.to_dict()} for n, sw in sandwiches.items()
        },
        "sandwich_passed_by_level": {n: sw.passed for n, sw in sandwiches.items()},
        "smallest_passing_level": smallest_pass,
        "reports": {
            "ks_norm": {"errors": ks.errors, "trend_from": ks.trend_nonincreasing_from},
            "resolvent_sup": {
                "errors": resolvent_rep.errors,
                "trend_from": resolvent_rep.trend_nonincreasing_from,
            },
            "semigroup_sup": {  # with methods and bounds
                "errors": semigroup_rep.errors,
                "trend_from": semigroup_rep.trend_nonincreasing_from,
                **semigroup_rep.details,
            },
            # with mc, methods and bounds
            "path_law": {"errors": path_rep.errors, "banner": path_rep.banner, **path_rep.details},
        },
    }
    write_json_report(out / "converge_report.json", payload)
    return 0


COMMANDS = {
    "check": cmd_check,
    "resolvent": cmd_resolvent,
    "semigroup": cmd_semigroup,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = apply_config_file(args, parser)
        return COMMANDS[args.mode](args)
    except (ConfigError, StructureError, dr.DriftError, NetworkError, OSError,
            json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except dr.InadmissibleDriftError as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return 1
    except mk.RateValidationError as exc:
        print(f"rate validation failure: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
