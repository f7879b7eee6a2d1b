"""Multi-level convergence diagnostics.

Vertex ids of coarse levels are nested in fine ones, so restriction is a
prefix slice and every level can be compared against a fixed reference
level in the sup norm.  The reference level stands in for the (uncomputable)
limit objects; reports list the per-level gaps and flag from which level on
the sequence is non-increasing.  No convergence *rates* are asserted —
only the observed trends are recorded.

Path-law comparisons use time marginals of test-function expectations
rather than path-space topologies; this weakening is stated in every report
banner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import markov as markov_mod
from . import spectral as spectral_mod
from .tower import DriftConfig, LevelTower

PATH_LAW_BANNER = (
    "path-law comparison uses fixed-time test-function expectations, not "
    "path-space convergence"
)


@dataclass(frozen=True)
class RestrictionMap:
    """Restriction of fine-level vertex functions to a coarser level."""

    source_level: int
    target_level: int
    target_size: int

    def __call__(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape[0] < self.target_size:
            raise ValueError("function lives on fewer vertices than the target level")
        return f[: self.target_size]


def restriction(tower: LevelTower, source: int, target: int) -> RestrictionMap:
    if target > source:
        raise ValueError(f"target level {target} is finer than source {source}")
    return RestrictionMap(source, target, tower.vertex_count(target))


@dataclass
class ConvergenceReport:
    quantity: str  # ks_norm | resolvent_sup | semigroup_sup | path_law
    levels: list[int]
    errors: list[float]
    reference_level: int
    trend_nonincreasing_from: int | None = None
    banner: str = ""
    details: dict = field(default_factory=dict)

    def finalize_trend(self, rel_slack: float = 1e-12) -> "ConvergenceReport":
        start = None
        for i in range(len(self.errors)):
            tail = self.errors[i:]
            ok = all(
                tail[k + 1] <= tail[k] * (1 + rel_slack) + rel_slack
                for k in range(len(tail) - 1)
            )
            if ok:
                start = self.levels[i]
                break
        self.trend_nonincreasing_from = start
        return self

    def csv_rows(self) -> list[str]:
        rows = ["level,error"]
        rows += [f"{lvl},{err!r}" for lvl, err in zip(self.levels, self.errors)]
        return rows


def ks_norm_check(
    tower: LevelTower,
    f_ref: np.ndarray,
    levels: Sequence[int],
    reference: int,
) -> ConvergenceReport:
    """Gap between the weighted norm of the restricted function and the
    reference-level norm, per level."""
    f_ref = np.asarray(f_ref, dtype=float)
    ref_norm = float(np.sqrt(np.sum(tower.measure(reference) * f_ref**2)))
    errors = []
    for n in levels:
        fn = restriction(tower, reference, n)(f_ref)
        norm_n = float(np.sqrt(np.sum(tower.measure(n) * fn**2)))
        errors.append(abs(norm_n - ref_norm))
    return ConvergenceReport(
        "ks_norm", list(levels), errors, reference,
        details={"reference_norm": ref_norm},
    ).finalize_trend()


def _per_level_outputs(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    levels: Sequence[int],
    reference: int,
    apply_fn: Callable,
    f_ref: np.ndarray,
) -> tuple[list[float], dict]:
    f_ref = np.asarray(f_ref, dtype=float)
    def output_at(n: int) -> np.ndarray:
        gen = tower.generator(n, drift_cfg)
        return apply_fn(gen, restriction(tower, reference, n)(f_ref))

    ref_out = output_at(reference)
    errors, details = [], {"per_level_sup": {}}
    for n in levels:
        out_n = output_at(n)
        gap = float(np.max(np.abs(out_n - restriction(tower, reference, n)(ref_out))))
        errors.append(gap)
        details["per_level_sup"][n] = gap
    return errors, details


def resolvent_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    alpha: float,
    f_ref: np.ndarray,
    levels: Sequence[int],
    reference: int,
) -> ConvergenceReport:
    """Sup-norm gaps between per-level resolvents and the restricted
    reference resolvent, for one input function given on the reference
    level."""
    errors, details = _per_level_outputs(
        tower, drift_cfg, levels, reference,
        lambda gen, f: spectral_mod.resolvent(gen, alpha, f),
        f_ref,
    )
    details["alpha"] = alpha
    return ConvergenceReport(
        "resolvent_sup", list(levels), errors, reference, details=details
    ).finalize_trend()


def semigroup_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    t: float,
    f_ref: np.ndarray,
    levels: Sequence[int],
    reference: int,
) -> ConvergenceReport:
    """Same comparison for the semigroup at one time."""
    errors, details = _per_level_outputs(
        tower, drift_cfg, levels, reference,
        lambda gen, f: spectral_mod.semigroup_apply(gen, t, f),
        f_ref,
    )
    details["t"] = t
    return ConvergenceReport(
        "semigroup_sup", list(levels), errors, reference, details=details
    ).finalize_trend()


def path_law_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    t: float,
    test_functions: Sequence[np.ndarray],
    levels: Sequence[int],
    reference: int,
    paths: int = 10_000,
    seed: int = 0,
    initial_vertex: int = 1,
) -> ConvergenceReport:
    """Monte-Carlo expectations of test functions at one time, per level,
    against the exact reference-level value.

    Test functions are given on the reference level; the chains start at a
    common coarse vertex present in every level.  Every Monte-Carlo mean is
    cross-checked against the same level's exact semigroup value, and the
    reported error is the gap to the exact reference value, maximized over
    test functions.
    """
    fs = [np.asarray(f, dtype=float) for f in test_functions]
    if not fs:
        raise ValueError("need at least one test function")
    if paths < 2:
        raise ValueError(f"need at least 2 paths for a standard error, got {paths}")

    def exact_mean(gen: markov_mod.GeneratorMatrix, n: int, f: np.ndarray) -> float:
        fn = restriction(tower, reference, n)(f)
        return float(spectral_mod.semigroup_apply(gen, t, fn)[initial_vertex])

    ref_gen = tower.generator(reference, drift_cfg)
    ref_means = [exact_mean(ref_gen, reference, f) for f in fs]

    errors, mc_table = [], {}
    for n in levels:
        gen = tower.generator(n, drift_cfg)
        init = markov_mod.point_mass(gen.n, initial_vertex)
        states = markov_mod.ensemble_states(gen, init, [t], paths, seed)[0]
        rows, worst = [], 0.0
        for f, ref_val in zip(fs, ref_means):
            samples = restriction(tower, reference, n)(f)[states]
            mean = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / np.sqrt(paths))
            exact = exact_mean(gen, n, f)
            rows.append(
                {"mc_mean": mean, "mc_se": se, "exact": exact,
                 "mc_vs_exact": abs(mean - exact), "reference_exact": ref_val}
            )
            worst = max(worst, abs(mean - ref_val))
        mc_table[n] = rows
        errors.append(worst)
    return ConvergenceReport(
        "path_law", list(levels), errors, reference,
        banner=PATH_LAW_BANNER,
        details={"t": t, "paths": paths, "seed": seed,
                 "initial_vertex": initial_vertex, "mc": mc_table},
    ).finalize_trend()


def energy_monotonicity_profile(
    tower: LevelTower,
    f_ref: np.ndarray,
    levels: Sequence[int],
    slack: float = 1e-10,
) -> dict:
    """Per-level energies of the restricted function; the sequence must be
    non-decreasing for a compatible trace tower."""
    f_ref = np.asarray(f_ref, dtype=float)
    values = []
    for n in levels:
        fn = f_ref[: tower.vertex_count(n)]
        asm = tower.assembly(n, None)
        values.append(float(fn @ (asm.E_matrix @ fn)))
    diffs = np.diff(values)
    scale = max(1.0, max(abs(v) for v in values))
    nondecreasing = bool(np.all(diffs >= -slack * scale))
    return {
        "levels": list(levels),
        "energies": values,
        "nondecreasing": nondecreasing,
        "slack": slack,
    }
