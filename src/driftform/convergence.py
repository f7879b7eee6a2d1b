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
INITIAL_VERTEX = 1  # the path-law chains start here, a vertex of every level >= 1
TREND_SLACK = 1e-12  # relative and absolute round-off allowed in a non-increasing trend


@dataclass
class ConvergenceReport:
    levels: list[int]
    errors: list[float]
    trend_nonincreasing_from: int | None = None
    banner: str = ""
    details: dict = field(default_factory=dict)

    def finalize_trend(self) -> "ConvergenceReport":
        """Set the first level from which the errors are non-increasing."""
        e, i = self.errors, len(self.errors)
        while i > 1 and e[i - 1] <= e[i - 2] * (1 + TREND_SLACK) + TREND_SLACK:
            i -= 1
        self.trend_nonincreasing_from = self.levels[i - 1] if e else None
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
        fn = f_ref[: tower.vertex_count(n)]
        norm_n = float(np.sqrt(np.sum(tower.measure(n) * fn**2)))
        errors.append(abs(norm_n - ref_norm))
    return ConvergenceReport(list(levels), errors).finalize_trend()


def _per_level_outputs(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    levels: Sequence[int],
    reference: int,
    apply_fn: Callable,
    f_ref: np.ndarray,
) -> list[float]:
    f_ref = np.asarray(f_ref, dtype=float)
    def output_at(n: int) -> np.ndarray:
        gen = tower.generator(n, drift_cfg)
        return apply_fn(gen, f_ref[: gen.n])

    ref_out = output_at(reference)
    return [float(np.max(np.abs(out - ref_out[: len(out)]))) for out in map(output_at, levels)]


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
    errors = _per_level_outputs(
        tower, drift_cfg, levels, reference,
        lambda gen, f: spectral_mod.resolvent(gen, alpha, f),
        f_ref,
    )
    return ConvergenceReport(list(levels), errors).finalize_trend()


def semigroup_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    t: float,
    f_ref: np.ndarray,
    levels: Sequence[int],
    reference: int,
) -> ConvergenceReport:
    """Same comparison for the semigroup at one time; ``details["methods"]``
    names the semigroup method of each level's one series, the reference
    included."""
    methods = {}

    def apply(gen: markov_mod.GeneratorMatrix, f: np.ndarray) -> np.ndarray:
        solve = spectral_mod.semigroup_solve(gen, t, f)
        methods[gen.level] = solve.method
        return solve.output

    errors = _per_level_outputs(tower, drift_cfg, levels, reference, apply, f_ref)
    return ConvergenceReport(list(levels), errors, details={"methods": methods}).finalize_trend()


def path_law_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    t: float,
    test_functions: Sequence[np.ndarray],
    levels: Sequence[int],
    reference: int,
    paths: int = 10_000,
    seed: int = 0,
) -> ConvergenceReport:
    """Monte-Carlo expectations of test functions at one time, per level,
    against the exact reference-level value.

    Test functions are given on the reference level; the chains start at a
    common coarse vertex present in every level.  Each level's law at time
    ``t``, ``p_t = exp(t L^T) delta_x0``, comes from one transpose series,
    and every exact value is ``p_t . f``.  Every Monte-Carlo mean is
    cross-checked against the same level's exact value, and the reported
    error is the gap to the exact reference value, maximized over test
    functions.  ``details["methods"]`` names the semigroup method of each
    level's law.
    """
    fs = [np.asarray(f, dtype=float) for f in test_functions]
    if not fs:
        raise ValueError("need at least one test function")
    if paths < 2:
        raise ValueError(f"need at least 2 paths for a standard error, got {paths}")

    methods = {}

    def law(gen: markov_mod.GeneratorMatrix) -> np.ndarray:
        start = markov_mod.point_mass(gen.n, INITIAL_VERTEX)
        solve = spectral_mod.semigroup_solve(gen, t, start, transpose=True)
        methods[gen.level] = solve.method
        return solve.output

    if levels:  # with no level sampled, no reference law is needed
        ref_law = law(tower.generator(reference, drift_cfg))
        ref_means = [float(ref_law @ f[: len(ref_law)]) for f in fs]

    errors, mc_table = [], {}
    for n in levels:
        gen = tower.generator(n, drift_cfg)
        init = markov_mod.point_mass(gen.n, INITIAL_VERTEX)
        states = markov_mod.ensemble_states(gen, init, [t], paths, seed)[0]
        p_t = law(gen)
        rows, worst = [], 0.0
        for f, ref_val in zip(fs, ref_means):
            samples = f[: gen.n][states]
            mean = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / np.sqrt(paths))
            exact = float(p_t @ f[: gen.n])
            rows.append(
                {"mc_mean": mean, "mc_se": se, "exact": exact,
                 "mc_vs_exact": abs(mean - exact), "reference_exact": ref_val}
            )
            worst = max(worst, abs(mean - ref_val))
        mc_table[n] = rows
        errors.append(worst)
    return ConvergenceReport(
        list(levels), errors, banner=PATH_LAW_BANNER,
        details={"mc": mc_table, "methods": methods},
    ).finalize_trend()
