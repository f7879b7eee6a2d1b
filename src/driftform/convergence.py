"""Multi-level convergence diagnostics.

Vertex ids of coarse levels are nested in fine ones, so restriction is a
prefix slice and every level can be compared against a fixed reference
level in the sup norm.  The reference level stands in for the (uncomputable)
limit objects; reports list the per-level gaps and flag from which level on
the sequence is non-increasing.  No convergence *rates* are asserted —
only the observed trends are recorded.

Path-law comparisons use time marginals of test-function expectations
rather than path-space topologies; this weakening is stated in every report
banner.  Their exact values ``E[g(X_t)] = (T_t g)(x0)`` come from the same
forward semigroup block as the semigroup report: one block per level.
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
        return ["level,error"] + [f"{lvl},{err!r}" for lvl, err in zip(self.levels, self.errors)]


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
    errors = _per_level_outputs(tower, drift_cfg, levels, reference,
                                lambda gen, f: spectral_mod.resolvent(gen, alpha, f), f_ref)
    return ConvergenceReport(list(levels), errors).finalize_trend()


def semigroup_convergence(
    tower: LevelTower,
    drift_cfg: DriftConfig | None,
    t: float,
    f_ref: np.ndarray,
    levels: Sequence[int],
    reference: int,
    test_functions: Sequence[np.ndarray] = (),
    path_law_levels: Sequence[int] = (),
    paths: int = 10_000,
    seed: int = 0,
) -> tuple[ConvergenceReport, ConvergenceReport]:
    """The semigroup's sup-norm gaps at one time and the path law's
    Monte-Carlo gaps, from one forward block ``[f | test functions]`` per
    level, each distinct column solved once: the test functions ride only at
    the ``path_law_levels`` (some of ``levels``) and then at the reference.
    Column 0 is compared with the restricted reference; row
    ``INITIAL_VERTEX`` of the rest holds the exact means
    ``E[g(X_t)] = (T_t g)(x0)``.  ``paths`` chains from ``x0`` give
    each path-law level's Monte-Carlo means, cross-checked against its exact
    means; its error is the largest gap to an exact reference mean.  Each
    report's ``details`` name the ``methods`` and ``bounds`` (``tail_bound``)
    of the blocks its values come from.
    """
    fs = [np.asarray(g, dtype=float) for g in test_functions]
    if path_law_levels and not (fs and paths >= 2 and set(path_law_levels) <= set(levels)):
        raise ValueError(f"a path law needs a test function, 2 paths and levels among "
                         f"{list(levels)}; got {len(fs)}, {paths} and {list(path_law_levels)}")
    with_law = {*path_law_levels, reference} if path_law_levels else set()
    solves, outputs = {}, {}

    def apply(gen: markov_mod.GeneratorMatrix, f: np.ndarray) -> np.ndarray:
        block = [f, *(g[: gen.n] for g in fs)] if gen.level in with_law else [f]
        # each column solved once, by its bytes: f may be a test function
        distinct = {col.tobytes(): col for col in block}
        where = [list(distinct).index(col.tobytes()) for col in block]
        solves[gen.level] = spectral_mod.semigroup_solve(
            gen, t, np.column_stack(list(distinct.values())))
        outputs[gen.level] = solves[gen.level].output[:, where]
        return outputs[gen.level][:, 0]

    errors = _per_level_outputs(tower, drift_cfg, levels, reference, apply, f_ref)
    ref_means = outputs[reference][INITIAL_VERTEX, 1:].tolist()
    law_errors, mc_table = [], {}
    for n in path_law_levels:
        gen = tower.generator(n, drift_cfg)
        init = markov_mod.point_mass(gen.n, INITIAL_VERTEX)
        states = markov_mod.ensemble_states(gen, init, [t], paths, seed)[0]
        rows = mc_table[n] = []
        for g, exact, ref_val in zip(fs, outputs[n][INITIAL_VERTEX, 1:].tolist(), ref_means):
            samples = g[: gen.n][states]
            mean = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / np.sqrt(paths))
            rows.append({"mc_mean": mean, "mc_se": se, "exact": exact,
                         "mc_vs_exact": abs(mean - exact), "reference_exact": ref_val})
        law_errors.append(max(abs(row["mc_mean"] - row["reference_exact"]) for row in rows))

    def details(kept) -> dict:
        return {"methods": {n: s.method for n, s in solves.items() if n in kept},
                "bounds": {n: s.tail_bound for n, s in solves.items() if n in kept}}

    return (ConvergenceReport(list(levels), errors, details=details(solves)).finalize_trend(),
            ConvergenceReport(list(path_law_levels), law_errors, banner=PATH_LAW_BANNER,
                              details={"mc": mc_table, **details(with_law)}).finalize_trend())
