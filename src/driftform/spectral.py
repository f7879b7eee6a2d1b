"""Resolvents and semigroups of the chain generators.

The resolvent solves ``(alpha I - L) u = f`` directly; in weighted-inner-
product terms this is exactly the characterizing identity
``A_alpha(u, v) = (f, v)_mu`` for every test vector ``v``, and the residual
of that identity is attached to every solve.

Semigroups are computed by uniformization: with ``Lam`` the largest holding
rate, ``P = I + L / Lam`` is a stochastic matrix and ``exp(tL) f`` is the
Poisson-weighted sum of ``P^k f``.  The method is positivity preserving by
construction for validated generators, so the Markov-property checks probe
the model rather than the numerics.  The Poisson tail is truncated below
``POISSON_TAIL``.  ``f`` may be one vector or an ``(n, k)`` block of
columns; a block runs one series for all columns, with results equal to
the column-by-column ones, and :func:`markov_check` evaluates all of its
trials as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.stats import poisson

# RateValidationError and validate_rates stay importable from this module.
from .markov import GeneratorMatrix, RateValidationError, _philox, validate_rates  # noqa: F401
from .resistance import DENSE_CUTOFF

POISSON_TAIL = 1e-12
RESIDUAL_TOL = 1e-9


@dataclass
class ResolventSolve:
    alpha: float
    input: np.ndarray
    output: np.ndarray
    residual: float


@dataclass
class SemigroupApply:
    t: float
    input: np.ndarray
    output: np.ndarray
    truncation_order: int
    uniformization_rate: float


def resolvent_solve(gen: GeneratorMatrix, alpha: float, f) -> ResolventSolve:
    """Solve ``(alpha I - L) u = f`` and record the weighted residual
    ``max_x |A_alpha(u, 1_x) - (f, 1_x)_mu|``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    fv = np.asarray(f, dtype=float)
    if fv.shape != (gen.n,):
        raise ValueError(f"input has shape {fv.shape}, expected ({gen.n},)")
    system = (alpha * sparse.identity(gen.n) - gen.L).tocsr()
    if gen.n < DENSE_CUTOFF:
        u = np.linalg.solve(system.toarray(), fv)
    else:
        u = splu(system.tocsc()).solve(fv)
    residual = float(np.max(np.abs(gen.mu * (system @ u - fv))))
    if residual > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(fv)))):
        raise ArithmeticError(
            f"resolvent solve residual {residual:.3g} exceeds tolerance"
        )
    return ResolventSolve(alpha, fv, u, residual)


def resolvent(gen: GeneratorMatrix, alpha: float, f) -> np.ndarray:
    """Resolvent applied to ``f``; see :func:`resolvent_solve`."""
    return resolvent_solve(gen, alpha, f).output


def _poisson_series(P, mu_t: float, f: np.ndarray) -> tuple[np.ndarray, int]:
    if mu_t == 0.0:
        return f.copy(), 0
    order = int(poisson.isf(POISSON_TAIL / 10.0, mu_t)) + 1
    weights = poisson.pmf(np.arange(order + 1), mu_t)
    acc = weights[0] * f
    v = f
    for w in weights[1:]:
        v = P @ v
        # Weights that underflow to exactly zero (the far left tail) add
        # nothing; the powers of P still advance.
        if w != 0.0:
            acc += w * v
    return acc, order


def semigroup_solve(gen: GeneratorMatrix, t: float, f) -> SemigroupApply:
    """Evaluate ``exp(tL) f`` by uniformization with certified truncation,
    for an ``(n,)`` vector or an ``(n, k)`` block of columns ``f``."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    fv = np.asarray(f, dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != gen.n:
        raise ValueError(f"input has shape {fv.shape}, expected ({gen.n},) or ({gen.n}, k)")
    P, lam_max = gen.uniformized
    out, order = _poisson_series(P, lam_max * t, fv)
    return SemigroupApply(t, fv, out, order, lam_max)


def semigroup_apply(gen: GeneratorMatrix, t: float, f) -> np.ndarray:
    """Semigroup applied to ``f``; see :func:`semigroup_solve`."""
    return semigroup_solve(gen, t, f).output


@dataclass
class MarkovCheckReport:
    t: float
    trials: int
    seed: int
    min_value: float
    max_value: float
    positivity_min: float
    ok: bool


def markov_check(
    gen: GeneratorMatrix, t: float, trials: int = 100, seed: int = 7, tol: float = 1e-10
) -> MarkovCheckReport:
    """For random ``0 <= f <= 1`` assert ``0 <= T_t f <= 1`` (within round-off),
    and positivity ``f >= 0 => T_t f >= 0``.  Each trial draws a uniform, then
    an exponential column; all ``2 * trials`` columns run as one block."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = _philox(seed, 2)
    columns = []
    for _ in range(trials):
        columns.append(rng.random(gen.n))
        columns.append(rng.exponential(1.0, gen.n))
    out = semigroup_apply(gen, t, np.column_stack(columns))
    lo, hi = float(out[:, 0::2].min()), float(out[:, 0::2].max())
    pos = float(out[:, 1::2].min())
    ok = lo >= -tol and hi <= 1.0 + tol and pos >= -tol
    return MarkovCheckReport(t, trials, seed, lo, hi, pos, bool(ok))


@dataclass
class GrowthCheckPoint:
    t: float
    norm_estimate: float
    bound: float
    ok: bool


def contraction_growth_check(
    gen: GeneratorMatrix,
    lam: float,
    t_grid,
    iters: int = 50,
    seed: int = 11,
    tol: float = 1e-8,
) -> list[GrowthCheckPoint]:
    """Estimate the weighted operator norm of the semigroup by power
    iteration and compare against ``exp(lam * t)``.

    The estimate is a reproducible lower bound on the true norm, adequate
    for checking an upper bound.
    """
    mu = gen.mu
    out = []
    for t in t_grid:
        rng = _philox(seed, 3)
        v = rng.standard_normal(gen.n)
        v /= np.sqrt(np.sum(mu * v * v))
        estimate = 0.0
        for _ in range(iters):
            u = semigroup_apply(gen, t, v)
            estimate = float(np.sqrt(np.sum(mu * u * u)))
            if estimate == 0.0:
                break
            w = _poisson_series(gen.uniformized_transpose, gen.uniformized[1] * t, mu * u)[0] / mu
            nw = np.sqrt(np.sum(mu * w * w))
            if nw == 0.0:
                break
            v = w / nw
        bound = float(np.exp(lam * t))
        out.append(GrowthCheckPoint(float(t), estimate, bound, bool(estimate <= bound * (1 + tol))))
    return out
