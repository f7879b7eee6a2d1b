"""Resolvents and semigroups of the chain generators.

The resolvent solves ``(alpha I - L) u = f`` directly, by the level-by-level
elimination of :mod:`driftform.resistance` over the level's nested sets; in
weighted-inner-product terms this is exactly the characterizing identity
``A_alpha(u, v) = (f, v)_mu`` for every test vector ``v``, and the residual
of that identity is attached to every solve (a singular pivot block gives a
NaN solution, which fails it).

Semigroups run on the uniformized operator: with ``Lam`` the largest
holding rate and ``tau = Lam t``, ``P = I + L / Lam`` is stochastic and
``exp(tL) f = exp(tau (P - I)) f = sum_k c_k T_k(P) f``, a Chebyshev series
with ``c_0 = e^-tau I_0(tau)``, ``c_k = 2 e^-tau I_k(tau)`` and
``T_{k+1} = 2 P T_k - T_{k-1}`` (Tal-Ezer & Kosloff 1984).  The Bessel
ratios ``I_{k+1} / I_k`` come from Miller's backward recurrence (Gautschi,
SIAM Review 9, 1967) and ``c_0`` from ``sum_k c_k = 1``, so neither series
needs ``scipy.special``.  The series stops at the least degree ``K`` whose
coefficient tail ``sum_{j>K} |c_j|`` is at most ``SERIES_TAIL``; ``K``
grows like ``sqrt(tau)``, where uniformization (the Poisson-weighted sum of
``P^k f``) needs about ``tau`` products.

The series converges for a spectrum in ``[-1, 1]``.  Without drift ``P`` is
self-adjoint in the ``mu``-weighted inner product, every ``||T_k(P)||`` is at
most 1 in that norm and the tail bounds the error.  A drift can move
eigenvalues off the interval, where ``T_k(P) f`` grows geometrically, so
every evaluation tracks the growth ``max_k ||T_k(P) f||_inf / ||f||_inf``
and reports the tail times the growth as its error bound (an empirical
guard).  When the growth passes ``GROWTH_LIMIT`` the same call recomputes
the result by uniformization and reports ``method = "uniformization"``; it
never falls back silently.  The Chebyshev sum has terms of both signs, so
positivity no longer holds by construction: :func:`markov_check` tests the
numerics as well as the model.

``f`` may be one vector or an ``(n, k)`` block of columns; a block runs one
series for all columns and one method for the whole block.  A block that
stays on the Chebyshev series equals its columns evaluated one by one, and
:func:`markov_check` evaluates all of its trials as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# RateValidationError and validate_rates stay importable from this module.
from .markov import GeneratorMatrix, RateValidationError, _philox, validate_rates  # noqa: F401
from .resistance import _eliminate, _solve

SERIES_TAIL = 1e-13  # truncation tolerance of both series
RESIDUAL_TOL = 1e-9
MARKOV_TOL = 1e-10  # round-off a Markov check allows outside [0, 1]
# Largest growth max_k ||T_k(P) f||_inf / ||f||_inf the Chebyshev series
# accepts; past it the call falls back to uniformization.
GROWTH_LIMIT = 10.0
CHEBYSHEV = "chebyshev"
UNIFORMIZATION = "uniformization"


@dataclass
class ResolventSolve:
    alpha: float
    output: np.ndarray
    residual: float


@dataclass
class SemigroupApply:
    t: float
    output: np.ndarray
    truncation_order: int  # Chebyshev degree or Poisson order, per ``method``
    uniformization_rate: float
    method: str  # CHEBYSHEV or UNIFORMIZATION
    tail_bound: float  # relative sup-norm truncation error bound
    growth: float  # observed Chebyshev growth max_k ||T_k(P) f|| / ||f||


def resolvent_solve(gen: GeneratorMatrix, alpha: float, f) -> ResolventSolve:
    """Solve ``(alpha I - L) u = f`` and record the weighted residual
    ``max_x |A_alpha(u, 1_x) - (f, 1_x)_mu|``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    fv = np.asarray(f, dtype=float)
    if fv.shape != (gen.n,):
        raise ValueError(f"input has shape {fv.shape}, expected ({gen.n},)")
    if not np.all(np.isfinite(fv)):
        raise ValueError("input values must be finite")
    system = (alpha * sparse.identity(gen.n) - gen.L).tocsr()
    counts = gen.net.counts if gen.net is not None else ()
    try:
        u = _solve(*_eliminate(system, [*counts, gen.n]), fv)
    except np.linalg.LinAlgError:  # a singular pivot block: no solution, fails below
        u = np.full(gen.n, np.nan)
    residual = float(np.max(np.abs(gen.mu * (system @ u - fv))))
    # fails closed: a NaN residual does not pass
    if not residual <= RESIDUAL_TOL * max(1.0, float(np.max(np.abs(fv)))):
        raise ArithmeticError(
            f"resolvent solve residual {residual:.3g} exceeds tolerance"
        )
    return ResolventSolve(alpha, u, residual)


def resolvent(gen: GeneratorMatrix, alpha: float, f) -> np.ndarray:
    """Resolvent applied to ``f``; see :func:`resolvent_solve`."""
    return resolvent_solve(gen, alpha, f).output


def _bessel_ratios(tau: float, count: int) -> np.ndarray:
    """``I_{k+1}(tau) / I_k(tau)`` for ``k = 0 .. count - 1``, by the backward
    recurrence ``r_{k-1} = tau / (2k + tau r_k)`` started from ``r = 0`` about
    ``4 sqrt(tau) + 40`` indices above ``count``, where the start's error has
    died out (Gautschi 1967).  A plain float loop: it is sequential."""
    top = count + int(4.0 * np.sqrt(tau)) + 40
    r = [0.0] * top
    rk = 0.0
    for k in range(top, 0, -1):
        rk = tau / (2 * k + tau * rk)
        r[k - 1] = rk
    return np.array(r[:count])


def _chebyshev_coefficients(tau: float) -> tuple[np.ndarray, float]:
    """Coefficients ``c_0 .. c_K`` of ``exp(tau (x - 1))`` on ``[-1, 1]`` and
    their tail ``sum_{j>K} c_j``, with ``K`` the least degree whose tail is
    at most ``SERIES_TAIL``."""
    if tau == 0.0:
        return np.ones(1), 0.0
    m = int(np.sqrt(80.0 * tau)) + 40
    while True:
        scaled = np.cumprod(_bessel_ratios(tau, m))  # I_k / I_0 for k = 1 .. m
        # I_{k+1}(tau) / I_k(tau) <= r_k = tau / (k + 1/2 + sqrt((k + 1/2)^2 + tau^2))
        # with r_k decreasing (Amos, Math. Comp. 28, 1974), so the terms past
        # m sum to at most c_m r_m / (1 - r_m).
        r = tau / (m + 0.5 + np.hypot(m + 0.5, tau))
        rest = 2.0 * scaled[-1] * r / (1.0 - r)
        # e^-tau (I_0 + 2 sum_k I_k) = 1 gives c_0 = e^-tau I_0
        c0 = 1.0 / (1.0 + 2.0 * scaled.sum() + rest)
        rest *= c0
        if rest <= SERIES_TAIL * 1e-3:
            break
        m *= 2
    c = np.concatenate(([c0], 2.0 * c0 * scaled))
    tails = np.append(np.cumsum(c[::-1])[-2::-1], 0.0) + rest
    degree = int(np.argmax(tails <= SERIES_TAIL))
    return c[: degree + 1], float(tails[degree])


def _chebyshev_series(P, tau: float, f: np.ndarray) -> tuple[np.ndarray | None, int, float, float]:
    """``exp(tau (P - I)) f`` by the Chebyshev series of ``P``.

    Returns ``(sum, degree, coefficient tail, growth)``, with ``growth`` the
    largest ``||T_k(P) f_j||_inf / ||f_j||_inf`` over the degrees and the
    columns so far.  The recurrence stops as soon as the growth passes
    ``GROWTH_LIMIT``, and the sum is then ``None``.
    """
    c, tail = _chebyshev_coefficients(tau)
    if len(c) == 1:
        return c[0] * f, 0, tail, 1.0
    # Each column runs scaled to unit sup norm, so the growth is the largest
    # entry of the block; a zero column stays zero.
    scale = np.abs(f).max(axis=0, initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    f = f / scale
    # 2P T_k - T_{k-1} with 2P formed once; doubling is exact, so the terms
    # equal those of 2 (P T_k) - T_{k-1}
    P2 = P * 2.0
    acc = c[0] * f
    tmp = np.empty_like(acc)
    growth = 1.0
    prev, cur = f, P @ f
    for k in range(1, len(c)):
        if k > 1:
            nxt = P2 @ cur
            nxt -= prev
            prev, cur = cur, nxt
        growth = max(growth, float(cur.max(initial=0.0)), -float(cur.min(initial=0.0)))
        if growth > GROWTH_LIMIT:
            return None, len(c) - 1, tail, growth
        np.multiply(cur, c[k], out=tmp)
        acc += tmp
    acc *= scale
    return acc, len(c) - 1, tail, growth


def _poisson_weights(mu_t: float) -> tuple[np.ndarray, float]:
    """Poisson(``mu_t``) probabilities of ``0 .. order`` and the tail mass
    past ``order``, with ``order`` one past the least ``k`` whose tail mass
    ``P(N > k)`` is at most ``SERIES_TAIL``.

    The weights are ``exp`` of the summed log-ratios ``log(mu_t / j)`` out
    from the mode, normalized to total mass 1; the mass past the last
    index ``top`` is at most ``p_top rho / (1 - rho)`` with
    ``rho = mu_t / (top + 1)``, since ``p_{j+1} / p_j = mu_t / (j + 1)``."""
    mode, width = int(mu_t), int(10.0 * np.sqrt(mu_t)) + 40
    while True:
        top = mode + width
        step = np.log(mu_t / np.arange(1.0, top + 1))  # log(p_j / p_{j-1})
        log_q = np.zeros(top + 1)
        log_q[mode + 1:] = np.cumsum(step[mode:])
        log_q[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
        q = np.exp(log_q)
        rho = mu_t / (top + 1)
        rest = q[-1] * rho / (1.0 - rho)
        total = q.sum() + rest
        p = q / total
        # tails[k] = P(N > k)
        tails = np.append(np.cumsum(p[:0:-1])[::-1], 0.0) + rest / total
        below = np.flatnonzero(tails[:-1] <= SERIES_TAIL)
        if below.size:
            break
        width *= 2
    order = int(below[0]) + 1
    return p[: order + 1], float(tails[order])


def _poisson_series(P, mu_t: float, f: np.ndarray) -> tuple[np.ndarray, int, float]:
    """``exp(mu_t (P - I)) f`` by uniformization, the Poisson-weighted sum of
    ``P^k f`` (see :func:`_poisson_weights`).  Returns ``(sum, order, tail
    mass past order)``; the tail mass bounds the relative sup-norm error,
    since ``P`` is stochastic."""
    if mu_t == 0.0:
        return f.copy(), 0, 0.0
    weights, tail = _poisson_weights(mu_t)
    acc = weights[0] * f
    v = f
    for w in weights[1:]:
        v = P @ v
        # Weights that underflow to exactly zero (the far left tail) add
        # nothing; the powers of P still advance.
        if w != 0.0:
            acc += w * v
    return acc, len(weights) - 1, tail


def semigroup_solve(gen: GeneratorMatrix, t: float, f, transpose: bool = False) -> SemigroupApply:
    """Evaluate ``exp(tL) f`` (``exp(tL^T) f`` with ``transpose``) for an
    ``(n,)`` vector or an ``(n, k)`` block of columns ``f``: by the
    Chebyshev series of ``P``, or by uniformization when the series grows
    past ``GROWTH_LIMIT``; the result names its method and certificate."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    fv = np.asarray(f, dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != gen.n:
        raise ValueError(f"input has shape {fv.shape}, expected ({gen.n},) or ({gen.n}, k)")
    if not np.all(np.isfinite(fv)):
        raise ValueError("input values must be finite")
    P, lam_max = gen.uniformized
    if transpose:
        P = gen.uniformized_transpose
    tau = lam_max * t
    out, degree, tail, growth = _chebyshev_series(P, tau, fv)
    if out is not None:
        return SemigroupApply(t, out, degree, lam_max, CHEBYSHEV, tail * growth, growth)
    out, order, tail = _poisson_series(P, tau, fv)
    return SemigroupApply(t, out, order, lam_max, UNIFORMIZATION, tail, growth)


@dataclass
class MarkovCheckReport:
    t: float
    trials: int
    seed: int
    min_value: float
    max_value: float
    positivity_min: float
    ok: bool
    method: str


def markov_check(
    gen: GeneratorMatrix, t: float, trials: int = 100, seed: int = 7
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
    solve = semigroup_solve(gen, t, np.column_stack(columns))
    out = solve.output
    lo, hi = float(out[:, 0::2].min()), float(out[:, 0::2].max())
    pos = float(out[:, 1::2].min())
    ok = lo >= -MARKOV_TOL and hi <= 1.0 + MARKOV_TOL and pos >= -MARKOV_TOL
    return MarkovCheckReport(t, trials, seed, lo, hi, pos, bool(ok), solve.method)
