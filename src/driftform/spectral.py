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

The series' degree grows about 2.2x per level.  From ``Lam t =
KRYLOV_MIN_TAU`` on, a semigroup runs instead a short Chebyshev start to
``s0 = KRYLOV_START t``, then shift-and-invert Krylov on ``(I - gamma L)^-1``,
factored once by the elimination (:func:`_krylov`; van den Eshof &
Hochbruck, *SISC* 27, 2006).  Its error bound is the integral of the
Krylov residual's sup norm, which covers the error because ``exp(sL)`` is
stochastic (Botchev, Grimm & Hochbruck, *SISC* 35, 2013), plus the start's
tail.  It reports ``method = "krylov"``, a ``krylov`` certificate (the
dimension, ``gamma``, ``s0``, the bound and the start's degree) and as
``truncation_order`` the start's degree plus the dimension.  A bound past
``KRYLOV_TOL``, or a failed Krylov step, falls back to the series, and the
result's ``krylov`` names the reason.

``f`` may be one vector or an ``(n, k)`` block of columns; a block runs one
series for all columns and one method for the whole block (Krylov: one
factorization for the block, one Krylov space per column).  A block that
stays on the Chebyshev series equals its columns evaluated one by one.
:func:`markov_check` runs all of its trials as one block, and
:func:`driftform.convergence.semigroup_convergence` one block per level (a
law's means ``p_t . g`` are its ``(exp(tL) g)(x0)``: every bound is sup-norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# RateValidationError and validate_rates stay importable from this module.
from .markov import GeneratorMatrix, RateValidationError, _philox, validate_rates  # noqa: F401
from .resistance import _arnoldi, _eliminate, _solve

SERIES_TAIL = 1e-13  # truncation tolerance of both series
RESIDUAL_TOL = 1e-9
MARKOV_TOL = 1e-10  # round-off a Markov check allows outside [0, 1]
# Largest growth max_k ||T_k(P) f||_inf / ||f||_inf the Chebyshev series
# accepts; past it the call falls back to uniformization.
GROWTH_LIMIT = 10.0
CHEBYSHEV = "chebyshev"
UNIFORMIZATION = "uniformization"
KRYLOV = "krylov"
# Shift-and-invert Krylov (_krylov) from Lam t = KRYLOV_MIN_TAU on; below
# it the series is cheaper.  The series takes about 7.4 sqrt(Lam t) sparse
# products at every level, Krylov one factorization and 16 to 64 solves
# whatever t is, so the crossover is a degree of the series.  Measured on
# SG L5-L9, default drift, t = 0.001-1 (best of two, 2 cores), Krylov time
# over series time: `--f x` 1.6 at degree 511 (L7) and 0.72 at 1141 (L8);
# 40 random columns 1.45 at 1254 (L6), 0.75 at 1397 (L9) and 0.52 at 1616
# (L7).  KRYLOV_MIN_TAU sits at degree 1290.
KRYLOV_MIN_TAU = 3e4
# s0 / t: the series start, whose cost grows as sqrt(s0).  From t/300, a
# point mass or random columns at t <= 0.01 missed KRYLOV_TOL by dimension
# 48 on SG L6-L10; from t/100 they need at most 56.
KRYLOV_START = 0.01
KRYLOV_SHIFT = 0.1  # gamma / (t - s0)
KRYLOV_CHECK = 8  # the bound is evaluated every KRYLOV_CHECK steps ...
KRYLOV_DIMENSION = 64  # ... up to this dimension
KRYLOV_TOL = 1e-8  # largest relative bound accepted; past it the series runs
GAUSS_NODES = 20  # Gauss-Legendre nodes of the residual integral


@dataclass
class ResolventSolve:
    alpha: float
    output: np.ndarray
    residual: float


@dataclass
class SemigroupApply:
    t: float
    output: np.ndarray
    # Chebyshev degree or Poisson order, per ``method``; for KRYLOV the
    # start's Chebyshev degree plus the largest Krylov dimension (one
    # elimination solve per dimension)
    truncation_order: int
    uniformization_rate: float
    method: str  # CHEBYSHEV, UNIFORMIZATION or KRYLOV
    tail_bound: float  # relative error bound in the sup norm
    growth: float  # observed Chebyshev growth max_k ||T_k(P) f|| / ||f||, of the start for KRYLOV
    # the Krylov certificate (dimension, gamma, s0, bound, start_degree), also
    # of an attempt that fell back to the series, with its reason; else None
    krylov: dict | None = None


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


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp`` of each matrix of a stack ``(..., m, m)``: the [13/13] Pade
    approximant after scaling every matrix by one power of two, then as
    many squarings (Higham, *SIAM J. Matrix Anal. Appl.* 26, 2005)."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm else 0
    a = a / 2.0**squarings
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        e = e @ e
    return e


def _krylov(gen: GeneratorMatrix, t: float, f: np.ndarray) -> SemigroupApply:
    """``exp(tL) f`` by shift-and-invert Krylov with a Chebyshev start, and
    its error bound.

    1. The Chebyshev series of ``P`` to ``s0 = KRYLOV_START t`` damps the
       fast modes, whose residual would swamp the bound near time 0.
    2. Arnoldi (:func:`driftform.resistance._arnoldi`) on ``(I - gamma L)^-1``
       from each column ``u`` of the start, ``gamma = KRYLOV_SHIFT (t - s0)``,
       factored once for the block by :func:`driftform.resistance._eliminate`
       (van den Eshof & Hochbruck, *SISC* 27, 2006).  With the basis ``V``
       and ``L_m = (I - H^-1) / gamma``, ``exp(sL) u ~ V y(s)`` with
       ``y(s) = |u| exp(s L_m) e_1`` (:func:`_expm`).
    3. The error at ``t - s0`` is ``int_0^{t-s0} exp((t-s0-s)L) r(s) ds``
       with the residual ``r(s) = (L V - V L_m) y(s)``, and
       ``exp(sL)`` is stochastic, so the error is at most ``int ||r(s)|| ds``
       in the sup norm (Botchev, Grimm & Hochbruck, *SISC* 35, 2013).  A
       ``GAUSS_NODES``-point Gauss-Legendre rule evaluates the integral; the
       rule itself is not a bound.

    The bound is evaluated every ``KRYLOV_CHECK`` steps from ``2
    KRYLOV_CHECK``, and Arnoldi stops at the first check where it is at
    most ``KRYLOV_TOL`` less the start's error, or at ``KRYLOV_DIMENSION``.
    The reported bound, relative to each column's sup norm, is the integral
    plus the start's error, its series tail times its growth: the series'
    empirical guard.  A start whose growth passes ``GROWTH_LIMIT`` raises
    ``ArithmeticError``.
    """
    P, lam_max = gen.uniformized
    L = gen.L
    s0 = KRYLOV_START * t
    start, degree, tail, growth = _chebyshev_series(P, lam_max * s0, f)
    if start is None:
        raise ArithmeticError(f"the start's series grew past {GROWTH_LIMIT:g}")
    start_error = tail * growth
    span = t - s0
    gamma = KRYLOV_SHIFT * span
    counts = gen.net.counts if gen.net is not None else ()
    factors = _eliminate((sparse.identity(gen.n) - gamma * L).tocsr(), [*counts, gen.n])
    # Gauss-Legendre nodes and weights from the Jacobi matrix (Golub & Welsch 1969)
    k = np.arange(1.0, GAUSS_NODES)
    x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * vectors[0] ** 2
    times, weights = np.append(0.5 * span * (x + 1.0), span), 0.5 * span * w

    def certificate(basis, h):
        """``(V y(t - s0), int ||r(s)|| ds, m)`` of the first ``m = h.shape[1]``
        rows; ``r(s) = L V y(s) - V L_m y(s)`` node by node, in ``O(n)`` memory."""
        m = h.shape[1]
        v = basis[:m]
        l_m = (np.eye(m) - np.linalg.inv(h[:m])) / gamma
        # y(s) at each time, a few at a time to bound the memory of the stack
        y = beta * np.concatenate([_expm(chunk[:, None, None] * l_m)[:, :, 0]
                                   for chunk in np.array_split(times, 7)])
        r = [np.abs(L @ (y_s @ v) - (l_m @ y_s) @ v).max() for y_s in y[:-1]]
        return y[-1] @ v, float(weights @ r), m

    columns = start.reshape(gen.n, -1)
    scales = np.abs(f.reshape(gen.n, -1)).max(axis=0)
    out, bound, dimension = np.zeros_like(columns), 0.0, 0
    for j, (u, scale) in enumerate(zip(columns.T, scales)):
        beta = float(np.linalg.norm(u))
        if not beta:
            continue
        found = []  # the certificate of each check

        def accepted(basis, h):
            if h.shape[1] % KRYLOV_CHECK or h.shape[1] < 2 * KRYLOV_CHECK:
                return False
            found.append(certificate(basis, h))
            return found[-1][1] <= (KRYLOV_TOL - start_error) * scale

        basis, h = _arnoldi(lambda z: _solve(*factors, z), u, KRYLOV_DIMENSION, stop=accepted)
        if not found or found[-1][2] != h.shape[1]:  # the last step, or a breakdown
            found.append(certificate(basis, h))
        out[:, j], integral, m = found[-1]
        bound, dimension = max(bound, integral / scale), max(dimension, m)
    info = {"dimension": dimension, "gamma": gamma, "s0": s0, "bound": bound,
            "start_degree": degree}
    return SemigroupApply(t, out.reshape(f.shape), degree + dimension, lam_max, KRYLOV,
                          bound + start_error, growth, info)


def semigroup_solve(gen: GeneratorMatrix, t: float, f) -> SemigroupApply:
    """Evaluate ``exp(tL) f`` for an ``(n,)`` vector or an ``(n, k)`` block
    of columns ``f``: by
    shift-and-invert Krylov (:func:`_krylov`) from ``Lam t = KRYLOV_MIN_TAU``
    on, else, or when its bound passes ``KRYLOV_TOL``, by the
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
    tau = lam_max * t
    fallback = None
    if tau >= KRYLOV_MIN_TAU and fv.size:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                attempt = _krylov(gen, t, fv)
            if attempt.tail_bound <= KRYLOV_TOL:
                return attempt
            reason = f"Krylov bound {attempt.tail_bound:.3g} above {KRYLOV_TOL:g}"
            fallback = {**attempt.krylov, "fallback": reason}
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            fallback = {"fallback": f"Krylov failed: {exc}"}
    out, degree, tail, growth = _chebyshev_series(P, tau, fv)
    if out is not None:
        return SemigroupApply(t, out, degree, lam_max, CHEBYSHEV, tail * growth, growth, fallback)
    out, order, tail = _poisson_series(P, tau, fv)
    return SemigroupApply(t, out, order, lam_max, UNIFORMIZATION, tail, growth, fallback)


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
