"""Continuous-time Markov chains attached to the perturbed forms.

The generator has off-diagonal entries ``mu(x)^-1 c_xy (1 + eta(x, y))`` and
a diagonal making every row sum to zero, so duality with the bilinear form
``(-L f, g)_mu = A(f, g)`` holds by construction; a :class:`GeneratorMatrix`
also carries the matrices of ``A = E + Q``, so one object per level and
drift serves the chain and the form checks alike.  Rates can fail to be
nonnegative for oversized drifts; :func:`validate_rates` lists the offending
edges and all simulation entry points refuse invalid generators rather than
clamping (clamping would silently change the form).

Both samplers, :func:`ensemble_states` (states at fixed times) and
:func:`sample_paths` (full paths as :class:`Trajectory` objects), run one
vectorized jump-chain engine over a block of chains.  Randomness comes from
numpy's counter-based Philox generator with the key ``(seed, 2**63)``; path
``k`` is column ``k`` of the block, and equal arguments give equal paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .drift import DriftSpec, eta_edge_values
from .resistance import ConductanceNetwork

ENSEMBLE_STREAM = 2**63


class RateValidationError(ValueError):
    """The generator is not a valid jump-chain generator."""


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class GeneratorMatrix:
    """Generator ``L`` of one level under one drift, with the forms it
    generates: ``(-L f, g)_mu = A(f, g)`` with ``A = E + Q``.

    ``edge_rows``/``edge_cols``/``edge_eta`` give the drift edge weights
    ``eta`` over the ordered conductance pattern (zero for the empty drift); the
    rates, the sign certificates and the drift matrix are all derived from
    them.  ``E_matrix`` and ``Q_matrix`` are built on first use.
    """

    L: sparse.csr_matrix
    mu: np.ndarray
    level: int
    edge_rows: np.ndarray
    edge_cols: np.ndarray
    edge_eta: np.ndarray
    net: ConductanceNetwork | None = None
    drift: DriftSpec | None = None

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def q(self) -> np.ndarray:
        """Holding rates ``-diag(L)``."""
        return -self.L.diagonal()

    @property
    def edge_factor(self) -> np.ndarray:
        """The rate factors ``1 + eta`` of the ordered edges."""
        return 1.0 + self.edge_eta

    @cached_property
    def E_matrix(self) -> sparse.csr_matrix:
        """Matrix of the energy ``E(f, g) = g @ E @ f``: the network Laplacian."""
        return self.net.laplacian()

    @cached_property
    def Q_matrix(self) -> sparse.csr_matrix:
        """Matrix of the drift form in the convention ``Q(f, g) = g @ Q @ f``.

        Row index is the test-function (``g``) vertex, column index the input
        (``f``) vertex.  The form vanishes for constant ``f`` by construction.
        """
        weighted = self.net.c.tocoo().data * self.edge_eta
        shape = (self.n, self.n)
        off = sparse.coo_matrix((-weighted, (self.edge_rows, self.edge_cols)), shape=shape)
        diag = np.bincount(self.edge_rows, weights=weighted, minlength=self.n)
        return (off + sparse.diags(diag)).tocsr()

    def rates_valid(self) -> bool:
        return bool(self.edge_factor.size == 0 or self.edge_factor.min() >= 0.0)

    # Derived operators, built once per generator; a failed rate validation
    # is not cached and raises on every access.
    @cached_property
    def uniformized(self) -> tuple[sparse.csr_matrix, float]:
        """``(P, Lam)`` with ``Lam`` the largest holding rate and
        ``P = I + L / Lam`` stochastic (``(I, 0)`` without jumps)."""
        if not self.rates_valid():
            bad = int(np.count_nonzero(self.edge_factor < 0.0))
            raise RateValidationError(f"invalid rates on {bad} edges; semigroup evaluation refused")
        lam_max = float(np.max(self.q)) if self.n else 0.0
        if lam_max <= 0:
            return sparse.identity(self.n, format="csr"), 0.0
        return (sparse.identity(self.n) + self.L / lam_max).tocsr(), lam_max

    @cached_property
    def uniformized_transpose(self) -> sparse.csr_matrix:
        return self.uniformized[0].T.tocsr()

    @cached_property
    def jump_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tables of the path sampler: the holding rates; the
        ``n x max_degree`` table of sorted neighbours; the cumulative jump
        probabilities as ``max_degree - 1`` contiguous columns, column ``j``
        holding each state's probability of jumping to one of its first
        ``j + 1`` neighbours (``+inf`` past its degree); and each state's
        total jump probability.  The last column is left out: a uniform
        scaled by the total stays below it."""
        q, pi = jump_parameters(self)
        pi.sort_indices()
        degree = np.diff(pi.indptr)
        rows = np.repeat(np.arange(self.n), degree)
        cols = np.arange(pi.nnz) - pi.indptr[rows]
        shape = (self.n, int(degree.max()))
        neighbors = np.zeros(shape, dtype=np.int64)
        neighbors[rows, cols] = pi.indices
        probabilities = np.zeros(shape)
        probabilities[rows, cols] = pi.data
        cumulative = np.cumsum(probabilities, axis=1)
        total = cumulative[np.arange(self.n), degree - 1]
        cumulative[np.arange(shape[1]) >= degree[:, None]] = np.inf
        return q, neighbors, np.ascontiguousarray(cumulative[:, :-1].T), total


def build_generator(
    net: ConductanceNetwork,
    drift: DriftSpec,
    mu: np.ndarray,
    level: int,
) -> GeneratorMatrix:
    """Generator of the chain: jump rate ``mu(x)^-1 c_xy (1 + eta(x, y))``
    from ``x`` to ``y``, diagonal the negative row sum (rows sum to zero
    exactly).  The edge weights ``eta`` are computed here, once."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (net.n,):
        raise ValueError("measure must assign one weight per vertex")
    if np.any(mu <= 0):
        raise ValueError("measure weights must be positive")
    if drift.b.shape[1] != net.n:
        raise ValueError("drift level does not match network")
    coo = net.c.tocoo()
    eta = eta_edge_values(net, drift)
    rates = coo.data * (1.0 + eta) / mu[coo.row]
    off = sparse.coo_matrix((rates, (coo.row, coo.col)), shape=(net.n, net.n))
    diag = np.bincount(coo.row, weights=rates, minlength=net.n)
    L = (off - sparse.diags(diag)).tocsr()
    return GeneratorMatrix(L, mu, level, coo.row.copy(), coo.col.copy(), eta, net, drift)


@dataclass
class RateValidationReport:
    level: int
    violations: list[tuple[int, int, float]]  # (x, y, 1 + eta) with negative factor

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "ok": self.ok,
            "violations": [
                {"x": x, "y": y, "one_plus_eta": v} for x, y, v in self.violations
            ],
        }


def validate_rates(gen: GeneratorMatrix) -> RateValidationReport:
    """List every ordered edge whose rate factor ``1 + eta`` is negative.

    An empty list is exactly the condition for ``gen`` to generate a CTMC.
    """
    bad = np.flatnonzero(gen.edge_factor < 0.0)
    violations = [
        (int(gen.edge_rows[k]), int(gen.edge_cols[k]), float(gen.edge_factor[k]))
        for k in bad
    ]
    violations.sort()
    return RateValidationReport(gen.level, violations)


def jump_parameters(gen: GeneratorMatrix) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Holding rates ``q(x) = -L(x, x)`` and the row-stochastic jump kernel
    ``pi(x, y) = L(x, y) / q(x)``.

    Requires valid rates and no absorbing vertex.
    """
    report = validate_rates(gen)
    if not report.ok:
        raise RateValidationError(
            f"{len(report.violations)} edges have negative rates; "
            f"first: {report.violations[0]}"
        )
    q = gen.q
    if np.any(q <= 0):
        raise RateValidationError("absorbing vertex: some holding rate is zero")
    off = gen.L.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    pi = sparse.diags(1.0 / q) @ off
    return q, pi.tocsr()


@dataclass
class Trajectory:
    """One sampled path: piecewise-constant, right-continuous."""

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float
    seed: int
    index: int
    n_states: int

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.int64)
        if len(self.jump_times) != len(self.states):
            raise ValueError("one state per jump time required")
        if len(self.jump_times) == 0 or self.jump_times[0] != 0.0:
            raise ValueError("trajectories start at time 0")
        if np.any(np.diff(self.jump_times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if self.jump_times[-1] > self.horizon:
            raise ValueError("jump beyond the horizon")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "horizon": self.horizon,
            "n_states": self.n_states,
            "times": self.jump_times.tolist(),
            "states": self.states.tolist(),
        }


def _check_initial(initial, n: int) -> np.ndarray:
    p = np.asarray(initial, dtype=float)
    if p.shape != (n,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    return p


def point_mass(n: int, x: int) -> np.ndarray:
    p = np.zeros(n)
    p[x] = 1.0
    return p


def _jump_chains(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
    on_round: Callable | None = None,
) -> np.ndarray:
    """Gillespie's jump-chain construction on a block of chains.

    Each round draws the holding times of the paths still short of the next
    recording time, then the uniforms of the paths that jump before it.  At
    a recording time the clocks restart, which leaves the law unchanged
    (memorylessness).  The running paths are kept compacted, as arrays of
    path indices, clocks and states in ascending path order; a path that
    reaches the recording time leaves them and its state is written back.
    Returns the ``(len(times), n_paths)`` states at the sorted times.

    ``on_round(paths, clocks, states)``, if given, sees the start (every
    path at clock 0) and then each round: the paths that jumped in it (at
    most once each, ascending), their jump times and their new states.  The
    arrays are the engine's own and may change in later rounds; the callback
    copies what it keeps.
    """
    p0 = _check_initial(initial, gen.n)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    times = np.sort(times)
    if times.size and times[0] < 0:
        raise ValueError("times must be >= 0")
    q, neighbors, cumulative, total = gen.jump_tables
    flat, width = neighbors.ravel(), neighbors.shape[1]  # a 1-D gather is cheaper
    count_type = np.min_scalar_type(len(cumulative))
    rng = _philox(seed, ENSEMBLE_STREAM)
    state = rng.choice(gen.n, size=n_paths, p=p0).astype(np.int64)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    if on_round is not None:
        on_round(np.arange(n_paths), np.zeros(n_paths), state)
    start = 0.0  # every clock stands here between recording times
    for row, t_rec in enumerate(times):
        if t_rec > start:
            paths, clock, cur = np.arange(n_paths), np.full(n_paths, start), state.copy()
            start = t_rec
            while paths.size:
                clock += rng.standard_exponential(paths.size) / q[cur]
                jumps = clock < t_rec
                if not jumps.all():
                    ended = ~jumps
                    state[paths[ended]] = cur[ended]
                    paths, clock, cur = paths[jumps], clock[jumps], cur[jumps]
                v = rng.random(paths.size) * total[cur]
                # searchsorted(side="left") in the state's row, as a count
                counts = np.zeros(paths.size, dtype=count_type)
                for column in cumulative:
                    counts += column[cur] < v
                cur = flat[cur * width + counts]
                if on_round is not None:
                    on_round(paths, clock, cur)
        out[row] = state
    return out


def ensemble_states(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """States of ``n_paths`` independent chains at the given times, as an
    ``(len(times), n_paths)`` array with rows in increasing time order;
    path ``k`` is column ``k``."""
    return _jump_chains(gen, initial, times, n_paths, seed)


def sample_paths(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
) -> tuple[np.ndarray, list[Trajectory]]:
    """Full paths up to the largest of ``times``, with their states at
    ``times``.

    Returns the states exactly as :func:`ensemble_states` gives them for the
    same arguments, and one :class:`Trajectory` per column.  One engine run
    logs each round with 32-bit path and state indices; the rounds are then
    placed path by path in two flat arrays, each dropped from the log once
    placed, so the log is gone before the trajectories are built.
    """
    log = []

    def record(paths, clocks, states):
        log.append((paths.astype(np.int32), clocks.copy(), states.astype(np.int32)))

    states = _jump_chains(gen, initial, times, n_paths, seed, record)
    counts = np.bincount(np.concatenate([paths for paths, _, _ in log]), minlength=n_paths)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    cursor = bounds[:-1].copy()
    jump_times, jump_states = np.empty(bounds[-1]), np.empty(bounds[-1], dtype=np.int64)
    # a path jumps at most once a round, so the rounds in order keep each
    # path's jumps in time order
    log.reverse()
    while log:
        paths, t, s = log.pop()
        at = cursor[paths]
        jump_times[at], jump_states[at] = t, s
        cursor[paths] = at + 1
    horizon = float(max(times, default=0.0))
    trajectories = [
        Trajectory(jump_times[a:b], jump_states[a:b], horizon, seed, k, gen.n)
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    return states, trajectories


def detailed_balance_gap(gen: GeneratorMatrix) -> float:
    """Largest violation of ``mu(x) L(x, y) = mu(y) L(y, x)``.

    Zero exactly when the chain is reversible (no drift); positive values
    witness the non-symmetry introduced by the drift.
    """
    m = sparse.diags(gen.mu) @ gen.L
    gap = abs(m - m.T)
    return float(gap.max()) if gap.nnz else 0.0


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

def write_trajectories_jsonl(trajectories: Sequence[Trajectory], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(json.dumps(traj.to_dict(), sort_keys=True) + "\n")
