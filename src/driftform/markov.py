"""Continuous-time Markov chains attached to the perturbed forms.

The generator has off-diagonal entries ``mu(x)^-1 c_xy (1 + eta(x, y))`` and
a diagonal making every row sum to zero, so duality with the bilinear form
``(-L f, g)_mu = A(f, g)`` holds by construction.  Rates can fail to be
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
from typing import Sequence

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
    """Generator ``L`` with its reference weights and edge diagnostics.

    ``edge_rows``/``edge_cols``/``edge_factor`` give ``1 + eta`` over the
    ordered conductance pattern (the sign certificates for the rates).
    """

    L: sparse.csr_matrix
    mu: np.ndarray
    level: int
    edge_rows: np.ndarray
    edge_cols: np.ndarray
    edge_factor: np.ndarray
    net: ConductanceNetwork | None = None

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def q(self) -> np.ndarray:
        """Holding rates ``-diag(L)``."""
        return -self.L.diagonal()

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
        """Holding rates, the ``n x max_degree`` tables of sorted neighbours
        and of cumulative jump probabilities (padded with ``+inf``), and
        each state's total jump probability, for the path sampler."""
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
        return q, neighbors, cumulative, total


def build_generator(
    net: ConductanceNetwork,
    drift: DriftSpec | None,
    mu: np.ndarray,
    level: int | None = None,
) -> GeneratorMatrix:
    """Generator of the chain: jump rate ``mu(x)^-1 c_xy (1 + eta(x, y))``
    from ``x`` to ``y``, diagonal the negative row sum (rows sum to zero
    exactly)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (net.n,):
        raise ValueError("measure must assign one weight per vertex")
    if np.any(mu <= 0):
        raise ValueError("measure weights must be positive")
    coo = net.c.tocoo()
    if drift is None or drift.is_zero():
        factor = np.ones_like(coo.data)
    else:
        if drift.n_vertices != net.n:
            raise ValueError("drift level does not match network")
        _, _, ev = eta_edge_values(net, drift)
        factor = 1.0 + ev
    rates = coo.data * factor / mu[coo.row]
    off = sparse.coo_matrix((rates, (coo.row, coo.col)), shape=(net.n, net.n))
    diag = np.bincount(coo.row, weights=rates, minlength=net.n)
    L = (off - sparse.diags(diag)).tocsr()
    lvl = level if level is not None else (drift.level if drift else -1)
    return GeneratorMatrix(L, mu, lvl, coo.row.copy(), coo.col.copy(), factor, net=net)


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

    def state_at(self, t: float) -> int:
        """State at time ``t``, holding the value over ``[jump_k, jump_k+1)``."""
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        k = int(np.searchsorted(self.jump_times, t, side="right")) - 1
        return int(self.states[k])

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "horizon": self.horizon,
            "n_states": self.n_states,
            "times": self.jump_times.tolist(),
            "states": self.states.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        return cls(
            np.array(d["times"], dtype=float),
            np.array(d["states"], dtype=np.int64),
            float(d["horizon"]),
            int(d["seed"]),
            int(d["index"]),
            int(d["n_states"]),
        )


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
    log_jumps: bool,
) -> tuple[np.ndarray, list | None]:
    """Gillespie's jump-chain construction on a block of chains.

    Each round draws the holding times of the paths still short of the next
    recording time, then the uniforms of the paths that jump before it.  At
    a recording time the clocks restart, which leaves the law unchanged
    (memorylessness).  Returns the ``(len(times), n_paths)`` states at the
    sorted times and, if ``log_jumps``, the ``(paths, jump times, new
    states)`` of each round, the start first.
    """
    p0 = _check_initial(initial, gen.n)
    times = np.sort(np.asarray(times, dtype=float))
    if times.size and times[0] < 0:
        raise ValueError("times must be >= 0")
    q, neighbors, cumulative, total = gen.jump_tables
    rng = _philox(seed, ENSEMBLE_STREAM)
    state = rng.choice(gen.n, size=n_paths, p=p0).astype(np.int64)
    now = np.zeros(n_paths)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    log = [(np.arange(n_paths), now.copy(), state.copy())] if log_jumps else None
    for row, t_rec in enumerate(times):
        idx = np.flatnonzero(now < t_rec)
        while idx.size:
            t_new = now[idx] + rng.exponential(1.0, size=idx.size) / q[state[idx]]
            jumps = t_new < t_rec
            now[idx] = np.where(jumps, t_new, t_rec)
            idx = idx[jumps]
            s = state[idx]
            v = rng.random(idx.size) * total[s]
            # searchsorted(side="left") row by row; the count stays below the
            # degree because v <= total
            state[idx] = neighbors[s, np.count_nonzero(cumulative[s] < v[:, None], axis=1)]
            if log is not None:
                log.append((idx, now[idx], state[idx]))
        out[row] = state
    return out, log


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
    return _jump_chains(gen, initial, times, n_paths, seed, log_jumps=False)[0]


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
    same arguments, and one :class:`Trajectory` per column.
    """
    states, log = _jump_chains(gen, initial, times, n_paths, seed, log_jumps=True)
    # lay the rounds out path by path; a path jumps at most once a round
    counts = np.bincount(np.concatenate([paths for paths, _, _ in log]), minlength=n_paths)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    cursor = bounds[:-1].copy()
    jump_times, jump_states = np.empty(bounds[-1]), np.empty(bounds[-1], dtype=np.int64)
    for paths, t, s in log:
        jump_times[cursor[paths]], jump_states[cursor[paths]] = t, s
        cursor[paths] += 1
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


def read_trajectories_jsonl(path) -> list[Trajectory]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Trajectory.from_dict(json.loads(line)))
    return out
