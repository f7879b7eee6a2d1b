"""Continuous-time Markov chains attached to the perturbed forms.

The generator has off-diagonal entries ``mu(x)^-1 c_xy (1 + eta(x, y))`` and
a diagonal making every row sum to zero, so duality with the bilinear form
``(-L f, g)_mu = A(f, g)`` holds by construction.  Rates can fail to be
nonnegative for oversized drifts; :func:`validate_rates` lists the offending
edges and all simulation entry points refuse invalid generators rather than
clamping (clamping would silently change the form).

Randomness comes from numpy's counter-based Philox generator.  Trajectory
``k`` of a run seeded with ``seed`` uses the key ``(seed, k)``, so paths are
reproducible and independent without coordination; the vectorized ensemble
sampler uses the key ``(seed, 2**63)``.
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
    def jump_tables(self) -> tuple[np.ndarray, list, list]:
        """Holding rates, and per state the sorted neighbours with the
        cumulative jump probabilities, for the path samplers."""
        q, pi = jump_parameters(self)
        pi.sort_indices()
        rows = pi.indptr[1:-1]
        return q, np.split(pi.indices, rows), [np.cumsum(p) for p in np.split(pi.data, rows)]


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

    def holding_times(self) -> np.ndarray:
        """Completed holding intervals (the censored last one is dropped)."""
        return np.diff(self.jump_times)

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


def simulate(
    gen: GeneratorMatrix,
    initial,
    horizon: float,
    seed: int,
    index: int = 0,
) -> Trajectory:
    """Sample one path by the jump-chain construction.

    Holding times are exponential with the state's rate, the next state is
    drawn from the jump kernel, and the path stops at the horizon.  The
    result is a deterministic function of ``(gen, initial, horizon, seed,
    index)``.
    """
    p0 = _check_initial(initial, gen.n)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    q, neighbors, cumulative = gen.jump_tables
    rng = _philox(seed, index)
    x = int(rng.choice(gen.n, p=p0))
    times, states = [0.0], [x]
    t = 0.0
    if horizon > 0:
        while True:
            t += rng.exponential(1.0 / q[x])
            if t >= horizon:
                break
            u = rng.random()
            k = int(np.searchsorted(cumulative[x], u * cumulative[x][-1]))
            x = int(neighbors[x][min(k, len(neighbors[x]) - 1)])
            times.append(t)
            states.append(x)
    return Trajectory(np.array(times), np.array(states), horizon, seed, index, gen.n)


def simulate_batch(
    gen: GeneratorMatrix,
    initial,
    horizon: float,
    n_paths: int,
    seed: int,
) -> list[Trajectory]:
    """Independent trajectories; path ``k`` uses the substream ``(seed, k)``."""
    return [simulate(gen, initial, horizon, seed, index=k) for k in range(n_paths)]


def empirical_law(trajectories: Sequence[Trajectory], t: float) -> np.ndarray:
    """Occupancy frequencies of the paths at time ``t`` (right-continuous)."""
    if not trajectories:
        raise ValueError("no trajectories")
    n = trajectories[0].n_states
    counts = np.zeros(n)
    for traj in trajectories:
        counts[traj.state_at(t)] += 1.0
    return counts / len(trajectories)


def ensemble_states(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """States of ``n_paths`` independent chains at the given times.

    Vectorized jump-chain sampler: between recording times the exponential
    clocks are restarted, which leaves the law of the process unchanged
    (memorylessness).  Returns an ``(len(times), n_paths)`` array.
    """
    p0 = _check_initial(initial, gen.n)
    times = np.asarray(sorted(float(t) for t in times))
    if times.size and times[0] < 0:
        raise ValueError("times must be >= 0")
    q, neighbors, cumulative = gen.jump_tables
    rng = _philox(seed, ENSEMBLE_STREAM)
    state = rng.choice(gen.n, size=n_paths, p=p0).astype(np.int64)
    now = np.zeros(n_paths)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    for row, t_rec in enumerate(times):
        active = now < t_rec
        while np.any(active):
            idx = np.flatnonzero(active)
            hold = rng.exponential(1.0, size=idx.size) / q[state[idx]]
            t_new = now[idx] + hold
            crossed = t_new >= t_rec
            now[idx[crossed]] = t_rec
            jump_idx = idx[~crossed]
            now[jump_idx] = t_new[~crossed]
            if jump_idx.size:
                u = rng.random(jump_idx.size)
                js = state[jump_idx]
                for s in np.unique(js):
                    sel = jump_idx[js == s]
                    cum = cumulative[s]
                    k = np.searchsorted(cum, u[js == s] * cum[-1])
                    state[sel] = neighbors[s][np.minimum(k, len(neighbors[s]) - 1)]
            active = now < t_rec
        out[row] = state
    return out


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
