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
:func:`sample_paths` (full paths as flat arrays), run one
uniformized engine over a block of chains (Jensen 1953): between recording
times each path makes ``N ~ Poisson(Lam dt)`` steps of ``P = I + L / Lam``,
``Lam`` the largest holding rate, and a step that stays put is no jump.
The paths are ordered by ``N``, so the paths still stepping are a prefix.
Each step takes its target from one ``DIGIT_BITS``-bit digit of a raw
Philox word through a per-state guide table (Marsaglia, Tsang & Wang 2004);
a digit whose bin straddles a boundary of the row's cumulative
probabilities is completed by a fresh uniform, so every step is the exact
inverse CDF of its row.  Initial states, step counts, digits and those
uniforms come from numpy's counter-based Philox generator with the key
``(seed, 2**63)``; the event times of full paths come from the key
``(seed, 2**63 + 1)``, so both samplers give the same states.  Path ``k``
is column ``k`` of the block, and equal arguments give equal paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .drift import DriftSpec, eta_edge_values
from .resistance import ConductanceNetwork

ENSEMBLE_STREAM = 2**63  # initial states, step counts, digits, straddle uniforms
EVENT_TIME_STREAM = 2**63 + 1  # event times of full paths
DIGIT_BITS = 8  # one step per digit, 64 // DIGIT_BITS steps per Philox word
BINS = 1 << DIGIT_BITS
_DIGITS = 64 // DIGIT_BITS


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

    @property
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

    # Derived operators, built once per generator; a failed rate validation
    # is not cached and raises on every access.
    @cached_property
    def uniformized(self) -> tuple[sparse.csr_matrix, float]:
        """``(P, Lam)`` with ``Lam`` the largest holding rate and
        ``P = I + L / Lam`` stochastic (``(I, 0)`` without jumps)."""
        _require_valid_rates(self)
        lam_max = float(np.max(self.q)) if self.n else 0.0
        if lam_max <= 0:
            return sparse.identity(self.n, format="csr"), 0.0
        return (sparse.identity(self.n) + self.L / lam_max).tocsr(), lam_max

    @cached_property
    def event_tables(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Tables of the path sampler: ``(Lam, guide, bounds, targets)``.

        Row ``x`` of ``P = I + L / Lam`` (its nonzero entries in column
        order, the self-loop included) is cut at its cumulative sums, scaled
        to end at ``BINS``; the last cut is left out, so a point ``v`` in
        ``[0, BINS]`` selects entry ``#{cuts <= v}``.  ``targets[x]`` holds
        the entries' columns times ``BINS`` and ``bounds[:, x]`` the cuts,
        padded with ``+inf``.  ``guide[x * BINS + b]`` is the target of the
        points of the bin ``[b, b + 1)`` when no cut falls strictly inside
        it, and ``~(x * BINS + b)`` (negative) when one does.  Requires
        valid rates and no absorbing vertex."""
        P, lam = self.uniformized
        if np.any(self.q <= 0):
            raise RateValidationError("absorbing vertex: some holding rate is zero")
        P = P.copy()
        P.eliminate_zeros()
        P.sort_indices()
        n, degree = self.n, np.diff(P.indptr)
        rows = np.repeat(np.arange(n), degree)
        cols = np.arange(P.nnz) - P.indptr[rows]
        targets = np.zeros((n, int(degree.max())), dtype=np.int64)
        targets[rows, cols] = P.indices * BINS
        sums = np.zeros(targets.shape)
        sums[rows, cols] = P.data
        sums = np.cumsum(sums, axis=1)
        sums *= (BINS / sums[np.arange(n), degree - 1])[:, None]
        bounds = np.ascontiguousarray(sums.T[:-1])
        bounds[np.arange(len(bounds))[:, None] >= degree - 1] = np.inf
        entry = np.count_nonzero(bounds[:, :, None] <= np.arange(BINS), axis=0)
        guide = targets[np.arange(n)[:, None], entry].ravel()
        j, x = np.nonzero((bounds != np.floor(bounds)) & (bounds < BINS))
        cells = x * BINS + np.floor(bounds[j, x]).astype(np.int64)
        guide[cells] = ~cells
        return lam, guide, bounds, targets


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
    """List every ordered edge whose rate factor ``1 + eta`` is negative or
    NaN.

    An empty list is exactly the condition for ``gen`` to generate a CTMC.
    """
    bad = np.flatnonzero(~(gen.edge_factor >= 0.0))  # fails closed on NaN
    violations = [
        (int(gen.edge_rows[k]), int(gen.edge_cols[k]), float(gen.edge_factor[k]))
        for k in bad
    ]
    violations.sort()
    return RateValidationReport(gen.level, violations)


def _require_valid_rates(gen: GeneratorMatrix) -> None:
    """Raise :class:`RateValidationError` unless :func:`validate_rates`
    passes ``gen``."""
    report = validate_rates(gen)
    if not report.ok:
        raise RateValidationError(
            f"{len(report.violations)} edges have negative rates; "
            f"first: {report.violations[0]}"
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


def _uniformized_chains(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
    paths: bool = False,
):
    """The uniformized construction on a block of chains.

    In each interval between recording times every path draws its step
    count, and the paths are put in decreasing order of it (stably), so
    round ``k`` moves the prefix of paths with more than ``k`` steps.  With
    ``D = 64 // DIGIT_BITS`` digits to a raw Philox word, every path of the
    prefix draws one word in the rounds ``k = 0, D, 2D, ...`` (in prefix
    order) and takes digit ``k % D`` of it, low digit first, in round
    ``k``.  The guide table maps a digit to its target; the straddling
    digits of a round then draw one uniform each, in prefix order.  States
    are kept as ``state * BINS``, the row offset of the guide table.
    Returns the ``(len(times), n_paths)`` states at the sorted times.

    With ``paths`` it also returns the full paths, ``(states, offsets,
    jump_times, jump_states)`` as :func:`sample_paths` gives them.  Each
    interval lays the paths out one after another, path ``k`` as a run of
    its jumps so far (``(0, initial state)`` first) and then one slot per
    step; round ``k`` writes its step into slot ``k`` of the new part, and
    one mask drops the steps that stay put at the interval's end.  A path's
    event times in an interval are the order statistics of its ``N``
    uniforms there, drawn in increasing order from the second key (the
    minimum of the ``r`` left is the gap to the interval's end shrunk by
    ``U^(1/r)``); only this mode draws them.
    """
    p0 = _check_initial(initial, gen.n)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    times = np.sort(times)
    if times.size and times[0] < 0:
        raise ValueError("times must be >= 0")
    lam, guide, bounds, targets = gen.event_tables
    rng = _philox(seed, ENSEMBLE_STREAM)
    raw = rng.bit_generator.random_raw
    state = rng.choice(gen.n, size=n_paths, p=p0).astype(np.int64)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    if paths:
        clock = _philox(seed, EVENT_TIME_STREAM)
        # the paths so far, states scaled by BINS as in the rounds
        counts, jump_times = np.ones(n_paths, dtype=np.int64), np.zeros(n_paths)
        jump_states = state * BINS
    start = 0.0  # the last recording time passed
    for row, t_rec in enumerate(times):
        if t_rec > start:
            dt, start = t_rec - start, t_rec
            steps = rng.poisson(lam * dt, n_paths)
            # a stable sort of the counts from the top; radix for 16-bit keys
            top = steps.max(initial=0)
            order = np.argsort((top - steps).astype(np.min_scalar_type(top)), kind="stable")
            running = n_paths - np.cumsum(np.bincount(steps))
            cur = state[order] * BINS
            if paths:
                # path k's run: its jumps so far from base[k], then a slot a
                # step; the jumps so far move by the steps of the paths before
                runs = counts + steps
                base = np.cumsum(runs) - runs
                jumped = np.repeat(np.cumsum(steps) - steps, counts)
                jumped += np.arange(len(jumped))
                jump_times = _placed(jump_times, jumped, runs.sum())
                jump_states = _placed(jump_states, jumped, runs.sum())
                del jumped
                slot, left, gap = (base + counts)[order], steps[order], np.ones(n_paths)
            for k, m in enumerate(running[:-1]):
                head = cur[:m]
                digit = k % _DIGITS
                if digit == 0:  # each path of the prefix draws its next word
                    words = raw(m).view(np.int64)
                index = (words[:m] >> (DIGIT_BITS * digit)) & (BINS - 1)
                index += head
                guide.take(index, out=head, mode="clip")
                split = (head < 0).nonzero()[0]
                if split.size:
                    cell = ~head[split]
                    x = cell >> DIGIT_BITS
                    v = (cell & (BINS - 1)) + rng.random(split.size)
                    i = np.zeros(split.size, dtype=np.int64)
                    for column in bounds:
                        i += column[x] <= v
                    head[split] = targets[x, i]
                if paths:
                    gap[:m] *= np.exp(np.log1p(-clock.random(m)) / (left[:m] - k))
                    at = slot[:m] + k
                    jump_times[at] = t_rec - dt * gap[:m]
                    jump_states[at] = head
            if paths:
                # a slot is kept when it starts its run or its state differs
                # from the slot before
                keep = np.empty(len(jump_states), dtype=bool)
                np.not_equal(jump_states[1:], jump_states[:-1], out=keep[1:])
                keep[base] = True
                counts = np.add.reduceat(keep, base, dtype=np.int64)
                jump_times = jump_times[keep]  # one at a time, for the peak
                jump_states = jump_states[keep]
            state[order] = cur // BINS
        out[row] = state
    if not paths:
        return out
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    jump_states //= BINS
    return out, offsets, jump_times, jump_states


def _placed(values: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """An array of ``size`` entries holding ``values`` at ``at``."""
    out = np.empty(size, dtype=values.dtype)
    out[at] = values
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
    return _uniformized_chains(gen, initial, times, n_paths, seed)


def sample_paths(
    gen: GeneratorMatrix,
    initial,
    times: Sequence[float],
    n_paths: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full paths up to the largest of ``times``, with their states at
    ``times``.

    Returns ``(states, offsets, jump_times, jump_states)``: ``states``
    exactly as :func:`ensemble_states` gives them for the same arguments,
    and path ``k`` (column ``k``) as its jumps ``jump_times[a:b]`` and
    ``jump_states[a:b]`` with ``a, b = offsets[k], offsets[k + 1]``.  Each
    path starts at ``(0.0, initial state)``; its times then increase
    strictly up to the horizon, and it holds each state until the next
    jump.
    """
    return _uniformized_chains(gen, initial, times, n_paths, seed, paths=True)


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

def write_trajectories_jsonl(path, offsets, jump_times, jump_states,
                             horizon: float, seed: int, n_states: int) -> None:
    """One line per path of :func:`sample_paths`: the JSON object with the
    keys ``horizon``, ``index``, ``n_states``, ``seed``, ``states`` and
    ``times`` as ``json.dumps(..., sort_keys=True)`` writes it, its lists
    written a chunk at a time."""
    def write_list(values):
        fh.write("[")
        for lo in range(0, len(values), 1 << 16):
            chunk = values[lo:lo + (1 << 16)].tolist()
            fh.write((", " if lo else "") + ", ".join(map(repr, chunk)))
        fh.write("]")

    with open(path, "w", encoding="utf-8") as fh:
        for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            fh.write(f'{{"horizon": {float(horizon)!r}, "index": {k}, '
                     f'"n_states": {n_states}, "seed": {seed}, "states": ')
            write_list(jump_states[a:b])
            fh.write(', "times": ')
            write_list(jump_times[a:b])
            fh.write("}\n")
