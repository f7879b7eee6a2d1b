"""Reference implementations the tests compare the library against, a
drift that exercises them, and an edge walker.

Each oracle evaluates a quantity straight from its definition, pair by pair
or solve by solve, or by an earlier, plainer route, where the library uses
a vectorized, factored or compacted one.
"""

import numpy as np
from scipy import sparse

from driftform import tower as tw
from driftform.markov import ENSEMBLE_STREAM, jump_parameters
from driftform.resistance import energy, harmonic_extension

# Two drift terms, one with a varying coefficient field; the L4 generator
# of SG has a complex spectrum.
TWO_TERM_DRIFT = tw.DriftConfig(
    (("expression", "0.3*sin(7*x)*cos(5*y)"), ("constant", 0.1)),
    ((0, (1.0, 0.0, 0.0)), (0, (0.0, 1.0, -1.0))),
)


def eta(net, drift, x: int, y: int) -> float:
    """Asymmetric edge weight ``1/2 * sum_i b_i(x) (h_i(x) - h_i(y))`` of one
    ordered vertex pair."""
    px, py = net.positions([x, y])
    return 0.5 * float(np.dot(drift.b[:, px], drift.h[:, px] - drift.h[:, py]))


def discrete_mutual_energy(net, h, h2, g) -> float:
    """Weighted pairing ``sum_{x != y} c_xy g(x) (h(x)-h(y)) (h2(x)-h2(y))``.

    No 1/2 factor: with ``g == 1`` and ``h == h2`` this is twice the energy.
    """
    hv, h2v, gv = (np.asarray(v, dtype=float) for v in (h, h2, g))
    coo = net.c.tocoo()
    dh = hv[coo.row] - hv[coo.col]
    dh2 = h2v[coo.row] - h2v[coo.col]
    return float(np.sum(coo.data * gv[coo.row] * dh * dh2))


def condition_I_loop(net, drift) -> float:
    """Condition (I) as the ``N x N`` loop of mutual energies
    ``sum_ij discrete_mutual_energy(h_i, h_j, b_i b_j)``."""
    return sum(
        discrete_mutual_energy(net, drift.h[i], drift.h[j], drift.b[i] * drift.b[j])
        for i in range(drift.N)
        for j in range(drift.N)
    )


def effective_resistance(net, x: int, y: int) -> float:
    """Resistance between two vertices: ``1 / E(f)`` for the unit Dirichlet
    problem ``f(x) = 1, f(y) = 0`` solved harmonically elsewhere; 0 for
    ``x == y``."""
    if int(x) == int(y):
        return 0.0
    f = harmonic_extension(net, {int(x): 1.0, int(y): 0.0})
    return 1.0 / energy(net, f)


def edge_list(net) -> list[tuple[int, int, float]]:
    """The undirected edges ``(x, y, c_xy)`` with ``x < y``, sorted, in
    vertex ids."""
    coo = sparse.triu(net.c, k=1).tocoo()
    triples = [
        (int(net.vertices[i]), int(net.vertices[j]), float(v))
        for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    return sorted(triples)


def padded_row_chains(gen, initial, times, n_paths: int, seed: int) -> np.ndarray:
    """The fixed-time jump-chain sampler with per-round gathers and scatters
    over the full path arrays, and a neighbour lookup that compares a whole
    padded row of cumulative probabilities per jump.  Same Philox stream
    and draw order as ``markov._jump_chains``."""
    q, pi = jump_parameters(gen)
    pi.sort_indices()
    degree = np.diff(pi.indptr)
    rows = np.repeat(np.arange(gen.n), degree)
    cols = np.arange(pi.nnz) - pi.indptr[rows]
    shape = (gen.n, int(degree.max()))
    neighbors = np.zeros(shape, dtype=np.int64)
    neighbors[rows, cols] = pi.indices
    probabilities = np.zeros(shape)
    probabilities[rows, cols] = pi.data
    cumulative = np.cumsum(probabilities, axis=1)
    total = cumulative[np.arange(gen.n), degree - 1]
    cumulative[np.arange(shape[1]) >= degree[:, None]] = np.inf
    times = np.sort(np.asarray(times, dtype=float))
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(ENSEMBLE_STREAM)], dtype=np.uint64)))
    state = rng.choice(gen.n, size=n_paths, p=initial).astype(np.int64)
    now = np.zeros(n_paths)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    for row, t_rec in enumerate(times):
        idx = np.flatnonzero(now < t_rec)
        while idx.size:
            t_new = now[idx] + rng.exponential(1.0, size=idx.size) / q[state[idx]]
            jumps = t_new < t_rec
            now[idx] = np.where(jumps, t_new, t_rec)
            idx = idx[jumps]
            s = state[idx]
            v = rng.random(idx.size) * total[s]
            state[idx] = neighbors[s, np.count_nonzero(cumulative[s] < v[:, None], axis=1)]
        out[row] = state
    return out
