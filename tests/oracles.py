"""Reference implementations the tests compare the library against, a
drift that exercises them, and an edge walker.

Each oracle evaluates a quantity straight from its definition, pair by pair
or solve by solve, or by an earlier, plainer route, where the library uses
a vectorized, factored or compacted one.  The random-batch form checks are
lower-bound oracles: a margin taken over finitely many vectors can only be
looser than the extreme eigenvalue behind the library's certificate.
"""

import itertools

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import csgraph
from scipy.special import gammaln, ive, pdtrc, xlogy

from driftform import pcf, resistance
from driftform import tower as tw
from driftform.markov import (
    _DIGITS,
    BINS,
    DIGIT_BITS,
    ENSEMBLE_STREAM,
    EVENT_TIME_STREAM,
    RateValidationError,
    _check_initial,
    _philox,
    _require_valid_rates,
)
from driftform.resistance import (
    ConductanceNetwork,
    NetworkError,
    _eliminate,
    _green_columns,
    energy,
)
from driftform.spectral import SERIES_TAIL, semigroup_solve

DEFAULT_DRAW_SEED = 1729

# Two drift terms, one with a varying coefficient field; the L4 generator
# of SG has a complex spectrum.
TWO_TERM_DRIFT = tw.DriftConfig(
    (("expression", "0.3*sin(7*x)*cos(5*y)"), ("constant", 0.1)),
    ((0, (1.0, 0.0, 0.0)), (0, (0.0, 1.0, -1.0))),
)


def eta(drift, x: int, y: int) -> float:
    """Asymmetric edge weight ``1/2 * sum_i b_i(x) (h_i(x) - h_i(y))`` of one
    ordered vertex pair."""
    return 0.5 * float(np.dot(drift.b[:, x], drift.h[:, x] - drift.h[:, y]))


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
        for i in range(len(drift.b))
        for j in range(len(drift.b))
    )


def effective_resistance(net, x: int, y: int) -> float:
    """Resistance between two vertices: ``1 / E(f)`` for the unit Dirichlet
    problem ``f(x) = 1, f(y) = 0`` solved harmonically elsewhere, on the
    network renumbered so that ``x, y`` are its vertices ``0, 1``; 0 for
    ``x == y``."""
    x, y = int(x), int(y)
    if x == y:
        return 0.0
    order = [x, y] + [v for v in range(net.n) if v not in (x, y)]
    moved = ConductanceNetwork(net.c[order][:, order])
    f = dense_harmonic_extension(moved, [1.0, 0.0])
    return 1.0 / energy(moved, f)


def dense_harmonic_extension(net, values) -> np.ndarray:
    """Harmonic extension of a ``(k,)`` vector or ``(N, k)`` block of data on
    ``[0, k)`` by one dense solve of the interior block ``L_II u = -L_IB f``."""
    fb = np.asarray(values, dtype=float)
    k = fb.shape[-1]
    lap = net.laplacian().toarray()
    out = np.empty((*fb.shape[:-1], net.n))
    out[..., :k] = fb
    out[..., k:] = np.linalg.solve(lap[k:, k:], -(lap[k:, :k] @ fb.T)).T
    return out


def edge_list(net) -> list[tuple[int, int, float]]:
    """The undirected edges ``(x, y, c_xy)`` with ``x < y``, sorted."""
    coo = sparse.triu(net.c, k=1).tocoo()
    return sorted((int(i), int(j), float(v)) for i, j, v in zip(coo.row, coo.col, coo.data))


def uniformized_chains(gen, initial, times, n_paths: int, seed: int,
                       per_state: bool = False, branches: dict | None = None) -> np.ndarray:
    """The fixed-time sampler of ``markov`` from its definition, with the
    same keys and draw order and no guide table.

    Each step reads its digit ``b`` and the cuts of its state's row of
    ``P = I + L / Lam``: the cumulative sums of the row's nonzero entries,
    scaled to end at ``BINS``, the last left out.  When no cut lies inside
    ``(b, b + 1)`` the step takes entry ``#{cuts <= b}``; otherwise it draws
    ``u`` and takes entry ``#{cuts <= b + u}``.  The cuts are counted over
    each step's whole row padded with ``+inf``, or with ``per_state`` by one
    ``searchsorted`` per state and round.  ``branches``, if given, counts
    the steps taken each way under ``"pure"`` and ``"straddle"``.
    """
    P, lam = gen.uniformized
    dense = P.toarray()
    entries = [np.flatnonzero(row) for row in dense]
    width = max(len(e) for e in entries)
    cuts = np.full((gen.n, width), np.inf)  # at least one +inf past the last cut
    columns = np.zeros((gen.n, width), dtype=np.int64)
    for x, (row, e) in enumerate(zip(dense, entries)):
        c = np.cumsum(row[e])
        cuts[x, :len(e) - 1] = (c * (BINS / c[-1]))[:-1]
        columns[x, :len(e)] = e

    def count(here, v, side):
        """``#{cuts <= v}`` (``side="right"``) or ``#{cuts < v}`` in the
        rows of the states ``here``."""
        if not per_state:
            row = cuts[here]
            return np.count_nonzero(row <= v[:, None] if side == "right" else row < v[:, None],
                                    axis=1)
        out = np.empty(len(here), dtype=np.int64)
        for x in np.unique(here):
            at = here == x
            out[at] = np.searchsorted(cuts[x], v[at], side=side)
        return out

    digits_per_word = 64 // DIGIT_BITS
    times = np.sort(np.asarray(times, dtype=float))
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(ENSEMBLE_STREAM)], dtype=np.uint64)))
    state = rng.choice(gen.n, size=n_paths, p=initial).astype(np.int64)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    start = 0.0
    for row, t_rec in enumerate(times):
        if t_rec > start:
            steps = rng.poisson(lam * (t_rec - start), n_paths)
            start = t_rec
            order = np.argsort(-steps, kind="stable")
            for k in range(steps.max(initial=0)):
                paths = order[steps[order] > k]
                if k % digits_per_word == 0:
                    words = rng.bit_generator.random_raw(len(paths))
                shift = np.uint64(DIGIT_BITS * (k % digits_per_word))
                v = ((words[:len(paths)] >> shift) % np.uint64(BINS)).astype(float)
                here = state[paths]
                pick = count(here, v, "right")
                straddle = pick != count(here, v + 1.0, "left")
                v[straddle] += rng.random(np.count_nonzero(straddle))
                pick[straddle] = count(here[straddle], v[straddle], "right")
                state[paths] = columns[here, pick]
                if branches is not None:
                    branches["straddle"] = branches.get("straddle", 0) + int(straddle.sum())
                    branches["pure"] = branches.get("pure", 0) + int((~straddle).sum())
        out[row] = state
    return out


def _chains_with_callback(gen, initial, times, n_paths: int, seed: int, on_round) -> np.ndarray:
    """The engine of ``markov`` with a per-round callback in place of its
    slot layout: ``on_round(paths, times, states)`` sees the start (every
    path at time 0) and then each round: the paths that jumped in it, their
    jump times and their new states.  Same keys and draw order."""
    p0 = _check_initial(initial, gen.n)
    times = np.sort(np.asarray(times, dtype=float))
    lam, guide, bounds, targets = gen.event_tables
    rng = _philox(seed, ENSEMBLE_STREAM)
    raw = rng.bit_generator.random_raw
    state = rng.choice(gen.n, size=n_paths, p=p0).astype(np.int64)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    clock = _philox(seed, EVENT_TIME_STREAM)
    on_round(np.arange(n_paths), np.zeros(n_paths), state.copy())
    start = 0.0
    for row, t_rec in enumerate(times):
        if t_rec > start:
            dt, start = t_rec - start, t_rec
            steps = rng.poisson(lam * dt, n_paths)
            top = steps.max(initial=0)
            order = np.argsort((top - steps).astype(np.min_scalar_type(top)), kind="stable")
            running = n_paths - np.cumsum(np.bincount(steps))
            cur = state[order] * BINS
            steps, gap = steps[order], np.ones(n_paths)
            for k, m in enumerate(running[:-1]):
                head = cur[:m]
                before = head.copy()
                digit = k % _DIGITS
                if digit == 0:
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
                gap[:m] *= np.exp(np.log1p(-clock.random(m)) / (steps[:m] - k))
                moved = np.flatnonzero(head != before)
                on_round(order[moved], t_rec - dt * gap[moved], head[moved] // BINS)
            state[order] = cur // BINS
        out[row] = state
    return out


def logged_paths(gen, initial, times, n_paths: int, seed: int):
    """``markov.sample_paths`` by an earlier route: one engine run logs each
    round (:func:`_chains_with_callback`), and a cursor per path places the
    rounds path by path in two flat arrays.  Returns ``(states, offsets,
    jump_times, jump_states)``."""
    log = []
    states = _chains_with_callback(gen, initial, times, n_paths, seed,
                                   lambda *entry: log.append(entry))
    counts = np.bincount(np.concatenate([paths for paths, _, _ in log]), minlength=n_paths)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    cursor = offsets[:-1].copy()
    jump_times, jump_states = np.empty(offsets[-1]), np.empty(offsets[-1], dtype=np.int64)
    # a path jumps at most once a round, so the rounds in order keep each
    # path's jumps in time order
    for paths, t, s in log:
        at = cursor[paths]
        jump_times[at], jump_states[at] = t, s
        cursor[paths] = at + 1
    return states, offsets, jump_times, jump_states


def jump_parameters(gen) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Holding rates ``q(x) = -L(x, x)`` and the row-stochastic jump kernel
    ``pi(x, y) = L(x, y) / q(x)`` of the embedded jump chain, which the
    uniformized sampler never forms.

    Requires valid rates and no absorbing vertex.
    """
    _require_valid_rates(gen)
    q = gen.q
    if np.any(q <= 0):
        raise RateValidationError("absorbing vertex: some holding rate is zero")
    off = gen.L.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    pi = sparse.diags(1.0 / q) @ off
    return q, pi.tocsr()


def semigroup_apply(gen, t: float, f) -> np.ndarray:
    """Semigroup applied to ``f``: the output of ``semigroup_solve``."""
    return semigroup_solve(gen, t, f).output


def chebyshev_coefficients(tau: float) -> tuple[np.ndarray, float]:
    """``spectral._chebyshev_coefficients`` from ``scipy.special.ive``: the
    coefficients ``c_0 .. c_K`` of ``exp(tau (x - 1))``, ``K`` the least
    degree whose tail (plus the Amos bound past ``m``) is at most
    ``SERIES_TAIL``, and that tail."""
    m = int(np.sqrt(80.0 * tau)) + 40
    while True:
        c = ive(np.arange(m + 1), tau)
        r = tau / (m + 0.5 + np.hypot(m + 0.5, tau))
        rest = 2.0 * c[m] * r / (1.0 - r)
        if rest <= SERIES_TAIL * 1e-3:
            break
        m *= 2
    c[1:] *= 2.0
    tails = np.append(np.cumsum(c[::-1])[-2::-1], 0.0) + rest
    degree = int(np.argmax(tails <= SERIES_TAIL))
    return c[: degree + 1], float(tails[degree])


def poisson_weights(mu_t: float) -> tuple[np.ndarray, float]:
    """``spectral._poisson_weights`` from ``scipy.special``: the
    Poisson(``mu_t``) probabilities of ``0 .. order``, ``order`` one past the
    least ``k`` with ``P(N > k) <= SERIES_TAIL``, and ``P(N > order)``."""
    lo, width = int(mu_t), int(10.0 * np.sqrt(mu_t)) + 40
    while True:
        ks = np.arange(lo, lo + width)
        below = np.flatnonzero(pdtrc(ks, mu_t) <= SERIES_TAIL)
        if below.size:
            break
        width *= 2
    order = int(ks[below[0]]) + 1
    k = np.arange(order + 1)
    return np.exp(xlogy(k, mu_t) - gammaln(k + 1) - mu_t), float(pdtrc(order, mu_t))


def resistance_matrix(net) -> np.ndarray:
    """All-pairs effective resistances (symmetric, zero diagonal), from the
    Green-function columns behind ``resistance_diameter``, solved in blocks
    of ``resistance.BLOCK_COLUMNS`` read at call time."""
    n, width = net.n, resistance.BLOCK_COLUMNS
    if n < 2:
        return np.zeros((n, n))
    columns = _green_columns(net)
    g = np.hstack([columns(np.arange(lo, min(lo + width, n))) for lo in range(0, n, width)])
    d = np.diag(g)
    r = np.triu(d[:, None] + d - 2.0 * g, 1)
    return r + r.T


def state_at(jump_times, jump_states, horizon: float, t: float) -> int:
    """State at time ``t`` of a path with the given jumps, holding each
    state over ``[jump_k, jump_k+1)`` up to ``horizon``."""
    if t < 0 or t > horizon:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    k = int(np.searchsorted(jump_times, t, side="right")) - 1
    return int(jump_states[k])


def form_value(matrix, f, g=None) -> float:
    """The bilinear form ``g @ matrix @ f`` (``g = f`` by default)."""
    f = np.asarray(f, float)
    g = f if g is None else np.asarray(g, float)
    return float(g @ (matrix @ f))


# ---------------------------------------------------------------------------
# Form inequalities: dense eigenvalues and random batches
# ---------------------------------------------------------------------------

def dense_form_values(gen, s: float, lam: float, t: float) -> dict:
    """The exact form constants of one generator from dense ``eigh`` and the
    definition of the sector constant as ``‖S^(-1/2) A_lam S^(-1/2)‖``,
    ``S`` the symmetric part of ``A_lam = A + lam M``."""
    e, q, m = gen.E_matrix.toarray(), gen.Q_matrix.toarray(), np.diag(gen.mu)
    q_sym = 0.5 * (q + q.T)
    theta = linalg.eigh(q_sym, e + lam * m, eigvals_only=True)
    drift = linalg.eigh(q_sym, s * e + t * m, eigvals_only=True)
    big_s = e + lam * m + q_sym
    chol = np.linalg.cholesky(big_s)
    scaled = linalg.solve_triangular(chol, (e + q + lam * m), lower=True)
    scaled = linalg.solve_triangular(chol, scaled.T, lower=True).T
    return {
        "lower": s + theta[0], "upper": s - theta[-1],
        "drift": 1.0 - np.max(np.abs(drift)),
        "sd1": linalg.eigh(big_s, m, eigvals_only=True)[0],
        "sector": np.linalg.norm(scaled, 2),
    }


def draw_batch(n: int, draws: int, seed: int = DEFAULT_DRAW_SEED) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.standard_normal((draws, n))


def batch_quad(matrix, F: np.ndarray) -> np.ndarray:
    """``F[k] @ matrix @ F[k]`` for every row of ``F``."""
    return np.einsum("kn,kn->k", F, (matrix @ F.T).T)


def batch_l2_sq(gen, F: np.ndarray) -> np.ndarray:
    return (F * F) @ gen.mu


def random_form_values(gen, s: float, lam: float, t: float,
                       draws: int = 1000, seed: int = DEFAULT_DRAW_SEED) -> dict:
    """The form constants of :func:`dense_form_values` over a seeded batch:
    the least relative slacks of the sandwich and the drift bound, the least
    ``A_lam(f) / |f|^2``, and the largest ``|A_lam(f, g)| / (A_lam(f)
    A_lam(g))^(1/2)`` over consecutive pairs of draws.  ``sd4`` is the least
    Markov pairing ``A(f ^ a, f - f ^ a)`` over random cut levels
    ``a >= 0`` (``a = 0`` for the first tenth)."""
    F = draw_batch(gen.n, draws, seed)
    l2 = batch_l2_sq(gen, F)
    e = batch_quad(gen.E_matrix, F)
    e_lam, q = e + lam * l2, batch_quad(gen.Q_matrix, F)
    a_lam = e_lam + q
    a_mat = gen.E_matrix + gen.Q_matrix
    shifted = a_mat @ F.T + lam * gen.mu[:, None] * F.T
    cross = np.einsum("kn,nk->k", np.roll(F, 1, axis=0), shifted)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    a_cut = rng.uniform(0.0, np.maximum(np.max(np.abs(F), axis=1), 1e-6))
    a_cut[: max(1, draws // 10)] = 0.0
    g1 = np.minimum(F, a_cut[:, None])
    bound = s * e + t * l2
    return {
        "lower": np.min((a_lam - (1.0 - s) * e_lam) / e_lam),
        "upper": np.min(((1.0 + s) * e_lam - a_lam) / e_lam),
        "drift": np.min((bound - np.abs(q)) / bound),
        "sd1": np.min(a_lam / l2),
        "sector": np.max(np.abs(cross) / np.sqrt(a_lam * np.roll(a_lam, 1))),
        "sd4": np.min(np.einsum("kn,kn->k", F - g1, (a_mat @ g1.T).T)),
    }


# ---------------------------------------------------------------------------
# The level hierarchy as tuples, cell by cell from level 0
# ---------------------------------------------------------------------------

def _tuple_refine(structure, pattern, cells, vertex_count, cell_maps, coords):
    """One refinement step over ``(word, ids)`` tuples.

    With an embedding, ``cell_maps`` holds each cell's composed map; the
    children's maps are returned and the coordinate of each new vertex (the
    image of its smallest address) is appended to ``coords``.
    """
    emb = structure.embedding
    m, nb = structure.symbol_count, structure.boundary_size
    fresh = [k for k in range(len(pattern.classes)) if k not in pattern.corner_of_class]
    child_classes = [
        tuple(pattern.class_of[(i, j)] for j in range(nb)) for i in range(m)
    ]
    new_cells, new_maps = [], None if emb is None else []
    next_id = vertex_count
    for c, (word, ids) in enumerate(cells):
        class_vertex = {k: ids[slot] for k, slot in pattern.corner_of_class.items()}
        for k in fresh:
            class_vertex[k] = next_id
            next_id += 1
        for i in range(m):
            new_cells.append((word + (i,), tuple(class_vertex[k] for k in child_classes[i])))
        if emb is not None:
            outer = cell_maps[c]
            child_maps = [pcf.AffineMap(outer.matrix @ f.matrix,
                                        outer.matrix @ f.offset + outer.offset)
                          for f in emb.maps]
            new_maps.extend(child_maps)
            images = {}
            for k in fresh:
                i, j = pattern.classes[k][0]
                if i not in images:
                    images[i] = child_maps[i](emb.boundary_coords)
                coords.append(images[i][j])
    return new_cells, next_id, new_maps


def tuple_level(structure, n: int) -> dict:
    """Level ``n`` refined from level 0 with one composed ``AffineMap`` per
    child: ``cells`` as ``(word, ids)`` tuples in order, ``edges`` as sorted
    ``(a, b)`` tuples, ``vertex_count``, ``coarser_counts`` and
    ``coordinates`` (``None`` without an embedding)."""
    emb = structure.embedding
    pattern = pcf._level_one_pattern(structure)
    count = structure.boundary_size
    cells = [((), tuple(range(count)))]
    cell_maps = None if emb is None else [pcf.AffineMap(np.eye(emb.dim), np.zeros(emb.dim))]
    coords = None if emb is None else list(emb.boundary_coords)
    counts = []
    for _ in range(n):
        counts.append(count)
        cells, count, cell_maps = _tuple_refine(
            structure, pattern, cells, count, cell_maps, coords
        )
    edges = sorted({(min(a, b), max(a, b))
                    for _, ids in cells for a, b in itertools.combinations(ids, 2)})
    return {"cells": cells, "edges": edges, "vertex_count": count,
            "coarser_counts": tuple(counts),
            "coordinates": None if emb is None else np.array(coords)}


def tuple_network(net0, r, level: dict) -> ConductanceNetwork:
    """Self-similar conductances accumulated edge by edge in a dict, cell by
    cell in order."""
    r = np.asarray(r, dtype=float)
    nb = net0.n
    c0 = net0.c.toarray()
    acc = {}
    for word, ids in level["cells"]:
        rw_inv = float(np.prod(1.0 / r[list(word)])) if word else 1.0
        for a in range(nb):
            for b in range(a + 1, nb):
                c = c0[a, b]
                if c == 0.0:
                    continue
                u, v = ids[a], ids[b]
                key = (u, v) if u < v else (v, u)
                acc[key] = acc.get(key, 0.0) + rw_inv * c
    edges = [(u, v, c) for (u, v), c in sorted(acc.items())]
    return ConductanceNetwork.from_edges(edges, level["vertex_count"])


def tuple_measure(structure, level: dict, theta) -> np.ndarray:
    """Cell masses ``prod(theta[word])`` spread over each cell's corners,
    vertex by vertex."""
    theta = np.asarray(theta, dtype=float)
    mu = np.zeros(level["vertex_count"])
    share = 1.0 / structure.boundary_size
    for word, ids in level["cells"]:
        tw = float(np.prod(theta[list(word)])) if word else 1.0
        for vid in ids:
            mu[vid] += tw * share
    return mu


def _coo_block_inverse(a, ncomp: int, labels: np.ndarray) -> sparse.csr_matrix:
    """Inverse of a matrix with small connected components, assembled from
    COO triples: one batched dense inverse per component size."""
    m = a.shape[0]
    sizes = np.bincount(labels, minlength=ncomp)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m) - np.repeat(starts, sizes)
    coo = a.tocoo()
    coo.sum_duplicates()
    rows, cols, vals = [], [], []
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        slot = np.full(ncomp, -1)
        slot[comps] = np.arange(len(comps))
        members = order[starts[comps][:, None] + np.arange(size)]
        blocks = np.zeros((len(comps), size, size))
        mine = slot[labels[coo.row]] >= 0
        r, c = coo.row[mine], coo.col[mine]
        blocks[slot[labels[r]], pos[r], pos[c]] = coo.data[mine]
        inv = np.linalg.inv(blocks)
        rows.append(np.broadcast_to(members[:, :, None], inv.shape).ravel())
        cols.append(np.broadcast_to(members[:, None, :], inv.shape).ravel())
        vals.append(inv.ravel())
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    )


def laplacian_elimination(lap, bounds):
    """The block elimination of a Laplacian as it was before it factored
    any other matrix: steps ``(N_{j-1}, L_II^-1, H, None)`` coarse to fine
    and the trace onto ``[0, N_0)``, its diagonal reset to minus the
    off-diagonal row sums (no row sums carried).  A drop-in for
    ``resistance._eliminate`` on Laplacians, with csgraph labels."""
    steps = []
    for lo in reversed(bounds[:-1]):
        pivot, coupling = lap[lo:, lo:], lap[lo:, :lo]
        ncomp, labels = csgraph.connected_components(pivot, directed=False)
        if not np.bincount(labels[np.diff(coupling.indptr) > 0], minlength=ncomp).all():
            raise NetworkError("interior component does not touch the boundary")
        inv = _coo_block_inverse(pivot, ncomp, labels)
        h = -(inv @ coupling).tocsr()
        steps.append((lo, inv, h, None))
        lap = (lap[:lo, :lo] + lap[:lo, lo:] @ h).tocsr()
        lap.setdiag(0.0)
        lap = (lap - sparse.diags(np.asarray(lap.sum(axis=1)).ravel())).tocsr()
    return steps[::-1], lap
