"""Finite resistance networks and their energy calculus.

A :class:`ConductanceNetwork` is its symmetric nonnegative conductance
matrix on the vertices ``0..n-1``, plus the vertex counts
``N_0 < ... < N_{n-1}`` of its nested coarser vertex sets
``[0, N_0) ⊂ ... ⊂ [0, N_{n-1}) ⊂ [0, n)`` (a vertex id is a position, and
a p.c.f. level's ids are a prefix of the next level's).  The module
provides the quadratic energy form, boundary traces via Schur complements
of the graph Laplacian, harmonic (energy minimizing) extension of boundary
data, the resistance diameter, and assembly of the self-similar energies on
refinement levels of a structure.

Traces, harmonic extensions and the diameter share one block Gaussian
elimination, :func:`_eliminate`: the vertices outside a coarser set are
eliminated fine to coarse, one nested set at a time.  The new vertices of
different cells of a p.c.f. level share no edge, so each step inverts
cell-sized blocks.  The resistance diameter streams all-pairs resistances
from the Green function grounded at vertex 0, rebuilt coarse to fine from
the steps, held dense on the next-to-finest set and streamed in blocks of
``BLOCK_COLUMNS`` rows at the finest one.  Without nested sets it is one
dense inverse.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .pcf import LevelComplex

SCHUR_CLAMP = 1e-14
BLOCK_COLUMNS = 64  # rows per streamed block in _resistance_rows


class NetworkError(ValueError):
    """Invalid network data or an operation on an unusable network."""


class ConductanceNetwork:
    """Symmetric nonnegative conductances on the vertices ``0..n-1``.

    Parameters
    ----------
    conductances : (n, n) array or sparse matrix
        Symmetric, nonnegative, zero diagonal; row ``x`` is vertex ``x``.
    counts : sequence of int
        Vertex counts ``N_0 < ... < N_{n-1}`` of nested coarser vertex sets
        ``[0, N_k)`` (a p.c.f. level's coarser levels); they order the
        eliminations, not their results.
    """

    def __init__(self, conductances, counts=()):
        c = sparse.csr_matrix(conductances, dtype=float)
        if c.shape[0] != c.shape[1]:
            raise NetworkError(f"conductance matrix shape {c.shape} is not square")
        c.eliminate_zeros()
        if not np.isfinite(c.data).all():
            coo = c.tocoo()
            k = np.flatnonzero(~np.isfinite(coo.data))[0]
            raise NetworkError(
                f"conductance between vertices {coo.row[k]} and {coo.col[k]} is "
                f"{coo.data[k]}; conductances must be finite"
            )
        self.c = c
        gap = abs(self.c - self.c.T).max() if self.c.nnz else 0.0
        if gap > 0:
            raise NetworkError(f"conductances are not symmetric (gap {gap:.3g})")
        if self.c.nnz and self.c.data.min() < 0:
            raise NetworkError("negative conductance")
        if np.any(self.c.diagonal() != 0):
            raise NetworkError("conductance diagonal must be zero")
        self.counts = tuple(int(k) for k in counts)
        bounds = (0, *self.counts, self.n)
        if self.counts and any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise NetworkError(
                f"level counts {list(self.counts)} must increase strictly from 1 or more "
                f"to below {self.n}"
            )

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @classmethod
    def from_edges(
        cls, edges: Sequence[tuple[int, int, float]], n: int | None = None
    ) -> "ConductanceNetwork":
        """Build from ``(x, y, c)`` triples on ``n`` vertices (default: one past
        the largest id); parallel entries accumulate."""
        if n is None:
            n = 1 + max((max(int(x), int(y)) for x, y, _ in edges), default=-1)
        rows, cols, vals = [], [], []
        for x, y, c in edges:
            if x == y:
                raise NetworkError(f"self loop at vertex {x}")
            unknown = next((v for v in (x, y) if not 0 <= int(v) < n), None)
            if unknown is not None:
                raise NetworkError(f"edge ({x}, {y}, {c}) names unknown vertex {unknown}")
            rows += [int(x), int(y)]
            cols += [int(y), int(x)]
            vals += [float(c), float(c)]
        return cls(sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())

    def laplacian(self) -> sparse.csr_matrix:
        deg = np.asarray(self.c.sum(axis=1)).ravel()
        return (sparse.diags(deg) - self.c).tocsr()


def energy(net: ConductanceNetwork, f, g=None) -> float:
    """Quadratic energy ``1/2 * sum c_xy (f(x)-f(y)) (g(x)-g(y))`` of vertex
    arrays.

    Symmetric and bilinear; equals ``f . L g`` for the graph Laplacian ``L``.
    """
    fv = np.asarray(f, dtype=float)
    gv = fv if g is None else np.asarray(g, dtype=float)
    for v in (fv, gv):
        if v.shape != (net.n,):
            raise NetworkError(f"vertex function has shape {v.shape}, expected ({net.n},)")
    return float(fv @ (net.laplacian() @ gv))


def _eliminate_onto(net: ConductanceNetwork, k: int):
    """:func:`_eliminate` of ``[k, n)`` through the nested sets above ``k``
    (no steps for ``k == n``).

    ``k`` must be a boundary size ``1..n``.  Interior components that do
    not touch the boundary ``[0, k)`` make the interior block singular;
    they are rejected up front.
    """
    if not 1 <= k <= net.n:
        raise NetworkError(f"boundary of {k} vertices on a network of {net.n}")
    _, labels = csgraph.connected_components(net.c, directed=False)
    if not np.isin(labels[k:], labels[:k]).all():
        raise NetworkError(
            "interior component does not touch the boundary; "
            "the interior block is singular"
        )
    return _eliminate(net.laplacian(), sorted({k, *(c for c in net.counts if c > k), net.n}))


def trace(net: ConductanceNetwork, k: int) -> ConductanceNetwork:
    """Trace the energy onto the boundary ``[0, k)`` by eliminating the
    interior ``[k, n)``.

    The result is the network on the vertices ``0..k-1`` whose energy of any
    boundary data equals the minimum energy over all extensions to the full
    vertex set (the Schur complement of the Laplacian); it keeps the counts
    below ``k``.  Tracing onto the full vertex set returns the network
    unchanged.  Conductances below ``SCHUR_CLAMP`` are dropped to keep
    round-off fill-in out of the sparsity pattern.
    """
    steps, lap = _eliminate_onto(net, k)
    if not steps:
        return net
    cond = -lap
    cond.setdiag(0.0)
    cond = (0.5 * (cond + cond.T)).tocsr()  # kill asymmetric round-off
    cond.data[np.abs(cond.data) < SCHUR_CLAMP] = 0.0
    if cond.nnz and cond.data.min() < 0:
        raise NetworkError(
            f"Schur complement produced a negative conductance ({cond.data.min():.3g})"
        )
    return ConductanceNetwork(cond, [c for c in net.counts if c < k])


def harmonic_extension(net: ConductanceNetwork, values) -> np.ndarray:
    """Energy-minimizing extension of boundary data on ``[0, k)``.

    ``values`` is a ``(k,)`` vector or an ``(N, k)`` block of ``N`` data
    sets, all extended through one elimination.  Returns the ``(n,)`` or
    ``(N, n)`` extensions: each agrees with its data on ``[0, k)`` and the
    Laplacian vanishes at every other vertex.  Each row equals its data
    extended alone.
    """
    fb = np.asarray(values, dtype=float)
    steps, _ = _eliminate_onto(net, fb.shape[-1])
    u = np.empty((net.n, *fb.shape[:-1]))
    u[:fb.shape[-1]] = fb.T
    for lo, _, h in steps:  # coarse to fine
        u[lo:lo + h.shape[0]] = h @ u[:lo]
    return np.ascontiguousarray(u.T)


def _block_inverse(a) -> sparse.csr_matrix:
    """Inverse of a sparse matrix whose connected components are small: one
    batched dense inverse per component size."""
    m = a.shape[0]
    ncomp, labels = csgraph.connected_components(a, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(m, dtype=np.intp)  # place of each vertex in its component
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


def _eliminate(lap, bounds: Sequence[int]):
    """Block Gaussian elimination of a Laplacian over nested vertex sets.

    ``bounds`` are ``N_0 < ... < N_m = n``.  The vertices
    ``I = [N_{j-1}, N_j)`` are eliminated fine to coarse: with ``S`` the
    vertices below ``N_{j-1}``, ``H = -L_II^-1 L_IS`` and ``L_SS + L_SI H``
    is the trace onto ``S``, whose diagonal is reset to minus its
    off-diagonal row sums.  This is exact for any bounds; it is fast when
    ``L_II`` splits into small blocks (new vertices of different cells of a
    p.c.f. level share no edge).

    Returns the steps ``(N_{j-1}, L_II^-1, H)`` from coarse to fine and the
    Laplacian traced onto ``[0, N_0)``.
    """
    steps = []
    for lo in reversed(bounds[:-1]):
        inv = _block_inverse(lap[lo:, lo:])
        h = -(inv @ lap[lo:, :lo]).tocsr()
        steps.append((lo, inv, h))
        lap = (lap[:lo, :lo] + lap[:lo, lo:] @ h).tocsr()
        # the trace of a Laplacian is a Laplacian: rebuild its diagonal from
        # the off-diagonal row sums, so no cancellation enters the diagonal
        lap.setdiag(0.0)
        lap = (lap - sparse.diags(np.asarray(lap.sum(axis=1)).ravel())).tocsr()
    return steps[::-1], lap


def _resistance_rows(net: ConductanceNetwork):
    """Stream the all-pairs resistances in blocks of ``BLOCK_COLUMNS`` rows.

    ``G`` is the Green function killed at vertex 0 (``G[0, :] = 0``) and
    ``R(x, y) = G_xx + G_yy - 2 G_xy``.  With the steps of
    :func:`_eliminate` over the network's counts, ``G`` is rebuilt coarse to
    fine as ``[[G, G H^T], [H G, L_II^-1 + H G H^T]]``, held dense up to
    ``N_{n-1}`` and streamed at the finest level.  Without counts ``G`` is
    one dense inverse.

    Each yielded ``(lo, hi, r)`` holds ``r[x - lo, y - lo] = R(x, y)`` for
    ``lo <= x < hi`` and ``lo <= y < n``; by symmetry the blocks cover every
    pair.  ``r`` is a view of a buffer that the next block overwrites.
    """
    if csgraph.connected_components(net.c, directed=False)[0] > 1:
        raise NetworkError("network is disconnected")
    n = net.n
    if n < 2:
        return
    steps, lap = _eliminate(net.laplacian(), [*net.counts, n])

    width = BLOCK_COLUMNS
    m = net.counts[-1] if net.counts else n
    g = np.zeros((m, m))
    g[1:lap.shape[0], 1:lap.shape[0]] = np.linalg.inv(lap[1:, 1:].toarray())
    for lo, inv, h in steps[:-1]:
        hi = lo + inv.shape[0]
        coarse = np.ascontiguousarray(g[:lo, :lo])
        for a in range(lo, hi, width):  # rows a:b of [H G, H G H^T]
            b = min(a + width, hi)
            hg = h[a - lo:b - lo] @ coarse
            g[a:b, :lo] = hg
            g[:lo, a:b] = hg.T
            g[a:b, lo:hi] = (h @ hg.T).T
        del coarse
        block = inv.tocoo()
        g[lo + block.row, lo + block.col] += block.data

    if steps:
        _, inv, h = steps[-1]
    else:  # nothing to stream from: every row is a row of the dense G
        inv, h = sparse.csr_matrix((0, 0)), sparse.csr_matrix((0, n))
    d = np.empty(n)  # diag(G); d[0] = 0 at the ground
    d[:m] = np.diag(g)
    d[m:] = inv.diagonal()
    for lo in range(m, n, width):
        hb = h[lo - m:lo - m + width]
        d[lo:lo + width] += np.asarray(hb.multiply(hb @ g).sum(axis=1)).ravel()
    buf = np.empty((width, n))
    for lo, hi in _row_blocks(m, n, width):
        r = buf[:hi - lo, lo:]
        if hi <= m:  # rows of V_{n-1}: [G, G H^T]
            r[:, :m - lo] = g[lo:hi, lo:]
            r[:, m - lo:] = (h @ g[lo:hi].T).T
        else:  # new rows: L_II^-1 + H G H^T, right of the diagonal
            hg = h[lo - m:hi - m] @ g
            r[:] = (h[lo - m:] @ hg.T).T
            rows = inv[lo - m:hi - m, lo - m:].tocoo()
            r[rows.row, rows.col] += rows.data
        r *= -2.0
        r += d[lo:]
        r += d[lo:hi, None]
        yield lo, hi, r


def _row_blocks(m: int, n: int, width: int):
    """``(lo, hi)`` blocks of at most ``width`` rows over ``[0, m)`` and then
    ``[m, n)``, so that no block straddles ``m``."""
    for start, stop in ((0, m), (m, n)):
        for lo in range(start, stop, width):
            yield lo, min(lo + width, stop)


def resistance_diameter(net: ConductanceNetwork) -> float:
    """Largest effective resistance over all vertex pairs.

    Memory is one dense Green function on the next-to-finest nested set
    ``[0, N_{n-1})`` plus ``BLOCK_COLUMNS`` rows.
    """
    return max((float(block.max()) for *_, block in _resistance_rows(net)),
               default=0.0)


def assemble_self_similar(
    net0: ConductanceNetwork,
    r: Sequence[float],
    complex_: LevelComplex,
) -> ConductanceNetwork:
    """Self-similar energy on a refinement level.

    Every cell contributes the base conductances scaled by the reciprocal of
    the product of per-symbol factors along its word; contributions of cells
    sharing an edge accumulate.  At level 0 the base network is returned
    unchanged.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise NetworkError("scale factors must lie in (0, 1)")
    nb = net0.n
    cells = complex_.cell_ids
    if cells.shape[1] != nb:
        raise NetworkError(
            f"base network has {nb} vertices but cells have {cells.shape[1]} corners"
        )
    c0 = net0.c.toarray()
    a, b = np.nonzero(np.triu(c0, 1))
    rw_inv = complex_.word_products(1.0 / r)
    u, v = cells[:, a].ravel(), cells[:, b].ravel()
    n = complex_.vertex_count
    # accumulate each edge's contributions in cell order
    keys, inverse = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    c = np.bincount(inverse, weights=(rw_inv[:, None] * c0[a, b]).ravel())
    lo, hi = np.divmod(keys, n)
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    return ConductanceNetwork(sparse.coo_matrix((np.tile(c, 2), (rows, cols)), (n, n)),
                              complex_.coarser_counts)
