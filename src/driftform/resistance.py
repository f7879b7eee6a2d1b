"""Finite resistance networks and their energy calculus.

A :class:`ConductanceNetwork` is a vertex list with symmetric nonnegative
edge conductances.  The module provides the quadratic energy form, boundary
traces via Schur complements of the graph Laplacian, harmonic (energy
minimizing) extension of boundary data, effective resistance, and assembly
of the self-similar energies on refinement levels of a structure.

Solves factor the interior block directly; dense linear algebra is used for
networks below ``DENSE_CUTOFF`` vertices and sparse LU above.  All-pairs
resistances (the matrix and the diameter) come from one sparse LU of the
Laplacian grounded at vertex 0, solved against identity columns in blocks
of ``BLOCK_COLUMNS``, so the diameter needs O(n * block) memory.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .pcf import LevelComplex

DENSE_CUTOFF = 500
SCHUR_CLAMP = 1e-14
BLOCK_COLUMNS = 64  # right-hand sides per grounded solve in _resistance_blocks


class NetworkError(ValueError):
    """Invalid network data or an operation on an unusable network."""


class ConductanceNetwork:
    """Symmetric nonnegative conductances over an ordered vertex list.

    Parameters
    ----------
    vertices : sequence of int
        Vertex ids, in the order used by all array-valued operations.
    conductances : (n, n) array or sparse matrix
        Symmetric, nonnegative, zero diagonal.
    """

    def __init__(self, vertices: Sequence[int], conductances, *, validate: bool = True):
        self.vertices = np.asarray(list(vertices), dtype=np.int64)
        self.index = {int(v): k for k, v in enumerate(self.vertices)}
        c = sparse.csr_matrix(conductances, dtype=float)
        if c.shape != (self.n, self.n):
            raise NetworkError(
                f"conductance matrix shape {c.shape} does not match {self.n} vertices"
            )
        c.eliminate_zeros()
        self.c = c
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _validate(self) -> None:
        if len(self.index) != self.n:
            raise NetworkError("duplicate vertex ids")
        gap = abs(self.c - self.c.T).max() if self.c.nnz else 0.0
        if gap > 0:
            raise NetworkError(f"conductances are not symmetric (gap {gap:.3g})")
        if self.c.nnz and self.c.data.min() < 0:
            raise NetworkError("negative conductance")
        if np.any(self.c.diagonal() != 0):
            raise NetworkError("conductance diagonal must be zero")

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[int, int, float]],
        vertices: Sequence[int] | None = None,
    ) -> "ConductanceNetwork":
        """Build from ``(x, y, c)`` triples; parallel entries accumulate."""
        if vertices is None:
            vertices = sorted({v for x, y, _ in edges for v in (x, y)})
        index = {int(v): k for k, v in enumerate(vertices)}
        rows, cols, vals = [], [], []
        for x, y, c in edges:
            if x == y:
                raise NetworkError(f"self loop at vertex {x}")
            i, j = index[int(x)], index[int(y)]
            rows += [i, j]
            cols += [j, i]
            vals += [float(c), float(c)]
        mat = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(len(vertices), len(vertices))
        ).tocsr()
        return cls(vertices, mat)

    def laplacian(self, dense: bool | None = None):
        deg = np.asarray(self.c.sum(axis=1)).ravel()
        lap = sparse.diags(deg) - self.c
        if dense is None:
            dense = self.n < DENSE_CUTOFF
        return lap.toarray() if dense else lap.tocsr()

    def is_connected(self) -> bool:
        ncomp, _ = csgraph.connected_components(self.c, directed=False)
        return ncomp == 1

    def positions(self, ids: Sequence[int]) -> np.ndarray:
        try:
            return np.array([self.index[int(v)] for v in ids], dtype=np.intp)
        except KeyError as exc:
            raise NetworkError(f"unknown vertex id {exc.args[0]}") from exc


def as_values(net: ConductanceNetwork, f) -> np.ndarray:
    """Coerce a vertex function (mapping or array) to the network's order."""
    if isinstance(f, Mapping):
        missing = [v for v in net.vertices if int(v) not in f]
        if missing or len(f) != net.n:
            raise NetworkError("vertex function domain does not match network")
        return np.array([float(f[int(v)]) for v in net.vertices])
    arr = np.asarray(f, dtype=float)
    if arr.shape != (net.n,):
        raise NetworkError(
            f"vertex function has shape {arr.shape}, expected ({net.n},)"
        )
    return arr


def energy(net: ConductanceNetwork, f, g=None) -> float:
    """Quadratic energy ``1/2 * sum c_xy (f(x)-f(y)) (g(x)-g(y))``.

    Symmetric and bilinear; equals ``f . L g`` for the graph Laplacian ``L``.
    """
    fv = as_values(net, f)
    gv = fv if g is None else as_values(net, g)
    return float(fv @ (net.laplacian(dense=False) @ gv))


def _interior_solver(net: ConductanceNetwork, ipos: np.ndarray, bpos: np.ndarray):
    """Return ``solve`` for the interior Laplacian block.

    Interior components that do not touch the boundary make the block
    singular; they are rejected up front.
    """
    ncomp, labels = csgraph.connected_components(net.c, directed=False)
    boundary_labels = set(labels[bpos])
    stranded = [lbl for lbl in set(labels[ipos]) if lbl not in boundary_labels]
    if stranded:
        raise NetworkError(
            "interior component does not touch the boundary; "
            "the interior block is singular"
        )
    lap = net.laplacian(dense=net.n < DENSE_CUTOFF)
    if sparse.issparse(lap):
        lii = lap[np.ix_(ipos, ipos)].tocsc()
        lib = lap[np.ix_(ipos, bpos)]
        lu = splu(lii)
        return lambda rhs: lu.solve(rhs), lib
    lii = lap[np.ix_(ipos, ipos)]
    lib = lap[np.ix_(ipos, bpos)]
    return lambda rhs: np.linalg.solve(lii, rhs), lib


def trace(
    net: ConductanceNetwork,
    boundary: Sequence[int],
    *,
    clamp: float = SCHUR_CLAMP,
) -> ConductanceNetwork:
    """Trace the energy onto a boundary subset by eliminating the interior.

    The result is the network on ``boundary`` whose energy of any boundary
    data equals the minimum energy over all extensions to the full vertex
    set (the Schur complement of the Laplacian).  Tracing onto the full
    vertex set returns the network unchanged.  Conductances below ``clamp``
    are dropped to keep round-off fill-in out of the sparsity pattern.
    """
    bset = {int(v) for v in boundary}
    if not bset:
        raise NetworkError("boundary must be nonempty")
    if not bset.issubset(int(v) for v in net.vertices):
        raise NetworkError("boundary contains unknown vertex ids")
    keep = np.array([int(v) in bset for v in net.vertices])
    bpos = np.flatnonzero(keep)
    ipos = np.flatnonzero(~keep)
    kept_ids = [int(v) for v in net.vertices[bpos]]
    if len(ipos) == 0:
        return ConductanceNetwork(kept_ids, net.c[np.ix_(bpos, bpos)])

    solve, lib = _interior_solver(net, ipos, bpos)
    lap = net.laplacian(dense=net.n < DENSE_CUTOFF)
    if sparse.issparse(lap):
        lbb = lap[np.ix_(bpos, bpos)].toarray()
        x = solve(lib.toarray())
        schur = lbb - lap[np.ix_(bpos, ipos)].toarray() @ x
    else:
        lbb = lap[np.ix_(bpos, bpos)]
        schur = lbb - lap[np.ix_(bpos, ipos)] @ solve(lib)

    cond = -schur
    np.fill_diagonal(cond, 0.0)
    cond = 0.5 * (cond + cond.T)  # kill asymmetric round-off
    cond[np.abs(cond) < clamp] = 0.0
    if cond.min() < 0:
        raise NetworkError(
            f"Schur complement produced a negative conductance ({cond.min():.3g})"
        )
    return ConductanceNetwork(kept_ids, sparse.csr_matrix(cond))


def harmonic_extension(net: ConductanceNetwork, boundary_values: Mapping[int, float]) -> np.ndarray:
    """Energy-minimizing extension of boundary data.

    Returns values over all vertices (network order); the extension agrees
    with ``boundary_values`` on its domain and the Laplacian vanishes at
    every other vertex.
    """
    if not boundary_values:
        raise NetworkError("boundary data must be nonempty")
    bids = sorted(int(v) for v in boundary_values)
    bpos = net.positions(bids)
    fb = np.array([float(boundary_values[v]) for v in bids])
    keep = np.zeros(net.n, dtype=bool)
    keep[bpos] = True
    ipos = np.flatnonzero(~keep)
    values = np.empty(net.n)
    values[bpos] = fb
    if len(ipos) == 0:
        return values
    solve, lib = _interior_solver(net, ipos, bpos)
    rhs = -(lib @ fb)
    values[ipos] = solve(rhs)
    return values


def _resistance_blocks(net: ConductanceNetwork):
    """Stream the all-pairs resistances in blocks of ``BLOCK_COLUMNS`` columns.

    Vertex 0 is grounded and the grounded Laplacian ``L[1:, 1:]`` (SPD for a
    connected network) is factored once; solving it against identity columns
    gives ``G``, the Green function killed at vertex 0, with ``G[0, :] = 0``.
    Then ``R(x, j) = G_xx + G_jj - 2 G_xj``.  Each yielded ``(lo, hi, r)``
    holds ``r[x, j - lo] = R(x, j)`` for every vertex ``x < hi`` and column
    ``lo <= j < hi``; by symmetry the blocks together cover every pair.
    """
    if not net.is_connected():
        raise NetworkError("network is disconnected")
    n = net.n
    if n < 2:
        return
    lu = splu(net.laplacian(dense=False)[1:, 1:].tocsc())
    width = BLOCK_COLUMNS
    d = np.zeros(n)  # diag(G), filled block by block; d[0] = 0 at the ground
    for lo in range(1, n, width):
        hi = min(lo + width, n)
        cols = np.arange(hi - lo)
        rhs = np.zeros((n - 1, hi - lo))
        rhs[lo - 1 + cols, cols] = 1.0
        g = lu.solve(rhs)[: hi - 1]  # G[x, lo:hi] for vertices 1 <= x < hi
        d[lo:hi] = g[lo - 1 + cols, cols]
        r = d[:hi, None] + d[None, lo:hi]
        r[1:] -= 2.0 * g
        yield lo, hi, r


def resistance_matrix(net: ConductanceNetwork) -> np.ndarray:
    """All-pairs effective resistances (symmetric, zero diagonal)."""
    r = np.zeros((net.n, net.n))
    for lo, hi, block in _resistance_blocks(net):
        r[:lo, lo:hi] = block[:lo]
        r[lo:hi, :lo] = block[:lo].T
        upper = np.triu(block[lo:hi], 1)
        r[lo:hi, lo:hi] = upper + upper.T
    return r


def resistance_diameter(net: ConductanceNetwork) -> float:
    """Largest effective resistance over all vertex pairs, in O(n * block)
    memory."""
    return max((float(block.max()) for *_, block in _resistance_blocks(net)),
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
    base_ids = sorted(int(v) for v in net0.vertices)
    if base_ids != list(range(nb)):
        raise NetworkError("base network must live on boundary ids 0..|V0|-1")
    sample_cell = complex_.cells[0][1]
    if len(sample_cell) != nb:
        raise NetworkError(
            f"base network has {nb} vertices but cells have {len(sample_cell)} corners"
        )
    c0 = net0.c.toarray()[np.ix_(net0.positions(range(nb)), net0.positions(range(nb)))]

    acc: dict[tuple[int, int], float] = {}
    for word, ids in complex_.cells:
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
    return ConductanceNetwork.from_edges(edges, vertices=range(complex_.vertex_count))
