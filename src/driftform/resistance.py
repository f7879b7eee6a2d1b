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

The package's one sparse factorization, :func:`_eliminate`, eliminates the
vertices outside a coarser set fine to coarse, one nested set at a time:
nested dissection with the cell boundaries as separators (George 1973).
New vertices of different cells share no edge, so each step inverts
cell-sized blocks.  A network's Laplacian is eliminated once per boundary
and kept on the network (:func:`_eliminate_onto`): traces, harmonic
extensions and the diameter's Green columns share that elimination, and
resolvents and certificates solve with their own.  What a step needs of the
pattern alone (the block split, the pivot's components, where the blocks'
inverses go) is planned once per pattern (:func:`_plan`) and shared by every
matrix on it: a level's Laplacian, ``alpha I - L``, ``I - gamma L``,
``E_lam`` and ``S``, and the traces of finer levels onto it.  The resistance
diameter solves for blocks of ``BLOCK_COLUMNS`` columns of the Green
function with the Laplacian's steps (:func:`_green_columns`): every pair of
a bare network, or only the corners of the cell pairs that a cell-scaling
bound cannot rule out.  The package's one Krylov process, :func:`_arnoldi`,
runs over these solves: Lanczos for the eigen-certificates and
shift-and-invert Arnoldi for the semigroups.

Connected components are labelled in numpy by hooking and pointer jumping
(:func:`_components`; Shiloach & Vishkin 1982, in the FastSV form of Zhang,
Azad & Hu 2020) and numbered by their least vertex.  The elimination needs
them only for its pivot blocks: a pivot component with no edge into the
coarser set is a part of the network that misses the coarser set, so
connectivity is checked step by step and, at the end, on the traced
Laplacian of ``[0, N_0)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import sparse

from .pcf import LevelComplex

SCHUR_CLAMP = 1e-14
BLOCK_COLUMNS = 64  # Green-function columns per solve in resistance_diameter
GROUND = 1e3  # the shift at vertex 0 in _green_columns, per unit of its degree
PLAN_BYTES = 32 * 2**20  # memory of the cached elimination plans (_plan)
_PLANS: dict = {}  # step plans by pattern, least recently used first


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
        self._laplacian = None
        self._eliminations: dict = {}  # _eliminate_onto's results by boundary size

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
        """The graph Laplacian, built once and read-only: every reader shares
        it."""
        if self._laplacian is None:
            deg = np.asarray(self.c.sum(axis=1)).ravel()
            lap = (sparse.diags(deg) - self.c).tocsr()
            for x in (lap.data, lap.indices, lap.indptr):
                x.flags.writeable = False
            self._laplacian = lap
        return self._laplacian


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
    """:func:`_eliminate` of the Laplacian's ``[k, n)`` through the nested
    sets above ``k`` (no steps for ``k == n``), made on the first call for
    ``k`` and kept on the network: traces, harmonic extensions and the Green
    columns onto one boundary share it.

    ``k`` must be a boundary size ``1..n``.  Interior components that do
    not touch the boundary ``[0, k)`` make the interior block singular;
    :func:`_eliminate` rejects them, and nothing is kept.
    """
    if not 1 <= k <= net.n:
        raise NetworkError(f"boundary of {k} vertices on a network of {net.n}")
    if k not in net._eliminations:
        bounds = sorted({k, *(c for c in net.counts if c > k), net.n})
        net._eliminations[k] = _eliminate(net.laplacian(), bounds)
    return net._eliminations[k]


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
    sets, all extended by the steps of the network's one elimination onto
    ``[0, k)`` (:func:`_eliminate_onto`, shared with :func:`trace`).
    Returns the ``(n,)`` or ``(N, n)`` extensions: each agrees with its data
    on ``[0, k)`` and the Laplacian vanishes at every other vertex.  Each
    row equals its data extended alone.
    """
    fb = np.asarray(values, dtype=float)
    steps, _ = _eliminate_onto(net, fb.shape[-1])
    u = np.empty((net.n, *fb.shape[:-1]))
    u[:fb.shape[-1]] = fb.T
    for lo, _, h, _ in steps:  # coarse to fine
        u[lo:lo + h.shape[0]] = h @ u[:lo]
    return np.ascontiguousarray(u.T)


def _components(a) -> tuple[int, np.ndarray]:
    """The number of connected components of the graph of a CSR matrix with
    a symmetric pattern, and each vertex's component, numbered by
    their least vertices in increasing order.

    FastSV hooking and shortcutting (Zhang, Azad & Hu 2020): each round
    every vertex takes the least grandparent over itself and its
    neighbours, for its own parent and its parent's, until no grandparent
    changes.  Parents only decrease, so then every parent is its own
    parent and equals its neighbours' parents: the least vertex of the
    component.
    """
    n = a.shape[0]
    rows = np.flatnonzero(np.diff(a.indptr))
    f, gf = np.arange(n), np.arange(n)  # parents and grandparents
    while True:
        low = gf.copy()  # least grandparent over each vertex and its neighbours
        if rows.size:
            low[rows] = np.minimum(low[rows], np.minimum.reduceat(gf[a.indices], a.indptr[rows]))
        np.minimum.at(f, f.copy(), low)  # hook each parent
        np.minimum(f, low, out=f)  # hook each vertex, and shortcut
        new = f[f]
        if np.array_equal(new, gf):
            break
        gf = new
    roots = f == np.arange(n)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[f]


def _csr(data: np.ndarray, block) -> sparse.csr_matrix:
    """The block ``(entries, indices, indptr, shape)`` of a plan, with the
    values ``data`` of the matrix it was split from."""
    entries, indices, indptr, shape = block
    return sparse.csr_matrix((data[entries], indices, indptr), shape=shape, copy=False)


def _make_plan(a, lo: int):
    """What the step at ``lo`` needs of ``a``'s pattern alone: the blocks
    ``A_IS``, ``A_SI``, ``A_SS`` (entries in the order slicing keeps), per
    pivot component size ``(count, size, entries, places in the dense
    blocks, places in the inverse's rows)``, the inverse's CSR pattern and
    the plan's bytes."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    blocks = []
    for r0, c0 in ((lo, lo), (lo, 0), (0, lo), (0, 0)):
        entries = np.flatnonzero(((rows < lo) == (r0 == 0)) & ((a.indices < lo) == (c0 == 0)))
        shape = (lo if r0 == 0 else n - lo, lo if c0 == 0 else n - lo)
        indptr = np.zeros(shape[0] + 1, dtype=a.indptr.dtype)
        np.cumsum(np.bincount(rows[entries] - r0, minlength=shape[0]), out=indptr[1:])
        blocks.append((entries, a.indices[entries] - c0, indptr, shape))
    pivot = blocks.pop(0)
    ncomp, labels = _components(_csr(a.data, pivot))
    coupled = labels[np.diff(blocks[0][2]) > 0]  # rows with an edge into S
    if not np.bincount(coupled, minlength=ncomp).all():
        raise NetworkError(
            "interior component does not touch the boundary; "
            "the interior block is singular"
        )
    sizes = np.bincount(labels, minlength=ncomp)
    order = np.argsort(labels, kind="stable")  # each component's vertices, ascending
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(n - lo, dtype=np.intp)  # place of each vertex in its component
    pos[order] = np.arange(n - lo) - np.repeat(starts, sizes)
    r, c = rows[pivot[0]] - lo, pivot[1]
    indptr = np.concatenate(([0], np.cumsum(sizes[labels]))).astype(a.indptr.dtype)
    indices = np.empty(indptr[-1], dtype=a.indices.dtype)
    groups = []
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        slot = np.full(ncomp, -1)
        slot[comps] = np.arange(len(comps))
        members = order[starts[comps][:, None] + np.arange(size)]
        mine = np.flatnonzero(slot[labels[r]] >= 0)
        rm, cm = r[mine], c[mine]
        at = (indptr[members.ravel()][:, None] + np.arange(size)).ravel()  # row by row
        indices[at] = np.repeat(members, size, axis=0).ravel()
        groups.append((len(comps), int(size), pivot[0][mine],
                       (slot[labels[rm]] * size + pos[rm]) * size + pos[cm], at))
    arrays = [*(x for b in blocks for x in b[:3]), *(x for g in groups for x in g[2:]),
              indices, indptr, a.indptr, a.indices]
    for x in arrays[:-2]:
        x.flags.writeable = False  # shared by every matrix on the pattern
    return blocks, groups, (indices, indptr), sum(x.nbytes for x in arrays)


def _plan(a, lo: int):
    """:func:`_make_plan` of ``a``'s pattern at ``lo``, made once and shared
    by every matrix on that pattern; past ``PLAN_BYTES`` the least recently
    used plans are dropped."""
    key = (lo, a.shape, a.indptr.dtype.str, a.indptr.tobytes(),
           a.indices.dtype.str, a.indices.tobytes())
    _PLANS[key] = plan = _PLANS.pop(key, None) or _make_plan(a, lo)
    while len(_PLANS) > 1 and sum(p[-1] for p in _PLANS.values()) > PLAN_BYTES:
        del _PLANS[next(iter(_PLANS))]
    return plan


def _block_inverse(data: np.ndarray, plan) -> sparse.csr_matrix:
    """Inverse of the pivot ``A_II`` of the matrix with values ``data``: one
    batched dense inverse per component size, written straight into sorted
    CSR rows."""
    _, groups, (indices, indptr), _ = plan
    out = np.empty(len(indices))
    for count, size, entries, places, at in groups:
        blocks = np.zeros(count * size * size)
        blocks[places] = data[entries]
        out[at] = np.linalg.inv(blocks.reshape(count, size, size)).ravel()
    m = len(indptr) - 1
    return sparse.csr_matrix((out, indices, indptr), shape=(m, m), copy=False)


def _solve(steps, end, b) -> np.ndarray:
    """``A^-1 b`` from the steps and the trace of :func:`_eliminate`, for an
    ``(n,)`` or ``(n, k)`` ``b``: ``b_S += K b_I`` fine to coarse, a dense
    solve on ``[0, N_0)``, then ``x_I = A_II^-1 b_I + H x_S`` coarse to fine
    (the loop of :func:`harmonic_extension`)."""
    x = np.array(b, dtype=float)
    for lo, inv, _, k in reversed(steps):
        x[:lo] += k @ x[lo:lo + inv.shape[0]]
    x[:end.shape[0]] = np.linalg.solve(end.toarray(), x[:end.shape[0]])
    for lo, inv, h, _ in steps:
        hi = lo + inv.shape[0]
        x[lo:hi] = inv @ x[lo:hi]
        x[lo:hi] += h @ x[:lo]
    return x


def _arnoldi(apply, v: np.ndarray, steps: int, dual=None, stop=None):
    """Arnoldi's process: an orthonormal basis ``v_0, v_1, ...`` of the
    Krylov space of ``apply`` from ``v``, and the Hessenberg ``H`` with
    ``apply v_j = sum_i H_ij v_i``.

    Orthonormal in ``(x, y) = x . dual(y)`` for a symmetric positive
    definite ``dual`` (the dot product without one); in it a self-adjoint
    ``apply`` gives a tridiagonal ``H`` (Lanczos).  Each new vector is
    orthogonalized by classical Gram-Schmidt done twice, which keeps the
    basis orthonormal to round-off (Giraud, Langou, Rozloznik & van den
    Eshof, *Numer. Math.* 101, 2005).  The process stops after ``steps``
    steps, at an invariant subspace (a new vector that Gram-Schmidt reduces
    to round-off, kept as zero), or once ``stop(basis, H)`` is true of the
    ``j + 2`` basis rows and the ``(j + 2, j + 1)`` Hessenberg after step
    ``j < steps``.  Returns those rows and that Hessenberg.
    """
    basis = np.zeros((min(steps + 1, 64), len(v)))  # rows doubled as needed
    duals = basis if dual is None else np.zeros_like(basis)  # dual(v_i)
    h = np.zeros((steps + 1, steps))
    w, dw = v, v if dual is None else dual(v)
    for j in range(steps + 1):
        norm = math.sqrt(max(float(w @ dw), 0.0))
        if j and norm <= 1e-14 * np.abs(h[:j, j - 1]).sum():
            norm = 0.0  # an invariant subspace
        if j:
            h[j, j - 1] = norm
        if j == len(basis):  # double the rows, up to steps + 1
            more = np.zeros((min(j, steps + 1 - j), len(v)))
            basis = np.concatenate([basis, more])
            duals = basis if dual is None else np.concatenate([duals, more])
        if norm:
            basis[j] = w / norm
            if dual is not None:
                duals[j] = dw / norm
        done = j == steps or not norm
        if done or (j and stop is not None and stop(basis[:j + 1], h[:j + 1, :j])):
            return basis[:j + 1], h[:j + 1, :j]
        w = apply(basis[j])
        for _ in range(2):
            c = duals[:j + 1] @ w
            w -= c @ basis[:j + 1]
            h[:j + 1, j] += c
        dw = w if dual is None else dual(w)


def _diagonal_csr(values: np.ndarray) -> sparse.csr_matrix:
    """``diag(values)`` built straight as CSR (``sparse.diags`` costs more)."""
    m = len(values)
    return sparse.csr_matrix((values, np.arange(m), np.arange(m + 1)), shape=(m, m))


def _eliminate(a, bounds: Sequence[int]):
    """Block Gaussian elimination over nested vertex sets of a CSR matrix
    with a symmetric pattern (a Laplacian, ``alpha I - L``, ``E_lam``, ``S``).

    ``bounds`` are ``N_0 < ... < N_m = n``.  The vertices
    ``I = [N_{j-1}, N_j)`` are eliminated fine to coarse: with ``S`` the
    vertices below ``N_{j-1}``, ``H = -A_II^-1 A_IS``, ``K = -A_SI A_II^-1``
    and ``A_SS + A_SI H`` is the trace onto ``S``.  The row sums ``r = a 1``
    (diagonal added last, so a Laplacian's are 0) are carried as
    ``r_S + K r_I``, and each trace's diagonal is reset to ``r`` minus its
    off-diagonal row sums: no cancellation enters it, and a Laplacian's
    trace is a Laplacian.  Fast when ``A_II`` splits into small blocks.

    Returns the steps ``(N_{j-1}, A_II^-1, H, K)`` coarse to fine and the
    trace onto ``[0, N_0)``; :func:`_solve` solves with both, a harmonic
    extension reads the steps and a trace the end.  A Laplacian's results
    are kept on its network (:func:`_eliminate_onto`).  A
    component of ``A_II`` with no edge into ``S`` misses ``[0, N_0)`` and
    raises :class:`NetworkError`; a singular pivot block raises
    ``LinAlgError``.
    """
    diagonal = a.diagonal()
    r = diagonal + np.asarray((a - _diagonal_csr(diagonal)).sum(axis=1)).ravel()
    steps = []
    for lo in reversed(bounds[:-1]):
        plan = _plan(a, lo)
        coupling, a_si, a_ss = plan[0]
        coupling, a_si = _csr(a.data, coupling), _csr(a.data, a_si)
        inv = _block_inverse(a.data, plan)
        h, k = inv @ coupling, a_si @ inv
        np.negative(h.data, out=h.data)
        np.negative(k.data, out=k.data)
        steps.append((lo, inv, h, k))
        r = r[:lo] + k @ r[lo:]
        a = (_csr(a.data, a_ss) + a_si @ h).tocsr()
        a.setdiag(0.0)
        a = (a - _diagonal_csr(np.asarray(a.sum(axis=1)).ravel() - r)).tocsr()
    return steps[::-1], a


def _green_columns(net: ConductanceNetwork):
    """The columns of ``G = (L + c e_0 e_0^T)^-1`` as a function of vertex
    ids, for a connected network of two or more vertices.

    Vertex 0 is never eliminated, so the Laplacian's steps with ``c`` added
    to the dense end at 0 factor ``L + c e_0 e_0^T`` exactly.  ``G`` is the
    Green function killed at 0 plus ``1/c``, which cancels in
    ``R(x, y) = G_xx + G_yy - 2 G_xy``; with ``c = GROUND`` times vertex 0's
    degree it is ``GROUND`` times below every ``R(0, y)``, so it costs a few
    units in the last place (``c = 1`` cost 2e-14 on SG L8).
    """
    try:
        steps, end = _eliminate_onto(net, net.counts[0] if net.counts else net.n)
    except NetworkError:  # a part of the network misses [0, N_0)
        raise NetworkError("network is disconnected") from None
    if _components(end)[0] > 1:
        raise NetworkError("network is disconnected")
    # a shifted copy: the network keeps the elimination unchanged
    shift = GROUND * net.laplacian()[0, 0]
    end = end + sparse.csr_matrix(([shift], ([0], [0])), shape=end.shape)

    def columns(ids):
        b = np.zeros((net.n, len(ids)))
        b[ids, np.arange(len(ids))] = 1.0
        return _solve(steps, end, b)

    return columns


def resistance_diameter(net: ConductanceNetwork, cells=()) -> float:
    """Largest effective resistance over all vertex pairs, from blocks of
    ``BLOCK_COLUMNS`` columns of :func:`_green_columns`.

    Without ``cells`` every pair is compared, in the memory of a few blocks.
    ``cells`` are ``(cell_ids, reach)`` of levels coarse to fine, the last
    one the network's own: row ``w`` of ``cell_ids`` holds the corners of
    cell ``w``, its children are the next level's rows ``w m .. w m + m - 1``,
    and ``reach[w]`` bounds the resistance from any vertex of the cell to
    any of its corners.  So ``R(x, y) <= R(a, b) + reach[w] + reach[v]`` for
    ``x`` in cell ``w``, ``y`` in cell ``v`` and corners ``a``, ``b``
    (Kigami, *Analysis on Fractals*, 2001, ch. 3).  From all pairs of the
    first level's cells, a pair is dropped when its least corner resistance
    plus both reaches is below the largest resistance found so far, and the
    children of the others are compared next.  Only the corners of the pairs
    compared are solved for; the finest cells' corners are every vertex, so
    the result is exact.
    """
    n = net.n
    if n < 2:
        return 0.0
    columns, width = _green_columns(net), BLOCK_COLUMNS
    best, d = 0.0, np.empty(n)  # d: diag(G) where known
    if not cells:  # last block first: the diagonal below a block is known
        for lo in reversed(range(0, n, width)):
            g = columns(np.arange(lo, min(lo + width, n)))[lo:]
            d[lo:lo + width] = g.diagonal()
            best = max(best, float((d[lo:, None] + d[lo:lo + width] - 2.0 * g).max()))
        return best

    w, v = np.triu_indices(len(cells[0][0]))
    for k, (ids, reach) in enumerate(cells):
        if k:  # the children of the pairs kept, each unordered pair once
            m = len(ids) // len(cells[k - 1][0])
            i, j = np.divmod(np.arange(m * m), m)
            w, v = (w[:, None] * m + i).ravel(), (v[:, None] * m + j).ravel()
            w, v = w[w <= v], v[w <= v]
        nb = ids.shape[1]  # R(a, b) for the corners a of w and b of v
        a, b = np.repeat(ids[w], nb, axis=1), np.tile(ids[v], nb)
        corners = np.unique(ids[np.concatenate([w, v])])
        at = np.searchsorted(corners, b.ravel())  # G_ab from the column of b
        order = np.argsort(at, kind="stable")
        bounds = np.searchsorted(at[order], np.arange(0, len(corners) + width, width))
        g = np.empty(b.size)
        for lo, start, stop in zip(range(0, len(corners), width), bounds, bounds[1:]):
            solved, mine = corners[lo:lo + width], order[start:stop]
            block = columns(solved)
            d[solved] = block[solved, np.arange(len(solved))]
            g[mine] = block[a.ravel()[mine], at[mine] - lo]
        r = d[a] + d[b] - 2.0 * g.reshape(a.shape)
        best = max(best, float(r.max()))
        # the bound is met exactly where resistances add (the interval)
        keep = r.min(axis=1) + reach[w] + reach[v] >= best * (1.0 - 1e-12)
        w, v = w[keep], v[keep]
    return best


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
