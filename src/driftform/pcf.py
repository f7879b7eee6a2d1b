"""Vertex hierarchies of finitely-ramified self-similar structures.

A structure is described by its level-1 combinatorial data: ``M`` contraction
symbols, a boundary of size ``|V0|``, gluing pairs saying which images of
boundary points coincide, and the level-1 address of every boundary point.
That data determines every deeper level by self-similarity.  Refining a level
complex applies the gluing pattern inside each cell; vertex ids are stable
under refinement and deterministic across runs (new ids are handed out in
order of the lexicographically smallest ``(word, boundary slot)`` address).

Every structure refines through the gluing pattern.  An optional affine
embedding only places the vertices: a new vertex sits at the composed-map
image of its smallest address.  The embedding must agree with the gluing
data at level 1 (images coincide, to ``COORD_TOL``, exactly where the gluing
identifies them) and must keep distinct vertices apart at every level.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

COORD_TOL = 1e-12

Address = tuple[int, int]  # (symbol, boundary slot)


class StructureError(ValueError):
    """Raised for inconsistent self-similar structure data."""


@dataclass(frozen=True)
class AffineMap:
    """Affine contraction ``x -> matrix @ x + offset``."""

    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.matrix.T + self.offset


@dataclass(frozen=True)
class Embedding:
    """Coordinates of the boundary set plus one affine map per symbol."""

    boundary_coords: np.ndarray  # (|V0|, dim)
    maps: tuple[AffineMap, ...]

    @property
    def dim(self) -> int:
        return self.boundary_coords.shape[1]


@dataclass(frozen=True)
class SelfSimilarStructure:
    """Combinatorics of a finitely-ramified self-similar set.

    ``identifications`` lists pairs of level-1 addresses that map to the same
    point; ``boundary_addresses[a]`` is a level-1 address of boundary point
    ``a`` (this encodes that the boundary is nested into level 1).  The
    optional ``scalings`` (per-symbol resistance scale factors), ``weights``
    (per-symbol measure weights) and ``base_conductances`` (edge list on the
    boundary) are carried as defaults for the energy/measure hierarchy.
    """

    symbol_count: int
    boundary_size: int
    identifications: tuple[tuple[Address, Address], ...]
    boundary_addresses: tuple[Address, ...]
    embedding: Embedding | None = None
    scalings: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None
    base_conductances: tuple[tuple[int, int, float], ...] | None = None
    name: str = "custom"

    def validate(self) -> None:
        m, nb = self.symbol_count, self.boundary_size
        if m < 2:
            raise StructureError(f"symbol_count must be >= 2, got {m}")
        if nb < 2:
            raise StructureError(f"boundary_size must be >= 2, got {nb}")
        for pair in self.identifications:
            (i, a), (j, b) = pair
            for sym, slot in pair:
                if not (0 <= sym < m and 0 <= slot < nb):
                    raise StructureError(f"identification {pair} out of range")
            if i == j:
                raise StructureError(
                    f"identification {pair} glues two boundary slots of one cell"
                )
        if len(self.boundary_addresses) != nb:
            raise StructureError(
                f"need one level-1 address per boundary point, got "
                f"{len(self.boundary_addresses)} for boundary size {nb}"
            )
        for addr in self.boundary_addresses:
            sym, slot = addr
            if not (0 <= sym < m and 0 <= slot < nb):
                raise StructureError(f"boundary address {addr} out of range")
        _level_one_pattern(self)  # raises on collapses
        if self.scalings is not None:
            if len(self.scalings) != m or not all(0 < r < 1 for r in self.scalings):
                raise StructureError("scalings must be M factors in (0, 1)")
        if self.weights is not None:
            if len(self.weights) != m or not all(w > 0 for w in self.weights):
                raise StructureError("weights must be M positive numbers")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise StructureError("weights must sum to 1")
        if self.embedding is not None:
            self._validate_embedding()

    def _validate_embedding(self) -> None:
        emb = self.embedding
        coords = emb.boundary_coords
        if coords.ndim != 2 or coords.shape[0] != self.boundary_size or coords.shape[1] < 1:
            raise StructureError(
                f"embedding boundary_coords must have shape ({self.boundary_size}, dim), "
                f"got {coords.shape}"
            )
        if len(emb.maps) != self.symbol_count:
            raise StructureError("embedding must give one affine map per symbol")
        d = emb.dim
        for i, amap in enumerate(emb.maps):
            if amap.matrix.shape != (d, d) or amap.offset.shape != (d,):
                raise StructureError(
                    f"embedding map {i} must have a {d}x{d} matrix and a length-{d} "
                    f"offset, got {amap.matrix.shape} and {amap.offset.shape}"
                )
        arrays = [coords] + [a for amap in emb.maps for a in (amap.matrix, amap.offset)]
        if not all(np.isfinite(a).all() for a in arrays):
            raise StructureError("embedding coordinates and maps must be finite")
        images = {
            (i, j): emb.maps[i](emb.boundary_coords[j])[0]
            for i in range(self.symbol_count)
            for j in range(self.boundary_size)
        }
        for pair in self.identifications:
            (i, a), (j, b) = pair
            if np.max(np.abs(images[(i, a)] - images[(j, b)])) > COORD_TOL:
                raise StructureError(
                    f"identified addresses {pair} have different coordinates"
                )
        for a, addr in enumerate(self.boundary_addresses):
            if np.max(np.abs(images[addr] - emb.boundary_coords[a])) > COORD_TOL:
                raise StructureError(
                    f"address {addr} does not land on boundary point {a}"
                )
        # The combinatorial pattern and coordinate equality must induce the
        # same level-1 partition, otherwise the gluing data is incomplete.
        pattern = _level_one_pattern(self)
        by_key: dict[tuple, set[Address]] = {}
        for addr, pt in images.items():
            by_key.setdefault(_coord_key(pt), set()).add(addr)
        coord_classes = {frozenset(s) for s in by_key.values()}
        comb_classes = {frozenset(c) for c in pattern.classes}
        if coord_classes != comb_classes:
            raise StructureError(
                "identification pairs disagree with coordinate coincidences at level 1"
            )


@dataclass(frozen=True, eq=False)
class LevelComplex:
    """All cells and vertices of one refinement level, as arrays.

    Row ``c`` of ``cell_ids`` holds the vertex ids of cell ``c`` by boundary
    slot, row ``c`` of ``words`` its address, in lexicographic order.
    ``coarser_counts`` holds the vertex counts ``N_0 < ... < N_{n-1}`` of the
    coarser levels; level ``k`` keeps the ids ``0 .. N_k - 1``.  ``maps``
    stacks each cell's composed map as ``(matrices, offsets)`` (embedded
    structures only); the next level refines from it.
    """

    level: int
    vertex_count: int
    cell_ids: np.ndarray  # (cells, |V0|)
    words: np.ndarray  # (cells, level)
    coordinates: np.ndarray | None = None
    coarser_counts: tuple[int, ...] = ()
    maps: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def word_products(self, factors: np.ndarray) -> np.ndarray:
        """Per cell, the product of the per-symbol ``factors`` along its
        word, left to right."""
        out = np.ones(len(self.cell_ids))
        for column in self.words.T:
            out = out * factors[column]
        return out

    @cached_property
    def edges(self) -> np.ndarray:
        """The ``(a, b)`` rows, ``a < b``, of vertex pairs that share a
        cell, sorted."""
        a, b = np.triu_indices(self.cell_ids.shape[1], 1)
        pairs = np.stack([self.cell_ids[:, a], self.cell_ids[:, b]], axis=-1)
        return np.unique(np.sort(pairs.reshape(-1, 2), axis=1), axis=0)


@dataclass(frozen=True)
class _GluingPattern:
    classes: tuple[tuple[Address, ...], ...]  # sorted by smallest address
    class_of: Mapping[Address, int]
    corner_of_class: Mapping[int, int]  # class index -> boundary slot it realizes


def _coord_key(point: np.ndarray) -> tuple:
    return tuple(int(round(x / COORD_TOL)) for x in np.atleast_1d(point))


def _level_one_pattern(structure: SelfSimilarStructure) -> _GluingPattern:
    m, nb = structure.symbol_count, structure.boundary_size
    addresses = [(i, j) for i in range(m) for j in range(nb)]
    parent = {a: a for a in addresses}

    def find(a: Address) -> Address:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: Address, b: Address) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for left, right in structure.identifications:
        union(tuple(left), tuple(right))

    groups: dict[Address, list[Address]] = {}
    for a in addresses:
        groups.setdefault(find(a), []).append(a)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    class_of = {a: k for k, cls in enumerate(classes) for a in cls}
    for cls in classes:
        symbols = [i for i, _ in cls]
        if len(symbols) != len(set(symbols)):
            raise StructureError(
                f"gluing collapses two boundary slots of one cell: {cls}"
            )
    corner_of_class: dict[int, int] = {}
    for a, addr in enumerate(structure.boundary_addresses):
        k = class_of[tuple(addr)]
        if k in corner_of_class:
            raise StructureError(
                f"boundary points {corner_of_class[k]} and {a} collapse to one vertex"
            )
        corner_of_class[k] = a
    return _GluingPattern(classes, class_of, corner_of_class)


def build_sierpinski_structure() -> SelfSimilarStructure:
    """The planar Sierpinski gasket on corners (1/2, sqrt(3)/2), (0,0), (1,0).

    Cell maps halve distances toward each corner; every level-1 cell meets
    each other cell in one midpoint.  Carries the standard resistance scale
    3/5 per symbol, the uniform measure weights and unit base conductances.
    """
    corners = np.array([[0.5, math.sqrt(3.0) / 2.0], [0.0, 0.0], [1.0, 0.0]])
    maps = tuple(AffineMap(0.5 * np.eye(2), corners[i] / 2.0) for i in range(3))
    structure = SelfSimilarStructure(
        symbol_count=3,
        boundary_size=3,
        identifications=(
            ((0, 1), (1, 0)),
            ((0, 2), (2, 0)),
            ((1, 2), (2, 1)),
        ),
        boundary_addresses=((0, 0), (1, 1), (2, 2)),
        embedding=Embedding(corners, maps),
        scalings=(0.6, 0.6, 0.6),
        weights=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        base_conductances=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)),
        name="sg",
    )
    structure.validate()
    return structure


def _refine(structure: SelfSimilarStructure, pattern: _GluingPattern,
            cx: LevelComplex) -> LevelComplex:
    """One refinement step through the gluing pattern: level ``n + 1`` from
    level ``n``.

    Cell by cell, the children's corner classes take the cell's own ids and
    the fresh classes new ids in class order.  With an embedding each child
    map is the cell map composed with a symbol map, and a new vertex sits at
    the image of its smallest address.
    """
    emb = structure.embedding
    m, nb = structure.symbol_count, structure.boundary_size
    cells = len(cx.cell_ids)
    fresh = [k for k in range(len(pattern.classes)) if k not in pattern.corner_of_class]
    count = cx.vertex_count + cells * len(fresh)
    class_vertex = np.empty((cells, len(pattern.classes)), dtype=np.int64)
    for k, slot in pattern.corner_of_class.items():
        class_vertex[:, k] = cx.cell_ids[:, slot]
    class_vertex[:, fresh] = np.arange(cx.vertex_count, count).reshape(cells, len(fresh))
    child_classes = [[pattern.class_of[(i, j)] for j in range(nb)] for i in range(m)]
    cell_ids = class_vertex[:, child_classes].reshape(cells * m, nb)
    words = np.column_stack([np.repeat(cx.words, m, axis=0), np.tile(np.arange(m), cells)])
    coordinates = maps = None
    if emb is not None:
        matrices, offsets = cx.maps
        outer = matrices[:, None]  # (cells, 1, d, d) against the M symbol maps
        child_matrices = outer @ np.stack([f.matrix for f in emb.maps])
        child_offsets = (outer @ np.stack([f.offset for f in emb.maps])[..., None])[..., 0]
        child_offsets += offsets[:, None]
        images = (emb.boundary_coords @ np.swapaxes(child_matrices, -1, -2)
                  + child_offsets[:, :, None])  # (cells, M, |V0|, d)
        i, j = np.array([pattern.classes[k][0] for k in fresh], dtype=np.intp).reshape(-1, 2).T
        coordinates = np.concatenate([cx.coordinates, images[:, i, j].reshape(-1, emb.dim)])
        maps = (child_matrices.reshape(-1, emb.dim, emb.dim),
                child_offsets.reshape(-1, emb.dim))
    return LevelComplex(cx.level + 1, count, cell_ids, words, coordinates,
                        cx.coarser_counts + (cx.vertex_count,), maps)


def _reject_coincident(coordinates: np.ndarray) -> None:
    """Refuse an embedding that places two distinct vertices at one point."""
    keys = np.rint(coordinates / COORD_TOL)
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    if len(first) == len(keys):
        return
    owner = first[inverse.ravel()]
    v = int(np.flatnonzero(owner != np.arange(len(keys)))[0])
    raise StructureError(
        f"embedding places vertices {int(owner[v])} and {v} at one point "
        f"{coordinates[v].tolist()}, but the gluing data keeps them apart"
    )


def build_level(
    structure: SelfSimilarStructure, n: int, coarser: LevelComplex | None = None
) -> LevelComplex:
    """Build the level-``n`` complex; ids of coarser levels are preserved.

    ``coarser``, the level-``n - 1`` complex of the same structure, is
    refined once; without it the levels are refined from level 0.  Raises
    :class:`StructureError` for negative levels, inconsistent structure
    data, or an embedding that makes two vertices coincide.
    """
    if n < 0:
        raise StructureError(f"level must be >= 0, got {n}")
    structure.validate()
    pattern = _level_one_pattern(structure)
    emb = structure.embedding
    if coarser is None:  # the one cell on the boundary, the identity its map
        coordinates = maps = None
        if emb is not None:
            coordinates = np.array(emb.boundary_coords, dtype=float)
            maps = (np.eye(emb.dim)[None], np.zeros((1, emb.dim)))
        cells = np.arange(structure.boundary_size, dtype=np.int64)[None]
        cx = LevelComplex(0, structure.boundary_size, cells, np.zeros((1, 0), dtype=np.intp),
                          coordinates, (), maps)
    elif coarser.level == n - 1:
        cx = coarser
    else:
        raise StructureError(f"level {n} refines level {n - 1}, got level {coarser.level}")
    while cx.level < n:
        cx = _refine(structure, pattern, cx)
    if cx.coordinates is not None:
        _reject_coincident(cx.coordinates)
    return cx


def vertex_count(structure: SelfSimilarStructure, n: int) -> int:
    """The vertex count of level ``n >= 0``, unbuilt: ``N_0 = |V0|`` and
    ``N_{k+1} = N_k + M^k F``, each of the ``M^k`` cells of level ``k`` adding
    the ``F`` fresh classes of the level-1 gluing pattern (see :func:`_refine`)."""
    pattern = _level_one_pattern(structure)
    fresh = len(pattern.classes) - len(pattern.corner_of_class)
    m = structure.symbol_count
    return structure.boundary_size + fresh * (m**n - 1) // (m - 1)


def measure_weights(structure: SelfSimilarStructure, complex_: LevelComplex) -> np.ndarray:
    """Probability weights on the level's vertices.

    Each cell spreads its measure ``theta_w`` (the product of the
    structure's per-symbol weights along the cell's word, uniform when it
    has none) uniformly over its boundary vertices, so the total mass is 1
    and every vertex carries positive weight.
    """
    theta = structure.weights
    if theta is None:
        theta = [1.0 / structure.symbol_count] * structure.symbol_count
    theta = np.asarray(theta, dtype=float)
    share = 1.0 / structure.boundary_size
    ids = complex_.cell_ids
    weights = np.repeat(complex_.word_products(theta) * share, ids.shape[1])
    return np.bincount(ids.ravel(), weights=weights, minlength=complex_.vertex_count)


# ---------------------------------------------------------------------------
# Structured-text configuration (documented in docs/structure_config.md)
# ---------------------------------------------------------------------------

def _number(v):
    """``v`` unless it is a boolean: JSON ``true`` is not a number."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"expected a number, got {v!r}")
    return v


def structure_from_dict(d: Mapping) -> SelfSimilarStructure:
    def index(v):  # integers only: 1.5, "1" or true is an error, not 1
        return operator.index(_number(v))

    def real(v):  # true is an error, not 1.0
        return float(_number(v))

    def reals(v):  # nested lists of reals as a float array
        a = np.array(v, dtype=object)
        return np.array([real(x) for x in a.ravel()], dtype=float).reshape(a.shape)

    try:
        embedding = None
        if "embedding" in d and d["embedding"] is not None:
            emb = d["embedding"]
            embedding = Embedding(
                boundary_coords=reals(emb["boundary_coords"]),
                maps=tuple(AffineMap(reals(m["matrix"]), reals(m["offset"]))
                           for m in emb["maps"]),
            )
        structure = SelfSimilarStructure(
            symbol_count=index(d["symbol_count"]),
            boundary_size=index(d["boundary_size"]),
            identifications=tuple(
                ((index(i), index(a)), (index(j), index(b)))
                for (i, a), (j, b) in d["identifications"]
            ),
            boundary_addresses=tuple(
                (index(i), index(a)) for i, a in d["boundary_addresses"]
            ),
            embedding=embedding,
            scalings=tuple(real(r) for r in d["scalings"]) if d.get("scalings") else None,
            weights=tuple(real(w) for w in d["weights"]) if d.get("weights") else None,
            base_conductances=tuple(
                (index(a), index(b), real(c)) for a, b, c in d["base_conductances"]
            )
            if d.get("base_conductances")
            else None,
            name=d.get("name", "custom"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed structure config: {exc}") from exc
    structure.validate()
    return structure


def load_structure(path) -> SelfSimilarStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))
