"""Vertex hierarchy construction and its combinatorial invariants."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from driftform import pcf
from driftform import tower as tw
from driftform.resistance import assemble_self_similar
from oracles import tuple_level, tuple_measure, tuple_network


SQ3 = math.sqrt(3.0)
CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"


def brute_force_vertex_count(structure: pcf.SelfSimilarStructure, n: int) -> int:
    """Independent oracle: enumerate all words of length n, push the boundary
    coordinates through explicitly composed maps, and dedup by rounding."""
    emb = structure.embedding
    seen = set()
    for word in itertools.product(range(structure.symbol_count), repeat=n):
        pts = emb.boundary_coords
        for sym in reversed(word):
            pts = emb.maps[sym](pts)
        for p in np.atleast_2d(pts):
            seen.add(tuple(round(float(x), 10) for x in p))
    return len(seen)


def composed_image(structure: pcf.SelfSimilarStructure, word, slot) -> np.ndarray:
    """Image of boundary slot ``slot`` under ``F_word``, composing the maps
    outermost first: ``M, b <- M A_i, M c_i + b`` for each symbol ``i``."""
    emb = structure.embedding
    mat, off = np.eye(emb.dim), np.zeros(emb.dim)
    for sym in word:
        mat, off = mat @ emb.maps[sym].matrix, mat @ emb.maps[sym].offset + off
    return (emb.boundary_coords @ mat.T + off)[slot]


def smallest_addresses(structure: pcf.SelfSimilarStructure, n: int) -> list:
    """Per vertex of level ``n``: the level it is born at and its smallest
    ``(word, slot)`` address there."""
    born: dict[int, tuple] = {}
    for level in range(n + 1):
        new: dict[int, tuple] = {}
        cx = pcf.build_level(structure, level)
        for word, ids in zip(map(tuple, cx.words.tolist()), cx.cell_ids.tolist()):
            for slot, vid in enumerate(ids):
                if vid not in born:
                    new[vid] = min(new.get(vid, (level, word, slot)), (level, word, slot))
        born.update(new)
    return [born[v] for v in range(len(born))]


def skewed_gasket() -> pcf.SelfSimilarStructure:
    """The gasket on a scalene triangle: images of one point through its
    different addresses agree only to rounding, so the coordinate of a vertex
    shows which address placed it."""
    corners = np.array([[0.1, 0.2], [0.9, 0.15], [0.45, 0.8]])
    maps = tuple(pcf.AffineMap(0.5 * np.eye(2), c / 2.0) for c in corners)
    return dataclasses.replace(
        pcf.build_sierpinski_structure(), embedding=pcf.Embedding(corners, maps)
    )


def overlapping_interval() -> dict:
    """Three half-scale maps of [0, 1] with offsets 0, 1/4, 1/2: level 1 is
    consistent with the gluing ``(0, 1) ~ (2, 0)``, deeper levels overlap."""
    return {
        "symbol_count": 3,
        "boundary_size": 2,
        "identifications": [[[0, 1], [2, 0]]],
        "boundary_addresses": [[0, 0], [2, 1]],
        "embedding": {
            "boundary_coords": [[0.0], [1.0]],
            "maps": [{"matrix": [[0.5]], "offset": [o]} for o in (0.0, 0.25, 0.5)],
        },
    }


class TestSierpinskiStructure:
    def test_boundary_coordinates(self):
        sg = pcf.build_sierpinski_structure()
        expected = {(0.5, SQ3 / 2.0), (0.0, 0.0), (1.0, 0.0)}
        got = {tuple(p) for p in sg.embedding.boundary_coords}
        assert got == expected

    def test_level_zero_is_boundary_triangle(self):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, 0)
        assert cx.vertex_count == 3
        assert len(cx.cell_ids) == 1
        assert len(cx.edges) == 3

    def test_level_one_counts(self):
        cx = pcf.build_level(pcf.build_sierpinski_structure(), 1)
        # 3 cells x 3 edges with no shared edges; midpoint identification
        # leaves 3*(3+1)/2 = 6 vertices.
        assert cx.vertex_count == 6
        assert len(cx.cell_ids) == 3
        assert len(cx.edges) == 9

    def test_level_two_counts_against_coordinate_oracle(self):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, 2)
        assert len(cx.cell_ids) == 9
        assert cx.vertex_count == brute_force_vertex_count(sg, 2) == 15

    @pytest.mark.parametrize("n", range(6))
    def test_vertex_count_formula(self, n):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, n)
        assert cx.vertex_count == brute_force_vertex_count(sg, n)
        assert cx.vertex_count == 3 * (3**n + 1) // 2
        assert len(cx.cell_ids) == 3**n


class TestRefinement:
    def test_vertex_ids_stable(self):
        sg = pcf.build_sierpinski_structure()
        prev = pcf.build_level(sg, 0)
        for n in range(1, 5):
            cur = pcf.build_level(sg, n)
            assert prev.vertex_count < cur.vertex_count
            # shared ids keep their coordinates
            np.testing.assert_allclose(
                cur.coordinates[: prev.vertex_count], prev.coordinates, atol=0
            )
            prev = cur

    def test_every_edge_in_exactly_one_cell(self):
        # finitely ramified: cells meet only at vertices
        sg = pcf.build_sierpinski_structure()
        for n in (1, 2, 3):
            cx = pcf.build_level(sg, n)
            count = {e: 0 for e in map(tuple, cx.edges.tolist())}
            for ids in cx.cell_ids.tolist():
                for a, b in itertools.combinations(ids, 2):
                    count[(min(a, b), max(a, b))] += 1
            assert set(count.values()) == {1}

    def test_embedding_consistency(self):
        # child cell corners are the affine images of the boundary under the
        # composed word map
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, 3)
        emb = sg.embedding
        for word, ids in zip(cx.words.tolist(), cx.cell_ids.tolist()):
            pts = emb.boundary_coords
            for sym in reversed(word):
                pts = emb.maps[sym](pts)
            np.testing.assert_allclose(
                cx.coordinates[list(ids)], np.atleast_2d(pts), atol=1e-12
            )

    def test_cells_ordered_lexicographically(self):
        cx = pcf.build_level(pcf.build_sierpinski_structure(), 2)
        words = [tuple(w) for w in cx.words.tolist()]
        assert words == sorted(words)


class TestSmallestAddressOracle:
    """A vertex sits at the image of its smallest address at its birth level,
    and new ids are handed out in the order of those addresses."""

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("make", [pcf.build_sierpinski_structure, skewed_gasket])
    def test_gasket_coordinates_are_smallest_address_images(self, make, n):
        structure = make()
        cx = pcf.build_level(structure, n)
        for vid, (_, word, slot) in enumerate(smallest_addresses(structure, n)):
            assert np.array_equal(cx.coordinates[vid], composed_image(structure, word, slot))

    def test_skewed_gasket_addresses_disagree_in_rounding(self):
        # the oracle above can tell addresses apart only if some do disagree
        structure = skewed_gasket()
        gaps = [
            np.max(np.abs(composed_image(structure, word + (0, i), k)
                          - composed_image(structure, word + (0, k), i)))
            for word in itertools.product(range(3), repeat=2)
            for i, k in ((1, 2), (2, 1))
        ]
        assert 0 < max(gaps) < pcf.COORD_TOL

    def test_interval_coordinates_are_smallest_address_images(self, interval_config):
        interval = pcf.load_structure(interval_config)
        cx = pcf.build_level(interval, 5)
        for vid, (_, word, slot) in enumerate(smallest_addresses(interval, 5)):
            assert np.array_equal(cx.coordinates[vid], composed_image(interval, word, slot))

    @pytest.mark.parametrize("embedded", [True, False])
    def test_ids_ascend_with_smallest_address(self, embedded):
        sg = pcf.build_sierpinski_structure()
        if not embedded:
            sg = dataclasses.replace(sg, embedding=None)
        addresses = smallest_addresses(sg, 4)
        assert addresses == sorted(addresses)

    def test_overlapping_embedding_rejected(self):
        structure = pcf.structure_from_dict(overlapping_interval())
        assert pcf.build_level(structure, 1).vertex_count == 5
        # the gluing data gives 14 vertices at level 2; the maps put them
        # on 9 points
        stripped = dataclasses.replace(structure, embedding=None)
        assert pcf.build_level(stripped, 2).vertex_count == 14
        with pytest.raises(pcf.StructureError, match="at one point"):
            pcf.build_level(structure, 2)


class TestCellsContaining:
    def test_midpoint_in_two_cells(self):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, 1)
        for mid in (3, 4, 5):
            assert sum(mid in ids for ids in cx.cell_ids.tolist()) == 2

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_corner_in_one_cell(self, n):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, n)
        for corner in (0, 1, 2):
            assert sum(corner in ids for ids in cx.cell_ids.tolist()) == 1


class TestValidation:
    def test_negative_level_rejected(self):
        with pytest.raises(pcf.StructureError):
            pcf.build_level(pcf.build_sierpinski_structure(), -1)

    def test_same_cell_identification_rejected(self):
        sg = pcf.build_sierpinski_structure()
        bad = dataclasses.replace(
            sg, embedding=None, identifications=(((0, 0), (0, 1)),)
        )
        with pytest.raises(pcf.StructureError, match="one cell"):
            bad.validate()

    def test_transitive_collapse_rejected(self):
        # closure would merge two slots of cell 0
        sg = pcf.build_sierpinski_structure()
        bad = dataclasses.replace(
            sg,
            embedding=None,
            identifications=(((0, 1), (1, 0)), ((1, 0), (0, 2))),
        )
        with pytest.raises(pcf.StructureError, match="collapses"):
            pcf.build_level(bad, 1)

    def test_boundary_point_collapse_rejected(self):
        sg = pcf.build_sierpinski_structure()
        bad = dataclasses.replace(
            sg, embedding=None, boundary_addresses=((0, 0), (0, 0), (2, 2))
        )
        with pytest.raises(pcf.StructureError, match="boundary points"):
            bad.validate()

    def test_embedding_disagreement_rejected(self):
        sg = pcf.build_sierpinski_structure()
        # drop one gluing pair: coordinates still coincide at the midpoint,
        # so the combinatorial data is incomplete
        bad = dataclasses.replace(sg, identifications=sg.identifications[:2])
        with pytest.raises(pcf.StructureError, match="disagree"):
            bad.validate()


class TestBuildRoutes:
    def test_combinatorial_matches_coordinates_sg(self):
        sg = pcf.build_sierpinski_structure()
        sg_comb = dataclasses.replace(sg, embedding=None)
        for n in range(5):
            a = pcf.build_level(sg, n)
            b = pcf.build_level(sg_comb, n)
            assert np.array_equal(a.words, b.words)
            assert np.array_equal(a.cell_ids, b.cell_ids)
            assert np.array_equal(a.edges, b.edges)
            assert a.vertex_count == b.vertex_count

    def test_interval_structure(self, interval_config):
        interval = pcf.load_structure(interval_config)
        for n in range(6):
            cx = pcf.build_level(interval, n)
            assert cx.vertex_count == 2**n + 1
            # coordinates are exactly the dyadic grid
            got = sorted(float(x) for x in cx.coordinates[:, 0])
            assert got == [k / 2**n for k in range(2**n + 1)]

    def test_interval_combinatorial_route(self, interval_config):
        interval = pcf.load_structure(interval_config)
        stripped = dataclasses.replace(interval, embedding=None)
        for n in range(5):
            a, b = pcf.build_level(stripped, n), pcf.build_level(interval, n)
            assert np.array_equal(a.words, b.words)
            assert np.array_equal(a.cell_ids, b.cell_ids)


def shipped_structure(name: str) -> pcf.SelfSimilarStructure:
    return pcf.load_structure(CONFIGS / f"{name}.json")


class TestArrayRoute:
    """Each level refined once from the coarser one, as arrays, gives what
    the tuple route from level 0 gives, bit for bit."""

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("make", [
        pcf.build_sierpinski_structure,
        skewed_gasket,
        lambda: shipped_structure("interval"),
        lambda: shipped_structure("sg_combinatorial"),
    ], ids=["sg", "skewed_gasket", "interval", "sg_combinatorial"])
    def test_matches_tuple_route(self, make, n):
        structure = make()
        tower = tw.LevelTower(structure)
        cx, ref = tower.complex(n), tuple_level(structure, n)
        assert [tuple(w) for w in cx.words.tolist()] == [w for w, _ in ref["cells"]]
        assert [tuple(i) for i in cx.cell_ids.tolist()] == [i for _, i in ref["cells"]]
        assert [tuple(e) for e in cx.edges.tolist()] == ref["edges"]
        assert cx.vertex_count == ref["vertex_count"]
        assert cx.coarser_counts == ref["coarser_counts"]
        if ref["coordinates"] is None:
            assert cx.coordinates is None
        else:
            assert np.array_equal(cx.coordinates, ref["coordinates"])
        # non-uniform factors make the order of the products matter
        m = structure.symbol_count
        for r in (tower.scalings, np.linspace(0.31, 0.77, m)):
            got = assemble_self_similar(tower.base_network, r, cx).c
            want = tuple_network(tower.base_network, r, ref).c
            assert got.shape == want.shape and (got != want).nnz == 0
        for theta in (structure.weights, np.arange(1.0, m + 1) / (m * (m + 1) / 2)):
            weighted = dataclasses.replace(structure, weights=tuple(theta))
            assert np.array_equal(pcf.measure_weights(weighted, cx),
                                  tuple_measure(structure, ref, theta))

    def test_coarser_level_must_be_the_one_below(self):
        sg = pcf.build_sierpinski_structure()
        with pytest.raises(pcf.StructureError, match="refines level 2"):
            pcf.build_level(sg, 3, pcf.build_level(sg, 1))


class TestMeasure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sg_weights(self, n):
        sg = pcf.build_sierpinski_structure()
        cx = pcf.build_level(sg, n)
        mu = pcf.measure_weights(sg, cx)
        corner = (1.0 / 3.0) ** (n + 1)
        for v in range(cx.vertex_count):
            expected = corner if v < 3 else 2.0 * corner
            assert mu[v] == pytest.approx(expected, rel=1e-14)
        assert mu.sum() == pytest.approx(1.0, abs=1e-14)
        assert mu.min() > 0

    def test_bad_theta_rejected(self):
        # the measure reads the structure's weights, checked when the
        # structure is validated (as every tower does)
        sg = pcf.build_sierpinski_structure()
        for theta in ((0.5, 0.5, 0.5), (1.0, 0.0, 0.0)):
            with pytest.raises(pcf.StructureError, match="weights must"):
                dataclasses.replace(sg, weights=theta).validate()


class TestConfigIO:
    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"symbol_count": 2}')
        with pytest.raises(pcf.StructureError, match="malformed"):
            pcf.load_structure(path)

    def test_retired_density_key_still_loads(self):
        # configs written before the density flag was retired keep loading
        data = json.loads((CONFIGS / "sg_weighted.json").read_text())
        assert pcf.structure_from_dict({**data, "assumed_dense": True}) == \
            pcf.structure_from_dict(data)
