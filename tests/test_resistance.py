"""Energy calculus on finite networks: traces, extensions, resistances."""

import gc
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from driftform import pcf, resistance
from driftform import tower as tw
from driftform.resistance import (
    ConductanceNetwork,
    NetworkError,
    _green_columns,
    assemble_self_similar,
    energy,
    harmonic_extension,
    resistance_diameter,
    trace,
)
from driftform.cli import read_vertex_function, write_vertex_function_report
from driftform.tower import LevelTower
from oracles import (
    TWO_TERM_DRIFT,
    dense_harmonic_extension,
    edge_list,
    effective_resistance,
    laplacian_elimination,
    resistance_matrix,
)

CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"


def brute_force_energy(net: ConductanceNetwork, f, g) -> float:
    """Independent oracle: the double sum over ordered vertex pairs."""
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    total = 0.0
    c = net.c.toarray()
    for x in range(net.n):
        for y in range(net.n):
            if x != y:
                total += c[x, y] * (f[x] - f[y]) * (g[x] - g[y])
    return 0.5 * total


@st.composite
def connected_networks(draw):
    """Random small connected networks: a random tree plus extra edges."""
    n = draw(st.integers(min_value=3, max_value=7))
    conducts = st.floats(min_value=0.1, max_value=10.0)
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((u, v, draw(conducts)))
    extra = draw(st.integers(min_value=0, max_value=3))
    present = {(min(a, b), max(a, b)) for a, b, _ in edges}
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        if (a, b) not in present:
            present.add((a, b))
            edges.append((a, b, draw(conducts)))
    return ConductanceNetwork.from_edges(edges, n)


@st.composite
def nested_networks(draw):
    """A random connected network with random nested counts, and a boundary
    size ``k`` that is not one of them."""
    net = draw(connected_networks())
    counts = sorted(draw(st.sets(st.integers(min_value=1, max_value=net.n - 1))))
    k = draw(st.integers(min_value=1, max_value=net.n).filter(lambda k: k not in counts))
    return ConductanceNetwork(net.c, counts), k


class TestEnergy:
    def test_constant_has_zero_energy(self, unit_triangle):
        assert energy(unit_triangle, np.full(3, 4.2)) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_on_unit_triangle(self, unit_triangle):
        # ordered pairs contribute 1+1+0 twice, halved
        assert energy(unit_triangle, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(3)
        net = ConductanceNetwork.from_edges(
            [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (0, 3, 3.0), (1, 3, 0.25)]
        )
        for _ in range(5):
            f, g = rng.standard_normal((2, net.n))
            assert energy(net, f, g) == pytest.approx(brute_force_energy(net, f, g))

    def test_symmetric_bilinear(self):
        net = ConductanceNetwork.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        rng = np.random.default_rng(5)
        f, g, h = rng.standard_normal((3, 3))
        assert energy(net, f, g) == pytest.approx(energy(net, g, f))
        assert energy(net, f + h, g) == pytest.approx(
            energy(net, f, g) + energy(net, h, g)
        )

    def test_level_one_energy_of_harmonic_data_equals_base(self, sg_tower):
        # restriction of the harmonic extension keeps the base energy
        h1 = harmonic_extension(sg_tower.network(1), [1.0, 0.0, 0.0])
        e1 = energy(sg_tower.network(1), h1)
        e0 = energy(sg_tower.base_network, np.array([1.0, 0.0, 0.0]))
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_dimension_mismatch_rejected(self, unit_triangle):
        with pytest.raises(NetworkError):
            energy(unit_triangle, np.ones(4))


class TestTrace:
    def test_sg_level_one_traces_to_unit_triangle(self, sg_tower):
        traced = trace(sg_tower.network(1), 3)
        expected = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
        got = {(x, y): c for x, y, c in edge_list(traced)}
        assert got.keys() == expected.keys()
        for k in expected:
            assert got[k] == pytest.approx(expected[k], rel=1e-12)

    def test_series_path(self):
        # 0-2-1 with unit conductances: resistances add, so the trace onto
        # the ends 0, 1 is a single conductance 1/2
        net = ConductanceNetwork.from_edges([(0, 2, 1.0), (2, 1, 1.0)])
        traced = trace(net, 2)
        assert traced.n == 2
        assert edge_list(traced) == [(0, 1, pytest.approx(0.5))]

    def test_idempotent_on_full_boundary(self):
        net = ConductanceNetwork.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        again = trace(trace(net, 3), 3)
        np.testing.assert_allclose(again.c.toarray(), net.c.toarray())

    @settings(max_examples=25, deadline=None)
    @given(connected_networks())
    def test_tower_property(self, net):
        # tracing in stages equals tracing directly: A subset of B
        b = min(4, net.n)
        a = 2
        direct = trace(net, a)
        staged = trace(trace(net, b), a)
        np.testing.assert_allclose(
            staged.c.toarray(), direct.c.toarray(), atol=1e-10
        )

    def test_trace_energy_is_minimum_extension_energy(self, sg_tower):
        net = sg_tower.network(2)
        traced = trace(net, 3)
        rng = np.random.default_rng(11)
        fb = [1.3, -0.2, 0.4]
        ext = harmonic_extension(net, fb)
        e_min = energy(net, ext)
        assert energy(traced, np.array([1.3, -0.2, 0.4])) == pytest.approx(e_min)
        for _ in range(10):
            candidate = ext.copy()
            candidate[3:] += 0.1 * rng.standard_normal(net.n - 3)
            assert energy(net, candidate) >= e_min - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(nested_networks())
    def test_prefix_between_counts_matches_dense_oracle(self, case):
        # the trace's Laplacian is the energy matrix of the extended
        # boundary indicators
        net, k = case
        ext = dense_harmonic_extension(net, np.eye(k))
        np.testing.assert_allclose(harmonic_extension(net, np.eye(k)), ext,
                                   rtol=0, atol=1e-12)
        traced = trace(net, k)
        np.testing.assert_allclose(traced.laplacian().toarray(),
                                   ext @ net.laplacian() @ ext.T, rtol=0, atol=1e-10)
        assert traced.counts == tuple(c for c in net.counts if c < k)

    def test_empty_boundary_rejected(self, unit_triangle):
        with pytest.raises(NetworkError):
            trace(unit_triangle, 0)

    def test_stranded_interior_rejected(self):
        # two components; boundary only touches one of them.  The stranded
        # one is found at the first elimination step, or (counts (3,)) at
        # the second, once vertex 3 is gone
        net = ConductanceNetwork.from_edges([(0, 1, 1.0), (2, 3, 1.0)], 4)
        for counts in ((), (2,), (3,)):
            with pytest.raises(NetworkError, match="does not touch the boundary"):
                trace(nested(net, counts), 1)
            with pytest.raises(NetworkError, match="does not touch the boundary"):
                harmonic_extension(nested(net, counts), [1.0])


class TestHarmonicExtension:
    def test_constants_extend_to_constants(self, sg_tower):
        ext = harmonic_extension(sg_tower.network(2), [7.0, 7.0, 7.0])
        np.testing.assert_allclose(ext, 7.0)

    def test_one_fifth_two_fifths_rule(self, sg_tower):
        # independent oracle: solve the 3x3 interior system by hand.
        # Midpoints m01, m02, m12 each average their four neighbours:
        #   m01 = (1 + 0 + m02 + m12)/4, m02 = (1 + 0 + m01 + m12)/4,
        #   m12 = (0 + 0 + m01 + m02)/4
        A = np.array([[4.0, -1.0, -1.0], [-1.0, 4.0, -1.0], [-1.0, -1.0, 4.0]])
        rhs = np.array([1.0, 1.0, 0.0])
        oracle = np.linalg.solve(A, rhs)
        ext = harmonic_extension(sg_tower.network(1), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(ext[3:], oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, [0.4, 0.4, 0.2], atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rule_in_rationals(self, sg_tower, n):
        # each new vertex, the midpoint of the edge (p_i, p_j) of its parent
        # cell, takes 2/5 (f(p_i) + f(p_j)) + 1/5 f(p_k); child i of a cell
        # keeps corner i and puts the midpoint of (p_i, p_j) in slot j
        exact = [Fraction(1), Fraction(0), Fraction(0)]
        for m in range(1, n + 1):
            cx, parents = sg_tower.complex(m), sg_tower.complex(m - 1).cell_ids
            exact += [None] * (cx.vertex_count - len(exact))
            for c, ids in enumerate(cx.cell_ids):
                p, i = parents[c // 3], c % 3
                for j in {0, 1, 2} - {i}:
                    k = 3 - i - j
                    exact[ids[j]] = (2 * (exact[p[i]] + exact[p[j]]) + exact[p[k]]) / 5
        ext = harmonic_extension(sg_tower.network(n), [1.0, 0.0, 0.0])
        assert max(abs(Fraction(u) - e) for u, e in zip(ext, exact)) <= 1e-15

    def test_interior_laplacian_vanishes(self, sg_tower):
        net = sg_tower.network(3)
        ext = harmonic_extension(net, [1.0, -1.0, 0.5])
        residual = net.laplacian() @ ext
        assert np.max(np.abs(residual[3:])) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        connected_networks(),
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2),
    )
    def test_maximum_principle(self, net, bvals):
        ext = harmonic_extension(net, bvals)
        assert ext.max() <= max(bvals) + 1e-9
        assert ext.min() >= min(bvals) - 1e-9

    def test_interval_extension_is_linear_interpolation(self, interval_config):
        interval = pcf.load_structure(interval_config)

        t = LevelTower(interval)
        net = t.network(4)
        coords = t.coordinates(4)[:, 0]
        ext = harmonic_extension(net, [0.0, 1.0])
        np.testing.assert_allclose(ext, coords, atol=1e-12)


    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("rows", [
        [vals for _, vals in TWO_TERM_DRIFT.h_specs],
        np.eye(3),
    ], ids=["two_term", "base_indicators"])
    def test_block_equals_rows(self, sg_tower, n, rows):
        # one elimination against an (N, k) block
        net = sg_tower.network(n)
        block = harmonic_extension(net, rows)
        per_row = np.stack([harmonic_extension(net, row) for row in rows])
        assert block.shape == (len(rows), net.n)
        assert np.array_equal(block, per_row)


class TestEffectiveResistance:
    def test_unit_triangle_pairs(self, unit_triangle):
        # series-parallel oracle: 1 parallel (1 series 1) = 3/2 conductance
        oracle = 1.0 / (1.0 + 1.0 / (1.0 + 1.0))
        for x, y in itertools.combinations(range(3), 2):
            assert effective_resistance(unit_triangle, x, y) == pytest.approx(oracle)

    def test_two_vertex_network(self):
        net = ConductanceNetwork.from_edges([(0, 1, 4.0)])
        assert effective_resistance(net, 0, 1) == pytest.approx(0.25)

    def test_same_vertex_is_zero(self, unit_triangle):
        assert effective_resistance(unit_triangle, 1, 1) == 0.0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sg_corner_pair_level_independent(self, sg_tower, n):
        # trace invariance keeps corner resistances fixed across levels
        assert effective_resistance(sg_tower.network(n), 0, 1) == pytest.approx(
            2.0 / 3.0, abs=1e-10
        )

    def test_matches_resistance_matrix(self, sg_tower):
        net = sg_tower.network(2)
        rmat = resistance_matrix(net)
        rng = np.random.default_rng(2)
        for _ in range(6):
            x, y = rng.choice(net.n, size=2, replace=False)
            assert rmat[x, y] == pytest.approx(
                effective_resistance(net, int(x), int(y)), rel=1e-10
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_axioms(self, sg_tower, n):
        r = resistance_matrix(sg_tower.network(n))
        np.testing.assert_allclose(r, r.T, atol=1e-12)
        assert np.all(np.diag(r) == 0)
        m = r.shape[0]
        for x, y, z in itertools.product(range(m), repeat=3):
            assert r[x, y] <= r[x, z] + r[z, y] + 1e-10

    def test_interval_resistance_is_distance(self, interval_config):
        interval = pcf.load_structure(interval_config)

        t = LevelTower(interval)
        net = t.network(3)
        coords = t.coordinates(3)[:, 0]
        for x, y in [(0, 1), (0, 2), (3, 7), (2, 5)]:
            assert effective_resistance(net, x, y) == pytest.approx(
                abs(coords[x] - coords[y]), rel=1e-10
            )


class TestAssembly:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_sg_conductances(self, sg_tower, n):
        net = sg_tower.network(n)
        vals = np.array(sorted({c for _, _, c in edge_list(net)}))
        np.testing.assert_allclose(vals, [(5.0 / 3.0) ** n], rtol=1e-15)

    def test_level_zero_returns_base(self, sg_tower):
        built = assemble_self_similar(
            sg_tower.base_network, sg_tower.scalings, sg_tower.complex(0)
        )
        np.testing.assert_allclose(
            built.c.toarray(), sg_tower.base_network.c.toarray()
        )

    @pytest.mark.parametrize("n", range(0, 4))
    def test_trace_compatibility(self, sg_tower, n):
        fine = sg_tower.network(n + 1)
        coarse = sg_tower.network(n)
        traced = trace(fine, coarse.n)
        np.testing.assert_allclose(
            traced.c.toarray(), coarse.c.toarray(), atol=1e-10
        )

    def test_scale_factor_range_enforced(self, sg_tower):
        with pytest.raises(NetworkError):
            assemble_self_similar(
                sg_tower.base_network, (1.5, 0.6, 0.6), sg_tower.complex(1)
            )

    def test_boundary_size_mismatch_rejected(self, sg_tower):
        wrong = ConductanceNetwork.from_edges([(0, 1, 1.0)])
        with pytest.raises(NetworkError):
            assemble_self_similar(wrong, (0.6, 0.6, 0.6), sg_tower.complex(1))


def pinv_resistances(net: ConductanceNetwork) -> np.ndarray:
    """Reference oracle: ``R = d_x + d_y - 2 L+_xy`` from the dense
    Moore-Penrose pseudo-inverse of the Laplacian."""
    lplus = np.linalg.pinv(net.laplacian().toarray(), hermitian=True)
    d = np.diag(lplus)
    r = d[:, None] + d[None, :] - 2.0 * lplus
    np.fill_diagonal(r, 0.0)
    return r


def random_weighted_network(seed: int, n: int) -> ConductanceNetwork:
    """Connected: a random spanning tree plus random chords, conductances
    spread over three decades."""
    rng = np.random.default_rng(seed)
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(v)), v)] = None
    for a, b in rng.integers(n, size=(2 * n, 2)):
        if a != b:
            edges[(int(min(a, b)), int(max(a, b)))] = None
    return ConductanceNetwork.from_edges(
        [(a, b, float(10.0 ** rng.uniform(-1.5, 1.5))) for a, b in edges], n
    )


def nested(net: ConductanceNetwork, counts) -> ConductanceNetwork:
    """The network's conductances with the nested vertex counts ``counts``."""
    return ConductanceNetwork(net.c, counts)


def assert_labels_match(a, got) -> None:
    """``got``, the ``(count, labels)`` of ``resistance._components(a)``,
    agrees with csgraph: labels numbered by least vertex."""
    ncomp, labels = csgraph.connected_components(a, directed=False)
    assert got[0] == ncomp
    assert np.array_equal(got[1], labels)


class TestComponents:
    """The numpy labeling against ``csgraph.connected_components``."""

    def test_random_graphs(self):
        # sparse draws leave isolated vertices; n = 1 included
        rng = np.random.default_rng(0)
        sizes = [1, 1, 2, *rng.integers(1, 80, size=497)]
        for n in sizes:
            m = int(rng.integers(0, 2 * n + 1))
            edges = [(int(a), int(b), 1.0) for a, b in rng.integers(n, size=(m, 2)) if a != b]
            c = ConductanceNetwork.from_edges(edges, int(n)).c
            assert_labels_match(c, resistance._components(c))

    @pytest.mark.parametrize("name, top", [
        ("sg", 8), ("sg3.json", 4), ("interval.json", 6), ("sg_combinatorial.json", 5),
    ])
    def test_networks_and_pivot_sets(self, sg_tower, monkeypatch, name, top):
        # every pivot block of the elimination goes through the oracle too
        tower = sg_tower if name == "sg" else LevelTower(pcf.load_structure(str(CONFIGS / name)))
        pivots = []
        label = resistance._components

        def checked(a):
            got = label(a)
            assert_labels_match(a, got)
            pivots.append(a.shape[0])
            return got

        monkeypatch.setattr(resistance, "_components", checked)
        # a step labels its pivot when it plans a pattern not seen before
        monkeypatch.setattr(resistance, "_PLANS", {})
        for n in range(top + 1):
            net = tower.network(n)
            assert_labels_match(net.c, label(net.c))
            bounds = [*net.counts, net.n]
            resistance._PLANS.clear()
            resistance._eliminate(net.laplacian(), bounds)
            assert pivots == [b - a for a, b in zip(bounds, bounds[1:])][::-1]
            pivots.clear()


class TestDiameter:
    def test_unit_triangle(self, unit_triangle):
        assert resistance_diameter(unit_triangle) == pytest.approx(2.0 / 3.0)

    def test_two_vertex(self):
        net = ConductanceNetwork.from_edges([(0, 1, 0.5)])
        assert resistance_diameter(net) == pytest.approx(2.0)
        np.testing.assert_allclose(resistance_matrix(net), [[0.0, 2.0], [2.0, 0.0]])

    def test_single_vertex(self):
        net = ConductanceNetwork(np.zeros((1, 1)))
        assert resistance_diameter(net) == 0.0
        assert resistance_matrix(net).tolist() == [[0.0]]

    def test_sg_nondecreasing_in_level(self, sg_tower):
        diams = [sg_tower.diameter(n) for n in range(5)]
        assert all(b >= a - 1e-12 for a, b in zip(diams, diams[1:]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sg_diameter_is_two_thirds(self, sg_tower, n):
        assert abs(sg_tower.diameter(n) - 2.0 / 3.0) < 1e-11

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sg_diameter_is_two_thirds_to_rounding(self, sg_tower, n):
        # each trace keeps zero row sums, so the eliminations add no drift
        # (a plain Schur complement leaves about 1e-13 at L5-L7)
        assert abs(sg_tower.diameter(n) - 2.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("n", range(0, 6))
    def test_weighted_gasket_diameter_leaves_the_boundary(self, n):
        # scalings 0.2, 0.25, 0.9: from L3 on the largest resistance joins
        # vertex 2 to an inner vertex, so the pruning must keep inner cells
        tower = shipped_tower("sg_weighted")
        net = tower.network(n)
        oracle = pinv_resistances(net)
        assert tower.diameter(n) == pytest.approx(resistance_diameter(net), rel=1e-13)
        assert tower.diameter(n) == pytest.approx(oracle.max(), rel=1e-12)
        if n >= 3:
            assert tower.diameter(n) > oracle[:3, :3].max() + 1e-3

    def test_pruning_solves_a_fraction_of_the_columns(self, monkeypatch):
        # SG L7 has 3282 vertices; comparing every pair solves for all of them
        tower = tw.sierpinski_tower()
        for k in range(7):
            tower.diameter(k)
        solved = []
        solve = resistance._solve
        monkeypatch.setattr(resistance, "_solve",
                            lambda steps, end, b: solved.append(b.shape[1]) or solve(steps, end, b))
        assert abs(tower.diameter(7) - 2.0 / 3.0) < 1e-14
        assert sum(solved) < 600, sum(solved)

    def test_tower_passes_the_coarser_counts(self, sg_tower):
        assert sg_tower.network(0).counts == ()
        assert sg_tower.network(4).counts == (3, 6, 15, 42)
        assert [sg_tower.vertex_count(k) for k in range(4)] == [3, 6, 15, 42]

    def test_disconnected_rejected(self):
        # a part missing [0, N_0) is found by an elimination step; with
        # counts (2,), the second network's parts each reach [0, 2) and the
        # traced Laplacian there is disconnected
        two_parts = ConductanceNetwork.from_edges([(0, 1, 1.0), (2, 3, 1.0)], 4)
        crossed = ConductanceNetwork.from_edges([(0, 2, 1.0), (1, 3, 1.0)], 4)
        for net, counts in ((two_parts, ()), (two_parts, (2,)), (two_parts, (1, 3)),
                            (crossed, (2,))):
            with pytest.raises(NetworkError, match="disconnected"):
                resistance_diameter(nested(net, counts))
            with pytest.raises(NetworkError, match="disconnected"):
                resistance_matrix(nested(net, counts))

    @pytest.mark.parametrize("counts", [(0,), (3, 3), (5, 4), (30,), (12, 200)])
    def test_bad_counts_rejected(self, counts):
        net = random_weighted_network(4, 30)
        with pytest.raises(NetworkError, match="increase strictly"):
            ConductanceNetwork(net.c, counts)


class TestResistanceMatrix:
    """The level-by-level elimination against the dense pinv oracle."""

    @pytest.mark.parametrize("n", range(0, 6))
    def test_sg_matches_pinv(self, sg_tower, n):
        net = sg_tower.network(n)
        oracle = pinv_resistances(net)
        for counts in ((), sg_tower.network(n).counts):
            r = resistance_matrix(nested(net, counts))
            np.testing.assert_allclose(r, oracle, rtol=0, atol=1e-10)
            assert resistance_diameter(nested(net, counts)) == pytest.approx(
                r.max(), rel=1e-14
            )

    def test_interval_matches_pinv(self, interval_config):

        # 65 vertices: without counts, one full block of 64 rows and one row
        tower = LevelTower(pcf.load_structure(interval_config))
        net = tower.network(6)
        assert net.n == resistance.BLOCK_COLUMNS + 1
        oracle = pinv_resistances(net)
        for counts in ((), tower.network(6).counts):
            np.testing.assert_allclose(
                resistance_matrix(nested(net, counts)), oracle, rtol=0, atol=1e-10
            )
            assert resistance_diameter(nested(net, counts)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_combinatorial_sg_matches_pinv(self, n):

        path = Path(__file__).resolve().parents[1] / "docs" / "configs" / "sg_combinatorial.json"
        tower = LevelTower(pcf.load_structure(str(path)))
        net = tower.network(n)
        oracle = pinv_resistances(net)
        for counts in ((), tower.network(n).counts):
            r = resistance_matrix(nested(net, counts))
            np.testing.assert_allclose(r, oracle, rtol=0, atol=1e-10)
            assert resistance_diameter(nested(net, counts)) == pytest.approx(
                r.max(), rel=1e-14
            )
        assert abs(tower.diameter(n) - oracle.max()) < 1e-11

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_weighted_graph_matches_pinv(self, seed):
        net = random_weighted_network(seed, 150)
        np.testing.assert_allclose(
            resistance_matrix(net), pinv_resistances(net), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("counts", [(1,), (40,), (10, 70, 120), (2, 3, 149)])
    def test_arbitrary_prefix_split_is_exact(self, counts):
        # a random graph has no cell structure: the eliminated blocks are
        # large, not 3x3, and the elimination must still be exact
        net = random_weighted_network(5, 150)
        bounds = (*counts, net.n)
        lap = net.laplacian()
        largest = max(
            np.bincount(csgraph.connected_components(lap[lo:hi, lo:hi])[1]).max()
            for lo, hi in zip(bounds, bounds[1:])
        )
        assert largest > 3
        oracle = pinv_resistances(net)
        r = resistance_matrix(nested(net, counts))
        np.testing.assert_allclose(r, oracle, rtol=0, atol=1e-10)
        assert resistance_diameter(nested(net, counts)) == pytest.approx(r.max(), rel=1e-14)

    @pytest.mark.parametrize("width", [1, 7, 64, 1000])
    def test_block_width_does_not_matter(self, sg_tower, monkeypatch, width):
        # SG L4 has 123 vertices, 42 of them on level 3: ragged last blocks
        # for widths 7 and 64, one block per level for 1000, all singles for 1
        net = sg_tower.network(4)
        monkeypatch.setattr(resistance, "BLOCK_COLUMNS", width)
        oracle = pinv_resistances(net)
        for counts in ((), sg_tower.network(4).counts):
            r = resistance_matrix(nested(net, counts))
            np.testing.assert_allclose(r, oracle, rtol=0, atol=1e-10)
            assert resistance_diameter(nested(net, counts)) == pytest.approx(r.max(), rel=1e-14)

    def test_exactly_symmetric_with_zero_diagonal(self):
        net = random_weighted_network(2, 90)
        for counts in ((), (30, 60)):
            r = resistance_matrix(nested(net, counts))
            assert np.array_equal(r, r.T)
            assert np.all(np.diag(r) == 0.0)

    def test_diameter_is_matrix_max(self):
        net = random_weighted_network(3, 200)
        assert resistance_diameter(net) == pytest.approx(
            resistance_matrix(net).max(), rel=1e-14
        )


@pytest.fixture(scope="module")
def sg3_tower() -> LevelTower:
    return LevelTower(pcf.load_structure(str(CONFIGS / "sg3.json")))


class TestLevelThreeGasket:
    """The level-3 gasket: six maps, ``r = 7/15``, 7-vertex pivot blocks."""

    @pytest.mark.parametrize("n", range(0, 5))
    def test_conductances(self, sg3_tower, n):
        vals = np.array(sorted({c for _, _, c in edge_list(sg3_tower.network(n))}))
        np.testing.assert_allclose(vals, [(15.0 / 7.0) ** n], rtol=1e-15)

    def test_trace_compatibility_gap(self, sg3_tower):
        assert sg3_tower.trace_compatibility_gap() < 1e-15

    @pytest.mark.parametrize("n", range(0, 5))
    def test_corner_resistance(self, sg3_tower, n):
        corners = trace(sg3_tower.network(n), 3)
        for x, y in itertools.combinations(range(3), 2):
            assert effective_resistance(corners, x, y) == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_diameter(self, sg3_tower, n):
        assert abs(sg3_tower.diameter(n) - 2.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("n", range(0, 5))
    def test_extension_matches_dense_oracle(self, sg3_tower, n):
        net = sg3_tower.network(n)
        rows = [vals for _, vals in TWO_TERM_DRIFT.h_specs]
        np.testing.assert_allclose(harmonic_extension(net, rows),
                                   dense_harmonic_extension(net, rows), rtol=0, atol=1e-13)


class TestStreamedGreenFunction:
    """The Green-function columns, solved in blocks of ``BLOCK_COLUMNS``,
    and the diameter against a dense inverse of the same shifted Laplacian
    ``L + c e_0 e_0^T``."""

    @staticmethod
    def assert_exact(net):
        if net.n < 2:
            assert resistance_diameter(net) == 0.0
            return
        lap = net.laplacian().toarray()
        lap[0, 0] *= 1.0 + resistance.GROUND
        dense = np.linalg.inv(lap)
        columns, width = _green_columns(net), resistance.BLOCK_COLUMNS
        for lo in range(0, net.n, width):
            ids = np.arange(lo, min(lo + width, net.n))
            np.testing.assert_allclose(columns(ids), dense[:, ids], rtol=1e-11, atol=0)
        d = np.diag(dense)
        oracle = (d[:, None] + d - 2.0 * dense).max()
        assert resistance_diameter(net) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_sg(self, sg_tower, n):
        self.assert_exact(sg_tower.network(n))

    @pytest.mark.parametrize("n", range(0, 5))
    def test_sg3(self, sg3_tower, n):
        self.assert_exact(sg3_tower.network(n))

    @pytest.mark.parametrize("name, levels", [("interval", 7), ("sg_combinatorial", 5)])
    def test_shipped_configs(self, name, levels):
        tower = LevelTower(pcf.load_structure(str(CONFIGS / f"{name}.json")))
        for n in range(levels):
            self.assert_exact(tower.network(n))

    @pytest.mark.parametrize("width", [1, 7, 64, 1000])
    @pytest.mark.parametrize("counts", [(), (40,), (30, 90), (10, 70, 120)])
    def test_counts_and_block_widths(self, sg_tower, monkeypatch, counts, width):
        # zero to three nested sets on a graph without cells (large
        # eliminated blocks), and the last zero to three of SG L5
        monkeypatch.setattr(resistance, "BLOCK_COLUMNS", width)
        self.assert_exact(nested(random_weighted_network(6, 150), counts))
        self.assert_exact(nested(sg_tower.network(5), sg_tower.network(5).counts[-len(counts):]
                                 if counts else ()))

    def test_memory_below_the_next_to_finest_green_function(self, sg_tower):
        net = sg_tower.network(7)
        gc.disable()  # what a reference cycle keeps shows as held
        tracemalloc.start()
        try:
            resistance_diameter(net)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # the dense Green function on the 1095 vertices of SG L6 alone
        assert peak < 1095 ** 2 * 8, peak
        assert held < 2 ** 20, held


class TestSupNormBound:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bound_on_random_functions(self, sg_tower, n):
        # |f|_inf <= sqrt(diam * E(f)) + |f|_mu for the level's own diameter
        net = sg_tower.network(n)
        mu = sg_tower.measure(n)
        diam = resistance_diameter(net)
        rng = np.random.default_rng(17)
        for _ in range(50):
            f = rng.standard_normal(net.n)
            bound = np.sqrt(diam * energy(net, f)) + np.sqrt(np.sum(mu * f * f))
            assert np.max(np.abs(f)) <= bound + 1e-12


class TestValidationAndIO:
    def test_asymmetric_matrix_rejected(self):
        c = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NetworkError, match="symmetric"):
            ConductanceNetwork(c)

    def test_negative_conductance_rejected(self):
        c = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NetworkError, match="negative"):
            ConductanceNetwork(c)

    def test_nonzero_diagonal_rejected(self):
        c = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NetworkError, match="diagonal"):
            ConductanceNetwork(c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_conductance_rejected(self, bad):
        c = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, bad], [2.0, bad, 0.0]])
        with pytest.raises(NetworkError, match=f"between vertices 1 and 2 is {bad}; "
                                               "conductances must be finite"):
            ConductanceNetwork(c)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(NetworkError, match="not square"):
            ConductanceNetwork(np.zeros((2, 3)))

    def test_edges_span_zero_to_largest_id(self):
        net = ConductanceNetwork.from_edges([(0, 3, 1.0)])
        assert net.n == 4 and edge_list(net) == [(0, 3, 1.0)]

    def test_edge_id_past_n_rejected(self):
        with pytest.raises(NetworkError, match=r"edge \(1, 5, 1.0\) names unknown vertex 5"):
            ConductanceNetwork.from_edges([(0, 1, 1.0), (1, 5, 1.0)], 3)

    def test_harmonic_extension_unknown_id_rejected(self, unit_triangle):
        # data on [0, 4) names vertex 3, which the triangle lacks
        with pytest.raises(NetworkError, match="boundary of 4 vertices on a network of 3"):
            harmonic_extension(unit_triangle, [1.0, 0.0, 0.0, 0.0])

    def test_awkward_values_round_trip(self, tmp_path):
        vals = [1.0 / 3.0, np.pi, 1e-300, -7.125]
        path = tmp_path / "f.txt"
        write_vertex_function_report(path, vals)
        back = read_vertex_function(path, len(vals))
        assert back.tolist() == vals  # bit-exact through 17 significant digits


def shipped_tower(name: str) -> LevelTower:
    return LevelTower(pcf.load_structure(str(CONFIGS / f"{name}.json")))


class TestOneElimination:
    """``_eliminate`` factors every sparse matrix of a level; the Laplacian
    path (traces and harmonic extensions) is bit for bit what the
    Laplacian-only elimination gave, and every solve matches SuperLU and a
    dense solve."""

    @pytest.mark.parametrize("name, top", [
        ("sg", 7), ("sg3", 4), ("interval", 7), ("sg_combinatorial", 5),
    ])
    def test_laplacian_path_is_bit_identical(self, sg_tower, monkeypatch, name, top):
        tower = sg_tower if name == "sg" else shipped_tower(name)

        def results(fresh):
            out, boundaries = [], 0
            for n in range(top + 1):
                net = tower.network(n)
                if fresh:  # no elimination kept from an earlier pass or test
                    net = ConductanceNetwork(net.c, net.counts)
                nets = [net, trace(net, net.counts[-1])] if net.counts else [net]
                for m in nets:  # a trace's conductances are stored unsorted
                    # the counts, and boundaries between them (fill-in)
                    for k in sorted({1, 2, *m.counts, min(m.n, 5), m.n}):
                        data = np.random.default_rng(k).standard_normal((2, k))
                        out += [trace(m, k).c.toarray(), harmonic_extension(m, data)]
                        boundaries += 1
            return out, boundaries

        new, _ = results(fresh=False)
        calls = []
        monkeypatch.setattr(resistance, "_eliminate",
                            lambda *a: calls.append(a) or laplacian_elimination(*a))
        old, boundaries = results(fresh=True)
        assert len(calls) == boundaries  # the oracle made every (network, boundary)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)

    def test_plans_are_shared_by_a_pattern(self, sg_tower, admissible_cfg, monkeypatch):
        # alpha I - L, E_lam and the Laplacian of a level share one pattern:
        # the first elimination plans (and labels) each step, the others
        # reuse the plans, and a cold cache gives the same steps bit for bit
        gen = sg_tower.generator(4, admissible_cfg)
        bounds = [*gen.net.counts, gen.n]
        mats = [*self.level_matrices(gen).values(), gen.net.laplacian()]
        labelled = []
        label = resistance._components
        monkeypatch.setattr(resistance, "_components",
                            lambda a: labelled.append(a.shape[0]) or label(a))
        monkeypatch.setattr(resistance, "_PLANS", {})
        warm = [resistance._eliminate(a, bounds) for a in mats]
        assert labelled == [b - a for a, b in zip(bounds, bounds[1:])][::-1]
        for plan in resistance._PLANS.values():
            assert not plan[2][0].flags.writeable
        for a, (steps, end) in zip(mats, warm):
            resistance._PLANS.clear()
            cold_steps, cold_end = resistance._eliminate(a, bounds)
            assert np.array_equal(end.toarray(), cold_end.toarray())
            for step, cold in zip(steps, cold_steps, strict=True):
                assert step[0] == cold[0]
                for x, y in zip(step[1:], cold[1:]):
                    assert np.array_equal(x.indptr, y.indptr)
                    assert np.array_equal(x.indices, y.indices)
                    assert np.array_equal(x.data, y.data)

    def test_plan_memory_is_bounded(self, sg_tower, monkeypatch):
        net = sg_tower.network(5)
        bounds = [*net.counts, net.n]
        steps, _ = resistance._eliminate(net.laplacian(), bounds)
        monkeypatch.setattr(resistance, "_PLANS", {})
        monkeypatch.setattr(resistance, "PLAN_BYTES", 20_000)
        again, _ = resistance._eliminate(net.laplacian(), bounds)
        plans = resistance._PLANS.values()
        assert 1 <= len(plans) < len(bounds) - 1
        assert len(plans) == 1 or sum(p[-1] for p in plans) <= 20_000
        for step, other in zip(steps, again, strict=True):
            assert np.array_equal(step[2].toarray(), other[2].toarray())

    @staticmethod
    def level_matrices(gen, lam: float = 1.0, alpha: float = 2.0) -> dict:
        """``alpha I - L``, ``E_lam`` and ``S = E_lam + Q_sym`` of a generator."""
        q = gen.Q_matrix
        e_lam = (gen.E_matrix + lam * sparse.diags(gen.mu)).tocsr()
        return {"resolvent": (alpha * sparse.identity(gen.n) - gen.L).tocsr(),
                "E_lam": e_lam, "S": (e_lam + 0.5 * (q + q.T)).tocsr()}

    @pytest.mark.parametrize("name, top, drift", [
        ("sg", 6, "default"), ("sg", 6, "two_term"), ("sg", 6, "none"),
        ("sg3", 3, "default"), ("sg3", 3, "none"),
        ("interval", 6, "default"), ("interval", 6, "none"),
        ("sg_combinatorial", 5, "default"), ("sg_combinatorial", 5, "none"),
    ])
    def test_solves_match_splu_and_dense(self, sg_tower, admissible_cfg, name, top, drift):
        tower = sg_tower if name == "sg" else shipped_tower(name)
        cfg = {"none": None, "two_term": TWO_TERM_DRIFT,
               "default": admissible_cfg if name == "sg"
               else tw.default_admissible_drift(tower, proxy_level=3)}[drift]
        rng = np.random.default_rng(11)
        for n in range(top + 1):
            gen = tower.generator(n, cfg)
            for label, a in self.level_matrices(gen).items():
                steps, end = resistance._eliminate(a, [*gen.net.counts, gen.n])
                lu = splu(a.tocsc())
                for b in (rng.standard_normal(gen.n), rng.standard_normal((gen.n, 3))):
                    x = resistance._solve(steps, end, b)
                    assert x.shape == b.shape
                    for ref in (np.linalg.solve(a.toarray(), b), lu.solve(b)):
                        gap = np.max(np.abs(x - ref))
                        assert gap <= 1e-10 * np.max(np.abs(ref)), (label, n, gap)
                    residual, lu_residual = (np.max(np.abs(a @ y - b)) for y in (x, lu.solve(b)))
                    assert residual <= 10 * lu_residual + 1e-13 * np.max(np.abs(b)), (label, n)


class TestSharedElimination:
    """A network eliminates its Laplacian once per boundary and keeps it:
    traces, harmonic extensions and the Green columns read that one
    elimination, and a kept one gives what a fresh one gives, bit for bit."""

    @staticmethod
    def results(net, boundaries) -> list:
        out = [resistance_diameter(net)]
        for k in boundaries:
            data = np.random.default_rng(k).standard_normal((2, k))
            traced = trace(net, k)
            out += [traced.c.toarray(), traced.c.indices.copy(), harmonic_extension(net, data)]
        return out

    @pytest.mark.parametrize("name, level", [
        ("sg", 5), ("sg3", 3), ("interval", 5), ("sg_weighted", 4),
    ])
    def test_kept_eliminations_match_fresh_ones(self, sg_tower, monkeypatch, name, level):
        tower = sg_tower if name == "sg" else shipped_tower(name)
        net = tower.network(level)
        # every nested set, sets between them, and the whole network
        boundaries = sorted({1, 2, *net.counts, net.counts[0] + 1, net.counts[-1] + 2, net.n})
        calls = []
        eliminate = resistance._eliminate
        monkeypatch.setattr(resistance, "_eliminate",
                            lambda *a: calls.append(a[1]) or eliminate(*a))
        warm = ConductanceNetwork(net.c, net.counts)
        first = self.results(warm, boundaries)  # fills the kept eliminations
        assert sorted(calls, key=lambda b: b[0]) == [
            sorted({k, *(c for c in net.counts if c > k), net.n}) for k in boundaries]
        again = self.results(warm, boundaries)
        assert len(calls) == len(boundaries)  # nothing eliminated twice
        for results in (first, again):
            cold = [self.results(ConductanceNetwork(net.c, net.counts), [k]) for k in boundaries]
            assert results[0] == cold[0][0]  # each diameter on a fresh network
            for got, fresh in zip(results[1:], (x for c in cold for x in c[1:]), strict=True):
                assert np.array_equal(got, fresh)

    def test_a_failed_elimination_keeps_nothing(self):
        # vertex 3 misses [0, 2): no elimination onto 2, none kept
        net = ConductanceNetwork.from_edges([(0, 1, 1.0), (1, 2, 1.0)], n=4)
        with pytest.raises(NetworkError):
            trace(net, 2)
        assert net._eliminations == {}
        assert trace(net, 4) is net and list(net._eliminations) == [4]

    def test_a_trace_keeps_its_own_eliminations(self, sg_tower):
        net = ConductanceNetwork(sg_tower.network(3).c, sg_tower.network(3).counts)
        traced = trace(net, net.counts[0])
        assert list(net._eliminations) == [net.counts[0]] and traced._eliminations == {}

    def test_the_laplacian_is_built_once_and_read_only(self, sg_tower):
        net = sg_tower.network(3)
        lap = net.laplacian()
        assert net.laplacian() is lap
        for x in (lap.data, lap.indices, lap.indptr):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = x[0]


class TestArnoldi:
    """The Krylov process shared by the eigen-brackets and the semigroup."""

    def test_basis_is_orthonormal_and_spans_the_relation(self):
        rng = np.random.default_rng(73)
        n, steps = 40, 12
        a = rng.standard_normal((n, n))
        m = rng.standard_normal((n, n))
        b = m @ m.T + n * np.eye(n)  # symmetric positive definite
        for dual in (None, b.__matmul__):
            basis, h = resistance._arnoldi(a.__matmul__, rng.standard_normal(n), steps, dual)
            assert basis.shape == (steps + 1, n) and h.shape == (steps + 1, steps)
            gram = basis @ (basis if dual is None else basis @ b).T
            np.testing.assert_allclose(gram, np.eye(steps + 1), atol=1e-12)
            np.testing.assert_allclose(a @ basis[:-1].T, basis.T @ h, atol=1e-11)

    def test_stops_at_an_invariant_subspace_and_on_request(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        v = np.array([1.0, 1.0, 0.0, 0.0, 0.0])  # in a two-dimensional invariant subspace
        basis, h = resistance._arnoldi(a.__matmul__, v, 4)
        assert h.shape == (3, 2) and h[2, 1] == 0.0 and not basis[2].any()
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(h[:2]).real), [1.0, 2.0])
        seen = []
        basis, h = resistance._arnoldi(a.__matmul__, np.ones(5), 4,
                                       stop=lambda b, h: seen.append(h.shape) or len(seen) == 2)
        assert seen == [(2, 1), (3, 2)] and basis.shape == (3, 5)
