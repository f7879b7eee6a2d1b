"""Multi-level gap reports: norms, resolvents, semigroups, path laws."""

import numpy as np
import pytest
import scipy.linalg

from driftform import spectral as spectral_mod
from driftform import tower as tw
from driftform.convergence import (
    INITIAL_VERTEX,
    TREND_SLACK,
    ConvergenceReport,
    ks_norm_check,
    resolvent_convergence,
    semigroup_convergence,
)
from driftform.pcf import load_structure
from driftform.resistance import harmonic_extension
from oracles import TWO_TERM_DRIFT


REF = 5  # module-local reference level keeps these tests quick


def energy_monotonicity_profile(tower, f_ref, levels, slack=1e-10) -> dict:
    """Per-level energies of the restricted function; the sequence must be
    non-decreasing for a compatible trace tower."""
    values = []
    for n in levels:
        fn = f_ref[: tower.vertex_count(n)]
        values.append(float(fn @ (tower.generator(n, None).E_matrix @ fn)))
    scale = max(1.0, max(abs(v) for v in values))
    return {
        "energies": values,
        "nondecreasing": bool(np.all(np.diff(values) >= -slack * scale)),
    }


def trend_from_tails(levels, errors):
    """Reference: the first level whose tail of errors is non-increasing."""
    for i in range(len(errors)):
        tail = errors[i:]
        if all(b <= a * (1 + TREND_SLACK) + TREND_SLACK for a, b in zip(tail, tail[1:])):
            return levels[i]
    return None


@pytest.mark.parametrize("errors", [
    [], [0.5], [3.0, 2.0, 1.0], [1.0, 2.0, 1.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
    [1.0, 1.0 + 5e-13, 0.5], [1.0, 1.0 + 1e-9, 0.5], [0.0, 1e-12, 0.0],
    [float("nan"), 1.0, 0.5], [1.0, float("nan"), 0.5], [1.0, 0.5, float("nan")],
])
def test_trend_start_is_the_first_non_increasing_tail(errors):
    levels = list(range(2, 2 + len(errors)))
    rep = ConvergenceReport(levels, errors).finalize_trend()
    assert rep.trend_nonincreasing_from == trend_from_tails(levels, errors)


@pytest.fixture(scope="module")
def x_coord(sg_tower):
    return sg_tower.coordinates(REF)[:, 0].copy()


class TestKSNorm:
    def test_unit_function_exact(self, sg_tower):
        rep = ks_norm_check(sg_tower, np.ones(sg_tower.vertex_count(REF)), [1, 2, 3], REF)
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-14)

    def test_coordinate_errors_decrease(self, sg_tower, x_coord):
        rep = ks_norm_check(sg_tower, x_coord, [1, 2, 3, 4], REF)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
        assert rep.trend_nonincreasing_from == 1

    def test_corner_indicator_scale(self, sg_tower):
        # explicit weights: the indicator norm at level n is the square root
        # of the corner weight (1/3)^(n+1)
        f = np.zeros(sg_tower.vertex_count(REF))
        f[1] = 1.0
        levels = [1, 2, 3]
        rep = ks_norm_check(sg_tower, f, levels, REF)
        ref = np.sqrt((1.0 / 3.0) ** (REF + 1))
        for lvl, err in zip(levels, rep.errors):
            expected = abs(np.sqrt((1.0 / 3.0) ** (lvl + 1)) - ref)
            assert err == pytest.approx(expected, rel=1e-12)


class TestResolventConvergence:
    def test_unit_function_no_drift_is_exact(self, sg_tower):
        rep = resolvent_convergence(
            sg_tower, None, 4.0, np.ones(sg_tower.vertex_count(REF)), [1, 2, 3], REF
        )
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-12)

    def test_harmonic_coordinate_decays(self, sg_tower):
        # piecewise-harmonic input built from the boundary coordinates
        net = sg_tower.network(REF)
        coords = sg_tower.coordinates(REF)
        f = harmonic_extension(net, coords[:3, 0])
        rep = resolvent_convergence(sg_tower, None, 4.0, f, [1, 2, 3, 4], REF)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
        assert rep.trend_nonincreasing_from == 1

    def test_admissible_drift_decays(self, sg_tower, admissible_cfg, admissible_constants, x_coord):
        alpha = 2.0 * admissible_constants.lam
        rep = resolvent_convergence(
            sg_tower, admissible_cfg, alpha, x_coord, [1, 2, 3, 4], REF
        )
        assert rep.errors[-1] < 0.5 * rep.errors[0]
        assert rep.trend_nonincreasing_from == 1


def path_law(tower, cfg, t, test_fns, levels, reference, paths, seed):
    """The path-law report of ``semigroup_convergence`` with every level
    sampled (the semigroup input is the first test function)."""
    return semigroup_convergence(tower, cfg, t, test_fns[0], levels, reference, test_fns,
                                 levels, paths=paths, seed=seed)[1]


def count_blocks(monkeypatch) -> list:
    """Record ``(level, width)`` of every semigroup block solved."""
    calls = []
    solve = spectral_mod.semigroup_solve

    def counted(gen, t, f):
        calls.append((gen.level, np.shape(f)[1]))
        return solve(gen, t, f)

    monkeypatch.setattr(spectral_mod, "semigroup_solve", counted)
    return calls


class TestSemigroupConvergence:
    def test_time_zero_exact(self, sg_tower, admissible_cfg, x_coord):
        rep, _ = semigroup_convergence(sg_tower, admissible_cfg, 0.0, x_coord, [1, 2, 3], REF)
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-14)

    def test_unit_function_exact(self, sg_tower, admissible_cfg):
        rep, _ = semigroup_convergence(
            sg_tower, admissible_cfg, 0.1, np.ones(sg_tower.vertex_count(REF)), [1, 2, 3], REF
        )
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-10)

    def test_decaying_profile(self, sg_tower, admissible_cfg, x_coord):
        rep, _ = semigroup_convergence(sg_tower, admissible_cfg, 0.1, x_coord, [1, 2, 3, 4], REF)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))


class TestPathLaw:
    def test_constant_function_exact(self, sg_tower, admissible_cfg):
        ones = np.ones(sg_tower.vertex_count(REF))
        rep = path_law(sg_tower, admissible_cfg, 0.05, [ones], [1, 2], REF, paths=500, seed=4)
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-12)
        for rows in rep.details["mc"].values():
            for row in rows:
                assert row["mc_mean"] == pytest.approx(1.0)
                assert row["mc_se"] == 0.0

    def test_mc_coheres_with_semigroup(self, sg_tower, admissible_cfg, x_coord):
        rep = path_law(sg_tower, admissible_cfg, 0.1, [x_coord], [1, 2, 3], REF,
                       paths=20000, seed=5)
        for rows in rep.details["mc"].values():
            for row in rows:
                assert row["mc_vs_exact"] <= 3.0 * row["mc_se"] + 1e-12

    def test_exact_values_equal_semigroup_values(self, sg_tower, admissible_cfg,
                                                 x_coord, monkeypatch):
        # one forward block per level, the reference included: [f | test
        # functions] where the path law needs it, [f] elsewhere; each exact
        # mean equals (exp(tL) g)(x0) from a series per function
        f2 = np.cos(3.0 * x_coord)
        calls = count_blocks(monkeypatch)
        sem, rep = semigroup_convergence(
            sg_tower, admissible_cfg, 0.1, x_coord, [1, 2, 3, 4], REF, [x_coord, f2],
            [1, 2, 3], paths=100, seed=3,
        )
        assert sorted(calls) == [(1, 3), (2, 3), (3, 3), (4, 1), (REF, 3)]
        monkeypatch.undo()

        def semigroup_value(level, f):
            gen = sg_tower.generator(level, admissible_cfg)
            return float(spectral_mod.semigroup_solve(gen, 0.1, f[: gen.n]).output[1])

        for k, f in enumerate((x_coord, f2)):
            for lvl, rows in rep.details["mc"].items():
                assert rows[k]["exact"] == pytest.approx(semigroup_value(lvl, f), abs=1e-13)
                assert rows[k]["reference_exact"] == pytest.approx(
                    semigroup_value(REF, f), abs=1e-13)
        assert sem.details["methods"] == {lvl: "chebyshev" for lvl in (1, 2, 3, 4, REF)}
        assert rep.details["methods"] == {lvl: "chebyshev" for lvl in (1, 2, 3, REF)}
        # one block per level, so both reports carry its one bound
        assert rep.details["bounds"] == {lvl: sem.details["bounds"][lvl] for lvl in (1, 2, 3, REF)}
        assert all(0.0 <= b <= 1e-12 for b in sem.details["bounds"].values())

    @pytest.mark.parametrize("drift", ["none", "default", "two_term"])
    def test_exact_values_match_dense_expm(self, sg_tower, admissible_cfg, drift):
        # E[g(X_t)] = (expm(tL) g)(x0) at SG L1-L2 and the reference L3
        cfg = {"none": None, "default": admissible_cfg, "two_term": TWO_TERM_DRIFT}[drift]
        coords = sg_tower.coordinates(3)
        self.assert_exact_matches_expm(sg_tower, cfg, [coords[:, 0], coords[:, 1]], 3)

    def test_interval_exact_values_match_dense_expm(self, interval_config):
        tower = tw.LevelTower(load_structure(interval_config))
        test_fns = [tower.coordinates(4)[:, 0], np.ones(tower.vertex_count(4))]
        self.assert_exact_matches_expm(tower, tw.default_admissible_drift(tower, 4), test_fns, 4)

    @staticmethod
    def assert_exact_matches_expm(tower, cfg, test_fns, reference):
        levels = list(range(1, reference))
        t = 0.1
        rep = path_law(tower, cfg, t, test_fns, levels, reference, paths=10, seed=1)

        def oracle(level, g):
            gen = tower.generator(level, cfg)
            return scipy.linalg.expm(t * gen.L.toarray())[INITIAL_VERTEX] @ g[: gen.n]

        for k, g in enumerate(test_fns):
            scale = np.max(np.abs(g))
            for lvl in levels:
                row = rep.details["mc"][lvl][k]
                assert abs(row["exact"] - oracle(lvl, g)) <= 1e-12 * scale, (lvl, k)
                assert abs(row["reference_exact"] - oracle(reference, g)) <= 1e-12 * scale

    def test_drift_shifts_expectations(self, sg_tower, admissible_cfg):
        # paired seeds: the drift moves the mean at every level.  The height
        # coordinate separates the chains clearly because the drift pushes
        # along the reference function peaked at the top corner; the
        # horizontal coordinate would be nearly symmetric under it.
        y_coord = sg_tower.coordinates(REF)[:, 1].copy()
        kwargs = dict(levels=[1, 2], reference=REF, paths=20000, seed=6)
        with_drift = path_law(sg_tower, admissible_cfg, 0.1, [y_coord], **kwargs)
        without = path_law(sg_tower, None, 0.1, [y_coord], **kwargs)
        for lvl in (1, 2):
            a = with_drift.details["mc"][lvl][0]
            b = without.details["mc"][lvl][0]
            gap = abs(a["mc_mean"] - b["mc_mean"])
            noise = 3.0 * (a["mc_se"] + b["mc_se"])
            assert gap > noise, (lvl, gap, noise)

    def test_no_levels_solve_no_reference_law(self, sg_tower, admissible_cfg, x_coord,
                                              monkeypatch):
        # no level sampled: no test-function columns, the reference included
        calls = count_blocks(monkeypatch)
        _, rep = semigroup_convergence(sg_tower, admissible_cfg, 0.1, x_coord, [1, 2], REF,
                                       [x_coord], [], paths=100, seed=3)
        assert sorted(calls) == [(1, 1), (2, 1), (REF, 1)]
        assert rep.errors == [] and rep.details == {"mc": {}, "methods": {}, "bounds": {}}

    @pytest.mark.parametrize("paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, sg_tower, admissible_cfg, x_coord, paths):
        # one sample has no standard error
        with pytest.raises(ValueError):
            path_law(sg_tower, admissible_cfg, 0.05, [x_coord], [1], REF, paths=paths, seed=7)

    def test_path_law_levels_must_be_levels(self, sg_tower, admissible_cfg, x_coord):
        # a path-law level outside the semigroup levels would need its own block
        with pytest.raises(ValueError):
            semigroup_convergence(sg_tower, admissible_cfg, 0.05, x_coord, [1], REF,
                                  [x_coord], [2])

    def test_banner_documents_weakening(self, sg_tower, admissible_cfg, x_coord):
        rep = path_law(sg_tower, admissible_cfg, 0.05, [x_coord], [1], REF, paths=100, seed=7)
        assert "fixed-time" in rep.banner


class TestEnergyMonotonicity:
    def test_piecewise_harmonic_plateaus(self, sg_tower):
        # harmonic extension from the boundary: level energies are constant
        f = harmonic_extension(sg_tower.network(REF), [1.0, 0.0, 0.0])
        prof = energy_monotonicity_profile(sg_tower, f, [0, 1, 2, 3, 4, REF])
        assert prof["nondecreasing"]
        np.testing.assert_allclose(prof["energies"], prof["energies"][0], rtol=1e-10)

    def test_random_function_nondecreasing(self, sg_tower):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(sg_tower.vertex_count(REF))
        prof = energy_monotonicity_profile(sg_tower, f, [1, 2, 3, 4, REF])
        assert prof["nondecreasing"]
        diffs = np.diff(prof["energies"])
        assert np.all(diffs > 0)  # strict for generic data

    def test_constant_function_zero(self, sg_tower):
        f = np.full(sg_tower.vertex_count(REF), 3.0)
        prof = energy_monotonicity_profile(sg_tower, f, [1, 2, 3])
        np.testing.assert_allclose(prof["energies"], 0.0, atol=1e-12)
