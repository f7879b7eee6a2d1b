"""Multi-level gap reports: norms, resolvents, semigroups, path laws."""

import numpy as np
import pytest

from driftform.convergence import (
    energy_monotonicity_profile,
    ks_norm_check,
    path_law_convergence,
    resolvent_convergence,
    restriction,
    semigroup_convergence,
)
from driftform.resistance import harmonic_extension


REF = 5  # module-local reference level keeps these tests quick


@pytest.fixture(scope="module")
def x_coord(sg_tower):
    return sg_tower.coordinates(REF)[:, 0].copy()


class TestRestriction:
    def test_composition(self, sg_tower):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(sg_tower.vertex_count(4))
        phi42 = restriction(sg_tower, 4, 2)
        phi43 = restriction(sg_tower, 4, 3)
        phi32 = restriction(sg_tower, 3, 2)
        np.testing.assert_array_equal(phi32(phi43(f)), phi42(f))

    def test_sup_norm_nonexpanding(self, sg_tower):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(sg_tower.vertex_count(4))
        phi = restriction(sg_tower, 4, 1)
        assert np.max(np.abs(phi(f))) <= np.max(np.abs(f))

    def test_wrong_direction_rejected(self, sg_tower):
        with pytest.raises(ValueError):
            restriction(sg_tower, 2, 4)


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
        f = harmonic_extension(net, {k: coords[k, 0] for k in range(3)})
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


class TestSemigroupConvergence:
    def test_time_zero_exact(self, sg_tower, admissible_cfg, x_coord):
        rep = semigroup_convergence(sg_tower, admissible_cfg, 0.0, x_coord, [1, 2, 3], REF)
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-14)

    def test_unit_function_exact(self, sg_tower, admissible_cfg):
        rep = semigroup_convergence(
            sg_tower, admissible_cfg, 0.1, np.ones(sg_tower.vertex_count(REF)), [1, 2, 3], REF
        )
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-10)

    def test_decaying_profile(self, sg_tower, admissible_cfg, x_coord):
        rep = semigroup_convergence(sg_tower, admissible_cfg, 0.1, x_coord, [1, 2, 3, 4], REF)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))


class TestPathLaw:
    def test_constant_function_exact(self, sg_tower, admissible_cfg):
        ones = np.ones(sg_tower.vertex_count(REF))
        rep = path_law_convergence(
            sg_tower, admissible_cfg, 0.05, [ones], [1, 2], REF, paths=500, seed=4
        )
        np.testing.assert_allclose(rep.errors, 0.0, atol=1e-12)
        for rows in rep.details["mc"].values():
            for row in rows:
                assert row["mc_mean"] == pytest.approx(1.0)
                assert row["mc_se"] == 0.0

    def test_mc_coheres_with_semigroup(self, sg_tower, admissible_cfg, x_coord):
        rep = path_law_convergence(
            sg_tower, admissible_cfg, 0.1, [x_coord], [1, 2, 3], REF,
            paths=20000, seed=5,
        )
        for rows in rep.details["mc"].values():
            for row in rows:
                assert row["mc_vs_exact"] <= 3.0 * row["mc_se"] + 1e-12

    def test_drift_shifts_expectations(self, sg_tower, admissible_cfg):
        # paired seeds: the drift moves the mean at every level.  The height
        # coordinate separates the chains clearly because the drift pushes
        # along the reference function peaked at the top corner; the
        # horizontal coordinate would be nearly symmetric under it.
        y_coord = sg_tower.coordinates(REF)[:, 1].copy()
        kwargs = dict(levels=[1, 2], reference=REF, paths=20000, seed=6)
        with_drift = path_law_convergence(
            sg_tower, admissible_cfg, 0.1, [y_coord], **kwargs
        )
        without = path_law_convergence(sg_tower, None, 0.1, [y_coord], **kwargs)
        for lvl in (1, 2):
            a = with_drift.details["mc"][lvl][0]
            b = without.details["mc"][lvl][0]
            gap = abs(a["mc_mean"] - b["mc_mean"])
            noise = 3.0 * (a["mc_se"] + b["mc_se"])
            assert gap > noise, (lvl, gap, noise)

    @pytest.mark.parametrize("paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, sg_tower, admissible_cfg, x_coord, paths):
        # one sample has no standard error
        with pytest.raises(ValueError):
            path_law_convergence(sg_tower, admissible_cfg, 0.05, [x_coord], [1], REF,
                                 paths=paths, seed=7)

    def test_banner_documents_weakening(self, sg_tower, admissible_cfg, x_coord):
        rep = path_law_convergence(
            sg_tower, admissible_cfg, 0.05, [x_coord], [1], REF, paths=100, seed=7
        )
        assert "fixed-time" in rep.banner


class TestEnergyMonotonicity:
    def test_piecewise_harmonic_plateaus(self, sg_tower):
        # harmonic extension from the boundary: level energies are constant
        f = harmonic_extension(sg_tower.network(REF), {0: 1.0, 1: 0.0, 2: 0.0})
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
