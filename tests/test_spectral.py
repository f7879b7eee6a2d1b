"""Resolvent and semigroup identities, Markov bounds, growth estimates."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy import sparse
from scipy.stats import poisson

from driftform import tower as tw
from driftform.markov import RateValidationError, _philox, point_mass
from driftform.spectral import (
    _poisson_series,
    contraction_growth_check,
    markov_check,
    resolvent,
    resolvent_solve,
    semigroup_apply,
    semigroup_solve,
)


@pytest.fixture(scope="module")
def setup(sg_tower, admissible_cfg, admissible_constants):
    level = 2
    gen = sg_tower.generator(level, admissible_cfg)
    return gen, admissible_constants


class TestResolvent:
    def test_constants_map_to_scaled_constants(self, setup):
        gen, c = setup
        alpha = 2.0 * c.lam
        u = resolvent(gen, alpha, np.ones(gen.n))
        np.testing.assert_allclose(u, 1.0 / alpha, atol=1e-10)

    def test_resolvent_identity(self, setup):
        gen, c = setup
        alpha, beta = 1.7 * c.lam, 3.1 * c.lam
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = rng.standard_normal(gen.n)
            lhs = resolvent(gen, alpha, f) - resolvent(gen, beta, f)
            rhs = (beta - alpha) * resolvent(gen, alpha, resolvent(gen, beta, f))
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_matches_eigendecomposition_oracle(self, sg_tower):
        # independent oracle at level 1 without drift: diagonalize L and
        # apply (alpha - L)^-1 spectrally
        gen = sg_tower.generator(1, None)
        L = gen.L.toarray()
        w, v = scipy.linalg.eig(L)
        vinv = np.linalg.inv(v)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(gen.n)
        alpha = 5.0
        oracle = (v @ np.diag(1.0 / (alpha - w)) @ vinv @ f).real
        np.testing.assert_allclose(resolvent(gen, alpha, f), oracle, atol=1e-9)

    def test_operator_norm_bound(self, setup):
        gen, c = setup
        alpha = 2.0 * c.lam
        rng = np.random.default_rng(5)
        mu = gen.mu
        for _ in range(20):
            f = rng.standard_normal(gen.n)
            u = resolvent(gen, alpha, f)
            norm_u = np.sqrt(np.sum(mu * u * u))
            norm_f = np.sqrt(np.sum(mu * f * f))
            assert norm_u <= norm_f / (alpha - c.lam) + 1e-12

    def test_residual_recorded(self, setup):
        gen, c = setup
        solve = resolvent_solve(gen, 2.0 * c.lam, np.ones(gen.n))
        assert solve.residual <= 1e-9

    def test_nonpositive_alpha_rejected(self, setup):
        gen, _ = setup
        with pytest.raises(ValueError):
            resolvent(gen, 0.0, np.ones(gen.n))


class TestSemigroup:
    def test_time_zero_is_identity(self, setup):
        gen, _ = setup
        rng = np.random.default_rng(7)
        f = rng.standard_normal(gen.n)
        np.testing.assert_allclose(semigroup_apply(gen, 0.0, f), f)

    def test_conservativity(self, setup):
        gen, _ = setup
        for t in (0.01, 0.1, 1.0):
            out = semigroup_apply(gen, t, np.ones(gen.n))
            np.testing.assert_allclose(out, 1.0, atol=1e-10)

    def test_semigroup_property(self, setup):
        gen, _ = setup
        rng = np.random.default_rng(11)
        f = rng.standard_normal(gen.n)
        lhs = semigroup_apply(gen, 0.11, f)
        rhs = semigroup_apply(gen, 0.04, semigroup_apply(gen, 0.07, f))
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_sup_norm_contraction(self, setup):
        gen, _ = setup
        rng = np.random.default_rng(13)
        for t in (0.02, 0.3):
            f = rng.standard_normal(gen.n)
            out = semigroup_apply(gen, t, f)
            assert np.max(np.abs(out)) <= np.max(np.abs(f)) + 1e-12

    def test_laplace_transform_matches_resolvent(self, sg_tower, admissible_cfg):
        # independent oracle: adaptive quadrature of exp(-alpha t) T_t f over
        # [0, 40/alpha]; the truncated tail is below 1e-17 |f|
        level = 1
        gen = sg_tower.generator(level, admissible_cfg)
        rng = np.random.default_rng(17)
        f = rng.standard_normal(gen.n)
        alpha = 8.0
        quad, _ = scipy.integrate.quad_vec(
            lambda t: np.exp(-alpha * t) * semigroup_apply(gen, t, f),
            0.0,
            40.0 / alpha,
            epsabs=1e-10,
            epsrel=1e-10,
        )
        np.testing.assert_allclose(resolvent(gen, alpha, f), quad, atol=1e-6)

    def test_truncation_metadata(self, setup):
        gen, _ = setup
        solve = semigroup_solve(gen, 0.05, np.ones(gen.n))
        assert solve.uniformization_rate == pytest.approx(float(gen.q.max()))
        assert solve.truncation_order >= 1

    def test_invalid_rates_refused(self, sg_tower):
        cfg = tw.DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),))
        gen = sg_tower.generator(1, cfg)
        # the uniformized operator is cached on the generator; a refusal is not
        for _ in range(2):
            with pytest.raises(RateValidationError):
                semigroup_apply(gen, 0.1, np.ones(gen.n))

    def test_negative_time_rejected(self, setup):
        gen, _ = setup
        with pytest.raises(ValueError):
            semigroup_apply(gen, -0.1, np.ones(gen.n))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, setup, t):
        gen, _ = setup
        with pytest.raises(ValueError):
            semigroup_apply(gen, t, np.ones(gen.n))


class TestBlockKernel:
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("t", [0.0, 0.07])
    def test_block_equals_columns(self, setup, k, t):
        gen, _ = setup
        block = np.random.default_rng(29).standard_normal((gen.n, k))
        solve = semigroup_solve(gen, t, block)
        assert solve.output.shape == (gen.n, k)
        columns = [semigroup_solve(gen, t, block[:, j]) for j in range(k)]
        expected = np.column_stack([c.output for c in columns])
        assert np.array_equal(solve.output, expected)
        assert solve.truncation_order == columns[0].truncation_order

    def test_zero_weight_skip_matches_full_sum(self):
        # mu_t = 800 underflows the left Poisson tail to exact zeros; a cyclic
        # shift never mixes, so a misplaced power of P would show
        n = 7
        P = sparse.csr_matrix(np.roll(np.eye(n), 1, axis=1))
        f = np.random.default_rng(31).standard_normal((n, 3))
        out, order = _poisson_series(P, 800.0, f)
        weights = poisson.pmf(np.arange(order + 1), 800.0)
        assert weights[0] == 0.0
        acc, v = weights[0] * f, f
        for w in weights[1:]:
            v = P @ v
            acc = acc + w * v
        assert np.array_equal(out, acc)

    @pytest.mark.parametrize("shape", ["three_d", "wrong_n", "wrong_n_block"])
    def test_bad_shapes_rejected(self, setup, shape):
        gen, _ = setup
        f = {
            "three_d": np.ones((gen.n, 2, 1)),
            "wrong_n": np.ones(gen.n + 1),
            "wrong_n_block": np.ones((gen.n - 1, 3)),
        }[shape]
        with pytest.raises(ValueError):
            semigroup_solve(gen, 0.1, f)


class TestMarkovChecks:
    def test_unit_function_exact(self, setup):
        gen, _ = setup
        out = semigroup_apply(gen, 0.2, np.ones(gen.n))
        assert out.min() >= 1.0 - 1e-10 and out.max() <= 1.0 + 1e-10

    def test_indicator_stays_in_unit_interval(self, setup):
        gen, _ = setup
        f = point_mass(gen.n, 0)
        out = semigroup_apply(gen, 0.05, f)
        assert out.min() >= -1e-10 and out.max() <= 1.0 + 1e-10

    @pytest.mark.parametrize("t", [0.01, 0.1])
    def test_random_batch(self, setup, t):
        gen, _ = setup
        report = markov_check(gen, t, trials=40, seed=19)
        assert report.ok, (report.min_value, report.max_value, report.positivity_min)

    @pytest.mark.parametrize("seed", [0, 19])
    def test_block_matches_per_trial_loop(self, sg_tower, admissible_cfg, seed):
        gen = sg_tower.generator(3, admissible_cfg)
        t, trials = 0.1, 6
        # reference: one semigroup series per trial column, same Philox stream
        rng = _philox(seed, 2)
        lo, hi, pos = np.inf, -np.inf, np.inf
        for _ in range(trials):
            out = semigroup_apply(gen, t, rng.random(gen.n))
            lo = min(lo, float(out.min()))
            hi = max(hi, float(out.max()))
            pos = min(pos, float(semigroup_apply(gen, t, rng.exponential(1.0, gen.n)).min()))
        report = markov_check(gen, t, trials=trials, seed=seed)
        assert (report.min_value, report.max_value, report.positivity_min) == (lo, hi, pos)
        assert report.ok

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, setup, trials):
        gen, _ = setup
        with pytest.raises(ValueError):
            markov_check(gen, 0.1, trials=trials)


class TestGrowthBound:
    def test_unperturbed_is_contraction(self, sg_tower):
        gen = sg_tower.generator(2, None)
        points = contraction_growth_check(gen, lam=0.0, t_grid=[0.05, 0.2], iters=30)
        for p in points:
            assert p.norm_estimate <= 1.0 + 1e-8
            assert p.ok

    def test_time_zero_norm_is_one(self, setup):
        gen, c = setup
        (p,) = contraction_growth_check(gen, c.lam, [0.0], iters=5)
        assert p.norm_estimate == pytest.approx(1.0, rel=1e-12)

    def test_perturbed_growth_bound(self, setup):
        gen, c = setup
        points = contraction_growth_check(
            gen, c.lam, [0.02, 0.1, 0.5], iters=40, seed=23
        )
        for p in points:
            assert p.ok, (p.t, p.norm_estimate, p.bound)
