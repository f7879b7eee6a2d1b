"""Resolvent and semigroup identities, Markov bounds, growth estimates.

Both semigroup kernels, the Chebyshev series and shift-and-invert Krylov,
are checked against dense ``scipy.linalg.expm``, and the series against the
uniformization series, which stays in ``spectral`` as its fallback and
serves here as an oracle.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy import sparse
from scipy.special import ive
from scipy.stats import poisson

from driftform import pcf, spectral
from driftform import tower as tw
from driftform.markov import GeneratorMatrix, RateValidationError, _philox, point_mass
from driftform.spectral import (
    CHEBYSHEV,
    GROWTH_LIMIT,
    KRYLOV,
    SERIES_TAIL,
    UNIFORMIZATION,
    _bessel_ratios,
    _chebyshev_coefficients,
    _chebyshev_series,
    _expm,
    _krylov,
    _poisson_series,
    _poisson_weights,
    markov_check,
    resolvent,
    resolvent_solve,
    semigroup_solve,
)
from oracles import TWO_TERM_DRIFT, chebyshev_coefficients, poisson_weights, semigroup_apply


CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"


def contraction_growth_check(gen, lam, t_grid, iters=50, seed=11, tol=1e-8):
    """Per time ``t``: a power-iteration estimate of the ``mu``-weighted norm
    of ``exp(tL)`` (a reproducible lower bound) against ``exp(lam t)``, and
    the method of its series (``uniformization`` if any of them fell back).
    The adjoint comes from dense ``expm``."""
    mu = gen.mu
    out = []
    for t in t_grid:
        # the mu-weighted adjoint of exp(tL) is mu^-1 exp(tL^T) mu
        adjoint = scipy.linalg.expm(t * gen.L.T.toarray())
        v = _philox(seed, 3).standard_normal(gen.n)
        v /= np.sqrt(np.sum(mu * v * v))
        estimate, methods = 0.0, set()
        for _ in range(iters):
            forward = semigroup_solve(gen, t, v)
            u = forward.output
            estimate = float(np.sqrt(np.sum(mu * u * u)))
            if estimate == 0.0:
                break
            methods.add(forward.method)
            w = adjoint @ (mu * u) / mu
            v = w / np.sqrt(np.sum(mu * w * w))
        bound = float(np.exp(lam * t))
        method = UNIFORMIZATION if UNIFORMIZATION in methods else CHEBYSHEV
        out.append(SimpleNamespace(t=t, norm_estimate=estimate, bound=bound,
                                   ok=estimate <= bound * (1 + tol), method=method))
    return out


def expm_oracle(gen, t, f):
    return scipy.linalg.expm(t * gen.L.toarray()) @ f


def cycle_generator(n, rate):
    """Directed cycle ``x -> x + 1`` at one rate.  Its uniformized operator
    is a cyclic shift, whose eigenvalues (the n-th roots of unity) lie off
    the interval [-1, 1] where the Chebyshev series converges."""
    rows = np.arange(n)
    cols = (rows + 1) % n
    off = sparse.coo_matrix((np.full(n, rate), (rows, cols)), shape=(n, n))
    L = (off - rate * sparse.identity(n)).tocsr()
    return GeneratorMatrix(L, np.ones(n), -1, rows, cols, np.zeros(n))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, setup, bad):
        gen, c = setup
        f = np.ones(gen.n)
        f[3] = bad
        with pytest.raises(ValueError, match="finite"):
            resolvent_solve(gen, 2.0 * c.lam, f)

    def test_nan_residual_fails_closed(self):
        # NaN rates make the solution and its residual NaN, which must not pass
        with pytest.raises(ArithmeticError, match="residual nan"):
            resolvent_solve(cycle_generator(4, np.nan), 1.0, np.ones(4))


class TestSemigroup:
    def test_time_zero_is_identity(self, setup):
        gen, _ = setup
        rng = np.random.default_rng(7)
        f = rng.standard_normal(gen.n)
        solve = semigroup_solve(gen, 0.0, f)
        assert np.array_equal(solve.output, f)
        assert solve.output is not f
        assert (solve.method, solve.truncation_order, solve.tail_bound, solve.growth) == (
            CHEBYSHEV, 0, 0.0, 1.0)

    def test_empty_block(self, setup):
        gen, _ = setup
        for t in (0.0, 0.1):
            solve = semigroup_solve(gen, t, np.empty((gen.n, 0)))
            assert solve.output.shape == (gen.n, 0)
            assert solve.method == CHEBYSHEV

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
        assert solve.method == CHEBYSHEV
        assert 1.0 <= solve.growth <= GROWTH_LIMIT
        assert solve.tail_bound <= SERIES_TAIL * solve.growth

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

    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_non_finite_input_rejected(self, setup, block):
        gen, _ = setup
        f = np.ones((gen.n, 3) if block else gen.n)
        f[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            semigroup_solve(gen, 0.1, f)


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
        assert {c.method for c in columns} == {solve.method} == {CHEBYSHEV}
        assert solve.growth == max(c.growth for c in columns)

    def test_zero_column_in_block(self, setup):
        gen, _ = setup
        block = np.random.default_rng(41).standard_normal((gen.n, 3))
        block[:, 1] = 0.0
        out = semigroup_apply(gen, 0.07, block)
        assert np.array_equal(out[:, 1], np.zeros(gen.n))
        assert np.array_equal(out[:, [0, 2]], semigroup_apply(gen, 0.07, block[:, [0, 2]]))

    def test_zero_weight_skip_matches_full_sum(self):
        # mu_t = 800 underflows the left Poisson tail to exact zeros; a cyclic
        # shift never mixes, so a misplaced power of P would show.  The shift
        # is the uniformized directed cycle, on which the semigroup falls back
        # to this series.
        gen = cycle_generator(7, 50.0)
        P = gen.uniformized[0]
        f = np.random.default_rng(31).standard_normal((gen.n, 3))
        out, order, _ = _poisson_series(P, 800.0, f)
        weights, _ = _poisson_weights(800.0)
        assert len(weights) == order + 1
        assert weights[0] == 0.0
        reference = poisson.pmf(np.arange(order + 1), 800.0)
        assert np.allclose(weights, reference, rtol=1e-9, atol=1e-250)
        acc, v = weights[0] * f, f
        for w in weights[1:]:
            v = P @ v
            acc = acc + w * v
        assert np.array_equal(out, acc)
        solve = semigroup_solve(gen, 16.0, f)
        assert solve.method == UNIFORMIZATION
        assert np.array_equal(solve.output, out)

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
        assert report.method == CHEBYSHEV

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
            assert p.method == CHEBYSHEV

    def test_directed_cycle_reports_fallback(self):
        # exp(tL) of a directed cycle is doubly stochastic: a contraction
        (p,) = contraction_growth_check(cycle_generator(12, 50.0), 0.0, [0.1], iters=5)
        assert p.method == UNIFORMIZATION
        assert p.ok and p.norm_estimate <= 1.0 + 1e-12


class TestChebyshevKernel:
    @pytest.mark.parametrize("drift", ["none", "default", "two_term"])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_matches_dense_expm(self, sg_tower, admissible_cfg, drift, level):
        cfg = {"none": None, "default": admissible_cfg, "two_term": TWO_TERM_DRIFT}[drift]
        gen = sg_tower.generator(level, cfg)
        f = np.random.default_rng(level).standard_normal((gen.n, 2))
        for t in (0.01, 0.1, 1.0):
            solve = semigroup_solve(gen, t, f)
            assert solve.method == CHEBYSHEV
            gap = np.max(np.abs(solve.output - expm_oracle(gen, t, f)))
            assert gap <= 1e-12 * np.max(np.abs(f)), (t, gap)

    def test_two_term_drift_has_complex_spectrum(self, sg_tower):
        # the dense-expm comparison above covers a non-real spectrum
        eigenvalues = np.linalg.eigvals(sg_tower.generator(4, TWO_TERM_DRIFT).L.toarray())
        assert np.max(np.abs(eigenvalues.imag)) > 0.1

    @pytest.mark.parametrize("config", ["interval.json", "sg_combinatorial.json"])
    def test_shipped_structures_match_dense_expm(self, config):
        tower = tw.LevelTower(pcf.load_structure(CONFIGS / config))
        boundary = tower.vertex_count(0)
        indicator = tuple(1.0 if k == 0 else 0.0 for k in range(boundary))
        drift = tw.DriftConfig((("constant", 0.2),), ((0, indicator),))
        for level in (1, 2, 3):
            for cfg in (None, drift):
                gen = tower.generator(level, cfg)
                f = np.random.default_rng(level).standard_normal(gen.n)
                for t in (0.01, 0.1, 1.0):
                    solve = semigroup_solve(gen, t, f)
                    assert solve.method == CHEBYSHEV
                    gap = np.max(np.abs(solve.output - expm_oracle(gen, t, f)))
                    assert gap <= 1e-12 * np.max(np.abs(f)), (config, level, t, gap)

    def test_matches_uniformization_oracle(self, sg_tower, admissible_cfg):
        gen = sg_tower.generator(5, admissible_cfg)
        P, lam = gen.uniformized
        f = np.random.default_rng(47).standard_normal((gen.n, 2))
        oracle, _, _ = _poisson_series(P, lam * 0.1, f)
        gap = np.max(np.abs(semigroup_apply(gen, 0.1, f) - oracle))
        assert gap <= 1e-11 * np.max(np.abs(f))

    def test_default_drift_stays_on_chebyshev(self, sg_tower, admissible_cfg):
        for level in range(1, 7):
            gen = sg_tower.generator(level, admissible_cfg)
            solve = semigroup_solve(gen, 0.1, sg_tower.coordinates(level)[:, 0])
            assert solve.method == CHEBYSHEV, level
            assert solve.growth <= 2.0 and solve.tail_bound <= 2.0 * SERIES_TAIL

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_directed_cycle_falls_back_and_says_so(self, t, monkeypatch):
        gen = cycle_generator(12, 50.0)
        f = np.random.default_rng(53).standard_normal(gen.n)
        exact = expm_oracle(gen, t, f)
        # unguarded, the series is useless here
        with monkeypatch.context() as m:
            m.setattr(spectral, "GROWTH_LIMIT", np.inf)
            raw, _, _, growth = _chebyshev_series(gen.uniformized[0], 50.0 * t, f)
        assert growth > 1e6
        assert np.max(np.abs(raw - exact)) > 1e-8
        solve = semigroup_solve(gen, t, f)
        assert solve.method == UNIFORMIZATION
        assert solve.growth > GROWTH_LIMIT
        assert solve.tail_bound <= SERIES_TAIL
        assert np.max(np.abs(solve.output - exact)) <= 1e-12 * np.max(np.abs(f))
        assert markov_check(gen, t, trials=3).method == UNIFORMIZATION


class TestKrylovKernel:
    """The shift-and-invert Krylov kernel called directly, below its
    crossover too, against dense ``expm`` in the sup norm, the norm its
    bound is stated in."""

    T = 0.1

    @staticmethod
    def assert_bound_covers_gap(gen, t, f):
        solve = _krylov(gen, t, f)
        gap = np.max(np.abs(solve.output - expm_oracle(gen, t, f)))
        assert solve.method == KRYLOV
        assert solve.tail_bound <= spectral.KRYLOV_TOL
        assert gap <= solve.tail_bound * np.max(np.abs(f)), gap

    @pytest.mark.parametrize("drift", ["none", "default", "two_term"])
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_sg_matches_dense_expm(self, sg_tower, admissible_cfg, drift, level):
        cfg = {"none": None, "default": admissible_cfg, "two_term": TWO_TERM_DRIFT}[drift]
        gen = sg_tower.generator(level, cfg)
        f = np.random.default_rng(level).standard_normal(gen.n)
        self.assert_bound_covers_gap(gen, self.T, f)

    @pytest.mark.parametrize("config", ["interval.json", "sg_combinatorial.json"])
    def test_shipped_structures_match_dense_expm(self, config):
        tower = tw.LevelTower(pcf.load_structure(CONFIGS / config))
        boundary = tower.vertex_count(0)
        indicator = tuple(1.0 if k == 0 else 0.0 for k in range(boundary))
        drift = tw.DriftConfig((("constant", 0.2),), ((0, indicator),))
        for level in (2, 4):
            for cfg in (None, drift):
                gen = tower.generator(level, cfg)
                f = np.random.default_rng(level).standard_normal(gen.n)
                self.assert_bound_covers_gap(gen, self.T, f)

    def test_block_runs_column_by_column(self, setup):
        gen, _ = setup
        block = np.random.default_rng(59).standard_normal((gen.n, 3))
        solve = _krylov(gen, self.T, block)
        columns = [_krylov(gen, self.T, block[:, j]) for j in range(3)]
        np.testing.assert_allclose(solve.output, np.column_stack([c.output for c in columns]),
                                   rtol=0.0, atol=1e-14)
        assert solve.tail_bound == pytest.approx(max(c.tail_bound for c in columns))

    def test_from_the_crossover_on(self, sg_tower, admissible_cfg, monkeypatch):
        gen = sg_tower.generator(3, admissible_cfg)
        f = sg_tower.coordinates(3)[:, 0]
        series = semigroup_solve(gen, self.T, f)
        assert series.method == CHEBYSHEV and series.krylov is None
        tau = gen.uniformized[1] * self.T
        monkeypatch.setattr(spectral, "KRYLOV_MIN_TAU", np.nextafter(tau, np.inf))
        assert semigroup_solve(gen, self.T, f).method == CHEBYSHEV
        monkeypatch.setattr(spectral, "KRYLOV_MIN_TAU", tau)
        solve = semigroup_solve(gen, self.T, f)
        assert solve.method == KRYLOV
        assert set(solve.krylov) == {"dimension", "gamma", "s0", "bound", "start_degree"}
        k = solve.krylov
        assert k["s0"] == pytest.approx(spectral.KRYLOV_START * self.T)
        assert k["gamma"] == pytest.approx(spectral.KRYLOV_SHIFT * (self.T - k["s0"]))
        assert solve.truncation_order == k["start_degree"] + k["dimension"]
        assert np.max(np.abs(solve.output - series.output)) <= solve.tail_bound + 1e-13

    def test_selects_by_lambda_t_not_by_size(self, sg_tower, admissible_cfg):
        # a small level at a long time runs Krylov, a deep one at a short
        # time the series
        small = sg_tower.generator(3, admissible_cfg)
        t = spectral.KRYLOV_MIN_TAU / small.uniformized[1]
        f = sg_tower.coordinates(3)[:, 0]
        solve = semigroup_solve(small, t, f)
        assert solve.method == KRYLOV
        gap = np.max(np.abs(solve.output - scipy.linalg.expm(t * small.L.toarray()) @ f))
        assert gap <= solve.tail_bound * np.max(np.abs(f))
        deep = sg_tower.generator(7, admissible_cfg)
        assert deep.uniformized[1] * 0.001 < spectral.KRYLOV_MIN_TAU
        assert semigroup_solve(deep, 0.001, sg_tower.coordinates(7)[:, 0]).method == CHEBYSHEV

    def test_bound_past_the_tolerance_falls_back_and_says_so(self, sg_tower, admissible_cfg,
                                                             monkeypatch):
        gen = sg_tower.generator(3, admissible_cfg)
        f = sg_tower.coordinates(3)[:, 0]
        series = semigroup_solve(gen, self.T, f)
        monkeypatch.setattr(spectral, "KRYLOV_MIN_TAU", 0.0)
        monkeypatch.setattr(spectral, "KRYLOV_TOL", 1e-30)
        solve = semigroup_solve(gen, self.T, f)
        assert solve.method == CHEBYSHEV
        assert np.array_equal(solve.output, series.output)
        assert solve.tail_bound == series.tail_bound
        assert solve.krylov["fallback"].startswith("Krylov bound")
        assert solve.krylov["bound"] > 1e-30

    def test_growing_start_falls_back_and_says_so(self, monkeypatch):
        monkeypatch.setattr(spectral, "KRYLOV_MIN_TAU", 0.0)
        gen = cycle_generator(12, 50.0)
        f = np.random.default_rng(61).standard_normal(gen.n)
        solve = semigroup_solve(gen, 1.0, f)
        assert solve.method == UNIFORMIZATION
        assert "grew past" in solve.krylov["fallback"]
        assert np.max(np.abs(solve.output - expm_oracle(gen, 1.0, f))) <= 1e-12 * np.max(np.abs(f))

    def test_expm_of_a_stack(self):
        rng = np.random.default_rng(67)
        a = rng.standard_normal((4, 6, 6)) * np.array([1e-3, 1.0, 30.0, 300.0])[:, None, None]
        a[3] -= 300.0 * np.eye(6)  # a stiff, decaying one scaled with the others
        got = _expm(a)
        for x, e in zip(a, got):
            want = scipy.linalg.expm(x)
            assert np.max(np.abs(e - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestSeriesTruncation:
    TAUS = [1e-6, 0.5, 5.0, 120.0, 10195.0, 48765.0]

    @pytest.mark.parametrize("tau", TAUS)
    def test_chebyshev_degree_is_the_least_certified_one(self, tau):
        c, tail = _chebyshev_coefficients(tau)
        degree = len(c) - 1
        reference, _ = chebyshev_coefficients(tau)
        assert len(c) == len(reference)
        # ive errs by about 4e-13 relative at tau = 48765
        assert np.allclose(c, reference, rtol=1e-11, atol=0.0)
        # oracle: the tail summed term by term far past the degree
        far = np.arange(degree + 1, degree + 40 * int(np.sqrt(tau)) + 200)
        assert tail == pytest.approx(2.0 * ive(far, tau).sum(), rel=1e-9, abs=2e-16)
        assert tail <= SERIES_TAIL < tail + c[-1]
        # exp(tau (x - 1)) is 1 at x = 1, where every T_k is 1
        assert c.sum() + tail == pytest.approx(1.0, abs=1e-13)
        # about sqrt(2 tau ln(1/tol)) products, against about tau for uniformization
        assert degree <= np.sqrt(2.0 * tau * np.log(1.0 / SERIES_TAIL)) + 10

    @pytest.mark.parametrize("tau", TAUS)
    def test_bessel_ratio_bound_behind_the_tail_estimate(self, tau):
        k = np.arange(int(np.sqrt(80.0 * tau)) + 60)
        terms = ive(k, tau)
        seen = terms[1:] > 1e-290
        ratio = terms[1:][seen] / terms[:-1][seen]
        bound = tau / (k[:-1] + 0.5 + np.hypot(k[:-1] + 0.5, tau))
        assert np.all(ratio <= bound[seen] * (1.0 + 1e-12))
        assert np.all(np.diff(bound) <= 0.0)
        # the backward recurrence gives the same ratios, under the same bound
        recurrence = _bessel_ratios(tau, len(bound))
        assert np.allclose(recurrence[seen], ratio, rtol=1e-11, atol=0.0)
        assert np.all(recurrence <= bound * (1.0 + 1e-12))

    @pytest.mark.parametrize("mu", [1e-3, 0.5, 7.0, 800.0, 10195.3, 48765.0])
    def test_poisson_order_bounds_the_tail_mass(self, mu):
        weights, tail = _poisson_weights(mu)
        order = len(weights) - 1
        # one past the least k with P(N > k) <= SERIES_TAIL, as the inverse
        # survival function of scipy.stats gives it (to its rounding of 1 - q)
        assert poisson.sf(order - 1, mu) <= SERIES_TAIL
        assert abs((order - 1) - poisson.isf(SERIES_TAIL, mu)) <= 1
        assert tail == pytest.approx(poisson.sf(order, mu), rel=1e-9)
        # poisson.pmf errs by about 1e-10 relative near the mode at mu ~ 5e4
        assert np.allclose(weights, poisson.pmf(np.arange(order + 1), mu), rtol=1e-8, atol=1e-250)
        assert weights.sum() + tail == pytest.approx(1.0, abs=1e-13)

    # the L6 and L7 bench times: tau = Lam t at t = 0.1
    GRID_TAUS = [0.0, 9469.7, 47159.1, *np.geomspace(1e-3, 1e6, 91)]

    def test_chebyshev_degree_matches_scipy_reference(self):
        for tau in self.GRID_TAUS:
            c, tail = _chebyshev_coefficients(tau)
            reference, reference_tail = chebyshev_coefficients(tau)
            assert len(c) == len(reference), tau
            assert np.allclose(c, reference, rtol=1e-10, atol=0.0), tau
            assert tail == pytest.approx(reference_tail, rel=1e-9, abs=1e-30), tau

    def test_poisson_order_matches_scipy_reference(self):
        for mu in np.geomspace(1e-3, 3e5, 86):
            weights, tail = _poisson_weights(mu)
            reference, reference_tail = poisson_weights(mu)
            assert len(weights) == len(reference), mu
            assert np.allclose(weights, reference, rtol=1e-8, atol=1e-250), mu
            assert tail == pytest.approx(reference_tail, rel=1e-6), mu


class TestSeriesAccuracy:
    """Both series against 30-digit mpmath values.  mpmath's ``besseli``
    does not converge near tau = 47000 without ``maxterms``, so the
    Chebyshev grid stops at the L6 bench time."""

    @pytest.mark.parametrize("tau", [5.0, 120.0, 9469.7])
    def test_chebyshev_coefficients(self, tau):
        mpmath = pytest.importorskip("mpmath")
        c, _ = _chebyshev_coefficients(tau)
        ks = np.unique(np.linspace(0, len(c) - 1, 30).astype(int))
        with mpmath.workdps(30):
            x = mpmath.mpf(tau)
            exact = np.array([float((1 if k == 0 else 2) * mpmath.besseli(int(k), x)
                                    * mpmath.exp(-x)) for k in ks])
        assert np.max(np.abs(c[ks] / exact - 1.0)) <= 1e-14

    @pytest.mark.parametrize("mu", [800.0, 10195.3, 48765.0, 2.4e5])
    def test_poisson_weights_near_the_mode(self, mu):
        mpmath = pytest.importorskip("mpmath")
        weights, _ = _poisson_weights(mu)
        spread = 3.0 * np.sqrt(mu)
        ks = np.unique(np.linspace(mu - spread, mu + spread, 25).astype(int))
        with mpmath.workdps(30):
            x = mpmath.mpf(mu)
            exact = np.array([float(mpmath.exp(int(k) * mpmath.log(x)
                                               - mpmath.loggamma(int(k) + 1) - x)) for k in ks])
        assert np.max(np.abs(weights[ks] / exact - 1.0)) <= 1e-13
