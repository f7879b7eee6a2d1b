"""Generators, jump parameters, rate validation and path sampling."""

import dataclasses
import json
import signal
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from driftform import pcf
from driftform import tower as tw
from driftform.markov import (
    BINS,
    RateValidationError,
    build_generator,
    detailed_balance_gap,
    ensemble_states,
    point_mass,
    sample_paths,
    validate_rates,
    write_trajectories_jsonl,
)
from driftform.spectral import semigroup_solve
from oracles import (
    edge_list,
    eta,
    jump_parameters,
    logged_paths,
    state_at,
    uniformized_chains,
)


CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"


def read_trajectories_jsonl(path) -> list[dict]:
    """The paths of a ``trajectories.jsonl`` report, one object per line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def split_paths(offsets, jump_times, jump_states):
    """The ``(times, states)`` of each path of :func:`sample_paths`."""
    return [(jump_times[a:b], jump_states[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


@pytest.fixture(scope="module")
def gen_plain_l2(sg_tower):
    return sg_tower.generator(2, None)


@pytest.fixture(scope="module")
def gen_drift_l2(sg_tower, admissible_cfg):
    return sg_tower.generator(2, admissible_cfg)


class TestGenerator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unperturbed_holding_rates(self, sg_tower, n):
        gen = sg_tower.generator(n, None)
        np.testing.assert_allclose(gen.q, 6.0 * 5.0**n, rtol=1e-13)

    def test_rows_sum_to_zero(self, gen_drift_l2):
        rows = np.asarray(gen_drift_l2.L.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-10

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_duality_with_form_on_full_basis(self, sg_tower, admissible_cfg, level):
        # one object: the generator and the forms A = E + Q it carries
        gen = sg_tower.generator(level, admissible_cfg)
        lhs = -np.diag(gen.mu) @ gen.L.toarray()  # (-L f, g)_mu on basis pairs
        rhs = (gen.E_matrix + gen.Q_matrix).toarray()
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, scale)

    def test_offdiagonals_factor_through_eta(self, sg_tower, admissible_cfg):
        level = 2
        spec = tw.realize_drift(sg_tower, admissible_cfg, level)
        gen = sg_tower.generator(level, admissible_cfg)
        gen0 = sg_tower.generator(level, None)
        net = sg_tower.network(level)
        L, L0 = gen.L.toarray(), gen0.L.toarray()
        for x, y, _ in edge_list(net):
            assert L[x, y] == pytest.approx(
                L0[x, y] * (1.0 + eta(spec, x, y)), rel=1e-12
            )
            assert L[y, x] == pytest.approx(
                L0[y, x] * (1.0 + eta(spec, y, x)), rel=1e-12
            )

    def test_zero_measure_rejected(self, sg_tower):
        net = sg_tower.network(1)
        mu = sg_tower.measure(1).copy()
        mu[0] = 0.0
        with pytest.raises(ValueError):
            build_generator(net, None, mu, 1)


class TestJumpParameters:
    def test_unperturbed_kernel_values(self, sg_tower):
        # corners jump with probability 1/2 to each of 2 neighbours,
        # interior vertices 1/4 to each of 4
        for n in (1, 2, 3):
            q, pi = jump_parameters(sg_tower.generator(n, None))
            dense = pi.toarray()
            for x in range(dense.shape[0]):
                nonzero = dense[x][dense[x] > 0]
                expected = 0.5 if x < 3 else 0.25
                np.testing.assert_allclose(nonzero, expected, rtol=1e-12)

    def test_rows_sum_to_one(self, gen_drift_l2):
        _, pi = jump_parameters(gen_drift_l2)
        rows = np.asarray(pi.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_perturbed_kernel_renormalizes_edge_factors(self, sg_tower, admissible_cfg):
        level = 2
        spec = tw.realize_drift(sg_tower, admissible_cfg, level)
        gen = sg_tower.generator(level, admissible_cfg)
        net = sg_tower.network(level)
        _, pi = jump_parameters(gen)
        dense = pi.toarray()
        c = net.c.toarray()
        for x in range(net.n):
            weights = np.array(
                [c[x, y] * (1.0 + eta(spec, x, y)) for y in range(net.n)]
            )
            np.testing.assert_allclose(dense[x], weights / weights.sum(), atol=1e-12)

    def test_invalid_rates_refused(self, sg_tower):
        cfg = tw.DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),))
        gen = sg_tower.generator(1, cfg)
        with pytest.raises(RateValidationError):
            jump_parameters(gen)


class TestValidateRates:
    def test_unperturbed_clean(self, gen_plain_l2):
        assert validate_rates(gen_plain_l2).ok

    def test_admissible_clean(self, gen_drift_l2):
        assert validate_rates(gen_drift_l2).ok

    def test_oversized_drift_names_edges(self, sg_tower):
        # |eta| > 1 needs b * |dh| > 2; the steepest level-1 edges have
        # |dh| = 3/5, so b = 10 violates them
        cfg = tw.DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),))
        spec = tw.realize_drift(sg_tower, cfg, 1)
        gen = sg_tower.generator(1, cfg)
        report = validate_rates(gen)
        assert not report.ok
        for x, y, value in report.violations:
            assert value == pytest.approx(1.0 + eta(spec, x, y), rel=1e-12)
            assert value < 0
        # jumps from the midpoints up into the h = 1 corner are suppressed
        # hardest: eta(3, 0) = 5 * (0.4 - 1.0) = -3
        assert {(3, 0), (4, 0)} <= {(x, y) for x, y, _ in report.violations}

    def test_nan_factor_fails_closed(self, gen_plain_l2):
        eta_nan = gen_plain_l2.edge_eta.copy()
        eta_nan[0] = np.nan
        gen = dataclasses.replace(gen_plain_l2, edge_eta=eta_nan)
        report = validate_rates(gen)
        assert [(x, y) for x, y, _ in report.violations] == [
            (int(gen.edge_rows[0]), int(gen.edge_cols[0]))
        ]
        # every entry point refuses it with the one message
        for refused in (lambda: gen.uniformized, lambda: gen.event_tables,
                        lambda: jump_parameters(gen)):
            with pytest.raises(RateValidationError, match="^1 edges have negative rates; first"):
                refused()


@contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _one_path(gen, initial, horizon, seed):
    """``(times, states)`` of a one-path run up to ``horizon``."""
    return split_paths(*sample_paths(gen, initial, [horizon], 1, seed)[1:])[0]


class TestSimulate:
    def test_zero_horizon(self, gen_drift_l2):
        times, states = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.0, seed=5)
        assert states.tolist() == [1]
        assert times.tolist() == [0.0]

    def test_seeded_reproducibility(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        a = split_paths(*sample_paths(gen_drift_l2, init, [0.2], 5, seed=42)[1:])
        b = split_paths(*sample_paths(gen_drift_l2, init, [0.2], 5, seed=42)[1:])
        assert np.array_equal(a[3][0], b[3][0])
        assert np.array_equal(a[3][1], b[3][1])
        assert not np.array_equal(a[3][0], a[4][0])

    def test_trajectory_invariants(self, gen_drift_l2):
        # each path starts at (0, initial state), jumps at strictly
        # increasing times below the horizon, along edges only, and is at
        # the recording times where the fixed-time sampler puts it
        times, x = [0.02, 0.0, 0.2, 0.05], 1
        init = point_mass(gen_drift_l2.n, x)
        states, offsets, jump_times, jump_states = sample_paths(gen_drift_l2, init,
                                                                times, 300, 6)
        starts, ends = offsets[:-1], offsets[1:]
        assert np.all(ends > starts)
        assert np.all(jump_times[starts] == 0.0) and np.all(jump_states[starts] == x)
        within = np.ones(len(jump_times) - 1, dtype=bool)
        within[ends[:-1] - 1] = False  # the pairs that cross into the next path
        assert np.all(np.diff(jump_times)[within] > 0)
        assert np.all(jump_times < 0.2)
        adjacency = gen_drift_l2.net.c.toarray() > 0
        assert np.all(adjacency[jump_states[:-1][within], jump_states[1:][within]])
        # the last jump at or before each time, per path
        for t, row in zip(sorted(times), ensemble_states(gen_drift_l2, init, times, 300, 6)):
            last = [a + np.searchsorted(jump_times[a:b], t, side="right") - 1
                    for a, b in zip(starts, ends)]
            assert np.array_equal(jump_states[last], row)
        assert np.array_equal(states, ensemble_states(gen_drift_l2, init, times, 300, 6))

    def test_invalid_initial_rejected(self, gen_drift_l2):
        with pytest.raises(ValueError):
            sample_paths(gen_drift_l2, np.full(gen_drift_l2.n, 0.3), [0.1], 1, seed=0)

    def test_holding_time_mean_level_one(self, sg_tower):
        # every vertex holds Exp(30) at level 1, so the mean is 1/30; the
        # last interval of each path is censored at the horizon, so the
        # estimate is the total exposure over the number of jumps
        gen = sg_tower.generator(1, None)
        paths, horizon = 300, 2.0
        offsets = sample_paths(gen, point_mass(gen.n, 1), [horizon], paths, seed=123)[1]
        jumps = offsets[-1] - paths
        mean = paths * horizon / jumps
        se = mean / np.sqrt(jumps)
        assert abs(mean - 1.0 / 30.0) <= 3.0 * se

    def test_right_continuity(self, gen_drift_l2):
        times, states = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.3, seed=21)
        if len(times) > 1:
            t1 = times[1]
            assert state_at(times, states, 0.3, t1) == states[1]
            assert state_at(times, states, 0.3, t1 - 1e-12) == states[0]


class TestEngine:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("times", [[0.1], [0.05, 0.0, 0.01, 0.05]])
    def test_ensemble_matches_per_state_loop(self, sg_tower, admissible_cfg,
                                             level, drift, times):
        gen = sg_tower.generator(level, admissible_cfg if drift else None)
        init = point_mass(gen.n, 1)
        expected = uniformized_chains(gen, init, times, 3000, 17, per_state=True)
        assert np.array_equal(ensemble_states(gen, init, times, 3000, 17), expected)

    def test_ensemble_matches_padded_row_engine_at_level_4(self, sg_tower, admissible_cfg):
        # the largest sample of converge: 20000 paths from vertex 1 to t = 0.1,
        # and the drift-free chain, whose cuts all fall on bin edges
        for cfg in (admissible_cfg, None):
            gen = sg_tower.generator(4, cfg)
            init = point_mass(gen.n, 1)
            expected = uniformized_chains(gen, init, [0.1], 20000, 1)
            assert np.array_equal(ensemble_states(gen, init, [0.1], 20000, 1), expected)

    @pytest.mark.parametrize("config", ["interval.json", "sg_combinatorial.json"])
    def test_ensemble_matches_padded_row_engine_on_shipped_structures(self, config):
        # the interval mixes degrees 1 and 2 and has degree 1 only at level
        # 0; a spread initial law and unsorted, repeated times
        tower = tw.LevelTower(pcf.load_structure(CONFIGS / config))
        boundary = tower.vertex_count(0)
        indicator = tuple(1.0 if k == 0 else 0.0 for k in range(boundary))
        drift = tw.DriftConfig((("constant", 0.2),), ((0, indicator),))
        times = [0.3, 0.0, 0.05, 0.3, 0.1]
        for level in (0, 1, 2, 3):
            for cfg in (None, drift):
                gen = tower.generator(level, cfg)
                init = np.arange(1.0, gen.n + 1.0)
                init /= init.sum()
                expected = uniformized_chains(gen, init, times, 1000, 5)
                got = ensemble_states(gen, init, times, 1000, 5)
                assert np.array_equal(got, expected), (config, level, cfg)

    def test_cuts_on_bin_edges(self):
        # the drift-free interval with its measure changed at two interior
        # vertices: two rows cut at exactly 1/2 of the scale (one also at
        # 1/4), and a row cut at 1/6 and 5/6 of it
        tower = tw.LevelTower(pcf.load_structure(CONFIGS / "interval.json"))
        base = tower.generator(2, None)
        mu = base.mu.copy()
        mu[3] *= 3.0
        mu[4] *= 2.0
        gen = build_generator(base.net, base.drift, mu, 2)
        P, _ = gen.uniformized
        dense = P.toarray()
        guide = gen.event_tables[1]
        on_edge = 0
        for x in range(gen.n):
            entries = np.flatnonzero(dense[x])
            cuts = np.cumsum(dense[x, entries]) * BINS
            if BINS / 2 in cuts:
                on_edge += 1
                cells = guide[x * BINS:(x + 1) * BINS]
                assert np.all(cells >= 0)  # no straddling bin in these rows
                k = int(np.flatnonzero(cuts == BINS / 2)[0])
                assert cells[BINS // 2 - 1] == entries[k] * BINS
                assert cells[BINS // 2] == entries[k + 1] * BINS
        assert on_edge == 2
        assert np.any(guide < 0)
        init = np.full(gen.n, 1.0 / gen.n)
        branches = {}
        expected = uniformized_chains(gen, init, [0.2, 0.05], 4000, 3, branches=branches)
        assert branches["pure"] > 0 and branches["straddle"] > 0
        assert np.array_equal(ensemble_states(gen, init, [0.2, 0.05], 4000, 3), expected)

    @pytest.mark.parametrize("level", [2, 3])
    def test_law_matches_exact_law(self, sg_tower, admissible_cfg, level):
        # chi-square of 200k states at t = 0.1 against p_t = e^{t L^T} delta_1,
        # row 1 of e^{t L} from a forward identity block, over the states
        # expected at least 5 times
        gen = sg_tower.generator(level, admissible_cfg)
        init = point_mass(gen.n, 1)
        paths = 200_000
        exact = semigroup_solve(gen, 0.1, np.eye(gen.n)).output[1] * paths
        counts = np.bincount(ensemble_states(gen, init, [0.1], paths, 2024)[0],
                             minlength=gen.n)
        kept = exact >= 5.0
        statistic = np.sum((counts[kept] - exact[kept]) ** 2 / exact[kept])
        assert stats.chi2.sf(statistic, np.count_nonzero(kept) - 1) > 1e-3

    def test_zero_paths(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        states = ensemble_states(gen_drift_l2, init, [0.1, 0.2], 0, 3)
        assert states.shape == (2, 0)
        assert np.array_equal(states, uniformized_chains(gen_drift_l2, init, [0.1, 0.2], 0, 3))
        states, offsets, jump_times, jump_states = sample_paths(gen_drift_l2, init,
                                                                [0.1, 0.2], 0, 3)
        assert states.shape == (2, 0) and offsets.tolist() == [0]
        assert jump_times.size == jump_states.size == 0

    def test_sample_paths_states_equal_ensemble_states(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        times = [0.1, 0.0, 0.03]
        states, offsets, jump_times, jump_states = sample_paths(gen_drift_l2, init, times, 500, 8)
        assert np.array_equal(states, ensemble_states(gen_drift_l2, init, times, 500, 8))
        assert len(offsets) == 501 and offsets[-1] == len(jump_times) == len(jump_states)

    def test_paths_pass_through_their_states(self, gen_drift_l2):
        times = [0.0, 0.02, 0.05, 0.1]
        states, *paths = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1),
                                      times, 300, 4)
        for k, (jump_times, jump_states) in enumerate(split_paths(*paths)):
            assert [state_at(jump_times, jump_states, 0.1, t) for t in times] == \
                states[:, k].tolist()

    def test_paths_equal_a_round_by_round_log(self, sg_tower, admissible_cfg):
        # reference: the engine logging each round through a callback, the
        # rounds then placed path by path; bit for bit, dtypes included, on
        # SG L1-L3 with and without the drift, the interval with a spread
        # initial law, unsorted repeated times and no paths
        interval = tw.LevelTower(pcf.load_structure(CONFIGS / "interval.json"))
        interval_drift = tw.DriftConfig((("constant", 0.2),), ((0, (1.0, 0.0)),))
        cases = [(sg_tower.generator(level, cfg), [0.03, 0.1], 200)
                 for level in (1, 2, 3) for cfg in (None, admissible_cfg)]
        cases += [(interval.generator(3, cfg), [0.3, 0.0, 0.05, 0.3, 0.1], 300)
                  for cfg in (None, interval_drift)]
        cases += [(sg_tower.generator(2, admissible_cfg), [0.05, 0.0, 0.01, 0.05], 100),
                  (sg_tower.generator(2, admissible_cfg), [0.1], 0)]
        for gen, times, n_paths in cases:
            init = np.arange(1.0, gen.n + 1.0)
            init /= init.sum()
            got = sample_paths(gen, init, times, n_paths, 9)
            want = logged_paths(gen, init, times, n_paths, 9)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (gen.n, times, n_paths)

    def test_one_long_path_keeps_no_per_round_log(self, sg_tower, admissible_cfg):
        # one path makes about Lambda t rounds of one step each; the flat
        # slots take 16 B a step, where a log of small arrays per round took
        # about 460 B
        gen = sg_tower.generator(1, admissible_cfg)
        lam = float(gen.q.max())
        horizon = 2e4 / lam
        gen.event_tables
        tracemalloc.start()
        try:
            offsets = sample_paths(gen, point_mass(gen.n, 1), [horizon], 1, 3)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert offsets[-1] > 1e4
        assert peak <= 64 * 2e4, peak

    def test_first_jump_time_is_exponential(self, gen_drift_l2):
        # self-loop steps are no jumps: a path from x leaves it at rate q(x)
        x = 1
        offsets, jump_times, _ = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, x),
                                              [0.02, 1.0], 2000, 12)[1:]
        assert np.all(np.diff(offsets) > 1)
        first = jump_times[offsets[:-1] + 1]
        assert stats.kstest(first, stats.expon(scale=1.0 / gen_drift_l2.q[x]).cdf).pvalue > 1e-3

    def test_every_step_is_an_edge(self, gen_drift_l2):
        paths = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [0.2], 300, 6)[1:]
        adjacency = gen_drift_l2.net.c.toarray() > 0
        steps = np.concatenate([np.stack([s[:-1], s[1:]]) for _, s in split_paths(*paths)],
                               axis=1)
        assert steps.shape[1] > 0
        assert np.all(adjacency[steps[0], steps[1]])

    def test_seed_fixes_the_paths(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        a = sample_paths(gen_drift_l2, init, [0.1], 50, 1)
        b = sample_paths(gen_drift_l2, init, [0.1], 50, 1)
        c = sample_paths(gen_drift_l2, init, [0.1], 50, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[2], c[2])

    def test_negative_time_rejected(self, gen_drift_l2):
        with pytest.raises(ValueError):
            ensemble_states(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [-0.1], 5, 0)

    def test_nan_time_rejected(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        with pytest.raises(ValueError, match="finite"):
            ensemble_states(gen_drift_l2, init, [0.1, float("nan")], 5, 0)
        with pytest.raises(ValueError, match="finite"):
            sample_paths(gen_drift_l2, init, [float("nan")], 5, 0)

    def test_infinite_time_rejected(self, gen_drift_l2):
        # refused before the first round: no round reaches an infinite
        # horizon, so the alarm turns a hang into a failure
        init = point_mass(gen_drift_l2.n, 1)
        with deadline(10):
            with pytest.raises(ValueError, match="finite"):
                ensemble_states(gen_drift_l2, init, [float("inf")], 5, 0)
            with pytest.raises(ValueError, match="finite"):
                sample_paths(gen_drift_l2, init, [0.1, float("inf")], 5, 0)
            with pytest.raises(ValueError, match="finite"):
                ensemble_states(gen_drift_l2, init, [-float("inf")], 5, 0)


class TestEmpiricalLaw:
    def test_time_zero_recovers_initial(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        states = sample_paths(gen_drift_l2, init, [0.0, 0.05], 200, seed=7)[0]
        law = np.bincount(states[0], minlength=gen_drift_l2.n) / 200
        assert law[1] == 1.0

    def test_beyond_horizon_rejected(self, gen_drift_l2):
        times, states = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.05, seed=7)
        with pytest.raises(ValueError):
            state_at(times, states, 0.05, 0.1)

    def test_long_time_law_approaches_reference_measure(self, sg_tower):
        # reversible unperturbed chain: the stationary law is the reference
        # measure itself (detailed balance)
        gen = sg_tower.generator(1, None)
        states = ensemble_states(gen, point_mass(gen.n, 1), [2.0], 20000, seed=3)[0]
        law = np.bincount(states, minlength=gen.n) / len(states)
        tv = 0.5 * np.abs(law - gen.mu).sum()
        assert tv < 0.02


class TestDetailedBalance:
    def test_reversible_without_drift(self, gen_plain_l2):
        assert detailed_balance_gap(gen_plain_l2) == pytest.approx(0.0, abs=1e-14)

    def test_violated_with_drift(self, gen_drift_l2):
        assert detailed_balance_gap(gen_drift_l2) > 1e-3


class TestTrajectoryIO:
    def test_jsonl_round_trip(self, tmp_path, gen_drift_l2):
        states, *paths = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1),
                                      [0.1], 5, seed=77)
        path = tmp_path / "trajs.jsonl"
        write_trajectories_jsonl(path, *paths, 0.1, 77, gen_drift_l2.n)
        back = read_trajectories_jsonl(path)
        assert len(back) == 5
        for k, (d, (jump_times, jump_states)) in enumerate(zip(back, split_paths(*paths))):
            assert np.array_equal(d["times"], jump_times)
            assert np.array_equal(d["states"], jump_states)
            assert (d["horizon"], d["index"], d["seed"], d["n_states"]) == \
                (0.1, k, 77, gen_drift_l2.n)

    def test_jsonl_lines_are_json_dumps(self, tmp_path, gen_drift_l2):
        # the lines the writer builds by hand, in chunks for a long list,
        # are the bytes of json.dumps(..., sort_keys=True)
        offsets = np.array([0, 1, 70_001])
        jump_times = np.concatenate(([0.0, 0.0], np.sort(np.random.default_rng(4).random(70_000))))
        jump_states = np.arange(70_001) % 7
        path = tmp_path / "trajs.jsonl"
        write_trajectories_jsonl(path, offsets, jump_times, jump_states, 2, 5, 7)
        want = "".join(
            json.dumps({"seed": 5, "index": k, "horizon": 2.0, "n_states": 7,
                        "times": jump_times[a:b].tolist(), "states": jump_states[a:b].tolist()},
                       sort_keys=True) + "\n"
            for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])))
        assert path.read_text() == want

    def test_grid_csv_matches_states(self, tmp_path):
        # the simulate mode's time grid against the trajectories it wrote
        from driftform.cli import main

        assert main(["simulate", "--level", "2", "--paths", "4", "--t", "0,0.05,0.1",
                     "--seed", "81", "--out", str(tmp_path)]) == 0
        trajs = read_trajectories_jsonl(tmp_path / "trajectories.jsonl")
        assert len(trajs) == 4
        lines = (tmp_path / "trajectory_grid.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == "path,time,state"
        assert len(lines) == 2 + 4 * 3
        for line in lines[2:]:
            k, t, s = line.split(",")
            d = trajs[int(k)]
            assert state_at(d["times"], d["states"], d["horizon"], float(t)) == int(s)
