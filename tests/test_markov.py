"""Generators, jump parameters, rate validation and path sampling."""

import numpy as np
import pytest

from driftform import tower as tw
from driftform.drift import eta
from driftform.markov import (
    ENSEMBLE_STREAM,
    RateValidationError,
    Trajectory,
    build_generator,
    detailed_balance_gap,
    ensemble_states,
    jump_parameters,
    point_mass,
    read_trajectories_jsonl,
    sample_paths,
    validate_rates,
    write_trajectories_jsonl,
)


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
        gen = sg_tower.generator(level, admissible_cfg)
        asm = sg_tower.assembly(level, admissible_cfg)
        lhs = -np.diag(gen.mu) @ gen.L.toarray()  # (-L f, g)_mu on basis pairs
        rhs = asm.A_matrix.toarray()
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, scale)

    def test_offdiagonals_factor_through_eta(self, sg_tower, admissible_cfg):
        level = 2
        spec = tw.realize_drift(sg_tower, admissible_cfg, level)
        gen = sg_tower.generator(level, admissible_cfg)
        gen0 = sg_tower.generator(level, None)
        net = sg_tower.network(level)
        L, L0 = gen.L.toarray(), gen0.L.toarray()
        for x, y, _ in net.edge_list():
            assert L[x, y] == pytest.approx(
                L0[x, y] * (1.0 + eta(net, spec, x, y)), rel=1e-12
            )
            assert L[y, x] == pytest.approx(
                L0[y, x] * (1.0 + eta(net, spec, y, x)), rel=1e-12
            )

    def test_zero_measure_rejected(self, sg_tower):
        net = sg_tower.network(1)
        mu = sg_tower.measure(1).copy()
        mu[0] = 0.0
        with pytest.raises(ValueError):
            build_generator(net, None, mu)


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
                [c[x, y] * (1.0 + eta(net, spec, x, y)) for y in range(net.n)]
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
        net = sg_tower.network(1)
        for x, y, value in report.violations:
            assert value == pytest.approx(1.0 + eta(net, spec, x, y), rel=1e-12)
            assert value < 0
        # jumps from the midpoints up into the h = 1 corner are suppressed
        # hardest: eta(3, 0) = 5 * (0.4 - 1.0) = -3
        assert {(3, 0), (4, 0)} <= {(x, y) for x, y, _ in report.violations}


def _one_path(gen, initial, horizon, seed):
    """The first trajectory of a one-path run up to ``horizon``."""
    return sample_paths(gen, initial, [horizon], 1, seed)[1][0]


def _per_state_loop(gen, initial, times, n_paths, seed):
    """The sampler as it was before the padded jump tables: one
    ``searchsorted`` per distinct jumping state and round, on per-state
    neighbour lists.  Kept as the oracle of the vectorized lookup."""
    q, pi = jump_parameters(gen)
    pi.sort_indices()
    rows = pi.indptr[1:-1]
    neighbors = np.split(pi.indices, rows)
    cumulative = [np.cumsum(p) for p in np.split(pi.data, rows)]
    times = np.asarray(sorted(float(t) for t in times))
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(ENSEMBLE_STREAM)], dtype=np.uint64)))
    state = rng.choice(gen.n, size=n_paths, p=initial).astype(np.int64)
    now = np.zeros(n_paths)
    out = np.empty((len(times), n_paths), dtype=np.int64)
    for row, t_rec in enumerate(times):
        active = now < t_rec
        while np.any(active):
            idx = np.flatnonzero(active)
            hold = rng.exponential(1.0, size=idx.size) / q[state[idx]]
            t_new = now[idx] + hold
            crossed = t_new >= t_rec
            now[idx[crossed]] = t_rec
            jump_idx = idx[~crossed]
            now[jump_idx] = t_new[~crossed]
            if jump_idx.size:
                u = rng.random(jump_idx.size)
                js = state[jump_idx]
                for s in np.unique(js):
                    sel = jump_idx[js == s]
                    cum = cumulative[s]
                    k = np.searchsorted(cum, u[js == s] * cum[-1])
                    state[sel] = neighbors[s][np.minimum(k, len(neighbors[s]) - 1)]
            active = now < t_rec
        out[row] = state
    return out


class TestSimulate:
    def test_zero_horizon(self, gen_drift_l2):
        traj = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.0, seed=5)
        assert traj.states.tolist() == [1]
        assert traj.jump_times.tolist() == [0.0]

    def test_seeded_reproducibility(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        a = sample_paths(gen_drift_l2, init, [0.2], 5, seed=42)[1][3]
        b = sample_paths(gen_drift_l2, init, [0.2], 5, seed=42)[1][3]
        c = sample_paths(gen_drift_l2, init, [0.2], 5, seed=42)[1][4]
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.jump_times, c.jump_times)

    def test_trajectory_invariants(self, gen_drift_l2):
        traj = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.5, seed=9)
        assert traj.jump_times[0] == 0.0
        assert np.all(np.diff(traj.jump_times) > 0)
        assert traj.jump_times[-1] <= traj.horizon
        assert len(traj.states) == len(traj.jump_times)

    def test_invalid_initial_rejected(self, gen_drift_l2):
        with pytest.raises(ValueError):
            sample_paths(gen_drift_l2, np.full(gen_drift_l2.n, 0.3), [0.1], 1, seed=0)

    def test_holding_time_mean_level_one(self, sg_tower):
        # every vertex holds Exp(30) at level 1, so the mean is 1/30; the
        # last interval of each path is censored at the horizon, so the
        # estimate is the total exposure over the number of jumps
        gen = sg_tower.generator(1, None)
        paths, horizon = 300, 2.0
        trajs = sample_paths(gen, point_mass(gen.n, 1), [horizon], paths, seed=123)[1]
        jumps = sum(len(t.states) - 1 for t in trajs)
        mean = paths * horizon / jumps
        se = mean / np.sqrt(jumps)
        assert abs(mean - 1.0 / 30.0) <= 3.0 * se

    def test_right_continuity(self, gen_drift_l2):
        traj = _one_path(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.3, seed=21)
        if len(traj.jump_times) > 1:
            t1 = traj.jump_times[1]
            assert traj.state_at(t1) == traj.states[1]
            assert traj.state_at(t1 - 1e-12) == traj.states[0]


class TestEngine:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("times", [[0.1], [0.05, 0.0, 0.01]])
    def test_ensemble_matches_per_state_loop(self, sg_tower, admissible_cfg,
                                             level, drift, times):
        gen = sg_tower.generator(level, admissible_cfg if drift else None)
        init = point_mass(gen.n, 1)
        expected = _per_state_loop(gen, init, times, 3000, 17)
        assert np.array_equal(ensemble_states(gen, init, times, 3000, 17), expected)

    def test_zero_paths(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        states = ensemble_states(gen_drift_l2, init, [0.1, 0.2], 0, 3)
        assert states.shape == (2, 0)
        assert np.array_equal(states, _per_state_loop(gen_drift_l2, init, [0.1, 0.2], 0, 3))
        states, trajs = sample_paths(gen_drift_l2, init, [0.1, 0.2], 0, 3)
        assert states.shape == (2, 0) and trajs == []

    def test_sample_paths_states_equal_ensemble_states(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        times = [0.1, 0.0, 0.03]
        states, trajs = sample_paths(gen_drift_l2, init, times, 500, 8)
        assert np.array_equal(states, ensemble_states(gen_drift_l2, init, times, 500, 8))
        assert len(trajs) == 500
        assert all(t.horizon == 0.1 and t.index == k for k, t in enumerate(trajs))

    def test_paths_pass_through_their_states(self, gen_drift_l2):
        times = [0.0, 0.02, 0.05, 0.1]
        states, trajs = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1),
                                     times, 300, 4)
        for k, traj in enumerate(trajs):
            assert [traj.state_at(t) for t in times] == states[:, k].tolist()

    def test_every_step_is_an_edge(self, gen_drift_l2):
        trajs = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [0.2], 300, 6)[1]
        adjacency = gen_drift_l2.net.c.toarray() > 0
        steps = np.concatenate([np.stack([t.states[:-1], t.states[1:]]) for t in trajs], axis=1)
        assert steps.shape[1] > 0
        assert np.all(adjacency[steps[0], steps[1]])

    def test_seed_fixes_the_paths(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        a = sample_paths(gen_drift_l2, init, [0.1], 50, 1)[1]
        b = sample_paths(gen_drift_l2, init, [0.1], 50, 1)[1]
        c = sample_paths(gen_drift_l2, init, [0.1], 50, 2)[1]
        assert all(np.array_equal(x.jump_times, y.jump_times)
                   and np.array_equal(x.states, y.states) for x, y in zip(a, b))
        assert not all(np.array_equal(x.jump_times, y.jump_times) for x, y in zip(a, c))

    def test_negative_time_rejected(self, gen_drift_l2):
        with pytest.raises(ValueError):
            ensemble_states(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [-0.1], 5, 0)


class TestEmpiricalLaw:
    def test_time_zero_recovers_initial(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        states = sample_paths(gen_drift_l2, init, [0.0, 0.05], 200, seed=7)[0]
        law = np.bincount(states[0], minlength=gen_drift_l2.n) / 200
        assert law[1] == 1.0

    def test_beyond_horizon_rejected(self, gen_drift_l2):
        trajs = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [0.05], 3, seed=7)[1]
        with pytest.raises(ValueError):
            trajs[0].state_at(0.1)

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
        trajs = sample_paths(gen_drift_l2, point_mass(gen_drift_l2.n, 1), [0.1], 5, seed=77)[1]
        path = tmp_path / "trajs.jsonl"
        write_trajectories_jsonl(trajs, path)
        back = read_trajectories_jsonl(path)
        assert len(back) == len(trajs)
        for a, b in zip(trajs, back):
            assert np.array_equal(a.jump_times, b.jump_times)
            assert np.array_equal(a.states, b.states)
            assert a.horizon == b.horizon

    def test_invalid_trajectory_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.5, 0.4]), np.array([0, 1, 0]), 1.0, 0, 0, 3)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.1, 0.5]), np.array([0, 1]), 1.0, 0, 0, 3)

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
            assert trajs[int(k)].state_at(float(t)) == int(s)
