"""Generators, jump parameters, rate validation and path sampling."""

import numpy as np
import pytest

from driftform import tower as tw
from driftform.drift import eta
from driftform.markov import (
    RateValidationError,
    Trajectory,
    build_generator,
    detailed_balance_gap,
    empirical_law,
    ensemble_states,
    jump_parameters,
    point_mass,
    read_trajectories_jsonl,
    simulate,
    simulate_batch,
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


class TestSimulate:
    def test_zero_horizon(self, gen_drift_l2):
        traj = simulate(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.0, seed=5)
        assert traj.states.tolist() == [1]
        assert traj.jump_times.tolist() == [0.0]

    def test_seeded_reproducibility(self, gen_drift_l2):
        init = point_mass(gen_drift_l2.n, 1)
        a = simulate(gen_drift_l2, init, 0.2, seed=42, index=3)
        b = simulate(gen_drift_l2, init, 0.2, seed=42, index=3)
        c = simulate(gen_drift_l2, init, 0.2, seed=42, index=4)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.jump_times, c.jump_times)

    def test_trajectory_invariants(self, gen_drift_l2):
        traj = simulate(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.5, seed=9)
        assert traj.jump_times[0] == 0.0
        assert np.all(np.diff(traj.jump_times) > 0)
        assert traj.jump_times[-1] <= traj.horizon
        assert len(traj.states) == len(traj.jump_times)

    def test_invalid_initial_rejected(self, gen_drift_l2):
        with pytest.raises(ValueError):
            simulate(gen_drift_l2, np.full(gen_drift_l2.n, 0.3), 0.1, seed=0)

    def test_holding_time_mean_level_one(self, sg_tower):
        # every vertex holds Exp(30) at level 1, so the mean is 1/30
        gen = sg_tower.generator(1, None)
        trajs = simulate_batch(gen, point_mass(gen.n, 1), 2.0, 300, seed=123)
        holds = np.concatenate([t.holding_times() for t in trajs])
        mean = holds.mean()
        se = holds.std(ddof=1) / np.sqrt(len(holds))
        assert abs(mean - 1.0 / 30.0) <= 3.0 * se

    def test_right_continuity(self, gen_drift_l2):
        traj = simulate(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.3, seed=21)
        if len(traj.jump_times) > 1:
            t1 = traj.jump_times[1]
            assert traj.state_at(t1) == traj.states[1]
            assert traj.state_at(t1 - 1e-12) == traj.states[0]


class TestEmpiricalLaw:
    def test_time_zero_recovers_initial(self, gen_drift_l2):
        trajs = simulate_batch(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.05, 200, seed=7)
        law = empirical_law(trajs, 0.0)
        assert law[1] == 1.0

    def test_beyond_horizon_rejected(self, gen_drift_l2):
        trajs = simulate_batch(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.05, 3, seed=7)
        with pytest.raises(ValueError):
            empirical_law(trajs, 0.1)

    def test_long_time_law_approaches_reference_measure(self, sg_tower):
        # reversible unperturbed chain: the stationary law is the reference
        # measure itself (detailed balance)
        gen = sg_tower.generator(1, None)
        states = ensemble_states(gen, point_mass(gen.n, 1), [2.0], 20000, seed=3)[0]
        law = np.bincount(states, minlength=gen.n) / len(states)
        tv = 0.5 * np.abs(law - gen.mu).sum()
        assert tv < 0.02

    def test_engines_agree(self, sg_tower):
        # trajectory sampler and vectorized ensemble sampler draw from the
        # same law (compare within a generous CLT band)
        gen = sg_tower.generator(1, None)
        init = point_mass(gen.n, 1)
        t = 0.05
        trajs = simulate_batch(gen, init, t, 2000, seed=11)
        law_a = empirical_law(trajs, t)
        states = ensemble_states(gen, init, [t], 2000, seed=12)[0]
        law_b = np.bincount(states, minlength=gen.n) / 2000.0
        assert 0.5 * np.abs(law_a - law_b).sum() < 0.05


class TestDetailedBalance:
    def test_reversible_without_drift(self, gen_plain_l2):
        assert detailed_balance_gap(gen_plain_l2) == pytest.approx(0.0, abs=1e-14)

    def test_violated_with_drift(self, gen_drift_l2):
        assert detailed_balance_gap(gen_drift_l2) > 1e-3


class TestTrajectoryIO:
    def test_jsonl_round_trip(self, tmp_path, gen_drift_l2):
        trajs = simulate_batch(gen_drift_l2, point_mass(gen_drift_l2.n, 1), 0.1, 5, seed=77)
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
