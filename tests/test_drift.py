"""Drift forms, smallness conditions, constants, and the form axioms."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from driftform import drift as drift_module
from driftform import pcf, resistance
from driftform import tower as tw
from driftform.cli import main
from driftform.drift import (
    CertificateError,
    DriftError,
    DriftSpec,
    InadmissibleDriftError,
    Bracket,
    SandwichReport,
    check_condition_I,
    certify_SD_axioms,
    certify_drift_bound,
    certify_sandwich,
    check_condition_II,
    eta_edge_values,
    make_drift,
    sample_field,
    select_constants,
    _extremes,
    _factor,
)
from driftform.markov import build_generator
from driftform.resistance import (
    ConductanceNetwork,
    energy,
    harmonic_extension,
)
from oracles import (
    TWO_TERM_DRIFT,
    condition_I_loop,
    discrete_mutual_energy,
    edge_list,
    effective_resistance,
    eta,
    dense_form_values,
    form_value,
    random_form_values,
)

CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"
CONSTANT_DRIFT = CONFIGS / "drift_constant.json"
# one term with a vanishing coefficient: unlike the empty drift (config
# None), it is realized and goes through every drift computation
ZERO_COEFFICIENT_DRIFT = tw.DriftConfig((("constant", 0.0),), ((0, (1.0, 0.0, 0.0)),))


def brute_force_Q(net, drift, f, g) -> float:
    """Independent oracle: the definition as a double loop over ordered pairs."""
    c = net.c.toarray()
    total = 0.0
    for i in range(len(drift.b)):
        b, h = drift.b[i], drift.h[i]
        for x in range(net.n):
            for y in range(net.n):
                if x != y:
                    total += (
                        c[x, y] * b[x] * g[x] * (f[x] - f[y]) * (h[x] - h[y])
                    )
    return 0.5 * total


def drift_on(tower, cfg, level):
    return tw.realize_drift(tower, cfg, level)


def generator_of(tower, spec):
    """The generator of a realized drift on its level of ``tower``."""
    level = spec.level
    return build_generator(tower.network(level), spec, tower.measure(level), level)


def recursive_harmonic_oracle(levels: int) -> dict[tuple, float]:
    """Harmonic values of boundary data (1,0,0) by recursive application of
    the midpoint rule (2a+2b+c)/5 inside each cell; keyed by rounded planar
    coordinates.  Independent of the linear-algebra code path."""
    sq3 = math.sqrt(3.0)
    corners = [(0.5, sq3 / 2.0), (0.0, 0.0), (1.0, 0.0)]
    values = {corners[0]: 1.0, corners[1]: 0.0, corners[2]: 0.0}

    def mid(p, q):
        return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)

    cells = [tuple(corners)]
    for _ in range(levels):
        nxt = []
        for (a, b, c) in cells:
            va, vb, vc = values[a], values[b], values[c]
            mab, mac, mbc = mid(a, b), mid(a, c), mid(b, c)
            values[mab] = (2 * va + 2 * vb + vc) / 5.0
            values[mac] = (2 * va + 2 * vc + vb) / 5.0
            values[mbc] = (2 * vb + 2 * vc + va) / 5.0
            nxt += [(a, mab, mac), (b, mab, mbc), (c, mac, mbc)]
        cells = nxt
    return {
        (round(x, 10), round(y, 10)): v for (x, y), v in values.items()
    }


def edge_eta(net, drift) -> dict[tuple[int, int], float]:
    """``eta_edge_values`` keyed by ordered vertex pair."""
    coo = net.c.tocoo()
    ev = eta_edge_values(net, drift)
    return {(int(x), int(y)): v for x, y, v in zip(coo.row, coo.col, ev)}


class TestEta:
    def test_zero_coefficients(self, sg_tower, admissible_cfg):
        cfg = ZERO_COEFFICIENT_DRIFT
        spec = drift_on(sg_tower, cfg, 2)
        net = sg_tower.network(2)
        assert all(v == 0.0 for v in edge_eta(net, spec).values())

    def test_direct_arithmetic(self):
        net = ConductanceNetwork.from_edges([(0, 1, 1.0)])
        spec = DriftSpec(level=0, b=np.array([[2.0, 2.0]]), h=np.array([[3.0, 1.0]]))
        values = edge_eta(net, spec)
        assert values == {(0, 1): pytest.approx(0.5 * 2.0 * (3.0 - 1.0)),
                          (1, 0): pytest.approx(0.5 * 2.0 * (1.0 - 3.0))}
        assert values[(0, 1)] == pytest.approx(eta(spec, 0, 1))

    def test_asymmetry(self, sg_tower, admissible_cfg):
        spec = drift_on(sg_tower, admissible_cfg, 2)
        net = sg_tower.network(2)
        values = edge_eta(net, spec)
        x, y, _ = edge_list(net)[0]
        assert values[(x, y)] != values[(y, x)]

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_scalar_oracle(self, sg_tower, level):
        spec = drift_on(sg_tower, TWO_TERM_DRIFT, level)
        net = sg_tower.network(level)
        values = edge_eta(net, spec)
        assert len(values) == 2 * len(edge_list(net))
        for (x, y), v in values.items():
            assert v == pytest.approx(eta(spec, x, y), rel=1e-12, abs=1e-15)

    def test_matches_recursive_harmonic_oracle(self, sg_tower):
        # coefficients epsilon: eta is eps/2 times finite differences of the
        # recursively computed midpoint values
        eps = 0.125
        cfg = tw.DriftConfig((("constant", eps),), ((0, (1.0, 0.0, 0.0)),))
        spec = drift_on(sg_tower, cfg, 2)
        net = sg_tower.network(2)
        coords = sg_tower.coordinates(2)
        oracle = recursive_harmonic_oracle(2)

        def hval(v):
            return oracle[(round(coords[v, 0], 10), round(coords[v, 1], 10))]

        values = edge_eta(net, spec)
        for x, y, _ in edge_list(net):
            for a, b in ((x, y), (y, x)):
                expected = 0.5 * eps * (hval(a) - hval(b))
                assert values[(a, b)] == pytest.approx(expected, abs=1e-12)


class TestAssembleQ:
    def test_zero_drift_gives_zero_matrix(self, sg_tower):
        spec = drift_on(sg_tower, ZERO_COEFFICIENT_DRIFT, 2)
        q = generator_of(sg_tower, spec).Q_matrix
        assert abs(q).max() == 0.0

    def test_matches_brute_force(self, sg_tower, admissible_cfg):
        spec = drift_on(sg_tower, admissible_cfg, 2)
        net = sg_tower.network(2)
        q = generator_of(sg_tower, spec).Q_matrix
        rng = np.random.default_rng(23)
        for _ in range(5):
            f, g = rng.standard_normal((2, net.n))
            assert float(g @ (q @ f)) == pytest.approx(
                brute_force_Q(net, spec, f, g), rel=1e-10
            )

    def test_constant_g_cross_check(self, sg_tower, admissible_cfg):
        spec = drift_on(sg_tower, admissible_cfg, 2)
        net = sg_tower.network(2)
        q = generator_of(sg_tower, spec).Q_matrix
        rng = np.random.default_rng(29)
        f = rng.standard_normal(net.n)
        ones = np.ones(net.n)
        assert float(ones @ (q @ f)) == pytest.approx(
            brute_force_Q(net, spec, f, ones), rel=1e-10
        )

    def test_constant_f_annihilated(self, sg_tower, admissible_cfg):
        spec = drift_on(sg_tower, admissible_cfg, 2)
        net = sg_tower.network(2)
        q = generator_of(sg_tower, spec).Q_matrix
        rng = np.random.default_rng(31)
        const = np.full(net.n, 2.7)
        for _ in range(5):
            g = rng.standard_normal(net.n)
            assert float(g @ (q @ const)) == pytest.approx(0.0, abs=1e-12)

    def test_multi_term_drift(self, sg_tower):
        cfg = tw.DriftConfig(
            (("constant", 0.1), ("expression", "0.2*x")),
            ((0, (1.0, 0.0, 0.0)), (0, (0.0, 1.0, 0.0))),
        )
        spec = drift_on(sg_tower, cfg, 2)
        assert len(spec.b) == 2
        net = sg_tower.network(2)
        q = generator_of(sg_tower, spec).Q_matrix
        rng = np.random.default_rng(37)
        f, g = rng.standard_normal((2, net.n))
        assert float(g @ (q @ f)) == pytest.approx(
            brute_force_Q(net, spec, f, g), rel=1e-10
        )

    def test_decomposition_identity(self, sg_tower, admissible_cfg):
        # E is the form of the drift-free generator, Q the rest of -mu L
        gen, gen0 = sg_tower.generator(2, admissible_cfg), sg_tower.generator(2, None)
        assert abs(gen.E_matrix - gen0.E_matrix).max() == 0.0
        assert gen0.Q_matrix.nnz == 0
        drift_part = -(sparse.diags(gen.mu) @ (gen.L - gen0.L)).toarray()
        scale = np.abs(gen.E_matrix).max()
        np.testing.assert_allclose(gen.Q_matrix.toarray(), drift_part, rtol=0, atol=1e-12 * scale)


class TestMutualEnergy:
    def test_unit_g_gives_twice_energy(self, sg_tower):
        net = sg_tower.network(2)
        rng = np.random.default_rng(41)
        h = rng.standard_normal(net.n)
        assert discrete_mutual_energy(net, h, h, np.ones(net.n)) == pytest.approx(
            2.0 * energy(net, h), rel=1e-12
        )

    def test_constant_h_vanishes(self, sg_tower):
        net = sg_tower.network(2)
        rng = np.random.default_rng(43)
        const = np.full(net.n, 3.3)
        g, h2 = rng.standard_normal((2, net.n))
        assert discrete_mutual_energy(net, const, h2, g) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_harmonic_pairing_level_independent(self, sg_tower, n):
        # harmonic extension preserves energy, so the unit-g pairing is
        # constant across levels and equals twice the base (trace) energy
        net = sg_tower.network(n)
        h = harmonic_extension(net, [1.0, 0.0, 0.0])
        base = 2.0 * energy(sg_tower.base_network, np.array([1.0, 0.0, 0.0]))
        assert discrete_mutual_energy(net, h, h, np.ones(net.n)) == pytest.approx(
            base, rel=1e-10
        )

    def test_left_endpoint_identity(self, sg_tower, admissible_cfg):
        # the summed double pairing with g = b_i b_j collapses to the
        # conductance-weighted sum of squared drift differences
        spec = drift_on(sg_tower, admissible_cfg, 3)
        net = sg_tower.network(3)
        squares = sum(
            c * (2.0 * eta(spec, x, y)) ** 2 + c * (2.0 * eta(spec, y, x)) ** 2
            for x, y, c in edge_list(net)
        )
        assert condition_I_loop(net, spec) == pytest.approx(squares, rel=1e-12)


class TestConditionI:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("drift", ["default", "two_term", "constant"])
    def test_matches_mutual_energy_loop(self, sg_tower, admissible_cfg, drift, level):
        cfg = {
            "default": admissible_cfg,
            "two_term": TWO_TERM_DRIFT,
            "constant": tw.load_drift_config(CONSTANT_DRIFT),
        }[drift]
        spec = drift_on(sg_tower, cfg, level)
        net = sg_tower.network(level)
        value = check_condition_I(generator_of(sg_tower, spec), 2.0 / 3.0).value
        assert value == pytest.approx(condition_I_loop(net, spec), rel=1e-14, abs=0.0)

    def test_zero_drift_satisfied(self, sg_tower):
        spec = drift_on(sg_tower, ZERO_COEFFICIENT_DRIFT, 2)
        check = check_condition_I(generator_of(sg_tower, spec), 2.0 / 3.0)
        assert check.satisfied and check.value == 0.0
        assert check.margin == pytest.approx(3.0)

    def test_constant_coefficient_formula(self, sg_tower):
        # drift energy is beta^2 * 2 E(h) for one constant-coefficient term;
        # E(h) computed from the trace form independently
        beta = 0.3
        e_h = energy(sg_tower.base_network, np.array([1.0, 0.0, 0.0]))
        cfg = tw.DriftConfig((("constant", beta),), ((0, (1.0, 0.0, 0.0)),))
        for level in (2, 4):
            spec = drift_on(sg_tower, cfg, level)
            check = check_condition_I(generator_of(sg_tower, spec), 2.0 / 3.0)
            assert check.value == pytest.approx(beta**2 * 2.0 * e_h, rel=1e-10)

    def test_quadratic_scaling(self, sg_tower, admissible_cfg):
        spec1 = drift_on(sg_tower, admissible_cfg, 2)
        beta = admissible_cfg.b_specs[0][1]
        cfg2 = tw.DriftConfig((("constant", 2 * beta),), admissible_cfg.h_specs)
        spec2 = drift_on(sg_tower, cfg2, 2)
        v1 = check_condition_I(generator_of(sg_tower, spec1), 2.0 / 3.0).value
        v2 = check_condition_I(generator_of(sg_tower, spec2), 2.0 / 3.0).value
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


class TestConditionII:
    def test_zero_drift(self, sg_tower):
        spec = drift_on(sg_tower, ZERO_COEFFICIENT_DRIFT, 2)
        check = check_condition_II(generator_of(sg_tower, spec), 2.0 / 3.0)
        assert check.satisfied and check.value == 0.0

    def test_single_term_reduces_to_scalar_inequality(self, sg_tower):
        beta = 0.2
        cfg = tw.DriftConfig((("constant", beta),), ((0, (1.0, 0.0, 0.0)),))
        spec = drift_on(sg_tower, cfg, 3)
        net = sg_tower.network(3)
        e_h = energy(net, spec.h[0])
        check = check_condition_II(generator_of(sg_tower, spec), 2.0 / 3.0)
        assert check.value == pytest.approx(beta**2 * e_h, rel=1e-10)

    def test_threshold_is_sharp(self, sg_tower):
        # the largest admissible constant solves beta^2 E(h) = 1/diam
        diam = sg_tower.diameter(3)
        e_h = energy(sg_tower.base_network, np.array([1.0, 0.0, 0.0]))
        beta_max = math.sqrt(1.0 / (e_h * diam))
        below = tw.DriftConfig((("constant", 0.999 * beta_max),), ((0, (1.0, 0.0, 0.0)),))
        above = tw.DriftConfig((("constant", 1.001 * beta_max),), ((0, (1.0, 0.0, 0.0)),))
        assert check_condition_II(sg_tower.generator(3, below), diam).satisfied
        assert not check_condition_II(sg_tower.generator(3, above), diam).satisfied


class TestSelectConstants:
    def test_zero_drift_energy(self):
        c = select_constants(0.0, 2.0 / 3.0, delta=0.1)
        assert c.s == pytest.approx(0.5)
        assert c.lam == pytest.approx(1.0 / (0.4 * (math.sqrt(2.0 / 3.0) + 0.1)))
        assert c.t == pytest.approx(c.lam * c.s)

    def test_lambda_decreases_in_delta(self):
        lams = [select_constants(0.0, 1.0, delta=d).lam for d in (0.05, 0.1, 0.5, 2.0)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_inadmissible_raises_with_advice(self):
        with pytest.raises(InadmissibleDriftError, match="shrink"):
            select_constants(50.0, 1.0)

    def test_inadmissible_carries_slope_bound(self):
        with pytest.raises(InadmissibleDriftError) as exc:
            select_constants(50.0, 1.0)
        assert exc.value.s_lower == pytest.approx(5.0 * 1.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(DriftError, match="positive and finite"):
            select_constants(0.0, 2.0 / 3.0, delta=delta)

    def test_interval_invariant(self):
        c = select_constants(0.3, 0.8)
        assert c.s_lower < c.s < 1.0
        assert c.s_lower == pytest.approx(
            math.sqrt(0.15) * (math.sqrt(0.8) + c.delta)
        )


class TestSandwich:
    def test_zero_drift_is_exact(self, sg_tower):
        gen = sg_tower.generator(2, ZERO_COEFFICIENT_DRIFT)
        rep = certify_sandwich(gen, s=0.5, lam=1.0)
        assert rep.passed
        # A equals E exactly, so both relative margins equal s exactly
        assert rep.lower_margin == rep.upper_margin
        assert rep.lower_margin == Bracket(0.5, 0.5, 0.5, 0.0)

    def test_constant_functions(self, sg_tower, admissible_cfg, admissible_constants):
        gen = sg_tower.generator(2, admissible_cfg)
        c = admissible_constants
        f = np.full(gen.n, 1.7)
        l2_sq = float(np.sum(gen.mu * f * f))
        a_lam = form_value(gen.E_matrix + gen.Q_matrix, f) + c.lam * l2_sq
        e_lam = form_value(gen.E_matrix, f) + c.lam * l2_sq
        assert (1 - c.s) * e_lam <= a_lam <= (1 + c.s) * e_lam

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_admissible_instance_passes(
        self, sg_tower, admissible_cfg, admissible_constants, level
    ):
        gen = sg_tower.generator(level, admissible_cfg)
        c = admissible_constants
        rep = certify_sandwich(gen, c.s, c.lam)
        assert rep.passed, (rep.lower_margin, rep.upper_margin)
        for margin in (rep.lower_margin, rep.upper_margin):
            assert 0.0 < margin.lo <= margin.value <= margin.hi < 1.0

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_drift_bound(self, sg_tower, admissible_cfg, admissible_constants, level):
        gen = sg_tower.generator(level, admissible_cfg)
        c = admissible_constants
        rep = certify_drift_bound(certify_sandwich(gen, c.s, c.lam))
        assert rep.passed, rep.margin
        assert rep.margin.lo <= rep.margin.value <= rep.margin.hi


class TestDriftBoundFromSandwich:
    """The drift bound with ``t = lam s`` is the sandwich read at scale ``s``."""

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("drift", ["default", "two_term"])
    def test_margin_is_the_scaled_sandwich_extreme(
        self, sg_tower, admissible_cfg, admissible_constants, drift, level
    ):
        cfg = {"default": admissible_cfg, "two_term": TWO_TERM_DRIFT}[drift]
        gen = sg_tower.generator(level, cfg)
        c = admissible_constants
        sandwich = certify_sandwich(gen, c.s, c.lam)
        rep = certify_drift_bound(sandwich)
        extreme = max(abs(sandwich.theta_min.value), abs(sandwich.theta_max.value))
        assert rep.margin.value == 1.0 - extreme / c.s
        assert (rep.level, rep.s, rep.t) == (level, c.s, c.t)
        # the pencil Q_sym v = θ (s E + t M) v itself, densely
        want = dense_form_values(gen, c.s, c.lam, c.t)["drift"]
        assert rep.margin.value == pytest.approx(want, abs=1e-10)
        assert rep.margin.lo - 1e-10 <= want <= rep.margin.hi + 1e-10

    def test_bracket_is_the_image_of_both_brackets(self):
        s = 0.5
        bottom = Bracket(-0.3, -0.31, -0.29, 0.01)
        top = Bracket(0.1, 0.05, 0.15, 0.05)
        rep = certify_drift_bound(SandwichReport(1, s, 2.0, bottom, top))
        assert rep.t == 1.0
        # |θ_min| in [0.29, 0.31] dominates |θ_max| in [0.05, 0.15]
        assert rep.margin == Bracket(1 - 0.3 / s, 1 - 0.31 / s, 1 - 0.29 / s, 0.05 / s)
        # a bracket around 0 leaves max |θ| as low as the other's nearest end
        straddling = Bracket(0.01, -0.02, 0.04, 0.03)
        rep = certify_drift_bound(SandwichReport(1, s, 2.0, straddling, top))
        assert rep.margin == Bracket(1 - 0.1 / s, 1 - 0.15 / s, 1 - 0.05 / s, 0.05 / s)

    def test_failures_name_the_pessimistic_margin(self):
        bottom = Bracket(-0.3, -0.31, -0.29, 0.01)
        top = Bracket(0.1, 0.05, 0.15, 0.05)
        passing = SandwichReport(1, 0.5, 2.0, bottom, top)
        assert passing.passed and certify_drift_bound(passing).passed
        assert passing.failures() == certify_drift_bound(passing).failures() == []
        # s = 0.2: the lower margin's pessimistic end is 0.2 - 0.31
        failing = SandwichReport(1, 0.2, 2.0, bottom, top)
        bound = certify_drift_bound(failing)
        assert not (failing.passed or bound.passed)
        assert failing.failures() == [("sandwich", pytest.approx(0.2 - 0.31))]
        assert bound.failures() == [("drift bound", bound.margin.lo)]


class TestEmptyDrift:
    """The empty drift (config ``None``) and a realized zero-coefficient term
    give the same chain and the same form checks, bit for bit."""

    @pytest.mark.parametrize("level", [2, 5])
    def test_matches_zero_coefficient_config(self, sg_tower, level):
        empty = sg_tower.generator(level, None)
        zero = sg_tower.generator(level, ZERO_COEFFICIENT_DRIFT)
        assert empty.drift.b.shape == empty.drift.h.shape == (0, empty.n)
        assert zero.drift.b.shape == (1, zero.n)
        assert (empty.L != zero.L).nnz == 0
        assert np.array_equal(empty.Q_matrix.toarray(), zero.Q_matrix.toarray())
        diam = sg_tower.diameter(level)
        for check in (check_condition_I, check_condition_II):
            assert check(empty, diam).to_dict() == check(zero, diam).to_dict()
        s, lam = 0.5, 1.5
        reports = [certify_SD_axioms(gen, certify_sandwich(gen, s, lam), 0.1, diam).to_dict()
                   for gen in (empty, zero)]
        assert reports[0] == reports[1]
        assert reports[0]["passed"] is True


class TestSDAxioms:
    def test_zero_drift(self, sg_tower):
        gen = sg_tower.generator(2, ZERO_COEFFICIENT_DRIFT)
        rep = certify_SD_axioms(gen, certify_sandwich(gen, 0.5, 1.0), delta=0.1,
                                diam_proxy=2 / 3)
        assert rep.passed
        assert rep.edge_one_plus_eta_min == 1.0  # every edge factor is exactly 1
        # A_lam is symmetric: the sector constant is exactly 1
        assert rep.sector_constant == Bracket(1.0, 1.0, 1.0, 0.0)

    def test_zero_cut_level(self, sg_tower, admissible_cfg):
        # a = 0 with f >= 0: f ^ 0 = 0 and the pairing vanishes
        gen = sg_tower.generator(2, admissible_cfg)
        rng = np.random.default_rng(47)
        f = np.abs(rng.standard_normal(gen.n))
        g1 = np.minimum(f, 0.0)
        assert float((f - g1) @ ((gen.E_matrix + gen.Q_matrix) @ g1)) == 0.0

    def test_admissible_instance(self, sg_tower, admissible_cfg, admissible_constants):
        gen = sg_tower.generator(3, admissible_cfg)
        c = admissible_constants
        rep = certify_SD_axioms(gen, certify_sandwich(gen, c.s, c.lam), c.delta, c.diam_proxy)
        assert rep.passed
        assert rep.sd1_min.lo > 0.0
        # no sector constant is below 1 (take g = f)
        assert 1.0 <= rep.sector_constant.lo <= rep.sector_constant.hi <= rep.sector_bound
        assert rep.edge_one_plus_eta_min >= 0.0
        assert rep.edge_markov_min >= 0.0
        assert rep.failures() == []

    @pytest.mark.parametrize("level", [3, 6])
    def test_indefinite_shifted_form_fails_without_crash(self, sg_tower, level):
        # a drift far past the smallness threshold and a tiny shift leave
        # S = E_lam + Q_sym indefinite
        cfg = tw.DriftConfig((("constant", 40.0),), ((0, (1.0, 0.0, 0.0)),))
        gen = sg_tower.generator(level, cfg)
        sandwich = certify_sandwich(gen, 0.5, 1e-3)
        assert sandwich.lower_margin.hi < 0.5 - 1.0
        rep = certify_SD_axioms(gen, sandwich, delta=0.1, diam_proxy=2 / 3)
        assert rep.sd1_min is None and rep.sector_constant is None
        assert not (rep.sd1_passed or rep.sd3_passed or rep.passed)
        # both fail by the margin 1 + min θ of S against E_lam
        definite = 1.0 + sandwich.theta_min.lo
        assert definite < 0.0
        assert rep.failures()[:2] == [("SD1 (nonnegativity)", definite),
                                      ("SD3 (sector condition)", definite)]
        d = rep.to_dict()
        assert d["sd1_min"] is None and d["sector_constant"] is None
        assert "definite_margin" not in d
        assert d["passed"] is False

    def test_edge_certificate_from_pointwise_condition(self, sg_tower, admissible_cfg):
        # |sum_i b_i(x)(h_i(x)-h_i(y))| <= R(x,y)^(1/2) E(sum_i b_i(x) h_i)^(1/2)
        # edgewise, which keeps the Markov certificate nonnegative under the
        # pointwise smallness condition
        level = 2
        spec = drift_on(sg_tower, admissible_cfg, level)
        net = sg_tower.network(level)
        for x, y, _ in edge_list(net):
            for a, b in ((x, y), (y, x)):
                lhs = abs(2.0 * eta(spec, a, b))
                frozen = spec.b[:, a] @ spec.h
                rhs = math.sqrt(
                    effective_resistance(net, a, b) * energy(net, frozen)
                )
                assert lhs <= rhs + 1e-12
                assert 1.0 + 2.0 * eta(spec, a, b) >= 0.0


class TestStrongLocality:
    def test_localized_pairing_vanishes(self, sg_tower, admissible_cfg):
        # f constant on the closed star of supp(g) forces A(f, g) = 0
        level = 3
        gen = sg_tower.generator(level, admissible_cfg)
        cx = sg_tower.complex(level)
        support = {5}
        star = set()
        for ids in cx.cell_ids.tolist():
            if support & set(ids):
                star |= set(ids)
        rng = np.random.default_rng(53)
        f = rng.standard_normal(gen.n)
        f[list(star)] = 2.25  # constant on the closed star
        g = np.zeros(gen.n)
        g[list(support)] = rng.standard_normal(len(support))
        assert form_value(gen.Q_matrix, f, g) == pytest.approx(0.0, abs=1e-12)
        assert form_value(gen.E_matrix + gen.Q_matrix, f, g) == pytest.approx(0.0, abs=1e-12)


class TestSmallnessReport:
    def test_report_fields(self, sg_tower, admissible_cfg):
        report = tw.constants_for(sg_tower, admissible_cfg, 3, proxy_level=6)
        d = report.to_dict()
        for key in ("diam_proxy", "drift_energy", "condition_I_satisfied",
                    "condition_II_max", "delta", "s", "t", "lambda", "caveat"):
            assert key in d
        assert d["condition_I_satisfied"] is True
        # report invariants
        assert report.drift_energy < 2.0 / report.diam_proxy
        c = report.constants
        assert c.s_lower < c.s < 1.0
        assert c.t == pytest.approx(c.lam * c.s)

    def test_oversized_drift_reported(self, sg_tower):
        cfg = tw.DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),))
        report = tw.constants_for(sg_tower, cfg, 2, proxy_level=2)
        assert not report.condition_I.satisfied
        assert report.constants is None
        assert "shrink" in report.inadmissible_reason

    def test_failed_conditions_by_assumption(self, sg_tower, admissible_cfg):
        ok = tw.constants_for(sg_tower, admissible_cfg, 3, proxy_level=6)
        assert ok.failed_conditions("A") == ok.failed_conditions("B") == []
        cfg = tw.DriftConfig((("constant", 10.0),), ((0, (1.0, 0.0, 0.0)),))
        bad = tw.constants_for(sg_tower, cfg, 2, proxy_level=2)
        assert bad.failed_conditions("A") == [
            ("Condition (I)", bad.condition_I.margin),
            ("Condition (II)", bad.condition_II.margin),
        ]
        assert bad.failed_conditions("B") == [("Condition (I)", bad.condition_I.margin)]

    def test_empty_slope_interval_fails_with_its_margin(self, sg_tower, admissible_cfg):
        # (I) and (II) hold, but delta = 2 pushes the slope bound past 1
        report = tw.constants_for(sg_tower, admissible_cfg, 2, proxy_level=6, delta=2.0)
        assert report.condition_I.satisfied and report.condition_II.satisfied
        assert report.constants is None
        lower = math.sqrt(report.drift_energy / 2.0) * (math.sqrt(report.diam_proxy) + 2.0)
        for assumption in ("A", "B"):
            assert report.failed_conditions(assumption) == [
                ("comparison-slope interval", 1.0 - lower)
            ]


class TestDriftSpecConstruction:
    def test_terms_realized_with_one_factorization(self, sg_tower, monkeypatch):
        # three terms over the three base indicators: one elimination
        cfg = tw.DriftConfig(
            tuple(("constant", c) for c in (0.1, 0.2, 0.3)),
            tuple((0, tuple(row)) for row in np.eye(3)),
        )
        calls = []
        original = resistance._eliminate
        monkeypatch.setattr(resistance, "_eliminate",
                            lambda *a: calls.append(a) or original(*a))
        spec = drift_on(sg_tower, cfg, 4)
        assert len(calls) == 1
        assert spec.h.shape == (3, sg_tower.vertex_count(4))

    def test_h_rows_are_harmonic_extensions(self, sg_tower, admissible_cfg):
        spec = drift_on(sg_tower, admissible_cfg, 3)
        net = sg_tower.network(3)
        residual = net.laplacian() @ spec.h[0]
        base_size = sg_tower.vertex_count(0)
        assert np.max(np.abs(residual[base_size:])) < 1e-10
        base_level, base_values = admissible_cfg.h_specs[0]
        assert base_level == 0 and len(base_values) == base_size
        np.testing.assert_allclose(spec.h[0][:base_size], base_values)

    def test_restriction_consistency_across_levels(self, sg_tower, admissible_cfg):
        # piecewise-harmonic data: the fine realization restricted to a
        # coarse level equals the coarse realization
        s2 = drift_on(sg_tower, admissible_cfg, 2)
        s4 = drift_on(sg_tower, admissible_cfg, 4)
        n2 = sg_tower.vertex_count(2)
        np.testing.assert_allclose(s4.h[:, :n2], s2.h, atol=1e-11)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DriftError):
            DriftSpec(0, np.ones((1, 3)), np.ones((1, 4)))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(DriftError):
            DriftSpec(0, np.array([[np.inf, 0.0]]), np.ones((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_h_base_rejected(self, bad):
        net = ConductanceNetwork.from_edges([(0, 1, 1.0)])
        with pytest.raises(DriftError, match="h base values must be finite"):
            make_drift(net, 0, [("constant", 1.0)], [(0, (1.0, bad))])

    def test_expression_needs_embedding(self, sg_tower):
        import dataclasses

        from driftform import pcf

        bare = dataclasses.replace(pcf.build_sierpinski_structure(), embedding=None)
        bare_tower = tw.LevelTower(bare)
        cfg = tw.DriftConfig((("expression", "x"),), ((0, (1.0, 0.0, 0.0)),))
        with pytest.raises(DriftError, match="embedded"):
            tw.realize_drift(bare_tower, cfg, 1)

    def test_samples_field(self, sg_tower):
        n = sg_tower.vertex_count(4)
        vals = np.linspace(-0.05, 0.05, n)
        cfg = tw.DriftConfig((("samples", vals),), ((0, (1.0, 0.0, 0.0)),))
        s4 = drift_on(sg_tower, cfg, 4)
        np.testing.assert_allclose(s4.b[0], vals)
        # restriction to level 2 slices the prefix
        s2 = drift_on(sg_tower, cfg, 2)
        np.testing.assert_allclose(s2.b[0], vals[: sg_tower.vertex_count(2)])


class TestExpressionFields:
    """Expression fields are parsed against a whitelist, never executed."""

    @pytest.fixture()
    def coords(self, sg_tower):
        return sg_tower.coordinates(3)

    @pytest.mark.parametrize("text, reference", [
        ("0.2*x", lambda x, y: 0.2 * x),
        ("x*(1-y)", lambda x, y: x * (1 - y)),
        ("-x**2 + sin(pi*y)/3 - abs(cos(x)) + exp(-y) * sqrt(x)",
         lambda x, y: -x**2 + np.sin(np.pi * y) / 3 - np.abs(np.cos(x))
         + np.exp(-y) * np.sqrt(x)),
        ("2", lambda x, y: np.full_like(x, 2.0)),
    ])
    def test_values_match_numpy(self, coords, text, reference):
        got = sample_field(("expression", text), len(coords), coords)
        assert np.array_equal(got, reference(coords[:, 0], coords[:, 1]))

    @pytest.mark.parametrize("text", [
        "np.save('pwned.npy', x)",
        "x.T",
        "__import__('os').system('true')",
        "(lambda: 1)()",
        "lambda: x",
        "np",
        "sin(x, y)",  # a second argument would be numpy's `out`
        "sin(x=x)",
        "z",  # the gasket is planar
        "x if 1 else y",
        "[x]",
        "'x'",
        "True * x",
        "9**9**9**9",
        "1/0",
        "x +",
    ])
    def test_rejected(self, coords, text, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = coords.copy()
        with pytest.raises(DriftError):
            sample_field(("expression", text), len(coords), coords)
        assert list(tmp_path.iterdir()) == []
        assert np.array_equal(coords, before)

    def test_rejected_through_config(self, sg_tower):
        cfg = tw.DriftConfig.from_dict(
            {"b": [{"expression": "np.save('f', x)"}],
             "h": [{"base_level": 0, "values": [1.0, 0.0, 0.0]}]}
        )
        with pytest.raises(DriftError, match="not allowed"):
            tw.realize_drift(sg_tower, cfg, 1)


@pytest.fixture(scope="module")
def form_instances(sg_tower, admissible_cfg):
    """``name -> (tower, drift config)``: the default drift on SG and on the
    two shipped non-SG structures, and the two-term drift on SG."""
    out = {"sg": (sg_tower, admissible_cfg), "sg_two_term": (sg_tower, TWO_TERM_DRIFT)}
    for name in ("interval", "sg_combinatorial"):
        tower = tw.LevelTower(pcf.load_structure(CONFIGS / f"{name}.json"))
        out[name] = (tower, tw.default_admissible_drift(tower, proxy_level=5))
    return out


def certified_values(gen, s, lam, delta=0.1, diam=2 / 3) -> dict:
    """The certificates' values under the keys of ``dense_form_values``; the
    drift bound's ``t`` is ``lam s``."""
    sw = certify_sandwich(gen, s, lam)
    sd = certify_SD_axioms(gen, sw, delta, diam)
    return {"lower": sw.lower_margin, "upper": sw.upper_margin,
            "drift": certify_drift_bound(sw).margin,
            "sd1": sd.sd1_min, "sector": sd.sector_constant}


@pytest.fixture(scope="module")
def dense_oracle():
    """``dense_form_values`` memoized per instance and level."""
    cache = {}

    def values(gen, key, *constants):
        if key not in cache:
            cache[key] = dense_form_values(gen, *constants)
        return cache[key]
    return values


class TestCertificateSolves:
    def test_check_makes_three_eigen_solves_and_two_factorizations(
        self, tmp_path, monkeypatch
    ):
        # the sandwich, SD1 and the sector constant; the drift bound adds none.
        # Each eigen-solve is one Lanczos run and each factorization one
        # elimination, as the certificates call them.
        calls = {"eigen": 0, "factor": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        for module, name, key in ((drift_module, "_arnoldi", "eigen"),
                                  (drift_module, "_eliminate", "factor")):
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        assert main(["check", "--level", "4", "--out", str(tmp_path)]) == 0
        assert calls == {"eigen": 3, "factor": 2}

    def test_singular_pivot_block_raises(self, sg_tower, admissible_cfg):
        # the finest vertex's row zeroed with its entries kept: the pivot
        # block of its cell is exactly singular
        gen = sg_tower.generator(3, admissible_cfg)
        b = (gen.E_matrix + sparse.diags(gen.mu)).tocsr()
        b.data[b.indptr[-2]:] = 0.0
        with pytest.raises(CertificateError, match="cannot factor"):
            _factor(gen, b)


class TestLanczos:
    """The eigen-brackets' Lanczos against dense generalized ``eigh``, on the
    default drift's sandwich pencil (of rank 3) and on pencils of high rank:
    a drift sampled vertex by vertex, and the sector pencil."""

    LAM = 1.5

    @pytest.fixture(scope="class")
    def sampled_cfg(self):
        values = np.random.default_rng(71).uniform(-0.3, 0.3, 400)
        return tw.DriftConfig((("samples", tuple(values)),), ((0, (1.0, 0.0, 0.0)),))

    def pencils(self, gen):
        """``name -> (a, dense a, b)``: the sandwich pencil ``Q_sym`` against
        ``E_lam`` and the sector pencil ``-K S^-1 K`` against ``S``."""
        q = gen.Q_matrix
        e_lam = (gen.E_matrix + self.LAM * sparse.diags(gen.mu)).tocsr()
        q_sym, k = (0.5 * (q + q.T)).tocsr(), (0.5 * (q - q.T)).tocsr()
        big_s = (e_lam + q_sym).tocsr()
        solve_s = _factor(gen, big_s)
        sector = -k.toarray() @ np.linalg.solve(big_s.toarray(), k.toarray())
        return {"sandwich": (q_sym, q_sym.toarray(), e_lam),
                "sector": (lambda x: -(k @ solve_s(k @ x)), sector, big_s)}

    @pytest.mark.parametrize("drift", ["default", "sampled"])
    @pytest.mark.parametrize("pencil", ["sandwich", "sector"])
    @pytest.mark.parametrize("level", [3, 5])
    def test_brackets_hold_the_dense_extremes(self, sg_tower, admissible_cfg, sampled_cfg,
                                              drift, pencil, level):
        gen = sg_tower.generator(level, admissible_cfg if drift == "default" else sampled_cfg)
        a, dense, b = self.pencils(gen)[pencil]
        want = scipy.linalg.eigh(0.5 * (dense + dense.T), b.toarray(), eigvals_only=True)
        which = "BE" if pencil == "sandwich" else "LA"
        got = _extremes(a, b, _factor(gen, b), which)
        ends = [want[0], want[-1]] if which == "BE" else [want[-1]]
        scale = np.max(np.abs(want))
        for bracket, end in zip(got, ends):
            assert bracket.value == pytest.approx(end, abs=1e-10 * scale)
            # the dense sector matrix carries the round-off of a dense inverse
            assert bracket.lo - 1e-10 * scale <= end <= bracket.hi + 1e-10 * scale
            assert bracket.residual <= 1e-10 * scale

    def test_the_pencils_are_of_low_and_high_rank(self, sg_tower, admissible_cfg, sampled_cfg):
        rank = {name: np.linalg.matrix_rank(self.pencils(sg_tower.generator(4, cfg))[
            "sandwich"][1], tol=1e-9) for name, cfg in (("default", admissible_cfg),
                                                       ("sampled", sampled_cfg))}
        assert rank["default"] <= 3 and rank["sampled"] > 60

    def test_capped_iterations_raise(self, sg_tower, sampled_cfg, monkeypatch):
        gen = sg_tower.generator(5, sampled_cfg)
        a, _, b = self.pencils(gen)["sandwich"]
        monkeypatch.setattr(drift_module, "LANCZOS_STEPS", 4)
        with pytest.raises(CertificateError, match="no convergence in 4 Lanczos steps"):
            _extremes(a, b, _factor(gen, b), "BE")


class TestCertificates:
    # fixed s, lambda and t = lambda s shared by every instance
    S, LAM, T = 0.5, 1.5, 0.75

    # level 0 (2 or 3 vertices) runs Lanczos to its full length
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["sg", "interval", "sg_combinatorial", "sg_two_term"])
    def test_agree_with_dense_eigenvalues(self, form_instances, dense_oracle, name, level):
        tower, cfg = form_instances[name]
        gen = tower.generator(level, cfg)
        oracle = dense_oracle(gen, (name, level), self.S, self.LAM, self.T)
        got = certified_values(gen, self.S, self.LAM)
        for key, want in oracle.items():
            b = got[key]
            assert b.value == pytest.approx(want, abs=1e-10), key
            assert b.lo - 1e-10 <= want <= b.hi + 1e-10, key
            assert b.residual < 1e-10, key

    def test_two_term_drift_has_a_rotating_part(self, form_instances):
        # the antisymmetric part K of the two-term drift gives a sector
        # constant above 1 and a generator with complex spectrum
        tower, cfg = form_instances["sg_two_term"]
        gen = tower.generator(4, cfg)
        assert certified_values(gen, self.S, self.LAM)["sector"].lo > 1.0
        eigs = np.linalg.eigvals(tower.generator(4, cfg).L.toarray())
        assert np.max(np.abs(eigs.imag)) > 1e-6

    @pytest.mark.parametrize("level, want", [(5, 0.630984), (6, 0.630975), (7, 0.630973)])
    def test_sandwich_lower_margin_is_level_stable(self, sg_tower, admissible_cfg,
                                                   admissible_constants, level, want):
        c = admissible_constants
        gen = sg_tower.generator(level, admissible_cfg)
        margin = certify_sandwich(gen, c.s, c.lam).lower_margin
        assert round(margin.value, 6) == want
        assert margin.hi - margin.lo < 1e-11

    @pytest.mark.parametrize("name, level", [("sg", 3), ("sg", 6), ("interval", 5),
                                             ("sg_combinatorial", 4), ("sg_two_term", 4)])
    def test_random_batches_are_looser(self, form_instances, name, level):
        # on the same generator a random margin is never below the exact one
        tower, cfg = form_instances[name]
        gen = tower.generator(level, cfg)
        exact = certified_values(gen, self.S, self.LAM)
        batch = random_form_values(gen, self.S, self.LAM, self.T)
        for key in ("lower", "upper", "drift", "sd1"):
            assert batch[key] >= exact[key].value - 1e-12, key
        assert batch["sector"] <= exact["sector"].value + 1e-12
        # the Markov pairing is nonnegative wherever the edge certificate holds
        assert batch["sd4"] >= -1e-12

    def test_certificates_stay_small_in_memory(self, sg_tower, admissible_cfg,
                                               admissible_constants):
        # the random batch of 1000 draws needed about 26 MB at L6
        c = admissible_constants
        gen = sg_tower.generator(6, admissible_cfg)
        tracemalloc.start()
        try:
            sandwich = certify_sandwich(gen, c.s, c.lam)
            certify_drift_bound(sandwich)
            certify_SD_axioms(gen, sandwich, c.delta, c.diam_proxy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
