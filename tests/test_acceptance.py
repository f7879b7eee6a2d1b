"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria with stated runtime budgets assert them.  Closed-form constants are
compared at machine precision (8 eps relative): different-but-equivalent
float evaluation orders of quantities like (5/3)^n differ by single ulps,
so bitwise equality of doubles is not a meaningful reading of "exact".
"""

import math
import time

import numpy as np
import pytest

from driftform import tower as tw
from driftform.convergence import (
    resolvent_convergence,
    semigroup_convergence,
)
from driftform.drift import certify_SD_axioms, certify_drift_bound, certify_sandwich
from driftform.markov import (
    detailed_balance_gap,
    ensemble_states,
    point_mass,
)
from driftform.resistance import harmonic_extension, trace
from driftform.spectral import markov_check, resolvent
from oracles import jump_parameters, semigroup_apply

MACHINE_REL = 8 * np.finfo(float).eps


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" | {detail}" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def instance(sg_tower, admissible_cfg):
    """Admissible default instance with constants from the level-6 proxy."""
    report = tw.constants_for(sg_tower, admissible_cfg, 2, proxy_level=6)
    assert report.constants is not None
    return sg_tower, admissible_cfg, report.constants


def test_criterion_1_golden_constants(sg_tower):
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 7):
        net = sg_tower.network(n)
        expected_c = (5.0 / 3.0) ** n
        cvals = net.c.tocoo().data
        worst = max(worst, float(np.max(np.abs(cvals / expected_c - 1.0))))

        mu = sg_tower.measure(n)
        corner = (1.0 / 3.0) ** (n + 1)
        expected_mu = np.where(np.arange(net.n) < 3, corner, 2.0 * corner)
        worst = max(worst, float(np.max(np.abs(mu / expected_mu - 1.0))))

        gen = sg_tower.generator(n, None)
        worst = max(worst, float(np.max(np.abs(gen.q / (6.0 * 5.0**n) - 1.0))))

        _, pi = jump_parameters(gen)
        dense = pi.toarray()
        for x in range(net.n):
            row = dense[x][dense[x] > 0]
            expected_pi = 0.5 if x < 3 else 0.25
            worst = max(worst, float(np.max(np.abs(row / expected_pi - 1.0))))
    elapsed = time.monotonic() - start
    ok = worst <= MACHINE_REL and elapsed < 5.0
    verdict(1, "golden constants", ok,
            f"max rel dev {worst:.2e} (budget {MACHINE_REL:.2e}), {elapsed:.2f}s")


def test_criterion_2_trace_tower(sg_tower):
    start = time.monotonic()
    worst = 0.0
    for n in range(0, 6):
        fine = sg_tower.network(n + 1)
        coarse = sg_tower.network(n)
        traced = trace(fine, coarse.n)
        worst = max(worst, float(np.abs(traced.c - coarse.c).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(2, "trace tower", ok, f"max entry gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_harmonic_midpoint_rule(sg_tower):
    # independent oracle: the 3x3 interior system, each midpoint averaging
    # its four neighbours
    oracle = np.linalg.solve(
        np.array([[4.0, -1.0, -1.0], [-1.0, 4.0, -1.0], [-1.0, -1.0, 4.0]]),
        np.array([1.0, 1.0, 0.0]),
    )
    ext = harmonic_extension(sg_tower.network(1), [1.0, 0.0, 0.0])
    gap = float(np.max(np.abs(ext[3:] - oracle)))
    expected = float(np.max(np.abs(oracle - np.array([0.4, 0.4, 0.2]))))
    ok = gap <= 1e-12 and expected <= 1e-12
    verdict(3, "harmonic midpoint rule", ok,
            f"midpoints {ext[3:].tolist()}, gap {gap:.2e}")


def test_criterion_4_semi_dirichlet_suite(instance):
    sg_tower, cfg, c = instance
    start = time.monotonic()
    failures = []
    for level in range(1, 6):
        gen = sg_tower.generator(level, cfg)
        sw = certify_sandwich(gen, c.s, c.lam)
        db = certify_drift_bound(sw)
        sd = certify_SD_axioms(gen, sw, c.delta, c.diam_proxy)
        if not sw.passed:
            failures.append(f"level {level}: sandwich {sw.lower_margin}, {sw.upper_margin}")
        if not db.passed:
            failures.append(f"level {level}: drift bound {db.margin}")
        if not sd.sd1_passed:
            failures.append(f"level {level}: sd1 {sd.sd1_min}")
        if not sd.sd3_passed or sd.sector_constant.lo < 1.0:
            failures.append(f"level {level}: sector {sd.sector_constant}")
        if not sd.sd4_passed or sd.edge_one_plus_eta_min < 0.0:
            failures.append(f"level {level}: edges {sd.edge_markov_min:.2e}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    verdict(4, "semi-Dirichlet suite", ok,
            f"levels 1..5, exact eigen-certificates, {elapsed:.1f}s"
            + (f"; {failures}" if failures else ""))


def test_criterion_5_resolvent_semigroup_identities(instance):
    sg_tower, cfg, c = instance
    failures = []

    level = 3
    gen = sg_tower.generator(level, cfg)
    alpha, beta = 2.0 * c.lam, 3.0 * c.lam
    ones = np.ones(gen.n)

    gap = float(np.max(np.abs(resolvent(gen, alpha, ones) - 1.0 / alpha)))
    if gap > 1e-10:
        failures.append(f"constants under resolvent: {gap:.2e}")

    rng = np.random.default_rng(55)
    f = rng.standard_normal(gen.n)
    lhs = resolvent(gen, alpha, f) - resolvent(gen, beta, f)
    rhs = (beta - alpha) * resolvent(gen, alpha, resolvent(gen, beta, f))
    gap = float(np.max(np.abs(lhs - rhs)))
    if gap > 1e-9:
        failures.append(f"resolvent identity: {gap:.2e}")

    gap = float(np.max(np.abs(semigroup_apply(gen, 0.1, ones) - 1.0)))
    if gap > 1e-10:
        failures.append(f"conservativity: {gap:.2e}")

    lhs = semigroup_apply(gen, 0.13, f)
    rhs = semigroup_apply(gen, 0.05, semigroup_apply(gen, 0.08, f))
    gap = float(np.max(np.abs(lhs - rhs)))
    if gap > 1e-9:
        failures.append(f"semigroup property: {gap:.2e}")

    for n in range(1, 5):
        gen_n = sg_tower.generator(n, cfg)
        lhs_mat = -np.diag(gen_n.mu) @ gen_n.L.toarray()
        rhs_mat = (gen_n.E_matrix + gen_n.Q_matrix).toarray()
        scale = max(1.0, float(np.abs(rhs_mat).max()))
        gap = float(np.abs(lhs_mat - rhs_mat).max()) / scale
        if gap > 1e-10:
            failures.append(f"duality level {n}: {gap:.2e}")

    verdict(5, "resolvent/semigroup identities", not failures,
            "; ".join(failures) if failures else "all five identities hold")


def test_criterion_6_convergence_trends(instance):
    sg_tower, cfg, c = instance
    start = time.monotonic()
    levels, reference = [1, 2, 3, 4, 5], 6
    f = sg_tower.coordinates(reference)[:, 0].copy()

    res = resolvent_convergence(sg_tower, cfg, 2.0 * c.lam, f, levels, reference)
    sem, _ = semigroup_convergence(sg_tower, cfg, 0.1, f, levels, reference)
    res_ratio = res.errors[-1] / res.errors[0]
    sem_ratio = sem.errors[-1] / sem.errors[0]
    decreasing = res.trend_nonincreasing_from == 1 and sem.trend_nonincreasing_from == 1
    elapsed = time.monotonic() - start
    # the 0.1 factor is this artifact's regression threshold for the trend,
    # not a claimed rate
    ok = decreasing and res_ratio <= 0.1 and sem_ratio <= 0.1 and elapsed < 300.0
    verdict(6, "convergence trends", ok,
            f"resolvent ratio {res_ratio:.2e}, semigroup ratio {sem_ratio:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_monte_carlo_coherence(instance):
    sg_tower, cfg, c = instance
    start = time.monotonic()
    paths = 100_000
    reference = 6
    coords = sg_tower.coordinates(reference)
    h_ref = harmonic_extension(
        sg_tower.network(reference), [1.0, 0.0, 0.0]
    )
    test_functions = [coords[:, 0], coords[:, 1], h_ref]

    failures = []
    checks = 0
    for level in (1, 2, 3):
        gen = sg_tower.generator(level, cfg)
        init = point_mass(gen.n, 1)
        n_lvl = gen.n
        for t in (0.01, 0.1):
            states = ensemble_states(gen, init, [t], paths, seed=2024)[0]
            for k, f in enumerate(test_functions):
                f_lvl = f[:n_lvl]
                exact = float(semigroup_apply(gen, t, f_lvl)[1])
                samples = f_lvl[states]
                mean = float(np.mean(samples))
                se = float(np.std(samples, ddof=1) / math.sqrt(paths))
                checks += 1
                if abs(mean - exact) > 3.0 * se:
                    failures.append(
                        f"level {level} t {t} f{k}: |{mean:.5f}-{exact:.5f}| > 3x{se:.2e}"
                    )
        if detailed_balance_gap(gen) <= 0.0:
            failures.append(f"level {level}: no non-symmetry witness")
        if not markov_check(gen, 0.1, trials=25, seed=level).ok:
            failures.append(f"level {level}: markov bounds")
    elapsed = time.monotonic() - start
    verdict(7, "Monte-Carlo coherence", not failures,
            f"{checks} checks at 1e5 paths, {elapsed:.1f}s"
            + (f"; {failures}" if failures else ""))


def test_criterion_8_path_law_surrogate(instance):
    # The path-space limit statement itself (continuum process, path-space
    # topology) is not reproducible on finite levels; its agreed surrogate
    # is the trend evidence of criteria 6 and 7 plus stabilization of
    # fixed-time test-function expectations across levels within MC error.
    sg_tower, cfg, c = instance
    reference = 6
    y = sg_tower.coordinates(reference)[:, 1].copy()
    _, rep = semigroup_convergence(
        sg_tower, cfg, 0.1, y, [1, 2, 3], reference, [y], [1, 2, 3], paths=50_000, seed=31
    )
    rows = [rep.details["mc"][lvl][0] for lvl in (1, 2, 3)]

    failures = []
    exact_gaps = [abs(r["exact"] - r["reference_exact"]) for r in rows]
    if not all(b < a for a, b in zip(exact_gaps, exact_gaps[1:])):
        failures.append(f"exact gaps not decreasing: {exact_gaps}")
    for a, b in zip(rows, rows[1:]):
        drift_gap = abs(a["exact"] - b["exact"])
        noise = 3.0 * (a["mc_se"] + b["mc_se"])
        if abs(a["mc_mean"] - b["mc_mean"]) > drift_gap + noise:
            failures.append("successive means not within MC error of their gap")
    if "fixed-time" not in rep.banner:
        failures.append("weakening banner missing")
    verdict(8, "path-law surrogate", not failures,
            "surrogate only: fixed-time expectations stabilize; "
            f"gaps to reference {['%.1e' % g for g in exact_gaps]}"
            + (f"; {failures}" if failures else ""))
