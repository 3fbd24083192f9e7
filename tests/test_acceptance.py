"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary (see conftest.pytest_terminal_summary)."""

import time

import numpy as np
import pytest

from mrdist import chain, cli, forest, linalg, resistance, simulate

from conftest import CE_PI


@pytest.fixture(scope="module")
def chain_pool():
    """Mixed pool used by the on-every-test-chain criteria (4, 5, 6, 11)."""
    pool = [cli.counterexample_chain()]
    for kind in chain.CHAIN_KINDS:
        for n in (2, 3, 5, 8, 12, 16):
            for seed in (0, 1):
                pool.append(chain.generate_random_chain(n, kind, seed))
    return [(mat, chain.analyze(mat)) for mat in pool]


def test_criterion_01_counterexample_reproduction(criterion):
    start = time.perf_counter()
    mat = cli.counterexample_chain()
    analysis = chain.analyze(mat)
    om = analysis.omega
    metric = resistance.metric_check(om)
    elapsed = time.perf_counter() - start

    pi_err = np.abs(analysis.pi - CE_PI).max()
    endpoint_err = abs(om[0, 2] - 20.0)
    path_err = abs(om[0, 1] + om[1, 2] - 140.0 / 11.0)
    ok = (
        pi_err < 1e-12
        and endpoint_err < 1e-9
        and path_err < 1e-9
        and metric.triangle_holds is False
        and metric.worst_triple == (0, 1, 2)
        and elapsed < 0.1
    )
    criterion(
        "1 counterexample reproduction",
        ok,
        f"pi_err={pi_err:.2e} omega_err={max(endpoint_err, path_err):.2e} "
        f"elapsed={elapsed * 1e3:.1f}ms",
    )


def test_criterion_02_representation_equivalence(criterion):
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = 2 + i % 15
        analysis = chain.analyze(chain.generate_random_chain(n, "ergodic", i))
        om = analysis.omega
        om_d = resistance.omega_from_group_inverse(analysis.D)
        om_h = resistance.omega_from_hitting(analysis.H, analysis.pi)
        worst = max(
            worst,
            np.abs(om_d - om).max(),
            np.abs(om_h - om).max(),
        )
    worst_commute = 0.0
    for i in range(50):
        n = 2 + i % 15
        mat = chain.generate_random_chain(n, "doubly_stochastic", i)
        rep = chain.check_ergodicity(mat)
        analysis = chain.analyze(mat)
        om = analysis.omega
        om_c = resistance.omega_from_commute(analysis.H, rep)
        worst_commute = max(worst_commute, np.abs(om_c - om).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worst_commute < 1e-9 and elapsed < 30.0
    criterion(
        "2 four-way representation equivalence",
        ok,
        f"worst={worst:.2e} commute={worst_commute:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_03_forest_oracle(criterion):
    start = time.perf_counter()
    worst_pi = worst_h = worst_om = 0.0
    for i in range(50):
        n = 2 + i % 5
        mat = chain.generate_random_chain(n, "ergodic", i)
        analysis = chain.analyze(mat)
        om = analysis.omega
        fw = forest.enumerate_forests(mat)
        worst_pi = max(
            worst_pi, np.abs(forest.stationary_from_forest(fw) - analysis.pi).max()
        )
        worst_h = max(
            worst_h, np.abs(forest.hitting_from_forest(fw) - analysis.H).max()
        )
        worst_om = max(
            worst_om, np.abs(forest.omega_from_forest(fw) - om).max()
        )
    elapsed = time.perf_counter() - start
    ok = worst_pi <= 1e-10 and worst_h <= 1e-9 and worst_om <= 1e-9 and elapsed < 60.0
    criterion(
        "3 forest enumeration oracle",
        ok,
        f"pi={worst_pi:.2e} H={worst_h:.2e} omega={worst_om:.2e} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_04_kirchhoff_identity(criterion, chain_pool):
    start = time.perf_counter()
    worst_kemeny = worst_eigen = 0.0
    for mat, analysis in chain_pool:
        n = mat.n
        total = analysis.omega.sum()
        worst_kemeny = max(worst_kemeny, abs(total - 2 * n * analysis.t_av))
        et = chain.eigentime_constant(linalg.eigenvalues(mat.P))
        worst_eigen = max(worst_eigen, abs(total - 2 * n * et))
    elapsed = time.perf_counter() - start
    ok = worst_kemeny < 1e-8 and worst_eigen < 1e-6
    criterion(
        "4 Kirchhoff index identity",
        ok,
        f"vs_kemeny={worst_kemeny:.2e} vs_eigentime={worst_eigen:.2e} "
        f"elapsed={elapsed * 1e3:.1f}ms",
    )


def test_criterion_05_multiplicative_kirchhoff(criterion, chain_pool):
    start = time.perf_counter()
    worst = 0.0
    for mat, analysis in chain_pool:
        report = resistance.kirchhoff_indices(analysis.omega, analysis.pi, analysis.t_av)
        trace_form = 2.0 * float(
            analysis.pi @ np.diag(analysis.F) - analysis.pi @ analysis.pi
        )
        worst = max(worst, abs(report.multiplicative - trace_form))
    elapsed = time.perf_counter() - start
    criterion(
        "5 multiplicative Kirchhoff index",
        worst < 1e-9,
        f"worst={worst:.2e} elapsed={elapsed * 1e3:.1f}ms",
    )


def test_criterion_06_additive_kirchhoff_bounds(criterion, chain_pool):
    start = time.perf_counter()
    worst = 0.0
    for mat, analysis in chain_pool:
        report = resistance.kirchhoff_indices(analysis.omega, analysis.pi, analysis.t_av)
        worst = max(
            worst,
            report.additive_lower - report.additive,
            report.additive - report.additive_upper,
        )
    elapsed = time.perf_counter() - start
    criterion(
        "6 additive Kirchhoff bounds",
        worst <= 1e-9,
        f"worst_excess={worst:.2e} elapsed={elapsed * 1e3:.1f}ms",
    )


def test_criterion_07_general_sum_rule(criterion, chain_pool):
    start = time.perf_counter()
    worst_scaled = 0.0
    chains = chain_pool[:20]
    assert len(chains) == 20
    for idx, (mat, analysis) in enumerate(chains):
        M, K = resistance.make_sum_rule_pair(mat.n, range(10_000 * idx, 10_000 * idx + 200))
        lhs, rhs = resistance.sum_rule(M, K, analysis.omega, analysis.F)
        assert lhs.shape == (200,)
        worst_scaled = max(worst_scaled, float((np.abs(lhs - rhs) / (1.0 + np.abs(lhs))).max()))
    elapsed = time.perf_counter() - start
    ok = worst_scaled <= 1e-8
    criterion(
        "7 general sum rule (200 pairs x 20 chains)",
        ok,
        f"worst_scaled={worst_scaled:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_08_foster_analogue(criterion):
    start = time.perf_counter()
    worst_edge = 0.0
    for i in range(50):
        n = 2 + i % 15
        base = chain.generate_random_chain(n, "doubly_stochastic", i)
        mat = chain.validate(0.5 * (base.P + base.P.T))  # reversible and doubly stochastic
        value = resistance.foster_first_formula(mat, chain.analyze(mat).omega)
        worst_edge = max(worst_edge, abs(value - 2.0 * (n - 1)))
    worst_trace = 0.0
    for i in range(50):
        n = 2 + i % 15
        mat = chain.generate_random_chain(n, "reversible", i)
        analysis = chain.analyze(mat)
        lhs, rhs = resistance.foster_sum(mat, analysis.omega, 3, analysis)  # P, P^2, P^3
        worst_trace = max(worst_trace, np.abs(lhs - rhs).max())
    elapsed = time.perf_counter() - start
    ok = worst_edge < 1e-8 and worst_trace < 1e-8
    criterion(
        "8 Foster analogue",
        ok,
        f"edge_sum={worst_edge:.2e} trace={worst_trace:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_09_triangle_inequality_regime(criterion):
    start = time.perf_counter()
    violations = 0
    for i in range(200):
        n = 2 + i % 15
        mat = chain.generate_random_chain(n, "doubly_stochastic", i)
        om = chain.analyze(mat).omega
        if not resistance.metric_check(om).triangle_holds:
            violations += 1

    qualifying = violating = 0
    for seed in range(40):
        mat = chain.generate_random_chain(3, "birth_death", seed)
        analysis = chain.analyze(mat)
        w = analysis.omega
        pi = analysis.pi
        if pi[0] > pi[1] and pi[2] > pi[1]:
            qualifying += 1
            if w[0, 2] > w[0, 1] + w[1, 2]:
                violating += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and qualifying >= 1 and violating == qualifying
    criterion(
        "9 triangle inequality regime",
        ok,
        f"ds_violations={violations} bd_qualifying={qualifying} "
        f"bd_violating={violating} elapsed={elapsed:.1f}s",
    )


def test_criterion_10_monte_carlo_oracle(criterion):
    start = time.perf_counter()
    chains = [cli.counterexample_chain()] + [
        chain.generate_random_chain(n, "ergodic", seed)
        for n, seed in ((4, 0), (5, 1), (6, 2), (8, 3))
    ]
    cfg = simulate.SimConfig(seed=20_260_808, replicas=100_000)
    worst_sigma = 0.0
    pairs_checked = 0
    for mat in chains:
        analysis = chain.analyze(mat)
        om = analysis.omega
        for i in range(mat.n):
            for j in range(i + 1, mat.n):
                est = simulate.estimate_omega(mat, i, j, analysis.pi, cfg)
                pairs_checked += 1
                worst_sigma = max(
                    worst_sigma, abs(est.mean - om[i, j]) / est.std_error
                )
    # determinism: the identical pair re-run is bit-for-bit equal
    mat = chains[0]
    analysis = chain.analyze(mat)
    repeat_equal = simulate.estimate_omega(
        mat, 0, 2, analysis.pi, cfg
    ) == simulate.estimate_omega(mat, 0, 2, analysis.pi, cfg)
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 4.0 and repeat_equal and elapsed < 120.0
    criterion(
        "10 Monte Carlo oracle",
        ok,
        f"pairs={pairs_checked} worst_z={worst_sigma:.2f} "
        f"deterministic={repeat_equal} elapsed={elapsed:.1f}s",
    )


def test_criterion_11_chain_invariant_suite(criterion, chain_pool):
    start = time.perf_counter()
    worst_axioms = worst_proj = worst_target = worst_frows = worst_drows = 0.0
    for mat, analysis in chain_pool:
        n = mat.n
        ip = np.eye(n) - mat.P
        D = analysis.D
        worst_axioms = max(
            worst_axioms,
            np.abs(ip @ D @ ip - ip).max(),
            np.abs(D @ ip @ D - D).max(),
            np.abs(ip @ D - D @ ip).max(),
        )
        worst_proj = max(worst_proj, np.abs(analysis.Pi @ analysis.F - analysis.Pi).max())
        per_start = analysis.H @ analysis.pi
        worst_target = max(worst_target, per_start.max() - per_start.min())
        worst_frows = max(worst_frows, np.abs(analysis.F.sum(axis=1) - 1.0).max())
        worst_drows = max(worst_drows, np.abs(D.sum(axis=1)).max())
    elapsed = time.perf_counter() - start
    ok = (
        worst_axioms <= 1e-8
        and worst_proj <= 1e-9
        and worst_target <= 1e-8
        and worst_frows <= 1e-9
        and worst_drows <= 1e-9
    )
    criterion(
        "11 chain invariant suite",
        ok,
        f"axioms={worst_axioms:.2e} PiF={worst_proj:.2e} target={worst_target:.2e} "
        f"Frows={worst_frows:.2e} Drows={worst_drows:.2e} "
        f"elapsed={elapsed * 1e3:.1f}ms",
    )
