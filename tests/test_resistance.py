import re

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.testing import assert_allclose

from mrdist import chain, cli, forest, linalg, resistance
from mrdist.errors import (
    HypothesisViolatedError,
    MRDistError,
    NotDoublyStochasticError,
    NotReversibleError,
    SingularMatrixError,
)
from mrdist.tolerances import DEFAULT

from conftest import CE_OMEGA


class TestConstructors:
    def test_rank_one_chain_all_twos(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        analysis = chain.analyze(mat)
        om = analysis.omega
        assert_allclose(om, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)
        om_d = resistance.omega_from_group_inverse(analysis.D)
        assert_allclose(om_d, om, atol=1e-14)

    def test_counterexample_values(self, ce):
        w = chain.analyze(ce.chain).omega
        assert abs(w[0, 2] - 20.0) < 1e-9
        assert abs(w[0, 1] + w[1, 2] - 140.0 / 11.0) < 1e-9
        assert_allclose(w, CE_OMEGA, rtol=0, atol=1e-9)

    def test_structure(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        assert (np.diag(om) == 0.0).all()
        assert np.array_equal(om, om.T)
        assert (om[~np.eye(3, dtype=bool)] > 0).all()
        # Omega is a plain array: a writable copy reads the same everywhere
        plain = np.array(om)
        assert type(plain) is np.ndarray and plain.flags.writeable
        M, K = np.diag(analysis.pi)[None], analysis.Pi[None]
        assert resistance.metric_check(plain) == resistance.metric_check(om)
        for got, ref in zip(resistance.sum_rule(M, K, plain, analysis.F),
                            resistance.sum_rule(M, K, om, analysis.F)):
            assert np.array_equal(got, ref)
        assert resistance.kirchhoff_indices(
            plain, analysis.pi, analysis.t_av
        ) == resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)

    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
    def test_every_route_is_read_only_symmetric_zero_diagonal(self, kind, n):
        mat = chain.generate_random_chain(n, kind, 0)
        analysis = chain.analyze(mat)
        om = analysis.omega
        # the analysis record holds the F route's Omega, bit for bit
        assert om.tobytes() == resistance.omega_from_fundamental(analysis.F).tobytes()
        routes = [
            om,
            resistance.omega_from_group_inverse(analysis.D),
            resistance.omega_from_hitting(analysis.H, analysis.pi),
            forest.omega_from_forest(forest.enumerate_forests(mat, max_n=n)),
        ]
        if analysis.ergodicity.is_doubly_stochastic:
            routes.append(resistance.omega_from_commute(analysis.H, analysis.ergodicity))
        assert len(routes) == (5 if kind == "doubly_stochastic" else 4)
        for w in routes:
            assert type(w) is np.ndarray and w.shape == (n, n)
            assert not w.flags.writeable
            assert np.array_equal(w, w.T)
            assert (np.diag(w) == 0.0).all()
            assert not np.signbit(np.diag(w)).any()

    def test_group_inverse_route_agrees(self):
        for seed in range(4):
            mat = chain.generate_random_chain(7, "ergodic", seed)
            analysis = chain.analyze(mat)
            om = analysis.omega
            om_d = resistance.omega_from_group_inverse(analysis.D)
            assert np.abs(om_d - om).max() < 1e-10

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.2), (0.8, 0.1)])
    def test_hitting_route_closed_form(self, two_state, a, b):
        analysis = chain.analyze(two_state(a, b))
        om = analysis.omega
        om_h = resistance.omega_from_hitting(analysis.H, analysis.pi)
        assert abs(om_h[0, 1] - 2.0 / (a + b)) < 1e-12
        assert np.abs(om_h - om).max() < 1e-12

    def test_commute_route_doubly_stochastic(self):
        mat = chain.generate_random_chain(6, "doubly_stochastic", 2)
        rep = chain.check_ergodicity(mat)
        analysis = chain.analyze(mat)
        om = analysis.omega
        om_c = resistance.omega_from_commute(analysis.H, rep)
        assert np.abs(om_c - om).max() < 1e-9

    def test_commute_route_rejects_general_chain(self, ce):
        rep = chain.check_ergodicity(ce.chain)
        analysis = chain.analyze(ce.chain)
        with pytest.raises(NotDoublyStochasticError):
            resistance.omega_from_commute(analysis.H, rep)


class TestMetricCheck:
    def test_doubly_stochastic_triangle_holds(self):
        for seed in range(5):
            mat = chain.generate_random_chain(8, "doubly_stochastic", seed)
            om = chain.analyze(mat).omega
            report = resistance.metric_check(om)
            assert report.triangle_holds
            assert report.nonnegative

    def test_counterexample_violation(self, ce):
        om = chain.analyze(ce.chain).omega
        report = resistance.metric_check(om)
        assert not report.triangle_holds
        assert report.worst_triple == (0, 1, 2)
        assert abs(report.worst_violation - 80.0 / 11.0) < 1e-9

    def test_two_states_vacuous(self, two_state):
        om = chain.analyze(two_state(0.4, 0.3)).omega
        report = resistance.metric_check(om)
        assert report.triangle_holds
        assert report.worst_triple is None


def ref_metric_check(w, *, tol=DEFAULT):
    """The triangle scan with two n^3 temporaries, as it was."""
    n = w.shape[0]
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool(w.min() >= 0.0) and bool((w[off] > 0.0).all())
    if n < 3:
        return resistance.MetricReport(nonnegative, True, None, 0.0)
    viol = w[:, None, :] - w[:, :, None] - w[None, :, :]
    d = np.arange(n)
    viol[d, d, :] = viol[:, d, d] = viol[d, :, d] = -np.inf
    flat = int(np.argmax(viol))
    worst = float(viol.reshape(-1)[flat])
    i, k, j = np.unravel_index(flat, viol.shape)
    return resistance.MetricReport(
        nonnegative=nonnegative,
        triangle_holds=bool(worst <= tol.bound(w.max())),
        worst_triple=(int(i), int(k), int(j)),
        worst_violation=worst,
    )


def _scan_inputs():
    yield "counterexample", cli.counterexample_chain()
    yield "uniform", chain.validate(np.full((6, 6), 1.0 / 6.0))  # every triple ties
    for kind in chain.CHAIN_KINDS:
        for n in range(3, 65):
            yield f"{kind} {n}", chain.generate_random_chain(n, kind, n)


def test_metric_check_matches_two_temporary_scan():
    for name, mat in _scan_inputs():
        om = chain.analyze(mat).omega
        root = resistance.resistance_matrix(np.sqrt(om))
        for w in (om, root):
            assert resistance.metric_check(w) == ref_metric_check(w), name


def ref_make_sum_rule_pair(n, seed, *, tol=DEFAULT):
    """One (n, n) pair (M, K) built on its own, without stacks."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    a = b + b.T
    r = a.sum(axis=1)
    total = a.sum()
    a = a - r[:, None] / n - r[None, :] / n + total / n**2
    m = rng.standard_normal((n, n))
    m = m + np.diag(np.abs(m).sum(axis=1) + 1.0)
    return m, np.eye(n) + linalg.lu_solve(m, a, tol=tol)


def ref_sum_rule(M, K, omega, F, *, tol=DEFAULT):
    """Both sides, as floats, for one (n, n) pair (M, K), without stacks."""
    n = len(omega)
    row_dev = np.abs(K.sum(axis=1) - 1.0).max()
    if row_dev > tol.pair_hypothesis:
        raise HypothesisViolatedError(f"K row sums deviate from 1 by {row_dev:.3e}")
    A = M @ (K - np.eye(n))
    asym = np.abs(A - A.T).max()
    if asym > tol.pair_hypothesis:
        raise HypothesisViolatedError(f"M(K - I) asymmetric by {asym:.3e}")
    return float((A * omega).sum()), float(2.0 * np.trace(M @ (np.eye(n) - K) @ F))


def one_pair_sides(M, K, omega, F, *, tol=DEFAULT):
    """Both sides, as floats, for one (n, n) pair passed as a stack of one."""
    lhs, rhs = resistance.sum_rule(M[None], K[None], omega, F, tol=tol)
    assert lhs.shape == rhs.shape == (1,)
    return float(lhs[0]), float(rhs[0])


STACK_SIZES = (2, 3, 4, 8, 9, 17, 33, 64)


class TestSumRule:
    def test_stationary_pair_equals_multiplicative_index(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        lhs, rhs = one_pair_sides(np.diag(analysis.pi), analysis.Pi, om, analysis.F)
        pi = analysis.pi
        direct = sum(
            pi[i] * pi[j] * om[i, j] for i in range(3) for j in range(3)
        )
        trace_form = 2.0 * (pi @ np.diag(analysis.F) - pi @ pi)
        assert abs(lhs - direct) < 1e-12
        assert abs(rhs - trace_form) < 1e-12
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))

    def test_identity_pair_is_zero(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        lhs, rhs = one_pair_sides(np.diag(analysis.pi), np.eye(3), om, analysis.F)
        assert lhs == 0.0
        assert abs(rhs) < 1e-14

    def test_random_pairs_identity(self):
        for seed in range(3):
            mat = chain.generate_random_chain(6 + seed, "ergodic", seed)
            analysis = chain.analyze(mat)
            om = analysis.omega
            M, K = resistance.make_sum_rule_pair(mat.n, range(1000 * seed, 1000 * seed + 200))
            lhs, rhs = resistance.sum_rule(M, K, om, analysis.F)
            assert lhs.shape == rhs.shape == (200,)
            assert (np.abs(lhs - rhs) <= 1e-8 * (1.0 + np.abs(lhs))).all()

    def test_row_sum_hypothesis_enforced(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        with pytest.raises(HypothesisViolatedError, match="K row sums deviate"):
            one_pair_sides(np.diag(analysis.pi), 2.0 * np.eye(3), om, analysis.F)

    def test_symmetry_hypothesis_enforced(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        # K = P has unit row sums, but diag(1) P - diag(1) is not symmetric
        with pytest.raises(HypothesisViolatedError, match=re.escape("M(K - I) asymmetric")):
            one_pair_sides(np.eye(3), ce.chain.P, om, analysis.F)

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_stack_matches_one_at_a_time(self, n):
        mat = chain.generate_random_chain(n, "ergodic", n)
        analysis = chain.analyze(mat)
        om = analysis.omega
        seeds = range(100 * n, 100 * n + 12)
        M, K = resistance.make_sum_rule_pair(n, seeds)
        lhs, rhs = resistance.sum_rule(M, K, om, analysis.F)
        assert lhs.shape == rhs.shape == (12,)
        for t, seed in enumerate(seeds):
            ref = ref_sum_rule(*ref_make_sum_rule_pair(n, seed), om, analysis.F)
            assert (lhs[t], rhs[t]) == ref
            M1, K1 = resistance.make_sum_rule_pair(n, [seed])
            assert one_pair_sides(M1[0], K1[0], om, analysis.F) == ref

    @pytest.mark.parametrize(
        "kind, n",
        [("counterexample", 3)]
        + [(kind, n) for kind in ("reversible", "birth_death") for n in (3, 16, 64)],
    )
    def test_canonical_stack_matches_one_at_a_time(self, kind, n):
        # the stationary pair and the power pairs P, P^2, P^3 with one
        # broadcast M = diag(pi), as `analyze` and `sumrule` evaluate them
        if kind == "counterexample":
            mat = cli.counterexample_chain()
        else:
            mat = chain.generate_random_chain(n, kind, n)
        analysis = chain.analyze(mat)
        om = analysis.omega
        P2 = mat.P @ mat.P
        pairs = {
            "canonical_stationary_pair": analysis.Pi,
            "canonical_power_pair_m1": mat.P,
            "canonical_power_pair_m2": P2,
            "canonical_power_pair_m3": P2 @ mat.P,
        }
        K = np.stack(list(pairs.values()))
        M = np.broadcast_to(np.diag(analysis.pi), K.shape)
        lhs, rhs = resistance.sum_rule(M, K, om, analysis.F)
        checks = cli._canonical_pair_checks(pairs, analysis, DEFAULT)
        assert list(checks) == list(pairs)
        for t, (name, K_t) in enumerate(pairs.items()):
            ref = ref_sum_rule(np.diag(analysis.pi), K_t, om, analysis.F)
            assert (lhs[t], rhs[t]) == ref
            assert checks[name] == cli._identity_check(*ref, DEFAULT)

    @pytest.mark.parametrize(
        "shape_m, shape_k",
        [
            ((3, 3), (3, 3)),           # one pair, not a stack of one
            ((1, 1, 3, 3), (1, 1, 3, 3)),
            ((2, 3, 3), (1, 3, 3)),
            ((1, 4, 4), (1, 4, 4)),     # n does not match Omega
        ],
    )
    def test_only_stacks_of_n_by_n_pairs_are_accepted(self, ce, shape_m, shape_k):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        n_m, n_k = shape_m[-1], shape_k[-1]
        M = np.broadcast_to(np.eye(n_m), shape_m)
        K = np.broadcast_to(np.full((n_k, n_k), 1.0 / n_k), shape_k)
        message = f"pair shapes {shape_m}, {shape_k} do not match chain size 3"
        with pytest.raises(HypothesisViolatedError, match=re.escape(message)):
            resistance.sum_rule(M, K, om, analysis.F)

    @pytest.mark.parametrize(
        "defects, message",
        [
            # (kind, size) per pair of the stack; the first failing pair names
            # the error, not the largest defect
            ((None, ("asym", 3e-10), ("asym", 5e-10), ("row", 1e-9)),
             "M(K - I) asymmetric by 3.000e-10"),
            ((None, None, ("row", 2e-10), ("asym", 5e-10)),
             "K row sums deviate from 1 by 2.000e-10"),
            ((("asym", 4e-10), ("row", 1e-9)), "M(K - I) asymmetric by 4.000e-10"),
        ],
    )
    def test_first_failing_pair_names_the_error(self, ce, defects, message):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        Ks = []
        for kind, size in (d or (None, 0.0) for d in defects):
            K = np.eye(3)
            if kind == "asym":
                # M = I, so M(K - I) = K - I: zero row sums, asymmetric by size
                K[0, 0] -= size
                K[0, 1] += size
            elif kind == "row":
                K *= 1.0 + size
            Ks.append(K)
        M = np.stack([np.eye(3)] * len(Ks))
        with pytest.raises(HypothesisViolatedError, match=re.escape(message)):
            resistance.sum_rule(M, np.stack(Ks), om, analysis.F)

    def test_empty_stack(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        M, K = resistance.make_sum_rule_pair(3, [])
        assert M.shape == K.shape == (0, 3, 3)
        lhs, rhs = resistance.sum_rule(M, K, om, analysis.F)
        assert lhs.shape == rhs.shape == (0,)
        lhs, rhs = cli._random_pair_sides(range(5, 5), analysis, DEFAULT)
        assert lhs.shape == rhs.shape == (0,)

    @pytest.mark.parametrize("block_entries", [2**14, 36, 45])
    @pytest.mark.parametrize(
        "pivot, pair_hypothesis",
        [
            (1e-13, 1e-10),  # every trial passes
            (1e-13, 6e-16),  # trial 6 is the first to fail a hypothesis
            (1e-13, 4e-16),  # trial 2, on its row sums
        ],
    )
    def test_random_trials_match_one_at_a_time(
        self, monkeypatch, block_entries, pivot, pair_hypothesis
    ):
        monkeypatch.setattr(cli, "_PAIR_BLOCK_ENTRIES", block_entries)
        mat = chain.generate_random_chain(3, "ergodic", 3)
        analysis = chain.analyze(mat)
        om = analysis.omega
        tol = DEFAULT.override(pivot=pivot, pair_hypothesis=pair_hypothesis)
        expected = []
        try:
            for seed in range(40):
                M, K = ref_make_sum_rule_pair(3, seed, tol=tol)
                expected.append(ref_sum_rule(M, K, om, analysis.F, tol=tol))
        except MRDistError as exc:
            expected = (type(exc), str(exc))
        try:
            lhs, rhs = cli._random_pair_sides(range(40), analysis, tol)
        except MRDistError as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert list(zip(lhs.tolist(), rhs.tolist())) == expected


class TestMakeSumRulePair:
    def test_invariants_over_seeds(self):
        for seed in range(50):
            n = 2 + seed % 9
            (M,), (K,) = resistance.make_sum_rule_pair(n, [seed])
            assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-10
            a = M @ (K - np.eye(n))
            assert np.abs(a - a.T).max() < 1e-10

    def test_deterministic(self):
        first = resistance.make_sum_rule_pair(5, [77, 78])
        second = resistance.make_sum_rule_pair(5, [77, 78])
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_stacks_are_read_only(self):
        for stack in resistance.make_sum_rule_pair(4, range(3)):
            assert stack.shape == (3, 4, 4) and not stack.flags.writeable

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            resistance.make_sum_rule_pair(1, [0])

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_stack_matches_one_at_a_time(self, n):
        seeds = range(100 * n, 100 * n + 12)
        M, K = resistance.make_sum_rule_pair(n, seeds)
        assert M.shape == K.shape == (12, n, n)
        for t, seed in enumerate(seeds):
            ref_m, ref_k = ref_make_sum_rule_pair(n, seed)
            assert np.array_equal(M[t], ref_m) and np.array_equal(K[t], ref_k)
            (one_m,), (one_k,) = resistance.make_sum_rule_pair(n, [seed])
            assert np.array_equal(one_m, ref_m) and np.array_equal(one_k, ref_k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_pivot_of_m_is_at_least_one(self, n):
        # M is strictly row diagonally dominant with margins >= 1, so no
        # pivot comes near the default threshold
        _, m = resistance._pair_inputs(n, range(2000))
        smallest = min(np.abs(np.diag(scipy.linalg.lapack.dgetrf(m_t)[0])).min() for m_t in m)
        assert smallest >= 1.0

    def test_rejected_pivot_raises_lu_solves_error(self):
        # at pivot 2.0 the M of seed 1 is the first of the stack to fail
        tol = DEFAULT.override(pivot=2.0)
        _, m = resistance._pair_inputs(3, [1])
        with pytest.raises(SingularMatrixError) as expected:
            linalg.lu_solve(m[0], np.eye(3), tol=tol)
        assert str(expected.value).startswith("pivot magnitude ")
        for seeds in (range(12), [1]):
            with pytest.raises(SingularMatrixError) as info:
                resistance.make_sum_rule_pair(3, seeds, tol=tol)
            assert str(info.value) == str(expected.value)


class TestKirchhoffIndices:
    def test_symmetric_two_state(self, two_state):
        analysis = chain.analyze(two_state(0.5, 0.5))
        om = analysis.omega
        report = resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)
        assert abs(report.kirchhoff - 4.0) < 1e-12          # 2 * n * t_av, t_av = 1
        assert abs(report.kirchhoff - 2 * 2 * analysis.t_av) < 1e-12
        assert abs(report.multiplicative - 1.0) < 1e-12     # 2 * (1/4) * 2
        assert abs(report.additive - 4.0) < 1e-12           # (1/2 + 1/2) * 2 * 2

    def test_identity_against_kemeny(self):
        for seed in range(4):
            mat = chain.generate_random_chain(10, "reversible", seed)
            analysis = chain.analyze(mat)
            om = analysis.omega
            report = resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)
            assert abs(report.kirchhoff - 2 * mat.n * analysis.t_av) < 1e-8
            trace_form = 2.0 * (analysis.pi @ np.diag(analysis.F) - analysis.pi @ analysis.pi)
            assert abs(report.multiplicative - trace_form) < 1e-9
            assert report.additive >= report.additive_lower - 1e-9
            assert report.additive <= report.additive_upper + 1e-9


def ref_foster_sum(mat, omega, m, analysis):
    """Both sides, as floats, for P^m alone, its powers formed again from I."""
    P, pi = mat.P, analysis.pi
    partial = np.zeros_like(P)
    power = np.eye(mat.n)
    for _ in range(m):
        partial = partial + power - analysis.Pi
        power = power @ P
    lhs = float(((pi[:, None] * power).T * omega).sum())
    rhs = float(2.0 * np.trace(pi[:, None] * partial))
    return lhs, rhs


class TestFoster:
    def test_symmetric_two_state_m1(self, two_state):
        mat = two_state(0.5, 0.5)
        analysis = chain.analyze(mat)
        om = analysis.omega
        (lhs,), (rhs,) = resistance.foster_sum(mat, om, 1, analysis)
        assert abs(lhs - rhs) < 1e-12
        # doubly stochastic: edge sum gives the Foster constant 2(n - 1)
        assert abs(resistance.foster_first_formula(mat, om) - 2.0) < 1e-12
        assert abs(mat.n * lhs - 2.0) < 1e-12

    def test_counterexample_trace_identity(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        lhs, rhs = resistance.foster_sum(ce.chain, om, 3, analysis)
        assert lhs.shape == rhs.shape == (3,)
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_reversible_chains(self):
        for seed in range(5):
            mat = chain.generate_random_chain(7, "reversible", seed)
            analysis = chain.analyze(mat)
            om = analysis.omega
            lhs, rhs = resistance.foster_sum(mat, om, 3, analysis)
            assert np.abs(lhs - rhs).max() < 1e-8

    @pytest.mark.parametrize(
        "kind, n",
        [("counterexample", 3)]
        + [(kind, n) for kind in ("reversible", "birth_death") for n in (3, 16, 64)],
    )
    def test_stack_matches_one_power_at_a_time(self, kind, n):
        if kind == "counterexample":
            mat = cli.counterexample_chain()
        else:
            mat = chain.generate_random_chain(n, kind, n)
        analysis = chain.analyze(mat)
        for m in (1, 2, 3):
            lhs, rhs = resistance.foster_sum(mat, analysis.omega, m, analysis)
            assert lhs.shape == rhs.shape == (m,)
            for k in range(1, m + 1):
                ref = ref_foster_sum(mat, analysis.omega, k, analysis)
                assert (lhs[k - 1], rhs[k - 1]) == ref, (m, k)

    def test_symmetrized_doubly_stochastic_first_formula(self):
        for seed in range(5):
            base = chain.generate_random_chain(9, "doubly_stochastic", seed)
            mat = chain.validate(0.5 * (base.P + base.P.T))
            analysis = chain.analyze(mat)
            om = analysis.omega
            value = resistance.foster_first_formula(mat, om)
            assert abs(value - 2.0 * (mat.n - 1)) < 1e-8

    def test_non_reversible_rejected(self):
        mat = chain.generate_random_chain(6, "ergodic", 8)
        analysis = chain.analyze(mat)
        om = analysis.omega
        with pytest.raises(NotReversibleError):
            resistance.foster_sum(mat, om, 1, analysis)

    def test_bad_power_rejected(self, ce):
        analysis = chain.analyze(ce.chain)
        om = analysis.omega
        with pytest.raises(ValueError):
            resistance.foster_sum(ce.chain, om, 0, analysis)


class TestBirthDeathViolation:
    def test_light_middle_state_breaks_triangle(self):
        # 3-state birth-death chains whose middle state has the least
        # stationary mass always violate the triangle inequality
        found = 0
        for seed in range(40):
            mat = chain.generate_random_chain(3, "birth_death", seed)
            analysis = chain.analyze(mat)
            w = analysis.omega
            pi = analysis.pi
            if pi[0] > pi[1] and pi[2] > pi[1]:
                found += 1
                assert w[0, 2] > w[0, 1] + w[1, 2]
        assert found >= 1


def test_representation_equivalence_across_kinds():
    for seed, kind in enumerate(chain.CHAIN_KINDS):
        mat = chain.generate_random_chain(11, kind, seed)
        analysis = chain.analyze(mat)
        om = resistance.omega_from_fundamental(analysis.F)
        om_d = resistance.omega_from_group_inverse(analysis.D)
        om_h = resistance.omega_from_hitting(analysis.H, analysis.pi)
        assert np.abs(om_d - om).max() < 1e-9
        assert np.abs(om_h - om).max() < 1e-9
