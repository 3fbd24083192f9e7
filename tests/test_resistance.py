import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrdist import chain, cli, linalg, resistance
from mrdist.errors import (
    HypothesisViolatedError,
    MRDistError,
    NotDoublyStochasticError,
    NotReversibleError,
    SingularMatrixError,
)
from mrdist.tolerances import DEFAULT

from conftest import CE_OMEGA


def _full(mat):
    """Chain analysis plus the fundamental-matrix resistance."""
    analysis = chain.analyze(mat)
    return analysis, resistance.omega_from_fundamental(analysis.F)


class TestConstructors:
    def test_rank_one_chain_all_twos(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        analysis, om = _full(mat)
        assert_allclose(om, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)
        om_d = resistance.omega_from_group_inverse(analysis.D)
        assert_allclose(om_d, om, atol=1e-14)

    def test_counterexample_values(self, ce):
        _, w = _full(ce.chain)
        assert abs(w[0, 2] - 20.0) < 1e-9
        assert abs(w[0, 1] + w[1, 2] - 140.0 / 11.0) < 1e-9
        assert_allclose(w, CE_OMEGA, rtol=0, atol=1e-9)

    def test_structure(self, ce):
        analysis, om = _full(ce.chain)
        assert (np.diag(om) == 0.0).all()
        assert np.array_equal(om, om.T)
        assert (om[~np.eye(3, dtype=bool)] > 0).all()
        # Omega is a plain array: a writable copy reads the same everywhere
        plain = np.array(om)
        assert type(plain) is np.ndarray and plain.flags.writeable
        pair = resistance.SumRulePair(M=np.diag(analysis.pi), K=analysis.Pi)
        assert resistance.metric_check(plain) == resistance.metric_check(om)
        assert resistance.sum_rule(pair, plain, analysis.F) == resistance.sum_rule(
            pair, om, analysis.F
        )
        assert resistance.kirchhoff_indices(
            plain, analysis.pi, analysis.t_av
        ) == resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)

    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
    def test_every_route_is_read_only_symmetric_zero_diagonal(self, kind, n):
        mat = chain.generate_random_chain(n, kind, 0)
        analysis, om = _full(mat)
        routes = [
            om,
            resistance.omega_from_group_inverse(analysis.D),
            resistance.omega_from_hitting(analysis.H, analysis.pi),
        ]
        if analysis.ergodicity.is_doubly_stochastic:
            routes.append(resistance.omega_from_commute(analysis.H, analysis.ergodicity))
        assert len(routes) == (4 if kind == "doubly_stochastic" else 3)
        for w in routes:
            assert type(w) is np.ndarray and w.shape == (n, n)
            assert not w.flags.writeable
            assert np.array_equal(w, w.T)
            assert (np.diag(w) == 0.0).all()

    def test_group_inverse_route_agrees(self):
        for seed in range(4):
            mat = chain.generate_random_chain(7, "ergodic", seed)
            analysis, om = _full(mat)
            om_d = resistance.omega_from_group_inverse(analysis.D)
            assert np.abs(om_d - om).max() < 1e-10

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.2), (0.8, 0.1)])
    def test_hitting_route_closed_form(self, two_state, a, b):
        analysis, om = _full(two_state(a, b))
        om_h = resistance.omega_from_hitting(analysis.H, analysis.pi)
        assert abs(om_h[0, 1] - 2.0 / (a + b)) < 1e-12
        assert np.abs(om_h - om).max() < 1e-12

    def test_commute_route_doubly_stochastic(self):
        mat = chain.generate_random_chain(6, "doubly_stochastic", 2)
        rep = chain.check_ergodicity(mat)
        analysis, om = _full(mat)
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
            _, om = _full(mat)
            report = resistance.metric_check(om)
            assert report.triangle_holds
            assert report.nonnegative
            assert report.symmetric

    def test_counterexample_violation(self, ce):
        _, om = _full(ce.chain)
        report = resistance.metric_check(om)
        assert not report.triangle_holds
        assert report.worst_triple == (0, 1, 2)
        assert abs(report.worst_violation - 80.0 / 11.0) < 1e-9

    def test_two_states_vacuous(self, two_state):
        _, om = _full(two_state(0.4, 0.3))
        report = resistance.metric_check(om)
        assert report.triangle_holds
        assert report.worst_triple is None


def ref_metric_check(w, *, tol=DEFAULT):
    """The triangle scan with two n^3 temporaries, as it was."""
    n = w.shape[0]
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool(w.min() >= 0.0) and bool((w[off] > 0.0).all())
    symmetric = bool(np.array_equal(w, w.T))
    if n < 3:
        return resistance.MetricReport(nonnegative, symmetric, True, None, 0.0)
    viol = w[:, None, :] - w[:, :, None] - w[None, :, :]
    d = np.arange(n)
    viol[d, d, :] = viol[:, d, d] = viol[d, :, d] = -np.inf
    flat = int(np.argmax(viol))
    worst = float(viol.reshape(-1)[flat])
    i, k, j = np.unravel_index(flat, viol.shape)
    return resistance.MetricReport(
        nonnegative=nonnegative,
        symmetric=symmetric,
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
        _, om = _full(mat)
        root = resistance.resistance_matrix(np.sqrt(om))
        for w in (om, root):
            assert resistance.metric_check(w) == ref_metric_check(w), name


def ref_make_sum_rule_pair(n, seed, *, tol=DEFAULT):
    """One 2-D pair built on its own, as it was before pairs were stacked."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    a = b + b.T
    r = a.sum(axis=1)
    total = a.sum()
    a = a - r[:, None] / n - r[None, :] / n + total / n**2
    m = rng.standard_normal((n, n))
    m = m + np.diag(np.abs(m).sum(axis=1) + 1.0)
    return resistance.SumRulePair(M=m, K=np.eye(n) + linalg.lu_solve(m, a, tol=tol))


def ref_sum_rule(pair, omega, F, *, tol=DEFAULT):
    """Both sides for one 2-D pair, as it was before pairs were stacked."""
    n = len(omega)
    M, K = pair.M, pair.K
    row_dev = np.abs(K.sum(axis=1) - 1.0).max()
    if row_dev > tol.pair_hypothesis:
        raise HypothesisViolatedError(f"K row sums deviate from 1 by {row_dev:.3e}")
    A = M @ (K - np.eye(n))
    asym = np.abs(A - A.T).max()
    if asym > tol.pair_hypothesis:
        raise HypothesisViolatedError(f"M(K - I) asymmetric by {asym:.3e}")
    return float((A * omega).sum()), float(2.0 * np.trace(M @ (np.eye(n) - K) @ F))


STACK_SIZES = (2, 3, 4, 8, 9, 17, 33, 64)


class TestSumRule:
    def test_stationary_pair_equals_multiplicative_index(self, ce):
        analysis, om = _full(ce.chain)
        pair = resistance.SumRulePair(M=np.diag(analysis.pi), K=analysis.Pi)
        lhs, rhs = resistance.sum_rule(pair, om, analysis.F)
        pi = analysis.pi
        direct = sum(
            pi[i] * pi[j] * om[i, j] for i in range(3) for j in range(3)
        )
        trace_form = 2.0 * (pi @ np.diag(analysis.F) - pi @ pi)
        assert abs(lhs - direct) < 1e-12
        assert abs(rhs - trace_form) < 1e-12
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(lhs))

    def test_identity_pair_is_zero(self, ce):
        analysis, om = _full(ce.chain)
        pair = resistance.SumRulePair(M=np.diag(analysis.pi), K=np.eye(3))
        lhs, rhs = resistance.sum_rule(pair, om, analysis.F)
        assert lhs == 0.0
        assert abs(rhs) < 1e-14

    def test_random_pairs_identity(self):
        for seed in range(3):
            mat = chain.generate_random_chain(6 + seed, "ergodic", seed)
            analysis, om = _full(mat)
            for k in range(200):
                pair = resistance.make_sum_rule_pair(mat.n, 1000 * seed + k)
                lhs, rhs = resistance.sum_rule(pair, om, analysis.F)
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_row_sum_hypothesis_enforced(self, ce):
        analysis, om = _full(ce.chain)
        bad = resistance.SumRulePair(M=np.diag(analysis.pi), K=2.0 * np.eye(3))
        with pytest.raises(HypothesisViolatedError):
            resistance.sum_rule(bad, om, analysis.F)

    def test_symmetry_hypothesis_enforced(self, ce):
        analysis, om = _full(ce.chain)
        # K = P has unit row sums, but diag(1) P - diag(1) is not symmetric
        bad = resistance.SumRulePair(M=np.eye(3), K=ce.chain.P)
        with pytest.raises(HypothesisViolatedError):
            resistance.sum_rule(bad, om, analysis.F)

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_stack_matches_one_at_a_time(self, n):
        mat = chain.generate_random_chain(n, "ergodic", n)
        analysis, om = _full(mat)
        seeds = range(100 * n, 100 * n + 12)
        lhs, rhs = resistance.sum_rule(
            resistance.make_sum_rule_pair(n, seeds), om, analysis.F
        )
        assert lhs.shape == rhs.shape == (12,)
        for t, seed in enumerate(seeds):
            ref = ref_sum_rule(ref_make_sum_rule_pair(n, seed), om, analysis.F)
            assert (lhs[t], rhs[t]) == ref
            assert resistance.sum_rule(resistance.make_sum_rule_pair(n, seed), om, analysis.F) == ref

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
        analysis, om = _full(ce.chain)
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
        pair = resistance.SumRulePair(M=np.stack([np.eye(3)] * len(Ks)), K=np.stack(Ks))
        with pytest.raises(HypothesisViolatedError, match=re.escape(message)):
            resistance.sum_rule(pair, om, analysis.F)

    def test_empty_stack(self, ce):
        analysis, om = _full(ce.chain)
        pair = resistance.make_sum_rule_pair(3, [])
        assert pair.M.shape == pair.K.shape == (0, 3, 3)
        lhs, rhs = resistance.sum_rule(pair, om, analysis.F)
        assert lhs.shape == rhs.shape == (0,)
        lhs, rhs = cli._random_pair_sides(3, range(5, 5), om, analysis.F, DEFAULT)
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
        analysis, om = _full(mat)
        tol = DEFAULT.override(pivot=pivot, pair_hypothesis=pair_hypothesis)
        expected = []
        try:
            for seed in range(40):
                pair = ref_make_sum_rule_pair(3, seed, tol=tol)
                expected.append(ref_sum_rule(pair, om, analysis.F, tol=tol))
        except MRDistError as exc:
            expected = (type(exc), str(exc))
        try:
            lhs, rhs = cli._random_pair_sides(3, range(40), om, analysis.F, tol)
        except MRDistError as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert list(zip(lhs.tolist(), rhs.tolist())) == expected


class TestMakeSumRulePair:
    def test_invariants_over_seeds(self):
        for seed in range(50):
            n = 2 + seed % 9
            pair = resistance.make_sum_rule_pair(n, seed)
            assert np.abs(pair.K.sum(axis=1) - 1.0).max() < 1e-10
            a = pair.M @ (pair.K - np.eye(n))
            assert np.abs(a - a.T).max() < 1e-10

    def test_deterministic(self):
        first = resistance.make_sum_rule_pair(5, 77)
        second = resistance.make_sum_rule_pair(5, 77)
        assert np.array_equal(first.M, second.M)
        assert np.array_equal(first.K, second.K)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            resistance.make_sum_rule_pair(1, 0)

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_stack_matches_one_at_a_time(self, n):
        seeds = range(100 * n, 100 * n + 12)
        pair = resistance.make_sum_rule_pair(n, seeds)
        assert pair.M.shape == pair.K.shape == (12, n, n)
        for t, seed in enumerate(seeds):
            ref = ref_make_sum_rule_pair(n, seed)
            assert np.array_equal(pair.M[t], ref.M) and np.array_equal(pair.K[t], ref.K)
            one = resistance.make_sum_rule_pair(n, seed)
            assert np.array_equal(one.M, ref.M) and np.array_equal(one.K, ref.K)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_pivot_of_m_is_at_least_one(self, n):
        # M is strictly row diagonally dominant with margins >= 1, so no
        # pivot comes near the default threshold
        _, m = resistance._pair_inputs(n, range(2000))
        smallest = min(np.abs(np.diag(linalg.dgetrf(m_t)[0])).min() for m_t in m)
        assert smallest >= 1.0

    def test_rejected_pivot_raises_lu_solves_error(self):
        # at pivot 2.0 the M of seed 1 is the first of the stack to fail
        tol = DEFAULT.override(pivot=2.0)
        _, m = resistance._pair_inputs(3, [1])
        with pytest.raises(SingularMatrixError) as expected:
            linalg.lu_solve(m[0], np.eye(3), tol=tol)
        assert str(expected.value).startswith("pivot magnitude ")
        for seeds in (range(12), 1):
            with pytest.raises(SingularMatrixError) as info:
                resistance.make_sum_rule_pair(3, seeds, tol=tol)
            assert str(info.value) == str(expected.value)


class TestKirchhoffIndices:
    def test_symmetric_two_state(self, two_state):
        analysis, om = _full(two_state(0.5, 0.5))
        report = resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)
        assert abs(report.kirchhoff - 4.0) < 1e-12          # 2 * n * t_av, t_av = 1
        assert abs(report.kirchhoff - 2 * 2 * analysis.t_av) < 1e-12
        assert abs(report.multiplicative - 1.0) < 1e-12     # 2 * (1/4) * 2
        assert abs(report.additive - 4.0) < 1e-12           # (1/2 + 1/2) * 2 * 2

    def test_identity_against_kemeny(self):
        for seed in range(4):
            mat = chain.generate_random_chain(10, "reversible", seed)
            analysis, om = _full(mat)
            report = resistance.kirchhoff_indices(om, analysis.pi, analysis.t_av)
            assert abs(report.kirchhoff - 2 * mat.n * analysis.t_av) < 1e-8
            trace_form = 2.0 * (analysis.pi @ np.diag(analysis.F) - analysis.pi @ analysis.pi)
            assert abs(report.multiplicative - trace_form) < 1e-9
            assert report.additive >= report.additive_lower - 1e-9
            assert report.additive <= report.additive_upper + 1e-9


class TestFoster:
    def test_symmetric_two_state_m1(self, two_state):
        mat = two_state(0.5, 0.5)
        analysis, om = _full(mat)
        lhs, rhs = resistance.foster_sum(mat, om, 1, analysis)
        assert abs(lhs - rhs) < 1e-12
        # doubly stochastic: edge sum gives the Foster constant 2(n - 1)
        assert abs(resistance.foster_first_formula(mat, om) - 2.0) < 1e-12
        assert abs(mat.n * lhs - 2.0) < 1e-12

    def test_counterexample_trace_identity(self, ce):
        analysis, om = _full(ce.chain)
        for m in (1, 2, 3):
            lhs, rhs = resistance.foster_sum(ce.chain, om, m, analysis)
            assert abs(lhs - rhs) < 1e-8

    def test_reversible_chains(self):
        for seed in range(5):
            mat = chain.generate_random_chain(7, "reversible", seed)
            analysis, om = _full(mat)
            for m in (1, 2, 3):
                lhs, rhs = resistance.foster_sum(mat, om, m, analysis)
                assert abs(lhs - rhs) < 1e-8

    def test_symmetrized_doubly_stochastic_first_formula(self):
        for seed in range(5):
            base = chain.generate_random_chain(9, "doubly_stochastic", seed)
            mat = chain.validate(0.5 * (base.P + base.P.T))
            analysis, om = _full(mat)
            value = resistance.foster_first_formula(mat, om)
            assert abs(value - 2.0 * (mat.n - 1)) < 1e-8

    def test_non_reversible_rejected(self):
        mat = chain.generate_random_chain(6, "ergodic", 8)
        analysis, om = _full(mat)
        with pytest.raises(NotReversibleError):
            resistance.foster_sum(mat, om, 1, analysis)

    def test_bad_power_rejected(self, ce):
        analysis, om = _full(ce.chain)
        with pytest.raises(ValueError):
            resistance.foster_sum(ce.chain, om, 0, analysis)


class TestBirthDeathViolation:
    def test_light_middle_state_breaks_triangle(self):
        # 3-state birth-death chains whose middle state has the least
        # stationary mass always violate the triangle inequality
        found = 0
        for seed in range(40):
            mat = chain.generate_random_chain(3, "birth_death", seed)
            analysis, w = _full(mat)
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
