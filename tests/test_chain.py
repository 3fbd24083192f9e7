import math
import re
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrdist import chain, forest, linalg, simulate
from mrdist.errors import (
    NegativeEntryError,
    NonFiniteEntryError,
    NotErgodicError,
    NotSquareError,
    RowSumOutOfToleranceError,
    SingularMatrixError,
)
from mrdist.tolerances import DEFAULT

from conftest import CE_H, CE_PI, CE_T_AV


class TestValidate:
    def test_valid_matrix(self):
        mat = chain.validate([[0.9, 0.1], [0.5, 0.5]])
        assert mat.n == 2
        assert_allclose(mat.P.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-15)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            chain.validate([[1.0, -0.1], [0.5, 0.6]])

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            chain.validate([[0.5, 0.5]])

    def test_row_sum_out_of_tolerance(self):
        with pytest.raises(RowSumOutOfToleranceError):
            chain.validate([[0.9, 0.3], [0.5, 0.5]])

    def test_small_row_deviation_renormalized(self):
        mat = chain.validate([[0.5, 0.5 + 5e-7], [0.25, 0.75]])
        assert_allclose(mat.P.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            chain.validate([[np.nan, 1.0], [0.5, 0.5]])

    def test_counterexample_valid(self, ce):
        assert ce.chain.n == 3
        assert ce.chain.state_labels == ("1", "2", "3")

    def test_result_is_readonly(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            mat.P[0, 0] = 1.0

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            chain.validate([[0.5, 0.5], [0.5, 0.5]], state_labels=("a",))


class TestErgodicity:
    def test_two_cycle_is_periodic(self):
        rep = chain.check_ergodicity(chain.validate([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.strongly_connected
        assert rep.period == 2
        assert not rep.is_ergodic
        assert rep.is_reversible is None

    def test_verdict_not_stale_after_caller_writes(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = chain.StochasticMatrix(P)
        assert not m.is_ergodic
        P[:] = 0.5
        # m holds its own read-only copy, so the cached verdict still fits it
        assert np.array_equal(m.P, [[0.0, 1.0], [1.0, 0.0]])
        assert not m.P.flags.writeable
        assert not m.is_ergodic
        with pytest.raises(NotErgodicError):
            chain.stationary(m)

    def test_frozen_matrix_not_copied(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        assert chain.StochasticMatrix(mat.P).P is mat.P

    def test_counterexample(self, ce):
        rep = chain.check_ergodicity(ce.chain)
        assert rep.is_ergodic
        assert rep.is_reversible is True
        assert not rep.is_doubly_stochastic

    def test_uniform_two_state(self):
        rep = chain.check_ergodicity(chain.validate([[0.5, 0.5], [0.5, 0.5]]))
        assert rep.is_ergodic
        assert rep.is_doubly_stochastic
        assert rep.is_reversible is True

    def test_reducible_identity(self):
        rep = chain.check_ergodicity(chain.validate([[1.0, 0.0], [0.0, 1.0]]))
        assert not rep.strongly_connected
        assert not rep.is_ergodic

    def test_longer_period(self):
        cycle = np.roll(np.eye(4), 1, axis=1)
        rep = chain.check_ergodicity(chain.validate(cycle))
        assert rep.strongly_connected
        assert rep.period == 4

    @pytest.mark.parametrize(
        "rows, verdict",
        [([[0.0, 1.0], [1.0, 0.0]], "strongly_connected=True, period=2"),
         ([[1.0, 0.0], [0.0, 1.0]], "strongly_connected=False, period=1")],
        ids=["period_2", "reducible"],
    )
    def test_every_guard_names_the_graph_verdict(self, rows, verdict):
        mat = chain.validate(rows)
        message = f"^chain is not ergodic \\({verdict}\\)$"
        calls = [
            lambda: chain.stationary(mat),
            lambda: chain.hitting_times_oracle(mat),
            lambda: chain.analyze(mat),
            lambda: forest.enumerate_forests(mat),
            lambda: simulate.simulate_hitting(mat, 0, 1, simulate.SimConfig(seed=0, replicas=100)),
        ]
        for call in calls:
            with pytest.raises(NotErgodicError, match=message):
                call()

    @pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
    def test_analyze_builds_its_report_from_its_own_pi(self, monkeypatch, kind):
        mat = chain.generate_random_chain(6, kind, 2)
        expected = chain.check_ergodicity(mat)
        calls = []
        for name in ("_stationary_solve", "check_ergodicity"):
            fn = getattr(chain, name)
            monkeypatch.setattr(
                chain, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
            )
        assert chain.analyze(mat).ergodicity == expected
        assert calls == ["_stationary_solve", "check_ergodicity"]


def reference_graph_verdict(P: np.ndarray) -> tuple[bool, int]:
    """(strongly connected, period) by a queue BFS over successor lists,
    one state at a time, with the period as a running ``math.gcd``."""
    n = P.shape[0]

    def successors(a):
        return [np.nonzero(a[i] > 0.0)[0] for i in range(n)]

    def levels(adj):
        level = [-1] * n
        level[0] = 0
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if level[j] < 0:
                    level[j] = level[i] + 1
                    queue.append(int(j))
        return level

    adj = successors(P)
    level = levels(adj)
    strongly_connected = min(level) >= 0 and min(levels(successors(P.T))) >= 0
    g = 0
    for i in range(n):
        if level[i] < 0:
            continue
        for j in adj[i]:
            if level[j] >= 0:
                g = math.gcd(g, level[i] + 1 - level[j])
    return strongly_connected, g if g > 0 else 1


def _digraph_chains():
    """Row-normalised arc matrices: random digraphs of every density, cycles
    of one and of two lengths through a shared state, bipartite digraphs, and
    block-triangular digraphs that are not strongly connected."""
    rng = np.random.default_rng(2024)
    graphs = []
    for _ in range(600):
        n = int(rng.integers(1, 12))
        graphs.append(rng.random((n, n)) < rng.uniform(0.05, 0.7))
    for n in range(1, 10):
        graphs.append(np.roll(np.eye(n, dtype=bool), 1, axis=1))
    for a, b in [(2, 4), (3, 6), (4, 6), (3, 5), (6, 9), (4, 10)]:
        n = a + b - 1
        arcs = np.zeros((n, n), dtype=bool)
        for cycle in (list(range(a)), [0] + list(range(a, n))):
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                arcs[u, v] = True
        perm = rng.permutation(n)
        graphs.append(arcs[np.ix_(perm, perm)])
    for _ in range(100):
        n = int(rng.integers(2, 12))
        side = rng.random(n) < 0.5
        arcs = (rng.random((n, n)) < rng.uniform(0.2, 0.9)) & (side[:, None] != side)
        graphs.append(arcs)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        arcs = rng.random((n, n)) < 0.5
        cut = int(rng.integers(1, n))
        arcs[cut:, :cut] = False  # no way back from the upper block
        perm = rng.permutation(n)
        graphs.append(arcs[np.ix_(perm, perm)])
    for arcs in graphs:
        arcs = arcs.copy()
        for i in np.flatnonzero(~arcs.any(axis=1)):  # every row needs an arc
            arcs[i, rng.integers(arcs.shape[0])] = True
        yield arcs / arcs.sum(axis=1, keepdims=True)


def test_graph_verdict_matches_reference_bfs():
    verdicts = []
    for P in _digraph_chains():
        verdict = chain.StochasticMatrix(P).graph_verdict
        assert verdict == reference_graph_verdict(P), P
        assert type(verdict[1]) is int
        verdicts.append(verdict)
    # the families reach every kind of verdict
    assert any(sc and period == 1 for sc, period in verdicts)
    assert any(sc and period > 2 for sc, period in verdicts)
    assert sum(sc and period == 2 for sc, period in verdicts) >= 20
    assert sum(not sc for sc, _ in verdicts) >= 100


class TestStationary:
    def test_symmetric_two_state(self):
        pi = chain.stationary(chain.validate([[0.5, 0.5], [0.5, 0.5]]))
        assert_allclose(pi, [0.5, 0.5], rtol=0, atol=0)

    def test_counterexample_exact(self, ce):
        assert_allclose(chain.stationary(ce.chain), CE_PI, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.3, 0.1), (0.7, 0.7), (0.05, 0.9)])
    def test_two_state_closed_form(self, two_state, a, b):
        # balance equation: pi_1 a = pi_2 b
        pi = chain.stationary(two_state(a, b))
        assert_allclose(pi, [b / (a + b), a / (a + b)], atol=1e-14)

    def test_not_ergodic_raises(self):
        with pytest.raises(NotErgodicError):
            chain.stationary(chain.validate([[0.0, 1.0], [1.0, 0.0]]))


class TestFundamentalMatrix:
    def test_rank_one_chain_gives_identity(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        pi = chain.stationary(mat)
        assert_allclose(chain.fundamental_matrix(mat, pi), np.eye(2), atol=1e-14)

    def test_counterexample_trace(self, ce):
        pi = chain.stationary(ce.chain)
        f = chain.fundamental_matrix(ce.chain, pi)
        assert abs(np.trace(f) - (1.0 + CE_T_AV)) < 1e-10
        assert_allclose(f.sum(axis=1), np.ones(3), rtol=0, atol=1e-9)
        n = ce.chain.n
        residual = f @ (np.eye(n) - ce.chain.P + np.tile(pi, (n, 1))) - np.eye(n)
        assert np.abs(residual).max() < 1e-9

    def test_fortran_order_of_dgetrs_is_kept(self, ce):
        # H inherits F's order, and H @ pi (t_av, random_target_spread) rounds
        # along another BLAS path for a C-ordered H
        pi = chain.stationary(ce.chain)
        f = chain.fundamental_matrix(ce.chain, pi)
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        assert chain.hitting_times(f, pi).flags.f_contiguous


class TestGroupInverse:
    def test_rank_one_chain(self):
        mat = chain.validate([[0.5, 0.5], [0.5, 0.5]])
        analysis = chain.analyze(mat)
        assert_allclose(analysis.D, np.eye(2) - analysis.Pi, atol=1e-14)

    def test_axioms_and_projections(self, ce):
        analysis = chain.analyze(ce.chain)
        d = analysis.D
        ip = np.eye(3) - ce.chain.P
        assert np.abs(ip @ d @ ip - ip).max() < 1e-8
        assert np.abs(d @ ip @ d - d).max() < 1e-8
        assert np.abs(ip @ d - d @ ip).max() < 1e-8
        assert np.abs(d.sum(axis=1)).max() < 1e-9
        assert np.abs(analysis.Pi @ d).max() < 1e-9

    def test_power_series_limit(self, two_state):
        # P^n - Pi decays like (1 - a - b)^n; partial sums approach D
        mat = two_state(0.4, 0.4)
        analysis = chain.analyze(mat)
        partial = np.zeros((2, 2))
        power = np.eye(2)
        for _ in range(26):
            partial += power - analysis.Pi
            power = power @ mat.P
        assert np.abs(partial - analysis.D).max() < 1e-10

    def test_power_series_limit_random_chain(self):
        mat = chain.generate_random_chain(5, "ergodic", 11)
        analysis = chain.analyze(mat)
        partial = np.zeros((5, 5))
        power = np.eye(5)
        for _ in range(200):
            partial += power - analysis.Pi
            power = power @ mat.P
        assert np.abs(partial - analysis.D).max() < 1e-10


class TestHittingTimes:
    def test_diagonal_exactly_zero(self):
        mat = chain.generate_random_chain(7, "ergodic", 0)
        analysis = chain.analyze(mat)
        assert (np.diag(analysis.H) == 0.0).all()
        off = analysis.H[~np.eye(7, dtype=bool)]
        assert (off > 0).all()

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.1), (0.9, 0.2)])
    def test_two_state_closed_form(self, two_state, a, b):
        analysis = chain.analyze(two_state(a, b))
        assert_allclose(analysis.H, [[0.0, 1.0 / a], [1.0 / b, 0.0]], atol=1e-12)

    def test_counterexample_frozen(self, ce):
        analysis = chain.analyze(ce.chain)
        assert_allclose(analysis.H, CE_H, rtol=0, atol=1e-11)

    def test_matches_oracle(self, ce):
        analysis = chain.analyze(ce.chain)
        oracle = chain.hitting_times_oracle(ce.chain)
        assert np.abs(analysis.H - oracle).max() < 1e-8


class TestHittingTimesOracle:
    def test_symmetric_two_state(self, two_state):
        oracle = chain.hitting_times_oracle(two_state(0.5, 0.5))
        assert_allclose(oracle, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)

    def test_offdiagonal_at_least_one(self):
        oracle = chain.hitting_times_oracle(chain.generate_random_chain(5, "ergodic", 9))
        assert (oracle[~np.eye(5, dtype=bool)] >= 1.0).all()

    def test_requires_ergodic(self):
        with pytest.raises(NotErgodicError):
            chain.hitting_times_oracle(chain.validate([[0.0, 1.0], [1.0, 0.0]]))


def ref_hitting_times_oracle(mat, *, tol=DEFAULT):
    """One lu_solve per target on its own slice of P, as the oracle was."""
    P, n = mat.P, mat.n
    H = np.zeros((n, n))
    for j in range(n):
        keep = [i for i in range(n) if i != j]
        sub = P[np.ix_(keep, keep)]
        H[keep, j] = linalg.lu_solve(np.eye(n - 1) - sub, np.ones(n - 1), tol=tol)
    return H


class TestStackedOracle:
    """The stacked oracle against the per-target loop it replaced."""

    @pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 32, 64])
    def test_bit_identical_to_per_target_loop(self, kind, n):
        for seed in (0, 1):
            mat = chain.generate_random_chain(n, kind, seed)
            H = chain.hitting_times_oracle(mat)
            assert H.tobytes() == ref_hitting_times_oracle(mat).tobytes(), seed

    def test_one_state_chain(self):
        H = chain.hitting_times_oracle(chain.validate([[1.0]]))
        assert H.shape == (1, 1) and H[0, 0] == 0.0

    @pytest.mark.parametrize("pivot", [0.45, 0.6, 2.0])
    def test_pivot_threshold_raises_as_per_target_loop(self, pivot):
        # --tolerance pivot=<large>: the same target fails first, with the
        # same message; a threshold no pivot falls under changes nothing
        tol = DEFAULT.override(pivot=pivot)
        raised = 0
        for seed in range(4):
            mat = chain.generate_random_chain(9, "ergodic", seed)
            try:
                ref = ref_hitting_times_oracle(mat, tol=tol)
            except SingularMatrixError as exc:
                raised += 1
                with pytest.raises(SingularMatrixError, match=f"^{re.escape(str(exc))}$"):
                    chain.hitting_times_oracle(mat, tol=tol)
            else:
                assert chain.hitting_times_oracle(mat, tol=tol).tobytes() == ref.tobytes()
        assert raised


class TestKemenyConstant:
    def test_symmetric_two_state(self, two_state):
        analysis = chain.analyze(two_state(0.5, 0.5))
        assert abs(analysis.t_av - 1.0) < 1e-14

    def test_equals_group_inverse_trace(self):
        for seed in range(4):
            analysis = chain.analyze(chain.generate_random_chain(8, "ergodic", seed))
            assert abs(analysis.t_av - np.trace(analysis.D)) < 1e-10

    def test_counterexample_eigentime(self, ce):
        analysis = chain.analyze(ce.chain)
        assert abs(analysis.t_av - CE_T_AV) < 1e-11
        eigs = linalg.eigenvalues(ce.chain.P)
        assert abs(chain.eigentime_constant(eigs) - analysis.t_av) < 1e-6

    @pytest.mark.parametrize("eps", [0.5, 0.25, 1e-3])
    def test_eigentime_of_a_rotating_three_cycle(self, eps):
        # P = (1 - eps) I + eps C has eigenvalues 1 and 1 - eps + eps w for
        # the two non-real cube roots w of 1, so the sum is exactly 1 / eps
        P = (1.0 - eps) * np.eye(3) + eps * np.roll(np.eye(3), 1, axis=1)
        eigs = linalg.eigenvalues(P)
        assert (eigs.imag != 0).sum() == 2
        assert chain.eigentime_constant(eigs) == pytest.approx(1.0 / eps, rel=1e-12)

    def test_eigentime_of_one_state_is_zero(self):
        assert chain.eigentime_constant(np.array([1.0 + 0.0j])) == 0.0

    def test_corrupt_hitting_matrix_is_left_to_the_report(self, ce):
        # analyze's random_target_spread check judges how far the rows spread
        analysis = chain.analyze(ce.chain)
        bad = analysis.H.copy()
        bad[0, 1] += 1.0
        assert chain.kemeny_constant(bad, analysis.pi) == (bad @ analysis.pi)[0]


class TestGenerators:
    def test_deterministic_per_seed(self):
        for kind in chain.CHAIN_KINDS:
            first = chain.generate_random_chain(6, kind, 123)
            second = chain.generate_random_chain(6, kind, 123)
            assert np.array_equal(first.P, second.P)

    def test_distinct_seeds_differ(self):
        a = chain.generate_random_chain(6, "ergodic", 1)
        b = chain.generate_random_chain(6, "ergodic", 2)
        assert not np.array_equal(a.P, b.P)

    def test_doubly_stochastic_column_sums(self):
        for seed in range(5):
            mat = chain.generate_random_chain(10, "doubly_stochastic", seed)
            assert np.abs(mat.P.sum(axis=0) - 1.0).max() < 1e-9

    def test_reversible_detailed_balance(self):
        for seed in range(5):
            mat = chain.generate_random_chain(9, "reversible", seed)
            pi = chain.stationary(mat)
            flow = pi[:, None] * mat.P
            assert np.abs(flow - flow.T).max() < 1e-9

    def test_birth_death_tridiagonal(self):
        mat = chain.generate_random_chain(8, "birth_death", 4)
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 1:
                    assert mat.P[i, j] == 0.0
        assert chain.check_ergodicity(mat).is_ergodic

    def test_ergodic_kind_is_ergodic(self):
        for seed in range(3):
            mat = chain.generate_random_chain(4, "ergodic", seed)
            assert chain.check_ergodicity(mat).is_ergodic

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            chain.generate_random_chain(1, "ergodic", 0)
        with pytest.raises(ValueError):
            chain.generate_random_chain(65, "ergodic", 0)
        with pytest.raises(ValueError):
            chain.generate_random_chain(4, "uniformish", 0)


@pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_invariant_suite(kind, n, seed):
    """Structural identities that every generated chain must satisfy."""
    mat = chain.generate_random_chain(n, kind, seed)
    analysis = chain.analyze(mat)
    P, pi, Pi, F, D, H = mat.P, analysis.pi, analysis.Pi, analysis.F, analysis.D, analysis.H

    assert np.abs(pi @ P - pi).max() <= 1e-10
    assert (pi > 0).all()
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(F.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(D.sum(axis=1)).max() <= 1e-9
    assert np.abs(Pi @ F - Pi).max() <= 1e-9
    assert np.abs(Pi @ D).max() <= 1e-9
    assert np.abs(F - (Pi + D)).max() <= 1e-10

    ip = np.eye(n) - P
    assert np.abs(ip @ D @ ip - ip).max() <= 1e-8
    assert np.abs(D @ ip @ D - D).max() <= 1e-8
    assert np.abs(ip @ D - D @ ip).max() <= 1e-8

    oracle = chain.hitting_times_oracle(mat)
    assert np.abs(H - oracle).max() <= 1e-8

    per_start = H @ pi
    assert per_start.max() - per_start.min() <= 1e-8
    assert abs(per_start[0] - analysis.t_av) == 0.0

    eigs = linalg.eigenvalues(P)
    assert abs(chain.eigentime_constant(eigs) - analysis.t_av) <= 1e-6

    if kind == "doubly_stochastic":
        assert np.abs(pi - 1.0 / n).max() <= 1e-8
