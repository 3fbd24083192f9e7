import ast
import inspect
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrdist import chain, forest, resistance
from mrdist.errors import NotErgodicError, TooLargeError

_UNASSIGNED = -2
_ROOT = -1


def brute_force_forests(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-tree weights q and 2-tree forest weights f by literal enumeration.

    Each state is a root or selects one outgoing arc to a different state;
    a backtracking walk over these choice vectors prunes any branch that
    closes a cycle or commits to a third root, and accumulates the weight of
    every 1- and 2-root assignment. Arc weights are scaled to integers over
    one power of two, so the sums are exact and each weight is rounded to a
    float once. Exponential time: meant for n <= 6.
    """
    n = P.shape[0]
    den = max(Fraction(p).denominator for p in P.flat)
    arcs = [
        [(k, int(Fraction(P[i, k]) * den)) for k in range(n) if k != i and P[i, k] > 0.0]
        for i in range(n)
    ]
    succ = [_UNASSIGNED] * n
    q = [0] * n
    f = [[0] * n for _ in range(n)]

    def closes_cycle(start: int, first: int) -> bool:
        # states are assigned in index order, so the walk stays in decided
        # territory until it falls off into an unassigned or root state
        v = first
        while True:
            if v == start:
                return True
            v = succ[v]
            if v < 0:
                return False

    def record(weight: int) -> None:
        roots = [v for v in range(n) if succ[v] == _ROOT]
        if len(roots) == 1:
            q[roots[0]] += weight
        elif len(roots) == 2:
            r0, r1 = roots
            for v in range(n):
                u = v
                while succ[u] >= 0:
                    u = succ[u]
                f[v][r1 if u == r0 else r0] += weight

    def descend(i: int, n_roots: int, weight: int) -> None:
        if i == n:
            record(weight)
            return
        if n_roots < 2:  # a third root can no longer contribute
            succ[i] = _ROOT
            descend(i + 1, n_roots + 1, weight)
        for k, a in arcs[i]:
            if not closes_cycle(i, k):
                succ[i] = k
                descend(i + 1, n_roots, weight * a)
        succ[i] = _UNASSIGNED

    descend(0, 0, 1)
    # a tree has n - 1 arcs and a 2-tree forest n - 2
    q_scale, f_scale = den ** (n - 1), den ** max(n - 2, 0)
    return (
        np.array([w / q_scale for w in q]),
        np.array([[w / f_scale for w in row] for row in f]),
    )


def assert_matches_brute_force(mat: chain.StochasticMatrix) -> None:
    # both sides round the same exact rational once, so they agree bit for
    # bit, well inside 4 ulps; the float enumerator this reference replaced
    # strayed up to 21 ulps from the exact weights at n = 6
    fw = forest.enumerate_forests(mat)
    q, f = brute_force_forests(mat.P)
    assert np.array_equal(fw.q_roots, q)
    assert np.array_equal(fw.f, f)


def scaled_laplacian(P: np.ndarray) -> tuple[list[list[int]], int]:
    """L = diag(off-diagonal row mass) - (off-diagonal part of P), times den,
    the common power-of-two denominator of the off-diagonal entries."""
    n = P.shape[0]
    den = max(Fraction(P[i, k]).denominator for i in range(n) for k in range(n) if k != i)
    A = [[int(Fraction(P[i, k]) * den) if k != i else 0 for k in range(n)] for i in range(n)]
    L = [[sum(row) if k == i else -a for k, a in enumerate(row)] for i, row in enumerate(A)]
    return L, den


def per_root_elimination(P: np.ndarray) -> tuple[list[int], list[list[int]], int]:
    """Exact q and f over den**(n - 1) and den**(n - 2), one elimination per root.

    The all-minors matrix-tree theorem root by root: with L_{-j} the scaled
    Laplacian without row and column j, q_j = det(L_{-j}) and
    f[:, j] = adj(L_{-j}) 1 (rows other than j). O(n^4); a second exact
    reference, independent of the bordered-Laplacian identities.
    """
    L, den = scaled_laplacian(P)
    n = len(L)
    q, f = [], [[0] * n for _ in range(n)]
    for j in range(n):
        others = [s for s in range(n) if s != j]
        det, adj_sum = _det_and_adjugate_sum([[L[r][c] for c in others] for r in others])
        q.append(det)
        for i, y in zip(others, adj_sum):
            f[i][j] = y
    return q, f, den


def _det_and_adjugate_sum(M: list[list[int]]) -> tuple[int, list[int]]:
    """det(M) and adj(M) 1 of a nonsingular M-matrix of Python integers.

    Bareiss elimination of [M | 1] without pivoting: after step k, row i > k
    holds (k + 2)-order minors of M, so each division by the previous pivot
    is exact. Back-substitution then yields y = det(M) M^{-1} 1, whose
    entries are integers by Cramer's rule, so its divisions are exact too.
    """
    m = len(M)
    rows = [row + [1] for row in M]
    prev = 1
    for k in range(m):
        row_k = rows[k]
        pivot, tail_k = row_k[k], row_k[k + 1:]
        for row_i in rows[k + 1:]:
            factor = row_i[k]
            row_i[k + 1:] = [
                (pivot * a - factor * b) // prev for a, b in zip(row_i[k + 1:], tail_k)
            ]
        prev = pivot
    det = prev
    y = [0] * m
    for i in reversed(range(m)):
        row_i = rows[i]
        acc = det * row_i[m] - sum(row_i[c] * y[c] for c in range(i + 1, m))
        y[i] = acc // row_i[i]
    return det, y


class TestTwoStateByHand:
    """Only three acyclic assignments exist for two states: {2->1}, {1->2}
    and the empty two-singleton forest."""

    def test_tree_weights(self, two_state):
        fw = forest.enumerate_forests(two_state(0.3, 0.4))
        assert_allclose(fw.q_roots, [0.4, 0.3], rtol=0, atol=0)
        assert fw.q_total == pytest.approx(0.7, abs=1e-15)
        assert_allclose(fw.f, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=0)

    def test_omega_matches_closed_form(self, two_state):
        fw = forest.enumerate_forests(two_state(0.3, 0.4))
        om = forest.omega_from_forest(fw)
        assert abs(om[0, 1] - 2.0 / 0.7) < 1e-12

    def test_hitting_recovery(self, two_state):
        fw = forest.enumerate_forests(two_state(0.3, 0.4))
        assert_allclose(
            forest.hitting_from_forest(fw),
            [[0.0, 1.0 / 0.3], [1.0 / 0.4, 0.0]],
            atol=1e-12,
        )


@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
def test_omega_is_read_only_symmetric_zero_diagonal(kind, n):
    fw = forest.enumerate_forests(chain.generate_random_chain(n, kind, 0), max_n=16)
    om = forest.omega_from_forest(fw)
    assert type(om) is np.ndarray and om.shape == (n, n)
    assert not om.flags.writeable
    assert np.array_equal(om, om.T)
    assert (np.diag(om) == 0.0).all()


class TestCounterexample:
    def test_weights_and_values(self, ce):
        fw = forest.enumerate_forests(ce.chain)
        # in-trees by hand: e.g. rooted at 1 the only tree is 3->2->1 with
        # weight 0.1 * 0.5; rooted at 2 both neighbours step inward
        assert_allclose(fw.q_roots, [0.05, 0.01, 0.05], rtol=0, atol=1e-16)
        assert_allclose(forest.stationary_from_forest(fw), ce.pi, atol=1e-12)
        assert_allclose(forest.hitting_from_forest(fw), ce.H, atol=1e-11)
        om = forest.omega_from_forest(fw)
        assert abs(om[0, 2] - 20.0) < 1e-9
        assert_allclose(om, ce.omega, atol=1e-9)

    def test_diagonal_of_f_is_zero(self, ce):
        fw = forest.enumerate_forests(ce.chain)
        assert (np.diag(fw.f) == 0.0).all()


class TestAgainstLinearAlgebra:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_chains(self, seed):
        n = 2 + seed % 5
        mat = chain.generate_random_chain(n, "ergodic", seed)
        analysis = chain.analyze(mat)
        fw = forest.enumerate_forests(mat)
        assert np.abs(forest.stationary_from_forest(fw) - analysis.pi).max() <= 1e-10
        assert np.abs(forest.hitting_from_forest(fw) - analysis.H).max() <= 1e-9
        om_lin = resistance.omega_from_fundamental(analysis.F)
        assert np.abs(forest.omega_from_forest(fw) - om_lin).max() <= 1e-9

    def test_birth_death_chain(self):
        mat = chain.generate_random_chain(5, "birth_death", 3)
        analysis = chain.analyze(mat)
        fw = forest.enumerate_forests(mat)
        assert np.abs(forest.stationary_from_forest(fw) - analysis.pi).max() <= 1e-10


class TestUniformChain:
    def test_roots_equal_bitwise(self):
        for n in (3, 4, 5):
            mat = chain.validate(np.full((n, n), 1.0 / n))
            fw = forest.enumerate_forests(mat)
            assert len(set(fw.q_roots.tolist())) == 1

    def test_quarter_weights_exact(self):
        # arc weights are powers of two, so every sum is exact
        mat = chain.validate(np.full((4, 4), 0.25))
        fw = forest.enumerate_forests(mat)
        pi = forest.stationary_from_forest(fw)
        assert (pi == 0.25).all()

    def test_other_sizes_near_exact(self):
        for n in (3, 5):
            mat = chain.validate(np.full((n, n), 1.0 / n))
            fw = forest.enumerate_forests(mat)
            pi = forest.stationary_from_forest(fw)
            assert np.abs(pi - 1.0 / n).max() < 1e-15


class TestEquivariance:
    def test_relabeling_permutes_weights(self):
        mat = chain.generate_random_chain(4, "ergodic", 21)
        fw = forest.enumerate_forests(mat)
        perm = np.array([2, 0, 3, 1])
        permuted = chain.validate(mat.P[np.ix_(perm, perm)])
        fw_p = forest.enumerate_forests(permuted)
        assert_allclose(fw_p.q_roots, fw.q_roots[perm], rtol=0, atol=1e-15)
        assert_allclose(fw_p.f, fw.f[np.ix_(perm, perm)], rtol=0, atol=1e-15)


class TestGuards:
    def test_too_large(self):
        mat = chain.generate_random_chain(10, "ergodic", 0)
        with pytest.raises(TooLargeError):
            forest.enumerate_forests(mat, max_n=8)

    def test_cap_overridable(self):
        mat = chain.generate_random_chain(4, "ergodic", 0)
        fw = forest.enumerate_forests(mat, max_n=4)
        assert fw.q_total > 0

    def test_not_ergodic(self):
        with pytest.raises(NotErgodicError):
            forest.enumerate_forests(chain.validate([[0.0, 1.0], [1.0, 0.0]]))

    def test_deterministic(self, ce):
        first = forest.enumerate_forests(ce.chain)
        second = forest.enumerate_forests(ce.chain)
        assert np.array_equal(first.q_roots, second.q_roots)
        assert np.array_equal(first.f, second.f)


def test_self_loops_never_selected(two_state):
    # self-loops are not arcs of a forest; the sole weight-contributing
    # forests are the three listed for any 2-state chain
    fw = forest.enumerate_forests(two_state(0.5, 0.5))
    assert_allclose(fw.q_roots, [0.5, 0.5], rtol=0, atol=0)
    assert_allclose(fw.f, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=0)
    assert fw.q_total == 1.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
def test_matches_brute_force_enumeration(kind, n, seed):
    assert_matches_brute_force(chain.generate_random_chain(n, kind, seed))


def test_diagonal_is_off_diagonal_row_mass():
    # Rows of a float matrix need not sum to 1 exactly. Forests never use a
    # self-loop, so moving the diagonal, here by 1e-7, changes no weight.
    P = chain.generate_random_chain(4, "ergodic", 3).P
    shifted = chain.StochasticMatrix(P + 1e-7 * np.eye(4))
    assert (shifted.P.sum(axis=1) != 1.0).all()
    assert_matches_brute_force(shifted)
    fw = forest.enumerate_forests(shifted)
    fw_unshifted = forest.enumerate_forests(chain.StochasticMatrix(P))
    assert np.array_equal(fw.q_roots, fw_unshifted.q_roots)
    assert np.array_equal(fw.f, fw_unshifted.f)


def test_twelve_states_against_linear_algebra():
    mat = chain.generate_random_chain(12, "ergodic", 0)
    analysis = chain.analyze(mat)
    fw = forest.enumerate_forests(mat, max_n=12)
    assert np.abs(forest.stationary_from_forest(fw) - analysis.pi).max() <= 1e-10
    assert np.abs(forest.hitting_from_forest(fw) - analysis.H).max() <= 1e-9


def test_oracle_uses_no_linear_algebra_module():
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(forest))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    assert not [name for name in names if "linalg" in name]


LARGE_CHAINS = [
    (kind, n, seed)
    for kind in chain.CHAIN_KINDS
    for n in (7, 9, 12, 16)
    for seed in (0, 1)
]


@pytest.mark.parametrize("kind,n,seed", LARGE_CHAINS)
def test_matches_per_root_elimination(kind, n, seed):
    # both sides round the same exact integer ratios once, so bit for bit
    mat = chain.generate_random_chain(n, kind, seed)
    fw = forest.enumerate_forests(mat, max_n=n)
    q, f, den = per_root_elimination(mat.P)
    q_scale, f_scale = den ** (n - 1), den ** (n - 2)
    assert np.array_equal(fw.q_roots, np.array([w / q_scale for w in q]))
    assert fw.q_total == sum(q) / q_scale
    assert np.array_equal(fw.f, np.array([[w / f_scale for w in row] for row in f]))


@pytest.mark.parametrize("kind,n,seed", LARGE_CHAINS)
def test_bordered_adjugate_is_exact(kind, n, seed):
    # N adj(N) = det(N) I holds in integers only if every floor division of
    # the elimination was exact; det(N) = den q_total by the determinant lemma
    P = chain.generate_random_chain(n, kind, seed).P
    L, den = scaled_laplacian(P)
    N = [row[:-1] + [row[-1] + den] for row in L]
    adj = forest._adjugate(N)
    q, _, _ = per_root_elimination(P)
    det = den * sum(q)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in N]
    assert product == [[det * (i == k) for k in range(n)] for i in range(n)]
    assert adj[-1] == q


def test_single_state():
    fw = forest.enumerate_forests(chain.validate([[1.0]]))
    assert fw.q_roots.tolist() == [1.0]
    assert fw.q_total == 1.0
    assert fw.f.tolist() == [[0.0]]
