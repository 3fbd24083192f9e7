import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mrdist import chain, linalg
from mrdist.errors import (
    NonFiniteEntryError,
    NotSquareError,
    SingularMatrixError,
    TooLargeError,
)

from conftest import CE_EIGENVALUES, CE_T_AV


COUNTEREXAMPLE = np.array([[0.9, 0.1, 0.0], [0.5, 0.0, 0.5], [0.0, 0.1, 0.9]])
CE_PI = np.array([5.0, 1.0, 5.0]) / 11.0


class TestLuSolve:
    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 2))
        assert_allclose(linalg.lu_solve(np.eye(3), b), b, rtol=0, atol=1e-14)

    def test_diagonal_solve(self):
        x = linalg.lu_solve([[2.0, 0.0], [0.0, 4.0]], [[1.0], [1.0]])
        assert_allclose(x, [[0.5], [0.25]], rtol=0, atol=0)

    def test_fundamental_system_residual(self):
        # F solves F (I - P + Pi) = I and has unit row sums
        Pi = np.tile(CE_PI, (3, 1))
        a = np.eye(3) - COUNTEREXAMPLE + Pi
        f = linalg.lu_solve(a, np.eye(3))
        assert np.abs(f @ a - np.eye(3)).max() <= 1e-10 * 2
        assert_allclose(f.sum(axis=1), np.ones(3), rtol=0, atol=1e-9)

    def test_vector_rhs_shape(self):
        x = linalg.lu_solve([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0])
        assert x.shape == (2,)
        assert_allclose(x, [0.5, 0.25])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve([[1.0, 1.0], [1.0, 1.0]], np.eye(2))
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(np.zeros((3, 3)), np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(NotSquareError):
            linalg.lu_solve(np.eye(2), np.ones((3, 1)))

    def test_nonfinite_rejected(self):
        bad = np.eye(2)
        bad = bad.copy()
        bad[0, 1] = np.nan
        with pytest.raises(NonFiniteEntryError):
            linalg.lu_solve(bad, np.eye(2))

    def test_nonfinite_rhs_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            linalg.lu_solve(np.eye(2), [np.nan, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_exact_singularity_raises_without_warning(self):
        # the zero pivot stops the solve as SingularMatrixError; no
        # LinAlgWarning may escape, so this holds under -W error too
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("n", [1, 3, 8, 31, 63])
    def test_bit_identical_to_scipy_lu(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        factors = scipy.linalg.lu_factor(a)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            x = linalg.lu_solve(a, b)
            ref = scipy.linalg.lu_solve(factors, b)
            assert x.shape == ref.shape == b.shape
            assert x.tobytes() == ref.tobytes()


class TestInverse:
    def test_identity(self):
        assert_allclose(linalg.inverse(np.eye(4)), np.eye(4), rtol=0, atol=0)

    def test_diagonal(self):
        assert_allclose(
            linalg.inverse(np.diag([2.0, 5.0])), np.diag([0.5, 0.2]), atol=1e-15
        )

    def test_random_residual(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        inv = linalg.inverse(a)
        assert np.abs(a @ inv - np.eye(5)).max() < 1e-10

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            linalg.inverse(np.ones((2, 3)))


class TestEigenvalues:
    def test_identity_all_ones(self):
        lam = linalg.eigenvalues(np.eye(5))
        assert_allclose(lam, np.ones(5, dtype=complex), rtol=0, atol=0)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.2), (0.9, 0.05)])
    def test_two_state_closed_form(self, a, b):
        # characteristic polynomial gives {1, 1 - a - b}
        lam = linalg.eigenvalues([[1 - a, a], [b, 1 - b]])
        assert_allclose(sorted(lam.real, reverse=True), [1.0, 1.0 - a - b], atol=1e-12)
        assert_allclose(lam.imag, 0.0, atol=1e-14)

    def test_counterexample_spectrum(self, ce):
        lam = linalg.eigenvalues(ce.chain.P)
        assert_allclose(lam.real, CE_EIGENVALUES, atol=1e-12)
        # eigentime equals the trace of the group inverse
        rest = lam[np.abs(lam - 1.0) > 1e-8]
        assert_allclose(np.sum(1.0 / (1.0 - rest)).real, CE_T_AV, atol=1e-10)

    def test_deterministic_ordering_conjugate_pair(self):
        # 3-cycle permutation: cube roots of unity, +imag listed first
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        lam = linalg.eigenvalues(perm)
        assert_allclose(lam[0], 1.0 + 0.0j, atol=1e-12)
        assert lam[1].imag > 0 > lam[2].imag
        assert_allclose(lam[1], lam[2].conjugate(), rtol=0, atol=0)
        again = linalg.eigenvalues(perm)
        assert np.array_equal(lam, again)

    def test_stochastic_spectrum_invariant(self):
        for seed, kind in enumerate(chain.CHAIN_KINDS):
            mat = chain.generate_random_chain(12, kind, seed)
            lam = linalg.eigenvalues(mat.P)
            near_one = np.abs(lam - 1.0) < 1e-8
            assert near_one.sum() == 1
            assert (np.abs(lam[~near_one]) < 1.0).all()
            assert (np.abs(lam) <= 1.0 + 1e-8).all()

    def test_dimension_cap(self):
        with pytest.raises(TooLargeError):
            linalg.eigenvalues(np.eye(65))


class TestMatrixPower:
    def test_zeroth_power_is_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        assert_allclose(linalg.matrix_power(a, 0), np.eye(4), rtol=0, atol=0)

    def test_swap_squared(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(linalg.matrix_power(swap, 2), np.eye(2), rtol=0, atol=0)

    def test_stochasticity_preserved(self):
        p3 = linalg.matrix_power(COUNTEREXAMPLE, 3)
        assert_allclose(p3.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)

    def test_power_addition(self):
        mat = chain.generate_random_chain(6, "ergodic", 3).P
        for m, k in [(1, 1), (2, 3), (4, 4), (8, 8), (0, 5)]:
            assert_allclose(
                linalg.matrix_power(mat, m + k),
                linalg.matrix_power(mat, m) @ linalg.matrix_power(mat, k),
                rtol=0,
                atol=1e-10,
            )

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_power(np.eye(2), -1)


class TestTrace:
    def test_identity(self):
        assert linalg.trace(np.eye(4)) == 4.0

    def test_diagonal(self):
        assert linalg.trace(np.diag([1.0, 2.0, 3.0])) == 6.0

    def test_fundamental_trace_is_one_plus_kemeny(self, ce):
        pi = chain.stationary(ce.chain)
        f = chain.fundamental_matrix(ce.chain, pi)
        assert abs(linalg.trace(f) - (1.0 + CE_T_AV)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        assert abs(linalg.trace(a + b) - (linalg.trace(a) + linalg.trace(b))) < 1e-13


def test_inverse_roundtrip_invariant():
    # every invertible matrix produced in tests satisfies the residual bound
    for seed in range(5):
        mat = chain.generate_random_chain(9, "ergodic", seed)
        pi = chain.stationary(mat)
        a = np.eye(9) - mat.P + np.tile(pi, (9, 1))
        assert np.abs(a @ linalg.inverse(a) - np.eye(9)).max() < 1e-10
