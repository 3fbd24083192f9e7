import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from numpy.testing import assert_allclose

from mrdist import chain, linalg
from mrdist.errors import (
    NonFiniteEntryError,
    NotSquareError,
    SingularMatrixError,
    TooLargeError,
)
from mrdist.tolerances import DEFAULT

from conftest import CE_EIGENVALUES, CE_T_AV

SRC = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))

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


class TestLapackLoad:
    def test_same_callables_as_scipy_lapack(self):
        assert linalg.dgesv is scipy.linalg.lapack.dgesv

    @staticmethod
    def _python(tmp_path, script):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_commands_run_without_importing_scipy_linalg(self, tmp_path):
        (tmp_path / "ce.csv").write_text("0.9,0.1,0\n0.5,0,0.5\n0,0.1,0.9\n")
        script = (
            "import contextlib, io, json, sys\n"
            "from mrdist import cli\n"
            "codes = []\n"
            "for argv in (['analyze', 'ce.csv'], ['sumrule', 'ce.csv'],\n"
            "             ['forest-verify', 'ce.csv'],\n"
            "             ['simulate', 'ce.csv', '--replicas', '100'], ['counterexample']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(json.dumps([codes, 'scipy.linalg' in sys.modules]))\n"
        )
        proc = self._python(tmp_path, script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0], False]

    def test_missing_scipy_is_module_not_found(self, tmp_path):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "try:\n"
            "    import mrdist\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name)\n"
        )
        proc = self._python(tmp_path, script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "scipy\n"


class TestLuSolveStack:
    def test_bit_identical_to_one_call_per_matrix(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 9, 9))
        for b in (rng.standard_normal((5, 9)), rng.standard_normal((5, 9, 3))):
            x = linalg.lu_solve(a, b)
            assert x.shape == b.shape
            for k in range(5):
                assert x[k].tobytes() == linalg.lu_solve(a[k], b[k]).tobytes()

    @pytest.mark.parametrize("k,m,rhs_cols", [
        (64, 63, None),  # hitting_times_oracle at n = 64: ones right-hand sides
        (20, 3, 3),  # make_sum_rule_pair at n = 3: one block per trial
    ])
    def test_bit_identical_to_scipy_at_report_shapes(self, k, m, rhs_cols):
        rng = np.random.default_rng(k * m)
        a = rng.standard_normal((k, m, m)) + m * np.eye(m)
        b = np.ones((k, m)) if rhs_cols is None else rng.standard_normal((k, m, rhs_cols))
        x = linalg.lu_solve(a, b)
        assert x.shape == b.shape
        for a_k, b_k, x_k in zip(a, b, x):
            ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a_k), b_k)
            assert x_k.tobytes() == ref.tobytes()

    def test_empty_systems_skip_lapack(self, capfd):
        # scipy's dgesv wrapper rejects a 0 x 0 matrix with a ValueError
        assert linalg.lu_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert linalg.lu_solve(np.zeros((3, 0, 0)), np.zeros((3, 0))).shape == (3, 0)
        assert linalg.lu_solve(np.zeros((0, 2, 2)), np.zeros((0, 2))).shape == (0, 2)
        assert capfd.readouterr().err == ""

    def test_pivot_checked_per_matrix(self):
        a = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2))])
        with pytest.raises(SingularMatrixError, match="^pivot magnitude 0.000e"):
            linalg.lu_solve(a, np.ones((3, 2)))
        # a zero pivot first in the stack stops the solve as one later would
        a = np.stack([np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(SingularMatrixError, match=r"^pivot magnitude 0\.000e\+00 below"):
            linalg.lu_solve(a, np.ones((2, 2)))
        a = np.stack([3.0 * np.eye(2), np.diag([3.0, 0.5]), 0.25 * np.eye(2)])
        with pytest.raises(SingularMatrixError, match=r"^pivot magnitude 5\.000e-01 below"):
            linalg.lu_solve(a, np.ones((3, 2)), tol=DEFAULT.override(pivot=1.0))

    def test_zero_pivot_fails_a_zero_threshold(self):
        # dgesv stops before its solve at an exactly zero pivot, so no
        # threshold may let that matrix through with b for its solution
        tol = DEFAULT.override(pivot=0.0)
        a = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(SingularMatrixError, match="^pivot magnitude 0.000e[+]00 below"):
            linalg.lu_solve(a, np.ones((2, 2)), tol=tol)
        assert linalg.lu_solve(np.diag([1.0, 2.0**-1000]), np.ones(2), tol=tol)[1] == 2.0**1000

    @pytest.mark.parametrize("a,b", [
        (np.ones((2, 3, 4)), np.ones((2, 3))),  # matrices not square
        (np.ones((2, 3, 3)), np.ones((3, 3))),  # rhs for three systems
        (np.ones((2, 3, 3)), np.ones((2, 4))),  # rhs rows
        (np.ones((2, 3, 3)), np.ones(3)),  # rhs not stacked
        (np.ones(1), np.ones(1)),  # a vector is not a matrix
        (np.ones((1, 1, 2, 2)), np.ones((1, 1, 2))),  # a stack of stacks
    ])
    def test_shape_mismatch(self, a, b):
        with pytest.raises(NotSquareError):
            linalg.lu_solve(a, b)

    def test_nonfinite_rejected(self):
        a = np.stack([np.eye(2), np.eye(2)])
        a[1, 0, 1] = np.inf
        with pytest.raises(NonFiniteEntryError):
            linalg.lu_solve(a, np.ones((2, 2)))
        with pytest.raises(NonFiniteEntryError):
            linalg.lu_solve(np.stack([np.eye(2)] * 2), [[1.0, 1.0], [np.nan, 1.0]])


class TestReadOnlyResults:
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 3), (3,)),  # one matrix, vector rhs
        ((3, 3), (3, 2)),  # one matrix, matrix rhs
        ((2, 3, 3), (2, 3)),  # a stack, vector rhs
        ((2, 3, 3), (2, 3, 2)),  # a stack, matrix rhs
        ((0, 0), (0,)),  # the empty cases copy b
        ((0, 0), (0, 2)),
        ((3, 0, 0), (3, 0)),
        ((0, 2, 2), (0, 2)),
    ])
    def test_lu_solve(self, a_shape, b_shape):
        a = np.broadcast_to(2.0 * np.eye(a_shape[-1]), a_shape).copy()
        b = np.ones(b_shape)
        x = linalg.lu_solve(a, b)
        assert x.shape == b.shape and not x.flags.writeable
        assert b.flags.writeable and a.flags.writeable  # the inputs are left alone
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0

    def test_inverse_and_eigenvalues(self):
        for result in (linalg.inverse(COUNTEREXAMPLE), linalg.eigenvalues(COUNTEREXAMPLE)):
            assert not result.flags.writeable

    def test_chain_results_stay_read_only(self, ce):
        pi = chain.stationary(ce.chain)
        analysis = chain.analyze(ce.chain)
        for result in (pi, chain.fundamental_matrix(ce.chain, pi), analysis.pi, analysis.F):
            assert not result.flags.writeable


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

    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
    def test_non_real_eigenvalues_come_in_exact_conjugate_pairs(self, kind, n):
        # eigentime_constant returns the real part of its complex sum on
        # the strength of this pairing
        for seed in range(3):
            lam = linalg.eigenvalues(chain.generate_random_chain(n, kind, seed).P)
            non_real = lam[lam.imag != 0]
            assert sorted(non_real.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
                non_real.conjugate().tolist(), key=lambda z: (z.real, z.imag)
            )


class TestTrace:
    def test_fundamental_trace_is_one_plus_kemeny(self, ce):
        # Tr F = 1 + t_av, and F's eigenvalues are 1 and 1/(1 - lambda_k)
        pi = chain.stationary(ce.chain)
        f = chain.fundamental_matrix(ce.chain, pi)
        assert abs(np.trace(f) - (1.0 + CE_T_AV)) < 1e-10
        lam = linalg.eigenvalues(ce.chain.P)
        rest = lam[np.abs(lam - 1.0) > 1e-8]
        assert abs(np.trace(f) - (1.0 + np.sum(1.0 / (1.0 - rest)).real)) < 1e-10


def test_inverse_roundtrip_invariant():
    # every invertible matrix produced in tests satisfies the residual bound
    for seed in range(5):
        mat = chain.generate_random_chain(9, "ergodic", seed)
        pi = chain.stationary(mat)
        a = np.eye(9) - mat.P + np.tile(pi, (9, 1))
        assert np.abs(a @ linalg.inverse(a) - np.eye(9)).max() < 1e-10
