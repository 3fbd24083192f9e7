r"""Resistance distance of an ergodic chain, its metric check and sum rules.

The resistance distance between states i and j is

    Omega[i, j] = F[i, i] + F[j, j] - F[i, j] - F[j, i],

with F the fundamental matrix. Equivalent constructions from the group
inverse, from mean hitting times (pi[j] E_i(tau_j) + pi[i] E_j(tau_i)) and,
for doubly stochastic chains, from scaled commute times are provided, along
with the generalized sum rule

    sum_{i,j} (M(K - I))[i, j] Omega[i, j] = 2 Tr(M(I - K)F)

for any (M, K) with K 1 = 1 and M(K - I) symmetric, the Kirchhoff index
family it implies, and the trace-form analogue of Foster's first formula for
reversible chains.

Omega is a plain read-only (n, n) array, exactly symmetric with a +0.0
diagonal; the functions that take Omega rely on that. The F and group-inverse
routes pass through :func:`resistance_matrix`, which makes it so. The hitting
and commute routes add a matrix to its transpose, which is exactly symmetric,
and keep H's +0.0 diagonal, so they only freeze the sum.
:func:`chain.analyze` keeps the F route's Omega as ``ChainAnalysis.omega``.

Sum-rule pairs come as (k, n, n) stacks M and K, pair t being
(M[t], K[t]); one pair is a stack of one. :func:`sum_rule` returns (k,)
arrays, as :func:`foster_sum` returns (m,) arrays for P^1, ..., P^m, and
:func:`make_sum_rule_pair` builds one random pair per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import HypothesisViolatedError, NotDoublyStochasticError, NotReversibleError
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:  # chain imports this module to build ChainAnalysis.omega
    from .chain import ChainAnalysis, ErgodicityReport, StochasticMatrix

@dataclass(frozen=True)
class MetricReport:
    """Semimetric verdicts for a resistance matrix.

    ``worst_triple`` is the ordered triple (i, k, j) maximizing
    Omega[i, j] - Omega[i, k] - Omega[k, j] over non-degenerate triples,
    or ``None`` when n < 3 and the triangle inequality holds vacuously.
    """

    nonnegative: bool
    triangle_holds: bool
    worst_triple: tuple[int, int, int] | None
    worst_violation: float


@dataclass(frozen=True)
class KirchhoffReport:
    kirchhoff: float           # sum of all resistance distances
    multiplicative: float      # pi_i pi_j weighted sum
    additive: float            # (pi_i + pi_j) weighted sum
    additive_lower: float      # 2 t_av
    additive_upper: float      # 2 t_av (n + 1)


def resistance_matrix(omega: np.ndarray) -> np.ndarray:
    """Canonicalize a precomputed matrix: symmetrize, clamp the diagonal to 0, freeze."""
    w = 0.5 * (omega + omega.T)
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return w


def _omega_from_inverse(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    return resistance_matrix(d[:, None] + d[None, :] - A - A.T)


def omega_from_fundamental(F: np.ndarray) -> np.ndarray:
    """Omega[i, j] = F[i, i] + F[j, j] - F[i, j] - F[j, i]."""
    return _omega_from_inverse(F)


def omega_from_group_inverse(D: np.ndarray) -> np.ndarray:
    """Same combination applied to the group inverse; equals the F form."""
    return _omega_from_inverse(D)


def omega_from_hitting(H: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Omega[i, j] = pi[j] H[i, j] + pi[i] H[j, i]; H's diagonal must be +0.0
    and pi positive, for Omega's diagonal to be +0.0."""
    H = np.asarray(H, dtype=float)
    pi = np.asarray(pi, dtype=float)
    weighted = H * pi[None, :]
    w = weighted + weighted.T
    w.setflags(write=False)
    return w


def omega_from_commute(H: np.ndarray, ergodicity: ErgodicityReport) -> np.ndarray:
    """Scaled commute time (H[i, j] + H[j, i]) / n, doubly stochastic only;
    H's diagonal must be +0.0, for Omega's diagonal to be +0.0."""
    if not ergodicity.is_doubly_stochastic:
        raise NotDoublyStochasticError(
            "commute-time construction requires a doubly stochastic chain"
        )
    H = np.asarray(H, dtype=float)
    w = (H + H.T) / H.shape[0]
    w.setflags(write=False)
    return w


def metric_check(omega: np.ndarray, *, tol: Tolerances = DEFAULT) -> MetricReport:
    """Scan all n^3 triples for the worst triangle violation.

    The scan is exhaustive rather than sampled: n <= 64 keeps it cheap and
    the reported worst triple must be exact. The triangle inequality holds
    when the worst violation is within ``tol.bound(max Omega)``, the
    rounding of sums of entries of that size.
    """
    w = omega
    n = len(w)
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool(w.min() >= 0.0) and bool((w[off] > 0.0).all())

    if n < 3:
        return MetricReport(nonnegative, True, None, 0.0)

    # violation[i, k, j] = w[i, j] - w[i, k] - w[k, j]; triples with a
    # repeated state are masked out
    viol = w[:, None, :] - w[:, :, None]
    viol -= w[None]
    d = np.arange(n)
    viol[d, d, :] = viol[:, d, d] = viol[d, :, d] = -np.inf
    flat = int(np.argmax(viol))
    worst = float(viol.reshape(-1)[flat])
    i, k, j = np.unravel_index(flat, viol.shape)
    return MetricReport(
        nonnegative=nonnegative,
        triangle_holds=bool(worst <= tol.bound(w.max())),
        worst_triple=(int(i), int(k), int(j)),
        worst_violation=worst,
    )


def sum_rule(
    M: np.ndarray,
    K: np.ndarray,
    omega: np.ndarray,
    F: np.ndarray,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the generalized sum rule for a stack of k pairs (M, K),
    computed independently.

    M and K are (k, n, n) stacks; pair t is (M[t], K[t]), and it gets the
    arithmetic it would get in a stack of one.

    Returns
    -------
    (lhs, rhs) : tuple of (k,) ndarray
        lhs = sum_{i,j} (M(K - I))[i, j] Omega[i, j],
        rhs = 2 Tr(M(I - K)F).

    Raises
    ------
    HypothesisViolatedError
        If M or K is not a (k, n, n) stack, or if K's row sums or the
        symmetry of M(K - I) are out of tolerance; the error names the
        first failing pair of the stack, with that pair's value.
    """
    n = len(omega)
    M, K, F = (np.asarray(x, dtype=float) for x in (M, K, F))
    if M.ndim != 3 or M.shape[1:] != (n, n) or K.shape != M.shape:
        raise HypothesisViolatedError(
            f"pair shapes {M.shape}, {K.shape} do not match chain size {n}"
        )
    row_dev = np.abs(K.sum(axis=2) - 1.0).max(axis=1)
    A = M @ (K - np.eye(n))
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2))
    failed = np.flatnonzero((row_dev > tol.pair_hypothesis) | (asym > tol.pair_hypothesis))
    if failed.size:
        first = failed[0]
        if row_dev[first] > tol.pair_hypothesis:
            raise HypothesisViolatedError(f"K row sums deviate from 1 by {row_dev[first]:.3e}")
        raise HypothesisViolatedError(f"M(K - I) asymmetric by {asym[first]:.3e}")
    lhs = (A * omega).sum(axis=(1, 2))
    rhs = 2.0 * np.trace(M @ (np.eye(n) - K) @ F, axis1=1, axis2=2)
    return lhs, rhs


def _pair_inputs(n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n, n) stacks A and M drawn from each seed's generator."""
    draws = np.empty((len(seeds), 2, n, n))
    for out, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=out)
    b, m = draws[:, 0], draws[:, 1]
    a = b + b.transpose(0, 2, 1)
    r = a.sum(axis=2)
    total = a.sum(axis=(1, 2))
    a = a - r[:, :, None] / n - r[:, None, :] / n + (total / n**2)[:, None, None]
    d = np.arange(n)
    m[:, d, d] += np.abs(m).sum(axis=2) + 1.0
    return a, m


def make_sum_rule_pair(
    n: int, seeds, *, tol: Tolerances = DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """Random (M, K) stacks satisfying both sum-rule hypotheses by construction.

    For each seed, draws a symmetric A = B + B^T, double-centers it so its
    row and column sums vanish (which preserves symmetry), draws M with each
    diagonal entry raised by its row's absolute sum plus 1, and sets
    K = I + M^{-1} A. Then K 1 = 1 and M(K - I) = A is symmetric. B and then
    M come from ``default_rng(seed)``, so a pair is deterministic per seed.

    ``seeds`` is a sequence of k seeds. The read-only (k, n, n) stacks M and
    K hold the pair of ``seeds[t]`` at index t; every pair is built and
    solved in one :func:`linalg.lu_solve` call.

    M is strictly row diagonally dominant with every margin at least 1, so
    ||M^{-1}||_inf <= 1 (Varah 1975) and its LU pivots stay far above the
    default ``tol.pivot``. A threshold that rejects one of them raises
    lu_solve's SingularMatrixError, for the first such pair of the stack.
    """
    if n < 2:
        raise ValueError(f"pair generation needs n >= 2, got {n}")
    a, m = _pair_inputs(n, seeds)
    k = np.eye(n) + linalg.lu_solve(m, a, tol=tol)
    m.setflags(write=False)
    k.setflags(write=False)
    return m, k


def kirchhoff_indices(
    omega: np.ndarray, pi: np.ndarray, t_av: float
) -> KirchhoffReport:
    """All three Kirchhoff index variants by direct double summation."""
    pi = np.asarray(pi, dtype=float)
    n = len(omega)
    kirchhoff = float(omega.sum())
    multiplicative = float(pi @ omega @ pi)
    additive = float(2.0 * (pi @ omega).sum())  # symmetry merges the two weights
    return KirchhoffReport(
        kirchhoff=kirchhoff,
        multiplicative=multiplicative,
        additive=additive,
        additive_lower=2.0 * t_av,
        additive_upper=2.0 * t_av * (n + 1),
    )


def foster_sum(
    chain: StochasticMatrix,
    omega: np.ndarray,
    m: int,
    analysis: ChainAnalysis,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the reversible-chain trace identity for P^1, ..., P^m.

    Returns
    -------
    (lhs, rhs) : tuple of (m,) ndarray
        lhs[k - 1] = sum_{i,j} pi[j] (P^k)[j, i] Omega[i, j],
        rhs[k - 1] = 2 Tr(diag(pi) sum_{l=0}^{k-1} (P^l - Pi)).

    Detailed balance is the verdict ``analysis.ergodicity.is_reversible``
    already holds; the ``foster_trace_m*`` checks of a report judge how far
    the two sides agree.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not analysis.ergodicity.is_reversible:
        raise NotReversibleError("trace identity requires detailed balance")
    P = chain.P
    pi = analysis.pi
    lhs, rhs = np.empty(m), np.empty(m)
    partial = np.zeros_like(P)
    power = np.eye(chain.n)
    for k in range(m):
        partial = partial + power - analysis.Pi
        power = power @ P  # P^(k + 1), one running product
        lhs[k] = ((pi[:, None] * power).T * omega).sum()
        rhs[k] = 2.0 * np.trace(pi[:, None] * partial)
    return lhs, rhs


def foster_first_formula(chain: StochasticMatrix, omega: np.ndarray) -> float:
    """Unweighted edge sum, sum_{i,j} P[i, j] Omega[i, j].

    For a reversible doubly stochastic chain this collapses to 2(n - 1),
    mirroring Foster's classical edge-resistance sum on graphs.
    """
    return float((chain.P * omega).sum())
