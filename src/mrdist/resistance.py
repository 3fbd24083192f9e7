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

Omega is a plain read-only (n, n) array. Every constructor returns it
through :func:`resistance_matrix`, which symmetrizes it and sets its
diagonal to exactly 0; the functions that take Omega rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chain import ChainAnalysis, ErgodicityReport, StochasticMatrix
from .errors import HypothesisViolatedError, NotDoublyStochasticError, NotReversibleError
from .tolerances import DEFAULT, Tolerances

@dataclass(frozen=True)
class MetricReport:
    """Semimetric verdicts for a resistance matrix.

    ``worst_triple`` is the ordered triple (i, k, j) maximizing
    Omega[i, j] - Omega[i, k] - Omega[k, j] over non-degenerate triples,
    or ``None`` when n < 3 and the triangle inequality holds vacuously.
    """

    nonnegative: bool
    symmetric: bool
    triangle_holds: bool
    worst_triple: tuple[int, int, int] | None
    worst_violation: float


@dataclass(frozen=True, eq=False)
class SumRulePair:
    """Matrices (M, K) intended to satisfy the sum-rule hypotheses."""

    M: np.ndarray
    K: np.ndarray


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
    """Omega[i, j] = pi[j] H[i, j] + pi[i] H[j, i]."""
    H = np.asarray(H, dtype=float)
    pi = np.asarray(pi, dtype=float)
    weighted = H * pi[None, :]
    return resistance_matrix(weighted + weighted.T)


def omega_from_commute(H: np.ndarray, ergodicity: ErgodicityReport) -> np.ndarray:
    """Scaled commute time (H[i, j] + H[j, i]) / n, doubly stochastic only."""
    if not ergodicity.is_doubly_stochastic:
        raise NotDoublyStochasticError(
            "commute-time construction requires a doubly stochastic chain"
        )
    H = np.asarray(H, dtype=float)
    return resistance_matrix((H + H.T) / H.shape[0])


def metric_check(omega: np.ndarray, *, tol: Tolerances = DEFAULT) -> MetricReport:
    """Scan all n^3 triples for the worst triangle violation.

    ``omega`` is a plain (n, n) array; the ``symmetric`` verdict tests it
    exactly, so it holds for any array from a constructor of this module
    or of :mod:`forest`, which symmetrize Omega.

    The scan is exhaustive rather than sampled: n <= 64 keeps it cheap and
    the reported worst triple must be exact. The triangle inequality holds
    when the worst violation is within ``tol.bound(max Omega)``, the
    rounding of sums of entries of that size.
    """
    w = omega
    n = len(w)
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool(w.min() >= 0.0) and bool((w[off] > 0.0).all())
    symmetric = bool(np.array_equal(w, w.T))

    if n < 3:
        return MetricReport(nonnegative, symmetric, True, None, 0.0)

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
        symmetric=symmetric,
        triangle_holds=bool(worst <= tol.bound(w.max())),
        worst_triple=(int(i), int(k), int(j)),
        worst_violation=worst,
    )


def _check_pair(
    pair: SumRulePair, n: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the sum-rule hypotheses of a pair or a stack of pairs.

    Returns the (k, n, n) stacks M, K and A = M(K - I); a 2-D pair is a
    stack of one. The error names the first pair, in stack order, that
    fails either hypothesis, with that pair's value.
    """
    M, K = np.asarray(pair.M, dtype=float), np.asarray(pair.K, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-2:] != (n, n) or K.shape != M.shape:
        raise HypothesisViolatedError(
            f"pair shapes {M.shape}, {K.shape} do not match chain size {n}"
        )
    M, K = M.reshape(-1, n, n), K.reshape(-1, n, n)
    row_dev = np.abs(K.sum(axis=2) - 1.0).max(axis=1)
    A = M @ (K - np.eye(n))
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2))
    failed = np.flatnonzero((row_dev > tol.pair_hypothesis) | (asym > tol.pair_hypothesis))
    if failed.size:
        first = failed[0]
        if row_dev[first] > tol.pair_hypothesis:
            raise HypothesisViolatedError(
                f"K row sums deviate from 1 by {row_dev[first]:.3e}"
            )
        raise HypothesisViolatedError(
            f"M(K - I) asymmetric by {asym[first]:.3e}"
        )
    return M, K, A


def sum_rule(
    pair: SumRulePair,
    omega: np.ndarray,
    F: np.ndarray,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Both sides of the generalized sum rule, computed independently.

    ``pair`` holds one (n, n) pair or a stack of k, as (k, n, n) M and K.
    Each pair of a stack gets the arithmetic it would get alone.

    Returns
    -------
    (lhs, rhs) : tuple of float, or of (k,) ndarray for a stack
        lhs = sum_{i,j} (M(K - I))[i, j] Omega[i, j],
        rhs = 2 Tr(M(I - K)F).

    Raises
    ------
    HypothesisViolatedError
        If K's row sums or the symmetry of M(K - I) are out of tolerance,
        naming the first failing pair of a stack.
    """
    n = len(omega)
    F = np.asarray(F, dtype=float)
    M, K, A = _check_pair(pair, n, tol)
    lhs = (A * omega).sum(axis=(1, 2))
    rhs = 2.0 * np.trace(M @ (np.eye(n) - K) @ F, axis1=1, axis2=2)
    if np.ndim(pair.M) == 2:
        return float(lhs[0]), float(rhs[0])
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


def make_sum_rule_pair(n: int, seed, *, tol: Tolerances = DEFAULT) -> SumRulePair:
    """Random (M, K) satisfying both sum-rule hypotheses by construction.

    Draws a symmetric A = B + B^T, double-centers it so its row and column
    sums vanish (which preserves symmetry), draws M with each diagonal entry
    raised by its row's absolute sum plus 1, and sets K = I + M^{-1} A. Then
    K 1 = 1 and M(K - I) = A is symmetric. B and then M come from
    ``default_rng(seed)``, so a pair is deterministic per seed.

    ``seed`` is an int, giving (n, n) M and K, or a sequence of k seeds,
    giving (k, n, n) stacks whose trial t is the pair of ``seed[t]``; every
    trial is built and solved in one :func:`linalg.lu_solve` call.

    M is strictly row diagonally dominant with every margin at least 1, so
    ||M^{-1}||_inf <= 1 (Varah 1975) and its LU pivots stay far above the
    default ``tol.pivot``. A threshold that rejects one of them raises
    lu_solve's SingularMatrixError, for the first such trial of the stack.
    """
    if n < 2:
        raise ValueError(f"pair generation needs n >= 2, got {n}")
    single = np.ndim(seed) == 0
    a, m = _pair_inputs(n, [seed] if single else list(seed))
    k = np.eye(n) + linalg.lu_solve(m, a, tol=tol)
    if single:
        m, k = m[0], k[0]
    m.setflags(write=False)
    k.setflags(write=False)
    return SumRulePair(M=m, K=k)


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
) -> tuple[float, float]:
    """Both sides of the reversible-chain trace identity for P^m.

    Returns
    -------
    (lhs, rhs) : tuple of float
        lhs = sum_{i,j} pi[j] (P^m)[j, i] Omega[i, j],
        rhs = 2 Tr(diag(pi) sum_{k=0}^{m-1} (P^k - Pi)).

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
    partial = np.zeros_like(P)
    power = np.eye(chain.n)
    for _ in range(m):
        partial = partial + power - analysis.Pi
        power = power @ P  # P^m when the loop ends
    lhs = float(((pi[:, None] * power).T * omega).sum())
    rhs = float(2.0 * np.trace(pi[:, None] * partial))
    return lhs, rhs


def foster_first_formula(chain: StochasticMatrix, omega: np.ndarray) -> float:
    """Unweighted edge sum, sum_{i,j} P[i, j] Omega[i, j].

    For a reversible doubly stochastic chain this collapses to 2(n - 1),
    mirroring Foster's classical edge-resistance sum on graphs.
    """
    return float((chain.P * omega).sum())
