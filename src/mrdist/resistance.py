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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chain import ChainAnalysis, ErgodicityReport, StochasticMatrix
from .errors import (
    HypothesisViolatedError,
    NotDoublyStochasticError,
    NotReversibleError,
    SingularMatrixError,
)
from .tolerances import DEFAULT, Tolerances

METHODS = ("fundamental", "group_inverse", "hitting_time", "forest", "commute_scaled")


@dataclass(frozen=True, eq=False)
class ResistanceMatrix:
    """Symmetric resistance matrix with zero diagonal and a provenance tag."""

    omega: np.ndarray
    method: str

    @property
    def n(self) -> int:
        return self.omega.shape[0]


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


def resistance_matrix(omega: np.ndarray, method: str) -> ResistanceMatrix:
    """Canonicalize a precomputed matrix: symmetrize, clamp the diagonal to 0."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    w = 0.5 * (omega + omega.T)
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return ResistanceMatrix(omega=w, method=method)


def _omega_from_inverse(A: np.ndarray, method: str) -> ResistanceMatrix:
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    return resistance_matrix(d[:, None] + d[None, :] - A - A.T, method)


def omega_from_fundamental(F: np.ndarray) -> ResistanceMatrix:
    """Omega[i, j] = F[i, i] + F[j, j] - F[i, j] - F[j, i]."""
    return _omega_from_inverse(F, "fundamental")


def omega_from_group_inverse(D: np.ndarray) -> ResistanceMatrix:
    """Same combination applied to the group inverse; equals the F form."""
    return _omega_from_inverse(D, "group_inverse")


def omega_from_hitting(H: np.ndarray, pi: np.ndarray) -> ResistanceMatrix:
    """Omega[i, j] = pi[j] H[i, j] + pi[i] H[j, i]."""
    H = np.asarray(H, dtype=float)
    pi = np.asarray(pi, dtype=float)
    weighted = H * pi[None, :]
    return resistance_matrix(weighted + weighted.T, "hitting_time")


def omega_from_commute(H: np.ndarray, ergodicity: ErgodicityReport) -> ResistanceMatrix:
    """Scaled commute time (H[i, j] + H[j, i]) / n, doubly stochastic only."""
    if not ergodicity.is_doubly_stochastic:
        raise NotDoublyStochasticError(
            "commute-time construction requires a doubly stochastic chain"
        )
    H = np.asarray(H, dtype=float)
    return resistance_matrix((H + H.T) / H.shape[0], "commute_scaled")


def metric_check(omega: ResistanceMatrix, *, tol: Tolerances = DEFAULT) -> MetricReport:
    """Scan all n^3 triples for the worst triangle violation.

    The scan is exhaustive rather than sampled: n <= 64 keeps it cheap and
    the reported worst triple must be exact.
    """
    w = omega.omega
    n = w.shape[0]
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool(w.min() >= 0.0) and bool((w[off] > 0.0).all())
    symmetric = bool(np.array_equal(w, w.T))

    if n < 3:
        return MetricReport(nonnegative, symmetric, True, None, 0.0)

    # violation[i, k, j] = w[i, j] - w[i, k] - w[k, j]
    viol = w[:, None, :] - w[:, :, None] - w[None, :, :]
    i_idx, k_idx, j_idx = np.ogrid[:n, :n, :n]
    degenerate = (i_idx == k_idx) | (k_idx == j_idx) | (i_idx == j_idx)
    viol = np.where(degenerate, -np.inf, viol)
    flat = int(np.argmax(viol))
    worst = float(viol.reshape(-1)[flat])
    i, k, j = np.unravel_index(flat, viol.shape)
    return MetricReport(
        nonnegative=nonnegative,
        symmetric=symmetric,
        triangle_holds=bool(worst <= tol.triangle),
        worst_triple=(int(i), int(k), int(j)),
        worst_violation=worst,
    )


def _check_pair(pair: SumRulePair, n: int, tol: Tolerances) -> np.ndarray:
    """Validate the sum-rule hypotheses; return A = M(K - I)."""
    M, K = np.asarray(pair.M, dtype=float), np.asarray(pair.K, dtype=float)
    if M.shape != (n, n) or K.shape != (n, n):
        raise HypothesisViolatedError(
            f"pair shapes {M.shape}, {K.shape} do not match chain size {n}"
        )
    row_dev = np.abs(K.sum(axis=1) - 1.0).max()
    if row_dev > tol.pair_hypothesis:
        raise HypothesisViolatedError(
            f"K row sums deviate from 1 by {row_dev:.3e}"
        )
    A = M @ (K - np.eye(n))
    asym = np.abs(A - A.T).max()
    if asym > tol.pair_hypothesis:
        raise HypothesisViolatedError(
            f"M(K - I) asymmetric by {asym:.3e}"
        )
    return A


def sum_rule(
    pair: SumRulePair,
    omega: ResistanceMatrix,
    F: np.ndarray,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[float, float]:
    """Both sides of the generalized sum rule, computed independently.

    Returns
    -------
    (lhs, rhs) : tuple of float
        lhs = sum_{i,j} (M(K - I))[i, j] Omega[i, j],
        rhs = 2 Tr(M(I - K)F).

    Raises
    ------
    HypothesisViolatedError
        If K's row sums or the symmetry of M(K - I) are out of tolerance.
    """
    n = omega.n
    F = np.asarray(F, dtype=float)
    A = _check_pair(pair, n, tol)
    lhs = float((A * omega.omega).sum())
    rhs = float(2.0 * np.trace(pair.M @ (np.eye(n) - pair.K) @ F))
    return lhs, rhs


def make_sum_rule_pair(n: int, seed: int, *, tol: Tolerances = DEFAULT) -> SumRulePair:
    """Random (M, K) satisfying both sum-rule hypotheses by construction.

    Draws a symmetric A = B + B^T, double-centers it so its row and column
    sums vanish (which preserves symmetry), draws a diagonally dominant
    (hence invertible) M, and sets K = I + M^{-1} A. Then K 1 = 1 and
    M(K - I) = A is symmetric. Deterministic per seed; a singular M is
    regenerated with the next seed, up to 16 attempts.
    """
    if n < 2:
        raise ValueError(f"pair generation needs n >= 2, got {n}")
    last_exc: SingularMatrixError | None = None
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        b = rng.standard_normal((n, n))
        a = b + b.T
        r = a.sum(axis=1)
        total = a.sum()
        a = a - r[:, None] / n - r[None, :] / n + total / n**2
        m = rng.standard_normal((n, n))
        m = m + np.diag(np.abs(m).sum(axis=1) + 1.0)
        try:
            k = np.eye(n) + linalg.lu_solve(m, a, tol=tol)
        except SingularMatrixError as exc:
            last_exc = exc
            continue
        m.setflags(write=False)
        k.setflags(write=False)
        return SumRulePair(M=m, K=k)
    raise SingularMatrixError(
        f"no invertible M found in 16 attempts from seed {seed}"
    ) from last_exc


def kirchhoff_indices(
    omega: ResistanceMatrix, pi: np.ndarray, t_av: float
) -> KirchhoffReport:
    """All three Kirchhoff index variants by direct double summation."""
    w = omega.omega
    pi = np.asarray(pi, dtype=float)
    n = omega.n
    kirchhoff = float(w.sum())
    multiplicative = float(pi @ w @ pi)
    additive = float(2.0 * (pi @ w).sum())  # symmetry merges the two weights
    return KirchhoffReport(
        kirchhoff=kirchhoff,
        multiplicative=multiplicative,
        additive=additive,
        additive_lower=2.0 * t_av,
        additive_upper=2.0 * t_av * (n + 1),
    )


def foster_sum(
    chain: StochasticMatrix,
    omega: ResistanceMatrix,
    m: int,
    analysis: ChainAnalysis,
    *,
    tol: Tolerances = DEFAULT,
) -> tuple[float, float]:
    """Both sides of the reversible-chain trace identity for P^m.

    Returns
    -------
    (lhs, rhs) : tuple of float
        lhs = sum_{i,j} pi[j] (P^m)[j, i] Omega[i, j],
        rhs = 2 Tr(diag(pi) sum_{k=0}^{m-1} (P^k - Pi)).

    Detailed balance is the verdict ``analysis.ergodicity.is_reversible``
    already holds. The summation-order-reversed lhs is also computed and
    must agree, which is exactly what reversibility guarantees.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not analysis.ergodicity.is_reversible:
        raise NotReversibleError("trace identity requires detailed balance")
    P = chain.P
    pi = analysis.pi
    pm = linalg.matrix_power(P, m)
    weighted = pi[:, None] * pm
    lhs = float((weighted.T * omega.omega).sum())
    lhs_transposed = float((weighted * omega.omega).sum())
    if abs(lhs - lhs_transposed) > tol.foster * (1.0 + abs(lhs)):
        raise NotReversibleError(
            f"index-order sums disagree by {abs(lhs - lhs_transposed):.3e}"
        )
    partial = np.zeros_like(P)
    power = np.eye(chain.n)
    for _ in range(m):
        partial = partial + power - analysis.Pi
        power = power @ P
    rhs = float(2.0 * np.trace(pi[:, None] * partial))
    return lhs, rhs


def foster_first_formula(chain: StochasticMatrix, omega: ResistanceMatrix) -> float:
    """Unweighted edge sum, sum_{i,j} P[i, j] Omega[i, j].

    For a reversible doubly stochastic chain this collapses to 2(n - 1),
    mirroring Foster's classical edge-resistance sum on graphs.
    """
    return float((chain.P * omega.omega).sum())
