r"""Spanning in-forest weights as an independent, exact combinatorial oracle.

A spanning in-forest of the chain's weighted digraph G(P) gives every
non-root state one outgoing arc to a different state, with no cycle; its
weight is the product of the chosen transition probabilities (empty
product = 1). Self-loops are never arcs of a forest, so the diagonal of P
never enters the weights. The in-tree weights q_j (one root, j) and the
2-tree forest weights f[i, j] (roots j and some r, with i in the tree of r)
recover the chain exactly:

    pi[j] = q[j] / q_total,    E_i(tau_j) = f[i, j] / q[j],

and the resistance distance as (f[i, j] + f[j, i]) / q_total.

The weights come from the all-minors matrix-tree theorem (Chaiken 1982).
With L = diag(off-diagonal row mass) - (off-diagonal part of P) and L_{-j}
the matrix L without row and column j,

    q_j = det(L_{-j}),    f[:, j] = adj(L_{-j}) 1   (rows other than j).

Every float of P is an integer over a power of two, so the off-diagonal
arcs are scaled to integers over one common power of two and both formulas
are evaluated in Python integers by fraction-free (Bareiss 1968)
elimination, whose divisions are all exact. No floating-point arithmetic
happens until each weight is rounded once to the nearest float. L_{-j} of
an ergodic chain is a nonsingular M-matrix, so its leading principal minors
(the elimination's pivots) are positive and no pivoting is needed. The cost
is O(n^4) integer operations; the cap of n <= 8 keeps the default
``analyze`` report cheap and can be raised by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StochasticMatrix
from .errors import NotErgodicError, TooLargeError
from .resistance import ResistanceMatrix, resistance_matrix

DEFAULT_MAX_STATES = 8


@dataclass(frozen=True, eq=False)
class ForestWeights:
    """Forest weight aggregates of one chain.

    ``f[i, i]`` is identically zero: the defining containment (one tree
    holding i, the other rooted at j) is impossible for i = j, which keeps
    E_i(tau_i) = 0 and the resistance diagonal exactly zero.
    """

    q_roots: np.ndarray   # q_roots[j]: total weight of in-trees rooted at j
    q_total: float        # sum of q_roots
    f: np.ndarray         # f[i, j]: 2-tree forests with i in the tree not rooted at j

    @property
    def n(self) -> int:
        return len(self.q_roots)


def enumerate_forests(
    chain: StochasticMatrix,
    max_n: int = DEFAULT_MAX_STATES,
) -> ForestWeights:
    """Exact weights of all spanning in-forests of G(P) with one or two roots.

    Raises
    ------
    TooLargeError
        If the chain has more than ``max_n`` states.
    NotErgodicError
        If the chain is not ergodic (q_total > 0 needs irreducibility).
    """
    n = chain.n
    if n > max_n:
        raise TooLargeError(f"enumeration capped at n <= {max_n}, got {n}")
    if not chain.is_ergodic:
        raise NotErgodicError("forest weights are defined here for ergodic chains")

    # arc i -> k has weight A[i][k] / den, den = 2**e common to every arc
    ratios = [
        [p.as_integer_ratio() if k != i else (0, 1) for k, p in enumerate(row)]
        for i, row in enumerate(chain.P.tolist())
    ]
    den = max(d for row in ratios for _, d in row)
    A = [[num * (den // d) for num, d in row] for row in ratios]
    L = [[sum(row) if k == i else -a for k, a in enumerate(row)] for i, row in enumerate(A)]

    q_scale = den ** (n - 1)       # a tree has n - 1 arcs
    f_scale = den ** max(n - 2, 0)  # a 2-tree forest has n - 2
    q_exact = []
    f_rows = [[0.0] * n for _ in range(n)]
    for j in range(n):
        others = [s for s in range(n) if s != j]
        det, adj_sum = _det_and_adjugate_sum([[L[r][c] for c in others] for r in others])
        q_exact.append(det)
        for i, y in zip(others, adj_sum):
            f_rows[i][j] = y / f_scale
    q_roots = np.array([det / q_scale for det in q_exact])
    f = np.array(f_rows)
    q_roots.setflags(write=False)
    f.setflags(write=False)
    return ForestWeights(q_roots=q_roots, q_total=sum(q_exact) / q_scale, f=f)


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


def stationary_from_forest(fw: ForestWeights) -> np.ndarray:
    """pi[j] = q_roots[j] / q_total."""
    pi = fw.q_roots / fw.q_total
    pi.setflags(write=False)
    return pi


def hitting_from_forest(fw: ForestWeights) -> np.ndarray:
    """E_i(tau_j) = f[i, j] / q_roots[j], zero diagonal."""
    H = fw.f / fw.q_roots[None, :]
    np.fill_diagonal(H, 0.0)
    H.setflags(write=False)
    return H


def omega_from_forest(fw: ForestWeights) -> ResistanceMatrix:
    """Omega[i, j] = (f[i, j] + f[j, i]) / q_total."""
    return resistance_matrix((fw.f + fw.f.T) / fw.q_total, "forest")
