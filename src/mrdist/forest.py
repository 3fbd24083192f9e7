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

The weights come from the all-minors matrix-tree theorem (Chaiken 1982),
read off one matrix for every root. With L = diag(off-diagonal row mass) -
(off-diagonal part of P), adj(L) = 1 q^T (Markov chain tree theorem), and
N = L + 1 e_n^T differs from L only in its last column, so the last row of
adj(N) is q and det(N) = q_total (matrix determinant lemma). N^{-1} is
Hunter's (1982) generalized inverse G of I - P, so his mean first-passage
formula E_i(tau_j) = (G[j, j] - G[i, j]) / pi[j] reads
f[i, j] = adj(N)[j, j] - adj(N)[i, j].

Every float of P is an integer over a power of two, so the arcs are scaled
to integers over one common power of two and adj(N) is found in Python
integers by one fraction-free Gauss-Jordan elimination, whose divisions are
all exact; each weight is then rounded once to the nearest float. The cost
is O(n^3) integer operations. The default cap n <= 8 is not a cost limit:
it fixes which ``analyze`` reports carry a forest section, and so which
benchmark workloads call the oracle. Callers can raise it.
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
    N = [[sum(row) if k == i else -a for k, a in enumerate(row)] for i, row in enumerate(A)]
    for row in N:  # the border 1 e_n^T, in units of 1 / den
        row[-1] += den
    adj = _adjugate(N)

    # a tree has n - 1 arcs; adj[j][j] - adj[i][j] is a 2-tree weight
    # (n - 2 arcs) times den
    scale = den ** (n - 1)
    q_exact = adj[-1]
    q_roots = np.array([q / scale for q in q_exact])
    f = np.array([[(adj[j][j] - a) / scale for j, a in enumerate(row)] for row in adj])
    q_roots.setflags(write=False)
    f.setflags(write=False)
    return ForestWeights(q_roots=q_roots, q_total=sum(q_exact) / scale, f=f)


def _adjugate(M: list[list[int]]) -> list[list[int]]:
    """adj(M) of an integer matrix whose leading principal minors are positive.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [M | I] without
    pivoting. After step k every entry is an integer determinant drawn from
    [M | I]: below row k, the leading block of order k + 1 bordered by the
    entry's row and column (Sylvester's identity); in a row i <= k, that
    block with column i replaced by the entry's column (Cramer's rule). The
    update forms each one times the previous pivot, so every ``// prev`` is
    exact, and the right half ends as det(M) M^{-1} = adj(M). The bordered
    N qualifies: its leading minors of order < n are principal minors of the
    nonsingular M-matrix L_{-n}, so positive, and det(N) = den q_total > 0.
    """
    m = len(M)
    rows = [row + [int(c == i) for c in range(m)] for i, row in enumerate(M)]
    prev = 1
    for k, row_k in enumerate(rows):
        pivot, tail_k = row_k[k], row_k[k + 1:]
        for i, row_i in enumerate(rows):
            if i != k:  # columns up to k are never read again
                factor = row_i[k]
                row_i[k + 1:] = [
                    (pivot * a - factor * b) // prev for a, b in zip(row_i[k + 1:], tail_k)
                ]
        prev = pivot
    return [row[m:] for row in rows]


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
