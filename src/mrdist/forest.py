r"""Spanning in-forest enumeration as an independent combinatorial oracle.

Each state of the chain's weighted digraph G(P) either is a root (no
outgoing arc) or selects one outgoing arc to a different state; assignments
whose functional digraph is acyclic are spanning in-forests, weighted by the
product of the selected transition probabilities (empty product = 1).
Accumulating single-root assignments gives the in-tree weights q_j, and
two-root assignments give the 2-tree forest weights f[i, j] (i in the tree
not rooted at j). These recover the chain exactly:

    pi[j] = q[j] / q_total,    E_i(tau_j) = f[i, j] / q[j],

and the resistance distance as (f[i, j] + f[j, i]) / q_total.

Enumeration walks a per-state choice vector with backtracking, pruning any
branch that closes a cycle or commits to a third root (only 1- and 2-root
assignments contribute). Self-loop arcs are never selectable: a converging
tree contains no cycles and a self-loop is a 1-cycle, so diagonal entries of
P never enter the weights. Exponential time; capped at n <= 8 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import StochasticMatrix
from .errors import NotErgodicError, TooLargeError
from .resistance import ResistanceMatrix, resistance_matrix
from .tolerances import DEFAULT, Tolerances

DEFAULT_MAX_STATES = 8

_UNASSIGNED = -2
_ROOT = -1


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
    *,
    tol: Tolerances = DEFAULT,
) -> ForestWeights:
    """Enumerate all spanning in-forests of G(P) with one or two roots.

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

    P = chain.P
    arcs = [[k for k in range(n) if k != i and P[i, k] > 0.0] for i in range(n)]
    succ = [_UNASSIGNED] * n
    q_roots = np.zeros(n)
    f = np.zeros((n, n))

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

    def record(weight: float) -> None:
        roots = [v for v in range(n) if succ[v] == _ROOT]
        if len(roots) == 1:
            q_roots[roots[0]] += weight
        elif len(roots) == 2:
            r0, r1 = roots
            for v in range(n):
                u = v
                while succ[u] >= 0:
                    u = succ[u]
                f[v, r1 if u == r0 else r0] += weight

    def descend(i: int, n_roots: int, weight: float) -> None:
        if i == n:
            record(weight)
            return
        if n_roots < 2:  # a third root can no longer contribute
            succ[i] = _ROOT
            descend(i + 1, n_roots + 1, weight)
        for k in arcs[i]:
            if not closes_cycle(i, k):
                succ[i] = k
                descend(i + 1, n_roots, weight * P[i, k])
        succ[i] = _UNASSIGNED

    descend(0, 0, 1.0)
    q_roots.setflags(write=False)
    f.setflags(write=False)
    return ForestWeights(q_roots=q_roots, q_total=float(q_roots.sum()), f=f)


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
