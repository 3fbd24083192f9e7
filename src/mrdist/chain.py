r"""Validated stochastic matrices and the core quantities of an ergodic chain.

Covers construction/validation of row-stochastic matrices, graph-theoretic
ergodicity checking, the stationary distribution pi, the fundamental matrix

    F = (I - P + Pi)^{-1},

the group inverse D = F - Pi of I - P, mean hitting times, the Kemeny
constant and seeded random chains; :func:`analyze` bundles them with Omega
from F. All returned arrays are read-only; every function is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, resistance
from .errors import (
    NegativeEntryError,
    NonFiniteEntryError,
    NotErgodicError,
    NotSquareError,
    RowSumOutOfToleranceError,
    SinkhornNoConvergenceError,
)
from .tolerances import DEFAULT, Tolerances

CHAIN_KINDS = ("ergodic", "reversible", "doubly_stochastic", "birth_death")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A validated row-stochastic matrix with optional state labels."""

    P: np.ndarray
    state_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # graph_verdict is cached, so the caller must not be able to change P
        if self.P.flags.writeable:
            object.__setattr__(self, "P", _freeze(self.P.copy()))

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @functools.cached_property
    def graph_verdict(self) -> tuple[bool, int]:
        """(strongly connected, period) of the arc graph {(i, j): P[i, j] > 0}.

        Decided as in :func:`check_ergodicity`, once per matrix: ``P`` is
        read-only and the verdict uses no tolerance.
        """
        arcs = self.P > 0.0
        level = _bfs_levels(arcs, 0)
        reached = level >= 0
        strongly_connected = bool(reached.all() and (_bfs_levels(arcs.T, 0) >= 0).all())
        # every successor of a reached state is reached
        i, j = np.nonzero(arcs & reached[:, None])
        g = int(np.gcd.reduce(level[i] + 1 - level[j]))
        return strongly_connected, g if g > 0 else 1

    @property
    def is_ergodic(self) -> bool:
        strongly_connected, period = self.graph_verdict
        return strongly_connected and period == 1

    def require_ergodic(self) -> None:
        """Raise NotErgodicError, naming the graph verdict, unless ergodic."""
        if not self.is_ergodic:
            strongly_connected, period = self.graph_verdict
            raise NotErgodicError(
                f"chain is not ergodic (strongly_connected={strongly_connected}, "
                f"period={period})"
            )


@dataclass(frozen=True)
class ErgodicityReport:
    """Structural verdicts for a stochastic matrix.

    ``is_reversible`` is judged against the computed stationary distribution
    and is therefore ``None`` (rather than ``False``) when the chain is not
    ergodic.
    """

    strongly_connected: bool
    period: int
    is_ergodic: bool
    is_doubly_stochastic: bool
    is_reversible: bool | None


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """Bundle of the derived quantities of one ergodic chain.

    Attributes
    ----------
    pi : (n,) ndarray
        Stationary distribution.
    Pi : (n, n) ndarray
        Matrix with pi in every row.
    F : (n, n) ndarray
        Fundamental matrix (I - P + Pi)^{-1}.
    D : (n, n) ndarray
        Group inverse of I - P, equal to F - Pi.
    H : (n, n) ndarray
        Mean hitting times, H[i, j] = E_i(tau_j), zero diagonal.
    omega : (n, n) ndarray
        Resistance matrix, from F by :func:`resistance.omega_from_fundamental`.
    t_av : float
        Kemeny constant / average hitting time.
    ergodicity : ErgodicityReport
        Structural verdicts, reversibility judged against ``pi``.
    """

    pi: np.ndarray
    Pi: np.ndarray
    F: np.ndarray
    D: np.ndarray
    H: np.ndarray
    omega: np.ndarray
    t_av: float
    ergodicity: ErgodicityReport


def validate(
    p,
    state_labels=None,
    *,
    tol: Tolerances = DEFAULT,
) -> StochasticMatrix:
    """Validate a raw transition matrix and renormalize its rows exactly.

    Raises
    ------
    NotSquareError, NonFiniteEntryError, NegativeEntryError
    RowSumOutOfToleranceError
        If any row sum deviates from 1 by more than ``tol.row_sum_reject``.
    """
    arr = np.array(p, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"transition matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("transition matrix contains NaN or Inf")
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise NegativeEntryError(f"negative entry P[{i},{j}] = {arr[i, j]}")
    sums = arr.sum(axis=1)
    dev = np.abs(sums - 1.0)
    if (dev > tol.row_sum_reject).any():
        i = int(np.argmax(dev))
        raise RowSumOutOfToleranceError(
            f"row {i} sums to {float(sums[i])!r}, off by more than {tol.row_sum_reject:.1e}"
        )
    arr = arr / sums[:, None]
    labels = None
    if state_labels is not None:
        labels = tuple(str(s) for s in state_labels)
        if len(labels) != arr.shape[0]:
            raise ValueError(
                f"{len(labels)} state labels for {arr.shape[0]} states"
            )
    return StochasticMatrix(_freeze(arr), labels)


def _bfs_levels(arcs: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first distance from ``root`` over the boolean arc matrix, one
    whole level a step; -1 marks a state not reached."""
    level = np.full(len(arcs), -1, dtype=int)
    frontier = np.zeros(len(arcs), dtype=bool)
    frontier[root] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = arcs[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def check_ergodicity(
    chain: StochasticMatrix, *, tol: Tolerances = DEFAULT, pi: np.ndarray | None = None
) -> ErgodicityReport:
    """Classify a chain: connectivity, period, double stochasticity, reversibility.

    Strong connectivity is decided by forward and backward graph search over
    the arcs {(i, j): P[i, j] > 0}. The period is the gcd of
    level(i) + 1 - level(j) over all arcs (i, j) reachable from state 0,
    with levels taken from a BFS; this is the standard digraph period
    algorithm and yields an exact integer with no tolerance ambiguity. This
    graph verdict is cached on the matrix as ``chain.graph_verdict``.

    Reversibility is judged against the stationary distribution, which only
    an ergodic chain has: ``pi`` when given, solved for otherwise.
    """
    P = chain.P
    strongly_connected, period = chain.graph_verdict
    is_reversible: bool | None = None
    if chain.is_ergodic:
        if pi is None:
            pi = _stationary_solve(P, tol)
        flow = pi[:, None] * P
        is_reversible = bool(np.abs(flow - flow.T).max() < tol.stochastic_check)
    return ErgodicityReport(
        strongly_connected=strongly_connected,
        period=period,
        is_ergodic=chain.is_ergodic,
        is_doubly_stochastic=bool(np.abs(P.sum(axis=0) - 1.0).max() < tol.stochastic_check),
        is_reversible=is_reversible,
    )


def _stationary_solve(P: np.ndarray, tol: Tolerances) -> np.ndarray:
    # pi (I - P) = 0 transposed, with the last equation replaced by sum(pi) = 1
    n = P.shape[0]
    a = (np.eye(n) - P).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return linalg.lu_solve(a, b, tol=tol)


def stationary(chain: StochasticMatrix, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Stationary distribution of an ergodic chain via a direct linear solve."""
    chain.require_ergodic()
    return _stationary_solve(chain.P, tol)


def pi_matrix(pi: np.ndarray) -> np.ndarray:
    """Matrix with ``pi`` stacked in every row."""
    return _freeze(np.tile(np.asarray(pi, dtype=float), (len(pi), 1)))


def fundamental_matrix(
    chain: StochasticMatrix, pi: np.ndarray, *, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Fundamental matrix F = (I - P + Pi)^{-1}.

    The inverse always exists for an ergodic chain, so a SingularMatrixError
    here signals an input-validation failure upstream.
    """
    return linalg.inverse(np.eye(chain.n) - chain.P + pi_matrix(pi), tol=tol)


def group_inverse(F: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """Group inverse D of I - P, obtained from F via D = F - Pi.

    D satisfies (I-P)D(I-P) = I-P, D(I-P)D = D and (I-P)D = D(I-P); the
    three axioms are exercised numerically by the test suite.
    """
    return _freeze(np.asarray(F, dtype=float) - np.asarray(Pi, dtype=float))


def hitting_times(F: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Mean hitting times from the fundamental matrix.

    H[i, j] = (F[j, j] - F[i, j]) / pi[j]; the diagonal is exactly zero
    analytically, so floating residue there is clamped to 0.
    """
    F = np.asarray(F, dtype=float)
    pi = np.asarray(pi, dtype=float)
    H = (np.diag(F)[None, :] - F) / pi[None, :]
    np.fill_diagonal(H, 0.0)
    return _freeze(H)


def hitting_times_oracle(chain: StochasticMatrix, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    r"""Mean hitting times by first-step analysis, independent of F.

    For each target j the vector h of hitting times from the other states
    solves

        (I - P_{-j}) h = 1,

    where P_{-j} deletes row and column j. The n systems are cut from I - P
    by one boolean mask and solved by :func:`linalg.lu_solve` as one
    (n, n-1, n-1) stack. Used as a cross-validation oracle for
    :func:`hitting_times`.
    """
    chain.require_ergodic()
    n = chain.n
    off = ~np.eye(n, dtype=bool)  # off[j, i]: state i is kept when j is the target
    systems = np.broadcast_to(np.eye(n) - chain.P, (n, n, n))[
        off[:, :, None] & off[:, None, :]
    ].reshape(n, n - 1, n - 1)
    h = linalg.lu_solve(systems, np.ones((n, n - 1)), tol=tol)
    H = np.zeros((n, n))
    H.T[off] = h.ravel()
    return _freeze(H)


def kemeny_constant(H: np.ndarray, pi: np.ndarray) -> float:
    """Kemeny constant t_av = sum_j pi[j] H[0, j].

    The random target lemma makes this sum the same from every start i; the
    ``random_target_spread`` check of an ``analyze`` report judges how far
    the computed rows of ``H @ pi`` spread.
    """
    return float((np.asarray(H, dtype=float) @ np.asarray(pi, dtype=float))[0])


def eigentime_constant(eigs: np.ndarray, *, tol: Tolerances = DEFAULT) -> float:
    """Sum of 1/(1 - lambda) over the non-unit eigenvalues of P.

    Equals the Kemeny constant for an ergodic chain. The sum is taken in
    complex arithmetic and its real part is returned: the non-real
    eigenvalues of a real P come in exact conjugate pairs, so the imaginary
    part is summation rounding, and the report's ``kemeny_vs_eigentime``
    check judges the real part.
    """
    lam = np.asarray(eigs, dtype=complex)
    dist = np.abs(lam - 1.0)
    unit = int(np.argmin(dist))
    if dist[unit] > tol.unit_eigenvalue:
        raise NotErgodicError("no eigenvalue within tolerance of 1")
    rest = np.delete(lam, unit)
    if rest.size and np.abs(rest - 1.0).min() <= tol.unit_eigenvalue:
        raise NotErgodicError("multiple unit eigenvalues: chain is not ergodic")
    return float(np.sum(1.0 / (1.0 - rest)).real)


def analyze(chain: StochasticMatrix, *, tol: Tolerances = DEFAULT) -> ChainAnalysis:
    """Compute pi, Pi, F, D, H, Omega, the Kemeny constant and the ergodicity
    report of an ergodic chain."""
    chain.require_ergodic()
    pi = _stationary_solve(chain.P, tol)
    Pi = pi_matrix(pi)
    F = fundamental_matrix(chain, pi, tol=tol)
    D = group_inverse(F, Pi)
    H = hitting_times(F, pi)
    t_av = kemeny_constant(H, pi)
    erg = check_ergodicity(chain, tol=tol, pi=pi)
    omega = resistance.omega_from_fundamental(F)
    return ChainAnalysis(pi=pi, Pi=Pi, F=F, D=D, H=H, omega=omega, t_av=t_av, ergodicity=erg)


def generate_random_chain(
    n: int,
    kind: str,
    seed: int,
    *,
    tol: Tolerances = DEFAULT,
) -> StochasticMatrix:
    """Deterministic seeded random chain of the requested kind.

    Kinds
    -----
    ergodic
        I.i.d. positive row entries, normalized; all-positive implies ergodic.
    reversible
        Row-normalized symmetric positive weights W, so pi_i ~ sum_k W[i, k]
        and detailed balance holds by construction.
    doubly_stochastic
        Sinkhorn balancing of a positive matrix until row and column sums
        are within 1e-10 of 1, capped at 10,000 sweeps.
    birth_death
        Tridiagonal with positive off-diagonals and positive diagonal.
    """
    if not 2 <= n <= linalg.MAX_DIM:
        raise ValueError(f"n must be in [2, {linalg.MAX_DIM}], got {n}")
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {CHAIN_KINDS}")
    rng = np.random.default_rng(seed)

    if kind == "ergodic":
        w = rng.uniform(0.05, 1.0, (n, n))
        p = w / w.sum(axis=1, keepdims=True)
    elif kind == "reversible":
        b = rng.uniform(0.05, 1.0, (n, n))
        w = b + b.T
        p = w / w.sum(axis=1, keepdims=True)
    elif kind == "doubly_stochastic":
        p = _sinkhorn(rng.uniform(0.05, 1.0, (n, n)))
    else:  # birth_death
        p = np.zeros((n, n))
        for i in range(n):
            up = rng.uniform(0.05, 0.45) if i < n - 1 else 0.0
            down = rng.uniform(0.05, 0.45) if i > 0 else 0.0
            if i < n - 1:
                p[i, i + 1] = up
            if i > 0:
                p[i, i - 1] = down
            p[i, i] = 1.0 - up - down

    return validate(p, tol=tol)


# parameters of the doubly_stochastic generator, not tolerances of a verdict
_SINKHORN_TOL = 1e-10
_SINKHORN_MAX_SWEEPS = 10_000


def _sinkhorn(w: np.ndarray) -> np.ndarray:
    for _ in range(_SINKHORN_MAX_SWEEPS):
        w = w / w.sum(axis=1, keepdims=True)
        w = w / w.sum(axis=0, keepdims=True)
        row_dev = np.abs(w.sum(axis=1) - 1.0).max()
        col_dev = np.abs(w.sum(axis=0) - 1.0).max()
        if max(row_dev, col_dev) < _SINKHORN_TOL:
            return w
    raise SinkhornNoConvergenceError(
        f"no convergence to {_SINKHORN_TOL:.1e} within {_SINKHORN_MAX_SWEEPS} sweeps"
    )
