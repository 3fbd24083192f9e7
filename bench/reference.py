"""Extended-precision reference quantities of a chain, independent of mrdist.

The transition matrix is read from a chain file exactly (every float is a
dyadic rational) and its rows are renormalised in extended precision. Then

* pi comes from GTH state reduction (Grassmann, Taksar & Heyman 1985),
  which is subtraction-free and therefore accurate entry by entry;
* F = (I - P + Pi)^-1 comes from Gauss-Jordan elimination with partial
  pivoting;
* H[i][j] = (F[j][j] - F[i][j]) / pi[j] and
  Omega[i][j] = F[i][i] + F[j][j] - F[i][j] - F[j][i].

All arithmetic runs in mpmath at ``DPS`` decimal digits, so the reference is
exact far beyond the 1e-16 resolution of the accuracy metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mpmath import mp, mpf

DPS = 50


@dataclass(frozen=True)
class Reference:
    pi: list        # (n,) mpf
    F: list         # (n, n) mpf
    H: list         # (n, n) mpf, zero diagonal
    omega: list     # (n, n) mpf, zero diagonal
    t_av: mpf       # Kemeny constant

    @property
    def n(self) -> int:
        return len(self.pi)

    def pi_omega_pi(self) -> mpf:
        """pi^T Omega pi, the left side of the stationary-pair sum rule."""
        n = self.n
        with mp.workdps(DPS):
            return mp.fsum(
                self.pi[i] * self.omega[i][j] * self.pi[j]
                for i in range(n) for j in range(n)
            )


def read_chain_file(path: str) -> list[list[float]]:
    """Transition matrix of a JSON chain file, as Python floats."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["P"]


def _gth_stationary(P: list[list[mpf]]) -> list[mpf]:
    n = len(P)
    a = [row[:] for row in P]
    for k in range(n - 1, 0, -1):
        s = mp.fsum(a[k][:k])
        for i in range(k):
            a[i][k] /= s
        for i in range(k):
            aik = a[i][k]
            if aik:
                row_i, row_k = a[i], a[k]
                for j in range(k):
                    if row_k[j]:
                        row_i[j] += aik * row_k[j]
    x = [mpf(1)]
    for j in range(1, n):
        x.append(mp.fsum(x[i] * a[i][j] for i in range(j)))
    total = mp.fsum(x)
    return [v / total for v in x]


def _inverse(A: list[list[mpf]]) -> list[list[mpf]]:
    # in-place Gauss-Jordan: column k of the working matrix turns into column
    # k of the inverse as it is eliminated; row swaps become column swaps
    n = len(A)
    a = [row[:] for row in A]
    swaps = []
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        if p != k:
            a[k], a[p] = a[p], a[k]
            swaps.append((k, p))
        row_k = a[k]
        inv = 1 / row_k[k]
        row_k[k] = mpf(1)
        row_k = a[k] = [v * inv for v in row_k]
        for i in range(n):
            row_i = a[i]
            f = row_i[k]
            if i != k and f:
                row_i[k] = mpf(0)
                a[i] = [x - f * y for x, y in zip(row_i, row_k)]
    for k, p in reversed(swaps):
        for row in a:
            row[k], row[p] = row[p], row[k]
    return a


def reference(P_float: list[list[float]]) -> Reference:
    """Reference pi, F, H, Omega and t_av of the chain with matrix ``P_float``."""
    n = len(P_float)
    with mp.workdps(DPS):
        P = []
        for row in P_float:
            exact = [mpf(v) for v in row]
            total = mp.fsum(exact)
            P.append([v / total for v in exact])
        pi = _gth_stationary(P)
        A = [
            [int(i == j) - P[i][j] + pi[j] for j in range(n)]
            for i in range(n)
        ]
        F = _inverse(A)
        H = [
            [mpf(0) if i == j else (F[j][j] - F[i][j]) / pi[j] for j in range(n)]
            for i in range(n)
        ]
        omega = [
            [mpf(0) if i == j else F[i][i] + F[j][j] - F[i][j] - F[j][i]
             for j in range(n)]
            for i in range(n)
        ]
        t_av = mp.fsum(pi[j] * H[0][j] for j in range(n))
    return Reference(pi=pi, F=F, H=H, omega=omega, t_av=t_av)
