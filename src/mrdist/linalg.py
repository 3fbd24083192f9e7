r"""Dense real-matrix kernel for desk-scale problems (n <= 64).

Contract-enforcing wrappers around LAPACK via numpy/scipy: LU solves with
partial pivoting (``dgetrf``/``dgetrs``, called directly rather than through
``scipy.linalg``'s warning and array-API wrappers) and an explicit
pivot-threshold singularity check, matrix inverse, the full complex spectrum
(Hessenberg reduction plus shifted QR, as implemented by ``dgeev``), integer
matrix powers by repeated squaring, and the trace. All functions treat their
inputs as immutable.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import (
    NoConvergenceError,
    NonFiniteEntryError,
    NotSquareError,
    SingularMatrixError,
    TooLargeError,
)
from .tolerances import DEFAULT, Tolerances

# eigen and random-chain routines are tuned for desk-scale matrices
MAX_DIM = 64


def as_dense(a) -> np.ndarray:
    """Coerce ``a`` to a float64 2-D array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise NotSquareError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return arr


def require_square(a) -> np.ndarray:
    arr = as_dense(a)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def lu_solve(a, b, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Parameters
    ----------
    a : (n, n) array_like
        Square coefficient matrix.
    b : (n,) or (n, m) array_like
        Right-hand side(s).

    Returns
    -------
    x : ndarray
        Solution with the same right-hand-side shape as ``b``.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below ``tol.pivot`` after pivoting.
    """
    a = require_square(a)
    b_arr = np.asarray(b, dtype=float)
    rhs = b_arr if b_arr.ndim == 2 else b_arr[:, None]
    if rhs.shape[0] != a.shape[0]:
        raise NotSquareError(
            f"rhs has {rhs.shape[0]} rows, expected {a.shape[0]}"
        )
    if not np.isfinite(rhs).all():
        raise NonFiniteEntryError("right-hand side contains NaN or Inf")
    # dgetrf's info > 0 marks an exactly zero pivot; the pivot check below
    # raises on it, as on any pivot under tol.pivot
    lu, piv, _ = dgetrf(a)
    smallest_pivot = np.abs(np.diag(lu)).min()
    if smallest_pivot < tol.pivot:
        raise SingularMatrixError(
            f"pivot magnitude {smallest_pivot:.3e} below threshold {tol.pivot:.1e}"
        )
    x, _ = dgetrs(lu, piv, rhs)
    return x if b_arr.ndim == 2 else x[:, 0]


def inverse(a, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Matrix inverse, computed as an LU solve against the identity."""
    a = require_square(a)
    return lu_solve(a, np.eye(a.shape[0]), tol=tol)


def eigenvalues(a) -> np.ndarray:
    """Full complex spectrum with a deterministic ordering.

    Uses LAPACK ``dgeev`` (Hessenberg reduction followed by shifted QR
    iteration); complex conjugate pairs are exact for real input. The result
    is ordered by descending modulus, ties broken by descending real part,
    then descending imaginary part, so reports are reproducible.

    Parameters
    ----------
    a : (n, n) array_like
        Square real matrix, n <= 64.

    Returns
    -------
    lam : (n,) complex ndarray
    """
    a = require_square(a)
    if a.shape[0] > MAX_DIM:
        raise TooLargeError(f"eigenvalues limited to n <= {MAX_DIM}, got {a.shape[0]}")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    # moduli rounded to 12 digits so ulp-level near-ties (conjugate pairs,
    # symmetric spectra) fall through to the real/imag tiebreaks
    mod = np.round(np.abs(lam), 12)
    order = np.lexsort((-lam.imag, -lam.real, -mod))
    return lam[order]


def matrix_power(a, m: int) -> np.ndarray:
    """``a`` raised to a non-negative integer power by repeated squaring."""
    a = require_square(a)
    if m != int(m) or m < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {m!r}")
    return np.linalg.matrix_power(a, int(m))


def trace(a) -> float:
    """Sum of the diagonal entries."""
    a = require_square(a)
    return float(np.trace(a))
