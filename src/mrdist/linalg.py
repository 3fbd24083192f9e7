r"""Dense real-matrix kernel for desk-scale problems (n <= 64).

Contract-enforcing wrappers around LAPACK via numpy/scipy: LU solves with
partial pivoting (``dgetrf``/``dgetrs``) and an explicit pivot-threshold
singularity check, for a stack of equal-size matrices validated once and
factored one by one (one matrix is a stack of one); matrix inverse; and the
full complex spectrum (Hessenberg reduction plus shifted QR, as implemented
by ``dgeev``). All functions treat their inputs as immutable and return
read-only arrays.

``dgetrf`` and ``dgetrs`` are taken from scipy's f2py extension module
``scipy.linalg._flapack``, which this module loads straight from its file
under that name. ``scipy.linalg.lapack`` re-exports the same two callables
from the same module, so results are those of scipy's own LAPACK build. What
the direct load skips is the ``scipy.linalg`` package ``__init__``: it pulls
in scipy's array-API layer and, through it, ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``, about 320 modules that cost more than half of every
command-line start-up. Loading the extension registers it in ``sys.modules``
under its real name, so a later ``import scipy.linalg`` gets this very
module, and ``scipy.linalg.lapack.dgetrf`` is ``dgetrf`` here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteEntryError,
    NotSquareError,
    SingularMatrixError,
    TooLargeError,
)
from .tolerances import DEFAULT, Tolerances


def _load_flapack():
    """scipy's LAPACK extension module, loaded without ``scipy.linalg``."""
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    linalg_dirs = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, linalg_dirs)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs

# eigen and random-chain routines are tuned for desk-scale matrices
MAX_DIM = 64


def require_square(a) -> np.ndarray:
    """Coerce ``a`` to a float64 square matrix, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return arr


def lu_solve(a, b, *, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Parameters
    ----------
    a : (k, m, m) or (m, m) array_like
        A stack of k square coefficient matrices, solved one by one; one
        (m, m) matrix is solved as a stack of one.
    b : (..., m) or (..., m, r) array_like
        Right-hand side(s), one vector or one block per matrix of ``a``.

    Returns
    -------
    x : ndarray
        Read-only solution with the same shape as ``b``.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude of any matrix falls below ``tol.pivot`` after
        pivoting, with the smallest pivot of the first such matrix in stack
        order.
    """
    a_in, b_in = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    single = a_in.ndim == 2
    a, b_arr = (a_in[None], b_in[None]) if single else (a_in, b_in)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NotSquareError(f"expected square matrices, got shape {a_in.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    m = a.shape[-1]
    vector = b_arr.ndim == 2
    rhs = b_arr[..., None] if vector else b_arr
    if rhs.ndim != 3 or rhs.shape[0] != a.shape[0]:
        raise NotSquareError(
            f"rhs of shape {b_in.shape} does not match matrices of shape {a_in.shape}"
        )
    if rhs.shape[1] != m:
        raise NotSquareError(f"rhs has {rhs.shape[1]} rows, expected {m}")
    if not np.isfinite(rhs).all():
        raise NonFiniteEntryError("right-hand side contains NaN or Inf")
    if a.size == 0:  # LAPACK rejects a 0 x 0 matrix; x = b is empty too
        x = b_arr.copy()
    else:
        # stacking keeps dgetrs's Fortran order; hitting_times inherits it from F,
        # and H @ pi takes a different BLAS path for a C-ordered H
        x = np.stack([_lu_solve_one(a_k, rhs_k, tol) for a_k, rhs_k in zip(a, rhs)])
        x = x[..., 0] if vector else x
    x.setflags(write=False)  # so is its view x[0]
    return x[0] if single else x


def _lu_solve_one(a: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    # dgetrf's info > 0 marks an exactly zero pivot; the pivot check below
    # raises on it, as on any pivot under tol.pivot
    lu, piv, _ = dgetrf(a)
    smallest_pivot = np.abs(np.diag(lu)).min()
    if smallest_pivot < tol.pivot:
        raise SingularMatrixError(
            f"pivot magnitude {smallest_pivot:.3e} below threshold {tol.pivot:.1e}"
        )
    return dgetrs(lu, piv, rhs)[0]


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
    lam : (n,) complex ndarray, read-only
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
    lam = lam[np.lexsort((-lam.imag, -lam.real, -np.round(np.abs(lam), 12)))]
    lam.setflags(write=False)
    return lam
