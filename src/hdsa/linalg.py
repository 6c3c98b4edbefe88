"""Dense and banded linear algebra kernels.

Banded mass-weighted SPD operators, weighted orthonormalization, the small
dense factorizations used by the randomized SVD and the dense verification
oracles, and the LAPACK kernels that every per-solve call goes through.
This is the one module that reaches scipy's LAPACK and BLAS, and it binds
them without importing ``scipy.linalg`` (see ``_f2py_modules``).
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from types import ModuleType

import numpy as np
import scipy

# Largest dimension formed as a dense matrix: the reduced Hessian's n_z and
# KktOperator.dense(). The assembled sensitivity operator holds no more
# entries, n_z * n_theta, than such a square.
DENSE_THRESHOLD = 2000

# Byte budget of one block of right-hand sides: operators that form stacked
# (n, r) blocks work through them ``block_width(n)`` columns at a time, which
# bounds the memory of a block solve whatever the number of probes. This is
# 8 columns of the 5,184 stacked KKT unknowns of the default
# advection-diffusion problem; wider blocks add peak memory for little speed.
BLOCK_BYTES = 331_776

# Matrix entries below which ``matmul`` hands a matrix-vector product to
# numpy's ``@``: OpenBLAS runs it on one thread below 2304 x 4 entries, so
# no thread pool wakes, and ``@`` costs less per call than scipy's wrapper
# (the 64 x 64 W of the README quick start).
SERIAL_GEMV_MAX = 9216


def _f2py_modules() -> tuple[ModuleType, ModuleType]:
    """scipy's LAPACK and BLAS extension modules ``scipy.linalg._flapack``
    and ``_fblas``, loaded without running ``scipy/linalg/__init__.py``.

    On a 2-core machine ``import scipy.linalg`` took 0.35-0.37 s after numpy
    and added about 28 MB of resident memory, about 0.23 s of it in scipy's
    array-API layer cloning the numpy namespace (``numpy.f2py``,
    ``numpy.ma``, ``numpy.testing``, ``numpy.polynomial``). The two
    extension modules load in about 8 ms. Their ``sys.modules`` entries go
    again once loaded, so a later ``import scipy.linalg`` imports as usual;
    an extension module initializes once per process, so its routines are
    the objects bound here. Where ``scipy.linalg`` is already imported, or
    where no spec is found, the modules come from the usual import: the
    same routines, only slower to reach.
    """
    names = ("scipy.linalg._flapack", "scipy.linalg._fblas")
    path = [os.path.join(scipy.__path__[0], "linalg")]
    imported = "scipy.linalg" in sys.modules
    specs = [] if imported else [importlib.machinery.PathFinder.find_spec(n, path) for n in names]
    if imported or None in specs:
        flapack, fblas = (importlib.import_module(name) for name in names)
        return flapack, fblas
    modules = []
    for spec in specs:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            # the extension's initialization registered it under its name
            sys.modules.pop(spec.name, None)
        modules.append(module)
    return modules[0], modules[1]


# LAPACK and BLAS routines for float64, bound once at import. scipy.linalg's
# wrappers around them (cho_solve, solve_triangular, solve_banded, cho_factor,
# lu_factor, qr, eigh, svd) spent 13-30 us a call on a 2-core machine on
# batching, dtype dispatch and argument checks, and checked a cached factor
# for infs and NaNs on every solve. The kernels below pass each routine the
# arguments and workspace sizes those wrappers pass, so their results are the
# wrappers' bit for bit; pbtrf and pbtrs are cholesky_banded and
# cho_solve_banded, and tbtrs has no wrapper. Each checks the matrix it
# factors and each right-hand side once, and trusts a factor it is handed:
# that factor was checked where it was made, and the caches keep it
# read-only.
_flapack, _fblas = _f2py_modules()
_dgemm = _fblas.dgemm
_dtrsv = _fblas.dtrsv
_dpotrf = _flapack.dpotrf
_dpotrs = _flapack.dpotrs
_dpbtrf = _flapack.dpbtrf
_dpbtrs = _flapack.dpbtrs
_dtbtrs = _flapack.dtbtrs
_dgtsv = _flapack.dgtsv
_dgetrf = _flapack.dgetrf
_dgetrs = _flapack.dgetrs
_dgeqp3 = _flapack.dgeqp3
_dorgqr = _flapack.dorgqr
_dsyevr = _flapack.dsyevr
_dsyevr_lwork = _flapack.dsyevr_lwork
_dgesdd = _flapack.dgesdd
_dgesdd_lwork = _flapack.dgesdd_lwork


def block_width(n_rows: int) -> int:
    """Columns of an (n_rows, r) float64 block that fit in ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (8 * n_rows))


def identity_columns(n: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the n x n identity."""
    e = np.zeros((n, stop - start))
    e[np.arange(start, stop), np.arange(stop - start)] = 1.0
    return e


def matmul(a: np.ndarray, b: np.ndarray, trans_a: bool = False) -> np.ndarray:
    """``a @ b``, or ``a.T @ b``, for a vector or a block ``b``.

    numpy and scipy each ship their own OpenBLAS runtime, and each runtime
    keeps its own thread pool. A product large enough to wake numpy's
    threads, such as ``@`` of the 600 x 600 state sensitivity W with a block,
    leaves them competing for the cores with the threads of scipy's
    ``eigh``, Cholesky and ``dgemm``. So products run through scipy's BLAS
    ``dgemm``; only a matrix-vector product with fewer than
    ``SERIAL_GEMV_MAX`` matrix entries takes ``@``. The callers are the W
    products of the reduced Hessian, the Newton step and the KKT
    elimination, and the products with the assembled D of
    ``exact_triples``. On a 2-core machine this halved ``hdsa verify`` at
    600 diffusion nodes (0.32 to 0.17 s). There, ``@`` took 8.0 ms for a
    (2560 x 64)^T (2560 x 16) product and 7.9 ms for a 700 x 700
    matrix-vector product, ``dgemm`` 0.20 and 0.12 ms.

    ``dgemm`` reads a C-ordered ``a`` without a copy, as the Fortran-ordered
    view ``a.T`` with the transpose flag flipped.
    """
    if b.ndim == 1 and a.size < SERIAL_GEMV_MAX:
        return a.T @ b if trans_a else a @ b
    if a.flags.c_contiguous and not a.flags.f_contiguous:
        a, trans_a = a.T, not trans_a
    out = _dgemm(1.0, a, b.reshape(b.shape[0], -1), trans_a=trans_a)
    return out.reshape(-1) if b.ndim == 1 else out


def as_rows(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``v`` shaped to scale the rows of ``like``, a vector or a block."""
    return v.reshape(v.shape + (1,) * (like.ndim - v.ndim))


class LinalgError(Exception):
    """Numerical failure in a linear algebra kernel (definiteness, symmetry).
    An operand of the wrong shape is a programming error: ValueError."""


class LinAlgWarning(RuntimeWarning):
    """An ill-conditioned or singular factor, as scipy's ``LinAlgWarning``."""


class SolveError(Exception):
    """KKT solve that did not reach the backward-error tolerance."""


@dataclass
class SolverStats:
    """One solve call: elimination passes and worst backward error of its columns."""

    iterations: int
    backward_error: float


def check_operand(v: np.ndarray, dim: int, what: str = "operand") -> None:
    """Accept a vector (dim,) or a block of columns (dim, r)."""
    if v.ndim not in (1, 2) or v.shape[0] != dim:
        raise ValueError(f"{what} expects shape ({dim},) or ({dim}, r), got {v.shape}")


def check_finite(a: np.ndarray) -> np.ndarray:
    """``a`` as a float array; the ValueError of scipy's ``check_finite``
    where it holds an inf or a NaN."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {routine}")


def _with_lwork(routine, name: str, *args, **kwargs) -> tuple:
    """``routine(*args, **kwargs)`` less its trailing ``work`` and ``info``,
    run with the workspace that its own ``lwork=-1`` query asks for, as
    scipy's ``qr`` runs ``geqp3`` and ``orgqr``."""
    *_, work, _ = routine(*args, lwork=-1, **kwargs)
    *out, _, info = routine(*args, lwork=int(work[0]), **kwargs)
    _check_info(info, name)
    return tuple(out)


def cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite the upper triangle of a Fortran-ordered ``a`` with R,
    R^T R = A, by one ``potrf`` that reads and writes that triangle only: the
    strict lower triangle keeps A's entries. False on a non-positive pivot,
    with the upper triangle then partly overwritten."""
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("cholesky_in_place needs a writeable Fortran-ordered float64 array")
    _, info = _dpotrf(check_finite(a), lower=0, overwrite_a=1, clean=0)
    _check_info(info, "potrf")
    return info == 0


def cho_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from R, R^T R = A, in the upper triangle of ``r``, whose strict
    lower triangle is not read: a vector by two triangular BLAS ``dtrsv``
    solves, 0.07 ms at n = 600 against 0.31 ms for LAPACK ``potrs``, and a
    block by one ``potrs``."""
    b = check_finite(b)
    if b.ndim == 1:
        return _dtrsv(r, _dtrsv(r, b, lower=0, trans=1), lower=0, trans=0)
    x, info = _dpotrs(r, b, lower=0)
    _check_info(info, "potrs")
    return x


def solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for a tridiagonal A, given as ``scipy.linalg.solve_banded``
    takes it with one diagonal above and one below (ab[1 + i - j, j] =
    A[i, j]), by one ``gtsv``, which an (n, 0) block would crash."""
    ab, b = check_finite(ab), check_finite(b)
    if not b.size:
        return np.zeros(b.shape)
    *_, x, info = _dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    _check_info(info, "gtsv")
    return x


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and pivots of a square ``a`` by one ``getrf``, warning as
    scipy's ``lu_factor`` does where a pivot is exactly zero."""
    lu, piv, info = _dgetrf(check_finite(a))
    _check_info(info, "getrf")
    if info > 0:
        warnings.warn(
            f"Diagonal number {info} is exactly zero. Singular matrix.",
            LinAlgWarning,
            stacklevel=2,
        )
    return lu, piv


def lu_solve(lu_piv: tuple[np.ndarray, np.ndarray], b: np.ndarray, trans: int = 0) -> np.ndarray:
    """a^-1 b, or a^-T b with ``trans`` 1, from ``lu_factor(a)``, by one ``getrs``."""
    lu, piv = lu_piv
    x, info = _dgetrs(lu, piv, check_finite(b), trans=trans)
    _check_info(info, "getrs")
    return x


class SpdOperator:
    """Symmetric positive definite operator with an exact solve, held by its
    band in LAPACK's upper band storage, ``band[kd + i - j, j] = M[i, j]``
    for ``j - kd <= i <= j``, with its upper Cholesky factor R, R^T R = M,
    factored once by ``pbtrf`` in the same layout. Both are read-only.
    ``apply`` and ``apply_factor`` loop over the kd + 1 diagonals, ``solve``
    runs ``pbtrs`` and ``solve_factor`` ``tbtrs`` (Golub and Van Loan,
    *Matrix Computations*, 4.3). Every built-in weighting matrix is
    tridiagonal; a dense matrix takes the same path at kd = n - 1. Each
    method takes a vector (dim,) or a block (dim, r).
    """

    def __init__(self, matrix: np.ndarray | None = None, band: np.ndarray | None = None):
        """The operator of a dense ``matrix``, kd read from it, or of its
        upper band storage ``band``, (kd + 1, n), whose unused corner
        band[:kd - d, :d] is read as zero. ValueError where the matrix is
        not square, finite and symmetric within 1e-12 of its norm."""
        if band is None:
            matrix = check_finite(matrix)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("SpdOperator requires a square matrix")
            if _frobenius(matrix - matrix.T) > 1e-12 * _frobenius(matrix):
                raise ValueError("SpdOperator requires a symmetric matrix")
            kd = max((d for d in range(len(matrix)) if np.diagonal(matrix, d).any()), default=0)
            band = [np.pad(np.diagonal(matrix, d), (d, 0)) for d in range(kd, -1, -1)]
        band = np.array(check_finite(band))
        if band.ndim != 2 or band.shape[0] < 1:
            raise ValueError("SpdOperator requires a band of shape (kd + 1, n)")
        self.kd, self.dim = band.shape[0] - 1, band.shape[1]
        for d in range(1, self.kd + 1):
            band[self.kd - d, :d] = 0.0
        factor, info = _dpbtrf(band, lower=0)
        _check_info(info, "pbtrf")
        if info > 0:
            raise LinalgError(f"matrix is not positive definite: {info}-th leading minor")
        band.flags.writeable = factor.flags.writeable = False
        self.band, self._factor = band, factor
        self._band_terms, self._factor_terms = self._terms(band), self._terms(factor)

    def _terms(self, band: np.ndarray) -> tuple:
        """The diagonals of ``band``, the main one first, as views made once:
        1-D for a vector operand and (n, 1) columns for a block."""
        diagonals = [band[self.kd]] + [band[self.kd - d, d:] for d in range(1, self.kd + 1)]
        return diagonals, [x[:, None] for x in diagonals]

    @classmethod
    def identity(cls, dim: int) -> "SpdOperator":
        return cls(band=np.ones((1, dim)))

    def _band_product(self, terms: tuple, v: np.ndarray, symmetric: bool) -> np.ndarray:
        """The upper triangular matrix whose diagonals are ``terms`` times v,
        or the symmetric one whose upper triangle they hold. Each
        off-diagonal product goes to one reused temporary in the operand's
        layout."""
        v = np.asarray(v, dtype=float)
        check_operand(v, self.dim)
        main, *upper = terms[v.ndim - 1]
        out = main * v
        tmp = np.empty_like(out[1:]) if upper else None
        for d, off in enumerate(upper, 1):
            t = tmp[: self.dim - d]
            out[:-d] += np.multiply(off, v[d:], out=t)
            if symmetric:
                out[d:] += np.multiply(off, v[:-d], out=t)
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._band_product(self._band_terms, v, symmetric=True)

    def apply_factor(self, v: np.ndarray) -> np.ndarray:
        """R v, R^T R = M."""
        return self._band_product(self._factor_terms, v, symmetric=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = check_finite(rhs)
        check_operand(rhs, self.dim)
        x, info = _dpbtrs(self._factor, rhs, lower=0)
        _check_info(info, "pbtrs")
        return x

    def solve_factor(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """R^-1 rhs, or R^-T rhs with ``trans``, by one ``tbtrs``, which an
        (n, 0) block would crash."""
        rhs = check_finite(rhs)
        check_operand(rhs, self.dim)
        if not rhs.size:
            return np.zeros(rhs.shape)
        x, info = _dtbtrs(self._factor, rhs, trans="T" if trans else "N")
        _check_info(info, "tbtrs")
        return x

    def dense(self) -> np.ndarray:
        """M as a new read-only n x n array."""
        out = np.diag(self.band[self.kd])
        for d in range(1, self.kd + 1):
            idx = np.arange(self.dim - d)
            out[idx, idx + d] = out[idx + d, idx] = self.band[self.kd - d, d:]
        out.flags.writeable = False
        return out

    def inner(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(v @ self.apply(w))

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    def norms(self, v: np.ndarray) -> np.ndarray:
        """M-norm of each column of a block (dim, r)."""
        return np.sqrt(np.maximum(np.einsum("ij,ij->j", v, self.apply(v)), 0.0))


def b_orthonormalize(vectors: np.ndarray, b: SpdOperator) -> tuple[np.ndarray, int]:
    """B-orthonormalize columns by one pivoted QR through B's Cholesky factor.

    With R^T R = B, the pivoted QR R V P = Q_hat T gives the basis
    Q = R^{-1} Q_hat[:, :rank], so Q^T B Q = I (Halko, Martinsson and Tropp
    2011, Alg. 4.4 take the basis from a QR). Returns ``(Q, n_dropped)``:
    the rank stops at the first pivot whose |T_kk| is at most 1e-10 times
    the block's largest B-norm, |T_00|, as the adaptive range finder cuts
    against the largest column it has seen (Alg. 4.2). So zero columns drop,
    so does a small column that larger ones already span to rounding, and
    more vectors than the space has dimensions keep at most ``b.dim`` of them.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != b.dim:
        raise ValueError("vector dimension does not match the weighting operator")
    if vectors.shape[1] == 0:
        return np.zeros((b.dim, 0)), 0
    w = check_finite(b.apply_factor(vectors))
    # scipy.linalg.qr(w, mode="economic", pivoting=True): geqp3, then Q_hat
    # from the first min(w.shape) reflectors by orgqr, in place
    qr, _, tau = _with_lwork(_dgeqp3, "geqp3", w)
    pivots = np.abs(np.diag(qr))
    (q_hat,) = _with_lwork(_dorgqr, "orgqr", qr[:, : min(w.shape)], tau, overwrite_a=1)
    small = pivots <= 1e-10 * pivots[0]
    rank = int(np.argmax(small)) if small.any() else pivots.shape[0]
    q = b.solve_factor(q_hat[:, :rank])
    return q, vectors.shape[1] - rank


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm from numpy's own loop, no BLAS thread. Right after the
    optimizer's factorizations, two ``np.linalg.norm`` calls (threaded
    ``ddot``) on a 600 x 600 matrix took a median of 0.8-8 ms and up to
    15 ms under two BLAS threads on a 2-core machine, this 0.5 ms;
    ``scipy.linalg.norm`` hands the Frobenius norm to numpy."""
    return float(np.sqrt(np.einsum("ij,ij->", m, m)))


def dense_sym_eig(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small dense symmetric matrix.

    Eigenvalues are sorted descending, eigenvectors are the matching columns.
    """
    t = check_finite(t)
    scale = max(_frobenius(t), 1.0)
    if _frobenius(t - t.T) > 1e-12 * scale:
        raise LinalgError("matrix is not symmetric within 1e-12")
    t = 0.5 * (t + t.T)
    n = t.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    # scipy.linalg.eigh(t): dsyevr on the lower triangle, every eigenpair
    lwork, liwork, _ = _dsyevr_lwork(n, lower=1)
    evals, evecs, _, _, info = _dsyevr(
        t, compute_v=1, lower=1, lwork=int(lwork), liwork=int(liwork)
    )
    _check_info(info, "syevr")
    if info > 0:
        raise np.linalg.LinAlgError("Internal Error.")
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def dense_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a dense matrix: returns (sigma, U, V) with M = U diag(sigma) V^T."""
    m = check_finite(m)
    rows, cols = m.shape
    if m.size == 0:
        return np.zeros(0), np.zeros((rows, 0)), np.zeros((cols, 0))
    # scipy.linalg.svd(m, full_matrices=False): gesdd, thin U and V^T
    lwork, _ = _dgesdd_lwork(rows, cols, compute_uv=1, full_matrices=0)
    u, s, vt, info = _dgesdd(m, compute_uv=1, full_matrices=0, lwork=int(lwork))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    _check_info(info, "gesdd")
    return s, u, vt.T

