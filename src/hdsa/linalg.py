"""Dense linear algebra kernels.

Mass-weighted SPD operators, weighted orthonormalization, and the small dense
factorizations used by the randomized SVD and the dense verification
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas

# Largest dimension formed as a dense matrix: the reduced Hessian's n_z, the
# assembled sensitivity operator's n_z + n_theta, and KktOperator.dense().
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
# (the 16- and 64-node weighting matrices of the small problems).
SERIAL_GEMV_MAX = 9216


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
    threads, such as ``@`` of the 600 x 600 M_Z with a block, leaves them
    competing for the cores with the threads of scipy's ``eigh``, Cholesky
    and ``dgemm``. So products run through scipy's BLAS ``dgemm``; only a
    matrix-vector product with fewer than ``SERIAL_GEMV_MAX`` matrix
    entries takes ``@``. The callers are ``SpdOperator.apply`` (M_Z and
    M_Theta), the R_Z product of the exact weighted SVD, and the W products
    of the reduced Hessian and the KKT elimination. On a 2-core machine this
    halved ``hdsa verify`` at 600 diffusion nodes (0.32 to 0.17 s). There,
    ``@`` took 8.0 ms for a (2560 x 64)^T (2560 x 16) product and 7.9 ms
    for a 700 x 700 matrix-vector product, ``dgemm`` 0.20 and 0.12 ms.

    ``dgemm`` reads a C-ordered ``a`` without a copy, as the Fortran-ordered
    view ``a.T`` with the transpose flag flipped.
    """
    if b.ndim == 1 and a.size < SERIAL_GEMV_MAX:
        return a.T @ b if trans_a else a @ b
    if a.flags.c_contiguous and not a.flags.f_contiguous:
        a, trans_a = a.T, not trans_a
    out = scipy.linalg.blas.dgemm(1.0, a, b.reshape(b.shape[0], -1), trans_a=trans_a)
    return out.reshape(-1) if b.ndim == 1 else out


def as_rows(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``v`` shaped to scale the rows of ``like``, a vector or a block."""
    return v.reshape(v.shape + (1,) * (like.ndim - v.ndim))


class LinalgError(Exception):
    """Hard failure in a linear algebra kernel (dimension, definiteness)."""


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
        raise LinalgError(f"{what} expects shape ({dim},) or ({dim}, r), got {v.shape}")


class SpdOperator:
    """Symmetric positive definite operator with an exact solve.

    Dense-backed: the upper Cholesky factor is computed lazily and cached. All
    weighting/mass matrices at desk scale fit comfortably below
    ``DENSE_THRESHOLD``. ``apply`` and ``solve`` take a vector (dim,) or a
    block (dim, r).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise LinalgError("SpdOperator requires a square matrix")
        self.dim = matrix.shape[0]
        self._matrix = matrix
        self._r = None

    @classmethod
    def identity(cls, dim: int) -> "SpdOperator":
        return cls(np.eye(dim))

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        check_operand(v, self.dim)
        return matmul(self._matrix, v)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        check_operand(rhs, self.dim)
        return scipy.linalg.cho_solve((self.cholesky(), False), rhs)

    def cholesky(self) -> np.ndarray:
        """Upper-triangular R with R^T R = M, factored once."""
        if self._r is None:
            self._r = dense_cholesky(self._matrix)
        return self._r

    def dense(self) -> np.ndarray:
        return self._matrix

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
    the B-norm of the column pivoted there, so zero columns drop, and more
    vectors than the space has dimensions keep at most ``b.dim`` of them.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != b.dim:
        raise LinalgError("vector dimension does not match the weighting operator")
    if vectors.shape[1] == 0:
        return np.zeros((b.dim, 0)), 0
    r = b.cholesky()
    w = matmul(r, vectors)
    q_hat, t, piv = scipy.linalg.qr(w, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(t))
    small = pivots <= 1e-10 * np.linalg.norm(w[:, piv[: pivots.shape[0]]], axis=0)
    rank = int(np.argmax(small)) if small.any() else pivots.shape[0]
    q = scipy.linalg.solve_triangular(r, q_hat[:, :rank], lower=False)
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
    t = np.asarray(t, dtype=float)
    scale = max(_frobenius(t), 1.0)
    if _frobenius(t - t.T) > 1e-12 * scale:
        raise LinalgError("matrix is not symmetric within 1e-12")
    evals, evecs = scipy.linalg.eigh(0.5 * (t + t.T))
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def dense_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD of a small dense matrix: returns (sigma, U, V) with M = U diag(sigma) V^T."""
    m = np.asarray(m, dtype=float)
    u, s, vt = scipy.linalg.svd(m, full_matrices=False)
    return s, u, vt.T


def dense_cholesky(m: np.ndarray) -> np.ndarray:
    """Upper-triangular R with R^T R = M; hard error on non-positive pivot."""
    m = np.asarray(m, dtype=float)
    try:
        return scipy.linalg.cholesky(m, lower=False)
    except scipy.linalg.LinAlgError as exc:
        # scipy reports the 1-based order of the failing leading minor
        raise LinalgError(f"matrix is not positive definite: {exc}") from exc
