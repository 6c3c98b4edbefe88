import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.blas

import hdsa.linalg
from hdsa.linalg import (
    LinalgError,
    SpdOperator,
    b_orthonormalize,
    dense_cholesky,
    dense_svd,
    dense_sym_eig,
    matmul,
)


def random_spd(n, seed=0, cond=1e3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0, -np.log10(cond), n)
    return q @ np.diag(d) @ q.T


class TestBOrthonormalize:
    def test_b_gram_is_identity(self):
        m = SpdOperator(random_spd(20, seed=6))
        rng = np.random.default_rng(7)
        v = rng.standard_normal((20, 6))
        q, dropped = b_orthonormalize(v, m)
        assert dropped == 0
        gram = q.T @ (m.dense() @ q)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    def test_rank_deficiency_dropped(self):
        m = SpdOperator.identity(10)
        rng = np.random.default_rng(8)
        v = rng.standard_normal((10, 3))
        v = np.column_stack([v, v[:, 0] + v[:, 1]])
        q, dropped = b_orthonormalize(v, m)
        assert dropped == 1
        assert q.shape[1] == 3

    def test_more_vectors_than_dimensions_keep_a_basis(self):
        m = SpdOperator(random_spd(3, seed=9))
        v = np.random.default_rng(10).standard_normal((3, 5))
        q, dropped = b_orthonormalize(v, m)
        assert dropped == 2
        np.testing.assert_allclose(q.T @ (m.dense() @ q), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n_combos", [0, 1, 3, 5])
    def test_graded_norms_and_exact_combinations(self, n_combos):
        # six independent columns with B-norms 1 down to 1e-8, a zero column
        # and exact combinations of neighbours, shuffled. A combination of a
        # unit column with a 1e-8 one would carry rounding of 1e-16 against
        # the small column's norm, so it would decide nothing
        m = SpdOperator(random_spd(30, seed=16))
        rng = np.random.default_rng(17)
        base = rng.standard_normal((30, 6))
        base = base / m.norms(base) * np.logspace(0, -8, 6)
        combos = base[:, :-1] * rng.standard_normal(5) + base[:, 1:] * rng.standard_normal(5)
        v = np.column_stack([base, np.zeros(30), combos[:, :n_combos]])
        v = v[:, rng.permutation(v.shape[1])]
        q, dropped = b_orthonormalize(v, m)
        assert dropped == 1 + n_combos
        assert q.shape == (30, 6)
        np.testing.assert_allclose(q.T @ (m.dense() @ q), np.eye(6), atol=1e-12)
        # each independent column lies in the span of Q, to its own B-norm;
        # measured in the coordinates R x, R^T R = B, where the rounding of
        # the check itself does not grow with the condition number of B
        r = m.cholesky()
        basis, cols = r @ q, r @ base
        rest = cols - basis @ (basis.T @ cols)
        assert np.all(np.linalg.norm(rest, axis=0) <= 1e-12 * m.norms(base))

    def test_no_columns_give_an_empty_basis(self):
        q, dropped = b_orthonormalize(np.zeros((5, 0)), SpdOperator(random_spd(5)))
        assert q.shape == (5, 0)
        assert dropped == 0


class TestDense:
    def test_sym_eig_descending_and_reconstruction(self):
        a = random_spd(15, seed=9)
        evals, evecs = dense_sym_eig(a)
        assert np.all(np.diff(evals) <= 0)
        np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.T, a, atol=1e-10)

    def test_sym_eig_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(LinalgError):
            dense_sym_eig(a)

    def test_sym_eig_rejects_small_antisymmetric_part_of_a_large_matrix(self):
        a = random_spd(600, seed=13)
        rng = np.random.default_rng(14)
        b = rng.standard_normal((600, 600))
        skew = b - b.T
        # antisymmetric part 1e-10 relative to the matrix, above the 1e-12 gate
        a = a + 1e-10 * np.linalg.norm(a) / np.linalg.norm(skew) * skew
        with pytest.raises(LinalgError, match="not symmetric"):
            dense_sym_eig(a)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(15)
        # (40, 7) with a vector takes ``@``, every other case ``dgemm``
        for shape, layout, trans, cols in itertools.product(
            [(40, 7), (120, 100)], ["C", "F", "strided"], [False, True], [None, 3]
        ):
            full = rng.standard_normal((2 * shape[0], 2 * shape[1]))
            a = {
                "C": np.ascontiguousarray(full[: shape[0], : shape[1]]),
                "F": np.asfortranarray(full[: shape[0], : shape[1]]),
                "strided": full[::2, ::2],
            }[layout]
            rows = shape[0] if trans else shape[1]
            b = rng.standard_normal(rows if cols is None else (rows, cols))
            ref = (a.T if trans else a) @ b
            got = matmul(a, b, trans_a=trans)
            case = f"{shape} {layout} trans_a={trans} cols={cols}"
            assert got.shape == ref.shape, case
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13, err_msg=case)

    @pytest.mark.parametrize(
        "n, cols, dgemm_calls",
        # 95^2 < SERIAL_GEMV_MAX = 96^2
        [(95, None, 0), (96, None, 1), (16, 8, 1)],
    )
    def test_matmul_takes_dgemm_except_for_small_vectors(
        self, monkeypatch, n, cols, dgemm_calls
    ):
        calls = []
        dgemm = scipy.linalg.blas.dgemm

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return dgemm(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.blas, "dgemm", spy)
        a = random_spd(n, seed=19)
        b = np.ones(n if cols is None else (n, cols))
        np.testing.assert_allclose(matmul(a, b), a @ b, rtol=1e-13, atol=1e-13)
        assert len(calls) == dgemm_calls

    @pytest.mark.parametrize("trans", [False, True])
    def test_matmul_reads_c_ordered_matrix_without_copy(self, trans):
        # the diffusion mass matrix M_Z at 600 nodes is C-ordered
        a = np.random.default_rng(16).standard_normal((600, 600))
        assert a.flags.c_contiguous
        v = np.ones(600)
        tracemalloc.start()
        try:
            matmul(a, v, trans_a=trans)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes

    def test_svd_reconstruction(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 5))
        s, u, v = dense_svd(a)
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, a, atol=1e-12)

    def test_cholesky_factorization(self):
        m = random_spd(12, seed=11, cond=10)
        r = dense_cholesky(m)
        assert np.allclose(r, np.triu(r))
        np.testing.assert_allclose(r.T @ r, m, atol=1e-12)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(LinalgError):
            dense_cholesky(np.diag([1.0, -1.0]))

    def test_spd_operator_apply_runs_through_matmul(self, monkeypatch):
        m = random_spd(30, seed=17)
        calls = []

        def spy(a, b, trans_a=False):
            calls.append(b.shape)
            return matmul(a, b, trans_a=trans_a)

        monkeypatch.setattr(hdsa.linalg, "matmul", spy)
        rng = np.random.default_rng(18)
        for v in (rng.standard_normal(30), rng.standard_normal((30, 4))):
            np.testing.assert_allclose(
                SpdOperator(m).apply(v), m @ v, rtol=1e-13, atol=1e-13
            )
        assert calls == [(30,), (30, 4)]

    def test_spd_operator_factors_once(self):
        m = random_spd(12, seed=12, cond=10)
        op = SpdOperator(m)
        r = op.cholesky()
        # solve and every later caller share the one factor
        x = op.solve(np.ones(12))
        assert op.cholesky() is r
        np.testing.assert_array_equal(r, dense_cholesky(m))
        np.testing.assert_allclose(m @ x, np.ones(12), atol=1e-12)
        with pytest.raises(LinalgError):
            SpdOperator(np.diag([1.0, -1.0])).solve(np.ones(2))
