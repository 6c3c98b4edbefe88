import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import hdsa.linalg
from hdsa.linalg import (
    LinAlgWarning,
    LinalgError,
    SpdOperator,
    b_orthonormalize,
    cho_solve,
    cholesky_in_place,
    dense_svd,
    dense_sym_eig,
    lu_factor,
    lu_solve,
    matmul,
    solve_tridiagonal,
)


def random_spd(n, seed=0, cond=1e3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0, -np.log10(cond), n)
    return q @ np.diag(d) @ q.T


def banded_spd(n, kd, seed=0):
    """An exactly symmetric, diagonally dominant n x n matrix with kd
    random diagonals on each side of the main one."""
    rng = np.random.default_rng(seed)
    m = np.diag(2.0 * kd + rng.uniform(0.5, 1.5, n))
    for d in range(1, kd + 1):
        idx = np.arange(n - d)
        m[idx, idx + d] = m[idx + d, idx] = rng.uniform(-1.0, 1.0, n - d)
    return m


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
        r = scipy.linalg.cholesky(m.dense())
        basis, cols = r @ q, r @ base
        rest = cols - basis @ (basis.T @ cols)
        assert np.all(np.linalg.norm(rest, axis=0) <= 1e-12 * m.norms(base))

    def test_small_column_spanned_by_larger_ones_drops(self):
        # six unit-norm combinations of six columns with B-norms 1 down to
        # 1e-8 come first and span them all; what is left of the 1e-8 column
        # after them is rounding, about 1e-16, which is large against its own
        # norm and nothing against the block's largest
        kept = []
        for seed in range(100):
            m = SpdOperator(random_spd(30, seed=seed))
            rng = np.random.default_rng(seed)
            base = rng.standard_normal((30, 6))
            base = base / m.norms(base) * np.logspace(0, -8, 6)
            combos = base @ rng.standard_normal((6, 6))
            q, dropped = b_orthonormalize(np.column_stack([combos / m.norms(combos), base]), m)
            kept.append(q.shape[1])
            assert dropped == 12 - q.shape[1]
        assert kept == [6] * 100

    def test_no_columns_give_an_empty_basis(self):
        q, dropped = b_orthonormalize(np.zeros((5, 0)), SpdOperator(random_spd(5)))
        assert q.shape == (5, 0)
        assert dropped == 0


def _layouts(a):
    """``a`` as a C-ordered and as a Fortran-ordered array."""
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a)}


def _operands(n, seed):
    """Right-hand sides: a vector and a (n, 3) block in both orders."""
    rng = np.random.default_rng(seed)
    return {"vector": rng.standard_normal(n), **_layouts(rng.standard_normal((n, 3)))}


def _value_error(call):
    """The message of the ValueError that ``call()`` raises."""
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


class TestKernels:
    """Each kernel returns the bits of the scipy.linalg wrapper it replaces."""

    def test_cholesky_in_place_is_scipys_cho_factor(self):
        """R over the diagonal and M's own entries below it, in M's array."""
        m = random_spd(20, seed=40)
        a = np.asfortranarray(m)
        assert cholesky_in_place(a)
        assert np.array_equal(a, scipy.linalg.cho_factor(m)[0])
        assert np.array_equal(np.tril(a, -1), np.tril(m, -1))
        a = np.asfortranarray(m - 2.0 * np.diag(np.diag(m)))
        assert not cholesky_in_place(a)

    def test_cholesky_in_place_refuses_a_copy(self):
        m = random_spd(6, seed=41)
        read_only = np.asfortranarray(m)
        read_only.flags.writeable = False
        non_finite = np.asfortranarray(m)
        non_finite[1, 1] = np.nan
        for a, match in ((m, "Fortran"), (read_only, "writeable"), (non_finite, "infs")):
            with pytest.raises(ValueError, match=match):
                cholesky_in_place(a)

    def test_cho_solve_is_scipys(self):
        """A block takes ``potrs``, a vector two triangular ``dtrsv``, first
        with R^T and then with R, reading R's upper triangle only;
        test_optimizer's TestInverseNormEstimate checks the vector against
        ``dpotrs``."""
        r, _ = scipy.linalg.cho_factor(random_spd(20, seed=31))
        for name, b in _operands(20, 32).items():
            if b.ndim == 1:
                y = scipy.linalg.blas.dtrsv(r, b, lower=0, trans=1)
                ref = scipy.linalg.blas.dtrsv(r, y, lower=0, trans=0)
            else:
                ref = scipy.linalg.cho_solve((r, False), b)
            assert np.array_equal(cho_solve(r, b), ref), name

    def test_solve_tridiagonal_is_scipys(self):
        rng = np.random.default_rng(35)
        ab = rng.standard_normal((3, 20))
        ab[1] += 4.0
        for name, b in _operands(20, 36).items():
            ref = scipy.linalg.solve_banded((1, 1), ab, b)
            assert np.array_equal(solve_tridiagonal(ab, b), ref), name

    def test_zero_column_blocks_skip_lapack(self, monkeypatch):
        """gtsv and tbtrs crash the process on an (n, 0) block, so the
        kernels return the (n, 0) result without calling them."""

        def no_call(*args, **kwargs):
            raise AssertionError("LAPACK called on an empty block")

        ab = np.ones((3, 6))
        ab[1] += 4.0
        m = SpdOperator(banded_spd(6, 1))
        monkeypatch.setattr(hdsa.linalg, "_dgtsv", no_call)
        monkeypatch.setattr(hdsa.linalg, "_dtbtrs", no_call)
        empty = np.zeros((6, 0))
        assert solve_tridiagonal(ab, empty).shape == (6, 0)
        for trans in (False, True):
            assert m.solve_factor(empty, trans=trans).shape == (6, 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_lu_is_scipys(self, order, trans):
        a = _layouts(np.random.default_rng(37).standard_normal((20, 20)))[order]
        lu, piv = lu_factor(a)
        ref_lu, ref_piv = scipy.linalg.lu_factor(a)
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
        for name, b in _operands(20, 38).items():
            ref = scipy.linalg.lu_solve((ref_lu, ref_piv), b, trans=trans)
            assert np.array_equal(lu_solve((lu, piv), b, trans), ref), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operands_rejected(self, bad):
        m = random_spd(6, seed=39)
        ab = np.vstack([np.ones(6), np.full(6, 4.0), np.ones(6)])
        b, m_bad, ab_bad = np.ones((6, 2)), m.copy(), ab.copy()
        for a in (b, m_bad, ab_bad):
            a[1, 1] = bad
        calls = [
            lambda: cho_solve(scipy.linalg.cholesky(m), b),
            lambda: SpdOperator(m).solve_factor(b),
            lambda: solve_tridiagonal(ab, b),
            lambda: lu_solve(lu_factor(m), b),
            lambda: SpdOperator(m).solve(b),
            lambda: SpdOperator(band=ab_bad),
            lambda: solve_tridiagonal(ab_bad, np.ones(6)),
            lambda: lu_factor(m_bad),
            lambda: SpdOperator(m_bad).solve(np.ones(6)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="infs or NaNs"):
                call()

    def test_singular_matrices_raise_scipys_errors(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solve_tridiagonal(np.zeros((3, 4)), np.ones(4))
        with pytest.warns(LinAlgWarning, match="exactly zero"):
            lu_factor(np.zeros((3, 3)))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "shape, drop",
        # tall, square and wide blocks; the last ``drop`` columns repeat the first
        [((30, 6), 0), ((30, 6), 2), ((20, 20), 0), ((20, 20), 3), ((3, 5), 0)],
    )
    def test_b_orthonormalize_qr_is_scipys(self, order, shape, drop):
        m = SpdOperator(random_spd(shape[0], seed=41))
        v = np.random.default_rng(42).standard_normal(shape)
        v[:, shape[1] - drop :] = v[:, :drop]
        v = _layouts(v)[order]
        w = m.apply_factor(v)
        q_hat, t, _ = scipy.linalg.qr(w, mode="economic", pivoting=True)
        pivots = np.abs(np.diag(t))
        rank = int(np.sum(pivots > 1e-10 * pivots[0]))
        q, dropped = b_orthonormalize(v, m)
        assert np.array_equal(q, m.solve_factor(q_hat[:, :rank]))
        assert dropped == shape[1] - rank == max(drop, shape[1] - shape[0])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 600])
    def test_dense_sym_eig_is_scipys(self, order, n):
        b = np.random.default_rng(43).standard_normal((n, n))
        t = _layouts(b + b.T)[order]
        evals, evecs = dense_sym_eig(t)
        ref_evals, ref_evecs = scipy.linalg.eigh(0.5 * (t + t.T))
        desc = np.argsort(ref_evals)[::-1]
        assert np.array_equal(evals, ref_evals[desc])
        assert np.array_equal(evecs, ref_evecs[:, desc])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(64, 20), (20, 64), (600, 16), (16, 600), (30, 30), (1, 5)])
    def test_dense_svd_is_scipys(self, order, shape):
        m = _layouts(np.random.default_rng(44).standard_normal(shape))[order]
        s, u, v = dense_svd(m)
        ref_u, ref_s, ref_vt = scipy.linalg.svd(m, full_matrices=False)
        assert np.array_equal(s, ref_s)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(v, ref_vt.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dense_kernels_reject_non_finite_input_as_scipy_did(self, bad):
        m = SpdOperator(random_spd(6, seed=45))
        a = random_spd(6, seed=46)
        a[2, 3] = a[3, 2] = bad
        calls = {
            "qr": (lambda: b_orthonormalize(a, m), lambda: scipy.linalg.qr(a)),
            "eigh": (lambda: dense_sym_eig(a), lambda: scipy.linalg.eigh(a)),
            "svd": (lambda: dense_svd(a), lambda: scipy.linalg.svd(a)),
        }
        for name, (call, ref) in calls.items():
            assert _value_error(call) == _value_error(ref), name

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_svd_is_scipys(self, shape):
        s, u, v = dense_svd(np.zeros(shape))
        ref_u, ref_s, ref_vt = scipy.linalg.svd(np.zeros(shape), full_matrices=False)
        assert (s.shape, u.shape, v.shape) == (ref_s.shape, ref_u.shape, ref_vt.T.shape)

    def test_empty_sym_eig_is_scipys(self):
        evals, evecs = dense_sym_eig(np.zeros((0, 0)))
        ref_evals, ref_evecs = scipy.linalg.eigh(np.zeros((0, 0)))
        assert (evals.shape, evecs.shape) == (ref_evals.shape, ref_evecs.shape)

    def test_cached_factor_is_read_only(self):
        op = SpdOperator(random_spd(6, seed=40))
        for array in (op.band, op._factor, op.dense()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("kd", [0, 1, 2, 19])
    def test_band_cholesky_is_scipys(self, kd):
        """pbtrf and pbtrs return the bits of scipy's cholesky_banded and
        cho_solve_banded."""
        m = banded_spd(20, kd, seed=47)
        op = SpdOperator(m)
        factor = scipy.linalg.cholesky_banded(op.band)
        assert np.array_equal(op._factor, factor)
        for name, b in _operands(20, 48).items():
            ref = scipy.linalg.cho_solve_banded((factor, False), b)
            assert np.array_equal(op.solve(b), ref), name


class TestBand:
    """SpdOperator's band kernels against a numpy dense reference."""

    @pytest.mark.parametrize("kd", [0, 1, 29])
    def test_kernels_match_dense_numpy(self, kd):
        m = banded_spd(30, kd, seed=50 + kd)
        op = SpdOperator(m)
        assert (op.kd, op.dim, op.band.shape) == (kd, 30, (kd + 1, 30))
        np.testing.assert_array_equal(op.dense(), m)
        r = op.apply_factor(np.eye(30))
        np.testing.assert_array_equal(r, np.triu(r))
        np.testing.assert_allclose(r.T @ r, m, rtol=0, atol=1e-13 * np.abs(m).max())
        rng = np.random.default_rng(51)
        for v in (rng.standard_normal(30), rng.standard_normal((30, 4))):
            scale = np.abs(v).max() * np.abs(m).max()
            np.testing.assert_allclose(op.apply(v), m @ v, rtol=0, atol=1e-14 * kd * scale)
            np.testing.assert_allclose(op.apply_factor(v), r @ v, rtol=0, atol=1e-13 * scale)
            for got, ref in (
                (op.solve(v), np.linalg.solve(m, v)),
                (op.solve_factor(v), np.linalg.solve(r, v)),
                (op.solve_factor(v, trans=True), np.linalg.solve(r.T, v)),
            ):
                assert got.shape == v.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            block = v.reshape(30, -1)
            norms = np.sqrt(np.einsum("ij,ij->j", block, m @ block))
            np.testing.assert_allclose(op.norms(block), norms, rtol=1e-13)
            assert op.norm(block[:, 0]) == pytest.approx(norms[0], rel=1e-13)

    @pytest.mark.parametrize("kd", [0, 1, 2, 29])
    def test_products_are_the_term_by_term_formula(self, kd):
        """apply and apply_factor keep each off-diagonal product in one
        reused temporary, and return the bits of the diagonal term plus,
        diagonal by diagonal, the term above and the term below it: at
        kd = 1 the three-term stencil."""
        op = SpdOperator(banded_spd(30, kd, seed=60 + kd))
        rng = np.random.default_rng(61)
        for v in (rng.standard_normal(30), rng.standard_normal((30, 5))):

            def rows(x):
                return x.reshape(x.shape + (1,) * (v.ndim - 1))

            for band, symmetric, got in (
                (op.band, True, op.apply(v)),
                (op._factor, False, op.apply_factor(v)),
            ):
                ref = rows(band[kd]) * v
                for d in range(1, kd + 1):
                    ref[:-d] = ref[:-d] + rows(band[kd - d, d:]) * v[d:]
                    if symmetric:
                        ref[d:] = ref[d:] + rows(band[kd - d, d:]) * v[:-d]
                assert np.array_equal(got, ref), (v.shape, symmetric)

    def test_band_of_a_matrix_is_its_upper_band(self):
        m = banded_spd(8, 2, seed=52)
        op = SpdOperator(m)
        band = np.zeros((3, 8))
        for d in range(3):
            band[2 - d, d:] = np.diagonal(m, d)
        np.testing.assert_array_equal(op.band, band)
        # the corner that upper band storage leaves unused reads as zero
        junk = band.copy()
        junk[0, :2] = junk[1, :1] = 7.0
        from_band = SpdOperator(band=junk)
        np.testing.assert_array_equal(from_band.band, band)
        np.testing.assert_array_equal(from_band.dense(), m)

    def test_identity_is_exact(self):
        op = SpdOperator.identity(5)
        v = np.random.default_rng(53).standard_normal((5, 2))
        assert op.kd == 0
        for call in (op.apply, op.solve, op.apply_factor, op.solve_factor):
            np.testing.assert_array_equal(call(v), v)

    def test_non_symmetric_matrix_rejected(self):
        # the upper triangle alone was factored, the whole matrix applied:
        # solve(apply([1, 2])) read [1.33, 1.33]
        with pytest.raises(ValueError, match="symmetric"):
            SpdOperator(np.array([[2.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        m = np.eye(3)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            SpdOperator(m)


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
        dgemm = hdsa.linalg._dgemm

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return dgemm(*args, **kwargs)

        monkeypatch.setattr(hdsa.linalg, "_dgemm", spy)
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
        r = SpdOperator(m).apply_factor(np.eye(12))
        assert np.allclose(r, np.triu(r))
        np.testing.assert_allclose(r.T @ r, m, atol=1e-12)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(LinalgError):
            SpdOperator(np.diag([1.0, -1.0]))

    def test_shape_errors_are_value_errors(self):
        # a wrong shape is a programming error; LinalgError, which the
        # sweep records as a failed sample, is for numerical failures
        m = SpdOperator(random_spd(6, seed=19))
        for call in (
            lambda: SpdOperator(np.ones((6, 5))),
            lambda: m.apply(np.ones(5)),
            lambda: m.solve(np.ones((6, 2, 1))),
            lambda: b_orthonormalize(np.ones((5, 2)), m),
        ):
            with pytest.raises(ValueError):
                call()

    def test_spd_operator_apply_loops_over_the_band(self, monkeypatch):
        # a product with M_Z or M_Theta costs O(n kd), no dgemm
        monkeypatch.setattr(hdsa.linalg, "matmul", None)
        m = random_spd(30, seed=17)
        rng = np.random.default_rng(18)
        for v in (rng.standard_normal(30), rng.standard_normal((30, 4))):
            np.testing.assert_allclose(
                SpdOperator(m).apply(v), m @ v, rtol=1e-13, atol=1e-13
            )

    def test_spd_operator_factors_once(self, monkeypatch):
        m = random_spd(12, seed=12, cond=10)
        calls = []
        pbtrf = hdsa.linalg._dpbtrf

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return pbtrf(*args, **kwargs)

        monkeypatch.setattr(hdsa.linalg, "_dpbtrf", spy)
        op = SpdOperator(m)
        # solve and every later caller share the one factor
        x = op.solve(np.ones(12))
        op.apply_factor(np.ones(12))
        op.solve_factor(np.ones((12, 2)), trans=True)
        assert calls == [(12, 12)]
        np.testing.assert_array_equal(op._factor, scipy.linalg.cholesky_banded(op.band))
        np.testing.assert_allclose(m @ x, np.ones(12), atol=1e-12)
        with pytest.raises(LinalgError):
            SpdOperator(np.diag([1.0, -1.0])).solve(np.ones(2))
