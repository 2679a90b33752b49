"""Unit tests for the dense kernels (numerics vs NumPy/LAPACK references)."""

import numpy as np
import pytest

from repro.blas.blocked import BlockedMatrix
from repro.blas.dense import gemm_update, gemv, potf2, syrk_update, trsm_right_lt
from repro.blas.spd import random_spd
from repro.util.exceptions import SingularBlockError, ValidationError

BLOCK_SIZES = [1, 2, 32, 128]


def _reference_first_bad_pivot(a):
    """The textbook right-looking dpotf2 column loop, run only to name
    the first pivot that is not positive and finite (or None)."""
    a = np.tril(a)
    for j in range(a.shape[0]):
        pivot = a[j, j]
        if not pivot > 0.0 or not np.isfinite(pivot):
            return j
        a[j:, j] /= np.sqrt(pivot)
        a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j + 1 :, j])
    return None


class TestSyrkUpdate:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((8, 8))
        a = rng.standard_normal((8, 5))
        expected = c - a @ a.T
        syrk_update(c, a)
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_in_place(self):
        c = np.zeros((4, 4))
        a = np.eye(4)
        view = c
        syrk_update(c, a)
        assert view is c
        np.testing.assert_allclose(c, -np.eye(4))

    def test_rejects_rectangular_c(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((3, 4)), np.zeros((3, 2)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((4, 4)), np.zeros((3, 2)))

    def test_rejects_float32(self):
        with pytest.raises(ValidationError):
            syrk_update(np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2)))


class TestGemmUpdate:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((6, 4))
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((4, 3))
        expected = c - a @ b.T
        gemm_update(c, a, b)
        np.testing.assert_allclose(c, expected, rtol=1e-14)

    def test_rejects_inner_mismatch(self):
        with pytest.raises(ValidationError, match="inner"):
            gemm_update(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            gemm_update(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 3)))


class TestPotf2:
    def test_matches_lapack(self):
        a = random_spd(16, rng=3)
        expected = np.linalg.cholesky(a)
        potf2(a)
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-14)

    def test_zeroes_upper_triangle(self):
        a = random_spd(8, rng=4)
        potf2(a)
        assert np.all(a[np.triu_indices(8, k=1)] == 0.0)

    def test_identity(self):
        a = np.eye(4)
        potf2(a)
        np.testing.assert_allclose(a, np.eye(4))

    def test_1x1(self):
        a = np.array([[9.0]])
        potf2(a)
        assert a[0, 0] == 3.0

    def test_fail_stop_on_negative_pivot(self):
        a = random_spd(8, rng=5)
        a[3, 3] = -1.0
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=7)
        assert exc_info.value.block_index == 7
        assert exc_info.value.pivot <= 3

    def test_fail_stop_on_nan(self):
        a = random_spd(4, rng=6)
        a[0, 0] = np.nan
        with pytest.raises(SingularBlockError):
            potf2(a)

    def test_fail_stop_on_zero_pivot(self):
        a = np.zeros((2, 2))
        with pytest.raises(SingularBlockError):
            potf2(a)

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_matches_cholesky_at_block_sizes(self, b):
        a = random_spd(b, rng=20 + b)
        expected = np.linalg.cholesky(a)
        potf2(a)
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-14)
        assert not np.triu(a, k=1).any()

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_diagonal_tile_of_a_strided_matrix(self, b):
        """A tile view (row stride n) is factored in place; its
        neighbours are left untouched."""
        n = 4 * b
        m = BlockedMatrix(random_spd(n, rng=30 + b), b)
        before = m.data.copy()
        expected = np.linalg.cholesky(m.block(2, 2))
        potf2(m.block(2, 2), block_index=2)
        np.testing.assert_allclose(m.block(2, 2), expected, rtol=1e-12, atol=1e-14)
        outside = np.ones((n, n), dtype=bool)
        outside[2 * b : 3 * b, 2 * b : 3 * b] = False
        np.testing.assert_array_equal(m.data[outside], before[outside])

    def test_upper_triangle_is_not_read(self):
        a = random_spd(32, rng=40)
        expected = np.linalg.cholesky(a)
        a[np.triu_indices(32, k=1)] = np.nan
        potf2(a)
        np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-14)
        assert not np.triu(a, k=1).any()

    @pytest.mark.parametrize("b", [2, 32, 128])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_fail_stop_reports_the_pivot(self, b, bad):
        a = random_spd(b, rng=50 + b)
        k = b // 2
        a[k, k] = bad
        expected_pivot = _reference_first_bad_pivot(a)
        untouched = a.copy()
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a, block_index=5)
        err = exc_info.value
        assert err.block_index == 5
        assert err.pivot == expected_pivot == k
        if np.isnan(bad):
            assert np.isnan(err.value)
        elif np.isinf(bad):
            assert err.value == bad
        else:
            assert err.value <= 0.0
        # The fail-stop path leaves the tile as it found it.
        np.testing.assert_array_equal(a, untouched)

    def test_fail_stop_on_nan_below_the_diagonal(self):
        """A NaN in the lower triangle surfaces at the first pivot its
        row feeds, exactly where the column loop meets it."""
        a = random_spd(16, rng=60)
        a[9, 3] = np.nan
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a)
        assert exc_info.value.pivot == _reference_first_bad_pivot(a) == 9
        assert np.isnan(exc_info.value.value)

    def test_fail_stop_on_indefinite_trailing_block(self):
        """A pivot that only goes negative after elimination is still found."""
        a = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        a[1, 1] = 0.5  # Schur complement 0.5 - 1 = -0.5
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a)
        assert exc_info.value.pivot == 1
        assert exc_info.value.value == pytest.approx(-0.5)

    def test_fail_stop_on_first_pivot(self):
        a = random_spd(8, rng=61)
        a[0, 0] = -2.0
        with pytest.raises(SingularBlockError) as exc_info:
            potf2(a)
        assert (exc_info.value.pivot, exc_info.value.value) == (0, -2.0)


class TestTrsmRightLT:
    def test_solves_system(self):
        rng = np.random.default_rng(7)
        ell = np.linalg.cholesky(random_spd(5, rng=8))
        x_true = rng.standard_normal((7, 5))
        b = x_true @ ell.T
        trsm_right_lt(b, ell)
        np.testing.assert_allclose(b, x_true, rtol=1e-12)

    def test_identity_factor_is_noop(self):
        b = np.arange(12, dtype=np.float64).reshape(3, 4)
        expected = b.copy()
        trsm_right_lt(b, np.eye(4))
        np.testing.assert_allclose(b, expected)

    def test_rejects_column_mismatch(self):
        with pytest.raises(ValidationError):
            trsm_right_lt(np.zeros((3, 4)), np.eye(5))

    def test_two_row_strip(self):
        """The checksum-update case: a 2×B strip through the solve."""
        ell = np.linalg.cholesky(random_spd(6, rng=9))
        strip_true = np.random.default_rng(10).standard_normal((2, 6))
        b = strip_true @ ell.T
        trsm_right_lt(b, ell)
        np.testing.assert_allclose(b, strip_true, rtol=1e-12)

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_solves_at_block_sizes(self, b):
        rng = np.random.default_rng(70 + b)
        ell = np.linalg.cholesky(random_spd(b, rng=71 + b))
        x_true = rng.standard_normal((3 * b, b))
        rhs = x_true @ ell.T
        trsm_right_lt(rhs, ell)
        np.testing.assert_allclose(rhs, x_true, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_strided_panel_matches_contiguous_copy(self, b):
        """``BlockedMatrix.panel`` hands out a view with row stride n; the
        solve writes only the panel, with the bits of a contiguous solve."""
        nb = 4
        m = BlockedMatrix(random_spd(nb * b, rng=80 + b), b)
        potf2(m.block(1, 1))
        panel = m.panel(2, nb, 1, 2)
        assert panel.strides[0] == nb * b * 8
        copy = np.ascontiguousarray(panel)
        before = m.data.copy()
        trsm_right_lt(panel, m.block(1, 1))
        trsm_right_lt(copy, np.ascontiguousarray(m.block(1, 1)))
        np.testing.assert_array_equal(panel, copy)
        outside = np.ones(m.data.shape, dtype=bool)
        outside[2 * b :, b : 2 * b] = False
        np.testing.assert_array_equal(m.data[outside], before[outside])

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_two_row_strip_at_block_sizes(self, b):
        ell = np.linalg.cholesky(random_spd(b, rng=90 + b))
        strip_true = np.random.default_rng(91 + b).standard_normal((2, b))
        strip = strip_true @ ell.T
        trsm_right_lt(strip, ell)
        np.testing.assert_allclose(strip, strip_true, rtol=1e-10, atol=1e-12)

    def test_strip_and_panel_share_the_checksum_relation(self):
        """Data and strip go through the same inverse, so the strip of the
        solved panel equals the solved strip up to GEMM rounding."""
        b = 128
        ell = np.linalg.cholesky(random_spd(b, rng=95))
        tile = np.random.default_rng(96).standard_normal((b, b))
        w = np.vstack([np.ones(b), np.arange(1.0, b + 1)])
        strip = w @ tile
        trsm_right_lt(tile, ell)
        trsm_right_lt(strip, ell)
        tol = 1e-9 * (w @ np.abs(tile)) + 1e-12
        assert (np.abs(w @ tile - strip) <= tol).all()

    def test_upper_triangle_of_the_factor_is_not_read(self):
        ell = np.linalg.cholesky(random_spd(32, rng=99))
        rhs = np.random.default_rng(100).standard_normal((64, 32))
        clean = rhs.copy()
        trsm_right_lt(clean, ell)
        ell[np.triu_indices(32, k=1)] = np.nan
        trsm_right_lt(rhs, ell)
        np.testing.assert_array_equal(rhs, clean)

    def test_empty_trailing_panel_is_a_no_op(self):
        ell = np.linalg.cholesky(random_spd(4, rng=97))
        b = np.zeros((0, 4))
        trsm_right_lt(b, ell)
        assert b.shape == (0, 4)

    def test_zero_pivot_yields_nan_not_a_crash(self):
        """A zero on the factor's diagonal (a storage fault after POTF2)
        poisons the result for verification to catch."""
        ell = np.linalg.cholesky(random_spd(8, rng=98))
        ell[3, 3] = 0.0
        b = np.ones((5, 8))
        trsm_right_lt(b, ell)
        assert not np.isfinite(b).all()


class TestGemv:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 7))
        v = rng.standard_normal(5)
        np.testing.assert_allclose(gemv(v, a), v @ a, rtol=1e-15)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            gemv(np.zeros(3), np.zeros((4, 4)))

    def test_returns_new_array(self):
        a = np.ones((2, 2))
        v = np.ones(2)
        out = gemv(v, a)
        assert out.base is None or out.base is not a
