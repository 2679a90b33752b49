"""Tests for the row-checksum variant (and why columns win)."""

import numpy as np
import pytest

from repro.blas import dense
from repro.blas.spd import random_spd
from repro.core.multierror import vandermonde_weights
from repro.core.rowvariant import (
    RowChecksumCodec,
    encode_row_strip,
    render_variant_comparison,
    transformed_weights,
    update_flops_comparison,
    update_row_strip_gemm,
    update_row_strip_trsm,
)
from repro.util.exceptions import UnrecoverableError


@pytest.fixture
def tile16():
    return np.random.default_rng(0).standard_normal((16, 16))


class TestEncoding:
    def test_row_sums(self, tile16):
        strip = encode_row_strip(tile16)
        np.testing.assert_allclose(strip[:, 0], tile16.sum(axis=1))

    def test_weighted_row_sums(self, tile16):
        strip = encode_row_strip(tile16)
        w2 = np.arange(1, 17, dtype=np.float64)
        np.testing.assert_allclose(strip[:, 1], tile16 @ w2)

    def test_shape(self, tile16):
        assert encode_row_strip(tile16).shape == (16, 2)


class TestCodec:
    def test_clean_passes(self, tile16):
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        assert codec.verify_and_correct(tile16, strip) == 0

    @pytest.mark.parametrize("row,col", [(0, 0), (15, 15), (7, 3)])
    def test_single_error_fixed(self, tile16, row, col):
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        pristine = tile16.copy()
        tile16[row, col] += 13.0
        assert codec.verify_and_correct(tile16, strip) == 1
        np.testing.assert_allclose(tile16, pristine, atol=1e-9)

    def test_checksum_corruption_repaired(self, tile16):
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        pristine = tile16.copy()
        strip[4, 1] += 5.0
        codec.verify_and_correct(tile16, strip)
        np.testing.assert_array_equal(tile16, pristine)

    def test_two_errors_same_row_uncorrectable(self, tile16):
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        tile16[3, 2] += 1.0
        tile16[3, 9] += 1.7
        with pytest.raises(UnrecoverableError):
            codec.verify_and_correct(tile16, strip)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_nonfinite_entry_escalates(self, tile16, bad):
        """A NaN δ compares False and an overflowed sum gives δ = tol = inf;
        neither may pass as clean or as a checksum repair."""
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        tile16[3, 5] = bad
        with pytest.raises(UnrecoverableError):
            codec.verify_and_correct(tile16, strip)

    def test_two_errors_same_column_ok(self, tile16):
        """The dual of the column codec: same-column errors are fine here."""
        codec = RowChecksumCodec(16)
        strip = codec.encode(tile16)
        pristine = tile16.copy()
        tile16[3, 5] += 2.0
        tile16[9, 5] += 4.0
        assert codec.verify_and_correct(tile16, strip) == 2
        np.testing.assert_allclose(tile16, pristine, atol=1e-9)


class TestUpdateRules:
    def test_gemm_rule_consistent(self):
        rng = np.random.default_rng(1)
        b, k = 8, 24
        c = rng.standard_normal((b, b))
        a = rng.standard_normal((b, k))
        bb = rng.standard_normal((b, k))
        w = vandermonde_weights(b, 2)
        strip = c @ w.T
        update_row_strip_gemm(strip, a, bb, w)
        dense.gemm_update(c, a, bb)
        np.testing.assert_allclose(strip, c @ w.T, rtol=1e-10, atol=1e-10)

    def test_trsm_rule_is_recomputation(self):
        rng = np.random.default_rng(2)
        b = 8
        ell = np.linalg.cholesky(random_spd(b, rng=3))
        panel = rng.standard_normal((b, b))
        w = vandermonde_weights(b, 2)
        strip = panel @ w.T
        dense.trsm_right_lt(panel, ell)
        update_row_strip_trsm(strip, panel, ell, w)
        np.testing.assert_allclose(strip, panel @ w.T, rtol=1e-10)

    def test_transformed_weights_solve(self):
        b = 8
        ell = np.linalg.cholesky(random_spd(b, rng=4))
        w = vandermonde_weights(b, 2)
        u = transformed_weights(ell, w)
        # L^T u = w^T
        np.testing.assert_allclose(ell.T @ u, w.T, rtol=1e-10)

    def test_transformed_weights_give_same_strip(self):
        """R(B·L^{-T}) = B·u with u = L^{-T}w — algebra check."""
        rng = np.random.default_rng(5)
        b = 8
        ell = np.linalg.cholesky(random_spd(b, rng=6))
        panel = rng.standard_normal((b, b))
        w = vandermonde_weights(b, 2)
        u = transformed_weights(ell, w)
        solved = panel.copy()
        dense.trsm_right_lt(solved, ell)
        np.testing.assert_allclose(panel @ u, solved @ w.T, rtol=1e-9)


class TestCostComparison:
    def test_flop_gap_modest(self):
        """The algebra transposes cleanly: flops differ by ~10-20% only."""
        c = update_flops_comparison(8192, 256)
        assert 1.0 < c.ratio < 1.5

    def test_traffic_gap_is_the_disqualifier(self):
        """Row maintenance reads O(n³/B) data tiles vs O(n²) for columns —
        the structural reason the paper picks column checksums."""
        c = update_flops_comparison(8192, 256)
        assert c.traffic_ratio > 5

    def test_traffic_gap_grows_with_n(self):
        small = update_flops_comparison(4096, 256)
        large = update_flops_comparison(16384, 256)
        assert large.traffic_ratio > small.traffic_ratio

    def test_render(self):
        out = render_variant_comparison()
        assert "traffic row/col" in out and "20480" in out
