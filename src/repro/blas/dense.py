"""Double-precision dense kernels with BLAS in-place output semantics.

Each function mirrors the operation the MAGMA driver (Algorithm 1 in the
paper) issues to cuBLAS or to the host LAPACK:

====================  =======================================================
:func:`syrk_update`   ``C -= A @ A^T``            (cublasDsyrk, lower)
:func:`gemm_update`   ``C -= A @ B^T``            (cublasDgemm, trans-B)
:func:`potf2`         Cholesky of one tile         (LAPACK dpotf2/dpotrf, CPU)
:func:`trsm_right_lt` ``X · L^T = B`` in place     (magmablas_dtrsm, right/lower/T)
:func:`gemv`          ``v^T A`` row-vector product (cublasDgemv, checksums)
====================  =======================================================

All kernels write into caller-provided output arrays (views into the blocked
matrix), which is what makes fault injection into live storage meaningful.

POTF2 and TRSM are whole-tile LAPACK/BLAS-3 calls, as in the paper's MAGMA
driver, not per-column Python loops: :func:`potf2` is one
``np.linalg.cholesky`` (LAPACK ``dpotrf``) written back into the tile, and
:func:`trsm_right_lt` follows MAGMA's ``magmablas_dtrsm`` — invert the B×B
diagonal factor once, then apply it with one GEMM.  Only numpy is used:
``scipy.linalg`` would load a second BLAS into every process (about 0.2 s
of import and 28 MB of RSS per worker, measured with scipy 1.17) for two
kernels numpy already reaches.
"""

from __future__ import annotations

import numpy as np

from repro.util.exceptions import SingularBlockError
from repro.util.validation import check_dtype, check_square, require


def syrk_update(c: np.ndarray, a: np.ndarray) -> None:
    """Symmetric rank-k update ``C -= A @ A^T`` (in place, full storage).

    *c* is n×n, *a* is n×k.  The real cublasDsyrk only touches the lower
    triangle; we update the full square because the checksum relation
    ``chk(C') = chk(C) - chk(A)·A^T`` spans all columns.  The factorization
    itself only ever reads the lower triangle.
    """
    n = check_square("c", c)
    check_dtype("c", c)
    check_dtype("a", a)
    require(a.ndim == 2 and a.shape[0] == n, f"a must be {n}×k, got {a.shape}")
    c -= a @ a.T


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """General update ``C -= A @ B^T`` (in place).

    *c* is m×n, *a* is m×k, *b* is n×k — the trailing-panel update of
    Algorithm 1 line 4 with A = LD and B = LC.
    """
    check_dtype("c", c)
    check_dtype("a", a)
    check_dtype("b", b)
    m, n = c.shape
    require(a.shape[0] == m, f"a has {a.shape[0]} rows, c has {m}")
    require(b.shape[0] == n, f"b has {b.shape[0]} rows, c has {n} columns")
    require(a.shape[1] == b.shape[1], f"inner dims differ: {a.shape} vs {b.shape}")
    c -= a @ b.T


def potf2(a: np.ndarray, block_index: int = -1) -> None:
    """Lower Cholesky of the tile *a*, in place (LAPACK ``dpotrf``).

    On exit the lower triangle of *a* holds L and the strict upper triangle
    is zeroed (MAGMA leaves garbage there; zeroing makes the column-checksum
    relation of the *stored* block exact, which the ABFT layer relies on).
    Only the lower triangle of *a* is read.

    Raises :class:`SingularBlockError` if a pivot is not positive and
    finite — the fail-stop outcome a storage error can force, per Section
    III.  LAPACK stops on negative, zero and NaN pivots but carries an
    infinite one through, so the factor's diagonal is checked as well.  On
    failure *a* is left unchanged and the first failing pivot is located
    by :func:`_first_bad_pivot` (extra cost on the fail-stop path only).
    """
    check_square("a", a)
    check_dtype("a", a)
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        ell = None
    if ell is None or not np.isfinite(ell.diagonal()).all():
        j, value = _first_bad_pivot(a)
        raise SingularBlockError(block_index, j, value)
    a[...] = ell


def _first_bad_pivot(a: np.ndarray) -> tuple[int, float]:
    """Index and value of the first pivot of *a* that is not positive and finite.

    The leading k×k factor is the leading block of the full factor, so
    "the first k pivots are good" is monotone in k and a bisection over
    leading minors finds the first bad one in O(log n) factorizations.
    The pivot's value is its Schur complement
    ``a[j, j] − ‖L[:j, :j]⁻¹ a[j, :j]‖²``.
    """

    def good(k: int) -> bool:
        try:
            return bool(np.isfinite(np.linalg.cholesky(a[:k, :k]).diagonal()).all())
        except np.linalg.LinAlgError:
            return False

    lo, hi = 0, a.shape[0] - 1  # pivots < lo are good; the bad one is <= hi
    while lo < hi:
        mid = (lo + hi) // 2
        if good(mid + 1):
            lo = mid + 1
        else:
            hi = mid
    j = lo
    if j == 0:
        return 0, float(a[0, 0])
    ell = np.linalg.cholesky(a[:j, :j])
    row = np.linalg.solve(ell, a[j, :j])
    return j, float(a[j, j] - row @ row)


def trsm_right_lt(b: np.ndarray, ell: np.ndarray) -> None:
    """Solve ``X · L^T = B`` in place: ``B ← B · L^{-T}`` (right, lower, trans).

    *b* is m×n, *ell* is the n×n lower-triangular Cholesky factor.  This is
    the panel solve of Algorithm 1 line 7, and — applied to a 2×B checksum
    strip — also the checksum updates for TRSM and POTF2 (Algorithm 2 in the
    paper reduces to exactly this solve).

    MAGMA's ``magmablas_dtrsm`` scheme: invert the diagonal factor once,
    then one GEMM ``B ← B · (L^{-1})^T``.  Data panels and their checksum
    strips go through this same function, so both are multiplied by the
    *same* computed inverse; the checksum relation ``W·(B·M) = (W·B)·M``
    then holds up to GEMM rounding whatever the inverse's own error, which
    is what keeps ill-conditioned tiles from reading as corrupted.
    The strict upper triangle of *ell* is not read.
    """
    check_dtype("b", b)
    n = check_square("ell", ell)
    require(b.shape[1] == n, f"b has {b.shape[1]} columns, ell is {n}×{n}")
    if b.shape[0] == 0:
        return
    try:
        # Only the lower triangle is read, as cublasDtrsm's lower fill
        # mode does: a flip in the (unused) upper triangle stays harmless.
        inv = _lower_inverse(np.tril(ell))
    except np.linalg.LinAlgError:
        # A zero pivot — only a storage fault can put one in a factor
        # POTF2 accepted.  The solve is undefined; NaN makes verification
        # escalate it instead of the kernel crashing the run.
        inv = np.full(ell.shape, np.nan)
    b[...] = b @ inv.T


#: Order at or below which :func:`_lower_inverse` calls LAPACK directly.
_INV_LEAF = 16


def _lower_inverse(ell: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2×2 block recursion.

    ``[[A, 0], [C, D]]⁻¹ = [[A⁻¹, 0], [−D⁻¹·C·A⁻¹, D⁻¹]]``: the work is
    GEMMs plus ``np.linalg.inv`` on the 16×16 diagonal leaves, about 3×
    faster than one general ``np.linalg.inv`` (LU + solve) at B=128.
    """
    n = ell.shape[0]
    if n <= _INV_LEAF:
        return np.linalg.inv(ell)
    h = n // 2
    a_inv = _lower_inverse(ell[:h, :h])
    d_inv = _lower_inverse(ell[h:, h:])
    out = np.zeros(ell.shape)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    np.negative(d_inv @ (ell[h:, :h] @ a_inv), out=out[h:, :h])
    return out


def gemv(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-vector product ``v^T A`` — the checksum (re)calculation kernel.

    Returns a fresh 1-D array of length ``a.shape[1]``.  On the GPU this is
    the BLAS-2 kernel whose poor solo utilization motivates Optimization 1.
    """
    check_dtype("a", a)
    check_dtype("v", v)
    require(v.ndim == 1 and v.shape[0] == a.shape[0], "v length must match rows of a")
    return v @ a
