"""Property tests: the batched verify engine is bit-identical to per-tile.

The :class:`~repro.core.batchverify.BatchVerifyEngine` replaces the
per-tile Python loop of the ABFT hot path.  Its contract is not
"approximately the same" — it is *bit* parity: for any matrix, block
size, checksum count and fault pattern, the batched pipeline must leave
the same bytes in the factor and checksum buffers, record the same
verifier statistics and corrected sites, and raise the same
:class:`~repro.util.exceptions.UnrecoverableError` (same arguments, same
first-failure ordering) as the historical loop.  Hypothesis drives the
fault patterns; the deterministic tests pin the known raise shapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.blocked import BlockedMatrix
from repro.blas.spd import random_spd
from repro.core.checksum import encode_blocked_host, issue_encoding
from repro.core.correct import Verifier
from repro.hetero.machine import Machine
from repro.util.exceptions import UnrecoverableError

# Fault = (tile key, row, col, delta) applied after encoding.
Fault = tuple[tuple[int, int], int, int, float]


def _run_mode(
    machine: Machine,
    a: np.ndarray,
    block_size: int,
    n_checksums: int,
    faults: list[Fault],
    batched: bool,
):
    """One full encode→corrupt→verify pass in the requested mode.

    Returns ``(matrix bytes, checksum bytes, stats, raised args)`` so the
    caller can compare the two modes field by field.
    """
    ctx = machine.context(numerics="real")
    matrix = ctx.alloc_matrix(a.shape[0], block_size, data=a.copy())
    chk = ctx.alloc_checksums(a.shape[0], block_size, rows_per_tile=n_checksums)
    verifier = Verifier(ctx, matrix, chk, batched=batched)
    issue_encoding(ctx, matrix, chk, verifier.streams, engine=verifier.engine)
    for key, row, col, delta in faults:
        matrix.tile_view(key)[row, col] += delta
    raised = None
    try:
        verifier.verify_batch(verifier.lower_keys(), "prop")
    except UnrecoverableError as exc:
        raised = (type(exc).__name__, exc.args)
    return matrix.array.copy(), chk.array.copy(), verifier.stats, raised


def _assert_modes_identical(a, block_size, n_checksums, faults):
    machine = Machine.preset("tardis")
    b_mat, b_chk, b_stats, b_raised = _run_mode(
        machine, a, block_size, n_checksums, faults, batched=True
    )
    p_mat, p_chk, p_stats, p_raised = _run_mode(
        machine, a, block_size, n_checksums, faults, batched=False
    )
    assert b_raised == p_raised
    np.testing.assert_array_equal(b_mat, p_mat)  # bit-exact, not allclose
    np.testing.assert_array_equal(b_chk, p_chk)
    assert b_stats == p_stats  # includes corrected_sites ordering
    assert b_stats.corrected_sites == p_stats.corrected_sites
    return b_stats, b_raised


@st.composite
def _cases(draw):
    """A (matrix, block size, checksum count, fault list) scenario."""
    block_size = draw(st.sampled_from([4, 8]))
    nb = draw(st.integers(min_value=2, max_value=4))
    n_checksums = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    a = random_spd(block_size * nb, rng=seed)

    lower = [(i, j) for j in range(nb) for i in range(j, nb)]
    magnitudes = st.one_of(
        st.floats(min_value=0.5, max_value=1e4),
        st.floats(min_value=-1e4, max_value=-0.5),
    )
    kind = draw(st.sampled_from(["clean", "single_column", "multi_error"]))
    faults: list[Fault] = []
    if kind == "single_column":
        # Up to three tiles, each with one fault — the correctable regime.
        hit = draw(
            st.lists(st.sampled_from(lower), min_size=1, max_size=3, unique=True)
        )
        for key in hit:
            row = draw(st.integers(0, block_size - 1))
            col = draw(st.integers(0, block_size - 1))
            faults.append((key, row, col, draw(magnitudes)))
    elif kind == "multi_error":
        # Several faults in one column of one tile: beyond the code's
        # correction capability.  Whether the decoder raises or (for
        # aliasing magnitudes) mis-corrects, both modes must agree bit
        # for bit — parity is the property, not the verdict.
        key = draw(st.sampled_from(lower))
        col = draw(st.integers(0, block_size - 1))
        rows = draw(
            st.lists(
                st.integers(0, block_size - 1),
                min_size=n_checksums,
                max_size=n_checksums + 1,
                unique=True,
            )
        )
        for row in rows:
            faults.append((key, row, col, draw(magnitudes)))
    return a, block_size, n_checksums, kind, faults


@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_batched_matches_per_tile_bit_for_bit(case):
    a, block_size, n_checksums, kind, faults = case
    stats, raised = _assert_modes_identical(a, block_size, n_checksums, faults)
    if kind == "clean":
        assert raised is None
        assert stats.data_corrections == 0
        assert stats.columns_flagged == 0


@settings(max_examples=10, deadline=None)
@given(
    block_size=st.sampled_from([4, 8]),
    nb=st.integers(min_value=2, max_value=4),
    n_checksums=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engine_encode_matches_host_reference(block_size, nb, n_checksums, seed):
    """``engine.encode`` stores the same bits as the per-tile host loop."""
    a = random_spd(block_size * nb, rng=seed)
    ctx = Machine.preset("tardis").context(numerics="real")
    matrix = ctx.alloc_matrix(a.shape[0], block_size, data=a.copy())
    chk = ctx.alloc_checksums(a.shape[0], block_size, rows_per_tile=n_checksums)
    verifier = Verifier(ctx, matrix, chk)
    issue_encoding(ctx, matrix, chk, verifier.streams, engine=verifier.engine)
    reference = encode_blocked_host(
        BlockedMatrix(a.copy(), block_size), n_checksums=n_checksums
    )
    np.testing.assert_array_equal(chk.array, reference)


@pytest.mark.parametrize("n_checksums", [2, 3])
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 1e308])
def test_nonfinite_entry_is_flagged_and_rebuilt_in_both_modes(delta, n_checksums):
    """NaN compares False and an overflowed weighted sum gives δ = tol =
    inf; the batched engine must still flag the tile, like the per-tile
    path, and both must rebuild the entry as a data correction."""
    a = random_spd(32, rng=5)
    stats, raised = _assert_modes_identical(a, 8, n_checksums, [((2, 1), 6, 3, delta)])
    assert raised is None
    assert stats.data_corrections == 1
    assert stats.checksum_corrections == 0
    assert stats.corrected_sites == [((2, 1), 6, 3)]


class TestUnrecoverableParity:
    """Fault shapes known to defeat the code must raise in both modes."""

    def _raise_case(self, n_checksums, corrupt):
        machine = Machine.preset("tardis")
        out = []
        for batched in (True, False):
            ctx = machine.context(numerics="real")
            a = random_spd(32, rng=3)
            matrix = ctx.alloc_matrix(32, 8, data=a)
            chk = ctx.alloc_checksums(32, 8, rows_per_tile=n_checksums)
            verifier = Verifier(ctx, matrix, chk, batched=batched)
            issue_encoding(ctx, matrix, chk, verifier.streams, engine=verifier.engine)
            corrupt(matrix)
            try:
                verifier.verify_batch(verifier.lower_keys(), "t")
                raise AssertionError("expected UnrecoverableError")
            except UnrecoverableError as exc:
                out.append(exc.args)
        assert out[0] == out[1]

    def test_same_column_pair_raises_identically(self):
        def corrupt(matrix):
            tile = matrix.tile_view((1, 0))
            tile[2, 3] += 10.0
            tile[5, 3] += 7.3  # non-integer locator -> unrecoverable

        self._raise_case(2, corrupt)

    def test_full_column_corruption_raises_identically(self):
        def corrupt(matrix):
            matrix.tile_view((2, 1))[:, 4] += np.pi

        self._raise_case(2, corrupt)

    def test_first_failure_ordering_is_preserved(self):
        """Two unrecoverable tiles: both modes must report the *first* in
        batch order, even though the batched path detects them together."""

        def corrupt(matrix):
            for key in ((1, 0), (3, 2)):
                tile = matrix.tile_view(key)
                tile[2, 3] += 10.0
                tile[5, 3] += 7.3

        self._raise_case(2, corrupt)
