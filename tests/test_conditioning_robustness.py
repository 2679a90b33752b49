"""Detection-threshold robustness under ill conditioning.

The verifier's tolerance is relative to the weighted magnitude sum
``W·|tile|``, so rounding growth in badly conditioned factorizations must
not trigger false positives — and genuine faults must still clear the
threshold.  This file sweeps condition numbers over ten orders of
magnitude and checks both sides.
"""

import numpy as np
import pytest

from repro.blas.spd import ill_conditioned_spd
from repro.core import enhanced_potrf
from repro.faults.injector import no_faults, single_storage_fault
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual

N, BS = 256, 64
CONDITIONS = [1e2, 1e5, 1e8, 1e10, 1e12]


@pytest.fixture(scope="module")
def machine():
    return Machine.preset("tardis")


class TestGenerator:
    @pytest.mark.parametrize("cond", [1e3, 1e6, 1e9])
    def test_condition_number_close(self, cond):
        a = ill_conditioned_spd(64, cond, rng=0)
        w = np.linalg.eigvalsh(a)
        assert w.max() / w.min() == pytest.approx(cond, rel=0.05)

    def test_symmetric(self):
        a = ill_conditioned_spd(32, 1e6, rng=1)
        np.testing.assert_array_equal(a, a.T)

    def test_rejects_cond_below_one(self):
        with pytest.raises(ValueError):
            ill_conditioned_spd(8, 0.5)


def config_for(cond: float):
    from repro.core import AbftConfig

    return AbftConfig(rtol=AbftConfig.recommended_rtol(cond))


class TestNoFalsePositives:
    @pytest.mark.parametrize("cond", [1e2, 1e5])
    def test_default_threshold_clean_at_moderate_cond(self, machine, cond):
        a = ill_conditioned_spd(N, cond, rng=2)
        res = enhanced_potrf(machine, a=a.copy(), block_size=BS, injector=no_faults())
        assert res.stats.data_corrections == 0, cond
        assert res.stats.checksum_corrections == 0, cond
        assert res.restarts == 0, cond

    @pytest.mark.parametrize("cond", CONDITIONS)
    def test_scaled_threshold_clean_everywhere(self, machine, cond):
        """With the conditioning-aware rtol, no false positives through
        cond = 10¹² — the rounding-threshold trade the docs describe."""
        a = ill_conditioned_spd(N, cond, rng=2)
        res = enhanced_potrf(
            machine, a=a.copy(), block_size=BS,
            injector=no_faults(), config=config_for(cond),
        )
        assert res.stats.data_corrections == 0, cond
        assert res.restarts == 0, cond

    def test_default_threshold_false_positives_at_extreme_cond(self, machine):
        """Documented failure mode: the fixed default rtol trips on the
        checksum drift of a cond≈10¹² factorization."""
        from repro.util.exceptions import RestartExhaustedError

        a = ill_conditioned_spd(N, 1e12, rng=2)
        with pytest.raises(RestartExhaustedError):
            enhanced_potrf(machine, a=a.copy(), block_size=BS, injector=no_faults())


class TestConditioningEnvelope:
    """Fault-free runs at the driver's real tile sizes flag nothing.

    The POTF2/TRSM kernels set how far a factor's data and its maintained
    strips drift apart; at B=128 an explicit-inverse TRSM must still keep
    that drift inside the conditioning-aware threshold.  (The fixed
    default rtol false-flags at cond 1e8 for n=1024/B=128 with any of
    the kernels tried, as ``recommended_rtol`` documents.)
    """

    @pytest.mark.parametrize("n,bs", [(512, 32), (1024, 128)])
    @pytest.mark.parametrize("cond", [1e6, 1e8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_column_flagged(self, machine, n, bs, cond, seed):
        a = ill_conditioned_spd(n, cond, rng=seed)
        res = enhanced_potrf(
            machine, a=a, block_size=bs, injector=no_faults(), config=config_for(cond)
        )
        assert res.stats.columns_flagged == 0, (n, cond, seed)
        assert res.restarts == 0, (n, cond, seed)

    @pytest.mark.parametrize("n,bs", [(512, 32), (1024, 128)])
    def test_default_threshold_clean_at_cond_1e6(self, machine, n, bs):
        a = ill_conditioned_spd(n, 1e6, rng=4)
        res = enhanced_potrf(machine, a=a, block_size=bs, injector=no_faults())
        assert res.stats.columns_flagged == 0
        assert res.restarts == 0


class TestDetectionSurvives:
    @pytest.mark.parametrize("cond", CONDITIONS)
    def test_fault_still_caught_and_fixed(self, machine, cond):
        a0 = ill_conditioned_spd(N, cond, rng=3)
        inj = single_storage_fault(block=(2, 1), coord=(3, 4), iteration=1, bit=54)
        res = enhanced_potrf(
            machine, a=a0.copy(), block_size=BS,
            injector=inj, config=config_for(cond),
        )
        # factor quality bounded by conditioning, not by the fault
        resid = factorization_residual(a0, res.factor)
        assert resid < 1e-12, (cond, resid)
        assert res.stats.data_corrections + res.restarts >= 1


class TestRecommendedRtol:
    def test_floor_at_default(self):
        from repro.core import AbftConfig

        assert AbftConfig.recommended_rtol(1.0) == 1e-9
        assert AbftConfig.recommended_rtol(1e4) == 1e-9

    def test_scales_linearly_beyond(self):
        from repro.core import AbftConfig

        r10 = AbftConfig.recommended_rtol(1e10)
        r12 = AbftConfig.recommended_rtol(1e12)
        assert r12 == pytest.approx(100 * r10)

    def test_rejects_sub_one(self):
        from repro.core import AbftConfig

        with pytest.raises(ValueError):
            AbftConfig.recommended_rtol(0.1)
