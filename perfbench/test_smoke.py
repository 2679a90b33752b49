"""Smoke test of the benchmark itself, at toy sizes.

Run from the checkout root: ``python3 -m pytest perfbench/test_smoke.py -q``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401 - pins the BLAS threads and puts src/ on the path first
import bench
import ledger

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TOY = {
    "factor-2048": bench.FactorSpec(n=256, block_size=64, warm_n=128, setups=1),
    "serve-small": bench.ServeSpec(sizes=(64, 96), block_size=32, window_per_proc=1, max_rate=60.0, setups=1),
    "serve-faults": bench.ServeSpec(
        sizes=(128, 256),
        block_size=32,
        mix=(("storage", 1), ("computing", 1), ("burst3", 1), ("clean", 1)),
        rate=12.0,
        setups=1,
    ),
}


def test_declared_metrics_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("workload", list(TOY))
def test_every_workload_reports_every_metric(workload, traced):
    report = bench.run_workload(workload, seed=0, seconds=1.0, traced=traced, spec=TOY[workload])
    expected = bench.LAYER_UNITS if traced else bench.E2E_UNITS
    assert set(report.metrics) == set(expected)
    assert report.correct and report.attempted >= 1
    assert all(np.isfinite(v) for v in report.metrics.values())
    out = io.StringIO()
    report.emit(out)
    last = json.loads(out.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {k: expected[k] for k in last["metrics"]}


def test_probe_catches_one_wrong_element():
    rng = np.random.default_rng(0)
    a = bench.spd_matrix(64, rng)
    probes = bench.Probes()
    probes.expect("k", a, rng)
    factor = np.linalg.cholesky(a)
    assert probes.check("k", factor, keep=True)
    factor[40, 3] += 1e-4
    assert not probes.check("k", factor)
    assert probes.wrong == ["k"]


def test_corrupted_factor_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "factor-2048", TOY["factor-2048"])
    check = bench.Probes.check

    def corrupting(self, key, factor, keep=False):
        if factor is not None and key == 0:
            factor = factor.copy()
            factor[-1, 0] += 1.0
        return check(self, key, factor, keep)

    monkeypatch.setattr(bench.Probes, "check", corrupting)
    code = run.main(["--workload", "factor-2048", "--seed", "0", "--seconds", "0.5", "--trace", "0"])
    assert code == run.EXIT_WRONG
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False


def test_missing_trace_target_is_reported_absent(capsys):
    targets = ledger.TARGETS[:4] + (ledger.Target("abft.verify", "repro.core.correct", "Verifier.no_such_method"),)
    tracer = ledger.Tracer(targets)
    assert "warning" in capsys.readouterr().err
    rng = np.random.default_rng(1)
    from repro import Machine, enhanced_potrf

    tracer.attempt(enhanced_potrf, Machine.preset("tardis"), a=bench.spd_matrix(128, rng), block_size=32)
    metrics = tracer.layer_metrics()
    assert "abft.verify_s" not in metrics and "abft.verify_calls" not in metrics
    assert metrics["kernel.gemm_s"] > 0.0
    assert tracer.reconcile() < 1e-9
