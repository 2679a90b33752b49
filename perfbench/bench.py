"""Workloads, result checks and metrics of the repository benchmark.

Three workloads (``perfbench/README.md`` says why each exists):

- ``factor-2048`` — sequential library calls to ``enhanced_potrf`` on one
  thread, half of them carrying one seeded fault, each paired with
  ``np.linalg.cholesky`` on the same matrix as the reference;
- ``serve-small`` — a closed loop with a fixed window of outstanding,
  fault-free small jobs on ``SolveService``'s ``process`` backend;
- ``serve-faults`` — open-loop arrivals at a fixed rate on the same service,
  mid-size jobs with a seeded mix of correctable faults and
  beyond-capacity bursts, each job timed from when it was due.

Everything random is drawn from ``--seed``; the program only ever sees the
jobs (and, for the library workload, the matrices).  Every completed factor
is checked with an O(n²) probe against ``A·x`` computed while the inputs
were generated, as the completion arrives, and then dropped.
"""

from __future__ import annotations

import asyncio
import faulthandler
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO

import numpy as np

import ledger
from stamp import stamp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Relative probe residual above which a factor counts as wrong — the same
#: bound the service's own residual gate applies, checked independently.
PROBE_TOL = 1e-8
#: A run (set-up, measurement, drain, replay) overrunning this many seconds
#: past its measured time is stopped and reported as failed.
HARD_SLACK_S = 90.0
HARD_CAP_S = 140.0
#: Per-attempt budget handed to the service; bounds the shutdown of a
#: stuck pool after the hard limit fires.
JOB_TIMEOUT_S = 20.0
#: Open-loop runs whose generator submitted a job later than this after
#: its due time are invalid: a stalled generator lets the system, not the
#: schedule, set the load.
MAX_LATENESS_S = 0.25
#: First id of the unmeasured warm-up inputs (measured ones count from 0).
WARM_ID = 10_000_000
#: How often a serve run samples its ``np.linalg.cholesky`` reference.
REFERENCE_PERIOD_S = 0.5
#: Fixes the serve workloads' job sequence and open-loop arrival times, so
#: runs on different seeds offer the same load (see ``_serve_jobs``).
SCHEDULE_SEED = 20160523

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "gflops": "GFLOP/s",
    "abft_tax": "x",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "kernel.potf2_s": "s/job",
    "kernel.trsm_s": "s/job",
    "kernel.syrk_s": "s/job",
    "kernel.gemm_s": "s/job",
    "kernel.gflops": "GFLOP/s",
    "abft.encode_s": "s/job",
    "abft.update_s": "s/job",
    "abft.verify_s": "s/job",
    "abft.verify_calls": "count/job",
    "abft.corrections": "count/job",
    "abft.restarts": "count/job",
    "abft.useful_frac": "frac",
    "timeplane.build_s": "s/job",
    "timeplane.replay_s": "s/job",
    "timeplane.tasks": "count/job",
    "timeplane.share": "frac",
    "exec.attempts": "count",
    "exec.ipc_bytes_per_attempt": "B",
    "exec.dispatch_wait_s": "s",
    "exec.arena_reuse_frac": "frac",
    "exec.worker_restarts": "count",
    "exec.overhead_s": "s",
    "service.attempt_s": "s/job",
    "service.residual_gate_s": "s/job",
    "service.wait_p50_s": "s",
    "service.retries": "count",
    "service.fallbacks": "count",
    "loadgen.max_lateness_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}


class RunFailed(Exception):
    """The run could not produce a valid measurement."""


# -- workload specifications -----------------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    """Sequential library calls at one matrix order."""

    n: int = 2048
    block_size: int = 128
    #: order of the first-call warm-up that ``setup_s`` times
    warm_n: int = 256
    setups: int = 9


@dataclass(frozen=True)
class ServeSpec:
    """One traffic mix on the process-backed service."""

    #: matrix orders of one block of jobs; a repeated order weighs more
    sizes: tuple[int, ...]
    block_size: int
    #: fault classes per block of jobs: ``(class, count)``; see ``_injector``
    mix: tuple[tuple[str, int], ...] = (("clean", 1),)
    #: closed loop: outstanding jobs per worker process
    window_per_proc: int | None = None
    #: open loop: arrivals per second
    rate: float | None = None
    #: closed loop: most jobs a run may submit per second of measurement
    max_rate: float = 220.0
    setups: int = 5


WORKLOADS = {
    "factor-2048": FactorSpec(),
    "serve-small": ServeSpec(sizes=(64, 96, 128), block_size=32, window_per_proc=1),
    "serve-faults": ServeSpec(
        # 512 twice: the mid size is the mode, so the latency median falls
        # inside one size class instead of between two.
        sizes=(256, 512, 512, 1024),
        block_size=128,
        mix=(("storage", 5), ("computing", 5), ("burst3", 2), ("clean", 8)),
        rate=4.0,
    ),
}


# -- results ---------------------------------------------------------------------


@dataclass
class Report:
    """Everything one run prints; :meth:`emit` writes it."""

    traced: bool
    metrics: dict[str, float] = field(default_factory=dict)
    #: context printed next to the metrics but not part of the result JSON
    info: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: keys (call index or job id) of factors that failed the probe
    wrong: list = field(default_factory=list)
    stamp: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def emit(self, out: IO[str]) -> None:
        units = LAYER_UNITS if self.traced else E2E_UNITS
        out.write(json.dumps({"stamp": self.stamp}) + "\n")
        for name, value in self.info.items():
            out.write(f"# {name} {value}\n")
        out.write(f"# failed_frac {self.failed / max(self.attempted, 1):.6g} frac\n")
        out.write(f"# wrong_results {len(self.wrong)} count {self.wrong}\n")
        for name, value in self.metrics.items():
            out.write(f"{name} {value:.6g} {units[name]}\n")
        result = {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }
        out.write(json.dumps(result) + "\n")
        out.flush()


class Probes:
    """O(n²) result checks: ``‖L(Lᵀx) − A·x‖ / ‖A·x‖`` against a bound."""

    def __init__(self, tol: float = PROBE_TOL) -> None:
        self.tol = tol
        self._expect: dict[object, tuple[np.ndarray, np.ndarray]] = {}
        self.checked = 0
        self.wrong: list[object] = []
        self.worst = 0.0

    def expect(self, key: object, a: np.ndarray, rng: np.random.Generator) -> None:
        x = rng.standard_normal(a.shape[0])
        self._expect[key] = (x, a @ x)

    def check(self, key: object, factor: np.ndarray | None, keep: bool = False) -> bool:
        x, ax = self._expect[key] if keep else self._expect.pop(key)
        self.checked += 1
        if factor is None:
            residual = math.inf
        else:
            residual = float(np.linalg.norm(factor @ (factor.T @ x) - ax) / np.linalg.norm(ax))
        if not residual <= self.tol:  # NaN counts as wrong
            self.wrong.append(key)
        else:
            self.worst = max(self.worst, residual)
        return residual <= self.tol


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the *q* quantile of *values*.

    A Beta-weighted average of all order statistics: the same quantile as
    nearest rank, with a much smaller run-to-run spread on the few dozen
    tail samples a run collects.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values, dtype=float), prob=[q])[0])


def median(values: list[float]) -> float:
    return float(np.median(values))


def _p90_info(info: dict, latencies: list[float]) -> None:
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    info["latency_samples"] = f"{len(latencies)} (p90 has {beyond} beyond it)"


def spd_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random SPD matrix in O(n²): eigenvalues within [3-√2, 3+√2]."""
    r = rng.standard_normal((n, n))
    a = (r + r.T) * (0.5 / math.sqrt(n))
    a[np.diag_indices(n)] += 3.0
    return a


def _injector(kind: str, n: int, block_size: int, rng: np.random.Generator):
    """A seeded fault injector of class *kind* (``None`` for clean jobs)."""
    from repro.faults.campaign import CampaignSpec, sample_burst, sample_injector
    from repro.faults.injector import FaultInjector

    nb = n // block_size
    if kind == "clean":
        return None
    if kind in ("storage", "computing"):
        return sample_injector(CampaignSpec(nb=nb, kind=kind), block_size, rng=rng, count=1)
    if kind == "burst3":
        # Three flips stacked in one tile column exceed the two-checksum
        # code's capacity: the scheme must detect them and restart.
        plans = sample_burst(CampaignSpec(nb=nb), block_size, rng=rng, count=3, same_column=True)
        return FaultInjector(plans)
    raise ValueError(f"unknown fault class {kind!r}")


def _peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process plus, optionally, its largest reaped child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# -- factor-2048 -------------------------------------------------------------------


_WARMUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
from repro import Machine, enhanced_potrf
t1 = time.perf_counter()
import numpy as np
rng = np.random.default_rng(0)
r = rng.standard_normal(({n}, {n}))
a = (r + r.T) * (0.5 / {n} ** 0.5) + 3.0 * np.eye({n})
t2 = time.perf_counter()
enhanced_potrf(Machine.preset("tardis"), a=a, block_size={b})
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2))
"""


def _library_setup_s(spec: FactorSpec, deadline: float) -> list[float]:
    """Import plus first call in fresh interpreters, once per set-up."""
    code = _WARMUP_SNIPPET.format(n=spec.warm_n, b=min(spec.block_size, spec.warm_n))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(spec.setups):
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise RunFailed("hard time limit reached during set-up")
        try:
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=budget,
                check=True,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed("hard time limit reached during set-up") from None
        except subprocess.CalledProcessError as exc:
            raise RunFailed(f"library warm-up failed: {exc.stderr.strip()[-500:]}") from None
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _factor_input(spec: FactorSpec, seed: int, index: int, probes: Probes):
    """Call *index*'s matrix, probe and fault (every second call is faulty)."""
    rng = np.random.default_rng([seed, index])
    a = spd_matrix(spec.n, rng)
    probes.expect(index, a, rng)
    kind = "clean" if index % 2 == 0 else ("storage", "computing")[(index // 2) % 2]
    return a, (lambda: _injector(kind, spec.n, spec.block_size, np.random.default_rng([seed, index, 1])))


def run_factor(spec: FactorSpec, seed: int, seconds: float, traced: bool, deadline: float) -> Report:
    from repro import Machine, enhanced_potrf

    report = Report(traced)
    if not traced:
        setups = _library_setup_s(spec, deadline)
    machine = Machine.preset("tardis")
    probes = Probes()
    tracer = ledger.Tracer() if traced else None
    abft_s: list[float] = []
    ref_s: list[float] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    corrections = restarts = 0

    # Warm-up call (not measured): page in the working set, finish lazy init.
    a, _ = _factor_input(spec, seed, WARM_ID, probes)
    probes.check(WARM_ID, enhanced_potrf(machine, a=a, block_size=spec.block_size).factor)

    index = 0
    end = time.monotonic() + seconds
    while time.monotonic() < end or index < 3:
        if time.monotonic() > deadline:
            raise RunFailed("hard time limit reached while measuring")
        a, make_injector = _factor_input(spec, seed, index, probes)
        report.attempted += 1
        if not traced:
            t0 = time.perf_counter()
            np.linalg.cholesky(a)
            ref_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            result = enhanced_potrf(machine, a=a, block_size=spec.block_size, injector=make_injector())
            abft_s.append(time.perf_counter() - t0)
        else:
            # Alternate which of the pair runs first so drift cancels.
            order = (False, True) if index % 2 == 0 else (True, False)
            for with_trace in order:
                work = a.copy()
                if with_trace:
                    result, wall = tracer.attempt(
                        enhanced_potrf, machine, a=work, block_size=spec.block_size, injector=make_injector()
                    )
                    traced_s.append(wall)
                else:
                    t0 = time.perf_counter()
                    enhanced_potrf(machine, a=work, block_size=spec.block_size, injector=make_injector())
                    untraced_s.append(time.perf_counter() - t0)
        probes.check(index, result.factor)
        corrections += result.stats.data_corrections + result.stats.checksum_corrections
        restarts += result.restarts
        index += 1

    report.wrong = probes.wrong
    report.info["probe_worst_residual"] = f"{probes.worst:.3e}"
    if not traced:
        p50 = percentile(abft_s, 0.5)
        report.metrics = {
            "setup_s": median(setups),
            "jobs_per_s": len(abft_s) / sum(abft_s),
            "latency_p50_s": p50,
            "latency_p90_s": percentile(abft_s, 0.9),
            "gflops": spec.n**3 / 3.0 / p50 / 1e9,
            "abft_tax": p50 / percentile(ref_s, 0.5),
            "peak_rss_mb": _peak_rss_mb(children=False),
        }
        report.info["reference_cholesky_p50_s"] = f"{median(ref_s):.6g}"
        _p90_info(report.info, abft_s)
    else:
        metrics = tracer.layer_metrics()
        metrics.update(
            {
                "abft.corrections": corrections / index,
                "abft.restarts": restarts / index,
                "abft.useful_frac": index / (index + restarts),
                # The library call bypasses the executor and the service.
                "exec.attempts": 0.0,
                "exec.ipc_bytes_per_attempt": 0.0,
                "exec.dispatch_wait_s": 0.0,
                "exec.arena_reuse_frac": 0.0,
                "exec.worker_restarts": 0.0,
                "exec.overhead_s": 0.0,
                "service.attempt_s": 0.0,
                "service.wait_p50_s": 0.0,
                "service.retries": 0.0,
                "service.fallbacks": 0.0,
                "loadgen.max_lateness_s": 0.0,
                "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
            }
        )
        report.metrics = _ordered(metrics)
        _ledger_info(report.info, tracer)
    return report


def _ordered(metrics: dict[str, float]) -> dict[str, float]:
    return {name: metrics[name] for name in LAYER_UNITS if name in metrics}


def _ledger_info(info: dict, tracer: ledger.Tracer) -> None:
    info["trace_attempts"] = tracer.roots
    info["trace_reconcile_gap"] = f"{tracer.reconcile():.3e}"
    if tracer.missing:
        info["trace_missing_targets"] = ",".join(tracer.missing)


# -- serve-small / serve-faults ------------------------------------------------------


@dataclass
class ServeJobs:
    """The seeded job list of one serve run plus its result probes."""

    jobs: list
    probes: Probes
    #: an input matrix of the median job order, for the LAPACK reference
    sample: np.ndarray
    #: ``np.linalg.cholesky`` walls on :attr:`sample`, taken while serving
    reference_s: list[float] = field(default_factory=list)

    def time_reference(self, min_s: float = 1e-3) -> None:
        """Time ``np.linalg.cholesky`` on the sample for at least *min_s*."""
        spent = 0.0
        while spent < min_s:
            t0 = time.perf_counter()
            np.linalg.cholesky(self.sample)
            self.reference_s.append(time.perf_counter() - t0)
            spent += self.reference_s[-1]


def _serve_jobs(spec: ServeSpec, seed: int, count: int, first_id: int = 0) -> list:
    """*count* jobs in stratified blocks: every size meets every fault class
    in the same proportion.

    The sequence of (size, fault class) is part of the workload, drawn from
    :data:`SCHEDULE_SEED` like the open-loop arrival times; *seed* draws
    what varies from run to run: the matrices and the fault sites.
    """
    from repro.service.job import Job

    block = [(n, kind) for n in spec.sizes for kind, k in spec.mix for _ in range(k)]
    jobs = []
    order_rng = np.random.default_rng([SCHEDULE_SEED, 1])
    while len(jobs) < count:
        for pos in order_rng.permutation(len(block)):
            if len(jobs) == count:
                break
            n, kind = block[pos]
            job_id = first_id + len(jobs)
            rng = np.random.default_rng([seed, job_id, 1])
            jobs.append(
                Job(
                    job_id=job_id,
                    n=n,
                    block_size=spec.block_size,
                    seed=seed,
                    injector=_injector(kind, n, spec.block_size, rng),
                )
            )
    return jobs


def _generate_serve(spec: ServeSpec, seed: int, count: int, first_id: int = 0) -> ServeJobs:
    from repro.service.policy import job_matrix

    jobs = _serve_jobs(spec, seed, count, first_id)
    probes = Probes()
    n_ref = statistics.median_low(spec.sizes)
    sample = None
    for job in jobs:
        a = job_matrix(job)
        probes.expect(job.job_id, a, np.random.default_rng([seed, job.job_id, 2]))
        if sample is None and job.n == n_ref:
            sample = a
    return ServeJobs(jobs, probes, sample if sample is not None else spd_matrix(n_ref, np.random.default_rng(seed)))


def _metric(registry, name: str):
    """A registry metric by name, or ``None`` (with a warning) if it is gone."""
    try:
        return registry[name]
    except KeyError:
        sys.stderr.write(f"perfbench: warning: service metric {name} not found; reported absent\n")
        return None


def _counter_values(registry) -> dict[str, float]:
    """Counter totals and histogram (sum, count) the exec ledger reads."""
    out: dict[str, float] = {}
    for name in (
        "executor_attempts_total",
        "executor_ipc_bytes_total",
        "executor_arena_reuse_total",
        "executor_arena_miss_total",
        "executor_worker_restarts_total",
    ):
        metric = _metric(registry, name)
        if metric is not None:
            out[name] = metric.value()
    hist = _metric(registry, "executor_dispatch_seconds")
    if hist is not None:
        out["dispatch_sum"] = hist.sum
        out["dispatch_count"] = float(hist.count)
    return out


def _exec_metrics(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    delta = {k: after[k] - before[k] for k in after if k in before}
    out: dict[str, float] = {}
    attempts = delta.get("executor_attempts_total")
    if attempts is not None:
        out["exec.attempts"] = attempts
        if "executor_ipc_bytes_total" in delta:
            out["exec.ipc_bytes_per_attempt"] = delta["executor_ipc_bytes_total"] / max(attempts, 1.0)
    if "dispatch_count" in delta:
        out["exec.dispatch_wait_s"] = delta["dispatch_sum"] / max(delta["dispatch_count"], 1.0)
    if "executor_arena_reuse_total" in delta and "executor_arena_miss_total" in delta:
        leases = delta["executor_arena_reuse_total"] + delta["executor_arena_miss_total"]
        out["exec.arena_reuse_frac"] = delta["executor_arena_reuse_total"] / max(leases, 1.0)
    if "executor_worker_restarts_total" in delta:
        out["exec.worker_restarts"] = delta["executor_worker_restarts_total"]
    return out


@dataclass
class ServeOutcome:
    """What the process-backed phase of a serve run measured."""

    setups: list[float]
    latencies: list[float] = field(default_factory=list)
    #: (job, latency) in completion order, completed jobs only
    completed: list = field(default_factory=list)
    wall_s: float = 0.0
    submitted: int = 0
    failed: int = 0
    useful_flops: float = 0.0
    max_lateness_s: float = 0.0
    waits: list[float] = field(default_factory=list)
    retries: int = 0
    fallbacks: int = 0
    exec_metrics: dict[str, float] = field(default_factory=dict)
    #: parent-side executor round trip of each job's first attempt
    roundtrip_s: dict[int, float] = field(default_factory=dict)
    pool_exhausted: bool = False


async def _serve(
    spec: ServeSpec,
    seed: int,
    work: ServeJobs,
    warm: ServeJobs,
    seconds: float,
    setups: int,
    time_roundtrips: bool,
) -> ServeOutcome:
    from repro.service.core import ServiceConfig, SolveService

    nproc = os.cpu_count() or 1
    config = ServiceConfig(
        workers=(f"tardis:{nproc}",),
        executor="process",
        exec_workers=nproc,
        max_queue_depth=1_000_000,
        job_timeout_s=JOB_TIMEOUT_S,
        keep_factors=True,
    )
    outcome = ServeOutcome(setups=[])
    by_id = {job.job_id: job for job in work.jobs}
    service = None
    clean_exit = False
    try:
        for k in range(setups):
            t0 = time.perf_counter()
            service = SolveService(config)
            await service.start_executor()
            outcome.setups.append(time.perf_counter() - t0)
            if k < setups - 1:
                await service.stop()
                service = None
        if time_roundtrips:
            _time_roundtrips(service.executor, outcome.roundtrip_s)
        service.start()

        # Warm-up (not measured): every worker sees every size once.
        for job in warm.jobs:
            service.submit(job)
        for _ in warm.jobs:
            result = await service.completions.get()
            if result.completed:
                warm.probes.check(result.job_id, result.factor)
            result.factor = result.timeline = None
        outcome.roundtrip_s.clear()
        before = _counter_values(service.metrics)

        started_at: dict[int, float] = {}

        def submit(job, at: float) -> None:
            started_at[job.job_id] = at
            outcome.submitted += 1
            if not service.submit(job).accepted:
                raise RunFailed(f"job {job.job_id} rejected by admission control")

        reference_due = 0.0

        def settle(result) -> None:
            nonlocal reference_due
            now = time.perf_counter()
            if now >= reference_due:
                # The LAPACK reference is sampled through the run, so it
                # sees the same host speed and load as the jobs do.
                work.time_reference()
                reference_due = now + REFERENCE_PERIOD_S
            job = by_id[result.job_id]
            if result.completed:
                if work.probes.check(job.job_id, result.factor, keep=time_roundtrips):
                    latency = now - started_at[job.job_id]
                    outcome.latencies.append(latency)
                    outcome.completed.append((job, latency))
                    outcome.useful_flops += job.n**3 / 3.0
                outcome.waits.append(result.wait_s)
            else:
                outcome.failed += 1
            outcome.retries += result.retries
            outcome.fallbacks += int(result.fallback_used)
            result.factor = result.timeline = None

        t0 = time.perf_counter()
        if spec.rate is None:
            window = spec.window_per_proc * nproc
            pending = iter(work.jobs)
            outstanding = 0
            for job in pending:
                submit(job, time.perf_counter())
                outstanding += 1
                if outstanding == window:
                    break
            while outstanding:
                result = await service.completions.get()
                received = time.perf_counter()
                outstanding -= 1
                settle(result)
                if received - t0 < seconds:
                    job = next(pending, None)
                    if job is None:
                        outcome.pool_exhausted = True
                    else:
                        # A closed loop's next job is due when the last
                        # completion arrives.
                        submitted = time.perf_counter()
                        outcome.max_lateness_s = max(outcome.max_lateness_s, submitted - received)
                        submit(job, submitted)
                        outstanding += 1
        else:
            count = len(work.jobs)
            arrivals = np.sort(np.random.default_rng([SCHEDULE_SEED, 2]).uniform(0.0, count / spec.rate, count))

            async def generate() -> None:
                for job, offset in zip(work.jobs, arrivals):
                    due = t0 + float(offset)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    outcome.max_lateness_s = max(outcome.max_lateness_s, time.perf_counter() - due)
                    submit(job, due)

            loop = asyncio.get_running_loop()
            generator = loop.create_task(generate())

            async def next_completion():
                getter = loop.create_task(service.completions.get())
                if not generator.done():
                    await asyncio.wait({getter, generator}, return_when=asyncio.FIRST_COMPLETED)
                    if generator.done() and generator.exception() is not None:
                        getter.cancel()
                        await asyncio.gather(getter, return_exceptions=True)
                        generator.result()
                return await getter

            try:
                for _ in range(count):
                    settle(await next_completion())
            finally:
                if not generator.done():
                    generator.cancel()
                await asyncio.gather(generator, return_exceptions=True)
            generator.result()
        outcome.wall_s = time.perf_counter() - t0
        outcome.exec_metrics = _exec_metrics(before, _counter_values(service.metrics))
        clean_exit = True
    finally:
        if service is not None:
            if clean_exit:
                await service.stop()
            else:
                await service.abort()
    return outcome


def _time_roundtrips(executor, sink: dict[int, float]) -> None:
    """Record the parent-side wall of each job's first successful attempt."""
    inner = executor.execute

    async def execute(request):
        t0 = time.perf_counter()
        outcome = await inner(request)
        if request.kind == "attempt":
            sink.setdefault(request.job.job_id, time.perf_counter() - t0)
        return outcome

    executor.execute = execute


def _replay(spec: ServeSpec, seed: int, outcome: ServeOutcome, work: ServeJobs, seconds: float, report: Report):
    """Re-run completed jobs in-process, untraced and traced, for the ledger."""
    from repro import Machine
    from repro.service.policy import execute_attempt, job_matrix

    machine = Machine.preset("tardis")
    tracer = ledger.Tracer()
    fresh = {job.job_id: job for job in _serve_jobs(spec, seed, len(work.jobs))}
    twin = {job.job_id: job for job in _serve_jobs(spec, seed, len(work.jobs))}
    scratch: dict[int, np.ndarray] = {}
    untraced_s: list[float] = []
    traced_s: list[float] = []
    overhead: list[float] = []
    corrections = restarts = 0
    end = time.monotonic() + seconds
    for index, (job, _latency) in enumerate(outcome.completed):
        if index and time.monotonic() > end:
            break
        a = job_matrix(job)
        buf = scratch.setdefault(job.n, np.empty_like(a))
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order:
            work_a = a.copy()
            if with_trace:
                result, wall = tracer.attempt(
                    execute_attempt, fresh[job.job_id], machine, a=work_a, scratch=buf
                )
                traced_s.append(wall)
                work.probes.check(job.job_id, result.factor, keep=True)
                corrections += result.corrected_errors
                restarts += result.restarts
            else:
                t0 = time.perf_counter()
                execute_attempt(twin[job.job_id], machine, a=work_a, scratch=buf)
                wall = time.perf_counter() - t0
                untraced_s.append(wall)
                if job.job_id in outcome.roundtrip_s:
                    overhead.append(outcome.roundtrip_s[job.job_id] - wall)
    replayed = len(traced_s)
    metrics = tracer.layer_metrics()
    metrics.update(outcome.exec_metrics)
    metrics.update(
        {
            "abft.corrections": corrections / replayed,
            "abft.restarts": restarts / replayed,
            "abft.useful_frac": replayed / (replayed + restarts),
            "service.attempt_s": tracer.root_s / replayed,
            "service.wait_p50_s": median(outcome.waits),
            "service.retries": float(outcome.retries),
            "service.fallbacks": float(outcome.fallbacks),
            "loadgen.max_lateness_s": outcome.max_lateness_s,
            "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
        }
    )
    if overhead:
        metrics["exec.overhead_s"] = median(overhead)
    report.metrics = _ordered(metrics)
    _ledger_info(report.info, tracer)
    report.info["replayed_jobs"] = replayed


def run_serve(spec: ServeSpec, seed: int, seconds: float, traced: bool, deadline: float) -> Report:
    report = Report(traced)
    nproc = os.cpu_count() or 1
    measure_s = seconds / 2 if traced else seconds
    if spec.rate is None:
        count = max(4 * nproc, math.ceil(spec.max_rate * measure_s))
    else:
        count = max(1, round(spec.rate * measure_s))
    work = _generate_serve(spec, seed, count)
    warm = _generate_serve(
        replace(spec, sizes=tuple(sorted(set(spec.sizes))), mix=(("clean", 1),)),
        seed,
        len(set(spec.sizes)) * nproc,
        first_id=WARM_ID,
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("hard time limit reached while generating inputs")
    coro = _serve(spec, seed, work, warm, measure_s, 1 if traced else spec.setups, traced)
    try:
        outcome = asyncio.run(asyncio.wait_for(coro, remaining))
    except asyncio.TimeoutError:
        raise RunFailed("hard time limit reached while serving") from None

    report.attempted = outcome.submitted
    report.failed = outcome.failed
    if not outcome.latencies:
        raise RunFailed("no job completed")
    report.info["max_lateness_s"] = f"{outcome.max_lateness_s:.6g}"
    if spec.rate is not None and outcome.max_lateness_s > MAX_LATENESS_S:
        raise RunFailed(
            f"load generator fell behind its schedule by {outcome.max_lateness_s:.3f}s "
            f"(limit {MAX_LATENESS_S}s); the run is invalid"
        )
    if outcome.pool_exhausted:
        report.info["job_pool_exhausted"] = f"after {outcome.submitted} jobs"
    if not traced:
        latencies = outcome.latencies
        p50 = percentile(latencies, 0.5)
        report.metrics = {
            "setup_s": median(outcome.setups),
            "jobs_per_s": len(latencies) / outcome.wall_s,
            "latency_p50_s": p50,
            "latency_p90_s": percentile(latencies, 0.9),
            "gflops": outcome.useful_flops / outcome.wall_s / 1e9,
            "abft_tax": p50 / median(work.reference_s),
            "peak_rss_mb": _peak_rss_mb(children=True),
        }
        _p90_info(report.info, latencies)
        report.info["offered_rate_per_s"] = spec.rate if spec.rate is not None else "closed loop"
    else:
        budget = max(0.0, min(seconds / 2, deadline - time.monotonic() - 5.0))
        _replay(spec, seed, outcome, work, budget, report)
    report.wrong = work.probes.wrong + warm.probes.wrong
    report.info["probe_worst_residual"] = f"{max(work.probes.worst, warm.probes.worst):.3e}"
    return report


# -- entry -----------------------------------------------------------------------------


def _shm_names() -> set[str]:
    """Shared-memory segments in ``/dev/shm``.

    Named semaphores (``sem.*``) are left out: multiprocessing unlinks them
    right after creating them, so one seen here is another process's,
    caught in passing.  The check assumes one benchmark run at a time.
    """
    try:
        return {name for name in os.listdir("/dev/shm") if not name.startswith("sem.")}
    except OSError:
        return set()


def _child_pids() -> set[int]:
    """Live (or unreaped) child processes of this process, from ``/proc``."""
    pids: set[int] = set()
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one is running.

    The spawn-based pool starts it on first use and the interpreter never
    waits for it: left alone it outlives the benchmark as an orphan.  Its
    private ``_stop`` closes the tracker's pipe and waits for it to exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _check_program_import() -> None:
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise RunFailed(f"imported repro from {where}, not from this checkout's src")


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, spec: FactorSpec | ServeSpec | None = None
) -> Report:
    """Run one workload under a hard time limit; verify nothing leaks."""
    spec = spec if spec is not None else WORKLOADS[name]
    limit = min(HARD_CAP_S, seconds + HARD_SLACK_S)
    deadline = time.monotonic() + limit
    # Last resort if a blocking call ignores the deadline: dump and exit.
    faulthandler.dump_traceback_later(limit + 30.0, exit=True, file=sys.__stderr__)
    shm_before = _shm_names()
    try:
        _check_program_import()
        if isinstance(spec, FactorSpec):
            report = run_factor(spec, seed, seconds, traced, deadline)
        else:
            report = run_serve(spec, seed, seconds, traced, deadline)
    finally:
        faulthandler.cancel_dump_traceback_later()
        _stop_resource_tracker()
        leftover_procs = sorted({p.pid for p in multiprocessing.active_children()} | _child_pids())
        leftover_shm = sorted(_shm_names() - shm_before)
    if leftover_procs or leftover_shm:
        raise RunFailed(f"run left processes {leftover_procs} and shm segments {leftover_shm} behind")
    report.stamp = stamp(ROOT, os.environ.get("OPENBLAS_NUM_THREADS", "?"))
    report.stamp.update({"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)})
    return report
