"""The traced run's layer ledger: spans around the program's layer entry points.

The benchmark installs wrappers around a fixed table of functions — the
dense kernels, the ABFT encode/update/verify steps, the time plane's task
graph construction and discrete-event replay, and the service's residual
gate — times every call, and folds each call into its span's *self time*
(its duration minus the time of the spans nested inside it).  The root
span is one attempt; what no layer span covers is the attempt's own self
time, reported as ``other``.  Self times of all spans plus ``other`` add
up to the attempt wall by construction of the span stack; :meth:`Tracer.
reconcile` checks that they do.

Spans are aggregated on the fly (a stack of open frames plus per-name
totals), so memory stays bounded however long the traced run is.  A target
that a later refactor renamed or deleted is skipped with a warning; every
metric derived from it is then reported absent, and untraced runs never
install anything.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

OTHER = "other"


def _potf2_flops(a, *_args, **_kw) -> float:
    n = a.shape[0]
    return n**3 / 3.0


def _trsm_flops(b, ell, *_args, **_kw) -> float:
    return float(b.shape[0]) * ell.shape[0] ** 2


def _syrk_flops(c, a, *_args, **_kw) -> float:
    # The kernel updates the full square (``C -= A @ A.T``).
    return 2.0 * c.shape[0] ** 2 * a.shape[1]


def _gemm_flops(c, a, *_args, **_kw) -> float:
    return 2.0 * c.shape[0] * c.shape[1] * a.shape[1]


def _task_count(result) -> float:
    return float(len(result.timeline))


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:attr.path`` timed as span *span*."""

    span: str
    module: str
    attr: str
    #: flops of one call, from its arguments (kernels only)
    flops: Callable[..., float] | None = None
    #: work items of one call, from its return value
    items: Callable[[Any], float] | None = None


TARGETS: tuple[Target, ...] = (
    Target("kernel.potf2", "repro.blas.dense", "potf2", flops=_potf2_flops),
    Target("kernel.trsm", "repro.blas.dense", "trsm_right_lt", flops=_trsm_flops),
    Target("kernel.syrk", "repro.blas.dense", "syrk_update", flops=_syrk_flops),
    Target("kernel.gemm", "repro.blas.dense", "gemm_update", flops=_gemm_flops),
    Target("abft.encode", "repro.core.base", "SchemeRun.encode"),
    Target("abft.update", "repro.core.update", "ChecksumUpdater.update_syrk"),
    Target("abft.update", "repro.core.update", "ChecksumUpdater.update_gemm"),
    Target("abft.update", "repro.core.update", "ChecksumUpdater.update_potf2"),
    Target("abft.update", "repro.core.update", "ChecksumUpdater.update_trsm"),
    Target("abft.verify", "repro.core.correct", "Verifier.verify_batch"),
    Target("timeplane.build", "repro.hetero.context", "ExecutionContext.launch_gpu"),
    Target("timeplane.build", "repro.hetero.context", "ExecutionContext.launch_cpu"),
    Target("timeplane.build", "repro.hetero.context", "ExecutionContext.transfer_d2h"),
    Target("timeplane.build", "repro.hetero.context", "ExecutionContext.transfer_h2d"),
    Target("timeplane.replay", "repro.hetero.context", "ExecutionContext.simulate", items=_task_count),
    Target("service.residual_gate", "repro.service.policy", "factorization_residual"),
)

KERNELS = ("kernel.potf2", "kernel.trsm", "kernel.syrk", "kernel.gemm")


def _resolve(target: Target) -> tuple[Any, str, Any] | None:
    """``(owner, name, original)`` for *target*, or ``None`` if it is gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Self-time accounting over a stack of open spans (one thread)."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.flops: dict[str, float] = defaultdict(float)
        self.items: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.roots = 0
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.missing: list[str] = []
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(f"{target.module}:{target.attr}")
                sys.stderr.write(
                    f"perfbench: warning: trace target {target.module}:{target.attr} not found; "
                    f"{target.span} is reported absent\n"
                )
                continue
            owner, name, original = found
            self._patches.append((owner, name, original, self._wrap(target, original)))
        self.missing_spans = {t.span for t in targets if f"{t.module}:{t.attr}" in self.missing}

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        span, flops, items = target.span, target.flops, target.items
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                self_s[span] += dur - frame[1]
                calls[span] += 1
                if stack:
                    stack[-1][1] += dur
            if flops is not None:
                self.flops[span] += flops(*args, **kwargs)
            if items is not None:
                self.items[span] += items(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolved target for the duration of the block."""
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        try:
            yield self
        finally:
            for owner, name, original, _wrapper in self._patches:
                setattr(owner, name, original)

    def attempt(self, fn: Callable, *args, **kwargs):
        """Run *fn* as one root span with the wrappers installed.

        Returns ``(result, wall_s)``.
        """
        if self._stack:
            raise RuntimeError("attempt spans do not nest")
        with self.installed():
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                wall = time.perf_counter() - frame[0]
                self.self_s[OTHER] += wall - frame[1]
                self.root_s += wall
                self.roots += 1
        return result, wall

    def reconcile(self) -> float:
        """Relative gap between the summed self times and the attempt wall."""
        total = sum(self.self_s.values())
        return abs(total - self.root_s) / self.root_s if self.root_s else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-attempt layer self times and counts (absent when unresolved)."""
        jobs = max(self.roots, 1)
        out: dict[str, float] = {}

        def put(name: str, value: float, *spans: str) -> None:
            if not any(s in self.missing_spans for s in spans):
                out[name] = value

        for kernel in KERNELS:
            put(f"{kernel}_s", self.self_s[kernel] / jobs, kernel)
        kernel_s = sum(self.self_s[k] for k in KERNELS)
        kernel_flops = sum(self.flops[k] for k in KERNELS)
        put("kernel.gflops", kernel_flops / kernel_s / 1e9 if kernel_s else 0.0, *KERNELS)
        put("abft.encode_s", self.self_s["abft.encode"] / jobs, "abft.encode")
        put("abft.update_s", self.self_s["abft.update"] / jobs, "abft.update")
        put("abft.verify_s", self.self_s["abft.verify"] / jobs, "abft.verify")
        put("abft.verify_calls", self.calls["abft.verify"] / jobs, "abft.verify")
        put("timeplane.build_s", self.self_s["timeplane.build"] / jobs, "timeplane.build")
        put("timeplane.replay_s", self.self_s["timeplane.replay"] / jobs, "timeplane.replay")
        put("timeplane.tasks", self.items["timeplane.replay"] / jobs, "timeplane.replay")
        put(
            "timeplane.share",
            self.self_s["timeplane.replay"] / self.root_s if self.root_s else 0.0,
            "timeplane.replay",
        )
        put(
            "service.residual_gate_s",
            self.self_s["service.residual_gate"] / jobs,
            "service.residual_gate",
        )
        out["trace.unaccounted_frac"] = self.self_s[OTHER] / self.root_s if self.root_s else 0.0
        return out
