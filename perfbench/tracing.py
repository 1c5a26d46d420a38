"""Out-of-band span tracing of the repro layers, for the traced benchmark run.

Everything here wraps public callables from the outside; nothing under
``src/`` is edited.  :func:`install` swaps each instrumented method or
function for a timing wrapper and returns an ``uninstall`` callable that
puts the originals back, so traced and untraced repetitions alternate in
one process.  The kernels are timed through a registered kernel backend
whose *effective* name stays ``numpy``: outputs and sweep-cache keys are
the same as in an untraced run.

A span's self time is its duration minus the time its child spans cover.
Per-layer inclusive time counts only the outermost span of that layer, so
a layer calling itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: Kernel backend the traced repetitions select through ``REPRO_BACKEND``.
TRACED_BACKEND = "numpy-traced"
#: The span around each sweep-cell function: a boundary, not a layer, so
#: its self time (experiment glue no layer claims) stays unattributed.
CELL_SPAN = "sweep.cell"
ROOT_SPAN = "experiments.main"


class Tracer:
    """In-memory span accumulator: self time, outermost inclusive time, calls."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.inclusive_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        on_return: Callable[[tuple[Any, ...], dict[str, Any], Any], None] | None = None,
    ) -> Callable[..., Any]:
        stack = self._stack

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if outermost:
                    self.inclusive_s[name] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced


def _register_traced_backend(tracer: Tracer) -> None:
    from repro.kernels import KernelBackend, get_backend, register_backend

    def factory() -> KernelBackend:
        reference = get_backend("numpy")
        kernels = {
            name: tracer.wrap(f"kernels.{name}", getattr(reference, name))
            for name in KernelBackend.kernel_names()
        }
        return KernelBackend(name=reference.name, compiled=False, **kernels)

    register_backend(TRACED_BACKEND, factory)


def _patch(owner: Any, attr: str, wrapper: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Callable[[], None]:
    """Replace ``owner.attr`` (function, method or classmethod); return the undo."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper(raw.__func__)))
    else:
        setattr(owner, attr, wrapper(raw))
    return lambda: setattr(owner, attr, raw)


def install(tracer: Tracer) -> Callable[[], None]:
    """Instrument every layer boundary; return the callable that removes it."""
    import repro.mc
    from repro.converter.missions import MissionProfile
    from repro.core.ensemble import ConventionalEnsemble, ProposedEnsemble
    from repro.core.yield_analysis import (
        ComponentVariation,
        LinearitySpec,
        MissionSpec,
        RegulationSpec,
    )
    from repro.kernels import ENV_VAR, available_backends
    from repro.pipeline import ChunkedSiliconToRegulation
    from repro.simulation.batch import BatchClosedLoop, BatchQuantizer
    from repro.sweep.cache import ResultCache
    from repro.sweep.orchestrator import SweepOrchestrator
    from repro.technology.variation import VariationModel

    if TRACED_BACKEND not in available_backends():
        _register_traced_backend(tracer)

    def span(name: str, on_return: Any = None) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        return lambda func: tracer.wrap(name, func, on_return)

    def count_periods(args: Any, kwargs: Any, result: Any) -> None:
        tracer.counters["simulation.batch.periods"] += kwargs.get("periods") or args[1]

    def count_mc(args: Any, kwargs: Any, result: Any) -> None:
        tracer.counters["mc.chunks"] += result.chunks
        tracer.counters["mc.samples"] += result.trials

    def traced_map_cells(map_cells: Callable[..., Any]) -> Callable[..., Any]:
        def run(orchestrator: Any, func: Any, cells: Any, **kwargs: Any) -> Any:
            hits, misses = orchestrator.hits, orchestrator.misses
            try:
                return map_cells(
                    orchestrator, tracer.wrap(CELL_SPAN, func), cells, **kwargs
                )
            finally:
                tracer.counters["sweep.cache.hits"] += orchestrator.hits - hits
                tracer.counters["sweep.cache.misses"] += orchestrator.misses - misses

        return tracer.wrap("sweep.map_cells", functools.wraps(map_cells)(run))

    patches = [
        (VariationModel, "sample_batch", span("technology.sample_batch")),
        (VariationModel, "sample_batch_tilted", span("technology.sample_batch")),
        (ProposedEnsemble, "lock", span("core.ensemble.lock")),
        (ConventionalEnsemble, "lock", span("core.ensemble.lock")),
        (ProposedEnsemble, "transfer_curves", span("core.ensemble.transfer_curves")),
        (ConventionalEnsemble, "transfer_curves", span("core.ensemble.transfer_curves")),
        (BatchQuantizer, "from_ensemble", span("simulation.batch.from_ensemble")),
        (BatchClosedLoop, "run", span("simulation.batch.run", count_periods)),
        (MissionProfile, "resistance_at", span("converter.resistance_at")),
        (ChunkedSiliconToRegulation, "run_chunk", span("pipeline.run_chunk")),
        (ChunkedSiliconToRegulation, "run_chunk_tilted", span("pipeline.run_chunk")),
        (LinearitySpec, "passes", span("core.spec")),
        (LinearitySpec, "evaluate", span("core.spec")),
        (RegulationSpec, "passes", span("core.spec")),
        (RegulationSpec, "evaluate", span("core.spec")),
        (MissionSpec, "window_passes", span("core.spec")),
        (ComponentVariation, "sample_batch", span("core.component_sample")),
        (ComponentVariation, "sample_instances", span("core.component_sample")),
        (ComponentVariation, "sample_instances_tilted", span("core.component_sample")),
        (ComponentVariation, "sample_instances_stratum", span("core.component_sample")),
        (repro.mc, "adaptive_sample", span("mc.sampler", count_mc)),
        (repro.mc, "importance_sample", span("mc.sampler", count_mc)),
        (repro.mc, "stratified_sample", span("mc.sampler", count_mc)),
        (ResultCache, "store", span("sweep.cache.store")),
        (SweepOrchestrator, "map_cells", traced_map_cells),
    ]
    undo = [_patch(owner, attr, wrapper) for owner, attr, wrapper in patches]
    previous_backend = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = TRACED_BACKEND

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()
        if previous_backend is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous_backend

    return uninstall


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of ``wall_s`` seconds."""
    from repro.kernels import KernelBackend

    inclusive, own, calls, counters = (
        tracer.inclusive_s,
        tracer.self_s,
        tracer.calls,
        tracer.counters,
    )
    metrics: dict[str, float] = {
        "technology.sample_batch_s": inclusive["technology.sample_batch"],
        "technology.sample_batch_calls": calls["technology.sample_batch"],
        "core.ensemble.lock_s": inclusive["core.ensemble.lock"],
        "core.ensemble.transfer_curves_s": inclusive["core.ensemble.transfer_curves"],
    }
    for name in KernelBackend.kernel_names():
        metrics[f"kernels.{name}_s"] = inclusive[f"kernels.{name}"]
        metrics[f"kernels.{name}_calls"] = calls[f"kernels.{name}"]
    steps = calls["kernels.apply_period_step"]
    metrics["converter.coeff_memo_hit_ratio"] = (
        1.0 - calls["kernels.interval_coefficients"] / steps if steps else 0.0
    )
    periods = counters["simulation.batch.periods"]
    metrics.update(
        {
            "simulation.batch.from_ensemble_s": inclusive["simulation.batch.from_ensemble"],
            "simulation.batch.run_self_s": own["simulation.batch.run"],
            "simulation.batch.s_per_period": (
                inclusive["simulation.batch.run"] / periods if periods else 0.0
            ),
            "converter.resistance_at_calls": calls["converter.resistance_at"],
            "converter.resistance_at_s": inclusive["converter.resistance_at"],
            "pipeline.run_chunk_self_s": own["pipeline.run_chunk"],
            "core.spec_s": inclusive["core.spec"],
            "core.component_sample_s": inclusive["core.component_sample"],
            "mc.sampler_self_s": own["mc.sampler"],
            "mc.chunks": counters["mc.chunks"],
            "mc.samples": counters["mc.samples"],
            "sweep.cache.store_s": inclusive["sweep.cache.store"],
            "sweep.cache.hits": counters["sweep.cache.hits"],
            "sweep.cache.misses": counters["sweep.cache.misses"],
            "sweep.map_overhead_s": inclusive["sweep.map_cells"] - inclusive[CELL_SPAN],
            "experiments.report_s": own[ROOT_SPAN],
            "unattributed_s": wall_s
            - sum(t for name, t in own.items() if name != CELL_SPAN),
        }
    )
    return {name: float(value) for name, value in metrics.items()}


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """Every count of one traced repetition; these must repeat exactly."""
    return {**{f"{k}_calls": v for k, v in tracer.calls.items()}, **tracer.counters}
