"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions of each layer for the
duration of a traced run and restores them afterwards.  Every wrapper
records its call count and *self* time: the span's duration minus the
part covered by wrapped calls nested inside it.  Self times of all
layers therefore never sum to more than the traced wall time; the rest
is reported as ``unattributed_s``.

Module-level functions are patched wherever the name is looked up, not
only where it is defined: after ``from repro.apps.coscheduling import
place_on_domains``, ``repro.fleet.service`` holds its own reference, so
every loaded module's attribute bound to the original function -- the
benchmark's own modules included -- is replaced.  Methods are patched
on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTracer", "per_layer_metrics"]

#: layer -> (``module:qualname``, ...) of the wrapped public functions.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.step": ("repro.runner.driver:Process.step",),
    "sim.hierarchy": (
        "repro.sim.hierarchy:MemoryHierarchy.access",
        "repro.sim.hierarchy:MemoryHierarchy.prefetch_fill",
    ),
    "sim.drive": ("repro.runner.driver:drive", "repro.runner.driver:drive_batch"),
    "runner.dynamic": ("repro.runner.dynamic:DynamicPartitionManager.step_accesses",),
    "runner.offline": (
        "repro.runner.offline:measure_mpki", "repro.runner.offline:real_mrc",
    ),
    "runner.online": ("repro.runner.online:collect_trace",),
    "pmu": (
        "repro.pmu.sampling:TraceCollector.observe",
        "repro.pmu.sampling:TraceCollector.observe_events",
        "repro.pmu.sampling:TraceCollector.finish",
    ),
    "core.correction": (
        "repro.core.correction:correct_stale_repetitions",
        "repro.core.fastpath:correct_stale_repetitions",
    ),
    "core.stack": ("repro.core.stack:LRUStackSimulator.process",),
    "core.mrc": (
        "repro.core.rapidmrc:RapidMRC.compute",
        "repro.core.rapidmrc:RapidMRCResult.calibrate",
    ),
    "core.partition": (
        "repro.core.partition:choose_partition_sizes_multi",
        "repro.apps.coscheduling:place_on_domains",
    ),
    "reliability": (
        "repro.reliability.quality:assess_probe",
        "repro.reliability.supervisor:ProbeSupervisor.admit",
    ),
    "fleet.budget": (
        "repro.fleet.budget:GlobalProbeBudget.request",
        "repro.fleet.budget:GlobalProbeBudget.settle",
    ),
    "fleet.breaker": ("repro.fleet.breaker:DomainCircuitBreaker.admit",),
    "fleet.service": ("repro.fleet.service:FleetService.run",),
    "io": (
        "repro.io.perf_script:parse_perf_script",
        "repro.io.perf_script:split_by_pid",
        "repro.io.perf_script:samples_to_lines",
    ),
}


def _count_probe(counts: Counter, probe, _args) -> None:
    counts["pmu.entries"] += len(probe.entries)
    counts["pmu.l1d_misses"] += probe.l1d_misses
    counts["pmu.dropped"] += probe.dropped_events
    counts["pmu.stale"] += probe.stale_entries


def _count_correction(counts: Counter, correction, _args) -> None:
    counts["correction.converted"] += correction.converted
    counts["correction.entries"] += len(correction.trace)


def _count_stack(counts: Counter, _histogram, args) -> None:
    counts["core.stack.entries"] += len(args[1])


def _count_quality(counts: Counter, quality, _args) -> None:
    counts["reliability.assessed"] += 1
    counts["reliability.admitted"] += bool(quality.ok)


def _count_request(counts: Counter, admitted, _args) -> None:
    counts["budget.requests"] += 1
    counts["budget.admitted"] += bool(admitted)


def _count_parse(counts: Counter, report, _args) -> None:
    counts["io.lines"] += report.total_lines
    counts["io.skipped"] += report.skipped_lines


#: Target -> counter hook fed the call's result and arguments.
_OBSERVERS: Dict[str, Callable] = {
    "repro.pmu.sampling:TraceCollector.finish": _count_probe,
    "repro.core.correction:correct_stale_repetitions": _count_correction,
    "repro.core.fastpath:correct_stale_repetitions": _count_correction,
    "repro.core.stack:LRUStackSimulator.process": _count_stack,
    "repro.reliability.quality:assess_probe": _count_quality,
    "repro.fleet.budget:GlobalProbeBudget.request": _count_request,
    "repro.io.perf_script:parse_perf_script": _count_parse,
}


class LayerTracer:
    """Wraps every layer's public functions while installed (a context manager)."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {layer: [0, 0.0] for layer in LAYERS}
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, Optional[object]]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    self._patch(layer, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, layer: str, target: str) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        owner_path, _, attr = qualname.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            function = getattr(owner, attr)
            own = owner.__dict__.get(attr)
            self._undo.append((owner, attr, own))
            setattr(owner, attr, self._wrap(layer, target, function))
            return
        function = getattr(module, attr)
        wrapper = self._wrap(layer, target, function)
        for loaded in list(sys.modules.values()):
            if loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is function:
                    self._undo.append((loaded, key, function))
                    setattr(loaded, key, wrapper)

    def _wrap(self, layer: str, target: str, function: Callable) -> Callable:
        stat = self.stats[layer]
        stack = self._stack
        counts = self.counts
        observe = _OBSERVERS.get(target)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(counts, result, args)
            return result

        return traced


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: LayerTracer, telemetry_counters: Dict[str, int],
                      slowdown: float, traced_wall_s: float,
                      untraced_wall_s: float):
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are in reference seconds: raw self times are divided by the
    host ``slowdown`` measured over the traced pass, and both walls are
    given already converted.
    """
    metrics = {}
    for layer, (calls, self_s) in tracer.stats.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s / slowdown, "s")
    counts = tracer.counts
    batched = telemetry_counters.get("sim.batch_accesses", 0)
    accesses = tracer.stats["sim.step"][0] + batched
    metrics["sim.accesses"] = (accesses, "count")
    metrics["sim.native_frac"] = (_ratio(batched, accesses), "ratio")
    metrics["sim.fallbacks"] = (
        telemetry_counters.get("sim.batch_fallbacks", 0), "count",
    )
    metrics["pmu.entries"] = (counts["pmu.entries"], "count")
    metrics["pmu.dropped_frac"] = (
        _ratio(counts["pmu.dropped"], counts["pmu.l1d_misses"]), "ratio",
    )
    metrics["pmu.stale_frac"] = (
        _ratio(counts["pmu.stale"], counts["pmu.entries"]), "ratio",
    )
    metrics["core.correction.converted_frac"] = (
        _ratio(counts["correction.converted"], counts["correction.entries"]),
        "ratio",
    )
    metrics["core.stack.entries"] = (counts["core.stack.entries"], "count")
    metrics["reliability.admit_frac"] = (
        _ratio(counts["reliability.admitted"], counts["reliability.assessed"]),
        "ratio",
    )
    metrics["fleet.budget.admit_frac"] = (
        _ratio(counts["budget.admitted"], counts["budget.requests"]), "ratio",
    )
    metrics["io.lines"] = (counts["io.lines"], "count")
    metrics["io.skipped_frac"] = (
        _ratio(counts["io.skipped"], counts["io.lines"]), "ratio",
    )
    attributed = sum(
        self_s / slowdown for _calls, self_s in tracer.stats.values()
    )
    metrics["traced_wall_s"] = (traced_wall_s, "s")
    metrics["unattributed_s"] = (traced_wall_s - attributed, "s")
    metrics["trace_overhead_frac"] = (
        _ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio",
    )
    return metrics
