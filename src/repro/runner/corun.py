"""Multiprogrammed co-runs on the shared L2 (paper Section 5.3).

Two or more processes share the simulated L2, either *uncontrolled*
(every process may use every color -- the paper's baseline) or
*partitioned* (disjoint color sets chosen by the selector).  Processes
are interleaved by their virtual cycle clocks: at every step the process
that is least far along in time executes, so a process slowed by misses
naturally issues fewer accesses per unit time, exactly like time-shared
cores.

The headline metric matches Figure 7: per-application average IPC,
normalized to the uncontrolled-sharing configuration (in %).  The
multiprogrammed run ends when any one application completes its quota
('terminated as soon as one of the applications ended').
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.runner.driver import Process
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import (
    NativeCorun,
    collector_covered,
    count_fallback,
    fallback_reason,
)
from repro.sim.hierarchy import AccessResult, MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload

__all__ = [
    "CorunScheduler", "CorunSpec", "CorunResult", "LegMonitor", "corun",
    "normalized_ipc",
]


@dataclass(frozen=True)
class CorunSpec:
    """One process slot in a co-run.

    Args:
        workload: the application model.
        colors: partition colors, or ``None`` for uncontrolled sharing.
        seed_offset: decorrelates identical workloads (3x applu).
    """

    workload: Workload
    colors: Optional[Sequence[int]] = None
    seed_offset: int = 0


@dataclass
class CorunResult:
    """Per-application outcomes of one multiprogrammed run."""

    names: List[str]
    ipc: List[float]
    mpki: List[float]
    instructions: List[int]
    accesses: List[int]

    def ipc_of(self, index: int) -> float:
        return self.ipc[index]


class LegMonitor(Protocol):
    """A per-access hook the native engine can run ahead of.

    The scalar heap calls :meth:`on_step` after every access.  The
    native engine instead runs each process up to the access count
    :meth:`stop_counts` names (or until its collector's log fills),
    feeding :meth:`collectors` and charging ``exception_cost_cycles``
    per PMU exception in C.  It then reports what every process ran
    through :meth:`credit` and calls :meth:`on_stop` once for the
    stopping access.  ``stop_counts`` also names what each stop is for
    (``interval``, ``probe``, ...), the label ``sim.native_stops``
    counts it under.  The monitor guarantees the two are equivalent:
    every access before a stop is one whose ``on_step`` would only have
    fed the collector, charged its exceptions and counted instructions.
    """

    exception_cost_cycles: float

    def on_step(self, index: int, result: AccessResult) -> None: ...

    def collectors(self) -> Sequence[object]: ...

    def stop_counts(
        self, quota_at: Sequence[int]
    ) -> Tuple[List[int], List[str]]: ...

    def credit(self, executed: Sequence[int]) -> None: ...

    def on_stop(self, index: int) -> None: ...


class CorunScheduler:
    """The one cycle-fair interleave of time-shared processes.

    Every step executes the process least far along in virtual time --
    the lowest ``(cycles, index)`` key, so equal clocks step the lowest
    index.  :func:`corun` and the dynamic manager (and through it the
    fleet service) drive their processes through this object.

    The engine is chosen once.  A ``sim_engine="native"`` machine whose
    every process the compiled engine covers runs its legs inside C
    (:class:`~repro.sim.fastsim.NativeCorun`): unhooked legs in one
    call, monitored legs (a :class:`LegMonitor`) stop by stop.  Anything
    else runs the scalar heap, with the fallback reason counted as
    ``sim.batch_fallbacks{reason}``.  Both orders are bit-identical.

    The native session stays adopted across legs: between legs Python
    owns only the processes' clocks and core counters, so an owner that
    touches anything else of the simulated machine (caches, page
    tables, prefetchers, the allocator) calls :meth:`release` first.
    """

    def __init__(self, processes: Sequence[Process],
                 hierarchy: MemoryHierarchy):
        self.processes = list(processes)
        self.hierarchy = hierarchy
        self._native = False
        self._native_runner: Optional[NativeCorun] = None
        self._cycle_base: Optional[List[float]] = None
        if hierarchy.machine.sim_engine == "native":
            reasons = (fallback_reason(p, hierarchy) for p in self.processes)
            reason = next(filter(None, reasons), None)
            if reason is None:
                self._native = True
            else:
                count_fallback(reason)

    @property
    def in_window(self) -> bool:
        """True once :meth:`start_window` opened a measurement window."""
        return self._cycle_base is not None

    def release(self) -> None:
        """Commit the native session's state to the Python objects and
        drop it (no-op when none is held)."""
        runner = self._native_runner
        if runner is not None:
            self._native_runner = None
            runner.release()

    def run_until(
        self,
        target_extra: int,
        on_step: Optional[Callable[[int, AccessResult], None]] = None,
        monitor: Optional[LegMonitor] = None,
    ) -> None:
        """Interleave until one process executes ``target_extra`` more
        accesses than it had when this call began.

        ``on_step(index, result)`` runs after every access, before the
        quota check; the stepped process re-enters the schedule at its
        post-hook clock, so cycles the hook charges (PMU exceptions,
        page migrations) delay its next turn.  A hooked leg runs the
        scalar heap: the engine cannot run ahead of arbitrary Python.
        A ``monitor`` is the hook in a form the engine can run ahead
        of: its scalar ``on_step`` and its native stops are equivalent.
        """
        start = [p.accesses for p in self.processes]
        if monitor is not None:
            on_step = monitor.on_step
        try:
            if self._native:
                if monitor is not None:
                    if self._run_monitored(start, target_extra, monitor):
                        return
                elif on_step is not None:
                    count_fallback("observer")
                elif self._run_native(start, target_extra):
                    return
            # The scalar heap below needs the live Python state.
            self.release()
            self._run_scalar(start, target_extra, on_step)
        finally:
            if self._native_runner is not None:
                self._native_runner.flush_telemetry()

    def _runner(self) -> NativeCorun:
        if self._native_runner is None:
            self._native_runner = NativeCorun(self.processes, self.hierarchy)
        return self._native_runner

    def _run_native(self, start: List[int], target_extra: int) -> bool:
        """An unhooked leg in one C call; False on a ``vaddr`` bail."""
        runner = self._runner()
        index, _log_full = runner.run([s + target_extra for s in start])
        if index < 0:
            return self._bail()
        runner.note_stop("quota")
        return True

    def _run_monitored(self, start: List[int], target_extra: int,
                       monitor: LegMonitor) -> bool:
        """A monitored leg on the native engine, one stop at a time.

        Returns False when the rest of the leg must run on the scalar
        heap: a collector the engine does not cover (``observer``) or a
        chunk it cannot simulate (``vaddr``).  Either way every access
        so far has had its monitor logic run, so the heap continues the
        leg access-exactly.
        """
        processes = self.processes
        quota_at = [s + target_extra for s in start]
        while True:
            collectors = monitor.collectors()
            if not all(c is None or collector_covered(c)
                       for c in collectors):
                count_fallback("observer")
                return False
            runner = self._runner()
            stops, reasons = monitor.stop_counts(quota_at)
            before = [p.accesses for p in processes]
            index, log_full = runner.run(
                stops, collectors, monitor.exception_cost_cycles
            )
            monitor.credit(
                [p.accesses - b for p, b in zip(processes, before)]
            )
            if index < 0:
                return self._bail()
            runner.note_stop("done" if log_full else reasons[index])
            monitor.on_stop(index)
            if processes[index].accesses >= quota_at[index]:
                return True

    def _bail(self) -> bool:
        # A chunk the native engine cannot simulate: no process has
        # reached its quota yet, so the scalar heap continues the leg
        # access-exactly.  Stay off the native path from here on.
        self._native = False
        count_fallback("vaddr")
        return False

    def _run_scalar(
        self,
        start: List[int],
        target_extra: int,
        on_step: Optional[Callable[[int, AccessResult], None]],
    ) -> None:
        processes = self.processes
        hierarchy = self.hierarchy
        steps = [p.step for p in processes]
        heap: List[Tuple[float, int]] = [
            (p.cycles, i) for i, p in enumerate(processes)
        ]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while True:
            _cycles, index = pop(heap)
            process = processes[index]
            result = steps[index](hierarchy)
            if on_step is not None:
                on_step(index, result)
            if process.accesses - start[index] >= target_extra:
                return
            push(heap, (process.cycles, index))

    def start_window(self) -> None:
        """Open the measurement window: zero the hierarchy counters and
        process metrics, and snapshot the cycle clocks.

        Clocks are *not* reset -- fairness carries over from warmup --
        so :meth:`ipc` measures cycles from here.
        """
        self.hierarchy.reset_counters()
        for process in self.processes:
            process.reset_metrics()
        self._cycle_base = [p.cycles for p in self.processes]

    def ipc(self) -> List[float]:
        """Per-process instructions over cycles since :meth:`start_window`."""
        return [
            p.instructions / (p.cycles - base) if p.cycles > base else 0.0
            for base, p in zip(self._cycle_base, self.processes)
        ]


def corun(
    specs: Sequence[CorunSpec],
    machine: MachineConfig,
    quota_accesses: int,
    warmup_accesses: int = 0,
    issue_mode: IssueMode = IssueMode.COMPLEX,
    prefetch_enabled: bool = True,
) -> CorunResult:
    """Run the processes together until one exhausts its access quota.

    Args:
        specs: one entry per process; each gets its own core (private
            L1s), all share the L2/L3.
        quota_accesses: per-process access budget; the run stops when the
            first process reaches it (paper: runs terminate when one
            application ends).
        warmup_accesses: per-process accesses executed (interleaved)
            before metrics are reset, to reach cache steady state.
    """
    if not specs:
        raise ValueError("need at least one process")
    if quota_accesses <= 0:
        raise ValueError("quota must be positive")

    hierarchy = MemoryHierarchy(machine, num_cores=len(specs))
    allocator = PageAllocator(machine)
    processes: List[Process] = []
    for index, spec in enumerate(specs):
        processes.append(
            Process(
                pid=index,
                workload=spec.workload,
                core=index,
                allocator=allocator,
                colors=spec.colors,
                issue_mode=issue_mode,
                prefetcher=PrefetcherConfig(enabled=prefetch_enabled),
                seed_offset=spec.seed_offset,
            )
        )
    scheduler = CorunScheduler(processes, hierarchy)
    if warmup_accesses > 0:
        scheduler.run_until(warmup_accesses)
    scheduler.start_window()
    scheduler.run_until(quota_accesses)
    return CorunResult(
        names=[spec.workload.name for spec in specs],
        ipc=scheduler.ipc(),
        mpki=[hierarchy.counters[i].mpki() for i in range(len(processes))],
        instructions=[p.instructions for p in processes],
        accesses=[p.accesses for p in processes],
    )


def normalized_ipc(result: CorunResult, baseline: CorunResult) -> List[float]:
    """Per-application IPC as a percentage of the baseline run's
    (Figure 7's 'Normalized Avg IPC (%)')."""
    if result.names != baseline.names:
        raise ValueError("runs being compared contain different applications")
    normalized: List[float] = []
    for value, base in zip(result.ipc, baseline.ipc):
        normalized.append(100.0 * value / base if base > 0 else 0.0)
    return normalized
