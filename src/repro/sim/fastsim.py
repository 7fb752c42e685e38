"""Native-engine plumbing: how the compiled C engine drives processes.

:func:`repro.runner.driver.drive_batch` is the runners' one simulation
entry point.  On a ``MachineConfig(sim_engine="native")`` machine (the
default) it hands every run the compiled engine covers to
:func:`drive_native` -- solo drives -- and the co-run scheduler hands
its legs to :class:`NativeCorun`: unhooked legs in one call, the
dynamic manager's monitored legs stop by stop on a session that stays
resident, with the PMU trace collector running inside the engine.
Both execute the access stream
in array *chunks* inside :mod:`repro.sim.native`, bit-identically to the
scalar :meth:`Process.step` loop: core counters, cache residency in LRU
order, the PMU-visible event stream, float cycle clocks and the
prefetcher and PMU-drop RNGs all match exactly.

Everything the C engine does not cover runs on the scalar reference
instead, counted as ``sim.batch_fallbacks{reason=...}``:

``replacement``
    a non-LRU L1D, L2 or L3 (the C engine hard-codes LRU);
``unavailable``
    no C compiler, ``REPRO_NATIVE=0``, or a prefetcher geometry outside
    the engine's fixed bounds;
``observer``
    an observer that is not a trace collector (no ``observe_events``),
    a stop predicate other than a :class:`CollectorStop` over that
    collector, a co-run leg with an arbitrary per-access hook, or a
    monitored leg whose live collector :func:`collector_covered`
    refuses (a fault-injection wrapper) -- the engine cannot run ahead
    of Python code;
``vaddr``
    a chunk holding negative virtual addresses (C's truncating division
    would diverge from Python's floor division).

Native chunks and scalar steps consume the process's one logical access
stream through a shared :class:`BatchAccessSource`, so a drive that
hands off mid-run, scalar ``step()`` calls and co-run interleaving can
be mixed freely on the same process without skipping or replaying an
access.  ``tests/sim/test_fastsim.py``, ``tests/sim/test_native.py``,
``tests/sim/test_stop_protocol.py`` and
``tests/runner/test_resident_session.py`` hold the native engine
bit-identical to the scalar reference.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.sim.hierarchy import MemoryHierarchy

__all__ = [
    "DEFAULT_SLAB",
    "BatchAccessSource",
    "CollectorStop",
    "NativeCorun",
    "collector_covered",
    "count_fallback",
    "drive_native",
    "fallback_reason",
    "native_eligible",
]

#: Accesses per chunk of a process's access stream.  Every nested
#: pattern cursor holds a chunk, so this bounds the generator's resident
#: arrays; 4096 accesses already amortize the per-chunk C-call overhead.
#: Read at call time wherever a ``slab_size`` is left as None.
DEFAULT_SLAB = 1 << 12


def _slab(slab_size: Optional[int]) -> int:
    return DEFAULT_SLAB if slab_size is None else slab_size


# ---------------------------------------------------------------------------
# Stream ownership
# ---------------------------------------------------------------------------

class BatchAccessSource:
    """Sole owner of one process's access stream, in array form.

    Created the first time the native engine drives a process.  A
    stream that has never been pulled is regenerated through the
    workload's array producers (:meth:`Workload.access_batches`); a live
    iterator (the process was already stepped scalar) is wrapped and
    buffered.  Either way ``process._stream`` is redirected through this
    source, so scalar ``step()`` calls interleaved with native drives
    keep consuming one single stream in order.
    """

    __slots__ = ("_batches", "_pending")

    def __init__(self, process, slab_size: Optional[int] = None):
        slab_size = _slab(slab_size)
        if process._stream is None:
            self._batches = process.workload.access_batches(
                process._seed_offset, batch_size=slab_size
            )
        else:
            self._batches = _buffer_stream(process._stream, slab_size)
        self._pending: deque = deque()
        process._stream = self._scalar_iter()
        process._fastsim_source = self

    def take(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next chunk of at most ``limit`` accesses as ``(vaddrs, stores)``."""
        if self._pending:
            vaddrs, stores, cursor = self._pending.popleft()
        else:
            vaddrs, stores = next(self._batches)
            cursor = 0
        end = cursor + limit
        if end < vaddrs.size:
            self._pending.appendleft((vaddrs, stores, end))
        else:
            end = vaddrs.size
        return vaddrs[cursor:end], stores[cursor:end]

    def push_back(self, vaddrs: np.ndarray, stores: np.ndarray) -> None:
        """Return an unconsumed chunk tail to the front of the stream."""
        if vaddrs.size:
            self._pending.appendleft((vaddrs, stores, 0))

    def _scalar_iter(self) -> Iterator:
        from repro.workloads.base import MemoryAccess

        while True:
            vaddrs, stores = self.take(1)
            yield MemoryAccess(vaddr=int(vaddrs[0]), is_store=bool(stores[0]))


def _buffer_stream(stream: Iterator, slab_size: int):
    while True:
        vaddrs = np.empty(slab_size, dtype=np.int64)
        stores = np.empty(slab_size, dtype=np.bool_)
        for i in range(slab_size):
            access = next(stream)
            vaddrs[i] = access.vaddr
            stores[i] = access.is_store
        yield vaddrs, stores


def _source_for(process,
                slab_size: Optional[int] = None) -> BatchAccessSource:
    source = getattr(process, "_fastsim_source", None)
    if source is None:
        source = BatchAccessSource(process, slab_size)
    return source


class CollectorStop:
    """Early-stop predicate "the collector is done", in declarative form.

    Behaviourally identical to ``lambda: collector.done``, but the
    native engine can *reason* about it: the predicate is a pure
    function of the named collector's state, which only changes through
    the events the drive itself feeds.  That is what lets the native
    engine run a chunk ahead of the observer and rewind to the exact
    access where ``done`` first turned true.  An opaque callable (plain
    lambda) is still honoured everywhere -- it simply sends the drive to
    the scalar reference loop.
    """

    __slots__ = ("collector",)

    def __init__(self, collector):
        self.collector = collector

    def __call__(self) -> bool:
        return bool(self.collector.done)


# ---------------------------------------------------------------------------
# Eligibility gates
# ---------------------------------------------------------------------------

def fallback_reason(process, hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why the compiled engine cannot drive ``process``, or None if it can.

    The C engine hard-codes LRU promotion/eviction for the L1D, the L2
    and the victim L3 (the paper's machine), and fixed prefetcher
    bounds; it is also absent when disabled (``REPRO_NATIVE=0``) or when
    no C compiler was available to build it.
    """
    l3 = hierarchy.l3
    if (
        hierarchy.l1d[process.core].config.replacement != "lru"
        or hierarchy.l2.config.replacement != "lru"
        or (l3.enabled and not (
            l3._cache is not None and l3._cache.config.replacement == "lru"
        ))
    ):
        return "replacement"
    config = process._pf_config
    if config.enabled and not (
        1 <= config.depth <= 64 and config.num_streams >= 1
    ):
        return "unavailable"
    from repro.sim.native import native_available

    return None if native_available() else "unavailable"


def native_eligible(process, hierarchy: MemoryHierarchy) -> bool:
    """True when the compiled C engine covers this configuration."""
    return fallback_reason(process, hierarchy) is None


def count_fallback(reason: str) -> None:
    """Record one native-configured run handed to the scalar reference."""
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.registry.counter("sim.batch_fallbacks", reason=reason).inc()


# ---------------------------------------------------------------------------
# Native (compiled) path
# ---------------------------------------------------------------------------

def drive_native(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    events_fn=None,
    stop: Optional[Callable[[], bool]] = None,
    slab_size: Optional[int] = None,
) -> Tuple[int, bool]:
    """Solo drive on the compiled C engine.

    The caller has checked :func:`native_eligible`.  ``events_fn`` is
    the collector's ``observe_events`` bound method (or None for an
    unobserved run) and ``stop`` is None or a :class:`CollectorStop`.
    Observed chunks run ahead of the collector and are rewound to the
    exact access on which the stop predicate first fired: snapshot,
    simulate, feed the recorded events, and if the collector consumed
    fewer events than the engine produced, restore the snapshot and
    deterministically re-run exactly the consumed prefix.

    Returns ``(executed, finished)``.  ``finished`` False means the
    engine bailed on a chunk with negative virtual addresses and the
    caller must finish the remaining accesses on the scalar loop --
    state is committed and the chunk is back in the stream, so the
    hand-off is access-exact.  Counts ``sim.batch_accesses``,
    ``sim.batch_slabs`` and ``sim.batch_ns`` under ``engine="native"``.
    """
    started = time.perf_counter()
    slab_size = _slab(slab_size)
    source = _source_for(process, slab_size)
    executed, chunks, grows, finished = _run_native(
        process, hierarchy, num_accesses, events_fn, stop, source, slab_size
    )
    telemetry = get_telemetry()
    if telemetry.enabled:
        registry = telemetry.registry
        registry.counter("sim.batch_accesses", engine="native").inc(executed)
        if chunks:
            registry.counter("sim.batch_slabs", engine="native").inc(chunks)
            registry.counter("sim.native_stops", reason="refill").inc(chunks)
        if grows:
            registry.counter("sim.native_stops", reason="grow").inc(grows)
        # Wall time as a counter so throughput survives worker fold-back
        # (a gauge would keep only one worker's last value; the report
        # layer derives accesses/sec from the two counter totals).
        registry.counter("sim.batch_ns", engine="native").inc(
            max(1, int((time.perf_counter() - started) * 1e9))
        )
    return executed, finished


def _run_native(process, hierarchy, num_accesses, events_fn, stop, source,
                slab_size) -> Tuple[int, int, int, bool]:
    """:func:`drive_native`'s engine loop; also returns the chunk and
    grow-stop counts: ``(executed, chunks, grows, finished)``."""
    from repro.sim import native as _native

    session = _native.NativeSession(hierarchy, [process])
    proc = session.procs[0]
    events = None
    if events_fn is not None:
        config = process._pf_config
        depth = config.depth if config.enabled else 0
        events = _native.EventBuffer(min(slab_size, 1 << 14), depth)

    executed = 0
    chunks = 0
    grows = 0
    limit = num_accesses
    session.adopt()
    try:
        if events is None and stop is not None and stop():
            # Scalar parity: the per-access loop executes one access and
            # only then consults the predicate, so a predicate that is
            # already true still consumes exactly one access.  (Without
            # an observer the predicate's state cannot change mid-run.)
            limit = 1
        while executed < limit:
            if session.chunk_remaining(0) == 0:
                vaddrs, stores = source.take(slab_size)
                try:
                    session.set_chunk(0, vaddrs, stores)
                except _native.NativeVaddrError:
                    source.push_back(vaddrs, stores)
                    return executed, chunks, grows, False
                chunks += 1

            if events is None:
                quota = limit - executed
                ran = session.run_solo(0, quota)
                executed += ran
                if ran == quota:
                    break
                reason = proc.stop_reason
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
                    grows += 1
                continue

            quota = min(limit - executed, events.cap)
            snap = session.snapshot(0)
            events.reset()
            ran = session.run_solo(0, quota, events)
            lines, hits, prefetched = events.drain()
            consumed = events_fn(lines, hits, prefetched)
            while stop is None and consumed < ran:
                # No stop predicate: the scalar loop keeps feeding the
                # (now done) collector, so feed the tail through too.
                consumed += events_fn(
                    lines[consumed:],
                    hits[consumed:],
                    prefetched[consumed:] if prefetched is not None else None,
                )
            if consumed < ran:
                # The collector finished mid-chunk: rewind the engine
                # and replay exactly the consumed prefix (deterministic,
                # all prechecks already passed on the first run).
                session.restore(0, snap)
                rerun = session.run_solo(0, consumed)
                if rerun != consumed:
                    raise AssertionError(
                        "native replay diverged (engine bug)"
                    )
                executed += consumed
                return executed, chunks, grows, True
            executed += ran
            if stop is not None and stop():
                return executed, chunks, grows, True
            if ran < quota:
                reason = proc.stop_reason
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
                    grows += 1
    finally:
        session.commit()
    return executed, chunks, grows, True


def collector_covered(collector) -> bool:
    """True when the engine can run ``collector`` inside a co-run leg.

    Only a plain :class:`~repro.pmu.sampling.TraceCollector` with its
    threshold-one PMC qualifies; wrappers (fault injection) and other
    observers keep the scalar per-access hook.
    """
    from repro.pmu.sampling import TraceCollector

    return (
        type(collector) is TraceCollector
        and collector.pmc.threshold == 1
        and not collector.pmc.overflow_pending
    )


class NativeCorun:
    """Compiled co-run scheduler on one resident :class:`NativeSession`.

    :meth:`run` executes the cycle-fair interleave of
    :class:`repro.runner.corun.CorunScheduler` inside
    :func:`repro_corun`, which repeatedly steps the process with the
    lowest (cycles, index) key -- the exact order the heap produces --
    until some process reaches its stop count or fills its attached
    trace collector's log.

    The session is adopted on the first run and stays resident across
    runs.  Between runs Python owns only the *light* state -- every
    process's clocks and core counters, copied in and out around each
    run -- while the *heavy* state (caches, page tables, TLBs,
    prefetchers, RNGs, collectors) stays in C until :meth:`release`
    commits it.  Counts ``sim.native_stops{reason}``,
    ``sim.session_syncs{kind}`` / ``sim.session_sync_ns{kind}`` and the
    ``sim.batch_*`` throughput pair.
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: Optional[int] = None):
        from repro.sim import native as _native

        self._native = _native
        self.processes = list(processes)
        self.slab_size = slab_size = _slab(slab_size)
        self.sources = [_source_for(p, slab_size) for p in self.processes]
        self.session = _native.NativeSession(hierarchy, self.processes)
        self._accesses = 0
        self._ns = 0
        self._stops: Dict[str, int] = {}
        self._syncs: Dict[str, List[int]] = {"light": [0, 0], "full": [0, 0]}

    def note_stop(self, reason: str) -> None:
        """Count one stop of the interleave under ``reason``."""
        self._stops[reason] = self._stops.get(reason, 0) + 1

    def _note_sync(self, kind: str, started: float) -> None:
        entry = self._syncs[kind]
        entry[0] += 1
        entry[1] += max(1, int((time.perf_counter() - started) * 1e9))

    def run(self, stop_at, collectors=None,
            exception_cost: float = 0.0) -> Tuple[int, bool]:
        """Interleave until one process, right after an access, has
        ``stop_at[index]`` accesses in total or a full collector log.

        ``collectors`` lists each process's collector (or None; no list
        means none at all); each must be :func:`collector_covered`.
        They stay attached while later runs pass them again; a collector
        that is dropped, or whose log fills, is detached (its state
        written back).  Returns ``(index,
        log_full)`` -- whether the stop is that collector's full log --
        or ``(-1, False)`` when a chunk of negative virtual addresses
        forces the caller onto the scalar heap (call :meth:`release`
        first).
        """
        native = self._native
        session = self.session
        started = time.perf_counter()
        if session.adopted:
            session.push_light()
            self._note_sync("light", started)
        else:
            session.adopt()
            self._note_sync("full", started)
        if collectors is None:
            collectors = [None] * len(self.processes)
        for index, collector in enumerate(collectors):
            if session.attached_collector(index) is not collector:
                session.detach_collector(index)
                if collector is not None:
                    session.attach_collector(index, collector, exception_cost)
        before = sum(p.accesses for p in self.processes)
        ran_from = time.perf_counter()
        try:
            while True:
                index, reason, proc = session.run_corun(stop_at)
                if index >= 0:
                    log_full = reason == native.STOP_DONE
                    if log_full:
                        session.detach_collector(index)
                    return index, log_full
                if reason == native.STOP_REFILL:
                    self.note_stop("refill")
                    source = self.sources[proc]
                    vaddrs, stores = source.take(self.slab_size)
                    try:
                        session.set_chunk(proc, vaddrs, stores)
                    except native.NativeVaddrError:
                        source.push_back(vaddrs, stores)
                        return -1, False
                else:
                    self.note_stop("grow")
                    session.grow(proc, reason)
        finally:
            self._ns += max(1, int((time.perf_counter() - ran_from) * 1e9))
            pulled = time.perf_counter()
            session.pull_light()
            self._note_sync("light", pulled)
            self._accesses += sum(p.accesses for p in self.processes) - before

    def release(self) -> None:
        """Commit every piece of state back to the Python objects and
        publish the pending counters; the session holds no C state after
        this (the next :meth:`run` re-adopts)."""
        session = self.session
        if session.adopted:
            started = time.perf_counter()
            session.push_light()
            session.commit()
            self._note_sync("full", started)
        self.flush_telemetry()

    def flush_telemetry(self) -> None:
        """Publish (and zero) the counters accumulated since the last flush."""
        telemetry = get_telemetry()
        if telemetry.enabled:
            registry = telemetry.registry
            if self._accesses:
                registry.counter("sim.batch_accesses", engine="native").inc(
                    self._accesses
                )
            if self._ns:
                # Wall time as a counter so throughput survives worker
                # fold-back (the report derives accesses/sec from both).
                registry.counter("sim.batch_ns", engine="native").inc(
                    self._ns
                )
            for reason, count in sorted(self._stops.items()):
                registry.counter("sim.native_stops", reason=reason).inc(count)
            for kind, (count, ns) in self._syncs.items():
                if count:
                    registry.counter("sim.session_syncs", kind=kind).inc(count)
                    registry.counter("sim.session_sync_ns", kind=kind).inc(ns)
        self._accesses = 0
        self._ns = 0
        self._stops = {}
        self._syncs = {"light": [0, 0], "full": [0, 0]}
