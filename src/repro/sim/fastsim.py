"""Native-engine plumbing: how the compiled C engine drives processes.

:func:`repro.runner.driver.drive_batch` is the runners' one simulation
entry point.  On a ``MachineConfig(sim_engine="native")`` machine (the
default) it hands every run the compiled engine covers to
:func:`drive_native` -- solo drives -- and the co-run scheduler hands
its quota legs to :class:`NativeCorun`.  Both execute the access stream
in array *chunks* inside :mod:`repro.sim.native`, bit-identically to the
scalar :meth:`Process.step` loop: core counters, cache residency in LRU
order, the PMU-visible event stream, float cycle clocks and the
prefetcher RNG all match exactly.

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
    collector, or a co-run leg with a per-access hook (the dynamic
    manager's monitor) -- the engine cannot run ahead of Python code;
``vaddr``
    a chunk holding negative virtual addresses (C's truncating division
    would diverge from Python's floor division).

Native chunks and scalar steps consume the process's one logical access
stream through a shared :class:`BatchAccessSource`, so a drive that
hands off mid-run, scalar ``step()`` calls and co-run interleaving can
be mixed freely on the same process without skipping or replaying an
access.  ``tests/sim/test_fastsim.py`` and ``tests/sim/test_native.py``
hold the native engine bit-identical to the scalar reference.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.sim.hierarchy import MemoryHierarchy

__all__ = [
    "DEFAULT_SLAB",
    "BatchAccessSource",
    "CollectorStop",
    "NativeCorun",
    "count_fallback",
    "drive_native",
    "fallback_reason",
    "native_eligible",
]

#: Accesses per chunk of a process's access stream.  Every nested
#: pattern cursor holds a chunk, so this bounds the generator's resident
#: arrays; 4096 accesses already amortize the per-chunk C-call overhead.
DEFAULT_SLAB = 1 << 12


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

    def __init__(self, process, slab_size: int = DEFAULT_SLAB):
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


def _source_for(process, slab_size: int = DEFAULT_SLAB) -> BatchAccessSource:
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
    slab_size: int = DEFAULT_SLAB,
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
    source = _source_for(process, slab_size)
    executed, chunks, finished = _run_native(
        process, hierarchy, num_accesses, events_fn, stop, source, slab_size
    )
    telemetry = get_telemetry()
    if telemetry.enabled:
        registry = telemetry.registry
        registry.counter("sim.batch_accesses", engine="native").inc(executed)
        if chunks:
            registry.counter("sim.batch_slabs", engine="native").inc(chunks)
        # Wall time as a counter so throughput survives worker fold-back
        # (a gauge would keep only one worker's last value; the report
        # layer derives accesses/sec from the two counter totals).
        registry.counter("sim.batch_ns", engine="native").inc(
            max(1, int((time.perf_counter() - started) * 1e9))
        )
    return executed, finished


def _run_native(process, hierarchy, num_accesses, events_fn, stop, source,
                slab_size) -> Tuple[int, int, bool]:
    """:func:`drive_native`'s engine loop; also returns the chunk count."""
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
                    return executed, chunks, False
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
                return executed, chunks, True
            executed += ran
            if stop is not None and stop():
                return executed, chunks, True
            if ran < quota:
                reason = proc.stop_reason
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
    finally:
        session.commit()
    return executed, chunks, True


class NativeCorun:
    """Compiled co-run scheduler: all cores interleave inside one C call.

    Runs the unhooked legs of :class:`repro.runner.corun.CorunScheduler`
    in :func:`repro_corun`, which repeatedly steps the process with
    the lowest (cycles, index) key -- the exact argmin order the heap
    produces -- until some process completes its quota.  Legs commit on
    return, so warmup resets and scalar interleaving see live state.
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        from repro.sim import native as _native

        self._native = _native
        self.processes = list(processes)
        self.slab_size = slab_size
        self.sources = [_source_for(p, slab_size) for p in self.processes]
        self.session = _native.NativeSession(hierarchy, self.processes)

    def run_until(self, start, target_extra: int) -> bool:
        """Run every process until one has executed ``target_extra``
        accesses beyond its entry in ``start``.

        Returns False (with all state committed) when a chunk with
        negative virtual addresses forces the leg back onto the scalar
        steps; no process has reached its quota at that point.
        """
        native = self._native
        session = self.session
        started = time.perf_counter()
        before = sum(p.accesses for p in self.processes)
        session.adopt()
        try:
            while True:
                finisher, reason, proc = session.run_corun(
                    start, target_extra
                )
                if finisher >= 0:
                    return True
                if reason == native.STOP_REFILL:
                    source = self.sources[proc]
                    vaddrs, stores = source.take(self.slab_size)
                    try:
                        session.set_chunk(proc, vaddrs, stores)
                    except native.NativeVaddrError:
                        source.push_back(vaddrs, stores)
                        return False
                else:
                    session.grow(proc, reason)
        finally:
            session.commit()
            telemetry = get_telemetry()
            if telemetry.enabled:
                registry = telemetry.registry
                registry.counter("sim.batch_accesses", engine="native").inc(
                    sum(p.accesses for p in self.processes) - before
                )
                registry.counter("sim.batch_ns", engine="native").inc(
                    max(1, int((time.perf_counter() - started) * 1e9))
                )
