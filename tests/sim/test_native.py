"""Differential tests for the compiled native engine.

The native engine (``repro.sim._native.c`` via ``repro.sim.native``) is
an exact transliteration of the scalar hot path, so its contract is the
same as ``drive_batch``'s: bit identity with the scalar driver on every
configuration -- counters, cache residency in LRU order, float cycle
clocks, the process RNG state, the PMU-visible event stream, and co-run
interleavings.  These tests pin the pieces specific to the engine: the
CPython-exact MT19937 (also behind the workloads' vectorized draws), the
chunk rollback protocol of observed runs, the negative-address hand-off
to the scalar loop, and the kill switch.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process, drive, drive_batch
from repro.runner.offline import OfflineConfig, real_mrc
from repro.sim.fastsim import CollectorStop, native_eligible
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import mt_fill, native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import (
    AccessPattern,
    MemoryAccess,
    Workload,
    draw_uniform,
)
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32).with_engine("scalar")
NATIVE = MACHINE.with_engine("native")

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def _build(machine, name, prefetch=True, colors=None, seed_offset=0):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    process = Process(
        pid=0,
        workload=make_workload(name, machine),
        core=0,
        allocator=PageAllocator(machine),
        colors=colors,
        prefetcher=PrefetcherConfig(enabled=prefetch),
        seed_offset=seed_offset,
    )
    return hierarchy, process


def _state(hierarchy, process):
    state = {
        "counters": dataclasses.asdict(hierarchy.counters[0]),
        "l1d": [list(b) for b in hierarchy.l1d[0]._sets],
        "l1d_stats": dataclasses.asdict(hierarchy.l1d[0].stats),
        "l2": [list(b) for b in hierarchy.l2._sets],
        "l2_stats": dataclasses.asdict(hierarchy.l2.stats),
        "l3_stats": dataclasses.asdict(hierarchy.l3.stats),
        "prefetched": sorted(hierarchy._prefetched_l1[0]),
        "cycles": process.cycles,
        "instructions": process.instructions,
        "accesses": process.accesses,
        "rng": process._pf_rng.getstate(),
        "streams": [
            (s.next_line, s.hits, s.confirmed, s.last_use)
            for s in process.prefetcher._streams
        ],
        "pf_clock": process.prefetcher._clock,
        "pf_issued": process.prefetcher.issued,
        "tlb": sorted(process._tlb.items()),
        "page_table": sorted(process.allocator._page_table.items()),
        "debt": dict(process.allocator._migration_debt),
        "cursor": dict(process.allocator._cursor),
    }
    if hierarchy.l3.enabled and hierarchy.l3._cache is not None:
        state["l3"] = [list(b) for b in hierarchy.l3._cache._sets]
    return state


class TestMt19937Parity:
    @needs_native
    def test_draws_and_state_continuation(self):
        rng = random.Random("prefetch/0/0")
        state0 = rng.getstate()
        expected = [rng.random() for _ in range(2000)]
        draws, advanced = mt_fill(state0, 2000)
        assert draws.tolist() == expected
        # Continuing from the advanced state must track CPython exactly.
        clone = random.Random()
        clone.setstate(advanced)
        more, _ = mt_fill(advanced, 700)
        assert more.tolist() == [clone.random() for _ in range(700)]
        assert more.tolist() == [rng.random() for _ in range(700)]

    @pytest.mark.parametrize("native", [
        pytest.param(True, marks=needs_native, id="native"),
        pytest.param(False, id="REPRO_NATIVE=0"),
    ])
    def test_draw_uniform_matches_scalar_draws(self, native, monkeypatch):
        """The workloads' vectorized draws equal ``rng.random()`` calls
        and leave the RNG where those calls would, on either path."""
        if not native:
            monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native_available() == native
        rng = random.Random("workload/7")
        reference = random.Random("workload/7")
        for count in (0, 1, 623, 625, 2000):
            draws = draw_uniform(rng, count)
            assert draws.dtype == np.float64
            assert draws.tolist() == [reference.random() for _ in range(count)]
        # Scalar draws continue exactly where the batch left off.
        assert [rng.random() for _ in range(50)] == [
            reference.random() for _ in range(50)
        ]
        assert rng.getstate() == reference.getstate()


@needs_native
class TestNativeSoloIdentity:
    @pytest.mark.parametrize("name", ["mcf", "jbb", "swim"])
    def test_prefetch_on(self, name):
        hier_s, proc_s = _build(MACHINE, name, prefetch=True)
        drive(proc_s, hier_s, 30_000)
        hier_b, proc_b = _build(NATIVE, name, prefetch=True)
        assert native_eligible(proc_b, hier_b)
        drive_batch(proc_b, hier_b, 30_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_partitioned_with_prefetch(self):
        hier_s, proc_s = _build(MACHINE, "art", prefetch=True,
                                colors=[0, 1, 2])
        drive(proc_s, hier_s, 20_000)
        hier_b, proc_b = _build(NATIVE, "art", prefetch=True,
                                colors=[0, 1, 2])
        drive_batch(proc_b, hier_b, 20_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_interleaves_with_scalar_steps(self):
        """Native chunks and scalar step() share one gapless stream."""
        hier_s, proc_s = _build(MACHINE, "twolf", prefetch=True)
        drive(proc_s, hier_s, 9_000)
        hier_b, proc_b = _build(NATIVE, "twolf", prefetch=True)
        drive_batch(proc_b, hier_b, 2_500)
        for _ in range(500):
            proc_b.step(hier_b)
        drive_batch(proc_b, hier_b, 6_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    @settings(max_examples=12, deadline=None)
    @given(
        store_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        footprint_l2=st.sampled_from([1, 4]),
        accesses=st.integers(min_value=1, max_value=6_000),
        slab=st.sampled_from([256, 1 << 14]),
    )
    def test_hypothesis_differential(self, store_fraction, footprint_l2,
                                     accesses, slab):
        from repro.workloads.patterns import ZipfWorkingSet

        def build():
            workload = Workload(
                "hyp",
                ZipfWorkingSet(footprint=footprint_l2 * MACHINE.l2_size),
                store_fraction=store_fraction,
                seed=13,
            )
            hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(MACHINE),
                prefetcher=PrefetcherConfig(enabled=True),
            )
            return hierarchy, process

        hier_s, proc_s = build()
        drive(proc_s, hier_s, accesses)
        hier_b, proc_b = build()
        drive_batch(proc_b, hier_b, accesses, slab_size=slab)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)


class _NegativePattern(AccessPattern):
    """Strided sweep that dips into negative virtual addresses."""

    def generate(self, rng):
        vaddr = 4096
        while True:
            yield MemoryAccess(vaddr)
            vaddr -= 128
            if vaddr < -65536:
                vaddr = 4096

    def footprint_bytes(self):
        return 2 * 65536


@needs_native
class TestMixedEngineContinuity:
    def test_negative_vaddr_falls_through_bit_identically(self):
        """A chunk the C engine refuses lands on the scalar loop with no
        gap: the combined run still equals the scalar run exactly."""
        def build(machine):
            workload = Workload("neg", _NegativePattern(), seed=3)
            hierarchy = MemoryHierarchy(machine, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(machine),
                prefetcher=PrefetcherConfig(enabled=True),
            )
            return hierarchy, process

        hier_s, proc_s = build(MACHINE)
        drive(proc_s, hier_s, 5_000)
        telemetry = Telemetry.in_memory()
        hier_b, proc_b = build(NATIVE)
        with use_telemetry(telemetry):
            executed = drive_batch(proc_b, hier_b, 5_000, slab_size=16)
        assert executed == 5_000
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)
        # The stream stays non-negative for its first 33 accesses: the
        # native engine took the first two 16-access chunks and the
        # scalar loop everything from the third chunk on.
        report = RunReport.from_telemetry(telemetry)
        by_engine = report.counter_by_label("sim.batch_accesses", "engine")
        assert by_engine == {"native": 32}
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason"
        ) == {"vaddr": 1}

    def test_corun_negative_vaddr_fallback(self):
        def specs(machine):
            neg = Workload("neg", _NegativePattern(), seed=3)
            return [
                CorunSpec(neg),
                CorunSpec(make_workload("mcf", machine)),
            ]

        scalar = corun(specs(MACHINE), MACHINE, 6_000,
                       warmup_accesses=1_000)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            batch = corun(specs(NATIVE), NATIVE, 6_000,
                          warmup_accesses=1_000)
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason"
        ) == {"vaddr": 1}
        assert scalar.ipc == batch.ipc
        assert scalar.mpki == batch.mpki
        assert scalar.instructions == batch.instructions
        assert scalar.accesses == batch.accesses


@needs_native
class TestObservedRollback:
    @pytest.mark.parametrize("log_capacity", [1, 7, 333])
    def test_stop_mid_chunk_rewinds_exactly(self, log_capacity):
        """The collector fills mid-chunk; the native engine must stop on
        the exact access the scalar loop would have stopped on."""
        def run(machine, driver):
            hierarchy, process = _build(machine, "mcf", prefetch=True)
            collector = TraceCollector(log_capacity=log_capacity, seed=5)
            executed = driver(
                process, hierarchy, 50_000,
                observer=collector.observe,
                stop=CollectorStop(collector),
            )
            return executed, collector, _state(hierarchy, process)

        executed_s, coll_s, state_s = run(MACHINE, drive)
        executed_b, coll_b, state_b = run(NATIVE, drive_batch)
        assert executed_s == executed_b
        assert coll_s.log.entries() == coll_b.log.entries()
        assert coll_s.exceptions == coll_b.exceptions
        assert coll_s.dropped_events == coll_b.dropped_events
        assert coll_s.stale_entries == coll_b.stale_entries
        assert state_s == state_b

    def test_observer_without_stop_feeds_every_event(self):
        """With no stop predicate the scalar loop keeps feeding a done
        collector; the native tail-feed must do the same."""
        def run(machine, driver):
            hierarchy, process = _build(machine, "jbb", prefetch=True)
            collector = TraceCollector(log_capacity=5, seed=9)
            driver(process, hierarchy, 4_000, observer=collector.observe)
            return collector, _state(hierarchy, process)

        coll_s, state_s = run(MACHINE, drive)
        coll_b, state_b = run(NATIVE, drive_batch)
        assert coll_s.log.entries() == coll_b.log.entries()
        assert coll_s.l1d_misses == coll_b.l1d_misses
        assert state_s == state_b

    def test_opaque_stop_falls_back_to_scalar(self):
        """A plain lambda cannot be reasoned about: the drive must not
        run ahead of it, so it runs on the scalar loop, results exact."""
        def run(machine, driver):
            hierarchy, process = _build(machine, "mcf", prefetch=True)
            calls = []
            executed = driver(
                process, hierarchy, 3_000,
                stop=lambda: calls.append(None) or len(calls) >= 2_500,
            )
            return executed, len(calls), _state(hierarchy, process)

        scalar = run(MACHINE, drive)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            native = run(NATIVE, drive_batch)
        assert native == scalar
        assert native[0] == 2_500
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_total("sim.batch_accesses") == 0
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason"
        ) == {"observer": 1}


@needs_native
class TestKillSwitch:
    def test_repro_native_0_disables_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native_available()
        hierarchy, process = _build(NATIVE, "jbb", prefetch=False)
        assert not native_eligible(process, hierarchy)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            drive_batch(process, hierarchy, 2_000)
        assert process.accesses == 2_000
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_total("sim.batch_accesses") == 0
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason"
        ) == {"unavailable": 1}
        monkeypatch.delenv("REPRO_NATIVE")
        assert native_available()


@needs_native
class TestPooledTelemetryParity:
    def test_real_mrc_pooled_counters_equal_sequential(self):
        """Satellite regression: folded batched-drive counters from a
        pooled offline curve equal the sequential run's, and throughput
        is derived from them (no per-worker gauge survives)."""
        workload = make_workload("jbb", NATIVE)
        config = OfflineConfig()
        sizes = [1, 2, 3, 4]

        seq_telemetry = Telemetry.in_memory()
        with use_telemetry(seq_telemetry):
            seq = real_mrc(workload, NATIVE, config, sizes=sizes)
        pool_telemetry = Telemetry.in_memory()
        with use_telemetry(pool_telemetry):
            pooled = real_mrc(workload, NATIVE, config, sizes=sizes,
                              max_workers=2)

        assert dict(seq) == dict(pooled)
        seq_report = RunReport.from_telemetry(seq_telemetry)
        pool_report = RunReport.from_telemetry(pool_telemetry)
        assert seq_report.counter_by_label(
            "sim.batch_accesses", "engine"
        ) == pool_report.counter_by_label("sim.batch_accesses", "engine")
        assert pool_report.counter_total("sim.batch_ns") > 0
        rates = pool_report.accesses_per_sec()
        assert "" in rates and rates[""] > 0
        assert pool_report.gauges("sim.accesses_per_sec") == {}
