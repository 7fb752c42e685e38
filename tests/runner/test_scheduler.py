"""The one cycle-fair co-run scheduler, on both simulation engines.

:class:`~repro.runner.corun.CorunScheduler` interleaves every co-run:
``corun()``, the dynamic manager and, through it, the fleet service.
On a native machine its unhooked legs (warmups, plain co-runs) run in
the compiled engine and its hooked legs (the manager's per-access
monitor) on the scalar heap.  These tests hold both engines to the same
schedule and the same reports, and check that telemetry says which
engine ran each leg.  They pass with ``REPRO_NATIVE=0`` too, where the
native machine runs everything on the scalar heap.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.service import FleetConfig, FleetService
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner.corun import CorunScheduler
from repro.runner.driver import Process
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads import make_workload

SCALAR = MachineConfig.scaled(32).with_engine("scalar")
NATIVE = SCALAR.with_engine("native")


def _dynamic_config(machine):
    return DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )


def _twins(machine, count):
    """``count`` identical processes on disjoint colors, prefetch off:
    every access costs every process the same, so clocks tie."""
    hierarchy = MemoryHierarchy(machine, num_cores=count)
    allocator = PageAllocator(machine)
    width = machine.num_colors // count
    processes = [
        Process(
            pid=index,
            workload=make_workload("swim", machine),
            core=index,
            allocator=allocator,
            colors=range(index * width, (index + 1) * width),
            prefetcher=PrefetcherConfig(enabled=False),
        )
        for index in range(count)
    ]
    return CorunScheduler(processes, hierarchy)


def _fallbacks(telemetry):
    return RunReport.from_telemetry(telemetry).counter_by_label(
        "sim.batch_fallbacks", "reason"
    )


class TestTies:
    @pytest.mark.parametrize(
        "machine", [SCALAR, NATIVE], ids=["scalar", "native"]
    )
    def test_equal_clocks_step_the_lowest_index(self, machine):
        scheduler = _twins(machine, 3)
        scheduler.run_until(1)
        assert [p.accesses for p in scheduler.processes] == [1, 0, 0]

    def test_engines_keep_the_same_schedule(self):
        def legs(machine):
            scheduler = _twins(machine, 2)
            seen = []
            for target in (5, 1, 300):
                scheduler.run_until(target)
                seen.append([(p.accesses, p.cycles)
                             for p in scheduler.processes])
            return seen

        scalar = legs(SCALAR)
        assert scalar == legs(NATIVE)
        # Ties go to process 0, so it completes every leg first.
        assert scalar[0][0][0] == 5 and scalar[0][1][0] == 4


class TestEngineTelemetry:
    def test_hooked_legs_count_observer_fallbacks(self):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            scheduler = _twins(NATIVE, 2)
            seen = []
            scheduler.run_until(50, on_step=lambda i, r: seen.append(i))
            scheduler.run_until(50, on_step=lambda i, r: seen.append(i))
        assert len(seen) == sum(p.accesses for p in scheduler.processes)
        if native_available():
            assert _fallbacks(telemetry) == {"observer": 2}
        else:
            assert _fallbacks(telemetry) == {"unavailable": 1}

    def test_unhooked_native_leg_counts_no_fallback(self):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            scheduler = _twins(NATIVE, 2)
            scheduler.run_until(500)
        report = RunReport.from_telemetry(telemetry)
        if native_available():
            assert _fallbacks(telemetry) == {}
            assert report.counter_total("sim.batch_accesses") == sum(
                p.accesses for p in scheduler.processes
            )
        else:
            assert _fallbacks(telemetry) == {"unavailable": 1}

    def test_scalar_machine_counts_nothing(self):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            scheduler = _twins(SCALAR, 2)
            scheduler.run_until(20, on_step=lambda i, r: None)
            scheduler.run_until(20)
        assert _fallbacks(telemetry) == {}


class TestManagerDifferential:
    """Warmup legs run native, monitored legs scalar: the reports must
    equal an all-scalar run's, field by field."""

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_dynamic_run_with_warmup(self, prefetch):
        def run(machine):
            manager = DynamicPartitionManager(
                machine,
                [make_workload("mcf", machine), make_workload("swim", machine)],
                _dynamic_config(machine),
                prefetcher=PrefetcherConfig(enabled=prefetch),
            )
            return manager.run(quota_accesses=12_000, warmup_accesses=3_000)

        telemetry = Telemetry.in_memory()
        scalar = run(SCALAR)
        with use_telemetry(telemetry):
            native = run(NATIVE)
        assert scalar.probes_run + scalar.probes_rejected >= 1
        for field in dataclasses.fields(scalar):
            assert getattr(scalar, field.name) == getattr(native, field.name), (
                field.name
            )
        if native_available():
            # The warmup leg ran on the compiled engine.
            report = RunReport.from_telemetry(telemetry)
            assert report.counter_total("sim.batch_accesses") > 0
            assert _fallbacks(telemetry) == {"observer": 1}

    def test_fleet_with_warmup(self):
        def run(machine):
            names = ("gzip", "mcf", "art", "swim")
            config = FleetConfig(
                num_domains=2, ticks=4, warmup_accesses=2_000,
                dynamic=_dynamic_config(machine),
            )
            service = FleetService(
                machine, [make_workload(n, machine) for n in names], config,
            )
            return service.run()

        scalar = run(SCALAR)
        native = run(NATIVE)
        assert list(scalar.all_decisions())
        for field in dataclasses.fields(scalar):
            assert getattr(scalar, field.name) == getattr(native, field.name), (
                field.name
            )
