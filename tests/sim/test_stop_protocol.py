"""The native engine's stop protocol under tiny buffers.

The C engine never allocates: when an access would overflow the line
cache, the page table, the prefetched-line set or the allocation log --
or its chunk of the access stream runs out -- it stops *before*
mutating anything, the wrapper refills or grows the buffer, and the
run resumes.  Normal sizes make these stops rare, so the fixture here
shrinks every initial capacity and the chunk length to almost nothing
and forces refill and grow stops on every path: solo, prefetch-on,
observed solo, co-run, the dynamic manager and a fleet of resident
sessions.  Each run must stay bit-identical to ``sim_engine="scalar"``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.service import FleetConfig, FleetService
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process, drive_batch
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim import fastsim, native
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads import make_workload

SCALAR = MachineConfig.scaled(32).with_engine("scalar")
NATIVE = SCALAR.with_engine("native")

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason="native engine unavailable"
)


@pytest.fixture
def tiny_buffers(monkeypatch):
    """Shrink every growable engine buffer and the chunk length."""
    monkeypatch.setattr(native, "MAP_HEADROOM", 1)
    monkeypatch.setattr(native, "STALE_HEADROOM", 1)
    monkeypatch.setattr(native, "PFSET_HEADROOM", 1)
    monkeypatch.setattr(native, "NEWPAGES_CAP", 3)
    monkeypatch.setattr(fastsim, "DEFAULT_SLAB", 7)
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        yield telemetry


def _stops(telemetry):
    return RunReport.from_telemetry(telemetry).counter_by_label(
        "sim.native_stops", "reason"
    )


def _assert_forced(telemetry):
    stops = _stops(telemetry)
    assert stops.get("refill", 0) > 10, stops
    assert stops.get("grow", 0) > 0, stops


def _solo(machine, name, prefetch):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    process = Process(
        pid=0, workload=make_workload(name, machine), core=0,
        allocator=PageAllocator(machine),
        prefetcher=PrefetcherConfig(enabled=prefetch),
    )
    drive_batch(process, hierarchy, 6_000)
    return {
        "counters": dataclasses.asdict(hierarchy.counters[0]),
        "l1d": [list(b) for b in hierarchy.l1d[0]._sets],
        "l2": [list(b) for b in hierarchy.l2._sets],
        "prefetched": sorted(hierarchy._prefetched_l1[0]),
        "clocks": (process.cycles, process.instructions, process.accesses),
        "rng": process._pf_rng.getstate(),
        "tlb": sorted(process._tlb.items()),
        "page_table": list(process.allocator._page_table.items()),
    }


@pytest.mark.parametrize("prefetch", [False, True],
                         ids=["prefetch-off", "prefetch-on"])
def test_solo(tiny_buffers, prefetch):
    assert _solo(SCALAR, "mcf", prefetch) == _solo(NATIVE, "mcf", prefetch)
    _assert_forced(tiny_buffers)


def test_observed_solo(tiny_buffers):
    online = OnlineProbeConfig(warmup_accesses=500)
    probe = ProbeConfig(log_entries=600)
    scalar = collect_trace(make_workload("mcf", SCALAR), SCALAR, online,
                           probe)
    batch = collect_trace(make_workload("mcf", NATIVE), NATIVE, online,
                          probe)
    assert dataclasses.asdict(scalar.probe) == dataclasses.asdict(batch.probe)
    assert scalar.accesses_executed == batch.accesses_executed
    _assert_forced(tiny_buffers)


def test_corun(tiny_buffers):
    def run(machine):
        specs = [
            CorunSpec(make_workload("mcf", machine), colors=range(0, 8)),
            CorunSpec(make_workload("art", machine), colors=range(8, 16)),
        ]
        return corun(specs, machine, quota_accesses=5_000,
                     warmup_accesses=1_000)

    assert dataclasses.asdict(run(SCALAR)) == dataclasses.asdict(run(NATIVE))
    _assert_forced(tiny_buffers)


def _dynamic_config(machine):
    return DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=800),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )


def test_dynamic_manager(tiny_buffers):
    def run(machine):
        manager = DynamicPartitionManager(
            machine, [make_workload(n, machine) for n in ("mcf", "swim")],
            _dynamic_config(machine),
        )
        manager.begin(1_000)
        for accesses in (2_000, 3, 5_000):
            manager.step_accesses(accesses)
        return manager.finish()

    scalar, batch = run(SCALAR), run(NATIVE)
    assert scalar.probes_run + scalar.probes_rejected >= 1
    for field in dataclasses.fields(scalar):
        assert getattr(scalar, field.name) == getattr(batch, field.name), (
            field.name
        )
    _assert_forced(tiny_buffers)


def test_fleet_resident_sessions(tiny_buffers):
    def run(machine):
        return FleetService(
            machine,
            [make_workload(n, machine) for n in ("gzip", "mcf", "art", "swim")],
            FleetConfig(num_domains=2, ticks=4, warmup_accesses=500,
                        dynamic=_dynamic_config(machine),
                        replace_every_ticks=2),
        ).run()

    scalar, batch = run(SCALAR), run(NATIVE)
    for field in dataclasses.fields(scalar):
        assert getattr(scalar, field.name) == getattr(batch, field.name), (
            field.name
        )
    _assert_forced(tiny_buffers)
