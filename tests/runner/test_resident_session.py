"""Monitored co-run legs on the native engine, against the scalar heap.

The dynamic manager is the co-run scheduler's ``LegMonitor``.  On a
native machine its legs run in C on one resident ``NativeSession``: the
engine feeds the PMU trace collector and charges its exception cycles
itself, and stops only at the accesses where the manager can act --
interval ends, probe attempts, full logs, probe deadlines and leg
quotas.  Python runs the monitor logic there and resumes.  Everything a
scalar run produces must come out the same: events, decisions,
placements, ``DynamicReport`` / ``FleetReport``, budget stats, every
``ProbeTrace`` field, and the committed machine state.

These tests pass with ``REPRO_NATIVE=0`` too (both runs are then
scalar); the telemetry and session assertions only apply when the
engine is available.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.analytic import AnalyticConfig
from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.churn import ChurnSchedule
from repro.fleet.service import FleetConfig, FleetService
from repro.obs import Telemetry, use_telemetry
from repro.obs.drift import DriftConfig
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.reliability.faults import FaultPlan, ServiceFaultPlan
from repro.reliability.supervisor import SupervisorConfig
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.sim import fastsim
from repro.sim.machine import MachineConfig
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.store import SignatureConfig, StoreConfig
from repro.workloads import make_workload
from repro.workloads.base import AccessPattern, MemoryAccess, Workload
from repro.workloads.patterns import LoopingScan, RandomWorkingSet
from repro.workloads.phased import Phase, PhasedWorkload

SCALAR = MachineConfig.scaled(32).with_engine("scalar")
NATIVE = SCALAR.with_engine("native")


def _config(machine, **overrides):
    base = dict(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )
    base.update(overrides)
    return DynamicConfig(**base)


class _ProbeTraces:
    """Every ``ProbeTrace`` a run's collectors hand back, as dicts."""

    def __init__(self, monkeypatch):
        self.traces = []
        original = TraceCollector.finish

        def finish(collector):
            trace = original(collector)
            self.traces.append(dataclasses.asdict(trace))
            return trace

        monkeypatch.setattr(TraceCollector, "finish", finish)

    def take(self):
        taken, self.traces = self.traces, []
        return taken


def _machine_state(manager):
    """The committed simulated machine behind a finished manager."""
    hierarchy = manager.hierarchy
    allocator = manager.allocator
    machine = manager.machine
    state = {
        "l2": [list(b) for b in hierarchy.l2._sets],
        "l2_stats": dataclasses.asdict(hierarchy.l2.stats),
        "l3_stats": dataclasses.asdict(hierarchy.l3.stats),
        # Each process's insertion order matters (eager resize walks
        # it); how two processes' entries interleave does not.
        "page_table": [
            [(key, frame) for key, frame in allocator._page_table.items()
             if key[0] == pid]
            for pid in range(len(manager.managed))
        ],
        "stale": sorted(allocator._stale),
        "cursor": dict(allocator._cursor),
        "debt": dict(allocator._migration_debt),
        "next_frame": [
            allocator._next_frame_of_color[c]
            for c in range(machine.num_colors)
        ],
        "lazy_migrations": allocator.lazy_migrations,
    }
    if hierarchy.l3.enabled and hierarchy.l3._cache is not None:
        state["l3"] = [list(b) for b in hierarchy.l3._cache._sets]
    for core, managed in enumerate(manager.managed):
        process = managed.process
        state[core] = {
            "counters": dataclasses.asdict(hierarchy.counters[core]),
            "l1d": [list(b) for b in hierarchy.l1d[core]._sets],
            "prefetched": sorted(hierarchy._prefetched_l1[core]),
            "clocks": (process.cycles, process.instructions,
                       process.accesses),
            "rng": process._pf_rng.getstate(),
            "streams": [
                (s.next_line, s.hits, s.confirmed, s.last_use)
                for s in process.prefetcher._streams
            ],
            "tlb": sorted(process._tlb.items()),
            "interval_seen": managed.interval_instructions_seen,
        }
    return state


def _assert_reports_equal(scalar, native):
    for field in dataclasses.fields(scalar):
        assert getattr(scalar, field.name) == getattr(native, field.name), (
            field.name
        )


def _phased_pair(machine):
    """A recurring two-phase workload next to a streamer: transitions,
    probes, store reuse and resizes all happen within a short run."""
    lines = machine.l2_lines
    phased = PhasedWorkload(
        "phased",
        [
            Phase(RandomWorkingSet(machine.l2_size), 16 * lines, "big"),
            Phase(LoopingScan(32 * 128), 16 * lines, "small"),
        ],
        instructions_per_access=10,
        store_fraction=0.0,
    )
    return [phased, make_workload("swim", machine)]


class _DipsNegative(AccessPattern):
    """A downward sweep: non-negative addresses for 2048 accesses, then
    below zero (which the engine refuses), then around again."""

    def generate(self, rng):
        vaddr = 1 << 18
        while True:
            yield MemoryAccess(vaddr)
            vaddr -= 128
            if vaddr < -(1 << 16):
                vaddr = 1 << 18

    def footprint_bytes(self):
        return (1 << 18) + (1 << 16)


def _run_manager(machine, workloads, config, legs, warmup=0,
                 between=None, prefetcher=None):
    manager = DynamicPartitionManager(
        machine, workloads, config, prefetcher=prefetcher
    )
    manager.begin(warmup)
    for leg, accesses in enumerate(legs):
        manager.step_accesses(accesses)
        if between is not None:
            between(manager, leg)
    report = manager.finish()
    return report, manager


def _differential(monkeypatch, build, legs, warmup=0, between=None,
                  prefetcher=None, telemetry=None):
    """Run the same managed scenario on both engines; everything the
    runs produce must be equal.  Returns the scalar report."""
    traces = _ProbeTraces(monkeypatch)
    scalar, scalar_manager = _run_manager(
        SCALAR, *build(SCALAR), legs, warmup, between, prefetcher
    )
    scalar_traces = traces.take()
    with use_telemetry(telemetry or Telemetry.in_memory()):
        native, native_manager = _run_manager(
            NATIVE, *build(NATIVE), legs, warmup, between, prefetcher
        )
    _assert_reports_equal(scalar, native)
    assert scalar_traces == traces.take()
    assert _machine_state(scalar_manager) == _machine_state(native_manager)
    return scalar


def _stops(telemetry):
    return RunReport.from_telemetry(telemetry).counter_by_label(
        "sim.native_stops", "reason"
    )


def _fallbacks(telemetry):
    return RunReport.from_telemetry(telemetry).counter_by_label(
        "sim.batch_fallbacks", "reason"
    )


class TestManagerDifferential:
    @pytest.mark.parametrize("prefetch", [True, False])
    def test_probes_and_resizes_across_legs(self, monkeypatch, prefetch):
        telemetry = Telemetry.in_memory()

        def build(machine):
            names = ("mcf", "swim")
            return [make_workload(n, machine) for n in names], _config(machine)

        report = _differential(
            monkeypatch, build, legs=[3_000, 1, 7_000, 257, 9_000],
            warmup=2_000, prefetcher=PrefetcherConfig(enabled=prefetch),
            telemetry=telemetry,
        )
        assert report.probes_run >= 1 and report.resizes >= 1
        if native_available():
            stops = _stops(telemetry)
            assert stops.get("interval", 0) > 0
            assert stops.get("done", 0) == report.probes_run
            assert stops.get("quota", 0) == 6  # warmup + five legs
            assert _fallbacks(telemetry) == {}

    def test_store_reuse_and_drift(self, monkeypatch):
        def build(machine):
            config = _config(
                machine,
                interval_instructions=3 * machine.l2_lines * 10,
                detector=PhaseDetectorConfig(threshold_mpki=10.0),
                store=StoreConfig(signature=SignatureConfig(
                    level_quantum_mpki=4.0, match_tolerance_mpki=6.0,
                )),
                drift=DriftConfig(delta_mpki=0.5, lambda_threshold=2.0,
                                  min_samples=1, cooldown_samples=1),
            )
            return _phased_pair(machine), config

        report = _differential(
            monkeypatch, build, legs=[20_000] * 6, warmup=500,
        )
        assert report.probes_reused >= 1
        assert report.drift_events >= 1

    def test_deadlines_and_external_control(self, monkeypatch):
        """Probe deadlines, plus the fleet's controls between legs:
        ``abort_inflight_probe``, ``request_probe`` and ``degrade_now``."""
        def build(machine):
            config = _config(
                machine, probe=ProbeConfig(log_entries=400),
                reliability=SupervisorConfig(deadline_log_multiple=1),
            )
            names = ("swim", "mcf")
            return [make_workload(n, machine) for n in names], config

        def between(manager, leg):
            if leg % 3 == 0:
                manager.abort_inflight_probe(0, reason="test abort")
            elif leg % 3 == 1:
                manager.request_probe(1, reason="test request")
            else:
                manager.degrade_now(leg % 2, reason="test degrade")

        report = _differential(
            monkeypatch, build, legs=[1_500] * 9, warmup=500,
            between=between,
        )
        kinds = {event.kind for event in report.events}
        assert {"probe-deadline", "probe-requested", "degraded"} <= kinds
        # An in-flight probe was aborted between legs.
        assert any(e.detail == "test abort" for e in report.events)

    def test_negative_vaddr_mid_leg_hands_off_to_the_scalar_heap(
        self, monkeypatch
    ):
        """A chunk the engine refuses, in the middle of a monitored leg:
        the accesses run so far are credited and the scalar heap
        finishes the leg; later legs stay scalar."""
        monkeypatch.setattr(fastsim, "DEFAULT_SLAB", 256)
        telemetry = Telemetry.in_memory()

        def build(machine):
            workloads = [
                Workload("dips", _DipsNegative(), seed=3),
                make_workload("mcf", machine),
            ]
            return workloads, _config(machine, interval_instructions=900)

        _differential(monkeypatch, build, legs=[3_000, 2_000], warmup=500,
                      telemetry=telemetry)
        if native_available():
            assert _fallbacks(telemetry) == {"vaddr": 1}
            stops = _stops(telemetry)
            assert stops.get("interval", 0) > 0

    @settings(max_examples=12, deadline=None)
    @given(
        interval_multiple=st.integers(1, 400),
        log_entries=st.integers(20, 400),
        cooldown=st.integers(0, 2),
        tick=st.integers(1, 2_500),
        deadline_multiple=st.integers(1, 6),
    )
    # An interval every access: every stop coincides with an interval
    # end (quota, full log, deadline and probe attempt alike).
    @example(interval_multiple=1, log_entries=40, cooldown=0, tick=300,
             deadline_multiple=2)
    # Quota lands exactly on an interval end each leg.
    @example(interval_multiple=50, log_entries=200, cooldown=1, tick=50,
             deadline_multiple=3)
    def test_stops_landing_on_the_same_access(
        self, interval_multiple, log_entries, cooldown, tick,
        deadline_multiple,
    ):
        def run(machine):
            workloads = [make_workload(n, machine) for n in ("mcf", "swim")]
            # Interval lengths in mcf accesses (swim issues more
            # instructions per access, so its intervals are shorter).
            ipa = workloads[0].instructions_per_access
            config = _config(
                machine,
                interval_instructions=interval_multiple * ipa,
                probe=ProbeConfig(log_entries=log_entries),
                probe_cooldown_intervals=cooldown,
                reliability=SupervisorConfig(
                    deadline_log_multiple=deadline_multiple
                ),
            )
            report, manager = _run_manager(
                machine, workloads, config, [tick] * 5, warmup=300,
            )
            return report, _machine_state(manager)

        scalar, scalar_state = run(SCALAR)
        native, native_state = run(NATIVE)
        _assert_reports_equal(scalar, native)
        assert scalar_state == native_state


def _fleet(machine, *, probe_faults=False, service_faults=False,
           domains=2, ticks=8):
    dynamic = _config(
        machine,
        fault_plan=FaultPlan.parse("all", seed=0) if probe_faults else None,
        store=StoreConfig(),
        drift=DriftConfig(),
    )
    names = ("gzip", "mcf", "art", "swim", "twolf", "equake")[: 2 * domains]
    return FleetService(
        machine,
        [make_workload(name, machine) for name in names],
        FleetConfig(
            num_domains=domains, ticks=ticks, dynamic=dynamic,
            warmup_accesses=1_000, replace_every_ticks=3,
        ),
        churn=ChurnSchedule.parse("join:applu@2,crash:mcf@4"),
        fault_plan=(
            ServiceFaultPlan.parse("domain-blackout:0@1+2,budget-storm@3+1")
            if service_faults else None
        ),
        pool={"applu": make_workload("applu", machine)},
    )


class TestFleetDifferential:
    @pytest.mark.parametrize("domains", [2, 3])
    def test_churn_blackouts_and_rebuilds(self, monkeypatch, domains):
        traces = _ProbeTraces(monkeypatch)
        scalar = _fleet(SCALAR, service_faults=True, domains=domains).run()
        scalar_traces = traces.take()
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            native = _fleet(NATIVE, service_faults=True,
                            domains=domains).run()
        _assert_reports_equal(scalar, native)
        assert scalar_traces == traces.take()
        assert scalar.events_of_kind("rebuild")
        assert list(scalar.all_decisions())
        if native_available():
            assert _fallbacks(telemetry) == {}

    def test_faulted_probes_fall_back_and_count_it(self, monkeypatch):
        """Fault-wrapped collectors keep the scalar per-access hook for
        the legs they are live in; the run still equals the scalar one."""
        scalar = _fleet(SCALAR, probe_faults=True).run()
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            native = _fleet(NATIVE, probe_faults=True).run()
        _assert_reports_equal(scalar, native)
        if native_available():
            fallbacks = _fallbacks(telemetry)
            assert set(fallbacks) == {"observer"} and fallbacks["observer"] > 0
            report = RunReport.from_telemetry(telemetry)
            assert report.counter_total("sim.batch_accesses") > 0

    def test_windowed_faults_reconverge_on_the_native_engine(self):
        """The chaos harness's recovery scenario (every fault window
        clears by tick 11) on resident native sessions."""
        def run(plan):
            dynamic = _config(
                NATIVE, analytic=AnalyticConfig(max_samples=512),
            )
            return FleetService(
                NATIVE,
                [make_workload(n, NATIVE)
                 for n in ("gzip", "mcf", "art", "swim")],
                FleetConfig(num_domains=2, ticks=20, dynamic=dynamic,
                            replace_every_ticks=4),
                churn=ChurnSchedule.parse("join:equake@5,crash:mcf@10"),
                fault_plan=ServiceFaultPlan.parse(plan) if plan else None,
                pool={"equake": make_workload("equake", NATIVE)},
            ).run()

        calm = run(None)
        faulted = run(
            "domain-blackout:0@4+4,budget-storm@9+2,"
            "churn-delay:2,churn-duplicate:3"
        )
        assert faulted.events_of_kind("blackout-start")
        assert faulted.placement_groups() == calm.placement_groups()


@pytest.mark.skipif(not native_available(), reason="native engine unavailable")
class TestNoStateLeftBehind:
    def test_finish_releases_the_session(self):
        manager = DynamicPartitionManager(
            NATIVE, [make_workload(n, NATIVE) for n in ("mcf", "swim")],
            _config(NATIVE),
        )
        manager.begin(500)
        manager.step_accesses(2_000)
        runner = manager.scheduler._native_runner
        assert runner is not None and runner.session.adopted
        session = weakref.ref(runner.session)
        del runner
        manager.finish()
        assert manager.scheduler._native_runner is None
        gc.collect()
        assert session() is None

    def test_fleet_rebuild_drops_the_old_incarnation_session(self):
        service = _fleet(NATIVE, ticks=1)
        service._replace(initial=True)
        domain = service._domains[0]
        domain.manager.step_accesses(1_000)
        session = weakref.ref(domain.manager.scheduler._native_runner.session)
        domain.archive()
        gc.collect()
        assert session() is None
        (report,) = domain.finished_reports
        assert report.ipc


@pytest.mark.skipif(not native_available(), reason="native engine unavailable")
class TestStopTelemetry:
    def test_counters_fold_and_render(self):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            manager = DynamicPartitionManager(
                NATIVE, [make_workload(n, NATIVE) for n in ("mcf", "swim")],
                _config(NATIVE),
            )
            manager.run(quota_accesses=6_000, warmup_accesses=500)
        report = RunReport.from_telemetry(telemetry)
        syncs = report.counter_by_label("sim.session_syncs", "kind")
        assert syncs.get("full", 0) >= 2  # adopt + release at least
        assert syncs.get("light", 0) > 0
        assert report.counter_by_label("sim.session_sync_ns", "kind")
        stops = _stops(telemetry)
        assert {"refill", "interval", "quota"} <= set(stops)
        text = report.render()
        assert "native stops:" in text
        assert "session syncs:" in text
