"""The default ``batch`` calculation engine changes no online decision.

``ProbeConfig()`` computes every probe's curve with the vectorized
kernel; ``rangelist`` is the paper's engine and the reference the
kernel is held to.  Because the two produce bit-identical curves, the
closed loop and the fleet built on top of them must make exactly the
same placements, decisions and events under either engine.
"""

from dataclasses import asdict

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.churn import ChurnSchedule
from repro.fleet.service import FleetConfig, FleetService
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.workloads import make_workload

ENGINES = (ProbeConfig(log_entries=1500),
           ProbeConfig(log_entries=1500, stack_engine="rangelist"))


def dynamic_config(machine, probe):
    return DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=probe,
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )


def test_dynamic_manager_identical_under_default_engine(tiny_machine):
    reports = []
    for probe in ENGINES:
        manager = DynamicPartitionManager(
            tiny_machine,
            [make_workload(name, tiny_machine) for name in ("mcf", "gzip")],
            dynamic_config(tiny_machine, probe),
        )
        reports.append(manager.run(quota_accesses=25_000, warmup_accesses=500))
    batch, rangelist = reports
    assert batch.probes_run >= 2 and batch.decisions
    assert batch.events == rangelist.events
    assert batch.decisions == rangelist.decisions
    assert batch.final_colors == rangelist.final_colors
    assert asdict(batch) == asdict(rangelist)


def test_fleet_identical_under_default_engine(tiny_machine):
    reports = []
    for probe in ENGINES:
        service = FleetService(
            tiny_machine,
            [make_workload(name, tiny_machine)
             for name in ("gzip", "mcf", "art", "swim")],
            FleetConfig(
                num_domains=2, ticks=6,
                dynamic=dynamic_config(tiny_machine, probe),
                replace_every_ticks=3,
            ),
            churn=ChurnSchedule.parse("join:equake@2,crash:mcf@4"),
            pool={"equake": make_workload("equake", tiny_machine)},
        )
        reports.append(service.run())
    batch, rangelist = reports
    assert any(True for _ in batch.all_decisions())
    assert batch.placements == rangelist.placements
    assert batch.assignments == rangelist.assignments
    assert batch.events == rangelist.events
    assert list(batch.all_decisions()) == list(rangelist.all_decisions())
    assert batch.domain_reports == rangelist.domain_reports
    assert batch.budget_stats == rangelist.budget_stats
