"""The benchmark's three workloads, driven through the program's public API.

Each workload is built once from ``(seed, size)`` -- that is its set-up --
and then runs *cycles*: one fixed sequence of operations whose outputs
are fully determined by the seed.  A cycle returns the ``perf_counter``
span of every operation, a digest of its deterministic outputs, and the
problems its correctness checks found.  Operations run one at a time (closed
loop, single process, no worker pool).

- ``fleet``: the clean 18-tick ``FleetService`` run of
  ``benchmarks/test_fleet_service.py``; an operation is one tick.
- ``accuracy``: the ``probe --real`` / Figure 3 path for apps spanning
  MRC shapes; an operation is one probe or one size of the real-MRC
  sweep.
- ``analyze``: offline ingestion of a generated multi-pid ``perf
  script`` capture at full POWER5 scale; an operation is one capture.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.mrc import MissRateCurve, mpki_distance
from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.fleet.budget import GlobalProbeBudget
from repro.fleet.churn import ChurnSchedule
from repro.fleet.service import FleetConfig, FleetService
from repro.io.perf_script import parse_perf_script, samples_to_lines, split_by_pid
from repro.runner import offline, online
from repro.runner.dynamic import DynamicConfig
from repro.runner.offline import OfflineConfig
from repro.sim.machine import MachineConfig
from repro.workloads import make_workload

__all__ = ["Cycle", "WORKLOADS", "make_capture"]

#: Called once, at the start of a cycle's first timed operation.
FirstOp = Callable[[], None]


@dataclass
class Cycle:
    """What one run of a workload's operation sequence produced."""

    ops: List[Tuple[float, float]]
    digest: str
    failed_ops: int = 0
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)


class _Digest:
    """SHA-256 over exact float bits and strings, in feed order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *items: object) -> None:
        for item in items:
            text = float(item).hex() if isinstance(item, float) else repr(item)
            self._hash.update(text.encode())
            self._hash.update(b"\0")

    def curve(self, curve: MissRateCurve) -> None:
        for size, value in curve:
            self.add(size, float(value))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# -- fleet --------------------------------------------------------------------


class FleetWorkload:
    """The online control loop: 8 processes on 4 cache domains.

    Ticks are timed from outside: ``GlobalProbeBudget.tick`` runs once
    at the start of every tick, so consecutive calls (and the return of
    ``run()``) bound each tick.  Initial placement before tick 0 is not
    a tick; in the first cycle it is set-up.
    """

    name = "fleet"

    def __init__(self, seed: int, size: str):
        self.machine = MachineConfig.scaled(16)
        if size == "tiny":
            members = ("gzip", "mcf", "art", "swim")
            domains, ticks, churn = 2, 3, "join:applu@1,crash:mcf@2"
        else:
            members = (
                "gzip", "mcf", "art", "swim", "twolf", "equake",
                "libquantum", "mesa",
            )
            domains, ticks, churn = 4, 18, "join:applu@5,crash:mcf@9"
        self.members = [make_workload(n, self.machine, seed) for n in members]
        self.pool = {"applu": make_workload("applu", self.machine, seed)}
        self.churn = ChurnSchedule.parse(churn)
        self.config = FleetConfig(
            num_domains=domains,
            ticks=ticks,
            dynamic=DynamicConfig(
                interval_instructions=8 * self.machine.l2_lines,
                probe=ProbeConfig(log_entries=1500),
                probe_cooldown_intervals=1,
                detector=PhaseDetectorConfig(threshold_mpki=15.0),
            ),
            replace_every_ticks=4,
        )
        self.scale = self.machine.name

    def cycle(self, first_op: FirstOp) -> Cycle:
        service = FleetService(
            self.machine, self.members, self.config,
            churn=self.churn, pool=self.pool,
        )
        stamps: List[float] = []
        original = GlobalProbeBudget.__dict__["tick"]

        def tick(budget: GlobalProbeBudget) -> None:
            if not stamps:
                first_op()
            stamps.append(time.perf_counter())
            original(budget)

        GlobalProbeBudget.tick = tick
        try:
            report = service.run()
        finally:
            GlobalProbeBudget.tick = original
        stamps.append(time.perf_counter())
        return self._check(report, list(zip(stamps, stamps[1:])))

    def _check(self, report, ops: List[Tuple[float, float]]) -> Cycle:
        digest = _Digest()
        digest.add(report.placement_groups())
        ipcs: List[float] = []
        decisions = probes = failed_probes = 0
        for domain in sorted(report.domain_reports):
            for incarnation in report.domain_reports[domain]:
                for record in incarnation.decisions:
                    digest.add(domain, record.mode, record.counts,
                               record.rungs, record.instructions)
                decisions += len(incarnation.decisions)
                for name, ipc in zip(incarnation.names, incarnation.ipc):
                    digest.add(domain, name, float(ipc))
                    ipcs.append(ipc)
                probes += incarnation.probes_run + incarnation.probes_rejected
                failed_probes += incarnation.probes_rejected
        problems = []
        if len(ops) != self.config.ticks:
            problems.append(f"timed {len(ops)} ticks of {self.config.ticks}")
        if decisions < 1:
            problems.append("fleet made no partition decision")
        if report.budget_stats["admitted"] < 1:
            problems.append("probe budget admitted no probe")
        # An incarnation rebuilt before it ever stepped reports IPC 0.
        if not all(ipc >= 0 and math.isfinite(ipc) for ipc in ipcs):
            problems.append(f"negative or non-finite IPC in {ipcs}")
        ran = [ipc for ipc in ipcs if ipc > 0]
        placed = sorted(n for group in report.placement_groups() for n in group)
        expected = sorted(report.final_counts)
        if placed != expected:
            problems.append(f"placement {placed} does not cover {expected}")
        ipc_geomean = (
            math.exp(sum(math.log(x) for x in ran) / len(ran)) if ran else 0.0
        )
        return Cycle(
            ops=ops,
            digest=digest.hexdigest(),
            problems=problems,
            detail={
                "ipc_geomean": ipc_geomean,
                "decisions": decisions,
                "probes": probes,
                "probes_failed": failed_probes,
                "placement": [list(g) for g in report.placement_groups()],
            },
        )


# -- accuracy -----------------------------------------------------------------


class AccuracyWorkload:
    """Figure 3 per app: probe, exhaustive real MRC, calibrate, compare.

    Operations are the program calls a Figure 3 run is made of: each
    ``collect_trace`` and each per-size ``measure_mpki`` of the 16-size
    ``real_mrc`` sweep, the latter timed by wrapping the function where
    ``real_mrc`` looks it up.
    """

    name = "accuracy"

    def __init__(self, seed: int, size: str):
        self.machine = MachineConfig.scaled(16)
        if size == "tiny":
            apps, self.sizes = ("mcf",), (4, 8, 16)
        else:
            apps, self.sizes = ("mcf", "art", "swim", "twolf"), None
        self.apps = [make_workload(n, self.machine, seed) for n in apps]
        self.scale = self.machine.name

    def cycle(self, first_op: FirstOp) -> Cycle:
        ops: List[Tuple[float, float]] = []
        original = offline.measure_mpki

        def measure_mpki(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ops.append((start, time.perf_counter()))

        first_op()
        offline.measure_mpki = measure_mpki
        try:
            return self._apps(ops)
        finally:
            offline.measure_mpki = original

    def _apps(self, ops: List[Tuple[float, float]]) -> Cycle:
        digest = _Digest()
        probe_s: List[float] = []
        real_mrc_s: List[float] = []
        errors: Dict[str, float] = {}
        problems: List[str] = []
        failed = 0
        for app in self.apps:
            start = time.perf_counter()
            probe = online.collect_trace(app, self.machine)
            probed = time.perf_counter()
            ops.append((start, probed))
            real = offline.real_mrc(
                app, self.machine, OfflineConfig(), sizes=self.sizes,
            )
            probe_s.append(probed - start)
            real_mrc_s.append(time.perf_counter() - probed)
            if not probe.ok or probe.result is None:
                failed += 1
                problems.append(
                    f"{app.name}: probe failed its quality gates "
                    f"({probe.quality.describe()})"
                )
                continue
            calibrated = probe.calibrate(8, real[8])
            error = mpki_distance(real, calibrated)
            if not math.isfinite(error):
                problems.append(f"{app.name}: MPKI distance {error!r}")
            errors[app.name] = error
            digest.add(app.name)
            digest.curve(real)
            digest.curve(calibrated)
        return Cycle(
            ops=ops,
            digest=digest.hexdigest(),
            failed_ops=failed,
            problems=problems,
            detail={
                "mpki_error": (
                    sum(errors.values()) / len(errors) if errors else 0.0
                ),
                "mpki_error_by_app": errors,
                "probe_s": probe_s,
                "real_mrc_s": real_mrc_s,
            },
        )


# -- analyze ------------------------------------------------------------------

#: (comm, pid, reuse profile) of the generated capture's processes.
_CAPTURE_PIDS = (("fitter", 4101, "fits"), ("streamer", 4202, "streams"),
                 ("kneed", 4303, "knee"))
#: Share of log entries that repeat their predecessor (stale SDAR).
_STALE_SHARE = 0.15
_INSTRUCTIONS_PER_SAMPLE = 48


def _pid_lines(rng: np.random.Generator, profile: str, count: int,
               l2_lines: int) -> np.ndarray:
    """Cache-line stream of one process, with stale repeats folded in."""
    if profile == "fits":
        lines = rng.integers(0, l2_lines // 2, count)
    elif profile == "streams":
        lines = np.arange(count, dtype=np.int64) * 2
    else:
        wide = rng.integers(0, 3 * l2_lines // 2, count)
        hot = rng.integers(0, l2_lines // 4, count)
        lines = np.where(rng.random(count) < 0.8, wide, hot)
    stale = rng.random(count) < _STALE_SHARE
    stale[0] = False
    # Each stale entry re-records the latest genuine entry before it.
    source = np.where(stale, 0, np.arange(count))
    return lines[np.maximum.accumulate(source)]


def make_capture(seed: int, machine: MachineConfig, per_pid: int) -> str:
    """A ``perf script`` capture interleaving the three processes."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(np.repeat(np.arange(len(_CAPTURE_PIDS)), per_pid))
    streams = [
        iter(_pid_lines(rng, profile, per_pid, machine.l2_lines).tolist())
        for _comm, _pid, profile in _CAPTURE_PIDS
    ]
    offsets = rng.integers(0, machine.line_size, len(order)).tolist()
    out = ["# ========\n", "# captured on: generated\n", "# ========\n"]
    stamp = 4021.0
    for index, which in enumerate(order.tolist()):
        comm, pid, _profile = _CAPTURE_PIDS[which]
        address = ((0x7F00 + which) << 32) + (
            next(streams[which]) * machine.line_size + offsets[index]
        )
        stamp += 0.000003
        if index % 2:
            out.append(f"{comm} {pid}/{pid} {stamp:.6f}: "
                       f"cpu/mem-loads,ldlat=30/P: {address:x}\n")
        else:
            out.append(f"{comm:>16} {pid} [{which:03d}] {stamp:.6f}:  "
                       f"1 mem-loads:  0x{address:x}\n")
    return "".join(out)


class AnalyzeWorkload:
    """Offline ingestion: parse, split by pid, turn each pid into an MRC."""

    name = "analyze"

    def __init__(self, seed: int, size: str):
        self.machine = (
            MachineConfig.scaled(16) if size == "tiny" else MachineConfig()
        )
        self.per_pid = ProbeConfig().resolved_log_entries(self.machine)
        self.capture = make_capture(seed, self.machine, self.per_pid)
        self.scale = self.machine.name

    def cycle(self, first_op: FirstOp) -> Cycle:
        first_op()
        start = time.perf_counter()
        report = parse_perf_script(io.StringIO(self.capture))
        groups = split_by_pid(report.samples)
        results = {}
        for pid in sorted(groups, key=lambda p: (p is None, p)):
            lines = samples_to_lines(groups[pid], self.machine.line_size)
            results[pid] = RapidMRC(self.machine, ProbeConfig()).compute(
                lines, _INSTRUCTIONS_PER_SAMPLE * len(lines),
                label=f"perf:{pid}",
            )
        end = time.perf_counter()

        digest = _Digest()
        problems: List[str] = []
        if report.skipped_lines:
            problems.append(f"parser skipped {report.skipped_lines} lines")
        expected_pids = [pid for _comm, pid, _profile in _CAPTURE_PIDS]
        if sorted(results, key=str) != sorted(expected_pids, key=str):
            problems.append(f"pids {sorted(results, key=str)} != {expected_pids}")
        converted = {}
        for _comm, pid, profile in _CAPTURE_PIDS:
            result = results.get(pid)
            if result is None:
                continue
            count = len(groups[pid])
            if count != self.per_pid:
                problems.append(f"pid {pid}: {count} samples, not {self.per_pid}")
            curve = result.mrc
            digest.add(pid)
            digest.curve(curve)
            converted[pid] = result.prefetch_conversion_fraction
            problems.extend(_shape_problems(pid, profile, curve, self.machine))
            if not 0.10 <= converted[pid] <= 0.20:
                problems.append(
                    f"pid {pid}: corrected {converted[pid]:.3f} of the log, "
                    f"generated {_STALE_SHARE}"
                )
        return Cycle(
            ops=[(start, end)],
            digest=digest.hexdigest(),
            failed_ops=1 if len(results) < len(_CAPTURE_PIDS) else 0,
            problems=problems,
            detail={
                "samples": len(report.samples),
                "converted_frac": converted,
            },
        )


def _shape_problems(pid: int, profile: str, curve: MissRateCurve,
                    machine: MachineConfig) -> List[str]:
    """Check a pid's curve against the reuse profile it was generated with."""
    first, last = curve[1], curve[machine.num_colors]
    if first <= 0:
        return [f"pid {pid}: no misses at one color"]
    if profile == "fits" and last > 0.05 * first:
        return [f"pid {pid}: fits in L2 but misses {last:.3f} MPKI at full size"]
    if profile == "streams" and last < 0.95 * first:
        return [f"pid {pid}: streams but its curve drops {first:.3f}->{last:.3f}"]
    if profile == "knee" and not 0.05 * first < last < 0.8 * first:
        return [f"pid {pid}: no knee between {first:.3f} and {last:.3f} MPKI"]
    return []


WORKLOADS = {
    workload.name: workload
    for workload in (FleetWorkload, AccuracyWorkload, AnalyzeWorkload)
}
