"""One workload process: set up, run timed cycles, report one JSON line.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at
the checkout's ``src``.  ``--t0`` is the parent's ``perf_counter`` (a
system-wide clock on Linux) just before this process was spawned, so
``setup_s`` covers interpreter start, imports, and workload
construction up to the first timed operation.  Untraced timings are
reported in reference seconds (see ``refclock.py``).

Modes:

- ``--build``: import the program and build the native engine's compile
  cache, then report the toolchain facts the provenance record needs;
- ``--setup-only``: stop at the first timed operation and report
  ``setup_s`` (the parent repeats this to take a median);
- otherwise measure: run whole cycles while the next one is expected to
  end within the time budget (at least one).  A traced run first runs
  untraced cycles for half the budget, then the same number of cycles
  with every layer wrapped and the program's telemetry enabled; the
  ratio of the two walls, each in reference seconds, is the tracing
  overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List

import stats
from refclock import ReferenceClock


#: Reference loop (see ``refclock.REFERENCES``) closest to each
#: workload's hot path: the simulator for fleet and accuracy, the
#: perf-script parser for analyze.
REFERENCE = {"fleet": "objects", "accuracy": "objects", "analyze": "text"}


class _SetupDone(Exception):
    """Raised at the first timed operation of a set-up-only process."""


def _emit(record: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _build() -> None:
    import numpy

    from repro.sim.machine import MachineConfig
    from repro.sim.native import native_lib

    _emit({
        "native_engine": native_lib() is not None,
        "numpy": numpy.__version__,
        "sim_engine": MachineConfig().sim_engine,
    })


def _run_cycles(workload, budget_s: float, count: int, first_op: Callable,
                cycles: List, walls: List[float]) -> None:
    """Append whole cycles: ``count`` of them, or as many as fit ``budget_s``."""
    loop_start = time.perf_counter()
    while True:
        # Every cycle starts from the same collector state, so a cycle
        # does not pay for garbage the one before it left behind.
        gc.collect()
        start = time.perf_counter()
        cycles.append(workload.cycle(first_op))
        walls.append(time.perf_counter() - start)
        if count:
            if len(walls) >= count:
                return
        elif time.perf_counter() - loop_start + walls[-1] > budget_s:
            return


def _telemetry_counters(telemetry) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for entry in telemetry.registry.snapshot()["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0) + int(entry["value"])
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--t0", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--build", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.build:
        _build()
        return 0
    if args.trace:
        return _traced(args)

    with ReferenceClock(REFERENCE[args.workload]) as clock:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.size)
        setup: List[float] = []

        def first_op() -> None:
            if not setup:
                setup.append(time.perf_counter())
                if args.setup_only:
                    raise _SetupDone

        if args.setup_only:
            try:
                workload.cycle(first_op)
            except _SetupDone:
                pass
            _emit({"setup_s": clock.reference_seconds(args.t0, setup[0])})
            return 0

        cycles: List = []
        errors: List[str] = []
        try:
            _run_cycles(workload, args.seconds, 0, first_op, cycles, [])
        except Exception:
            errors.append(traceback.format_exc())
    spans = [span for cycle in cycles for span in cycle.ops]
    record = _outcome(cycles, errors)
    record.update({
        "setup_s": clock.reference_seconds(args.t0, setup[0]) if setup else None,
        "op_s": [clock.reference_seconds(start, end) for start, end in spans],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scale": workload.scale,
    })
    if spans:
        record["detail"]["raw_op_s_p50"] = stats.median(
            [end - start for start, end in spans]
        )
        record["detail"]["host_slowdown"] = clock.speed(spans[0][0], spans[-1][1])
    _emit(record)
    return 0


def _traced(args: argparse.Namespace) -> int:
    """Untraced cycles for half the budget, then as many traced ones."""
    from layers import LayerTracer, per_layer_metrics
    from repro.obs import Telemetry, use_telemetry
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    cycles: List = []
    errors: List[str] = []
    layers = None
    with ReferenceClock(REFERENCE[args.workload]) as clock:
        try:
            start = time.perf_counter()
            untraced: List[float] = []
            _run_cycles(workload, args.seconds / 2, 0, _no_op, cycles, untraced)
            middle = time.perf_counter()
            telemetry = Telemetry.in_memory()
            with use_telemetry(telemetry), LayerTracer() as tracer:
                traced: List[float] = []
                _run_cycles(workload, 0.0, len(untraced), _no_op, cycles, traced)
            end = time.perf_counter()
            slowdown = clock.speed(middle, end)
            layers = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in per_layer_metrics(
                    tracer, _telemetry_counters(telemetry), slowdown,
                    sum(traced) / slowdown,
                    sum(untraced) / clock.speed(start, middle),
                ).items()
            }
        except Exception:
            errors.append(traceback.format_exc())
    record = _outcome(cycles, errors)
    record.update({"layers": layers, "scale": workload.scale})
    _emit(record)
    return 0


def _no_op() -> None:
    pass


def _outcome(cycles: List, errors: List[str]) -> Dict[str, object]:
    """Counts, digest and problems shared by traced and untraced runs."""
    digests = [cycle.digest for cycle in cycles]
    for cycle in cycles:
        errors.extend(cycle.problems)
    if len(set(digests)) > 1:
        errors.append(f"output digests differ between cycles: {digests}")
    attempted = sum(len(cycle.ops) for cycle in cycles)
    failed = sum(cycle.failed_ops for cycle in cycles)
    if errors and not failed:
        failed = 1
    return {
        "attempted": max(attempted, 1),
        "failed": failed,
        "errors": errors,
        "digest": digests[0] if digests else None,
        "detail": dict(cycles[0].detail) if cycles else {},
    }


if __name__ == "__main__":
    sys.exit(main())
