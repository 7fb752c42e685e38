"""The repo benchmark: run one workload from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload analyze --seed 1 --seconds 40 --trace 1

Each run builds the native engine's compile cache, then measures the
workload in fresh worker processes (``perfbench/worker.py``) with the
checkout's ``src`` on ``PYTHONPATH``, no worker pool, and
``REPRO_NATIVE``/``MachineConfig.sim_engine`` at their defaults.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a traced run.  The
last line of standard output is the result as one JSON object; lines
before it print every metric by name with its unit and direction, the
output digest, and the provenance.  Every run appends its result and
provenance to ``perfbench/history.jsonl``.

A run whose outputs are wrong (a failed correctness check, cycles with
different output digests, a crashed worker) prints ``"correct": false``
and exits 1.  Without the program's sources next to the benchmark it
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List, Optional

import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "history.jsonl"
WORKLOAD_NAMES = ("fleet", "accuracy", "analyze")
#: What one timed operation is, per workload.
OPERATION = {"fleet": "tick", "accuracy": "call", "analyze": "capture"}
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
#: A measurement must end within this many seconds after the build, so
#: that a whole run stays inside three minutes.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 600.0


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return seed


def _worker(args: argparse.Namespace, env: Dict[str, str], timeout: float,
            *extra: str) -> Dict[str, object]:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--t0", repr(time.perf_counter()), *extra,
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(extra)} exited {done.returncode}"
        )
    return json.loads(lines[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix not in (".pyc", ".so")
                and ".tmp" not in path.name):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _command_line(command: List[str]) -> Optional[str]:
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0 or not done.stdout.strip():
        return None
    return done.stdout.strip().splitlines()[0]


def _provenance(args: argparse.Namespace, build: Dict[str, object],
                scale: object) -> Dict[str, object]:
    toplevel = _command_line(["git", "rev-parse", "--show-toplevel"])
    in_repo = toplevel is not None and pathlib.Path(toplevel).resolve() == ROOT
    return {
        "git_sha": _command_line(["git", "rev-parse", "HEAD"]) if in_repo else None,
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": build["numpy"],
        "cc": _command_line([os.environ.get("CC") or "cc", "--version"]),
        "native_engine": build["native_engine"],
        "nproc": os.cpu_count(),
        "scale": scale,
        "size": args.size,
        "REPRO_NATIVE": os.environ.get("REPRO_NATIVE"),
        "sim_engine": build["sim_engine"],
        "seed": args.seed,
    }


def _end_to_end(spec: Dict[str, object], setups: List[float],
                measured: Dict[str, object]) -> Dict[str, tuple]:
    op_s = measured["op_s"]
    tail_s, percentile = stats.tail(op_s)
    values = {
        "setup_s": (stats.median(setups), f"median of {len(setups)} process starts"),
        "peak_rss_mb": (measured["peak_rss_mb"], "workload process"),
        "op_s_p50": (stats.median(op_s), f"{len(op_s)} samples"),
        "op_s_tail": (tail_s, f"p{percentile:.0f} of {len(op_s)} samples"),
    }
    return {
        metric["name"]: (values[metric["name"]][0], metric["unit"],
                         metric["better"], values[metric["name"]][1])
        for metric in spec["end_to_end"]
    }


def _per_layer(spec: Dict[str, object], layers: Dict[str, Dict]) -> Dict[str, tuple]:
    return {
        metric["name"]: (layers[metric["name"]]["value"], metric["unit"],
                         metric["better"], "traced")
        for metric in spec["per_layer"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's self-tests",
    )
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(SRC))

    try:
        build = _worker(args, env, BUILD_LIMIT_S, "--build")
    except BenchError as error:
        print(f"error: cannot import or build the program: {error}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setups: List[float] = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                sample = _worker(args, env, deadline - time.monotonic(),
                                 "--setup-only")
                setups.append(sample["setup_s"])
        measured = _worker(args, env, deadline - time.monotonic())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        measured = {"errors": [str(error)], "attempted": 1, "failed": 1,
                    "op_s": [], "digest": None, "scale": None, "detail": {}}

    errors = measured["errors"]
    correct = not errors and measured["failed"] == 0
    metrics: Dict[str, tuple] = {}
    if correct:
        if args.trace:
            metrics = _per_layer(spec, measured["layers"])
        else:
            setups.append(measured["setup_s"])
            metrics = _end_to_end(spec, setups, measured)
    provenance = _provenance(args, build, measured["scale"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} "
          f"({measured['attempted']} {OPERATION[args.workload]}s)")
    for name, (value, unit, better, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {better} is better  ({note})")
    print(f"  digest {measured['digest']}")
    for key, value in measured["detail"].items():
        print(f"  detail {key} = {value}")
    print("  provenance " + json.dumps(provenance))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _better, _note) in metrics.items()
        },
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps({
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance,
            "digest": measured["digest"],
            "detail": measured["detail"],
            "result": result,
        }) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
