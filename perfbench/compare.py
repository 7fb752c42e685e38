"""Compare a parent commit with a change, pair by pair.

Runs the benchmark on two checkouts in alternating order -- pair ``i``
runs the parent first when ``i`` is even and the change first when it
is odd, both with seed ``seed + i`` and ``BENCHMARK.json``'s run
length.  Prints one row per workload and end-to-end metric: each side's
median and quartiles, the change/parent ratio with its base, the
fraction of pairs the change won (ties count for neither), and a
verdict:

- ``gain``: at least ten pairs ran, the change won at least nine tenths
  of them, and the medians differ by more than the parent's
  inter-quartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
- ``unresolved``: either side's spread (inter-quartile distance over
  median) exceeds the bound, and not every change run beat every parent
  run;
- ``within bound`` otherwise.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload fleet --workload analyze --pairs 10 --seed 100
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, Iterable, List, Tuple

import stats

HERE = pathlib.Path(__file__).resolve().parent
WIN_SHARE = 0.9
MIN_PAIRS = 10

Runs = Dict[Tuple[str, str], List[float]]


def summarize(parent: List[float], change: List[float], better: str,
              bound: float) -> Dict[str, object]:
    """Statistics and verdict of one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p1, p2, p3 = stats.quartiles(parent)
    c1, c2, c3 = stats.quartiles(change)
    row = {
        "parent": (p1, p2, p3),
        "change": (c1, c2, c3),
        "ratio": c2 / p2 if p2 else float("inf"),
        "win_share": wins / pairs if pairs else 0.0,
    }
    improved = sign * (c2 - p2) > 0
    spread = max(stats.spread(parent), stats.spread(change))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (pairs >= MIN_PAIRS and row["win_share"] >= WIN_SHARE and improved
            and abs(c2 - p2) > p3 - p1):
        row["verdict"] = "gain"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif -sign * (c2 - p2) > bound * p2:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within bound"
    return row


def _collect(results: Iterable[Tuple[str, Dict]]) -> Runs:
    runs: Runs = {}
    for workload, result in results:
        for name, metric in result["metrics"].items():
            runs.setdefault((workload, name), []).append(metric["value"])
    return runs


def _run(checkout: str, workload: str, seed: int, seconds: float) -> Dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed")
    return result


def _render(runs_parent: Runs, runs_change: Runs, spec: Dict) -> str:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"{'workload':9s} {'metric':30s} {'parent median [Q1, Q3]':>30s} "
        f"{'change median [Q1, Q3]':>30s} {'change/parent':>14s} "
        f"{'wins':>5s}  verdict"
    ]
    for key in sorted(runs_parent.keys() & runs_change.keys()):
        workload, name = key
        metric = metrics[name]
        row = summarize(runs_parent[key], runs_change[key], metric["better"],
                        metric["bound"])
        p1, p2, p3 = row["parent"]
        c1, c2, c3 = row["change"]
        lines.append(
            f"{workload:9s} {name:30s} "
            f"{f'{p2:.4g} [{p1:.4g}, {p3:.4g}]':>30s} "
            f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>30s} "
            f"{row['ratio']:14.3f} {row['win_share']:5.2f}  {row['verdict']}"
            f"  (base: parent median {p2:.4g} {metric['unit']}, "
            f"{len(runs_parent[key])} runs)"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    seconds = spec["run_seconds"]
    made: Dict[str, List[Tuple[str, Dict]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in args.workload:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = _run(checkout, workload, args.seed + pair, seconds)
                made[side].append((workload, result))
    print(_render(_collect(made["parent"]), _collect(made["change"]), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
