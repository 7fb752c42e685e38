"""Self-tests of the benchmark (run with ``python -m pytest perfbench``).

Every run happens in a temporary copy of the benchmark whose ``src`` is
a link to this checkout's sources, so the tests leave no history behind.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import stats
from compare import summarize

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _copy(tmp_path: pathlib.Path, with_sources: bool) -> pathlib.Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "history.jsonl"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def _run(root: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170,
    )


def _result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(tmp_path, workload):
    root = _copy(tmp_path, with_sources=True)
    done = _run(root, workload, trace=0)
    assert done.returncode == 0
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
        assert metric["name"] in done.stdout.split("{")[0]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    history = (root / "perfbench" / "history.jsonl").read_text().splitlines()
    record = json.loads(history[-1])
    assert record["provenance"]["seed"] == 3
    assert record["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(tmp_path, workload):
    root = _copy(tmp_path, with_sources=True)
    done = _run(root, workload, trace=1)
    assert done.returncode == 0
    result = _result(done)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    self_total = sum(
        value["value"] for name, value in metrics.items()
        if name.endswith(".self_s")
    )
    assert 0 < self_total <= metrics["traced_wall_s"]["value"]
    assert metrics["unattributed_s"]["value"] >= 0


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    root = _copy(tmp_path, with_sources=False)
    done = _run(root, "fleet", trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_layer_tracer_restores_every_patched_name():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.fleet.service as service
        from layers import LayerTracer
        from repro.apps import coscheduling
        from repro.runner.driver import Process

        before = (service.place_on_domains, coscheduling.place_on_domains,
                  Process.step)
        with LayerTracer():
            assert service.place_on_domains is not before[0]
            assert coscheduling.place_on_domains is not before[1]
            assert Process.step is not before[2]
        assert (service.place_on_domains, coscheduling.place_on_domains,
                Process.step) == before
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tail_never_drops_below_the_median():
    assert stats.tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert stats.tail(list(range(21))) == (10, 50.0)
    value, percentile = stats.tail(list(range(40)))
    assert value == 29 and percentile == 75.0
    assert sum(1 for v in range(40) if v > value) == stats.TAIL_BEYOND


def test_compare_counts_ties_for_neither_side():
    parent = [10.0] * 10
    change = [9.0] * 9 + [10.0]
    row = summarize(parent, change, "lower", 0.25)
    assert row["win_share"] == 0.9
    assert row["verdict"] == "gain"
    assert row["ratio"] == pytest.approx(0.9)


def test_compare_reports_wide_spread_as_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5]
    change = list(reversed(parent))
    assert summarize(parent, change, "lower", 0.1)["verdict"] == "unresolved"
    assert summarize([1.0] * 4, [1.5] * 4, "lower", 0.1)["verdict"] == "regression"
    assert summarize([1.0] * 4, [1.02] * 4, "lower", 0.1)["verdict"] == "within bound"
