"""A tiny run of each workload, timed and traced, plus the no-sources failure."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.workloads import SCENARIOS

TINY = {
    "fresh-tpch": dict(scale=0.2, iterations=20),
    "hot-tpce": dict(scale=0.15, iterations=20, pool_pairs_per_query=1),
    "churn-tpce": dict(scale=0.15, iterations=20, pool_pairs_per_query=1, reads_per_write=3),
}


def _tiny(name):
    return replace(SCENARIOS[name], min_reads=6, check_every=1, setup_builds=2,
                   **TINY[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tiny_timed_run(name, tmp_path):
    report = measure.timed_run(_tiny(name), 3, 0.0, tmp_path)
    result = report.result()
    assert result["correct"], report.diagnostics
    assert result["failed"] == 0
    assert result["attempted"] >= 6
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert report.diagnostics["checked_answers"] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tiny_traced_run_matches_the_untraced_digest(name, tmp_path):
    report = measure.traced_run(_tiny(name), 3, 0.0, tmp_path)
    result = report.result()
    assert result["correct"], report.diagnostics
    assert (tmp_path / "spans.jsonl.gz").is_file()
    assert "read:" in report.table
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["service.session_ms"] > 0
    if name != "fresh-tpch":
        # Cache sizes are read before each write empties them.
        assert metrics["service.evaluation_cache_entries"] > 0
        assert metrics["service.ji_cache_entries"] > 0


def test_result_lists_exactly_the_metrics_in_benchmark_json():
    report = measure.Report(units=measure.metric_units("end_to_end"))
    report.metrics = {name: 1.0 for name in report.units}
    assert list(report.result()["metrics"]) == list(report.units)
    del report.metrics["setup_s"]
    with pytest.raises(ValueError, match="BENCHMARK.json"):
        report.result()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(Path(measure.__file__).parent, tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-tpch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
