"""BENCHMARK.json agrees with the metric tables and the benchmark's contract."""

import json
import re
import shutil
import subprocess
import sys

import metrics
import run
from sweep import ROOT, load_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["command"] == ["python3", "perfbench/run.py"]
    assert benchmark["paths"] == ["perfbench"]
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
    assert len(json.dumps(benchmark)) <= 64 * 1024


def test_metric_tables_match_benchmark_json():
    benchmark = load_benchmark()
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in benchmark[key]}
        assert declared == table
        assert all(UNIT.match(unit) for unit, _ in declared.values())
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert tuple(workloads) == run.WORKLOADS


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rerank_small_kb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
