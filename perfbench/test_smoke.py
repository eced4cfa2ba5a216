"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with ``--tiny`` and
checks that every metric named in BENCHMARK.json is emitted, that no job
failed, that each layer the layer map puts on a workload is called there,
and that the benchmark refuses to run without the library's sources.
"""

import fnmatch
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _layer_map():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert " fail_rate 0 ratio" in proc.stdout
    return result


def test_manifest_matches_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert bench["run_seconds"] == run.RUN_SECONDS
    names = [m["name"] for m in bench["per_layer"]]
    for row in _layer_map()["rows"]:
        for pattern in row["metrics"]:
            assert fnmatch.filter(names, pattern), pattern


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names(workload):
    result = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_names_and_map(workload):
    metrics = _result(_run(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for row in _layer_map()["rows"]:
        if workload not in row["on"]:
            continue
        names = [n for p in row["metrics"] for n in fnmatch.filter(metrics, p)]
        counters = [n for n in names
                    if n.endswith((".calls", ".import_ms", ".bytes_written"))]
        assert any(metrics[n]["value"] > 0 for n in counters), row["metrics"]
    assert metrics["trace.overhead"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("atomic", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
