"""Toy-size runs of every workload, so a change that breaks the harness fails in seconds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, run_py: Path = BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "3", "--seconds", "0"]
    return subprocess.run(
        cmd + ["--trace", str(trace), "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_outputs_and_reports_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_their_counts(workload):
    first, second = _result(workload, 1)["metrics"], _result(workload, 1)["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == want
    counts = [name for name, unit in want.items() if unit == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_same_seed_gives_same_inputs(tmp_path):
    for out in ("a", "b"):
        cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "kg-cohort", "5", str(tmp_path / out), "--smoke"]
        subprocess.run(cmd, check=True, timeout=120)
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", sorted(p.name for p in (tmp_path / "a").iterdir()), shallow=False
    )
    assert match and not mismatch and not errors


def test_without_the_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("kg-cohort", 0, cwd=tmp_path, run_py=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_missing_name_is_reported_absent_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import phenokg.extraction
    import tracing

    build_prompt = phenokg.extraction.build_prompt
    monkeypatch.delattr(phenokg.extraction, "top_k")
    tracer = tracing.Tracer()
    tracer.install(state=None)
    try:
        assert tracer.missing == {"retrieval.top_k"}
        assert phenokg.extraction.build_prompt is not build_prompt
    finally:
        tracer.uninstall()
    assert phenokg.extraction.build_prompt is build_prompt
    assert not hasattr(phenokg.extraction, "top_k")
