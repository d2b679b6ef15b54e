"""Smoke test of the A/B comparer: HEAD against itself, one toy-size pair, then again with an A/A control.

Run from the repository root with ``python3 -m pytest tools/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "bench_compare.py"
ROOT = TOOL.parent.parent
sys.path.insert(0, str(TOOL.parent))

from bench_compare import SPEC, judge, run_order  # noqa: E402

METRIC = {"name": "m", "unit": "s", "better": "lower", "bound": 0.1}


def test_head_against_itself_appends_one_entry_and_removes_its_worktree(tmp_path):
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True)
    cmd = [sys.executable, str(TOOL), "--base", "HEAD", "--head", "HEAD", "--workload", "discover-replay"]
    cmd += ["--pairs", "1", "--seed", "3", "--smoke", "--out", str(tmp_path)]
    for extra in ([], ["--control"]):
        proc = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    entries = json.loads((tmp_path / "BENCH_discover-replay.json").read_text(encoding="utf-8"))
    assert len(entries) == 2
    assert entries[0]["control"] is None
    entry = entries[-1]
    assert entry["base"] == entry["head"] == head.stdout.strip()
    assert {k: entry[k] for k in ("workload", "seed", "pairs", "seconds", "smoke")} == {
        "workload": "discover-replay", "seed": 3, "pairs": 1, "seconds": 0, "smoke": True,
    }
    assert set(entry) >= {"date", "python", "metrics"}
    assert list(entry["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, m in entry["metrics"].items():
        assert m["verdict"] in ("better", "worse", "unresolved") and isinstance(m["gap_of_bound"], float)
        assert len(m["base"]["values"]) == len(m["head"]["values"]) == 1
        assert m["base"]["iqr"] == 0 and m["head_wins"] in (0, 1)
        assert name in proc.stdout
        control = entry["control"][name]
        assert control["verdict"] in ("better", "worse", "unresolved") and isinstance(control["within_bound"], bool)
        assert control["base"] == m["base"] and len(control["head"]["values"]) == 1
    assert list(entry["control"]) == list(entry["metrics"])
    assert "A/A verdict" in proc.stdout
    assert not (ROOT / ".bench_build" / "worktrees" / entry["head"]).exists()
    listed = subprocess.run(["git", "worktree", "list"], cwd=ROOT, check=True, capture_output=True, text=True)
    assert entry["head"] not in listed.stdout.replace(str(ROOT), "")


def test_run_order_alternates_two_sides_and_rotates_three():
    assert [run_order(["base", "head"], pair) for pair in range(3)] == [
        ["base", "head"], ["head", "base"], ["base", "head"],
    ]
    assert [run_order(["base", "head", "control"], pair) for pair in range(3)] == [
        ["base", "head", "control"], ["head", "control", "base"], ["control", "base", "head"],
    ]


def test_verdicts_need_nine_wins_in_ten_and_a_gap_wider_than_the_base_iqr():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    faster = [v - 1.0 for v in base]
    assert judge(METRIC, base, faster)["verdict"] == "better"
    assert judge(METRIC, faster, base)["verdict"] == "worse"
    assert judge(METRIC, faster, base)["within_bound"] is False  # 11.1% slower against a 10% bound
    assert judge({**METRIC, "better": "higher"}, base, faster)["verdict"] == "worse"
    # eight wins in ten is unresolved, however large the gap
    mixed = faster[:8] + [v + 1.0 for v in base[8:]]
    assert judge(METRIC, base, mixed)["head_wins"] == 8
    assert judge(METRIC, base, mixed)["verdict"] == "unresolved"
    # ten wins by less than the base's interquartile range is unresolved
    close = [v - 0.01 for v in base]
    assert judge(METRIC, base, close)["verdict"] == "unresolved"
    assert judge(METRIC, base, close)["within_bound"] is True


def test_the_gap_is_reported_as_a_signed_fraction_of_the_bound():
    # kg-cohort peak_rss_mb at 7ba63ef: "worse" by 0.13% against a 15% bound
    metric = {**METRIC, "bound": 0.15}
    base, head = [99.9, 100.0, 100.1], [100.03, 100.13, 100.23]
    assert abs(judge(metric, base, head)["gap_of_bound"] - 0.13 / 15) < 1e-9
    assert abs(judge({**metric, "better": "higher"}, base, head)["gap_of_bound"] + 0.13 / 15) < 1e-9
    assert judge(METRIC, [10.0], [11.1])["gap_of_bound"] > 1  # the bound check fails exactly above 1
