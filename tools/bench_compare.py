"""A/B comparison of two revisions on one benchmark workload.

    python3 tools/bench_compare.py --base REV --head REV --workload W --pairs N --seed S [--control] [--smoke]

Each revision is checked out with ``git worktree add --detach`` under
``.bench_build/worktrees/<sha>``, and the worktrees are removed on exit. Each
pair runs both revisions' own ``perfbench/run.py`` for ``BENCHMARK.json``'s
``run_seconds``, in alternating order: odd pairs run the base first. With
``--control`` each pair also runs the base a second time, and the order of the
three runs rotates from pair to pair. ``--smoke`` runs the benchmark's toy
sizes for zero seconds, to check the tool itself.

For every end-to-end metric of ``BENCHMARK.json`` the tool prints each side's
median, quartiles and min-max, the head's wins out of N pairs, a verdict and
whether the head's median stays within the metric's bound. The verdict is
"better" when the head wins at least nine pairs in ten and its median lies
further from the base's than the base's interquartile range, "worse" when the
same holds the other way, and "unresolved" otherwise. A bound is a relative
change of the median in the worse direction (an absolute one when the base's
median is 0). Beside the bound check the tool prints the gap between the
medians as a signed fraction of the bound: positive in the worse direction, and
above 1 when the bound fails. With ``--control`` the second base runs are judged
against the first in the same way, and that A/A verdict and bound check print
beside each A/B result: how far unchanged code moves on this machine.

One entry per comparison is appended to ``BENCH_<workload>.json`` (a JSON list)
at the repository root, or in ``--out`` if given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREES = ROOT / ".bench_build" / "worktrees"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
        "min": min(values), "max": max(values), "values": values,
    }


def judge(metric: dict, base: list[float], head: list[float]) -> dict:
    """The comparison of one end-to-end metric over paired runs (``base[i]`` and ``head[i]`` are pair ``i``)."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (head - base) < 0: the head is better
    b, h = _summary(base), _summary(head)
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
    losses = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    gap = sign * (h["median"] - b["median"])
    if wins * 10 >= 9 * len(base) and -gap > b["iqr"]:
        verdict = "better"
    elif losses * 10 >= 9 * len(base) and gap > b["iqr"]:
        verdict = "worse"
    else:
        verdict = "unresolved"
    limit = metric["bound"] * abs(b["median"]) if b["median"] else metric["bound"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base": b, "head": h, "head_wins": wins, "verdict": verdict, "within_bound": gap <= limit,
        "gap_of_bound": gap / limit,
    }


def run_order(sides: list[str], pair: int) -> list[str]:
    """The order in which pair ``pair`` (from 0) runs ``sides``: rotated one place further each pair."""
    k = pair % len(sides)
    return sides[k:] + sides[:k]


def _run(tree: Path, workload: str, seed: int, smoke: bool) -> dict:
    seconds = 0 if smoke else SPEC["run_seconds"]
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree.name}: {workload} output check failed:\n{proc.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}] ({s['min']:.4g}-{s['max']:.4g})"


def _bound(m: dict) -> str:
    return f"{'pass' if m['within_bound'] else 'FAIL'} ({m['bound']:g}; gap {m['gap_of_bound']:+.2g} of it)"


def _report(entry: dict) -> str:
    control = entry["control"]
    lines = [
        f"{entry['workload']} seed {entry['seed']}, {entry['pairs']} pairs: "
        f"base {entry['base'][:10]}, head {entry['head'][:10]}",
        "metric: base median [q1-q3] (min-max) | head median [q1-q3] (min-max) | head wins | verdict | bound"
        + (" | A/A verdict | A/A bound" if control else ""),
    ]
    for name, m in entry["metrics"].items():
        line = (
            f"{name} ({m['unit']}): {_fmt(m['base'])} | {_fmt(m['head'])} | "
            f"{m['head_wins']}/{entry['pairs']} | {m['verdict']} | {_bound(m)}"
        )
        if control:
            line += f" | {control[name]['verdict']} | {_bound(control[name])}"
        lines.append(line)
    return "\n".join(lines)


def _append(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(entries + [entry], indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision compared against")
    parser.add_argument("--head", required=True, help="the revision judged")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--control", action="store_true", help="also run the base again in each pair (A/A)")
    parser.add_argument("--smoke", action="store_true", help="toy sizes for zero seconds: checks the tool only")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    shas = {side: _git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}") for side in ("base", "head")}
    # a terminated comparison still removes its worktrees
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trees: dict[str, Path] = {}
    try:
        for sha in dict.fromkeys(shas.values()):
            tree = WORKTREES / sha
            shutil.rmtree(tree, ignore_errors=True)  # left by a comparison that was killed
            _git("worktree", "prune")
            _git("worktree", "add", "--detach", str(tree), sha)
            trees[sha] = tree
        sides = ["base", "head", "control"] if args.control else ["base", "head"]
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for pair in range(args.pairs):
            for side in run_order(sides, pair):
                tree = trees[shas["head" if side == "head" else "base"]]
                runs[side].append(_run(tree, args.workload, args.seed, args.smoke))
    finally:
        for tree in trees.values():
            _git("worktree", "remove", "--force", str(tree))
        _git("worktree", "prune")

    def judged(side: str) -> dict:
        return {
            m["name"]: judge(m, [r[m["name"]] for r in runs["base"]], [r[m["name"]] for r in runs[side]])
            for m in SPEC["end_to_end"]
        }

    entry = {
        "base": shas["base"],
        "head": shas["head"],
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": 0 if args.smoke else SPEC["run_seconds"],
        "smoke": args.smoke,
        "metrics": judged("head"),
        "control": judged("control") if args.control else None,
    }
    print(_report(entry))
    _append(args.out / f"BENCH_{args.workload}.json", entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
