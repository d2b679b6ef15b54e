"""Shared constants, sizes and small helpers for the phenokg benchmark.

The benchmark runs the program from the source tree of the checkout it
lives in (``<root>/src``), never from an installed copy, so that a
checkout is measured as it stands.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("extract-dynamic", "discover-replay", "kg-cohort")

# One client process drives the program with two requests in flight, which
# keeps a two-core machine busy without oversubscribing it.
MAX_IN_FLIGHT = 2

# Stub latency model: lognormal with a 20 ms median.
STUB_MEDIAN_S = 0.020
STUB_SIGMA = 0.5

DRAVET_ICD10 = ("G40.83", "G40.833", "G40.834")
OTHER_ICD10 = ("J45.909", "E66.9", "I10", "K21.9", "M54.5", "R51.9")
BPAN_GENERIC_ICD10 = ("R62.50", "G40.219", "G23.8", "F79", "G40.824", "G31.9")
DISCOVER_KEYWORDS = ("BPAN",)
# Well-formed ids that no ontology in this repository defines.
UNKNOWN_TERMS = ("HP:9999991", "HP:9999992")
# Organ-system roots the cohort-freq command groups terms under by default.
GROUP_ROOTS = {
    "HP:0000707": "nervous system",
    "HP:0000708": "behavior",
    "HP:0000152": "head and neck",
    "HP:0040064": "limbs",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``SMOKE`` is the toy size the tests run."""

    pool_docs: int = 2000
    query_docs: int = 200
    haystack: int = 30000
    planted: int = 300
    kg_patients: int = 60000


FULL = Sizes()
SMOKE = Sizes(pool_docs=60, query_docs=24, haystack=600, planted=12, kg_patients=900)


def share(n: int, fraction: float) -> int:
    """An exact count of injected deviations: ``fraction`` of ``n``, at least one."""
    return max(1, round(n * fraction))


def use_source_tree() -> None:
    """Import phenokg from ``<root>/src``; exit with status 2 if it is not there."""
    if not (SRC / "phenokg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no phenokg source tree under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phenokg

    if Path(phenokg.__file__).resolve().parent != (SRC / "phenokg").resolve():
        sys.stderr.write(f"perfbench: phenokg imported from {phenokg.__file__}, not {SRC}\n")
        raise SystemExit(2)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path: Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

