"""phenokg benchmark: one command generates seeded inputs, runs a workload,
checks every output and prints its metrics.

    python3 perfbench/run.py --workload extract-dynamic --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``extract-dynamic``: dynamic few-shot HPO extraction with gleaning through
  the real HTTP backend against a localhost stub with seeded latency.
* ``discover-replay``: the discovery funnel over a 30,000-patient haystack,
  answered from a replay cassette recorded while the inputs are generated.
* ``kg-cohort``: graph writes, save, reload and cohort frequencies at 60,000
  patients, with no model at all.

Inputs are generated in a child process (untimed) and the stub runs in
another, so the client's CPU time and peak RSS are the program's own. The
client then repeats (set-up, timed pass, output check) cycles until
``--seconds`` have passed, and at least three set-ups. Every end-to-end
metric is the median over the run's passes; ``setup_s`` is the median
set-up. With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are printed instead, with the
tracing overhead (traced minus untraced pass wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
output mismatches; the seeded deviations the program is expected to drop
and audit are not failures, they show in ``failed_frac``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, MAX_IN_FLIGHT, ROOT, WORKLOADS, read_json, use_source_tree  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "wall_over_bound": "ratio",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
MIN_SETUPS = 3
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


class Stub:
    """The stub endpoint in its own process; ``stats`` reads and resets its counters."""

    def __init__(self, plan: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(plan)], stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub endpoint did not start (printed {line!r})")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    @property
    def endpoint(self) -> str:
        return f"{self.base}/v1/chat/completions"

    def stats(self) -> dict:
        with self._opener.open(f"{self.base}/stats?reset=1", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _output_counts(out) -> dict:
    audit = getattr(out, "audit", None)
    report = getattr(out, "report", None)
    return {
        "audit": Counter(e["event"] for e in audit.entries) if audit is not None else {},
        "stages": dict(report.stage_counts) if report is not None else {},
    }


def measure(workload, stub: Stub | None, seconds: float, trace: bool, trace_path: Path) -> dict:
    from tracing import PER_LAYER, SETUP_STEPS, Tracer, layer_metrics, request_digest
    from workloads import _Steps

    setups: list[dict] = []
    passes: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        steps = _Steps()
        t0 = time.perf_counter()
        state = workload.setup(steps)
        setups.append({"setup_s": time.perf_counter() - t0, **steps.seconds})
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        if stub is not None:
            stub.stats()
        if tracer is not None:
            tracer.install(state)
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        out = workload.run(state)
        t1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
        stub_stats = stub.stats() if stub is not None else {}
        found = workload.check(state, out)
        attempted += workload.items
        failed += len(found)
        problems += found[:5]
        dropped, tried = workload.failures(out)
        record = {"wall": t1 - t0, "cpu": cpu1 - cpu0, "failed_frac": dropped / tried, "stub": stub_stats}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, t0, t1, {"stub": stub_stats, **_output_counts(out)})
            record["missing"] = tracer.missing
            record["digest"] = request_digest(tracer.requests) if tracer.requests else None
            tracer.write(trace_path)
        passes.append(record)
        print(
            f"pass {len(passes)}{' traced' if tracer else ''}: setup {setups[-1]['setup_s']:.3f} s, "
            f"wall {record['wall']:.3f} s, cpu {record['cpu']:.3f} s",
            file=sys.stderr,
        )
        del state, out, tracer
        enough = len(passes) >= 2 and len(passes) % 2 == 0 if trace else len(passes) >= 1
        if enough and time.perf_counter() - started >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        gc.collect()
        steps = _Steps()
        t0 = time.perf_counter()
        workload.setup(steps)
        setups.append({"setup_s": time.perf_counter() - t0, **steps.seconds})

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = _end_to_end(workload, passes, setups)
        return result

    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    values = {}
    for name, first in traced[0]["layers"].items():
        seen = [p["layers"][name] for p in traced]
        if units[name] == "count":
            # counts must repeat exactly from pass to pass; report the first
            if len(set(seen)) > 1:
                print(f"count {name} differs between traced passes: {seen}", file=sys.stderr)
            values[name] = first
        else:
            values[name] = statistics.median(seen)
    values.update({step: statistics.median(s.get(step, 0.0) for s in setups) for step in SETUP_STEPS})
    values["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in plain
    )
    missing = set().union(*(p["missing"] for p in traced))
    for digest in sorted({p["digest"] for p in traced if p["digest"]}):
        print(f"request digest: {digest}")
    if missing:
        print(f"absent (name not found): {', '.join(sorted(missing))}", file=sys.stderr)
    result["metrics"] = {
        name: {"value": None if span in missing else values[name], "unit": unit}
        for name, unit, _, span in PER_LAYER
    }
    return result


def _lower_bound(record: dict) -> float:
    """Latency lower bound of a pass: max(sum of stub delays / in flight, longest
    per-document delay chain). A pass with no backend latency is bounded only by
    the client's own CPU time."""
    stub = record["stub"]
    if stub:
        return max(stub["delay_s"] / MAX_IN_FLIGHT, stub["chain_max_s"])
    return record["cpu"]


def _end_to_end(workload, passes: list[dict], setups: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "items_per_s": statistics.median(workload.items / p["wall"] for p in passes),
        "wall_over_bound": statistics.median(p["wall"] / _lower_bound(p) for p in passes),
        "cpu_ms_per_item": statistics.median(p["cpu"] * 1e3 / workload.items for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": statistics.median(p["failed_frac"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed cycles run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes, for the harness's own tests")
    args = parser.parse_args(argv)

    use_source_tree()
    # A terminated run still stops the stub and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Talk only to the local stub: no endpoint override, no proxy.
    for name in ("PHENOKG_ENDPOINT_URL", "PHENOKG_API_KEY"):
        os.environ.pop(name, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    from workloads import BY_NAME

    work = BUILD_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    stub = None
    try:
        generate = [sys.executable, str(HERE / "inputs.py"), args.workload, str(args.seed), str(work)]
        subprocess.run(generate + (["--smoke"] if args.smoke else []), check=True, timeout=600)
        if args.workload == "extract-dynamic":
            stub = Stub(work / "plan.json")
        workload = BY_NAME[args.workload](work, read_json(work / "expected.json"), stub.endpoint if stub else None)
        trace_path = BUILD_DIR / "traces" / f"{args.workload}-s{args.seed}.spans.jsonl"
        result = measure(workload, stub, args.seconds, bool(args.trace), trace_path)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
