#!/usr/bin/env python3
"""wifimob benchmark: seeded workloads, timed end to end, traced per layer.

Usage, from the root of a checkout::

    python3 wifibench/run.py --workload grid_30d --seed 1 --seconds 30 --trace 0

Each pass runs as a fresh process (``one_pass.py``) that builds the
workload's world, runs it with the training samples ``--seed`` draws, checks
the outputs and prints a record (see ``workloads.json``). Passes repeat until ``--seconds`` have gone by, with at least two, so
that the digests of two passes can be compared. With ``--trace 0`` every
pass is untraced and the end-to-end metrics of BENCHMARK.json are reported
as medians over passes. With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics come from the traced passes, and
``trace.overhead_frac`` compares the two kinds.

A human-readable table goes to standard error, a detailed report (digests,
input sizes, every pass) to standard output, and the last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; no pass starts that could not finish by this
HARD_LIMIT_S = 165.0
MIN_PASSES = 2
OPS = {"grid_30d": 18, "cli_3d": 4}
CMD_METRICS = ("locate", "reconstruct", "coverage", "experiment")


def run_one(workload: str, seed: int, traced: bool, index: int, timeout: float) -> dict:
    """One pass in a fresh interpreter; a crash or timeout fails all its operations."""
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        why = f"pass exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        why = f"pass timed out after {timeout:.0f} s"
    return {"traced": traced, "ops": OPS[workload], "failed": ["pass"] * OPS[workload],
            "notes": [why], "crashed": True}


def counters(layers: dict) -> dict:
    """The per-layer values that are counts, which must repeat exactly."""
    return {k: v for k, v in layers.items() if not k.endswith(("_s", "_mb", "us_per_line"))}


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def summarize(records: list[dict], decl: dict, trace: bool) -> tuple[dict, int, int, list]:
    """Metrics named in BENCHMARK.json, plus attempted and failed operation counts."""
    problems = [n for r in records for n in r["notes"]]
    attempted = sum(r["ops"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    done = [r for r in records if not r.get("crashed")]
    digests = {r["digest"] for r in done}
    if len(digests) > 1:
        # every pass of one seed must produce the same outputs
        failed += len(done) - max(sum(r["digest"] == d for r in done) for d in digests)
        problems.append(f"digests differ between passes: {sorted(digests)}")
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]

    if not trace:
        if not plain:
            return {}, attempted, max(failed, 1), problems
        run_s = median_of(plain, "run_s")
        values = {
            "setup_s": median_of(done, "setup_s"),
            "run_s": run_s,
            "scans_per_s": plain[0]["sizes"]["scans"] / run_s,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        names = decl["end_to_end"]
    else:
        if not plain or not traced:
            return {}, attempted, max(failed, 1), problems
        counts = [counters(r["layers"]) for r in traced]
        if any(c != counts[0] for c in counts):
            failed += 1
            problems.append("per-layer counts differ between traced passes")
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        for cmd in CMD_METRICS:
            times = [r["cmd_s"][cmd] for r in plain if cmd in r["cmd_s"]]
            values[f"cmd.{cmd}_s"] = statistics.median(times) if times else 0.0
        plain_run = median_of(plain, "run_s")
        values["trace.overhead_frac"] = (median_of(traced, "run_s") - plain_run) / plain_run
        values["failed_frac"] = failed / attempted
        names = decl["per_layer"]

    declared = {m["name"]: m["unit"] for m in names}
    if set(declared) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                           "are not both declared in BENCHMARK.json and measured")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    return metrics, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "wifimob" / "__init__.py").is_file():
        print(f"error: no wifimob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    decl = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = time.perf_counter()
    records: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if records and elapsed + longest > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(records) % 2 == 1
        p0 = time.perf_counter()
        records.append(run_one(args.workload, args.seed, traced, len(records),
                               timeout=max(HARD_LIMIT_S - elapsed, 10.0)))
        longest = max(longest, time.perf_counter() - p0)

    metrics, attempted, failed, problems = summarize(records, decl, bool(args.trace))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:16.6g} {m['unit']}", file=sys.stderr)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        "spans": next((r["spans"] for r in records if r.get("spans")), {}),
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
