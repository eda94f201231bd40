#!/usr/bin/env python3
"""The paper's grid on one seeded world, with every stage timed.

Builds the world, its experiment data, full router database and each user's
greedy top 5 and top 20 routers, then runs the 18 cells of
``experiments.paper_grid`` (initial period 7/28 days, random fraction
f_daily/4 f_daily, top routers 5/20, x 3 sharing scenarios), printing each
cell's mean coverage to stderr, then the binned timeline of every scan.
Last, it times the file route on the benchmark's ``cli_3d`` world (seed 7,
2 users x 3 days, whatever --seed/--users/--days say): writing its JSONL
files to a temporary directory and ingesting them.

Writes ``experiment_grid.csv``, ``histograms.csv`` and one coverage-vs-day
plot per strategy to --out. Its last stdout line is one JSON record: per
stage, its wall time in seconds, and once it ended, the process's current
resident size (``rss_mb``, from ``/proc/self/statm``; null where that file
is missing) next to its ``ru_maxrss`` high-water mark, both in MiB. The gap
between the two shows the memory each stage leaves resident.

Usage: python scripts/run_study.py [--out results/grid] [--seed 7] [--users 30] [--days 30]
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wifimob.experiments import (
    paper_grid,
    prepare_experiment_data,
    run_experiment,
    write_coverage_plots,
    write_experiment_grid_csv,
    write_histograms_csv,
)
from wifimob.reconstructor import build_timeline
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays, write_dataset
from wifimob.trace_model import ingest_arrays


def rss_mb():
    """The process's resident size in MiB now, or None without /proc."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return None
    return round(pages * os.sysconf("SC_PAGE_SIZE") / 2**20, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/grid")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--users", type=int, default=30)
    parser.add_argument("--days", type=int, default=30)
    args = parser.parse_args()

    stages = []

    def timed(name, fn, *fn_args):
        t0 = time.perf_counter()
        result = fn(*fn_args)
        stages.append({
            "stage": name,
            "s": round(time.perf_counter() - t0, 4),
            "rss_mb": rss_mb(),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        })
        return result

    spec = WorldSpec(seed=args.seed, n_users=args.users, n_days=args.days)
    gt = timed("generate_world", generate_world, spec)
    arrays = timed("simulate_sensor_arrays", simulate_sensor_arrays, gt, spec)
    data = timed("prepare_experiment_data", prepare_experiment_data, arrays)
    db = timed("full_database()", data.full_database)
    for k in (5, 20):
        timed(f"top_router_selections({k})", data.top_router_selections, k)

    results = []
    for strategy, scenario in paper_grid(data, args.days, seed=1):
        name, param = strategy.label()
        res = timed(f"{name}({param})x{scenario.value}", run_experiment, data, strategy, scenario)
        results.append(res)
        print(f"  {name}({param}) x {scenario.value}: "
              f"mean coverage {res.summary['mean_coverage']:.3f}", file=sys.stderr)
    timed("build_timeline", build_timeline, arrays, db)

    file_spec = WorldSpec(seed=7, n_users=2, n_days=3)
    file_gt = generate_world(file_spec)
    file_arrays = simulate_sensor_arrays(file_gt, file_spec)
    with tempfile.TemporaryDirectory() as tmp:
        timed("write_dataset(2x3)", write_dataset, file_gt, file_arrays, tmp)
        timed("ingest_arrays(2x3)", ingest_arrays, f"{tmp}/gps.jsonl", f"{tmp}/wifi.jsonl")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_experiment_grid_csv(results, out / "experiment_grid.csv")
    write_histograms_csv(results, out / "histograms.csv")
    write_coverage_plots(results, out)
    print(f"wrote {out}/experiment_grid.csv, histograms.csv, and plots", file=sys.stderr)
    print(json.dumps({"users": args.users, "days": args.days, "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
