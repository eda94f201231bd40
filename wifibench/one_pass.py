"""One benchmark pass in this process: set up, run, check, report.

``run.py`` starts each pass as a fresh process, so that the reported
``peak_rss_mb`` is that pass's own high-water mark. Run by hand with::

    python3 wifibench/one_pass.py --workload cli_3d --seed 1 --trace 1 --workdir wifibench/_work/manual

The last line of standard output is the pass record as JSON.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer, install_wifimob, rss_hwm_mb  # noqa: E402


def layer_metrics(tracer: Tracer, out: workloads.PassOutcome) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    table = tracer.span_table()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def per_call(name):
        return ratio(total(name), calls(name))

    def self_time(prefix):
        return sum(row["self_s"] for name, row in table.items() if name.startswith(prefix))

    cell_times = sorted(end - start for name, start, end, _ in tracer.spans
                        if name == "experiments.cell")
    lines = c.get("trace_model.lines", 0)
    return {
        "trace_model.ingest_s": total("trace_model.ingest"),
        "trace_model.sort_s": total("trace_model.sort"),
        "trace_model.lines": lines,
        "trace_model.malformed": c.get("trace_model.malformed", 0),
        "trace_model.us_per_line": ratio(total("trace_model.ingest") * 1e6, lines),
        "trace_model.rss_hwm_mb": tracer.peaks.get("trace_model.rss_hwm_mb", 0.0),
        "pairing.pair_s": tracer.outer_time("pairing."),
        "pairing.fixes": c.get("pairing.fixes", 0),
        "pairing.fixes_paired": c.get("pairing.fixes_paired", 0),
        "pairing.paired_frac": ratio(c.get("pairing.fixes_paired", 0), c.get("pairing.fixes", 0)),
        "pairing.observations": c.get("pairing.observations", 0),
        "ap_locator.build_s": total("ap_locator.build"),
        "ap_locator.builds": calls("ap_locator.build"),
        "ap_locator.routers": c.get("ap_locator.routers", 0),
        "ap_locator.located": c.get("ap_locator.located", 0),
        "ap_locator.located_frac": ratio(c.get("ap_locator.located", 0),
                                         c.get("ap_locator.routers", 0)),
        "ap_locator.dbscan_s": total("ap_locator.dbscan"),
        "ap_locator.dbscan_calls": calls("ap_locator.dbscan"),
        "ap_locator.dbscan_points": c.get("ap_locator.dbscan_points", 0),
        "ap_locator.median_s": total("ap_locator.median"),
        "ap_locator.median_calls": calls("ap_locator.median"),
        "ap_locator.median_points": c.get("ap_locator.median_points", 0),
        "ap_locator.classify_self_s": self_time("ap_locator.classify"),
        "reconstructor.timeline_s": total("reconstructor.timeline"),
        "reconstructor.resolve_calls": c.get("reconstructor.resolve_calls", 0),
        "reconstructor.bins_with_data": c.get("reconstructor.bins_with_data", 0),
        "reconstructor.bins_resolved": c.get("reconstructor.bins_resolved", 0),
        "reconstructor.resolve_useful_frac": ratio(c.get("reconstructor.bins_resolved", 0),
                                                   c.get("reconstructor.resolve_calls", 0)),
        "reconstructor.median_s": total("reconstructor.median"),
        "coverage_metrics.user_days": c.get("coverage_metrics.user_days", 0),
        "coverage_metrics.entropy_s": total("coverage_metrics.entropy"),
        "experiments.prepare_s": total("experiments.prepare"),
        "experiments.presence_triples": c.get("experiments.presence_triples", 0),
        "experiments.paired_obs": c.get("experiments.paired_obs", 0),
        "experiments.rss_hwm_mb": tracer.peaks.get("experiments.rss_hwm_mb", 0.0),
        "experiments.full_db_s": total("experiments.full_db"),
        "experiments.paired_records_s": total("experiments.paired_records"),
        "experiments.cell_self_s": self_time("experiments.cell"),
        "experiments.cells": calls("experiments.cell"),
        "experiments.cell_median_s": statistics.median(cell_times) if cell_times else 0.0,
        "experiments.cell_max_s": cell_times[-1] if cell_times else 0.0,
        "cli.self_s": self_time("cmd."),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": out.bytes_written,
        "synthgen.generate_s": per_call("synthgen.generate"),
        "synthgen.simulate_s": per_call("synthgen.simulate"),
        "synthgen.write_s": per_call("synthgen.write"),
        "synthgen.scans": c.get("synthgen.scans", 0),
        "synthgen.sightings": c.get("synthgen.sightings", 0),
        "synthgen.fixes": c.get("synthgen.fixes", 0),
    }


def run_pass(workload: str, seed: int, traced: bool, workdir: Path, size=None) -> dict:
    """Run one pass and return its record; ``size`` overrides (users, days)."""
    users, days = size or workloads.SIZES[workload]
    tracer = Tracer() if traced else None
    if tracer is not None:
        install_wifimob(tracer)
    try:
        if workload == "grid_30d":
            out = workloads.grid_pass(seed, users, days, tracer)
        elif workload == "cli_3d":
            out = workloads.cli_pass(seed, users, days, workdir, tracer)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": out.setup_s,
        "run_s": out.run_s,
        "peak_rss_mb": rss_hwm_mb(),
        "ops": len(out.ops),
        "failed": sorted(out.failed),
        "notes": out.notes,
        "cmd_s": out.cmd_s,
        "digest": out.digest,
        "sizes": out.sizes,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, out)
        record["spans"] = tracer.span_table()
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    try:
        record = run_pass(args.workload, args.seed, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
