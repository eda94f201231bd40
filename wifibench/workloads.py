"""The benchmark workloads: set-up, one timed pass, and its checks.

Each workload builds a synthetic world (the program receives only the
generated inputs), runs it through the public entry points a user calls,
and then checks the outputs against properties the repository already
asserts. An *operation* is one grid cell or one CLI subcommand; it fails
when it raises, exits non-zero, or fails a correctness check.

``grid_30d``        the paper's headline grid on the columnar route; locating
                    is DBSCAN-heavy, ingest and reconstruction are bypassed.
``cli_3d``          the file route through ``wifimob.cli.main``; ingest
                    dominates, and it is the only reconstruction workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wifimob import cli, experiments, synthgen
from wifimob.ap_locator import ApClass, haversine_m
from wifimob.coverage_metrics import DAY_MS, DEFAULT_BIN_MS
from wifimob.experiments import (
    ExperimentConfig,
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
)

# Every workload runs on the reference world of the acceptance tests and the
# ROADMAP baseline (WorldSpec seed 7). The benchmark's --seed drives the
# random draws each workload makes on it (the RandomFraction training
# samples). Drawing a new world per seed made the work itself swing up to
# twofold between seeds (campus density, DBSCAN fast path), far beyond any
# bound a regression gate can use.
WORLD_SEED = 7

SETUP_MIN_S = 0.5

# (users, days) of each workload's world; tests pass a tiny size instead
SIZES = {
    "grid_30d": (30, 30),
    "cli_3d": (2, 3),
}


@dataclass
class PassOutcome:
    """What one pass did; times in seconds, everything else exact."""

    ops: list[str]
    failed: set[str] = field(default_factory=set)
    setup_s: float = 0.0
    run_s: float = 0.0
    cmd_s: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    sizes: dict[str, int] = field(default_factory=dict)
    bytes_written: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, op: str, why: str) -> None:
        self.failed.add(op)
        self.notes.append(f"{op}: {why}")


def _world(users: int, days: int):
    spec = synthgen.WorldSpec(seed=WORLD_SEED, n_users=users, n_days=days)
    gt = synthgen.generate_world(spec)
    arrays = synthgen.simulate_sensor_arrays(gt, spec)
    return gt, arrays


def _set_up(make):
    """Repeat the set-up until it has taken SETUP_MIN_S, at least once.

    Returns the last result and the median duration. A short set-up timed
    once is dominated by the cold start of a fresh process, which made
    cli_3d's set-up time flip between two values almost twofold apart.
    """
    times = []
    while True:
        result = None  # free the previous world before building the next
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
        if sum(times) >= SETUP_MIN_S:
            return result, statistics.median(times)


def _sizes(arrays, data) -> dict[str, int]:
    return {
        "scans": arrays.n_scans,
        "sightings": int(arrays.scan_ap.size),
        "fixes": int(arrays.fix_ts.size),
        "paired_obs": data.pairs.count(),
        "routers": int(np.unique(arrays.scan_ap).size),
        "presence_triples": int(data.table.pres_user.size),
    }


def _cell_name(strategy, scenario) -> str:
    name, param = strategy.label()
    return f"{name}({param})x{scenario.value}"


def _results_digest(results) -> str:
    """Canonical dump of every cell's per-user-day coverage and histograms."""
    h = hashlib.sha256()
    for res in results:
        h.update(f"{_cell_name(res.strategy, res.scenario)}\n".encode())
        for (user, day), cov in sorted(res.coverage.per_user_day.items()):
            h.update(f"{user},{day},{cov!r}\n".encode())
        for day in sorted(res.histograms):
            h.update(f"hist {day} {res.histograms[day]}\n".encode())
    return h.hexdigest()


def _run_cells(out: PassOutcome, data, cells, cfg) -> dict:
    results = {}
    for strategy, scenario in cells:
        op = _cell_name(strategy, scenario)
        try:
            results[op] = experiments.run_experiment(data, strategy, scenario, cfg)
        except Exception as exc:  # an operation that raises is a failed operation
            out.fail(op, f"raised {exc!r}")
    return results


def _check_unit_range(out: PassOutcome, results: dict) -> None:
    for op, res in results.items():
        bad = [v for v in res.coverage.per_user_day.values() if not 0.0 <= v <= 1.0]
        if bad:
            out.fail(op, f"{len(bad)} coverage values outside [0, 1]")


def _stop(tracer) -> None:
    """End tracing before the checks, whose calls are not part of the pass."""
    if tracer is not None:
        tracer.uninstall()


# -- grid_30d -----------------------------------------------------------------


def grid_pass(seed: int, users: int, days: int, tracer=None) -> PassOutcome:
    (gt, arrays), setup_s = _set_up(lambda: _world(users, days))
    t1 = time.perf_counter()

    data = experiments.prepare_experiment_data(arrays)
    f_daily = users * days / data.pairs.n_events()
    strategies = [
        InitialPeriod(days=7),
        InitialPeriod(days=28),
        RandomFraction(f=f_daily, seed=seed),
        RandomFraction(f=4 * f_daily, seed=seed),
        TopRouters(k=5),
        TopRouters(k=20),
    ]
    cells = [(s, sc) for s in strategies for sc in Scenario]
    out = PassOutcome(ops=[_cell_name(s, sc) for s, sc in cells])
    results = _run_cells(out, data, cells, ExperimentConfig())
    t2 = time.perf_counter()
    _stop(tracer)
    out.setup_s, out.run_s = setup_s, t2 - t1

    _check_unit_range(out, results)
    # scenario dominance, exact per user-day (acceptance criterion 5)
    for strategy in strategies:
        names = {sc: _cell_name(strategy, sc) for sc in Scenario}
        g = results.get(names[Scenario.GLOBAL])
        for sc in (Scenario.PERSONAL, Scenario.GLOBAL_EXCLUDING_SELF):
            o = results.get(names[sc])
            if g is None or o is None:
                continue
            go, oo = g.coverage.per_user_day, o.coverage.per_user_day
            if set(go) != set(oo) or any(go[k] < v for k, v in oo.items()):
                out.fail(names[sc], "coverage above the GLOBAL scenario's")
    # static-router error against ground truth (acceptance criterion 3)
    top_ops = [op for op in out.ops if op.startswith("top(")]
    if not out.failed.intersection(top_ops):
        why = _static_error_problem(gt, data)
        if why:
            for op in top_ops:
                out.fail(op, why)

    out.digest = _results_digest(results.values())
    out.sizes = _sizes(arrays, data)
    return out


def _static_error_problem(gt, data) -> str:
    db = data.full_database()
    sightings = np.bincount(data.pairs.ap, minlength=data.table.n_aps)
    truth = gt.static_positions()
    eligible = [b for i, b in enumerate(data.table.bssids) if sightings[i] >= 5 and b in truth]
    errors = []
    for bssid in eligible:
        rec = db.get(bssid)
        if rec is not None and rec.ap_class is ApClass.STATIC:
            errors.append(haversine_m(rec.pos, truth[bssid]))
    good = sum(1 for e in errors if e <= 100.0)
    if not eligible or not errors:
        return "no static router to check"
    frac, median = good / len(eligible), statistics.median(errors)
    if frac < 0.95 or median > 15.0:
        return f"static error: {frac:.3f} within 100 m (>= 0.95), median {median:.1f} m (<= 15)"
    return ""


# -- cli_3d -------------------------------------------------------------------

_INGEST_LINE = re.compile(r"(\d+) parsed, (\d+) malformed")


def cli_pass(seed: int, users: int, days: int, workdir: Path, tracer=None) -> PassOutcome:
    data_dir, out_dir = workdir / "data", workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    gps, wifi = str(data_dir / "gps.jsonl"), str(data_dir / "wifi.jsonl")
    o = {name: str(out_dir / name) for name in
         ("apdb.csv", "timeline.csv", "coverage.csv", "users.csv", "entropy.csv", "grid")}

    def make():
        gt, arrays = _world(users, days)
        synthgen.write_dataset(gt, arrays, data_dir)
        return arrays

    arrays, setup_s = _set_up(make)
    t1 = time.perf_counter()

    src = ["--gps", gps, "--wifi", wifi]
    commands = [
        ("locate", src + ["--out", o["apdb.csv"]], [o["apdb.csv"]]),
        ("reconstruct", src + ["--apdb", o["apdb.csv"], "--out", o["timeline.csv"]],
         [o["timeline.csv"]]),
        ("coverage", src + ["--apdb", o["apdb.csv"], "--out", o["coverage.csv"],
                            "--users-out", o["users.csv"], "--entropy-out", o["entropy.csv"]],
         [o["coverage.csv"], o["users.csv"], o["entropy.csv"]]),
        ("experiment", src + ["--out-dir", o["grid"], "--seed", str(seed)],
         [o["grid"] + "/experiment_grid.csv", o["grid"] + "/histograms.csv"]),
    ]
    out = PassOutcome(ops=[name for name, _, _ in commands])
    stderr_of = {}
    for name, args, _ in commands:
        main = cli.main if tracer is None else tracer.span(f"cmd.{name}", cli.main)
        err = io.StringIO()
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = main([name] + args)
        except Exception as exc:  # an operation that raises is a failed operation
            code = f"raised {exc!r}"
        out.cmd_s[name] = time.perf_counter() - c0
        stderr_of[name] = err.getvalue()
        if code != 0:
            out.fail(name, f"exit {code}: {err.getvalue()[-300:]}")
    t2 = time.perf_counter()
    _stop(tracer)
    out.setup_s, out.run_s = setup_s, t2 - t1
    out.sizes = _sizes(arrays, experiments.prepare_experiment_data(arrays))

    for name, _, outputs in commands:
        if name in out.failed:
            continue
        counts = _INGEST_LINE.findall(stderr_of[name])
        if len(counts) != 2 or any(int(m) for _, m in counts):
            out.fail(name, f"ingest report {counts}: want two files, 0 malformed")
        missing = [p for p in outputs if not Path(p).is_file()]
        if missing:
            out.fail(name, f"missing outputs {missing}")
    if out.failed:
        return out

    _check_cli_outputs(out, arrays, o)
    outputs = [p for _, _, files in commands for p in files]
    out.bytes_written = sum(Path(p).stat().st_size for p in outputs)
    h = hashlib.sha256()
    for p in outputs:
        h.update(Path(p).name.encode() + b"\n" + Path(p).read_bytes())
    out.digest = h.hexdigest()
    return out


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_cli_outputs(out: PassOutcome, arrays, o: dict) -> None:
    # timeline.csv: exactly one row per (user, bin) holding any scan
    timeline = _read_rows(o["timeline.csv"])
    want = {
        (arrays.user_ids[u], int(b))
        for u, b in zip(arrays.scan_user, arrays.scan_ts // DEFAULT_BIN_MS)
    }
    got = [(r["user"], int(r["bin_index"])) for r in timeline]
    if len(got) != len(set(got)) or set(got) != want:
        out.fail("reconstruct", f"timeline has {len(got)} rows for {len(want)} bins with data")

    # coverage.csv: daily means recomputed exactly from timeline.csv, in the
    # order cmd_coverage sums them (per-user fractions, by user)
    per_user_day: dict[tuple[str, int], list[int]] = {}
    for r in timeline:
        key = (r["user"], int(r["bin_start_ms"]) // DAY_MS)
        n = per_user_day.setdefault(key, [0, 0])
        n[0] += 1
        n[1] += bool(r["lat"])
    by_day: dict[int, list[float]] = {}
    for (user, day), (n_data, n_cov) in sorted(per_user_day.items()):
        by_day.setdefault(day, []).append(n_cov / n_data)
    expect = [(str(day), repr(sum(v) / len(v)), str(len(v))) for day, v in sorted(by_day.items())]
    coverage = [(r["day_index"], r["mean_coverage"], r["n_users"]) for r in _read_rows(o["coverage.csv"])]
    if coverage != expect:
        out.fail("coverage", "coverage.csv does not recompute from timeline.csv")

    values = [float(r["coverage"]) for r in _read_rows(o["users.csv"])]
    values += [float(r["mean_coverage"]) for r in _read_rows(o["coverage.csv"])]
    if any(not 0.0 <= v <= 1.0 for v in values):
        out.fail("coverage", "coverage value outside [0, 1]")
    grid = [float(r["mean_coverage"]) for r in _read_rows(o["grid"] + "/experiment_grid.csv")]
    if not grid or any(not 0.0 <= v <= 1.0 for v in grid):
        out.fail("experiment", "grid coverage missing or outside [0, 1]")
