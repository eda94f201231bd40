"""Command-line pipeline: synth, locate, reconstruct, coverage, experiment, evaluate.

Every subcommand is deterministic given its flags and inputs. Diagnostics go
to stderr, data products to files; exit code 0 means no hard errors.

A config file (``--config``) holds flat ``key=value`` lines with ``#``
comments; keys mirror the field names of the world, pairing, and locator
configs. Unknown keys are hard errors, and explicit flags win over file
values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import synthgen
from .ap_locator import (
    ApClass,
    LocatorConfig,
    build_database,
    haversine_m,
    read_apdb_csv,
    write_apdb_csv,
)
from .coverage_metrics import daily_population_mean, entropy_bits
from .experiments import (
    ExperimentConfig,
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    prepare_experiment_data,
    run_experiment,
    write_coverage_plots,
    write_experiment_grid_csv,
    write_histograms_csv,
)
from .pairing import PairingConfig, pair_arrays, write_pairs_csv
from .reconstructor import (
    build_timeline,
    read_timeline_csv,
    timeline_coverage,
    write_timeline_csv,
)
# ingest_traces_verbose, the record-route twin of ingest_arrays, stays
# importable here for code that wraps or compares the CLI's ingest
from .trace_model import GeoPoint, TraceError, ingest_arrays, ingest_traces_verbose  # noqa: F401


class CliError(Exception):
    pass


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_CONFIG_CLASSES = (synthgen.WorldSpec, LocatorConfig, PairingConfig)


def _tuples(value):
    """A JSON value with every list, flat or nested, turned into a tuple."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _coerce(name: str, text: str, default):
    if name == "density_weights":
        return _tuples(json.loads(text))
    if name == "routine_change_day":
        return None if text.lower() in ("", "none") else int(text)
    if name == "max_accuracy_m":
        return None if text.lower() in ("", "none") else float(text)
    if isinstance(default, bool):
        return text.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        parts = [p for p in text.split(",") if p.strip()]
        cast = float if any("." in p for p in parts) else int
        return tuple(cast(p) for p in parts)
    return text


def _split_config(values: dict[str, str]):
    """Partition config keys across the config dataclasses; reject strays."""
    out = {cls: {} for cls in _CONFIG_CLASSES}
    for key, text in values.items():
        hit = False
        for cls in _CONFIG_CLASSES:
            for f in fields(cls):
                if f.name == key:
                    out[cls][key] = _coerce(key, text, f.default)
                    hit = True
        if not hit:
            raise CliError(f"unknown config key: {key}")
    return out


def _world_spec(args, cfg_values) -> synthgen.WorldSpec:
    spec = synthgen.WorldSpec(**cfg_values.get(synthgen.WorldSpec, {}))
    overrides = {}
    if getattr(args, "users", None) is not None:
        overrides["n_users"] = args.users
    if getattr(args, "days", None) is not None:
        overrides["n_days"] = args.days
    seed = getattr(args, "seed", None)
    if seed is not None:
        overrides["seed"] = seed
    if getattr(args, "scan_period", None) is not None:
        overrides["wifi_scan_period_s"] = args.scan_period
    if getattr(args, "routine_change_day", None) is not None:
        overrides["routine_change_day"] = args.routine_change_day
    if overrides:
        spec = replace(spec, **overrides)
    return spec


def _locator_config(args, cfg_values) -> LocatorConfig:
    return LocatorConfig(**cfg_values.get(LocatorConfig, {}))


def _pairing_config(args, cfg_values) -> PairingConfig:
    return PairingConfig(**cfg_values.get(PairingConfig, {}))


def _ingest(gps: str, wifi: str):
    arrays, report = ingest_arrays(gps, wifi)
    print(report.summary(), file=sys.stderr)
    for msg in report.gps.first_errors + report.wifi.first_errors:
        print(f"  {msg}", file=sys.stderr)
    return arrays


def cmd_synth(args, cfg_values) -> int:
    spec = _world_spec(args, cfg_values)
    if spec.n_users < 1:
        raise CliError("--users must be at least 1")
    gt = synthgen.generate_world(spec)
    arrays = synthgen.simulate_sensor_arrays(gt, spec)
    counts = synthgen.write_dataset(gt, arrays, args.out)
    print(
        "synth: {users} users x {days} days; {static_aps} static APs, "
        "{mobile_aps} mobile; {gps_fixes} fixes, {wifi_scans} scans -> {out}".format(
            out=args.out, **counts
        ),
        file=sys.stderr,
    )
    return 0


def cmd_locate(args, cfg_values) -> int:
    arrays = _ingest(args.gps, args.wifi)
    pairing_cfg = _pairing_config(args, cfg_values)
    locator_cfg = _locator_config(args, cfg_values)
    pairs = pair_arrays(arrays, pairing_cfg)
    if args.dump_pairs:
        write_pairs_csv(pairs, arrays.user_ids, arrays.bssids, args.dump_pairs)
    db = build_database(pairs, arrays.user_ids, arrays.bssids, locator_cfg)
    write_apdb_csv(db, args.out)
    census = db.census()
    located = census["static"] + census["relocated"]
    print(
        f"routers: {census['total']} total / {located} located "
        f"({census['static']} static, {census['relocated']} relocated) / "
        f"{census['mobile']} mobile / {census['insufficient']} insufficient",
        file=sys.stderr,
    )
    return 0


def cmd_reconstruct(args, cfg_values) -> int:
    arrays = _ingest(args.gps, args.wifi)
    db = read_apdb_csv(args.apdb)
    timelines = build_timeline(arrays, db)
    write_timeline_csv(timelines, args.out)
    estimated = sum(len(tl.bins) for tl in timelines.values())
    with_data = sum(len(tl.bins_with_data) for tl in timelines.values())
    print(f"timeline: {estimated}/{with_data} bins estimated", file=sys.stderr)
    return 0


def cmd_coverage(args, cfg_values) -> int:
    arrays = _ingest(args.gps, args.wifi)
    db = read_apdb_csv(args.apdb)
    timelines = build_timeline(arrays, db)
    series = timeline_coverage(timelines)
    with Path(args.out).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["day_index", "scenario", "strategy", "param", "mean_coverage", "n_users"])
        for day in series.days():
            mean = daily_population_mean(series, day)
            writer.writerow(
                [day, "full", "none", "", repr(mean), len(series.day_values(day))]
            )
    if args.users_out:
        with Path(args.users_out).open("w", encoding="utf-8", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(["user", "day_index", "coverage"])
            for (user, day), cov in sorted(series.per_user_day.items()):
                writer.writerow([user, day, repr(cov)])
    if args.entropy_out:
        # each estimated bin is labeled by its first support router
        table = db.router_table(arrays.bssids)
        index = {bssid: i for i, bssid in enumerate(arrays.bssids)}
        with Path(args.entropy_out).open("w", encoding="utf-8", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(["user", "entropy_bits", "labeled_bins"])
            for user in sorted(timelines):
                tl = timelines[user]
                router = np.array([index[b] for b in tl.first_support.tolist()], dtype=np.int64)
                labels = [x for x in table.labels(router, tl.ts, arrays.bssids) if x is not None]
                h = entropy_bits(labels)
                writer.writerow([user, "" if h is None else repr(h), len(labels)])
    return 0


_STRATEGY_CHOICES = ("initial", "random", "top")
_SCENARIO_OF = {
    "global": Scenario.GLOBAL,
    "personal": Scenario.PERSONAL,
    "global_no_personal": Scenario.GLOBAL_EXCLUDING_SELF,
}


def _experiment_cells(args):
    strategies = []
    names = _STRATEGY_CHOICES if args.strategy == "all" else (args.strategy,)
    for name in names:
        if name == "initial":
            for days in args.days_list:
                strategies.append(InitialPeriod(days=days))
        elif name == "random":
            for f in args.fraction_list:
                strategies.append(RandomFraction(f=f, seed=getattr(args, "seed", None) or 0))
        else:
            for k in args.k_list:
                strategies.append(TopRouters(k=k))
    scenario_names = (
        tuple(_SCENARIO_OF) if args.scenario == "all" else (args.scenario,)
    )
    return [(s, _SCENARIO_OF[name]) for s in strategies for name in scenario_names]


def cmd_experiment(args, cfg_values) -> int:
    arrays = _ingest(args.gps, args.wifi)
    cfg = ExperimentConfig(
        histogram_days=tuple(args.hist_days),
        known_rule=args.known_rule,
        locator=_locator_config(args, cfg_values),
        pairing=_pairing_config(args, cfg_values),
    )
    data = prepare_experiment_data(arrays, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for strategy, scenario in _experiment_cells(args):
        res = run_experiment(data, strategy, scenario, cfg)
        results.append(res)
        name, param = strategy.label()
        print(
            f"experiment {name}({param}) x {scenario.value}: "
            f"mean coverage {res.summary['mean_coverage']:.3f}",
            file=sys.stderr,
        )
    write_experiment_grid_csv(results, out_dir / "experiment_grid.csv")
    write_histograms_csv(results, out_dir / "histograms.csv")
    if args.plots:
        write_coverage_plots(results, out_dir)
    return 0


def _percentiles(values, qs=(50, 90, 95)) -> dict[int, float]:
    if not values:
        return {}
    arr = np.array(sorted(values), dtype=np.float64)
    return {q: float(np.percentile(arr, q)) for q in qs}


def cmd_evaluate(args, cfg_values) -> int:
    truth_dir = Path(args.dataset)
    truth_aps_path = truth_dir / "truth_aps.csv"
    truth_pos_path = truth_dir / "truth_positions.csv"
    if not truth_aps_path.exists() or not truth_pos_path.exists():
        raise CliError(f"missing truth files under {truth_dir}")

    truth_class: dict[str, str] = {}
    truth_pos: dict[str, GeoPoint] = {}
    with truth_aps_path.open("r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            truth_class[row["bssid"]] = row["class"]
            if row["lat"]:
                truth_pos[row["bssid"]] = GeoPoint(float(row["lat"]), float(row["lon"]))

    db = read_apdb_csv(args.apdb)

    confusion: dict[tuple[str, str], int] = {}
    errors_m = []
    for bssid in sorted(truth_class):
        rec = db.get(bssid)
        predicted = rec.ap_class.value if rec else "absent"
        key = (truth_class[bssid], predicted)
        confusion[key] = confusion.get(key, 0) + 1
        if rec and rec.ap_class is ApClass.STATIC and bssid in truth_pos and rec.pos:
            errors_m.append(haversine_m(truth_pos[bssid], rec.pos))

    print("confusion (truth -> predicted):")
    for (truth, predicted), count in sorted(confusion.items()):
        print(f"  {truth} -> {predicted}: {count}")
    pct = _percentiles(errors_m)
    if pct:
        print(
            "ap position error m: "
            + ", ".join(f"p{q}={pct[q]:.1f}" for q in sorted(pct))
            + f" (n={len(errors_m)})"
        )

    if args.timeline:
        truth_track: dict[tuple[str, int], tuple[float, float]] = {}
        with truth_pos_path.open("r", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                truth_track[(row["user"], int(row["ts_ms"]))] = (float(row["lat"]), float(row["lon"]))
        timelines = read_timeline_csv(args.timeline)
        bin_errors = []
        for user, tl in sorted(timelines.items()):
            for ts, lat, lon in zip(tl.ts.tolist(), tl.lat.tolist(), tl.lon.tolist()):
                # truth between the minutes either side of ts; the earlier's if the later has none
                floor = ts - ts % 60_000
                before = truth_track.get((user, floor))
                if before is not None:
                    after = truth_track.get((user, floor + 60_000), before)
                    w = (ts - floor) / 60_000
                    truth = GeoPoint(*(a + w * (b - a) for a, b in zip(before, after)))
                    bin_errors.append(haversine_m(truth, GeoPoint(lat, lon)))
        pct = _percentiles(bin_errors)
        print(f"estimated bins: {sum(tl.bins.size for tl in timelines.values())}")
        if pct:
            print(
                "bin position error m: "
                + ", ".join(f"p{q}={pct[q]:.1f}" for q in sorted(pct))
                + f" (n={len(bin_errors)})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed override")

    parser = argparse.ArgumentParser(
        prog="wifimob",
        description="WiFi access-point geolocation and mobility reconstruction",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[shared])

    p = add_command("synth", "generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--scan-period", dest="scan_period", type=float)
    p.add_argument("--routine-change-day", dest="routine_change_day", type=int)
    p.set_defaults(func=cmd_synth)

    p = add_command("locate", "build the access-point database")
    p.add_argument("--gps", required=True)
    p.add_argument("--wifi", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-pairs")
    p.set_defaults(func=cmd_locate)

    p = add_command("reconstruct", "estimate per-bin positions from scans")
    p.add_argument("--gps", required=True)
    p.add_argument("--wifi", required=True)
    p.add_argument("--apdb", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = add_command("coverage", "per-day time coverage from a database")
    p.add_argument("--gps", required=True)
    p.add_argument("--wifi", required=True)
    p.add_argument("--apdb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--users-out", dest="users_out")
    p.add_argument("--entropy-out", dest="entropy_out")
    p.set_defaults(func=cmd_coverage)

    p = add_command("experiment", "sampling-strategy x scenario grid")
    p.add_argument("--gps", required=True)
    p.add_argument("--wifi", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES + ("all",), default="all")
    p.add_argument("--scenario", choices=tuple(_SCENARIO_OF) + ("all",), default="all")
    p.add_argument("--days", dest="days_list", type=int, nargs="*", default=[7, 28])
    p.add_argument("--fraction", dest="fraction_list", type=float, nargs="*", default=[0.01, 0.1])
    p.add_argument("--k", dest="k_list", type=int, nargs="*", default=[20])
    p.add_argument("--hist-days", dest="hist_days", type=int, nargs="*", default=[7, 80, 190])
    p.add_argument("--known-rule", dest="known_rule", choices=("any_sighting", "classified"), default="any_sighting")
    p.add_argument("--plots", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = add_command("evaluate", "compare outputs against ground truth")
    p.add_argument("--dataset", required=True, help="directory with truth files")
    p.add_argument("--apdb", required=True)
    p.add_argument("--timeline")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_values = _split_config(_read_config(getattr(args, "config", None)))
        return args.func(args, cfg_values)
    except (CliError, TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
