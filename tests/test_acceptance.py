"""Shipping gate: every numbered criterion measured at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Population-scale checks run against the session-cached default
world (30 users, 30 days, roughly 3000 static access points); the long-run
decline check uses a 200-day, 12-user world with a routine change injected
at day 90.
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_dbscan, exhaustive_max_coverage, grid_search_median, latlon
from wifimob.ap_locator import ApClass, build_database, dbscan, geometric_median, haversine_m
from wifimob.cli import main as cli_main
from wifimob.coverage_metrics import entropy_bits, time_coverage
from wifimob.experiments import (
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    prepare_experiment_data,
    run_experiment,
    stability_decline,
)
from wifimob.synthgen import density_count_r2
from wifimob.trace_model import GeoPoint


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_worked_coverage_example():
    t0 = time.perf_counter()
    value = time_coverage(100, 80)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    _report(
        1,
        "worked coverage example",
        value == 0.80 and elapsed_ms < 1.0,
        f"time_coverage(100, 80) = {value!r} in {elapsed_ms:.3f} ms",
    )


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-0.01, 0.01, size=(k, 2)) + [55.7, 12.5]
        pts = []
        for i in range(n):
            c = centers[int(rng.integers(0, k))]
            scale = float(rng.choice([0.0002, 0.001, 0.004]))
            pts.append(GeoPoint(c[0] + rng.normal(0, scale), c[1] + rng.normal(0, scale)))
        eps = float(rng.choice([50.0, 100.0, 200.0]))
        min_pts = int(rng.integers(2, 8))
        lat, lon = latlon(pts)
        if dbscan(lat, lon, eps, min_pts) != brute_dbscan(lat, lon, eps, min_pts):
            mismatches += 1

    worst_median = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        # points scattered over a few-hundred-meter patch
        radius = rng.uniform(0, 300, size=n)
        theta = rng.uniform(0, 2 * math.pi, size=n)
        pts = [
            GeoPoint(
                55.7 + r * math.sin(t) / 111194.9266,
                12.5 + r * math.cos(t) / (111194.9266 * math.cos(math.radians(55.7))),
            )
            for r, t in zip(radius, theta)
        ]
        diff = haversine_m(geometric_median(*latlon(pts)), grid_search_median(pts))
        worst_median = max(worst_median, diff)

    elapsed = time.perf_counter() - t0
    _report(
        2,
        "clustering and median oracles",
        mismatches == 0 and worst_median < 1.0 and elapsed < 10.0,
        f"dbscan mismatches 0/100 required, got {mismatches}; "
        f"median worst diff {worst_median:.3f} m (<1 m); {elapsed:.1f} s (<10 s)",
    )


@pytest.fixture(scope="module")
def localization(default_world):
    """Fresh pairing + classification on the default world, timed."""
    _, gt, arrays = default_world
    t0 = time.perf_counter()
    data = prepare_experiment_data(arrays)
    db = build_database(data.pairs, data.table.user_ids, data.table.bssids)
    elapsed = time.perf_counter() - t0
    counts = np.bincount(data.pairs.ap, minlength=data.table.n_aps).tolist()
    sightings = {b: n for b, n in zip(data.table.bssids, counts) if n}
    return gt, data, db, sightings, elapsed


def test_criterion_03_static_localization(localization):
    gt, _, db, sightings, elapsed = localization
    static_pos = gt.static_positions()
    eligible = [b for b, n in sightings.items() if n >= 5 and b in static_pos]
    errors = []
    good = 0
    for bssid in eligible:
        rec = db.get(bssid)
        if rec is not None and rec.ap_class is ApClass.STATIC:
            err = haversine_m(rec.pos, static_pos[bssid])
            errors.append(err)
            if err <= 100.0:
                good += 1
    frac = good / len(eligible)
    median_err = float(np.median(errors))
    _report(
        3,
        "static localization",
        frac >= 0.95 and median_err <= 15.0 and elapsed <= 60.0,
        f"{good}/{len(eligible)} = {frac:.3f} static within 100 m (>=0.95); "
        f"median error {median_err:.1f} m (<=15); localization took {elapsed:.1f} s (<=60)",
    )


def test_criterion_04_mobile_detection(localization):
    gt, _, db, sightings, _ = localization
    labels = {gt.bssid(m.ap_id): m.ssid for m in gt.mobile_aps}
    eligible_mobile = [b for b in labels if sightings.get(b, 0) >= 5]
    caught = sum(
        1 for b in eligible_mobile if db.get(b) and db.get(b).ap_class is ApClass.MOBILE
    )
    recall = caught / len(eligible_mobile)

    static_pos = gt.static_positions()
    eligible_static = [b for b, n in sightings.items() if n >= 5 and b in static_pos]
    static_as_mobile = sum(
        1 for b in eligible_static if db.get(b) and db.get(b).ap_class is ApClass.MOBILE
    )
    false_rate = static_as_mobile / len(eligible_static)
    _report(
        4,
        "mobile detection",
        recall >= 0.90 and false_rate <= 0.05,
        f"mobile recall {caught}/{len(eligible_mobile)} = {recall:.3f} (>=0.90); "
        f"static flagged mobile {static_as_mobile}/{len(eligible_static)} = {false_rate:.3f} (<=0.05)",
    )


def test_criterion_05_scenario_dominance(localization):
    _, data, _, _, _ = localization
    strategies = (
        InitialPeriod(days=7),
        RandomFraction(f=0.06, seed=42),
        TopRouters(k=20),
    )
    violations = 0
    checked = 0
    for strategy in strategies:
        results = {s: run_experiment(data, strategy, s) for s in Scenario}
        g = results[Scenario.GLOBAL].coverage.per_user_day
        for other in (Scenario.PERSONAL, Scenario.GLOBAL_EXCLUDING_SELF):
            o = results[other].coverage.per_user_day
            assert set(o) == set(g)
            for key, cov in o.items():
                checked += 1
                if g[key] < cov:
                    violations += 1
    _report(
        5,
        "scenario dominance",
        violations == 0,
        f"{violations} violations in {checked} (strategy, scenario, user-day) checks (exact)",
    )


def test_criterion_06_random_subsampling_band(localization):
    _, data, _, _, _ = localization
    n_events = data.pairs.n_events()
    spec_days_users = 30 * 30
    f_one_per_day = spec_days_users / n_events

    seeds = (101, 102, 103, 104, 105)
    means_at_one = [
        run_experiment(data, RandomFraction(f=f_one_per_day, seed=s), Scenario.GLOBAL)
        .summary["mean_coverage"]
        for s in seeds
    ]
    band_mean = float(np.mean(means_at_one))

    fractions = (f_one_per_day / 4, f_one_per_day, f_one_per_day * 4, f_one_per_day * 16)
    means = {}
    for f in fractions:
        means[f] = [
            run_experiment(data, RandomFraction(f=min(f, 1.0), seed=s), Scenario.GLOBAL)
            .summary["mean_coverage"]
            for s in seeds
        ]
    ordered = sorted(means)
    monotone_ok = True
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            mi, mj = np.mean(means[ordered[i]]), np.mean(means[ordered[j]])
            se = math.sqrt(np.var(means[ordered[i]]) / 5 + np.var(means[ordered[j]]) / 5)
            if mj < mi - 2 * se:
                monotone_ok = False
    _report(
        6,
        "random subsampling",
        0.70 <= band_mean <= 0.90 and monotone_ok,
        f"one sample/day/user (f={f_one_per_day:.4f}) -> mean coverage {band_mean:.3f} "
        f"in [0.70, 0.90]; coverage non-decreasing in f across 5 seeds: {monotone_ok}",
    )


def test_criterion_07_initial_period_decline(long_world):
    _, _, arrays = long_world
    data = prepare_experiment_data(arrays)
    personal = stability_decline(
        run_experiment(data, InitialPeriod(days=7), Scenario.PERSONAL)
    )
    global_ = stability_decline(
        run_experiment(data, InitialPeriod(days=7), Scenario.GLOBAL)
    )
    p_pts = personal.decline * 100
    g_pts = global_.decline * 100
    _report(
        7,
        "week-one training decline",
        p_pts >= 10.0 and g_pts <= 3.0,
        f"personal drop day60->160: {p_pts:.1f} pts (>=10); global: {g_pts:.1f} pts (<=3)",
    )


def test_criterion_08_top_routers(localization):
    _, data, _, _, _ = localization
    ks = (1, 2, 5, 10, 20)
    means = []
    for k in ks:
        res = run_experiment(data, TopRouters(k=k), Scenario.GLOBAL)
        means.append(res.summary["mean_coverage"])
    monotone = all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    top20 = means[-1]

    # greedy optimality: exact at k=1, within 1-1/e of the enumerated optimum
    # for k<=3 on instances of at most 15 routers
    rng = np.random.default_rng(77)
    bound_ok = True
    for _ in range(15):
        n_routers = int(rng.integers(2, 16))
        sets = {
            f"r{r:02d}": set(int(b) for b in rng.integers(0, 25, size=int(rng.integers(1, 9))))
            for r in range(n_routers)
        }
        from oracles import _lazy_greedy

        best1 = exhaustive_max_coverage(sets, 1)
        pick1 = _lazy_greedy(sets, 1)
        if len(sets[pick1[0]]) != best1:
            bound_ok = False
        for k in (2, 3):
            picks = _lazy_greedy(sets, k)
            covered = len(set().union(*(sets[p] for p in picks)))
            if covered < (1 - 1 / math.e) * exhaustive_max_coverage(sets, k) - 1e-9:
                bound_ok = False
    _report(
        8,
        "top routers",
        top20 >= 0.85 and monotone and bound_ok,
        f"k=20 mean coverage {top20:.3f} (>=0.85); k-sweep {[round(m, 3) for m in means]} "
        f"monotone: {monotone}; greedy optimal at k=1 and within 1-1/e for k<=3: {bound_ok}",
    )


def test_criterion_09_emission_calibration(default_world):
    _, gt, arrays = default_world
    nonempty = arrays.nonempty_scan_fraction()
    r2 = density_count_r2(gt, arrays)
    _report(
        9,
        "emission calibration",
        0.85 <= nonempty <= 0.95 and 0.35 <= r2 <= 0.65,
        f"non-empty scans {nonempty:.3f} in [0.85, 0.95]; "
        f"count-vs-density r2 {r2:.3f} in [0.35, 0.65] ({gt.n_static} static APs)",
    )


def test_criterion_10_entropy_unit_suite():
    degenerate = entropy_bits(["x"] * 12)
    worst_uniform = 0.0
    for k in (2, 3, 4, 5, 8, 16, 100, 333, 1024):
        worst_uniform = max(worst_uniform, abs(entropy_bits(list(range(k))) - math.log2(k)))
    mixed = entropy_bits(["a", "a", "b", "c"])
    _report(
        10,
        "entropy",
        degenerate == 0.0 and worst_uniform <= 1e-12 and abs(mixed - 1.5) <= 1e-12,
        f"degenerate {degenerate}; uniform worst |H - log2 k| = {worst_uniform:.2e} (<=1e-12); "
        f"(1/2, 1/4, 1/4) -> {mixed} bits",
    )


def test_criterion_11_determinism(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for d in (d1, d2):
        run("synth", "--out", d, "--users", 3, "--days", 2, "--seed", 5)
    synth_same = all(
        (d1 / p.name).read_bytes() == p.read_bytes() for p in sorted(d2.iterdir())
    )

    apdb1, apdb2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    run("locate", "--gps", d1 / "gps.jsonl", "--wifi", d1 / "wifi.jsonl", "--out", apdb1)
    run("locate", "--gps", d1 / "gps.jsonl", "--wifi", d1 / "wifi.jsonl", "--out", apdb2)
    locate_same = apdb1.read_bytes() == apdb2.read_bytes()

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for e in (e1, e2):
        run(
            "experiment", "--gps", d1 / "gps.jsonl", "--wifi", d1 / "wifi.jsonl",
            "--out-dir", e, "--strategy", "random", "--fraction", "0.2",
            "--hist-days", "0", "--seed", "3",
        )
    exp_same = all(
        (e1 / p.name).read_bytes() == p.read_bytes() for p in sorted(e2.iterdir())
    )
    _report(
        11,
        "determinism",
        synth_same and locate_same and exp_same,
        f"synth rerun identical: {synth_same}; locate rerun identical: "
        f"{locate_same}; experiment rerun identical: {exp_same}",
    )
