#!/usr/bin/env python3
"""Two days of one person, reconstructed three ways.

Generates a 48-hour single-user trace, locates routers from its own paired
fixes, then reports how much of the timeline is recoverable from (a) the
full router database and (b) only the user's top-k routers, along with
position-error percentiles against ground truth.

Usage: python scripts/run_single_user_demo.py [--top-k 8]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wifimob.ap_locator import ApDatabase, haversine_m
from wifimob.experiments import prepare_experiment_data
from wifimob.reconstructor import build_timeline
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays
from wifimob.trace_model import GeoPoint


def _timeline_stats(gt, timelines, user_idx, user_id):
    tl = timelines.get(user_id)
    if tl is None:
        return 0.0, []
    errors = []
    for ts, a, b in zip(tl.ts.tolist(), tl.lat.tolist(), tl.lon.tolist()):
        lat, lon = gt.position_at(user_idx, np.array([ts]))
        errors.append(haversine_m(GeoPoint(a, b), GeoPoint(float(lat[0]), float(lon[0]))))
    return len(tl.bins) / max(1, len(tl.bins_with_data)), errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--top-k", type=int, default=8)
    args = parser.parse_args()

    spec = WorldSpec(seed=args.seed, n_users=1, n_days=2, colocated_fraction=0.0)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    user = gt.user_ids[0]
    distinct = np.unique(arrays.scan_ap).size
    print(f"{arrays.n_scans} scans over 48 h, {distinct} distinct routers, "
          f"{arrays.nonempty_scan_fraction():.0%} scans non-empty")

    data = prepare_experiment_data(arrays)
    db = data.full_database()
    census = db.census()
    print(f"router database: {census['total']} candidates, {census['static']} static, "
          f"{census['mobile']} mobile, {census['insufficient']} insufficient")

    full_tl = build_timeline(arrays, db)
    coverage, errors = _timeline_stats(gt, full_tl, 0, user)
    print(f"full database: {coverage:.0%} of WiFi-bearing bins estimated; "
          f"median error {np.median(errors):.0f} m, p95 {np.percentile(errors, 95):.0f} m")

    # the single user's greedy top-k routers over their own timebins; the
    # timeline places only the static and relocated ones among them
    top = {data.table.bssids[i] for i in data.top_router_selections(args.top_k)[0]}
    top_db = ApDatabase(records={b: r for b, r in db.records.items() if b in top})
    top_tl = build_timeline(arrays, top_db)
    coverage, errors = _timeline_stats(gt, top_tl, 0, user)
    share = args.top_k / max(1, distinct)
    if errors:
        print(f"top {args.top_k} routers ({share:.1%} of those seen): "
              f"{coverage:.0%} of bins estimated; median error {np.median(errors):.0f} m")
    else:
        print(f"top {args.top_k} routers: nothing resolvable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
