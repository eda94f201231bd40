"""Independent reference implementations the fast code must agree with.

Besides the numeric oracles (brute-force DBSCAN, grid-search median,
exhaustive max coverage), this holds the record route. The program runs
every stage on columns (``SensorArrays``, ``PairedEvents``, ``RouterTable``);
the functions below redo ingest, pairing, router grouping, timelines, entropy
labels, the presence table, training selection and the coverage of a grid
cell on record objects (``TraceSet``, ``PairedObservation``, ``ApRecord``),
one record at a time.
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from wifimob.ap_locator import (
    EARTH_RADIUS_M,
    ApClass,
    ApDatabase,
    ApRecord,
    LocatorConfig,
    _haversine_rad,
    classify_ap,
    geometric_median,
)
from wifimob.coverage_metrics import DAY_MS, DEFAULT_BIN_MS, CoverageSeries
from wifimob.experiments import (
    ExperimentConfig,
    ExperimentData,
    InitialPeriod,
    RandomFraction,
    SamplingStrategy,
    ScanTable,
    Scenario,
    TopRouters,
)
from wifimob.pairing import (
    PairedEvents,
    PairedObservation,
    PairingConfig,
    pair_time_indices,
)
from wifimob.reconstructor import BinnedTimeline, PositionEstimate, resolve_scan, timeline_coverage
from wifimob.synthgen import GroundTruth, _rng
from wifimob.trace_model import (
    ApSighting,
    BssidId,
    GeoPoint,
    GpsFix,
    SensorArrays,
    TimestampMs,
    TraceError,
    TraceSet,
    UserId,
    WifiScan,
    _fix_line,
    _scan_line,
    ingest_traces_verbose,
)

M_PER_DEG_LAT = 111194.92664455873


def haversine_m_arrays(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Elementwise great-circle distance over degree arrays."""
    return _haversine_rad(
        np.radians(lat1_deg),
        np.radians(lon1_deg),
        np.radians(lat2_deg),
        np.radians(lon2_deg),
    )


def brute_dbscan(lat, lon, eps_m, min_pts):
    """Quadratic DBSCAN over degree arrays: closed neighborhoods, core
    components, borders to the lowest-index core neighbor. Mirrors the
    production semantics with none of its indexing machinery."""
    n = len(lat)
    adj = []
    for i in range(n):
        d = haversine_m_arrays(lat[i], lon[i], lat, lon)
        adj.append(np.nonzero(d <= eps_m)[0])
    core = [adj[i].size >= min_pts for i in range(n)]

    label: dict[int, int] = {}
    next_id = 0
    for i in range(n):
        if not core[i] or i in label:
            continue
        stack = [i]
        label[i] = next_id
        while stack:
            j = stack.pop()
            for k in adj[j]:
                k = int(k)
                if core[k] and k not in label:
                    label[k] = next_id
                    stack.append(k)
        next_id += 1

    clusters: dict[int, set[int]] = {}
    noise: set[int] = set()
    for i in range(n):
        if core[i]:
            clusters.setdefault(label[i], set()).add(i)
        else:
            core_nb = [int(k) for k in adj[i] if core[int(k)]]
            if core_nb:
                clusters.setdefault(label[min(core_nb)], set()).add(i)
            else:
                noise.add(i)
    return sorted(clusters.values(), key=min), noise


def grid_search_median(points, res_m=0.5, refine_m=25.0):
    """Two-stage exhaustive grid minimizer of summed great-circle distance.

    Stage one walks a 2 m lattice over the bounding box; stage two walks a
    ``res_m`` lattice in a generous window around the stage-one argmin. The
    objective is convex, so the window only needs to outrun lattice slop.
    """
    lat = np.array([p.lat_deg for p in points])
    lon = np.array([p.lon_deg for p in points])
    m_lon = M_PER_DEG_LAT * np.cos(np.radians(lat.mean()))

    def objective(lat_grid, lon_grid):
        total = 0.0
        for la, lo in zip(lat, lon):
            total = total + haversine_m_arrays(lat_grid, lon_grid, la, lo)
        return total

    def argmin_over(glat, glon):
        big_lat, big_lon = np.meshgrid(glat, glon, indexing="ij")
        obj = objective(big_lat, big_lon)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        return float(glat[i]), float(glon[j])

    coarse_lat = np.arange(lat.min(), lat.max() + 2.0 / M_PER_DEG_LAT, 2.0 / M_PER_DEG_LAT)
    coarse_lon = np.arange(lon.min(), lon.max() + 2.0 / m_lon, 2.0 / m_lon)
    c_lat, c_lon = argmin_over(coarse_lat, coarse_lon)

    fine_lat = np.arange(c_lat - refine_m / M_PER_DEG_LAT, c_lat + refine_m / M_PER_DEG_LAT, res_m / M_PER_DEG_LAT)
    fine_lon = np.arange(c_lon - refine_m / m_lon, c_lon + refine_m / m_lon, res_m / m_lon)
    f_lat, f_lon = argmin_over(fine_lat, fine_lon)
    return GeoPoint(f_lat, f_lon)


def _local_plane(lat_deg: np.ndarray, lon_deg: np.ndarray, radius_m: float):
    """Equirectangular projection about the centroid; returns (x, y, unproject)."""
    lat0 = float(np.mean(lat_deg))
    lon0 = float(np.mean(lon_deg))
    coslat = math.cos(math.radians(lat0))
    x = np.radians(lon_deg - lon0) * radius_m * coslat
    y = np.radians(lat_deg - lat0) * radius_m

    def unproject(px: float, py: float) -> GeoPoint:
        lat = lat0 + math.degrees(py / radius_m)
        lon = lon0 + math.degrees(px / (radius_m * coslat))
        return GeoPoint(lat, lon)

    return x, y, unproject


def geometric_median_loop(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    radius_m: float = EARTH_RADIUS_M,
    tol_m: float = 1e-6,
    max_iter: int = 20000,
) -> GeoPoint:
    """Point minimizing the summed distance to the points of two degree arrays,
    one Weiszfeld loop per point set: the per-set form of
    ``ap_locator.geometric_medians``, which must agree with it to the bit.

    Runs Weiszfeld iterations on a local planar projection about the
    centroid, which is exact to well under a centimeter at the sub-kilometer
    scales clusters have here. The stop threshold is deliberately tight:
    near-degenerate point sets give the iteration a long flat valley, and a
    loose step cutoff can park it tens of meters from the minimizer. Two
    points return their midpoint (one of the infinitely many minimizers); an
    iterate landing exactly on an input point is nudged 1 cm east.
    """
    n = lat_deg.shape[0]
    if n == 0:
        raise ValueError("geometric_median of empty point set")
    if n == 1:
        return GeoPoint(float(lat_deg[0]), float(lon_deg[0]))
    x, y, unproject = _local_plane(lat_deg, lon_deg, radius_m)
    if n == 2:
        return unproject(float(x.mean()), float(y.mean()))

    px, py = float(x.mean()), float(y.mean())
    for _ in range(max_iter):
        dx = x - px
        dy = y - py
        d = np.hypot(dx, dy)
        dmin_idx = int(np.argmin(d))
        if d[dmin_idx] < 0.5:
            # close to a data point: when that point satisfies the vertex
            # optimality condition it IS the median, and iterating further
            # would only creep toward it sublinearly
            dj = np.hypot(x - x[dmin_idx], y - y[dmin_idx])
            others = dj > 1e-9
            multiplicity = int((~others).sum())
            pull_x = ((x[others] - x[dmin_idx]) / dj[others]).sum()
            pull_y = ((y[others] - y[dmin_idx]) / dj[others]).sum()
            if math.hypot(pull_x, pull_y) <= multiplicity:
                return unproject(float(x[dmin_idx]), float(y[dmin_idx]))
        if np.any(d < 1e-9):
            px += 0.01  # sits on a non-optimal data point; nudge east and retry
            continue
        w = 1.0 / d
        wsum = w.sum()
        nx = float((x * w).sum() / wsum)
        ny = float((y * w).sum() / wsum)
        step = math.hypot(nx - px, ny - py)
        px, py = nx, ny
        if step < tol_m:
            break
    return unproject(px, py)


def brute_radius_query(x, y, qx, qy, r: float) -> list[np.ndarray]:
    """Per query point, every index with planar distance <= r, ascending:
    the generator's visibility rule tested against every point."""
    return [np.nonzero((x - px) * (x - px) + (y - py) * (y - py) <= r * r)[0] for px, py in zip(qx, qy)]


def place_separated_loop(rng, grid, count: int, sep_m: float, taken_xy: list, power: float = 1.0):
    """The generator's separated placement one candidate and one taken point
    at a time: density-weighted candidates at least sep_m from every taken
    point, relaxing to sep/2 after 40 rejections and accepting overlap after
    60. Appends to ``taken_xy`` and returns the placed points."""
    placed: list[tuple[float, float]] = []
    for _ in range(count):
        best = None
        for attempt in range(60):
            w = grid.weights**power
            cell = int(rng.choice(grid.n * grid.n, size=1, p=(w / w.sum()).ravel())[0])
            i, j = divmod(cell, grid.n)
            x = float((j + rng.random(1)[0]) * grid.cell_m - grid.extent_m / 2)
            y = float((i + rng.random(1)[0]) * grid.cell_m - grid.extent_m / 2)
            min_sep = sep_m if attempt < 40 else sep_m / 2
            ok = True
            for qx, qy in taken_xy:
                if (x - qx) ** 2 + (y - qy) ** 2 < min_sep * min_sep:
                    ok = False
                    break
            if ok:
                best = (x, y)
                break
        if best is None:
            best = (x, y)
        placed.append(best)
        taken_xy.append(best)
    return placed


def hotspot_sightings_loop(gt: GroundTruth, arrays: SensorArrays) -> list[tuple[int, int]]:
    """Sorted (scan, hotspot id) pairs the generator's hotspot rule gives
    ``gt``'s simulated log, one non-empty scan at a time: a scan lists the
    hotspot of every other user who, at the scan's time, stays at the
    viewer's anchor while one of their tethering sessions is open. Sessions
    are drawn again from each owner's stream ``_rng(seed, 5, owner)``."""
    spec = gt.spec
    hotspot = {m.owner: m.ap_id for m in gt.mobile_aps if m.kind == "hotspot"}
    # per owner, the union of their sessions as sorted on/off bounds: the
    # owner is tethering at t when an odd number of bounds are <= t
    bounds: dict[int, list[int]] = {}
    for owner in hotspot:
        rng = _rng(spec.seed, 5, owner)
        sessions = []
        for day in range(spec.n_days):
            for prob, lo_h, hi_h in (
                (spec.hotspot_day_session_prob, 9.5, 14.0),
                (spec.hotspot_evening_session_prob, 17.5, 21.5),
            ):
                if rng.random() < prob:
                    dur_h = rng.uniform(*spec.hotspot_session_h)
                    start_h = rng.uniform(lo_h, hi_h)
                    sessions.append(
                        (
                            round((day * 24.0 + start_h) * 3_600_000),
                            round((day * 24.0 + min(start_h + dur_h, 24.0)) * 3_600_000),
                        )
                    )
        on: list[int] = []
        for t0, t1 in sorted(sessions):
            if t0 >= t1:
                continue
            if on and t0 <= on[-1]:
                on[-1] = max(on[-1], t1)
            else:
                on += [t0, t1]
        bounds[owner] = on
    ends = [seg.t1.tolist() for seg in gt.segments]
    anchors = [seg.anchor.tolist() for seg in gt.segments]  # >= 0 on stays at an anchor only

    def anchor_at(u: int, t: int) -> int:
        return anchors[u][min(bisect_right(ends[u], t), len(ends[u]) - 1)]

    # the owners who ever stay at each anchor, so a scan asks only those
    owners_at: dict[int, list[int]] = {}
    for owner in sorted(hotspot):
        for aid in set(anchors[owner]):
            owners_at.setdefault(aid, []).append(owner)

    out = []
    counts = np.diff(arrays.scan_off).tolist()
    for k, (u, t, n) in enumerate(zip(arrays.scan_user.tolist(), arrays.scan_ts.tolist(), counts)):
        aid = anchor_at(u, t) if n else -1
        if aid < 0:
            continue
        for owner in owners_at.get(aid, ()):
            if (
                owner != u
                and bisect_right(bounds[owner], t) % 2 == 1
                and anchor_at(owner, t) == aid
            ):
                out.append((k, hotspot[owner]))
    return sorted(out)


def exhaustive_max_coverage(sets: dict, k: int) -> int:
    """Best achievable coverage over all size-<=k subsets, by enumeration."""
    from itertools import combinations

    keys = list(sets)
    best = 0
    for r in range(1, min(k, len(keys)) + 1):
        for combo in combinations(keys, r):
            covered = set()
            for key in combo:
                covered |= sets[key]
            best = max(best, len(covered))
    return best


# -- record traces ------------------------------------------------------------


def ingest_traces(gps_path, wifi_path) -> TraceSet:
    """Ingest both trace files as records; ``ingest_traces_verbose`` also
    returns the line report."""
    traces, _ = ingest_traces_verbose(gps_path, wifi_path)
    return traces


def write_traces(traces: TraceSet, gps_path, wifi_path) -> None:
    """Write a trace set back out in canonical JSONL form."""
    with Path(gps_path).open("w", encoding="utf-8") as out:
        for fix in traces.fixes:
            out.write(_fix_line(fix))
            out.write("\n")
    with Path(wifi_path).open("w", encoding="utf-8") as out:
        for scan in traces.scans:
            out.write(_scan_line(scan))
            out.write("\n")


def trace_users(traces: TraceSet) -> list[UserId]:
    """Sorted users holding a fix or a scan."""
    return sorted({f.user for f in traces.fixes} | {s.user for s in traces.scans})


def trace_bssids(traces: TraceSet) -> list[BssidId]:
    """Sorted BSSIDs sighted in any scan, the table ingest indexes them by."""
    return sorted({s.bssid for scan in traces.scans for s in scan.sightings})


def trace_start_ms(traces: TraceSet) -> TimestampMs:
    """Earliest timestamp over all records; 0 when empty."""
    return min([f.ts for f in traces.fixes] + [s.ts for s in traces.scans], default=0)


# -- records <-> columns ------------------------------------------------------


def arrays_to_traceset(arrays: SensorArrays) -> TraceSet:
    """Materialize record objects from the compact form.

    Identical sighting lists (the normal case while a user stays put) share
    one list object, which keeps large worlds affordable.
    """
    sighting_of = [ApSighting(bssid=b) for b in arrays.bssids]
    list_cache: dict[bytes, list[ApSighting]] = {}

    fixes = []
    for k in range(arrays.fix_ts.size):
        acc = float(arrays.fix_acc[k])
        fixes.append(
            GpsFix(
                user=arrays.user_ids[arrays.fix_user[k]],
                ts=int(arrays.fix_ts[k]),
                pos=GeoPoint(float(arrays.fix_lat[k]), float(arrays.fix_lon[k])),
                accuracy_m=None if math.isnan(acc) else acc,
            )
        )

    scans = []
    off = arrays.scan_off
    ap = arrays.scan_ap
    for k in range(arrays.n_scans):
        ids = ap[off[k] : off[k + 1]]
        key = ids.tobytes()
        sightings = list_cache.get(key)
        if sightings is None:
            sightings = [sighting_of[i] for i in ids]
            list_cache[key] = sightings
        scans.append(
            WifiScan(
                user=arrays.user_ids[arrays.scan_user[k]],
                ts=int(arrays.scan_ts[k]),
                sightings=sightings,
            )
        )
    return TraceSet(fixes=fixes, scans=scans)


def records_to_arrays(
    fixes: Iterable[GpsFix] = (), scans: Iterable[WifiScan] = ()
) -> SensorArrays:
    """Columns of record fixes and scans, rows kept in the given order; the
    inverse of :func:`arrays_to_traceset`. Users and BSSIDs are indexed in
    sorted order, as ingest indexes them."""
    fixes, scans = list(fixes), list(scans)
    user_ids = sorted({f.user for f in fixes} | {s.user for s in scans})
    bssids = sorted({s.bssid for scan in scans for s in scan.sightings})
    user_idx = {u: i for i, u in enumerate(user_ids)}
    ap_idx = {b: i for i, b in enumerate(bssids)}
    counts = [len(scan.sightings) for scan in scans]
    return SensorArrays(
        user_ids=user_ids,
        bssids=bssids,
        fix_user=np.array([user_idx[f.user] for f in fixes], dtype=np.int32),
        fix_ts=np.array([f.ts for f in fixes], dtype=np.int64),
        fix_lat=np.array([f.pos.lat_deg for f in fixes], dtype=np.float64),
        fix_lon=np.array([f.pos.lon_deg for f in fixes], dtype=np.float64),
        fix_acc=np.array(
            [math.nan if f.accuracy_m is None else f.accuracy_m for f in fixes], dtype=np.float64
        ),
        scan_user=np.array([user_idx[s.user] for s in scans], dtype=np.int32),
        scan_ts=np.array([s.ts for s in scans], dtype=np.int64),
        scan_off=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        scan_ap=np.array(
            [ap_idx[s.bssid] for scan in scans for s in scan.sightings], dtype=np.int32
        ),
    )


# -- the record route ---------------------------------------------------------


def pair_records(
    traces: TraceSet, cfg: PairingConfig = PairingConfig()
) -> list[PairedObservation]:
    """Record-level pairing, sorted by (bssid, ts, user)."""
    return sorted(pair_records_in_log_order(traces, cfg), key=lambda o: (o.bssid, o.ts, o.user))


def pair_records_in_log_order(
    traces: TraceSet, cfg: PairingConfig = PairingConfig()
) -> list[PairedObservation]:
    """Record-level pairing in log order: user by user, each user's fixes
    in turn, and the chosen scan's sightings in scan order."""
    scans_by_user: dict[UserId, list[WifiScan]] = {}
    for scan in traces.scans:
        scans_by_user.setdefault(scan.user, []).append(scan)
    fixes_by_user: dict[UserId, list[GpsFix]] = {}
    for fix in traces.fixes:
        fixes_by_user.setdefault(fix.user, []).append(fix)

    out: list[PairedObservation] = []
    for user, fixes in fixes_by_user.items():
        scans = scans_by_user.get(user)
        if not scans:
            continue
        if cfg.max_accuracy_m is not None:
            fixes = [
                f
                for f in fixes
                if f.accuracy_m is None or f.accuracy_m <= cfg.max_accuracy_m
            ]
            if not fixes:
                continue
        fix_ts = np.array([f.ts for f in fixes], dtype=np.int64)
        scan_ts = np.array([s.ts for s in scans], dtype=np.int64)
        chosen = pair_time_indices(fix_ts, scan_ts, cfg.window_ms)
        for fix, idx in zip(fixes, chosen):
            if idx < 0:
                continue
            for sighting in scans[idx].sightings:
                out.append(
                    PairedObservation(
                        bssid=sighting.bssid, pos=fix.pos, ts=fix.ts, user=user
                    )
                )
    return out


def timeline_from_records(
    scans: Iterable[WifiScan], db: ApDatabase, bssids: Sequence[BssidId]
) -> dict[UserId, BinnedTimeline]:
    """Record-level timelines: resolve scans one at a time until each bin
    has an estimate, then lay each user's bins out as timeline columns.
    ``first_support`` indexes ``bssids``, the log's BSSID table. Per-user
    out-of-order scans raise TraceError."""
    estimates: dict[UserId, dict[int, PositionEstimate]] = {}
    with_data: dict[UserId, set[int]] = {}
    last_ts: dict[UserId, TimestampMs] = {}
    for scan in scans:
        bins = estimates.get(scan.user)
        if bins is None:
            bins = estimates[scan.user] = {}
            with_data[scan.user] = set()
        elif scan.ts < last_ts[scan.user]:
            raise TraceError(
                f"scans of user {scan.user} out of time order: "
                f"{scan.ts} after {last_ts[scan.user]}"
            )
        last_ts[scan.user] = scan.ts
        bin_idx = scan.ts // DEFAULT_BIN_MS
        with_data[scan.user].add(bin_idx)
        if bin_idx in bins:
            continue  # first resolvable scan already owns this bin
        est = resolve_scan(scan, db)
        if est is not None:
            bins[bin_idx] = est
    index = {bssid: i for i, bssid in enumerate(bssids)}
    timelines = {}
    for user, bins in estimates.items():
        est = [bins[b] for b in sorted(bins)]
        timelines[user] = BinnedTimeline(
            user=user,
            bins_with_data=np.array(sorted(with_data[user]), dtype=np.int64),
            bins=np.array(sorted(bins), dtype=np.int64),
            ts=np.array([e.ts for e in est], dtype=np.int64),
            lat=np.array([e.pos.lat_deg for e in est], dtype=np.float64),
            lon=np.array([e.pos.lon_deg for e in est], dtype=np.float64),
            support_count=np.array([len(e.support) for e in est], dtype=np.int64),
            first_support=np.array([index[e.support[0]] for e in est], dtype=np.int64),
        )
    return timelines


_TIMELINE_COLUMNS = ("bins_with_data", "bins", "ts", "lat", "lon", "support_count", "first_support")


def assert_timelines_equal(got: dict, want: dict) -> None:
    """The same users, and every timeline column equal, dtypes included."""
    assert sorted(got) == sorted(want)
    for user, tl in want.items():
        assert got[user].user == tl.user
        for name in _TIMELINE_COLUMNS:
            a, b = getattr(got[user], name), getattr(tl, name)
            assert a.dtype == b.dtype, (user, name)
            assert np.array_equal(a, b), (user, name)


def table_from_traces(traces: TraceSet, bin_ms: int) -> ScanTable:
    user_ids = trace_users(traces)
    user_idx = {u: i for i, u in enumerate(user_ids)}
    bssids = trace_bssids(traces)
    ap_idx = {b: i for i, b in enumerate(bssids)}

    data_pairs = set()
    last_ts: dict[tuple[int, int, int], int] = {}
    for scan in traces.scans:
        u = user_idx[scan.user]
        b = scan.ts // bin_ms
        data_pairs.add((u, b))
        for s in scan.sightings:
            key = (u, b, ap_idx[s.bssid])
            prev = last_ts.get(key)
            if prev is None or scan.ts > prev:
                last_ts[key] = scan.ts

    data_sorted = sorted(data_pairs)
    pres_sorted = sorted(last_ts.items())
    return ScanTable(
        user_ids=user_ids,
        bssids=bssids,
        bin_ms=bin_ms,
        data_user=np.array([u for u, _ in data_sorted], dtype=np.int32),
        data_bin=np.array([b for _, b in data_sorted], dtype=np.int64),
        pres_user=np.array([k[0] for k, _ in pres_sorted], dtype=np.int32),
        pres_bin=np.array([k[1] for k, _ in pres_sorted], dtype=np.int64),
        pres_ap=np.array([k[2] for k, _ in pres_sorted], dtype=np.int32),
        pres_last_ts=np.array([t for _, t in pres_sorted], dtype=np.int64),
    )


def prepare_from_traces(
    traces: TraceSet,
    pairing: PairingConfig = PairingConfig(),
    locator: LocatorConfig = LocatorConfig(),
) -> ExperimentData:
    """``prepare_experiment_data`` on records."""
    table = table_from_traces(traces, DEFAULT_BIN_MS)
    pairs, _, _ = pair_columns(pair_records(traces, pairing), table.user_ids, table.bssids)
    return ExperimentData(table=table, pairs=pairs, t0_ms=trace_start_ms(traces), locator=locator)


def select_training_pairs(
    obs: Sequence[PairedObservation],
    strategy: SamplingStrategy,
    viewer: Optional[UserId] = None,
    scenario: Scenario = Scenario.GLOBAL,
    dataset_start_ms: Optional[int] = None,
) -> list[PairedObservation]:
    """Record-level training-subset selection.

    ``RandomFraction`` keeps or drops whole GPS fix events, so all
    observations from one paired fix travel together. ``TopRouters`` does not
    subsample GPS and is rejected here; its selection happens over scans.
    """
    if scenario is not Scenario.GLOBAL and viewer is None:
        raise ValueError(f"scenario {scenario.value} needs a viewer")

    if isinstance(strategy, InitialPeriod):
        if dataset_start_ms is None:
            dataset_start_ms = min((o.ts for o in obs), default=0)
        cutoff = dataset_start_ms + strategy.days * DAY_MS
        picked = [o for o in obs if o.ts < cutoff]
    elif isinstance(strategy, RandomFraction):
        events = sorted({(o.user, o.ts) for o in obs})
        rng = _rng(strategy.seed, 100)
        keep_mask = rng.random(len(events)) < strategy.f
        keep = {ev for ev, k in zip(events, keep_mask) if k}
        picked = [o for o in obs if (o.user, o.ts) in keep]
    else:
        raise ValueError("TopRouters selects routers from scans, not GPS training pairs")

    if scenario is Scenario.PERSONAL:
        picked = [o for o in picked if o.user == viewer]
    elif scenario is Scenario.GLOBAL_EXCLUDING_SELF:
        picked = [o for o in picked if o.user != viewer]
    return picked


def _lazy_greedy(sets: dict, k: int) -> list:
    """Greedy max-coverage with lazy marginal-gain re-evaluation (Minoux).

    Keys are picked by descending marginal gain; ties go to the smaller key.
    Once every remaining key adds nothing, the rest follow in descending
    original-size order until k is reached, so asking for more routers than
    exist simply returns them all.
    """
    heap = [(-len(s), key) for key, s in sets.items() if len(s)]
    heapq.heapify(heap)
    covered: set = set()
    chosen: list = []
    while heap and len(chosen) < k:
        neg_gain, key = heapq.heappop(heap)
        gain = len(sets[key] - covered)
        if gain != -neg_gain:
            if gain > 0:
                heapq.heappush(heap, (-gain, key))
            continue
        if gain == 0:
            continue
        chosen.append(key)
        covered |= sets[key]
    if len(chosen) < k:
        picked = set(chosen)
        rest = sorted((key for key in sets if key not in picked), key=lambda key: (-len(sets[key]), key))
        chosen.extend(rest[: k - len(chosen)])
    return chosen


def greedy_top_routers(scans: Iterable[WifiScan], k: int) -> list[BssidId]:
    """Routers giving the largest greedy increase in covered user-timebins.

    Works for a single user's scans or a pooled cohort; only scan occurrence
    matters, never GPS. Output order is selection order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sets: dict[BssidId, set] = {}
    for scan in scans:
        bin_key = (scan.user, scan.ts // DEFAULT_BIN_MS)
        for s in scan.sightings:
            sets.setdefault(s.bssid, set()).add(bin_key)
    return _lazy_greedy(sets, k)


def router_groups(
    obs: Iterable[PairedObservation],
) -> list[tuple[BssidId, list[PairedObservation]]]:
    """Observations grouped by BSSID in BSSID order, each group sorted by
    (ts, lat, lon): the rows ``build_database`` hands ``classify_ap``."""
    grouped: dict[BssidId, list[PairedObservation]] = {}
    for o in obs:
        grouped.setdefault(o.bssid, []).append(o)
    return [
        (bssid, sorted(grouped[bssid], key=lambda o: (o.ts, o.pos.lat_deg, o.pos.lon_deg)))
        for bssid in sorted(grouped)
    ]


def latlon(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Degree arrays of a point list."""
    lat = np.array([p.lat_deg for p in points], dtype=np.float64)
    lon = np.array([p.lon_deg for p in points], dtype=np.float64)
    return lat, lon


def classify_records(
    bssid: BssidId, obs: Sequence[PairedObservation], cfg: LocatorConfig = LocatorConfig()
) -> ApRecord:
    """``classify_ap`` on one router's observations in any order."""
    ((_, group),) = router_groups(obs)
    return classify_ap(
        bssid,
        np.array([o.ts for o in group], dtype=np.int64),
        *latlon([o.pos for o in group]),
        frozenset(o.user for o in group),
        cfg,
    )


def build_database_from_records(
    obs: Iterable[PairedObservation], cfg: LocatorConfig = LocatorConfig()
) -> ApDatabase:
    """``build_database`` on records: Python grouping and sorting, then the
    product ``classify_ap`` per router."""
    records = {
        bssid: classify_records(bssid, group, cfg) for bssid, group in router_groups(obs)
    }
    return ApDatabase(records=records)


def write_pair_records_csv(pairs: Iterable[PairedObservation], path) -> None:
    """``cli locate --dump-pairs`` from records: one row per paired
    observation, in the given order."""
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["bssid", "lat", "lon", "ts_ms", "user"])
        for p in pairs:
            writer.writerow([p.bssid, repr(p.pos.lat_deg), repr(p.pos.lon_deg), p.ts, p.user])


def label_at(rec: ApRecord, ts: TimestampMs) -> Optional[str]:
    """A record's entropy location label at ``ts``: its BSSID when static,
    ``BSSID#i`` inside its i-th listed segment when relocated, else None."""
    if rec.ap_class is ApClass.STATIC:
        return rec.bssid
    if rec.ap_class is ApClass.RELOCATED:
        for i, seg in enumerate(rec.segments):
            if seg.interval.contains(ts):
                return f"{rec.bssid}#{i}"
    return None


def pair_columns(
    obs: Sequence[PairedObservation],
    user_ids: Optional[list[UserId]] = None,
    bssids: Optional[list[BssidId]] = None,
) -> tuple[PairedEvents, list[UserId], list[BssidId]]:
    """Columns of records, rows kept in the given order, with the user and
    BSSID tables they index (by default the sorted names in ``obs``): the
    arguments of ``build_database``."""
    user_ids = sorted({o.user for o in obs}) if user_ids is None else user_ids
    bssids = sorted({o.bssid for o in obs}) if bssids is None else bssids
    user_idx = {u: i for i, u in enumerate(user_ids)}
    ap_idx = {b: i for i, b in enumerate(bssids)}
    lat, lon = latlon([o.pos for o in obs])
    pairs = PairedEvents(
        ap=np.array([ap_idx[o.bssid] for o in obs], dtype=np.int32),
        user=np.array([user_idx[o.user] for o in obs], dtype=np.int32),
        ts=np.array([o.ts for o in obs], dtype=np.int64),
        lat=lat,
        lon=lon,
    )
    return pairs, user_ids, bssids


def build_simple_database(obs: Iterable[PairedObservation]) -> ApDatabase:
    """Position every sighted access point, no questions asked: each BSSID
    with a paired observation becomes a static record at the geometric
    median of its observation positions."""
    records = {}
    for bssid, group in router_groups(obs):
        records[bssid] = ApRecord(
            bssid=bssid,
            ap_class=ApClass.STATIC,
            n_sightings=len(group),
            pos=geometric_median(*latlon([o.pos for o in group])),
            n_contributors=len({o.user for o in group}),
        )
    return ApDatabase(records=records)


def coverage_via_record_pipeline(
    traces: TraceSet,
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig = ExperimentConfig(),
    pairing: PairingConfig = PairingConfig(),
    locator: LocatorConfig = LocatorConfig(),
) -> CoverageSeries:
    """One grid cell on records: a database per viewer, then binned timelines.

    ``pairing`` and ``locator`` are what the engine's data is prepared with,
    ``cfg`` what its cell runs with.

    Under ``any_sighting`` a viewer's database places every router of the
    training subset; under ``classified`` it is the quality-filtered
    classification of the subset. Under ``InitialPeriod`` (sequential
    learning) a router becomes known to the viewer at the earliest instant
    of the subset that holds it: each scan keeps only the sightings known
    by its time before the timeline resolves it.
    """
    classified = cfg.known_rule == "classified"
    obs = pair_records(traces, pairing)
    t0 = trace_start_ms(traces)
    users, bssids = trace_users(traces), trace_bssids(traces)
    scans_by_user: dict[UserId, list[WifiScan]] = {}
    for scan in traces.scans:
        scans_by_user.setdefault(scan.user, []).append(scan)
    full_db = None
    if isinstance(strategy, TopRouters):
        full_db = build_database_from_records(obs, locator)

    timelines: dict[UserId, BinnedTimeline] = {}
    for viewer in users:
        scans = scans_by_user.get(viewer, [])
        if isinstance(strategy, TopRouters):
            if scenario is Scenario.PERSONAL:
                contributors = [viewer]
            elif scenario is Scenario.GLOBAL:
                contributors = users
            else:
                contributors = [u for u in users if u != viewer]
            known: set[BssidId] = set()
            for user in contributors:
                known.update(greedy_top_routers(scans_by_user.get(user, []), strategy.k))
            db = ApDatabase(records={
                b: r
                for b, r in full_db.records.items()
                if b in known and r.ap_class in (ApClass.STATIC, ApClass.RELOCATED)
            })
        else:
            subset = select_training_pairs(
                obs, strategy, viewer=viewer, scenario=scenario, dataset_start_ms=t0
            )
            if classified:
                db = build_database_from_records(subset, locator)
            else:
                db = build_simple_database(subset)
            if isinstance(strategy, InitialPeriod):
                known_from: dict[BssidId, TimestampMs] = {}
                for o in subset:
                    known_from[o.bssid] = min(o.ts, known_from.get(o.bssid, o.ts))
                scans = [
                    WifiScan(
                        user=scan.user,
                        ts=scan.ts,
                        sightings=[
                            s for s in scan.sightings
                            if known_from.get(s.bssid, math.inf) <= scan.ts
                        ],
                    )
                    for scan in scans
                ]
        timelines.update(timeline_from_records(scans, db, bssids))
    return timeline_coverage(timelines)
