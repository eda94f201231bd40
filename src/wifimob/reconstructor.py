"""Turning WiFi scans plus a located-AP database into position estimates.

A scan resolves to a position when at least one sighted access point has a
usable position at the scan's timestamp. With several hits the estimate is
the geometric median of the access-point positions, which keeps one badly
placed router from dragging the estimate far off.

Timelines bin estimates into fixed-width time bins (ten minutes by default);
the first resolvable scan in a bin provides the bin's estimate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .ap_locator import ApDatabase, geometric_median, geometric_medians, in_segments
from .coverage_metrics import DAY_MS, DEFAULT_BIN_MS, CoverageSeries
from .trace_model import (
    BssidId,
    GeoPoint,
    SensorArrays,
    TimestampMs,
    UserId,
    WifiScan,
)


@dataclass(slots=True)
class PositionEstimate:
    user: UserId
    ts: TimestampMs
    pos: GeoPoint
    support: list[BssidId]


@dataclass(slots=True)
class BinnedTimeline:
    user: UserId
    bin_ms: int = DEFAULT_BIN_MS
    # bin index -> estimate, only for bins that resolved
    bins: dict[int, PositionEstimate] = field(default_factory=dict)
    # every bin that saw any scan at all, resolved or not
    bins_with_data: set[int] = field(default_factory=set)

    def coverage_counts(self) -> tuple[int, int]:
        return len(self.bins_with_data), len(self.bins)


def resolve_scan(scan: WifiScan, db: ApDatabase) -> Optional[PositionEstimate]:
    """Position estimate for one scan, or None when nothing resolves."""
    hits: list[tuple[BssidId, GeoPoint]] = []
    for sighting in scan.sightings:
        rec = db.get(sighting.bssid)
        if rec is None:
            continue
        pos = rec.position_at(scan.ts)
        if pos is not None:
            hits.append((sighting.bssid, pos))
    return _estimate(scan.user, scan.ts, hits)


def _estimate(
    user: UserId, ts: TimestampMs, hits: list[tuple[BssidId, GeoPoint]]
) -> Optional[PositionEstimate]:
    if not hits:
        return None
    hits.sort(key=lambda h: h[0])
    support = [bssid for bssid, _ in hits]
    if len(hits) == 1:
        pos = hits[0][1]
    else:
        lat = np.array([p.lat_deg for _, p in hits], dtype=np.float64)
        lon = np.array([p.lon_deg for _, p in hits], dtype=np.float64)
        pos = geometric_median(lat, lon)
    return PositionEstimate(user=user, ts=ts, pos=pos, support=support)


def build_timeline(
    arrays: SensorArrays, db: ApDatabase, bin_ms: int = DEFAULT_BIN_MS
) -> dict[UserId, BinnedTimeline]:
    """Per-user binned timelines of a columnar log.

    Each bin's first resolvable scan is found with array operations; only
    those scans get a position estimate. Each user's scans are in time
    order, as :class:`SensorArrays` guarantees, so the first resolvable scan
    of a bin is the earliest.
    """
    u, t = arrays.scan_user, arrays.scan_ts
    same_user = u[1:] == u[:-1]
    bins = t // bin_ms
    new_bin = np.ones(t.size, dtype=bool)
    new_bin[1:] = ~same_user | (bins[1:] != bins[:-1])

    usable = _usable_sightings(arrays, *db.beacons(arrays.bssids))
    hits_before = np.concatenate([[0], np.cumsum(usable, dtype=np.int64)])
    n_hits = hits_before[arrays.scan_off[1:]] - hits_before[arrays.scan_off[:-1]]

    # the first resolvable scan of each (user, bin) run
    res_pos = np.nonzero(n_hits > 0)[0]
    run = np.cumsum(new_bin)[res_pos]
    first_in_run = np.ones(res_pos.size, dtype=bool)
    first_in_run[1:] = run[1:] != run[:-1]
    first = res_pos[first_in_run]

    timelines: dict[UserId, BinnedTimeline] = {}
    for k in np.nonzero(new_bin)[0].tolist():
        user = arrays.user_ids[u[k]]
        tl = timelines.get(user)
        if tl is None:
            tl = timelines[user] = BinnedTimeline(user=user, bin_ms=bin_ms)
        tl.bins_with_data.add(int(bins[k]))

    # every chosen scan's hits in BSSID order, then one median per scan
    supports, hit_lat, hit_lon = [], [], []
    for k in first.tolist():
        scan_ts = int(t[k])
        lo, hi = int(arrays.scan_off[k]), int(arrays.scan_off[k + 1])
        bssids = sorted(arrays.bssids[a] for a in arrays.scan_ap[lo:hi][usable[lo:hi]].tolist())
        positions = [db.records[b].position_at(scan_ts) for b in bssids]
        supports.append(bssids)
        hit_lat.extend(p.lat_deg for p in positions)
        hit_lon.extend(p.lon_deg for p in positions)
    if not supports:
        return timelines
    sizes = np.array([len(s) for s in supports])
    lat, lon = geometric_medians(np.array(hit_lat), np.array(hit_lon), np.cumsum(sizes) - sizes)
    for k, support, a, b in zip(first.tolist(), supports, lat.tolist(), lon.tolist()):
        user = arrays.user_ids[u[k]]
        timelines[user].bins[int(bins[k])] = PositionEstimate(
            user=user, ts=int(t[k]), pos=GeoPoint(a, b), support=support
        )
    return timelines


def _usable_sightings(
    arrays: SensorArrays, static: np.ndarray, relocated: dict[int, list]
) -> np.ndarray:
    """Per sighting: does its router have a position at the scan's time?

    ``static`` and ``relocated`` are ``ApDatabase.beacons`` over
    ``arrays.bssids``: a static router always places a scan, a relocated
    one only inside one of its segment intervals.
    """
    ap = arrays.scan_ap
    usable = static[ap]
    is_relocated = np.zeros(static.size, dtype=bool)
    is_relocated[list(relocated)] = True
    rel = np.nonzero(is_relocated[ap])[0]
    if rel.size:
        scan_of = np.repeat(np.arange(arrays.n_scans), arrays.scan_counts())
        rel_ts = arrays.scan_ts[scan_of[rel]]
        rel_ap = ap[rel]
        for a in np.unique(rel_ap).tolist():
            sel = rel_ap == a
            usable[rel[sel]] = in_segments(rel_ts[sel], relocated[a])
    return usable


def timeline_coverage(timelines: dict[UserId, BinnedTimeline]) -> CoverageSeries:
    """Per-(user, day) bins with data and bins estimated, added in sorted
    (user, day) order."""
    series = CoverageSeries()
    for user in sorted(timelines):
        tl = timelines[user]
        with_data: dict[int, int] = {}
        covered: dict[int, int] = {}
        for counts, bins in ((with_data, tl.bins_with_data), (covered, tl.bins)):
            for b in bins:
                day = (b * tl.bin_ms) // DAY_MS
                counts[day] = counts.get(day, 0) + 1
        for day in sorted(with_data):
            series.add(user, day, with_data[day], covered.get(day, 0))
    return series


def write_timeline_csv(timelines: dict[UserId, BinnedTimeline], path) -> None:
    """One row per bin with WiFi data; unresolved bins have empty lat/lon."""
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["user", "bin_index", "bin_start_ms", "lat", "lon", "support_count"])
        for user in sorted(timelines):
            tl = timelines[user]
            for bin_idx in sorted(tl.bins_with_data):
                est = tl.bins.get(bin_idx)
                if est is None:
                    writer.writerow([user, bin_idx, bin_idx * tl.bin_ms, "", "", 0])
                else:
                    writer.writerow(
                        [
                            user,
                            bin_idx,
                            bin_idx * tl.bin_ms,
                            repr(est.pos.lat_deg),
                            repr(est.pos.lon_deg),
                            len(est.support),
                        ]
                    )


def read_timeline_csv(path) -> dict[UserId, BinnedTimeline]:
    timelines: dict[UserId, BinnedTimeline] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            user = row["user"]
            tl = timelines.setdefault(user, BinnedTimeline(user=user))
            bin_idx = int(row["bin_index"])
            tl.bins_with_data.add(bin_idx)
            if row["lat"]:
                tl.bins[bin_idx] = PositionEstimate(
                    user=user,
                    ts=int(row["bin_start_ms"]),
                    pos=GeoPoint(float(row["lat"]), float(row["lon"])),
                    support=[],
                )
    return timelines
