"""Turning WiFi scans plus a located-AP database into position estimates.

A scan resolves to a position when at least one sighted access point has a
usable position at the scan's timestamp. With several hits the estimate is
the geometric median of the access-point positions, which keeps one badly
placed router from dragging the estimate far off.

Timelines bin estimates into ten-minute time bins (``DEFAULT_BIN_MS``);
the first resolvable scan in a bin provides the bin's estimate. A timeline is
a set of columns, built for all scans at once; ``resolve_scan`` places one
scan and is the per-scan reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ap_locator import ApDatabase, geometric_median, geometric_medians
from .coverage_metrics import DEFAULT_BIN_MS, CoverageSeries, _day_runs, _run_starts
from .pairing import _string_rank
from .trace_model import (
    BssidId,
    GeoPoint,
    SensorArrays,
    TimestampMs,
    UserId,
    WifiScan,
    user_bounds,
)


@dataclass(slots=True)
class PositionEstimate:
    user: UserId
    ts: TimestampMs
    pos: GeoPoint
    support: list[BssidId]


@dataclass(slots=True)
class BinnedTimeline:
    """One user's binned timeline as columns: ``bins_with_data`` holds every
    bin that saw any scan at all, ``bins`` those that resolved (both sorted).
    Parallel to ``bins``: the bin's chosen scan time, its position estimate,
    the number of usable hits behind it and the index, in the log's BSSID
    table, of the smallest BSSID among them (-1 when read from a file)."""

    user: UserId
    bins_with_data: np.ndarray
    bins: np.ndarray
    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    support_count: np.ndarray
    first_support: np.ndarray


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


def build_timeline(arrays: SensorArrays, db: ApDatabase) -> dict[UserId, BinnedTimeline]:
    """Per-user binned timelines of a columnar log.

    Each (user, bin) run's first resolvable scan is chosen, and its usable
    hits are gathered in BSSID order and placed, all with array operations;
    one ``geometric_medians`` call then estimates every chosen scan. Each
    user's scans are in time order, as :class:`SensorArrays` guarantees, so
    the first resolvable scan of a bin is the earliest.
    """
    u, t, off, ap = arrays.scan_user, arrays.scan_ts, arrays.scan_off, arrays.scan_ap
    bins = t // DEFAULT_BIN_MS

    # per sighting: does its router have a position at the scan's time? A
    # static router always does, a relocated one only inside a segment
    table = db.router_table(arrays.bssids)
    usable = (~np.isnan(table.lat))[ap]
    rel = np.flatnonzero((table.seg_count > 0)[ap])
    rel_ts = t[np.searchsorted(off, rel, side="right") - 1]
    usable[rel] = ~np.isnan(table.place(ap[rel], rel_ts)[0])

    # does each scan hold a usable sighting? empty scans hold none
    nonempty = np.flatnonzero(off[1:] > off[:-1])
    resolvable = np.zeros(t.size, dtype=bool)
    if nonempty.size:
        resolvable[nonempty] = np.logical_or.reduceat(usable, off[nonempty])
    res = np.flatnonzero(resolvable)
    first = res[_run_starts(u[res], bins[res])]

    # the chosen scans' usable hits in (scan, BSSID) order; a BSSID listed
    # twice in a scan counts twice
    flat, counts = arrays.sighting_index(first)
    keep = usable[flat]
    del nonempty, resolvable, res, usable  # scan- and sighting-long; freed before the medians
    hit_ap = ap[flat[keep]]
    hit_scan = np.repeat(np.arange(first.size), counts)[keep]
    order = np.lexsort((_string_rank(arrays.bssids)[hit_ap], hit_scan))
    hit_ap, hit_scan = hit_ap[order], hit_scan[order]

    lat, lon = table.place(hit_ap, t[first][hit_scan])
    n_hits = np.bincount(hit_scan, minlength=first.size)
    starts = np.cumsum(n_hits) - n_hits
    if first.size:
        lat, lon = geometric_medians(lat, lon, starts)
    columns = dict(bins=bins[first], ts=t[first], lat=lat, lon=lon, support_count=n_hits,
                   first_support=hit_ap[starts].astype(np.int64))

    data = _run_starts(u, bins)
    data_bounds = user_bounds(u[data], len(arrays.user_ids))
    res_bounds = user_bounds(u[first], len(arrays.user_ids))
    return {
        arrays.user_ids[k]: BinnedTimeline(
            user=arrays.user_ids[k],
            bins_with_data=bins[data[data_bounds[k] : data_bounds[k + 1]]],
            **{name: col[res_bounds[k] : res_bounds[k + 1]] for name, col in columns.items()},
        )
        for k in np.flatnonzero(np.diff(data_bounds)).tolist()
    }


def timeline_coverage(timelines: dict[UserId, BinnedTimeline]) -> CoverageSeries:
    """Per-(user, day) bins with data and bins estimated, added in sorted
    (user, day) order."""
    series = CoverageSeries()
    for user in sorted(timelines):
        tl = timelines[user]
        _, days, n_cov = _day_runs(np.zeros_like(tl.bins), tl.bins, DEFAULT_BIN_MS)
        covered = dict(zip(days, n_cov))
        _, days, n_data = _day_runs(np.zeros_like(tl.bins_with_data), tl.bins_with_data, DEFAULT_BIN_MS)
        for day, n in zip(days, n_data):
            series.add(user, day, n, covered.get(day, 0))
    return series


def write_timeline_csv(timelines: dict[UserId, BinnedTimeline], path) -> None:
    """One row per bin with WiFi data; unresolved bins have empty lat, lon
    and ts_ms, the time of the scan that placed the bin."""
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["user", "bin_index", "bin_start_ms", "lat", "lon", "support_count", "ts_ms"])
        for user in sorted(timelines):
            tl = timelines[user]
            cells = zip(map(repr, tl.lat.tolist()), map(repr, tl.lon.tolist()),
                        tl.support_count.tolist(), tl.ts.tolist())
            has_estimate = np.isin(tl.bins_with_data, tl.bins).tolist()
            for b, hit in zip(tl.bins_with_data.tolist(), has_estimate):
                row = next(cells) if hit else ("", "", 0, "")
                writer.writerow([user, b, b * DEFAULT_BIN_MS, *row])


def read_timeline_csv(path) -> dict[UserId, BinnedTimeline]:
    """Timelines as ``write_timeline_csv`` wrote them. The file does not
    hold each estimate's first support, so it reads back as -1."""
    by_user: dict[UserId, list[dict]] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if "ts_ms" not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: timeline has no ts_ms column")
        for row in reader:
            by_user.setdefault(row["user"], []).append(row)
    timelines: dict[UserId, BinnedTimeline] = {}
    for user, user_rows in by_user.items():
        est = [r for r in user_rows if r["lat"]]
        ints = lambda key, rows=est: np.array([int(r[key]) for r in rows], dtype=np.int64)
        floats = lambda key: np.array([float(r[key]) for r in est], dtype=np.float64)
        timelines[user] = BinnedTimeline(
            user=user,
            bins_with_data=ints("bin_index", user_rows),
            bins=ints("bin_index"),
            ts=ints("ts_ms"),
            lat=floats("lat"),
            lon=floats("lon"),
            support_count=ints("support_count"),
            first_support=np.full(len(est), -1, dtype=np.int64),
        )
    return timelines
