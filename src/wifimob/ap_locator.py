"""Access-point classification and position estimation.

Each access point's paired observations are clustered with DBSCAN under a
great-circle metric. The outcome decides its class:

* fewer observations than ``min_sightings``          -> insufficient
* clustered fraction below ``clustered_fraction_min`` -> mobile
* exactly one cluster                                 -> static, positioned at
  the geometric median of the cluster's points
* several clusters whose time intervals are pairwise
  disjoint                                            -> relocated (one
  positioned segment per cluster)
* several clusters overlapping in time                -> mobile

The DBSCAN here is deliberately order-free so results never depend on
scheduling: a point is core when its closed eps-neighborhood (including
itself) holds at least ``min_pts`` points; clusters are the connected
components of core points under the eps relation; a non-core point joins the
cluster of its lowest-index core neighbor, scanning indices ascending.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .pairing import PairedEvents, _string_rank
from .trace_model import (
    BssidId,
    GeoPoint,
    TimestampMs,
    UserId,
    WifiScan,
)

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class LocatorConfig:
    eps_m: float = 100.0
    min_sightings: int = 5
    min_cluster_pts: int = 5
    clustered_fraction_min: float = 0.95
    earth_radius_m: float = EARTH_RADIUS_M

    def __post_init__(self) -> None:
        if self.eps_m <= 0:
            raise ValueError("eps_m must be positive")
        if not 0 < self.clustered_fraction_min <= 1:
            raise ValueError("clustered_fraction_min must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class TimeInterval:
    start: TimestampMs
    end: TimestampMs

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")

    def contains(self, ts: TimestampMs) -> bool:
        return self.start <= ts <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start <= other.end and other.start <= self.end


class ApClass(str, Enum):
    STATIC = "static"
    RELOCATED = "relocated"
    MOBILE = "mobile"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True, slots=True)
class ApSegment:
    pos: GeoPoint
    interval: TimeInterval


@dataclass(slots=True)
class ApRecord:
    bssid: BssidId
    ap_class: ApClass
    n_sightings: int
    pos: Optional[GeoPoint] = None
    segments: list[ApSegment] = field(default_factory=list)
    contributors: frozenset[UserId] = frozenset()

    def position_at(self, ts: TimestampMs) -> Optional[GeoPoint]:
        """Usable position at ``ts``, or None for mobile/insufficient records
        and for relocated records outside every segment interval."""
        if self.ap_class is ApClass.STATIC:
            return self.pos
        if self.ap_class is ApClass.RELOCATED:
            for seg in self.segments:
                if seg.interval.contains(ts):
                    return seg.pos
        return None

    def label_at(self, ts: TimestampMs) -> Optional[str]:
        """Stable location-label for entropy accounting."""
        if self.ap_class is ApClass.STATIC:
            return self.bssid
        if self.ap_class is ApClass.RELOCATED:
            for i, seg in enumerate(self.segments):
                if seg.interval.contains(ts):
                    return f"{self.bssid}#{i}"
        return None


@dataclass(slots=True)
class ApDatabase:
    records: dict[BssidId, ApRecord]
    built_from: str = ""

    def get(self, bssid: BssidId) -> Optional[ApRecord]:
        return self.records.get(bssid)

    def beacons(
        self, bssids: list[BssidId]
    ) -> tuple[np.ndarray, dict[int, list[tuple[TimestampMs, TimestampMs]]]]:
        """Which routers of a BSSID table place a scan, and when: a mask of
        the static routers with a position, and the (start, end) segment
        intervals of each relocated router by its index in ``bssids``, for
        ``in_segments``. Mirrors ``ApRecord.position_at``."""
        static = np.zeros(len(bssids), dtype=bool)
        relocated = {}
        for i, bssid in enumerate(bssids):
            rec = self.records.get(bssid)
            if rec is None:
                continue
            if rec.ap_class is ApClass.STATIC:
                static[i] = rec.pos is not None
            elif rec.ap_class is ApClass.RELOCATED:
                relocated[i] = [(s.interval.start, s.interval.end) for s in rec.segments]
        return static, relocated

    def census(self) -> dict[str, int]:
        counts = {c.value: 0 for c in ApClass}
        for rec in self.records.values():
            counts[rec.ap_class.value] += 1
        counts["total"] = len(self.records)
        return counts


def in_segments(ts: np.ndarray, intervals: list[tuple[TimestampMs, TimestampMs]]) -> np.ndarray:
    """Per timestamp: does it fall in one of a relocated router's closed
    (start, end) segment intervals, as ``ApDatabase.beacons`` lists them?
    The array form of ``ApRecord.position_at``."""
    inside = np.zeros(ts.shape, dtype=bool)
    for start, end in intervals:
        inside |= (ts >= start) & (ts <= end)
    return inside


def haversine_m(a: GeoPoint, b: GeoPoint, radius_m: float = EARTH_RADIUS_M) -> float:
    """Great-circle distance in meters between two points."""
    return float(
        _haversine_rad(
            math.radians(a.lat_deg),
            math.radians(a.lon_deg),
            math.radians(b.lat_deg),
            math.radians(b.lon_deg),
            radius_m,
        )
    )


def _haversine_rad(lat1, lon1, lat2, lon2, radius_m):
    """Vectorized haversine on radian inputs. Shared by every distance check
    in this package so boundary comparisons are bit-identical everywhere."""
    sdlat = np.sin((lat2 - lat1) * 0.5)
    sdlon = np.sin((lon2 - lon1) * 0.5)
    h = sdlat * sdlat + np.cos(lat1) * np.cos(lat2) * sdlon * sdlon
    return 2.0 * radius_m * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def haversine_m_arrays(
    lat1_deg, lon1_deg, lat2_deg, lon2_deg, radius_m: float = EARTH_RADIUS_M
):
    """Elementwise great-circle distance over degree arrays."""
    return _haversine_rad(
        np.radians(lat1_deg),
        np.radians(lon1_deg),
        np.radians(lat2_deg),
        np.radians(lon2_deg),
        radius_m,
    )


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller root so component ids are stable
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def dbscan(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    eps_m: float,
    min_pts: int,
    radius_m: float = EARTH_RADIUS_M,
) -> tuple[list[set[int]], set[int]]:
    """Cluster points given as degree arrays; returns (clusters, noise) as
    index sets, clusters ordered by their smallest member index."""
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = lat_deg.shape[0]
    if n == 0:
        return [], set()

    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)

    # Fast path: when the whole set fits inside one eps ball, every point is
    # mutually reachable. Tight single-building point clouds hit this almost
    # always.
    if n >= min_pts:
        diag = _haversine_rad(lat.min(), lon.min(), lat.max(), lon.max(), radius_m)
        if diag <= eps_m:
            return [set(range(n))], set()

    cos_all = np.cos(lat)
    cos_min, cos_max = float(cos_all.min()), float(cos_all.max())
    lat_span = float(lat.max() - lat.min())
    lon_span = float(lon.max() - lon.min())
    # the grid path needs a locally flat cosine and no date-line wrap
    gridable = cos_min > 0.05 and cos_max / cos_min < 1.2 and lon_span < math.pi / 2

    if gridable and n > 64:
        assignment = _dbscan_grid(lat, lon, eps_m, min_pts, radius_m, cos_max)
    else:
        assignment = _dbscan_brute(lat, lon, eps_m, min_pts, radius_m)

    clusters_by_root: dict[int, set[int]] = {}
    noise: set[int] = set()
    for i in range(n):
        if assignment[i] < 0:
            noise.add(i)
        else:
            clusters_by_root.setdefault(int(assignment[i]), set()).add(i)
    clusters = sorted(clusters_by_root.values(), key=min)
    return clusters, noise


def _dbscan_brute(lat, lon, eps_m, min_pts, radius_m):
    """Exact quadratic path for small or oddly spread inputs; returns the
    cluster id per point (-1 noise)."""
    n = lat.shape[0]
    adj = [
        np.nonzero(_haversine_rad(lat[i], lon[i], lat, lon, radius_m) <= eps_m)[0]
        for i in range(n)
    ]
    core = np.array([nb.size >= min_pts for nb in adj])
    uf = _UnionFind(n)
    border_nb = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        core_nb = adj[i][core[adj[i]]]
        if core[i]:
            for j in core_nb:
                uf.union(i, int(j))
        elif core_nb.size:
            border_nb[i] = core_nb[0]
    root = np.array([uf.find(i) for i in range(n)], dtype=np.int64)
    return np.where(core, root, np.where(border_nb >= 0, root[border_nb], -1))


# distance evaluations per block when testing a core cell pair for a link
_LINK_BLOCK = 16_384


def _dbscan_grid(lat, lon, eps_m, min_pts, radius_m, cos_max):
    """Exact grid path (Gunawan 2013; de Berg, Gunawan & Roeloffzen 2019).

    Cells a hair under eps/sqrt(2) put same-cell points within eps of each
    other, so a cell of at least ``min_pts`` points is all core and every
    border or noise point sits in a sparser cell. Only sparse cells count
    neighbors, in one block against their 5x5 window (points within eps are
    at most two cells apart on either axis). Cells holding cores are the
    union-find nodes; each unordered cell pair is tested once, in row
    chunks that stop at the first core pair within eps. Returns the cluster
    id per point (-1 noise).
    """
    n = lat.shape[0]
    cell_rad = eps_m / radius_m / math.sqrt(2.0) * (1.0 - 1e-6)
    ci = np.floor(lat / cell_rad).astype(np.int64)
    cj = np.floor(lon * cos_max / cell_rad).astype(np.int64)

    # ascending point index within each cell
    order = np.lexsort((np.arange(n), cj, ci))
    new_cell = np.ones(n, dtype=bool)
    new_cell[1:] = (ci[order][1:] != ci[order][:-1]) | (cj[order][1:] != cj[order][:-1])
    cells = np.split(order, np.flatnonzero(new_cell)[1:])
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[order] = np.cumsum(new_cell) - 1
    keys = [(int(ci[m[0]]), int(cj[m[0]])) for m in cells]
    index = {key: c for c, key in enumerate(keys)}
    offsets = [(di, dj) for di in range(-2, 3) for dj in range(-2, 3)]
    window = [
        [index[(i + di, j + dj)] for di, dj in offsets if (i + di, j + dj) in index]
        for i, j in keys
    ]

    def within(a, b):
        return _haversine_rad(
            lat[a][:, None], lon[a][:, None], lat[b][None, :], lon[b][None, :], radius_m
        ) <= eps_m

    core = np.zeros(n, dtype=bool)
    sparse = []
    for c, members in enumerate(cells):
        if members.size >= min_pts:
            core[members] = True
        else:
            around = np.concatenate([cells[o] for o in window[c]])
            near = within(members, around)
            core[members] = near.sum(axis=1) >= min_pts
            sparse.append((members, around, near))

    uf = _UnionFind(len(cells))
    cores = [m[core[m]] for m in cells]
    for c, a in enumerate(cores):
        for o in window[c]:
            b = cores[o]
            if o <= c or not (a.size and b.size) or uf.find(c) == uf.find(o):
                continue
            step = max(1, _LINK_BLOCK // b.size)
            if any(within(a[s : s + step], b).any() for s in range(0, a.size, step)):
                uf.union(c, o)

    root = np.array([uf.find(c) for c in range(len(cells))], dtype=np.int64)
    assignment = np.where(core, root[cell_of], -1)
    # a non-core point joins the cluster of its lowest-index core neighbor
    for members, around, near in sparse:
        border = ~core[members]
        lowest = np.where(near[border] & core[around], around, n).min(axis=1, initial=n)
        rows, hit = members[border], lowest < n
        assignment[rows[hit]] = root[cell_of[lowest[hit]]]
    return assignment


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


def geometric_median(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    radius_m: float = EARTH_RADIUS_M,
    tol_m: float = 1e-6,
    max_iter: int = 20000,
) -> GeoPoint:
    """Point minimizing the summed distance to the points of two degree arrays.

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


def classify_ap(
    bssid: BssidId,
    ts: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    contributors: frozenset[UserId],
    cfg: LocatorConfig = LocatorConfig(),
) -> ApRecord:
    """Classify one access point from the columns of its paired observations,
    sorted by (ts, lat, lon); ``contributors`` are the users they came from."""
    n = ts.shape[0]
    if n < cfg.min_sightings:
        return ApRecord(
            bssid=bssid,
            ap_class=ApClass.INSUFFICIENT,
            n_sightings=n,
            contributors=contributors,
        )

    clusters, noise = dbscan(lat, lon, cfg.eps_m, cfg.min_cluster_pts, cfg.earth_radius_m)

    clustered = n - len(noise)
    if not clusters or clustered / n < cfg.clustered_fraction_min:
        return ApRecord(
            bssid=bssid,
            ap_class=ApClass.MOBILE,
            n_sightings=n,
            contributors=contributors,
        )

    members = [np.array(sorted(c), dtype=np.int64) for c in clusters]
    if len(clusters) == 1:
        pos = geometric_median(lat[members[0]], lon[members[0]], radius_m=cfg.earth_radius_m)
        return ApRecord(
            bssid=bssid,
            ap_class=ApClass.STATIC,
            n_sightings=n,
            pos=pos,
            contributors=contributors,
        )

    intervals = [TimeInterval(int(ts[m].min()), int(ts[m].max())) for m in members]
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            if intervals[i].overlaps(intervals[j]):
                return ApRecord(
                    bssid=bssid,
                    ap_class=ApClass.MOBILE,
                    n_sightings=n,
                    contributors=contributors,
                )

    segments = [
        ApSegment(
            pos=geometric_median(lat[m], lon[m], radius_m=cfg.earth_radius_m),
            interval=interval,
        )
        for m, interval in zip(members, intervals)
    ]
    segments.sort(key=lambda s: s.interval.start)
    return ApRecord(
        bssid=bssid,
        ap_class=ApClass.RELOCATED,
        n_sightings=n,
        segments=segments,
        contributors=contributors,
    )


def build_database(
    pairs: PairedEvents,
    user_ids: list[UserId],
    bssids: list[BssidId],
    cfg: LocatorConfig = LocatorConfig(),
    built_from: str = "",
) -> ApDatabase:
    """Classify every access point in ``pairs``, in BSSID order.

    ``user_ids`` and ``bssids`` are the tables that ``pairs.user`` and
    ``pairs.ap`` index. One sort by (BSSID, ts, lat, lon) makes each access
    point a contiguous run of rows in the order ``classify_ap`` takes, so
    row order never affects the result.
    """
    order = np.lexsort((pairs.lon, pairs.lat, pairs.ts, _string_rank(bssids)[pairs.ap]))
    ap, user = pairs.ap[order], pairs.user[order]
    ts, lat, lon = pairs.ts[order], pairs.lat[order], pairs.lon[order]
    bounds = np.flatnonzero(np.diff(ap, prepend=-1, append=-1))
    records = {}
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        bssid = bssids[ap[lo]]
        contributors = frozenset(user_ids[u] for u in np.unique(user[lo:hi]).tolist())
        records[bssid] = classify_ap(
            bssid, ts[lo:hi], lat[lo:hi], lon[lo:hi], contributors, cfg
        )
    return ApDatabase(records=records, built_from=built_from)


@dataclass(slots=True)
class SsidValidationCounts:
    """How labeled-SSID devices came out of classification."""

    mobile: int = 0
    static: int = 0
    relocated: int = 0
    insufficient: int = 0
    unseen: int = 0

    @property
    def classified(self) -> int:
        return self.mobile + self.static + self.relocated

    @property
    def recall(self) -> Optional[float]:
        """Fraction of classified labeled devices that came out mobile."""
        if self.classified == 0:
            return None
        return self.mobile / self.classified


def validate_against_named_ssids(
    db: ApDatabase,
    scans: Iterable[WifiScan],
    mobile_ssids: set[str],
) -> SsidValidationCounts:
    """Check classification against devices whose SSID marks them as mobile.

    Devices with too few sightings to classify are tallied separately and
    excluded from recall.
    """
    if not mobile_ssids:
        raise ValueError("mobile_ssids must be non-empty")
    flagged: set[BssidId] = set()
    for scan in scans:
        for s in scan.sightings:
            if s.ssid is not None and s.ssid in mobile_ssids:
                flagged.add(s.bssid)
    counts = SsidValidationCounts()
    for bssid in sorted(flagged):
        rec = db.get(bssid)
        if rec is None:
            counts.unseen += 1
        elif rec.ap_class is ApClass.MOBILE:
            counts.mobile += 1
        elif rec.ap_class is ApClass.STATIC:
            counts.static += 1
        elif rec.ap_class is ApClass.RELOCATED:
            counts.relocated += 1
        else:
            counts.insufficient += 1
    return counts


_APDB_COLUMNS = [
    "bssid",
    "class",
    "lat",
    "lon",
    "n_sightings",
    "segments_json",
    "contributors_count",
]


def write_apdb_csv(db: ApDatabase, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(_APDB_COLUMNS)
        for bssid in sorted(db.records):
            rec = db.records[bssid]
            lat = lon = ""
            segments = ""
            if rec.ap_class is ApClass.STATIC and rec.pos is not None:
                lat, lon = repr(rec.pos.lat_deg), repr(rec.pos.lon_deg)
            elif rec.ap_class is ApClass.RELOCATED:
                segments = json.dumps(
                    [
                        {
                            "lat": seg.pos.lat_deg,
                            "lon": seg.pos.lon_deg,
                            "start_ms": seg.interval.start,
                            "end_ms": seg.interval.end,
                        }
                        for seg in rec.segments
                    ],
                    separators=(",", ":"),
                )
            writer.writerow(
                [bssid, rec.ap_class.value, lat, lon, rec.n_sightings, segments, len(rec.contributors)]
            )


def read_apdb_csv(path) -> ApDatabase:
    """Load a database written by :func:`write_apdb_csv`.

    Contributor identities are not stored in the CSV, only their count, so
    loaded records carry empty contributor sets.
    """
    records: dict[BssidId, ApRecord] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            ap_class = ApClass(row["class"])
            pos = None
            segments: list[ApSegment] = []
            if ap_class is ApClass.STATIC and row["lat"]:
                pos = GeoPoint(float(row["lat"]), float(row["lon"]))
            elif ap_class is ApClass.RELOCATED and row["segments_json"]:
                for seg in json.loads(row["segments_json"]):
                    segments.append(
                        ApSegment(
                            pos=GeoPoint(seg["lat"], seg["lon"]),
                            interval=TimeInterval(seg["start_ms"], seg["end_ms"]),
                        )
                    )
            records[row["bssid"]] = ApRecord(
                bssid=row["bssid"],
                ap_class=ap_class,
                n_sightings=int(row["n_sightings"]),
                pos=pos,
                segments=segments,
            )
    return ApDatabase(records=records, built_from=str(path))
