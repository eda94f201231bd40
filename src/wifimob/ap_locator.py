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
from typing import Optional

import numpy as np

from .pairing import PairedEvents, _string_rank
from .trace_model import BssidId, GeoPoint, TimestampMs, UserId

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class LocatorConfig:
    eps_m: float = 100.0
    min_sightings: int = 5
    min_cluster_pts: int = 5
    clustered_fraction_min: float = 0.95

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


@dataclass(slots=True)
class ApDatabase:
    records: dict[BssidId, ApRecord]

    def get(self, bssid: BssidId) -> Optional[ApRecord]:
        return self.records.get(bssid)

    def router_table(self, bssids: list[BssidId]) -> RouterTable:
        """The records as a :class:`RouterTable` indexed like ``bssids``."""
        lat, lon = np.full(len(bssids), np.nan), np.full(len(bssids), np.nan)
        seg_count = np.zeros(len(bssids), dtype=np.int64)
        segments: list[ApSegment] = []
        for i, rec in enumerate(map(self.records.get, bssids)):
            if rec is None:
                continue
            if rec.ap_class is ApClass.STATIC and rec.pos is not None:
                lat[i], lon[i] = rec.pos.lat_deg, rec.pos.lon_deg
            elif rec.ap_class is ApClass.RELOCATED:
                seg_count[i] = len(rec.segments)
                segments += rec.segments
        start = np.array([s.interval.start for s in segments], dtype=np.int64)
        end = np.array([s.interval.end for s in segments], dtype=np.int64)
        seg_lat = np.array([s.pos.lat_deg for s in segments], dtype=np.float64)
        seg_lon = np.array([s.pos.lon_deg for s in segments], dtype=np.float64)
        seg_off = np.cumsum(seg_count) - seg_count
        return RouterTable(lat, lon, seg_off, seg_count, start, end, seg_lat, seg_lon)

    def census(self) -> dict[str, int]:
        counts = {c.value: 0 for c in ApClass}
        for rec in self.records.values():
            counts[rec.ap_class.value] += 1
        counts["total"] = len(self.records)
        return counts


@dataclass(frozen=True, slots=True)
class RouterTable:
    """Where the routers of a BSSID table place a scan, as columns indexed
    like that table: each static router's ``lat``/``lon`` (NaN for all
    others), and each relocated router's segments as its ``seg_count`` rows
    from ``seg_off`` of ``start``, ``end``, ``seg_lat`` and ``seg_lon``, in
    its record's listed order."""

    lat: np.ndarray
    lon: np.ndarray
    seg_off: np.ndarray
    seg_count: np.ndarray
    start: np.ndarray
    end: np.ndarray
    seg_lat: np.ndarray
    seg_lon: np.ndarray

    @property
    def placed(self) -> np.ndarray:
        """Mask of the routers that place a scan at some time."""
        return ~np.isnan(self.lat) | (self.seg_count > 0)

    def segment_at(self, router: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Segment row of ``router`` (indices into the BSSID table) at the
        times ``ts``: the router's first listed segment holding ``ts``, or -1
        where none does (every static, mobile or unknown router)."""
        out = np.full(router.size, -1, dtype=np.int64)
        rows = np.flatnonzero((self.seg_count > 0)[router])
        n = self.seg_count[router[rows]]
        # one candidate per (row, segment), each row's in listed order
        row = np.repeat(rows, n)
        seg = np.repeat(self.seg_off[router[rows]] - np.cumsum(n) + n, n) + np.arange(n.sum())
        inside = (self.start[seg] <= ts[row]) & (ts[row] <= self.end[seg])
        row, seg = row[inside], seg[inside]
        first = np.flatnonzero(np.diff(row, prepend=-1) != 0)
        out[row[first]] = seg[first]
        return out

    def place(self, router: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degree positions of ``router`` at the times ``ts``, as
        ``ApRecord.position_at`` gives them: NaN where it gives None."""
        lat, lon = self.lat[router], self.lon[router]
        seg = self.segment_at(router, ts)
        hit = seg >= 0
        lat[hit], lon[hit] = self.seg_lat[seg[hit]], self.seg_lon[seg[hit]]
        return lat, lon

    def labels(
        self, router: np.ndarray, ts: np.ndarray, bssids: list[BssidId]
    ) -> list[Optional[str]]:
        """Entropy location labels of ``router`` at the times ``ts``: the
        BSSID of a static router, ``BSSID#i`` inside the i-th listed segment
        of a relocated one, and None where the router places nothing."""
        seg = self.segment_at(router, ts)
        nth = np.where(seg >= 0, seg - self.seg_off[router], -1).tolist()
        static = (~np.isnan(self.lat[router])).tolist()
        return [
            bssids[r] if is_static else (f"{bssids[r]}#{i}" if i >= 0 else None)
            for r, is_static, i in zip(router.tolist(), static, nth)
        ]


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    return float(
        _haversine_rad(
            math.radians(a.lat_deg),
            math.radians(a.lon_deg),
            math.radians(b.lat_deg),
            math.radians(b.lon_deg),
        )
    )


def _haversine_rad(lat1, lon1, lat2, lon2):
    """Vectorized haversine on radian inputs. Shared by every distance check
    in this package so boundary comparisons are bit-identical everywhere."""
    sdlat = np.sin((lat2 - lat1) * 0.5)
    sdlon = np.sin((lon2 - lon1) * 0.5)
    h = sdlat * sdlat + np.cos(lat1) * np.cos(lat2) * sdlon * sdlon
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def haversine_m_arrays(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Elementwise great-circle distance over degree arrays."""
    return _haversine_rad(
        np.radians(lat1_deg),
        np.radians(lon1_deg),
        np.radians(lat2_deg),
        np.radians(lon2_deg),
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
        diag = _haversine_rad(lat.min(), lon.min(), lat.max(), lon.max())
        if diag <= eps_m:
            return [set(range(n))], set()

    cos_all = np.cos(lat)
    cos_min, cos_max = float(cos_all.min()), float(cos_all.max())
    lat_span = float(lat.max() - lat.min())
    lon_span = float(lon.max() - lon.min())
    # the grid path needs a locally flat cosine and no date-line wrap
    gridable = cos_min > 0.05 and cos_max / cos_min < 1.2 and lon_span < math.pi / 2

    if gridable and n > 64:
        assignment = _dbscan_grid(lat, lon, eps_m, min_pts, cos_max)
    else:
        assignment = _dbscan_brute(lat, lon, eps_m, min_pts)

    clusters_by_root: dict[int, set[int]] = {}
    noise: set[int] = set()
    for i in range(n):
        if assignment[i] < 0:
            noise.add(i)
        else:
            clusters_by_root.setdefault(int(assignment[i]), set()).add(i)
    clusters = sorted(clusters_by_root.values(), key=min)
    return clusters, noise


def _dbscan_brute(lat, lon, eps_m, min_pts):
    """Exact quadratic path for small or oddly spread inputs; returns the
    cluster id per point (-1 noise)."""
    n = lat.shape[0]
    adj = [
        np.nonzero(_haversine_rad(lat[i], lon[i], lat, lon) <= eps_m)[0]
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


def _dbscan_grid(lat, lon, eps_m, min_pts, cos_max):
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
    cell_rad = eps_m / EARTH_RADIUS_M / math.sqrt(2.0) * (1.0 - 1e-6)
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
            lat[a][:, None], lon[a][:, None], lat[b][None, :], lon[b][None, :]
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


def _lead_zero(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` split in runs of ``counts``, each run led by a 0.0, and
    the index of every leading zero.

    ``np.add.reduceat`` starts a run's sum from the run's first entry,
    ``run.sum()`` from zero; over led runs the two agree to the bit, and an
    empty run sums to 0.0.
    """
    heads = np.cumsum(counts) - counts + np.arange(counts.size)
    led = np.zeros(values.size + counts.size)
    body = np.ones(led.size, dtype=bool)
    body[heads] = False
    led[body] = values
    return led, heads


def geometric_medians(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    starts: np.ndarray,
    tol_m: float = 1e-6,
    max_iter: int = 20000,
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric medians of many point sets at once, as (lat, lon) arrays.

    Set ``i`` holds the points ``starts[i]`` up to ``starts[i + 1]`` (the
    last one to the end) of two degree arrays; no set may be empty.

    Each set runs Weiszfeld iterations on a local equirectangular plane
    about its centroid, which is exact to well under a centimeter at the
    sub-kilometer scales clusters have here. The stop threshold is
    deliberately tight: near-degenerate point sets give the iteration a long
    flat valley, and a loose step cutoff can park it tens of meters from the
    minimizer (Beck & Sabach 2015). When an iterate comes within 0.5 m of a
    data point that meets the vertex optimality condition (Vardi & Zhang
    2000), that point is the median; an iterate sitting on any other data point is nudged
    1 cm east. One point is its own median, and two return their midpoint
    (one of the infinitely many minimizers).

    Every iteration serves all sets still running with segment reductions
    over their points, each set led by a zero so that its sums are those of
    the set on its own: a set's median never depends on the others.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.diff(starts, append=lat_deg.shape[0])
    if starts.size == 0 or starts[0] != 0 or (counts < 1).any():
        raise ValueError("geometric_median of empty point set")
    out_lat = lat_deg[starts].astype(np.float64)
    out_lon = lon_deg[starts].astype(np.float64)
    multi = np.flatnonzero(counts > 1)
    if multi.size == 0:
        return out_lat, out_lon

    # the local plane of each set, its points led by a zero
    n = counts[multi]
    in_multi = np.repeat(counts > 1, counts)
    lat, heads = _lead_zero(lat_deg[in_multi], n)
    lon, _ = _lead_zero(lon_deg[in_multi], n)
    lat0 = np.add.reduceat(lat, heads) / n
    lon0 = np.add.reduceat(lon, heads) / n
    coslat = np.array([math.cos(math.radians(v)) for v in lat0.tolist()])
    size = n + 1
    x = np.radians(lon - np.repeat(lon0, size)) * EARTH_RADIUS_M * np.repeat(coslat, size)
    y = np.radians(lat - np.repeat(lat0, size)) * EARTH_RADIUS_M
    # zero heads keep every sum below per set; their distance is set to
    # infinity, so their weight is zero too
    x[heads] = 0.0
    y[heads] = 0.0
    px = np.add.reduceat(x, heads) / n
    py = np.add.reduceat(y, heads) / n
    # plane results; two points stop at their midpoint
    rx, ry = px.copy(), py.copy()

    ids = np.arange(n.size)

    def keep_sets(keep):
        nonlocal x, y, size, heads, ids, px, py
        at = np.repeat(keep, size)
        x, y = x[at], y[at]
        size, ids, px, py = size[keep], ids[keep], px[keep], py[keep]
        heads = np.cumsum(size) - size

    keep_sets(n > 2)
    for _ in range(max_iter):
        if ids.size == 0:
            break
        d = np.hypot(x - np.repeat(px, size), y - np.repeat(py, size))
        d[heads] = np.inf
        dmin = np.minimum.reduceat(d, heads)
        done = np.zeros(ids.size, dtype=bool)
        near = np.flatnonzero(dmin < 0.5)
        if near.size:
            # close to a data point: when that point satisfies the vertex
            # optimality condition it IS the median, and iterating further
            # would only creep toward it sublinearly
            vertex, vx, vy = _vertex_test(x, y, d, dmin, heads, size, near)
            done[near[vertex]] = True
            rx[ids[near[vertex]]] = vx[vertex]
            ry[ids[near[vertex]]] = vy[vertex]
        # sits on a non-optimal data point (some d < 1e-9); nudge east and retry
        nudge = (dmin < 1e-9) & ~done
        px[nudge] += 0.01
        step = ~(done | nudge)
        # a nudged set's infinite weights are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / d
            wsum = np.add.reduceat(w, heads)
            nx = np.add.reduceat(x * w, heads)[step] / wsum[step]
            ny = np.add.reduceat(y * w, heads)[step] / wsum[step]
        # Python's hypot, as in the one-set loop: numpy's may differ in the
        # last bit, and these norms decide when a set stops
        moved = np.array(
            list(map(math.hypot, (nx - px[step]).tolist(), (ny - py[step]).tolist()))
        )
        px[step], py[step] = nx, ny
        stopped = np.flatnonzero(step)[moved < tol_m]
        done[stopped] = True
        rx[ids[stopped]], ry[ids[stopped]] = px[stopped], py[stopped]
        if done.any():
            keep_sets(~done)
    rx[ids], ry[ids] = px, py

    out_lat[multi] = lat0 + np.degrees(ry / EARTH_RADIUS_M)
    out_lon[multi] = lon0 + np.degrees(rx / (EARTH_RADIUS_M * coslat))
    return out_lat, out_lon


def _vertex_test(x, y, d, dmin, heads, size, near):
    """For the sets ``near`` (indices into ``heads``): is the data point
    nearest the iterate, the first of them, optimal (its multiplicity at
    least the length of the summed unit vectors to the other points)? Also
    returns that point's plane coordinates."""
    m = size[near]
    local = np.cumsum(m) - m
    at = np.arange(m.sum()) + np.repeat(heads[near] - local, m)
    first = np.where(d[at] == np.repeat(dmin[near], m), at, at[-1] + 1)
    k = np.minimum.reduceat(first, local)
    xk, yk = x[k], y[k]
    dx = x[at] - np.repeat(xk, m)
    dy = y[at] - np.repeat(yk, m)
    dj = np.hypot(dx, dy)
    others = dj > 1e-9
    coincide = ~others
    others[local] = coincide[local] = False
    multiplicity = np.add.reduceat(coincide.astype(np.int64), local)
    n_others = np.add.reduceat(others.astype(np.int64), local)
    pull_x, led = _lead_zero(dx[others] / dj[others], n_others)
    pull_y, _ = _lead_zero(dy[others] / dj[others], n_others)
    pull_x = np.add.reduceat(pull_x, led).tolist()
    pull_y = np.add.reduceat(pull_y, led).tolist()
    vertex = np.array(
        [math.hypot(a, b) <= c for a, b, c in zip(pull_x, pull_y, multiplicity.tolist())]
    )
    return vertex, xk, yk


def geometric_median(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    tol_m: float = 1e-6,
    max_iter: int = 20000,
) -> GeoPoint:
    """Point minimizing the summed distance to the points of two degree
    arrays: ``geometric_medians`` of one set."""
    lat, lon = geometric_medians(lat_deg, lon_deg, [0], tol_m, max_iter)
    return GeoPoint(float(lat[0]), float(lon[0]))


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
    pending = _classify_unplaced(bssid, ts, lat, lon, contributors, cfg)
    _place([pending], ts, lat, lon, cfg)
    return pending[0]


def _classify_unplaced(
    bssid: BssidId,
    ts: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    contributors: frozenset[UserId],
    cfg: LocatorConfig,
) -> tuple[ApRecord, list[np.ndarray]]:
    """``classify_ap`` short of positions: the record with its class, and the
    rows of each cluster that needs a geometric median (one for a static
    router, one per segment in time order for a relocated one)."""
    n = ts.shape[0]
    record = ApRecord(bssid=bssid, ap_class=ApClass.INSUFFICIENT, n_sightings=n,
                      contributors=contributors)
    if n < cfg.min_sightings:
        return record, []

    clusters, noise = dbscan(lat, lon, cfg.eps_m, cfg.min_cluster_pts)
    record.ap_class = ApClass.MOBILE
    clustered = n - len(noise)
    if not clusters or clustered / n < cfg.clustered_fraction_min:
        return record, []

    members = [np.array(sorted(c), dtype=np.int64) for c in clusters]
    if len(members) == 1:
        record.ap_class = ApClass.STATIC
        return record, members

    intervals = [TimeInterval(int(ts[m].min()), int(ts[m].max())) for m in members]
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            if intervals[i].overlaps(intervals[j]):
                return record, []
    record.ap_class = ApClass.RELOCATED
    return record, [members[i] for i in np.argsort([iv.start for iv in intervals])]


def _place(
    pending: list[tuple[ApRecord, list[np.ndarray]]],
    ts: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    cfg: LocatorConfig,
) -> None:
    """Give each pending record of ``_classify_unplaced`` its positions, with
    one ``geometric_medians`` call over every cluster; cluster rows index
    ``ts``, ``lat`` and ``lon``."""
    clusters = [m for _, members in pending for m in members]
    if not clusters:
        return
    sizes = np.array([m.size for m in clusters])
    rows = np.concatenate(clusters)
    mlat, mlon = geometric_medians(lat[rows], lon[rows], np.cumsum(sizes) - sizes)
    positions = iter(zip(mlat.tolist(), mlon.tolist()))
    for record, members in pending:
        placed = [GeoPoint(*next(positions)) for _ in members]
        if record.ap_class is ApClass.STATIC:
            record.pos = placed[0]
        elif record.ap_class is ApClass.RELOCATED:
            record.segments = [
                ApSegment(pos=pos, interval=TimeInterval(int(ts[m].min()), int(ts[m].max())))
                for pos, m in zip(placed, members)
            ]


def build_database(
    pairs: PairedEvents,
    user_ids: list[UserId],
    bssids: list[BssidId],
    cfg: LocatorConfig = LocatorConfig(),
) -> ApDatabase:
    """Classify every access point in ``pairs``, in BSSID order.

    ``user_ids`` and ``bssids`` are the tables that ``pairs.user`` and
    ``pairs.ap`` index. One sort by (BSSID, ts, lat, lon) makes each access
    point a contiguous run of rows in the order ``classify_ap`` takes, so
    row order never affects the result. Every router is clustered first;
    one ``geometric_medians`` call then places all of them.
    """
    order = np.lexsort((pairs.lon, pairs.lat, pairs.ts, _string_rank(bssids)[pairs.ap]))
    ap, user = pairs.ap[order], pairs.user[order]
    ts, lat, lon = pairs.ts[order], pairs.lat[order], pairs.lon[order]
    bounds = np.flatnonzero(np.diff(ap, prepend=-1, append=-1))
    pending = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        bssid = bssids[ap[lo]]
        contributors = frozenset(user_ids[u] for u in np.unique(user[lo:hi]).tolist())
        record, members = _classify_unplaced(
            bssid, ts[lo:hi], lat[lo:hi], lon[lo:hi], contributors, cfg
        )
        pending.append((record, [lo + m for m in members]))
    _place(pending, ts, lat, lon, cfg)
    return ApDatabase(records={record.bssid: record for record, _ in pending})


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
        missing = [c for c in _APDB_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: AP database lacks columns {', '.join(missing)}")
        for row in reader:
            # DictReader fills a short row with None and keys a long row's
            # extra cells by None
            if None in row or None in row.values():
                raise ValueError(
                    f"{path}:{reader.line_num}: the row of {row['bssid']} does not have "
                    f"one cell per column of the header"
                )
            ap_class = ApClass(row["class"])
            pos = None
            segments: list[ApSegment] = []
            if ap_class is ApClass.STATIC and row["lat"]:
                pos = GeoPoint(float(row["lat"]), float(row["lon"]))
            elif ap_class is ApClass.RELOCATED and row["segments_json"]:
                segments = _read_segments(path, row["bssid"], json.loads(row["segments_json"]))
            records[row["bssid"]] = ApRecord(
                bssid=row["bssid"],
                ap_class=ap_class,
                n_sightings=int(row["n_sightings"]),
                pos=pos,
                segments=segments,
            )
    return ApDatabase(records=records)


_SEGMENT_KEYS = ("lat", "lon", "start_ms", "end_ms")


def _read_segments(path, bssid: BssidId, segments) -> list[ApSegment]:
    """The segments of one relocated router's ``segments_json`` cell."""
    if not isinstance(segments, list):
        raise ValueError(f"{path}: segments of {bssid} are not a JSON list")
    out = []
    for seg in segments:
        if not isinstance(seg, dict) or any(k not in seg for k in _SEGMENT_KEYS):
            raise ValueError(f"{path}: a segment of {bssid} lacks one of {', '.join(_SEGMENT_KEYS)}")
        if any(type(seg[k]) not in (int, float) for k in _SEGMENT_KEYS):
            raise ValueError(f"{path}: a segment of {bssid} holds a value that is not a number")
        out.append(ApSegment(GeoPoint(seg["lat"], seg["lon"]), TimeInterval(seg["start_ms"], seg["end_ms"])))
    return out
