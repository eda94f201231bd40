"""Synthetic city, access-point deployment, and sensor-log generation.

The generator is the ground-truth oracle for everything else: it builds a
city with a population-density field, drops access points where people live
(a few per anchor building plus density-weighted street routers), gives every
user a home, a work place, and a handful of other anchor places, simulates
stay/commute schedules with heavy-tailed stay durations, and finally emits
WiFi scans and GPS fixes exactly as a logging phone would.

Visibility is a hard disc: a scan lists every access point within
``visibility_radius_m`` of the device's true position, except that a scan is
dropped entirely (emitted empty) with probability ``scan_dropout``, the way
real collections lose a slice of scans to sleeping radios.

All randomness flows through counter-based Philox streams keyed by
``(seed, stream, index)``, so per-user streams are independent and the same
spec always produces byte-identical traces.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .coverage_metrics import DAY_MS
from .trace_model import (  # SensorArrays is re-exported from here
    GeoPoint,
    SensorArrays,
    _fix_json,
    _ragged_index,
    _rng,
    _scan_json,
    user_bounds,
)

# City frame: a fixed mid-latitude origin; all meter/degree conversions use
# the origin's cosine so they are exact inverses of each other.
CITY_LAT0 = 55.70
CITY_LON0 = 12.50
M_PER_DEG_LAT = math.pi * 6_371_000.0 / 180.0
M_PER_DEG_LON = M_PER_DEG_LAT * math.cos(math.radians(CITY_LAT0))


def _xy_to_latlon(x_m, y_m):
    return CITY_LAT0 + np.asarray(y_m) / M_PER_DEG_LAT, CITY_LON0 + np.asarray(x_m) / M_PER_DEG_LON


@dataclass(frozen=True, slots=True)
class WorldSpec:
    seed: int = 0
    n_users: int = 30
    n_days: int = 30
    extent_km: float = 8.0
    density_cells: int = 8
    # row-major density weights (density_cells x density_cells); None = radial
    density_weights: Optional[tuple] = None

    # access-point deployment: each anchor building hosts a guaranteed
    # minimum plus a density-scaled Poisson count, so busy districts carry
    # visibly more radios per scan than the outskirts
    ap_per_anchor_min: int = 1
    ap_anchor_base: float = 0.6
    ap_anchor_density_scale: float = 9.5
    ap_anchor_radius_m: float = 10.0
    campus_extra_aps: int = 8
    background_aps_per_km2: float = 38.0
    ap_density_noise_sigma: float = 0.5
    mobile_ap_fraction: float = 0.01
    # anchors spread flatter than raw density, the way homes sprawl outward
    anchor_density_power: float = 0.35

    # sensors
    visibility_radius_m: float = 100.0
    wifi_scan_period_s: float = 16.0
    gps_period_s: float = 600.0
    gps_noise_m: float = 10.0
    scan_dropout: float = 0.08

    # mobility: anchors are repeatedly visited places; errands and excursion
    # stops are one-off locations that never repeat, which is what keeps a
    # slice of every user's time out of reach of sparse training samples
    colocated_fraction: float = 0.6
    minor_anchors_range: tuple[int, int] = (2, 6)
    anchor_sep_m: float = 250.0
    # one-off stops draw from a city-wide pool of venues (cafes, shops)
    venues_per_user: float = 20.0
    p_errand: float = 1.0
    errand_density_power: float = 0.22
    p_excursion: float = 0.20
    excursion_stops: tuple[int, int] = (3, 5)
    minor_visit_probs: tuple[float, ...] = (0.9, 0.5)
    stay_pareto_alpha: float = 1.1
    stay_min_h: float = 0.5
    stay_max_h: float = 6.0
    walk_speed_mps: float = 1.4
    bus_speed_mps: float = 8.5
    walk_max_m: float = 700.0
    routine_change_day: Optional[int] = None
    # phone hotspots broadcast only during tethering sessions; owners tether
    # around midday and again in the evening
    hotspot_day_session_prob: float = 0.35
    hotspot_evening_session_prob: float = 0.55
    hotspot_session_h: tuple[float, float] = (0.8, 2.5)

    def validate(self) -> None:
        """Reject, naming the field, every value the generator cannot take."""
        for f in fields(self):
            if f.name != "density_weights" and not all(
                math.isfinite(v) for v in _numbers(getattr(self, f.name)) if isinstance(v, float)
            ):
                raise ValueError(f"{f.name} must be finite")
        for name in _POSITIVE_FIELDS:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in _NON_NEGATIVE_FIELDS:
            if not all(v >= 0 for v in _numbers(getattr(self, name))):
                raise ValueError(f"{name} must be non-negative")
        for name in _PROBABILITY_FIELDS:
            if not all(0.0 <= v <= 1.0 for v in _numbers(getattr(self, name))):
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.stay_min_h <= self.stay_max_h:
            raise ValueError("stay_min_h must not exceed stay_max_h")
        for name, n in zip(("wifi_scan_period_s", "gps_period_s"), _sensor_draws(self)):
            if n > _MAX_DRAWS_PER_USER:
                raise ValueError(
                    f"{name} is too short for {self.n_days} days: {n} draws per user, "
                    f"at most {_MAX_DRAWS_PER_USER}"
                )
        if self.density_weights is not None:
            try:
                w = np.asarray(self.density_weights, dtype=np.float64)
            except (TypeError, ValueError):
                w = np.empty(0)  # ragged or not numbers
            if w.size != self.density_cells**2:
                raise ValueError(
                    f"density_weights must hold density_cells**2 = {self.density_cells**2} numbers"
                )
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("density_weights must be finite and non-negative")
            if not w.sum() > 0:
                raise ValueError("density_weights are zero everywhere; nowhere to put anyone")
        for name in ("minor_anchors_range", "excursion_stops", "hotspot_session_h"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not 0 <= pair[0] <= pair[1]:
                raise ValueError(f"{name} must be a pair (lo, hi) with 0 <= lo <= hi")


def _numbers(value) -> tuple:
    """A field's value as a tuple of its numbers; an unset optional has none."""
    if value is None:
        return ()
    return value if isinstance(value, tuple) else (value,)


_POSITIVE_FIELDS = (
    "n_users", "n_days", "density_cells", "extent_km", "visibility_radius_m",
    "wifi_scan_period_s", "gps_period_s", "stay_pareto_alpha", "stay_min_h",
    "walk_speed_mps", "bus_speed_mps",
)
# counts, separations, radii and spreads; a routine change day is optional
_NON_NEGATIVE_FIELDS = (
    "seed", "ap_per_anchor_min", "ap_anchor_base", "ap_anchor_density_scale",
    "ap_anchor_radius_m", "campus_extra_aps", "background_aps_per_km2",
    "ap_density_noise_sigma", "gps_noise_m", "anchor_sep_m", "venues_per_user",
    "walk_max_m", "routine_change_day",
)
_PROBABILITY_FIELDS = (
    "mobile_ap_fraction", "colocated_fraction", "scan_dropout", "p_errand",
    "p_excursion", "minor_visit_probs", "hotspot_day_session_prob",
    "hotspot_evening_session_prob",
)
# bound on each user's scan gaps and GPS fixes, so that a too-short sensor
# period is a named error rather than an allocation of gigabytes
_MAX_DRAWS_PER_USER = 2**25


def _sensor_draws(spec: WorldSpec) -> tuple[int, int]:
    """Per user: the scan gaps drawn up front (a jittered gap is at least
    0.75 periods) and the most GPS fixes the span holds."""
    span_ms = spec.n_days * DAY_MS
    scan_gaps = span_ms / (spec.wifi_scan_period_s * 1000.0 * 0.75)
    fixes = span_ms / (spec.gps_period_s * 1000.0)
    # past 2**62 a count is out of bounds anyway; the cap keeps int() off inf
    return int(min(scan_gaps, 2.0**62)) + 2, int(min(fixes, 2.0**62)) + 1


MOBILE_HOTSPOT_SSIDS = ("AndroidAP", "iPhone")
MOBILE_TRANSIT_SSIDS = ("Commutenet", "Bedrebustur")


class _CityGrid:
    """Density field over the square city extent."""

    def __init__(self, spec: WorldSpec):
        n = spec.density_cells
        self.n = n
        self.extent_m = spec.extent_km * 1000.0
        self.cell_m = self.extent_m / n
        if spec.density_weights is not None:
            w = np.asarray(spec.density_weights, dtype=np.float64).reshape(n, n)
        else:
            idx = np.arange(n) + 0.5
            cy, cx = np.meshgrid(idx, idx, indexing="ij")
            d2 = (cx - n / 2.0) ** 2 + (cy - n / 2.0) ** 2
            w = np.exp(-d2 / (2.0 * (0.22 * n) ** 2)) + 0.03
        self.weights = w / w.max()

    def cell_of_xy(self, x_m, y_m):
        # x/y measured from the city center; cells clamp at the boundary
        j = np.clip(((np.asarray(x_m) + self.extent_m / 2) / self.cell_m).astype(np.int64), 0, self.n - 1)
        i = np.clip(((np.asarray(y_m) + self.extent_m / 2) / self.cell_m).astype(np.int64), 0, self.n - 1)
        return i, j

    def weight_at_xy(self, x_m, y_m):
        i, j = self.cell_of_xy(x_m, y_m)
        return self.weights[i, j]

    def cell_probs(self, power: float = 1.0) -> np.ndarray:
        """Each cell's share of weight^power, row-major."""
        w = self.weights ** power
        return (w / w.sum()).ravel()


class _PointIndex:
    """Fixed-radius neighbour search over static points, answered for many
    query points at once on a grid of radius-sized cells (Bentley 1975)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, radius_m: float):
        self.x, self.y, self.r = x, y, radius_m
        ci = np.floor(x / radius_m).astype(np.int64)
        cj = np.floor(y / radius_m).astype(np.int64)
        if x.size:
            self.lo_i, self.lo_j = int(ci.min()), int(cj.min())
            self.hi_i, self.hi_j = int(ci.max()), int(cj.max())
        else:
            self.lo_i = self.lo_j = 0
            self.hi_i = self.hi_j = -1
        key = self._cell_key(ci, cj)
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def _cell_key(self, ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
        """Row-major key of each cell in the points' bounding box; -1 outside it."""
        inside = (ci >= self.lo_i) & (ci <= self.hi_i) & (cj >= self.lo_j) & (cj <= self.hi_j)
        width = self.hi_j - self.lo_j + 1
        return np.where(inside, (ci - self.lo_i) * width + (cj - self.lo_j), -1)

    def query(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR hits ``(offsets, ids)``: row k lists the indices within planar
        distance <= radius of ``(qx[k], qy[k])``, ascending."""
        n = qx.size
        qi = np.floor(qx / self.r).astype(np.int64)
        qj = np.floor(qy / self.r).astype(np.int64)
        # each query's 3x3 window as up to nine contiguous runs of self.order
        lo, cnt = [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                key = self._cell_key(qi + di, qj + dj)
                a = np.searchsorted(self.keys, key, side="left")
                lo.append(a)
                cnt.append(np.searchsorted(self.keys, key, side="right") - a)
        lo, cnt = np.concatenate(lo), np.concatenate(cnt)
        row = np.repeat(np.tile(np.arange(n), 9), cnt)
        run_start = np.cumsum(cnt) - cnt
        cand = self.order[np.arange(row.size) - np.repeat(run_start - lo, cnt)]
        dx = self.x[cand] - qx[row]
        dy = self.y[cand] - qy[row]
        hit = dx * dx + dy * dy <= self.r * self.r
        row, cand = row[hit], cand[hit]
        order = np.lexsort((cand, row))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=offsets[1:])
        return offsets, cand[order]


@dataclass(slots=True)
class _UserSegments:
    """Piecewise trajectory: contiguous stay/move segments covering the span."""

    t0: np.ndarray  # ms
    t1: np.ndarray  # ms
    kind: np.ndarray  # 0 stay, 1 move
    x0: np.ndarray  # meters in the city frame
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    anchor: np.ndarray  # anchor id for stays; -1 one-off stay; -2 move
    is_bus: np.ndarray  # move segments ridden on the user's bus

    def position_xy(self, ts_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.clip(np.searchsorted(self.t1, ts_ms, side="right"), 0, len(self.t0) - 1)
        span = np.maximum(self.t1[idx] - self.t0[idx], 1)
        frac = np.clip((ts_ms - self.t0[idx]) / span, 0.0, 1.0)
        frac = np.where(self.kind[idx] == 1, frac, 0.0)
        x = self.x0[idx] + (self.x1[idx] - self.x0[idx]) * frac
        y = self.y0[idx] + (self.y1[idx] - self.y0[idx]) * frac
        return x, y


@dataclass(slots=True)
class UserAnchors:
    home: int
    work: int
    minors: list[int]


@dataclass(slots=True)
class MobileAp:
    ap_id: int  # global AP id (>= n_static)
    owner: int  # user index
    kind: str  # "hotspot" or "bus"
    ssid: str


@dataclass(slots=True)
class GroundTruth:
    """Everything the generator knows; the oracle the pipeline is tested against."""

    spec: WorldSpec
    grid: _CityGrid
    user_ids: list[str]
    # anchor pool
    anchor_x: np.ndarray
    anchor_y: np.ndarray
    campus_anchor: Optional[int]
    anchors_pre: list[UserAnchors]
    anchors_post: list[UserAnchors]  # == pre when no routine change
    # shared one-off venues
    venue_x: np.ndarray
    venue_y: np.ndarray
    # static access points
    ap_x: np.ndarray
    ap_y: np.ndarray
    ap_anchor: np.ndarray  # owning anchor id or -1 for street routers
    # mobile access points
    mobile_aps: list[MobileAp]
    # trajectories
    segments: list[_UserSegments]

    @property
    def n_static(self) -> int:
        return int(self.ap_x.size)

    @property
    def n_aps(self) -> int:
        return self.n_static + len(self.mobile_aps)

    def bssid(self, ap_id: int) -> str:
        if ap_id < self.n_static:
            base, tag = ap_id, "02"
        else:
            base, tag = ap_id - self.n_static, "0a"
        octets = [(base >> shift) & 0xFF for shift in (32, 24, 16, 8, 0)]
        return tag + ":" + ":".join(f"{o:02x}" for o in octets)

    def bssids(self) -> list[str]:
        return [self.bssid(i) for i in range(self.n_aps)]

    def ssid(self, ap_id: int) -> Optional[str]:
        if ap_id < self.n_static:
            return None
        return self.mobile_aps[ap_id - self.n_static].ssid

    def static_positions(self) -> dict[str, GeoPoint]:
        lat, lon = _xy_to_latlon(self.ap_x, self.ap_y)
        return {
            self.bssid(i): GeoPoint(float(lat[i]), float(lon[i]))
            for i in range(self.n_static)
        }

    def position_at(self, user: int, ts_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.segments[user].position_xy(np.asarray(ts_ms, dtype=np.int64))
        return _xy_to_latlon(x, y)

    def stay_seconds_by_anchor(self, user: int, t0_ms: int, t1_ms: int) -> dict[int, float]:
        """Stay time per anchor id inside [t0, t1); one-off stops count as -1."""
        seg = self.segments[user]
        out: dict[int, float] = {}
        for i in range(len(seg.t0)):
            if seg.kind[i] != 0:
                continue
            lo = max(int(seg.t0[i]), t0_ms)
            hi = min(int(seg.t1[i]), t1_ms)
            if hi > lo:
                a = int(seg.anchor[i])
                out[a] = out.get(a, 0.0) + (hi - lo) / 1000.0
        return out


def _place_separated(
    rng: np.random.Generator,
    grid: _CityGrid,
    count: int,
    sep_m: float,
    taken: np.ndarray,
    power: float = 1.0,
) -> np.ndarray:
    """``taken`` (an (n, 2) array) followed by ``count`` new density-weighted
    points, each at least sep_m (>= 0) from every earlier one (relaxing to
    sep/2 when the rejection budget runs out), as an (n + count, 2) array.

    Draws exactly what ``rng.choice(n * n, p=p)`` and two ``rng.random()``
    per candidate would, in the same order, with the CDF built once."""
    n = len(taken)
    xy = np.empty((n + count, 2))
    xy[:n] = taken
    if count == 0:
        return xy
    p = grid.cell_probs(power)
    cdf = p.cumsum()
    if not (np.all(p >= 0) and cdf[-1] > 0):
        raise ValueError(f"density weights ** {power} give no cell probabilities")
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    half_m = grid.extent_m / 2
    separate = sep_m > 0
    # placed points by sep_m-wide cell, keyed (floor(x / sep_m), floor(y / sep_m))
    near: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def add(x: float, y: float) -> None:
        near.setdefault((math.floor(x / sep_m), math.floor(y / sep_m)), []).append((x, y))

    def crowded(x: float, y: float, min_sep: float) -> bool:
        """Whether a placed point lies closer than min_sep (<= sep_m). Such a
        point is within sep_m of (x, y) on both axes, so its cell is one that
        [x - sep_m, x + sep_m] x [y - sep_m, y + sep_m] touches: the
        candidate's 3 x 3 cells, with bounds that rounding cannot move past
        the point, since rounding is monotone."""
        lim = min_sep * min_sep
        cols = range(math.floor((y - sep_m) / sep_m), math.floor((y + sep_m) / sep_m) + 1)
        for ci in range(math.floor((x - sep_m) / sep_m), math.floor((x + sep_m) / sep_m) + 1):
            for cj in cols:
                for qx, qy in near.get((ci, cj), ()):
                    if (qx - x) * (qx - x) + (qy - y) * (qy - y) < lim:
                        return True
        return False

    if separate:
        for qx, qy in xy[:n].tolist():
            add(qx, qy)
    for k in range(n, n + count):
        for attempt in range(60):
            i, j = divmod(bisect_right(cdf, rng.random()), grid.n)
            x = (j + rng.random()) * grid.cell_m - half_m
            y = (i + rng.random()) * grid.cell_m - half_m
            if not (separate and crowded(x, y, sep_m if attempt < 40 else sep_m / 2)):
                break
        # a crowded world accepts the last candidate, overlap and all
        xy[k] = x, y
        if separate:
            add(x, y)
    return xy


def _user_ids(n_users: int) -> list[str]:
    """``u000``, ``u001``, ...: zero-padded to one width, at least three
    digits, so that string order is index order, as ingest's sorted user
    table has it."""
    width = max(3, len(str(n_users - 1)))
    return [f"u{i:0{width}d}" for i in range(n_users)]


def generate_world(spec: WorldSpec) -> GroundTruth:
    """Build the city, anchors, access points, and trajectories."""
    spec.validate()
    grid = _CityGrid(spec)
    n_users = spec.n_users
    user_ids = _user_ids(n_users)

    rng_place = _rng(spec.seed, 0)

    # --- anchors ---------------------------------------------------------
    # every anchor, then every venue, in placement order; a point's row is
    # its anchor id
    pts = np.empty((0, 2))

    def place(count: int, power: float) -> list[int]:
        nonlocal pts
        first = len(pts)
        pts = _place_separated(rng_place, grid, count, spec.anchor_sep_m, pts, power=power)
        return list(range(first, len(pts)))

    n_colocated = round(spec.colocated_fraction * n_users)
    colocated = set(range(n_colocated))

    pw = spec.anchor_density_power
    campus_anchor: Optional[int] = None
    if n_colocated > 0:
        # the shared campus sits in a busy district
        campus_anchor = place(1, 4.0)[0]

    # dorm pairs: some colocated users share one home point
    dorm_pairs = n_colocated // 3

    home_of: dict[int, int] = {}
    for pair in range(dorm_pairs):
        home_of[2 * pair] = home_of[2 * pair + 1] = place(1, pw)[0]
    for u in range(n_users):
        if u not in home_of:
            home_of[u] = place(1, pw)[0]

    work_of: dict[int, int] = {}
    for u in range(n_users):
        if u in colocated and campus_anchor is not None:
            work_of[u] = campus_anchor
        else:
            work_of[u] = place(1, pw)[0]

    minors_of: dict[int, list[int]] = {}
    lo, hi = spec.minor_anchors_range
    for u in range(n_users):
        minors_of[u] = place(int(rng_place.integers(lo, hi + 1)), pw)

    n_anchors = len(pts)
    anchor_x = pts[:, 0].copy()
    anchor_y = pts[:, 1].copy()

    # venues keep the same separation as anchors so no access point can be
    # sighted from two distinct stop locations
    place(max(1, round(spec.venues_per_user * n_users)), spec.errand_density_power)
    venue_x = pts[n_anchors:, 0].copy()
    venue_y = pts[n_anchors:, 1].copy()

    anchors_pre = [
        UserAnchors(home=home_of[u], work=work_of[u], minors=list(minors_of[u]))
        for u in range(n_users)
    ]

    # routine change: users adopt another user's home and minor places, so the
    # places are new to them but already frequented inside the population
    if spec.routine_change_day is not None and n_users >= 2:
        shift = max(1, n_users // 2)
        anchors_post = []
        for u in range(n_users):
            donor = (u + shift) % n_users
            anchors_post.append(
                UserAnchors(
                    home=anchors_pre[donor].home,
                    work=anchors_pre[u].work,
                    minors=list(anchors_pre[donor].minors),
                )
            )
    else:
        anchors_post = anchors_pre

    # --- static access points -------------------------------------------
    rng_aps = _rng(spec.seed, 1)
    ap_xs: list[float] = []
    ap_ys: list[float] = []
    ap_anchor_ids: list[int] = []

    for aid in range(n_anchors):
        w = float(grid.weight_at_xy(anchor_x[aid], anchor_y[aid]))
        mean_ap = spec.ap_anchor_base + spec.ap_anchor_density_scale * w
        extra = max(0, round(rng_aps.normal(mean_ap, 0.9))) if mean_ap > 0 else 0
        n_ap = spec.ap_per_anchor_min + extra
        if campus_anchor is not None and aid == campus_anchor:
            n_ap += spec.campus_extra_aps
        for _ in range(n_ap):
            r = spec.ap_anchor_radius_m * math.sqrt(rng_aps.random())
            theta = rng_aps.random() * 2 * math.pi
            ap_xs.append(float(anchor_x[aid]) + r * math.cos(theta))
            ap_ys.append(float(anchor_y[aid]) + r * math.sin(theta))
            ap_anchor_ids.append(aid)

    # street routers: density-weighted with multiplicative lognormal noise
    area_km2 = spec.extent_km * spec.extent_km
    n_background = int(round(spec.background_aps_per_km2 * area_km2))
    if n_background > 0:
        noise = rng_aps.lognormal(mean=0.0, sigma=spec.ap_density_noise_sigma, size=grid.weights.shape)
        raw = grid.weights * noise
        p = (raw / raw.sum()).ravel()
        counts = rng_aps.multinomial(n_background, p).reshape(grid.weights.shape)
        for i in range(grid.n):
            for j in range(grid.n):
                c = int(counts[i, j])
                if c == 0:
                    continue
                x = (j + rng_aps.random(c)) * grid.cell_m - grid.extent_m / 2
                y = (i + rng_aps.random(c)) * grid.cell_m - grid.extent_m / 2
                ap_xs.extend(float(v) for v in x)
                ap_ys.extend(float(v) for v in y)
                ap_anchor_ids.extend([-1] * c)

    ap_x = np.array(ap_xs, dtype=np.float64)
    ap_y = np.array(ap_ys, dtype=np.float64)
    ap_anchor = np.array(ap_anchor_ids, dtype=np.int64)
    n_static = ap_x.size

    # --- mobile access points ---------------------------------------------
    n_mobile = int(round(spec.mobile_ap_fraction * n_static))
    n_hotspots = min(n_users, (2 * n_mobile + 2) // 3)
    n_buses = min(n_users, n_mobile - n_hotspots)

    mobile_aps: list[MobileAp] = []
    # hotspot owners: dorm sharers first (their hotspots get sighted at two
    # distinct shared places), then loners whose hotspots nobody ever sees
    dorm_users = list(range(2 * dorm_pairs))
    isolated_users = [u for u in range(n_users) if u not in colocated]
    hotspot_owners = sorted((dorm_users + isolated_users)[:n_hotspots])
    # the longest commutes ride buses
    dist = np.hypot(
        anchor_x[[a.home for a in anchors_pre]] - anchor_x[[a.work for a in anchors_pre]],
        anchor_y[[a.home for a in anchors_pre]] - anchor_y[[a.work for a in anchors_pre]],
    )
    bus_riders = sorted(int(r) for r in np.argsort(-dist, kind="stable")[:n_buses])
    for kind, owners, names in (
        ("hotspot", hotspot_owners, MOBILE_HOTSPOT_SSIDS),
        ("bus", bus_riders, MOBILE_TRANSIT_SSIDS),
    ):
        for k, owner in enumerate(owners):
            ap_id = n_static + len(mobile_aps)
            mobile_aps.append(MobileAp(ap_id, owner, kind, names[k % len(names)]))

    # --- trajectories ------------------------------------------------------
    segments = []
    for u in range(n_users):
        segments.append(
            _build_segments(
                spec,
                grid,
                _rng(spec.seed, 3, u),
                anchor_x,
                anchor_y,
                venue_x,
                venue_y,
                anchors_pre[u],
                anchors_post[u],
                has_bus=u in bus_riders,
            )
        )

    return GroundTruth(
        spec=spec,
        grid=grid,
        user_ids=user_ids,
        anchor_x=anchor_x,
        anchor_y=anchor_y,
        campus_anchor=campus_anchor,
        anchors_pre=anchors_pre,
        anchors_post=anchors_post,
        venue_x=venue_x,
        venue_y=venue_y,
        ap_x=ap_x,
        ap_y=ap_y,
        ap_anchor=ap_anchor,
        mobile_aps=mobile_aps,
        segments=segments,
    )


def _trunc_pareto_hours(rng, alpha: float, lo_h: float, hi_h: float) -> float:
    u = rng.random()
    # inverse-CDF of a Pareto truncated to [lo, hi]
    lo_a, hi_a = lo_h ** -alpha, hi_h ** -alpha
    return (lo_a - u * (lo_a - hi_a)) ** (-1.0 / alpha)


def _build_segments(
    spec: WorldSpec,
    grid: _CityGrid,
    rng: np.random.Generator,
    anchor_x: np.ndarray,
    anchor_y: np.ndarray,
    venue_x: np.ndarray,
    venue_y: np.ndarray,
    pre: UserAnchors,
    post: UserAnchors,
    has_bus: bool,
) -> _UserSegments:
    """Stay/commute schedule for one user across the whole span."""
    H = 3600.0
    span_s = spec.n_days * 86400.0
    change_s = (
        spec.routine_change_day * 86400.0 if spec.routine_change_day is not None else None
    )

    # one row per segment: (t0, t1, kind, x0, y0, x1, y1, anchor, is_bus)
    rows: list[tuple] = []

    def anchor_pos(aid: int) -> tuple[float, float]:
        return float(anchor_x[aid]), float(anchor_y[aid])

    def anchors_at(t_s: float) -> UserAnchors:
        if change_s is not None and t_s >= change_s:
            return post
        return pre

    cursor_t = 0.0
    cursor_pos = anchor_pos(pre.home)
    cursor_anchor = pre.home

    def stay_until(t_s: float, aid: int, pos: tuple[float, float]) -> None:
        nonlocal cursor_t, cursor_pos, cursor_anchor
        if t_s > cursor_t:
            rows.append((cursor_t, t_s, 0, *pos, *pos, aid, False))
            cursor_t = t_s
        cursor_pos = pos
        cursor_anchor = aid

    def move_to(pos: tuple[float, float], aid: int, bus_ok: bool) -> None:
        nonlocal cursor_t, cursor_pos, cursor_anchor
        dist = math.hypot(pos[0] - cursor_pos[0], pos[1] - cursor_pos[1])
        if dist < 1.0:
            cursor_anchor = aid
            cursor_pos = pos
            return
        speed = spec.walk_speed_mps if dist < spec.walk_max_m else spec.bus_speed_mps
        dur = dist / speed + 30.0
        bus = bus_ok and dist >= spec.walk_max_m
        rows.append((cursor_t, cursor_t + dur, 1, *cursor_pos, *pos, -2, bus))
        cursor_t += dur
        cursor_pos = pos
        cursor_anchor = aid

    for day in range(spec.n_days):
        base = day * 86400.0
        today = anchors_at(base)
        wake = base + float(np.clip(rng.normal(7.55, 0.5), 6.2, 9.3)) * H
        depart = wake + rng.uniform(0.4, 1.0) * H
        # overnight-at-home reaches to this morning's departure
        stay_until(depart, today.home, anchor_pos(today.home))
        day_end_cap = base + 23.3 * H

        def one_off_stop(min_h: float, max_h: float) -> None:
            v = int(rng.integers(0, venue_x.size))
            move_to((float(venue_x[v]), float(venue_y[v])), -1, bus_ok=False)
            dur = _trunc_pareto_hours(rng, spec.stay_pareto_alpha, min_h, max_h) * H
            stay_until(min(cursor_t + dur, day_end_cap), -1, cursor_pos)

        if rng.random() < spec.p_excursion:
            n_stops = int(rng.integers(spec.excursion_stops[0], spec.excursion_stops[1] + 1))
            for _ in range(n_stops):
                if cursor_t >= day_end_cap - 0.7 * H:
                    break
                one_off_stop(0.8, 5.0)
        else:
            move_to(anchor_pos(today.work), today.work, bus_ok=has_bus)
            work_end = max(
                cursor_t + 2.5 * H,
                base + float(np.clip(rng.normal(14.6, 0.9), 12.5, 17.5)) * H,
            )
            stay_until(min(work_end, day_end_cap), today.work, cursor_pos)
            if rng.random() < spec.p_errand and cursor_t < day_end_cap - 0.8 * H:
                one_off_stop(0.8, 3.0)
            if today.minors:
                weights = np.array(
                    [1.0 / (r + 1) ** 1.15 for r in range(len(today.minors))]
                )
                weights /= weights.sum()
                for p_visit in spec.minor_visit_probs:
                    if rng.random() >= p_visit:
                        break
                    if cursor_t >= day_end_cap - 0.6 * H:
                        break
                    target = int(rng.choice(len(today.minors), p=weights))
                    aid = today.minors[target]
                    move_to(anchor_pos(aid), aid, bus_ok=False)
                    dur = (
                        _trunc_pareto_hours(
                            rng, spec.stay_pareto_alpha, spec.stay_min_h, spec.stay_max_h
                        )
                        * H
                    )
                    stay_until(min(cursor_t + dur, day_end_cap), aid, cursor_pos)

        tonight = anchors_at(cursor_t)
        move_to(anchor_pos(tonight.home), tonight.home, bus_ok=has_bus and cursor_anchor == tonight.work)
        next_depart = span_s if day == spec.n_days - 1 else (day + 1) * 86400.0
        stay_until(next_depart, tonight.home, cursor_pos)

    # final fill is re-cut each morning by stay_until, so close the span now
    if cursor_t < span_s:
        stay_until(span_s, cursor_anchor, cursor_pos)

    t0, t1, kind, x0, y0, x1, y1, anchor, is_bus = zip(*rows)
    return _UserSegments(
        t0=np.array([round(t * 1000) for t in t0], dtype=np.int64),
        t1=np.array([round(t * 1000) for t in t1], dtype=np.int64),
        kind=np.array(kind, dtype=np.int8),
        x0=np.array(x0, dtype=np.float64),
        y0=np.array(y0, dtype=np.float64),
        x1=np.array(x1, dtype=np.float64),
        y1=np.array(y1, dtype=np.float64),
        anchor=np.array(anchor, dtype=np.int64),
        is_bus=np.array(is_bus, dtype=bool),
    )


def simulate_sensor_arrays(gt: GroundTruth, spec: Optional[WorldSpec] = None) -> SensorArrays:
    """Emit the full sensor log as compact arrays. ``spec``, when given, must
    be the one ``gt`` was generated from, which ``generate_world`` validated."""
    if spec is not None and spec != gt.spec:
        differ = [f.name for f in fields(spec) if getattr(spec, f.name) != getattr(gt.spec, f.name)]
        raise ValueError(f"spec differs from the world's in {', '.join(differ)}")
    spec = gt.spec
    n_users = spec.n_users
    span_ms = spec.n_days * DAY_MS
    vis = spec.visibility_radius_m

    ap_index = _PointIndex(gt.ap_x, gt.ap_y, vis)

    hotspot_by_owner = {m.owner: m.ap_id for m in gt.mobile_aps if m.kind == "hotspot"}
    bus_by_owner = {m.owner: m.ap_id for m in gt.mobile_aps if m.kind == "bus"}

    # tethering sessions per hotspot owner, drawn from a dedicated stream so
    # every viewer sees the same session schedule
    sessions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for owner in sorted(hotspot_by_owner):
        rng = _rng(spec.seed, 5, owner)
        s0, s1 = [], []
        for day in range(spec.n_days):
            for prob, lo_h, hi_h in (
                (spec.hotspot_day_session_prob, 9.5, 14.0),
                (spec.hotspot_evening_session_prob, 17.5, 21.5),
            ):
                if rng.random() < prob:
                    dur_h = rng.uniform(*spec.hotspot_session_h)
                    start_h = rng.uniform(lo_h, hi_h)
                    s0.append(round((day * 24.0 + start_h) * 3_600_000))
                    s1.append(round((day * 24.0 + min(start_h + dur_h, 24.0)) * 3_600_000))
        sessions[owner] = (np.array(s0, dtype=np.int64), np.array(s1, dtype=np.int64))

    def _intersect(t0a, t1a, t0b, t1b):
        out0, out1 = [], []
        i = j = 0
        while i < len(t0a) and j < len(t0b):
            lo = max(t0a[i], t0b[j])
            hi = min(t1a[i], t1b[j])
            if lo < hi:
                out0.append(lo)
                out1.append(hi)
            if t1a[i] <= t1b[j]:
                i += 1
            else:
                j += 1
        return np.array(out0, dtype=np.int64), np.array(out1, dtype=np.int64)

    # broadcast windows of hotspot owners at every multi-user anchor point,
    # so co-present users sight each other's hotspots while tethering is on
    anchor_users: dict[int, set[int]] = {}
    for u in range(n_users):
        seg = gt.segments[u]
        for aid in np.unique(seg.anchor[seg.kind == 0]):
            if aid >= 0:
                anchor_users.setdefault(int(aid), set()).add(u)
    shared_anchor_hotspots: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for aid, users in anchor_users.items():
        if len(users) < 2:
            continue
        entries = []
        for owner in sorted(users):
            hid = hotspot_by_owner.get(owner)
            if hid is None:
                continue
            seg = gt.segments[owner]
            mask = (seg.kind == 0) & (seg.anchor == aid)
            if not mask.any():
                continue
            on0, on1 = _intersect(seg.t0[mask], seg.t1[mask], *sessions[owner])
            if on0.size:
                entries.append((owner, on0, on1))
        if entries:
            shared_anchor_hotspots[aid] = entries

    # scan schedules, period jittered +-25%: the first draw of each user's
    # stream, taken up front so that every scan column is allocated once at
    # its final size; the loop below continues each user's stream
    period_ms = spec.wifi_scan_period_s * 1000.0
    n_est, _ = _sensor_draws(spec)
    rngs, schedules = [], []
    for u in range(n_users):
        rng = _rng(spec.seed, 4, u)
        ts = np.cumsum(rng.uniform(0.75, 1.25, size=n_est) * period_ms)
        schedules.append(ts[ts < span_ms].astype(np.int64))
        rngs.append(rng)
    scan_ts = np.concatenate(schedules)
    bounds = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum([s.size for s in schedules], out=bounds[1:])
    del schedules
    scan_user = np.repeat(np.arange(n_users, dtype=np.int32), np.diff(bounds))
    # each scan's sighting count lands at scan_off[1 + scan]; one cumsum at
    # the end turns the counts into offsets
    scan_off = np.zeros(scan_ts.size + 1, dtype=np.int64)

    all_fix = []
    rows_of = []  # per user: the query's CSR, each kept scan's row, mobile inserts

    for u in range(n_users):
        rng = rngs[u]
        seg = gt.segments[u]
        lo, hi = int(bounds[u]), int(bounds[u + 1])
        ts = scan_ts[lo:hi]

        seg_idx = np.clip(np.searchsorted(seg.t1, ts, side="right"), 0, len(seg.t0) - 1)
        dropped = rng.random(ts.size) < spec.scan_dropout

        # static routers of every kept scan in one batched query: a stay scan
        # asks once per stay segment at its point, a move scan at its own
        # position; each scan lists its query's CSR row
        kept = np.nonzero(~dropped)[0]
        kseg = seg_idx[kept]
        stay = seg.kind[kseg] == 0
        stay_seg, stay_row = np.unique(kseg[stay], return_inverse=True)
        move = kept[~stay]
        mx, my = seg.position_xy(ts[move])
        q_off, q_ids = ap_index.query(
            np.concatenate([seg.x0[stay_seg], mx]), np.concatenate([seg.y0[stay_seg], my])
        )
        qrow = np.empty(kept.size, dtype=np.int32)  # int32: held until the scan_ap fill
        qrow[stay] = stay_row
        qrow[~stay] = stay_seg.size + np.arange(move.size)

        # mobile routers, whose ids are above every static id, go at their
        # row's end: the rider's bus while aboard, and the hotspots of other
        # owners tethering at a shared anchor (a device never lists its own)
        mob_row, mob_id = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        own_bus = bus_by_owner.get(u)
        if own_bus is not None:
            aboard = np.nonzero(seg.is_bus[kseg])[0]
            mob_row.append(aboard)
            mob_id.append(np.full(aboard.size, own_bus))
        kanchor = seg.anchor[kseg]  # >= 0 on stays at an anchor only
        for aid in np.unique(kanchor[kanchor >= 0]):
            rows = np.nonzero(kanchor == aid)[0]
            t = ts[kept[rows]]
            for owner, iv0, iv1 in shared_anchor_hotspots.get(int(aid), ()):
                if owner == u:
                    continue
                pos = np.searchsorted(iv0, t, side="right") - 1
                inside = (pos >= 0) & (t < iv1[np.clip(pos, 0, len(iv1) - 1)])
                mob_row.append(rows[inside])
                mob_id.append(np.full(int(inside.sum()), hotspot_by_owner[owner]))
        row, mid = np.concatenate(mob_row), np.concatenate(mob_id)
        order = np.lexsort((mid, row))
        scan_off[1 + lo : 1 + hi][kept] = np.diff(q_off)[qrow] + np.bincount(row, minlength=kept.size)
        rows_of.append((q_off, q_ids.astype(np.int32), qrow, row[order], mid[order]))

        # GPS fixes: strict period with a random phase, Gaussian position noise
        gps_ms = spec.gps_period_s * 1000.0
        phase = rng.uniform(0, gps_ms)
        fts = (phase + np.arange(int((span_ms - phase) / gps_ms) + 1) * gps_ms).astype(np.int64)
        fts = fts[fts < span_ms]
        fx, fy = seg.position_xy(fts)
        fx = fx + rng.normal(0.0, spec.gps_noise_m, size=fts.size)
        fy = fy + rng.normal(0.0, spec.gps_noise_m, size=fts.size)
        flat_lat, flat_lon = _xy_to_latlon(fx, fy)

        all_fix.append((np.full(fts.size, u, dtype=np.int32), fts, flat_lat, flat_lon))

    fix_user = np.concatenate([f[0] for f in all_fix])
    fix_ts = np.concatenate([f[1] for f in all_fix])
    fix_lat = np.concatenate([f[2] for f in all_fix])
    fix_lon = np.concatenate([f[3] for f in all_fix])

    np.cumsum(scan_off, out=scan_off)
    # each user's sightings go straight into scan_ap; holding them per user
    # for one final concatenate kept grid_30d's peak RSS 10-13 % higher,
    # as the allocator held on to the freed per-user parts
    scan_ap = np.empty(scan_off[-1], dtype=np.int32)
    lo = 0
    for q_off, q_ids, qrow, row, mid in rows_of:
        at, lens = _ragged_index(q_off, qrow)
        ids = np.insert(q_ids[at], np.cumsum(lens)[row], mid)
        scan_ap[lo : lo + ids.size] = ids
        lo += ids.size

    return SensorArrays(
        user_ids=gt.user_ids,
        bssids=gt.bssids(),
        fix_user=fix_user,
        fix_ts=fix_ts,
        fix_lat=fix_lat,
        fix_lon=fix_lon,
        fix_acc=np.full(fix_ts.size, spec.gps_noise_m, dtype=np.float32),
        scan_user=scan_user,
        scan_ts=scan_ts,
        scan_off=scan_off,
        scan_ap=scan_ap,
    )


def density_count_r2(gt: GroundTruth, arrays: SensorArrays) -> float:
    """r-squared of per-scan AP count against the density weight of the cell
    at the scan's true position; ``arrays`` is ``gt``'s simulated log."""
    bounds = user_bounds(arrays.scan_user, len(arrays.user_ids))
    w = np.empty(arrays.n_scans, dtype=np.float32)
    for u, seg in enumerate(gt.segments):
        lo, hi = bounds[u], bounds[u + 1]
        w[lo:hi] = gt.grid.weight_at_xy(*seg.position_xy(arrays.scan_ts[lo:hi]))
    w = w.astype(np.float64)
    counts = arrays.scan_counts().astype(np.float64)
    if counts.size < 2 or counts.std() == 0 or w.std() == 0:
        return 0.0
    r = np.corrcoef(w, counts)[0, 1]
    return float(r * r)


def write_dataset(gt: GroundTruth, arrays: SensorArrays, out_dir) -> dict[str, int]:
    """Write gps.jsonl / wifi.jsonl plus the ground-truth sidecar files.

    ``arrays`` is ``gt``'s simulated log, so its router indices are ``gt``'s
    router ids; a mobile router's sightings carry its SSID."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "gps.jsonl").open("w", encoding="utf-8") as fh:
        for k in range(arrays.fix_ts.size):
            line = _fix_json(
                arrays.user_ids[arrays.fix_user[k]],
                int(arrays.fix_ts[k]),
                float(arrays.fix_lat[k]),
                float(arrays.fix_lon[k]),
                round(float(arrays.fix_acc[k]), 3),
            )
            fh.write(line)
            fh.write("\n")

    line_cache: dict[bytes, str] = {}
    with (out / "wifi.jsonl").open("w", encoding="utf-8") as fh:
        off = arrays.scan_off
        for k in range(arrays.n_scans):
            ids = arrays.scan_ap[off[k] : off[k + 1]]
            key = ids.tobytes()
            tail = line_cache.get(key)
            if tail is None:
                line = _scan_json("", 0, ((arrays.bssids[i], gt.ssid(i), None) for i in ids))
                tail = line[line.index('"aps"') :]
                line_cache[key] = tail
            user = arrays.user_ids[arrays.scan_user[k]]
            fh.write('{"user":"%s","ts_ms":%d,%s\n' % (user, int(arrays.scan_ts[k]), tail))

    with (out / "truth_aps.csv").open("w", encoding="utf-8") as fh:
        fh.write("bssid,class,lat,lon,ssid\n")
        lat, lon = _xy_to_latlon(gt.ap_x, gt.ap_y)
        for i in range(gt.n_aps):
            if i < gt.n_static:
                fh.write(f"{gt.bssid(i)},static,{float(lat[i])!r},{float(lon[i])!r},\n")
            else:
                fh.write(f"{gt.bssid(i)},mobile,,,{gt.ssid(i)}\n")

    with (out / "truth_positions.csv").open("w", encoding="utf-8") as fh:
        fh.write("user,ts_ms,lat,lon\n")
        minute_ts = np.arange(0, gt.spec.n_days * DAY_MS, 60_000, dtype=np.int64)
        for u, uid in enumerate(gt.user_ids):
            lat, lon = gt.position_at(u, minute_ts)
            for k in range(minute_ts.size):
                fh.write(f"{uid},{int(minute_ts[k])},{float(lat[k])!r},{float(lon[k])!r}\n")

    spec_dict = asdict(gt.spec)
    with (out / "world.json").open("w", encoding="utf-8") as fh:
        json.dump(spec_dict, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    return {
        "users": len(gt.user_ids),
        "days": gt.spec.n_days,
        "static_aps": gt.n_static,
        "mobile_aps": len(gt.mobile_aps),
        "gps_fixes": int(arrays.fix_ts.size),
        "wifi_scans": arrays.n_scans,
    }
