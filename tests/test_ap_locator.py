import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_dbscan,
    build_database_from_records,
    build_simple_database,
    classify_records,
    geometric_median_loop,
    grid_search_median,
    label_at,
    latlon,
    pair_columns,
    router_groups,
)
from wifimob import ap_locator
from wifimob.ap_locator import (
    ApClass,
    ApRecord,
    ApSegment,
    TimeInterval,
    build_database,
    dbscan,
    geometric_median,
    geometric_medians,
    haversine_m,
    read_apdb_csv,
    write_apdb_csv,
)
from wifimob.pairing import PairedEvents, PairedObservation
from wifimob.trace_model import GeoPoint

LAT0, LON0 = 55.7, 12.5
M_PER_DEG_LAT = 111194.92664455873


def _offset(east_m=0.0, north_m=0.0, lat0=LAT0, lon0=LON0):
    return GeoPoint(
        lat0 + north_m / M_PER_DEG_LAT,
        lon0 + east_m / (M_PER_DEG_LAT * math.cos(math.radians(lat0))),
    )


def _obs(bssid, positions, ts0=0, step_ms=60_000, user="u"):
    return [
        PairedObservation(bssid=bssid, pos=p, ts=ts0 + i * step_ms, user=user)
        for i, p in enumerate(positions)
    ]


class TestHaversine:
    def test_zero(self):
        assert haversine_m(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_one_degree_arc(self):
        # pi * R / 180 with R = 6371 km
        d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(111194.9266, abs=0.1)

    def test_antipodal(self):
        d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * 6_371_000, abs=1)

    def test_symmetry(self):
        a, b = GeoPoint(55.7, 12.5), GeoPoint(55.8, 12.4)
        assert haversine_m(a, b) == haversine_m(b, a)


class TestDbscan:
    def test_six_points_in_small_disc(self):
        pts = [_offset(dx, dy) for dx, dy in [(0, 0), (3, 1), (-2, 4), (5, -3), (1, 1), (-4, -2)]]
        clusters, noise = dbscan(*latlon(pts), eps_m=100, min_pts=5)
        assert clusters == [set(range(6))]
        assert noise == set()

    def test_two_groups_one_km_apart(self):
        near = [_offset(dx, 0) for dx in [0, 5, 10, 15, 20, 25]]
        far = [_offset(1000 + dx, 0) for dx in [0, 5, 10, 15, 20, 25]]
        clusters, noise = dbscan(*latlon(near + far), eps_m=100, min_pts=5)
        assert clusters == [set(range(6)), set(range(6, 12))]
        assert noise == set()

    def test_sparse_points_are_noise(self):
        pts = [_offset(400 * i, 0) for i in range(5)]
        clusters, noise = dbscan(*latlon(pts), eps_m=100, min_pts=3)
        assert clusters == []
        assert noise == set(range(5))

    def test_min_pts_validated(self):
        lat, lon = latlon([_offset(0, 0)] * 3)
        for n in (0, 3):
            with pytest.raises(ValueError, match="min_pts"):
                dbscan(lat[:n], lon[:n], eps_m=100, min_pts=0)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force_reference(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 200))
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-0.01, 0.01, size=(k, 2)) + [LAT0, LON0]
        pts = []
        for i in range(n):
            c = centers[int(rng.integers(0, k))]
            scale = float(rng.choice([0.0002, 0.001, 0.004]))
            pts.append(GeoPoint(c[0] + rng.normal(0, scale), c[1] + rng.normal(0, scale)))
        eps = float(rng.choice([50.0, 100.0, 200.0]))
        min_pts = int(rng.integers(2, 8))
        lat, lon = latlon(pts)
        assert dbscan(lat, lon, eps, min_pts) == brute_dbscan(lat, lon, eps, min_pts)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pts = [GeoPoint(LAT0 + rng.normal(0, 0.002), LON0 + rng.normal(0, 0.002)) for _ in range(n)]
        clusters, noise = dbscan(*latlon(pts), eps_m=100, min_pts=4)
        seen = set(noise)
        for cluster in clusters:
            assert not (seen & cluster)
            seen |= cluster
        assert seen == set(range(n))


# the eps = 100 m grid: square cells a hair under eps/sqrt(2) on a side;
# offsets below are meters east of the center of one cell
_CELL_RAD = 100.0 / 6_371_000.0 / math.sqrt(2.0) * (1.0 - 1e-6)
_CELL_M = _CELL_RAD * 6_371_000.0
_ROW_LAT = math.degrees((math.floor(math.radians(LAT0) / _CELL_RAD) + 0.5) * _CELL_RAD)
_COS_ROW = math.cos(math.radians(_ROW_LAT))
_COL_LON = math.degrees(
    (math.floor(math.radians(LON0) * _COS_ROW / _CELL_RAD) + 0.5) * _CELL_RAD / _COS_ROW
)


def _grid_point(east_m, north_m=0.0):
    return _offset(east_m, north_m, lat0=_ROW_LAT, lon0=_COL_LON)


def _blob(east_m, n, seed):
    """``n`` points within 3 m of a spot, well inside one grid cell."""
    jitter = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 2))
    return [_grid_point(east_m + dx, dy) for dx, dy in jitter]


class TestGridDbscan:
    """Hand-built layouts past the 64-point brute cutoff, one per branch of
    the grid path, each checked against the brute-force oracle."""

    @staticmethod
    def _cluster(points):
        lat, lon = latlon(points)
        assert len(lat) > 64
        got = dbscan(lat, lon, eps_m=100, min_pts=5)
        assert got == brute_dbscan(lat, lon, 100, 5)
        return got

    def test_dense_cells_two_apart_without_a_pair_in_reach(self):
        a, b = _blob(0, 40, seed=1), _blob(2 * _CELL_M, 40, seed=2)
        assert self._cluster(a + b) == ([set(range(40)), set(range(40, 80))], set())

    def test_sparse_bridge_cell_joins_dense_cells(self):
        a, b = _blob(0, 40, seed=1), _blob(2 * _CELL_M, 40, seed=2)
        bridge = _blob(_CELL_M, 4, seed=3)
        assert self._cluster(a + b + bridge) == ([set(range(84))], set())

    def test_border_point_joins_lowest_index_core_neighbor(self):
        # the border point at 145 m reaches one core of each cluster, 95 m
        # away on either side, and nothing else
        west, east = _blob(0, 40, seed=1), _blob(290, 40, seed=2)
        points = [_grid_point(240)] + west + [_grid_point(145)] + east + [_grid_point(50)]
        clusters, noise = self._cluster(points)
        assert noise == set()
        assert clusters == [{0, 41} | set(range(42, 82)), set(range(1, 41)) | {82}]

    def test_cell_of_min_pts_is_a_cluster_and_one_fewer_is_noise(self):
        points = _blob(0, 60, seed=1) + _blob(5 * _CELL_M, 5, seed=2) + _blob(10 * _CELL_M, 4, seed=3)
        clusters, noise = self._cluster(points)
        assert clusters == [set(range(60)), set(range(60, 65))]
        assert noise == set(range(65, 69))


def test_grid_path_matches_brute_force_on_default_world(default_data):
    """Every distinct point set of the default world that reaches the grid
    path (more than 64 points, not inside one eps ball) clusters exactly as
    the brute-force oracle does, in the order classify_ap feeds them."""
    point_sets = set()
    for _, obs in router_groups(default_data.paired_records()):
        pts = tuple(o.pos for o in obs)
        lat = [p.lat_deg for p in pts]
        lon = [p.lon_deg for p in pts]
        corner_gap = haversine_m(GeoPoint(min(lat), min(lon)), GeoPoint(max(lat), max(lon)))
        if len(pts) > 64 and corner_gap > 100:
            point_sets.add(pts)
    assert len(point_sets) > 20
    for pts in point_sets:
        lat, lon = latlon(pts)
        assert dbscan(lat, lon, 100, 5) == brute_dbscan(lat, lon, 100, 5)


class TestGeometricMedian:
    def test_single_point(self):
        p = GeoPoint(55.7, 12.5)
        assert geometric_median(*latlon([p])) == p

    def test_two_points_midpoint(self):
        a, b = _offset(0, 0), _offset(100, 0)
        mid = geometric_median(*latlon([a, b]))
        assert haversine_m(mid, _offset(50, 0)) < 0.01

    def test_square_center(self):
        corners = [_offset(0, 0), _offset(100, 0), _offset(0, 100), _offset(100, 100)]
        center = geometric_median(*latlon(corners))
        assert haversine_m(center, _offset(50, 50)) < 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_median(*latlon([]))

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_grid_search(self, trial):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(5, 21))
        pts = [
            GeoPoint(LAT0 + rng.normal(0, 0.004), LON0 + rng.normal(0, 0.004))
            for _ in range(n)
        ]
        assert haversine_m(geometric_median(*latlon(pts)), grid_search_median(pts)) < 1.0


def _hexed(lat, lon):
    return [(a.hex(), b.hex()) for a, b in zip(np.asarray(lat).tolist(), np.asarray(lon).tolist())]


def _batched(point_sets):
    """``geometric_medians`` over a list of (lat, lon) point sets."""
    sizes = np.array([lat.size for lat, _ in point_sets])
    lat = np.concatenate([lat for lat, _ in point_sets])
    lon = np.concatenate([lon for _, lon in point_sets])
    return _hexed(*geometric_medians(lat, lon, np.cumsum(sizes) - sizes))


def _looped(point_sets, **kw):
    """The per-set oracle over the same point sets."""
    medians = [geometric_median_loop(lat, lon, **kw) for lat, lon in point_sets]
    return _hexed([p.lat_deg for p in medians], [p.lon_deg for p in medians])


def _nudge_set():
    """Seven points whose centroid is exactly the last of them, a point
    that is not the median: the iteration starts on a data point that
    fails the vertex test, so it must be nudged off it."""
    h = 2.0**-12
    b = (55.5, 12.5 + h)
    pts = [b, (55.5 + 4 * h, 12.5 - h), b, (55.5 - 4 * h, 12.5 - h), b, (55.5, 12.5 - h), (55.5, 12.5)]
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


class TestBatchedMedian:
    """``geometric_medians`` equals the per-set Weiszfeld loop to the bit,
    and a set's median never depends on the rest of its batch."""

    def test_every_cluster_of_default_world(self, default_data):
        point_sets = []
        for _, obs in router_groups(default_data.paired_records()):
            if len(obs) < 5:
                continue
            lat, lon = latlon([o.pos for o in obs])
            for cluster in dbscan(lat, lon, 100, 5)[0]:
                members = np.array(sorted(cluster))
                point_sets.append((lat[members], lon[members]))
        assert len(point_sets) > 818
        want = _looped(point_sets)
        assert _batched(point_sets) == want
        assert _batched(point_sets[::-1]) == want[::-1]

    def test_mixed_sizes_and_branches(self):
        rng = np.random.default_rng(17)
        point_sets = []
        for n in [1, 2, 3, 1200, 1, 3, 2, 40, 1001, 7, 3, 2, 1, 250]:
            scale = float(rng.choice([0.00002, 0.0005, 0.003]))
            point_sets.append((LAT0 + rng.normal(0, scale, n), LON0 + rng.normal(0, scale, n)))
        # duplicates: the iteration reaches a repeated point, which passes
        # the vertex test; and a set whose points all coincide
        dup = [_offset(0, 0)] * 5 + [_offset(30, 0), _offset(0, 40)]
        point_sets.insert(4, latlon(dup))
        point_sets.insert(9, latlon([_offset(3, 4)] * 6))
        # two pairs 0.6 m apart: at the first point the pull equals its
        # multiplicity, so the vertex test decides on a tie
        point_sets.insert(6, latlon([_offset(0, 0), _offset(0.6, 0)] * 2))
        point_sets.insert(2, _nudge_set())
        want = _looped(point_sets)
        assert _batched(point_sets) == want
        # each set alone, through the one-set call, gives its batch result
        for (lat, lon), hexed in zip(point_sets, want):
            alone = geometric_median(lat, lon)
            assert _hexed([alone.lat_deg], [alone.lon_deg]) == [hexed]
        order = rng.permutation(len(point_sets))
        assert _batched([point_sets[i] for i in order]) == [want[i] for i in order]
        # the duplicated point is returned; the nudged set ends far from its start
        dup_lat, dup_lon = geometric_medians(*latlon(dup), [0])
        assert haversine_m(GeoPoint(dup_lat[0], dup_lon[0]), dup[0]) < 1e-6
        lat, lon = _nudge_set()
        assert (np.mean(lat), np.mean(lon)) == (lat[-1], lon[-1])
        nudged = geometric_median(lat, lon)
        assert haversine_m(nudged, GeoPoint(lat[-1], lon[-1])) > 10
        assert haversine_m(nudged, GeoPoint(lat[0], lon[0])) < 1e-6

    def test_sets_near_zero_degrees_keep_every_bit(self):
        """Near latitude and longitude zero the degree result is as fine as
        the plane arithmetic, so a sum taken in another order shows in it
        (elsewhere adding a few meters to the centroid's degrees rounds
        such differences away)."""
        rng = np.random.default_rng(41)
        point_sets = [
            (rng.normal(0, 0.0005, n), rng.normal(0, 0.0005, n))
            for n in (3, 5, 9, 17, 40, 130, 1100)
            for _ in range(3)
        ]
        assert _batched(point_sets) == _looped(point_sets)

    def test_small_max_iter_stops_every_set_where_the_loop_stops(self, monkeypatch):
        rng = np.random.default_rng(23)
        point_sets = [
            (LAT0 + rng.normal(0, 0.001, n), LON0 + rng.normal(0, 0.001, n)) for n in (3, 30, 300)
        ]
        want = _looped(point_sets, max_iter=3)
        uncapped = _batched(point_sets)
        monkeypatch.setattr(ap_locator, "MEDIAN_MAX_ITER", 3)
        assert _batched(point_sets) == want
        assert uncapped != want

    def test_empty_set_rejected(self):
        lat, lon = latlon([_offset(0, 0), _offset(5, 0)])
        for starts in ([0, 1, 1], [0, 2], [1], []):
            with pytest.raises(ValueError, match="empty"):
                geometric_medians(lat, lon, starts)


class TestClassify:
    def test_too_few_sightings(self):
        obs = _obs("02:00:00:00:00:01", [_offset(0, 0)] * 4)
        rec = classify_records("02:00:00:00:00:01", obs)
        assert rec.ap_class is ApClass.INSUFFICIENT
        assert rec.n_sightings == 4

    def test_tight_cluster_is_static(self):
        rng = np.random.default_rng(3)
        pts = [_offset(rng.normal(0, 8), rng.normal(0, 8)) for _ in range(10)]
        rec = classify_records("02:00:00:00:00:01", _obs("02:00:00:00:00:01", pts))
        assert rec.ap_class is ApClass.STATIC
        assert rec.n_sightings == 10
        assert min(haversine_m(rec.pos, p) for p in pts) <= 100

    def test_two_sites_disjoint_in_time_is_relocated(self):
        day = 86_400_000
        site_a = _obs("x", [_offset(i, 0) for i in range(10)], ts0=0, step_ms=day)
        site_b = _obs("x", [_offset(2000 + i, 0) for i in range(10)], ts0=20 * day, step_ms=day)
        rec = classify_records("x", site_a + site_b)
        assert rec.ap_class is ApClass.RELOCATED
        assert len(rec.segments) == 2
        s1, s2 = rec.segments
        assert s1.interval.end < s2.interval.start
        assert haversine_m(s1.pos, _offset(4.5, 0)) < 20
        assert haversine_m(s2.pos, _offset(2004.5, 0)) < 20

    def test_two_sites_interleaved_is_mobile(self):
        site_a = [_offset(i, 0) for i in range(10)]
        site_b = [_offset(2000 + i, 0) for i in range(10)]
        obs = []
        for i, (a, b) in enumerate(zip(site_a, site_b)):
            obs.append(PairedObservation("x", a, 2 * i * 1000, "u"))
            obs.append(PairedObservation("x", b, (2 * i + 1) * 1000, "u"))
        rec = classify_records("x", obs)
        assert rec.ap_class is ApClass.MOBILE

    def test_route_spread_is_mobile(self):
        # sightings strung evenly along a 5 km line never concentrate
        pts = [_offset(i * 250, 0) for i in range(21)]
        rec = classify_records("x", _obs("x", pts))
        assert rec.ap_class is ApClass.MOBILE

    def test_monotone_evidence_never_returns_to_insufficient(self):
        rng = np.random.default_rng(5)
        pts = [_offset(rng.normal(0, 8), rng.normal(0, 8)) for _ in range(5)]
        obs = _obs("x", pts)
        assert classify_records("x", obs).ap_class is not ApClass.INSUFFICIENT
        for extra in range(1, 6):
            more = obs + _obs("x", [_offset(rng.normal(0, 8), rng.normal(0, 8))] * extra, ts0=10**9)
            assert classify_records("x", more).ap_class is not ApClass.INSUFFICIENT

    def test_static_within_eps_of_some_observation(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            pts = [_offset(rng.normal(0, 30), rng.normal(0, 30)) for _ in range(15)]
            rec = classify_records("x", _obs("x", pts))
            if rec.ap_class is ApClass.STATIC:
                assert min(haversine_m(rec.pos, p) for p in pts) <= 100


def _permuted(pairs, order):
    return PairedEvents(*(getattr(pairs, f)[order] for f in ("ap", "user", "ts", "lat", "lon")))


def _record_key(rec):
    """Everything a record holds, positions by their exact bits."""
    def hexed(p):
        return None if p is None else (p.lat_deg.hex(), p.lon_deg.hex())

    segments = [(hexed(s.pos), s.interval.start, s.interval.end) for s in rec.segments]
    return rec.bssid, rec.ap_class, rec.n_sightings, hexed(rec.pos), segments, rec.n_contributors


def _assert_same_database(got, want):
    assert list(got.records) == list(want.records)
    for bssid in want.records:
        assert _record_key(got.records[bssid]) == _record_key(want.records[bssid]), bssid


class TestDatabase:
    def test_empty_input(self):
        db = build_database(*pair_columns([]))
        assert db.records == {}
        assert db.census()["total"] == 0

    def test_contributors_recorded(self):
        pts = [_offset(i, 0) for i in range(6)]
        obs = [
            PairedObservation("x", p, i * 1000, "alice" if i % 2 else "bob")
            for i, p in enumerate(pts)
        ]
        obs.append(PairedObservation("y", pts[0], 0, "carol"))
        db = build_database(*pair_columns(obs))
        assert db.get("x").n_contributors == 2
        assert db.get("y").n_contributors == 1

    def test_permutation_invariant(self):
        """Row order never matters, down to the bits of each position: all
        users see the routers at the same instants, so only the (lat, lon)
        sort keys order their rows."""
        rng = np.random.default_rng(4)
        obs = []
        for bssid, center in (("x", 0), ("y", 3000)):
            for k in range(15):
                pos = _offset(center + rng.normal(0, 10), rng.normal(0, 10))
                obs.append(PairedObservation(bssid, pos, (k % 3) * 1000, f"u{k}"))
        # a cluster with three far outliers, at distinct instants
        pts = [_offset(rng.normal(0, 10), rng.normal(0, 10)) for _ in range(12)]
        obs += _obs("z", pts + [_offset(3000 + rng.normal(0, 10), 0) for _ in range(3)])
        pairs, user_ids, bssids = pair_columns(obs)
        want = build_database(pairs, user_ids, bssids)
        assert want.census()["static"] == 2 and want.get("z").ap_class is ApClass.MOBILE
        for order in (np.arange(len(obs))[::-1], rng.permutation(len(obs))):
            _assert_same_database(build_database(_permuted(pairs, order), user_ids, bssids), want)
        _assert_same_database(want, build_database_from_records(obs))

    def test_routers_reach_classify_ap_in_ts_lat_lon_order(self, monkeypatch):
        """Whatever the row order, each router's rows reach the per-router
        classification (``_classify_unplaced``, the part of ``classify_ap``
        before positions) sorted by (ts, lat, lon), as the record oracle
        sorts them: users share instants here, so the position keys decide
        the ties."""
        rng = np.random.default_rng(9)
        obs = [
            PairedObservation(b, _offset(rng.normal(0, 20), rng.normal(0, 20)), t, f"u{k}")
            for b in ("x", "y")
            for t in (0, 1000, 2000)
            for k in range(4)
        ]
        want = {
            b: ([o.ts for o in g], [o.pos.lat_deg for o in g], [o.pos.lon_deg for o in g])
            for b, g in router_groups(obs)
        }
        seen = {}
        classify_unplaced = ap_locator._classify_unplaced

        def spy(bssid, ts, lat, lon, n_contributors, cfg):
            seen[bssid] = (ts.tolist(), lat.tolist(), lon.tolist())
            return classify_unplaced(bssid, ts, lat, lon, n_contributors, cfg)

        monkeypatch.setattr(ap_locator, "_classify_unplaced", spy)
        pairs, user_ids, bssids = pair_columns(obs)
        for order in (np.arange(len(obs))[::-1], rng.permutation(len(obs))):
            seen.clear()
            build_database(_permuted(pairs, order), user_ids, bssids)
            assert seen == want

    def test_relocated_segments_placed_alike_on_every_route(self):
        """A router moved twice, between static routers: its three segment
        positions are the same bits from ``build_database`` (one batched
        median call for the whole database), from ``classify_ap`` on its
        rows alone, from the record oracle, and from the per-set loop on
        each site's points."""
        day = 86_400_000
        rng = np.random.default_rng(31)
        sites = [(0, 0), (2500, 0), (800, 3000)]
        moved = []
        for s, (east, north) in enumerate(sites):
            pts = [_offset(east + rng.normal(0, 8), north + rng.normal(0, 8)) for _ in range(12)]
            moved.append(_obs("r", pts, ts0=s * 20 * day, step_ms=day // 2, user=f"u{s}"))
        obs = [o for site in moved for o in site]
        for bssid, east in (("a", 400), ("z", -900)):
            pts = [_offset(east + rng.normal(0, 8), rng.normal(0, 8)) for _ in range(9)]
            obs += _obs(bssid, pts, user="u9")
        obs += _obs("m", [_offset(i * 300, 0) for i in range(9)])
        pairs, user_ids, bssids = pair_columns(obs)
        db = build_database(_permuted(pairs, rng.permutation(len(obs))), user_ids, bssids)
        assert db.census() == {
            "static": 2, "relocated": 1, "mobile": 1, "insufficient": 0, "total": 4
        }
        rec = db.get("r")
        alone = classify_records("r", [o for o in obs if o.bssid == "r"])
        assert _record_key(rec) == _record_key(alone)
        _assert_same_database(db, build_database_from_records(obs))
        looped = [geometric_median_loop(*latlon([o.pos for o in site])) for site in moved]
        assert [(s.pos.lat_deg.hex(), s.pos.lon_deg.hex()) for s in rec.segments] == [
            (p.lat_deg.hex(), p.lon_deg.hex()) for p in looped
        ]
        assert [s.interval.start for s in rec.segments] == [s * 20 * day for s in range(3)]

    def test_matches_record_oracle_on_default_world(self, default_data):
        """Every router of the default world, and again with the paired
        rows shuffled, equals the record oracle's classification."""
        want = build_database_from_records(default_data.paired_records())
        assert want.census() == {
            "static": 818, "relocated": 0, "mobile": 45, "insufficient": 1091, "total": 1954
        }
        names = (default_data.table.user_ids, default_data.table.bssids)
        _assert_same_database(build_database(default_data.pairs, *names), want)
        order = np.random.default_rng(5).permutation(default_data.pairs.count())
        _assert_same_database(build_database(_permuted(default_data.pairs, order), *names), want)

    def test_lookup_of_unseen_bssid_is_absent(self):
        db = build_simple_database(_obs("x", [_offset(0, 0)] * 3))
        assert db.get("ff:ff:ff:ff:ff:ff") is None

    def test_simple_database_positions_everything(self):
        db = build_simple_database(_obs("x", [_offset(0, 0)]))
        assert db.get("x").ap_class is ApClass.STATIC

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        """Writing a loaded database gives the file it was read from, its
        contributor counts included."""
        day = 86_400_000
        a, b, c = (f"02:00:00:00:00:0{i}" for i in range(1, 4))
        obs = _obs(a, [_offset(i, 0) for i in range(8)])
        obs += _obs(b, [_offset(i, 0) for i in range(10)], ts0=0, step_ms=day)
        obs += _obs(b, [_offset(3000 + i, 0) for i in range(10)], ts0=30 * day, step_ms=day)
        obs += _obs(c, [_offset(0, 0)] * 2)
        obs = [PairedObservation(o.bssid, o.pos, o.ts, f"u{k % 3}") for k, o in enumerate(obs)]
        db = build_database(*pair_columns(obs))
        assert [r.ap_class for r in db.records.values()] == [
            ApClass.STATIC, ApClass.RELOCATED, ApClass.INSUFFICIENT
        ]
        assert [r.n_contributors for r in db.records.values()] == [3, 3, 2]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_apdb_csv(db, first)
        write_apdb_csv(read_apdb_csv(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        day = 86_400_000
        a, b, c, d = (f"02:00:00:00:00:0{i}" for i in range(1, 5))
        obs = _obs(a, [_offset(i, 0) for i in range(8)])
        obs += _obs(b, [_offset(i, 0) for i in range(10)], ts0=0, step_ms=day)
        obs += _obs(b, [_offset(3000 + i, 0) for i in range(10)], ts0=30 * day, step_ms=day)
        obs += _obs(c, [_offset(i * 300, 0) for i in range(9)])
        obs += _obs(d, [_offset(0, 0)] * 2)
        db = build_database(*pair_columns(obs))
        path = tmp_path / "apdb.csv"
        write_apdb_csv(db, path)
        loaded = read_apdb_csv(path)
        assert set(loaded.records) == set(db.records)
        for bssid, rec in db.records.items():
            got = loaded.records[bssid]
            assert got.ap_class == rec.ap_class
            assert got.n_sightings == rec.n_sightings
            if rec.ap_class is ApClass.STATIC:
                assert haversine_m(got.pos, rec.pos) < 1e-6
            if rec.ap_class is ApClass.RELOCATED:
                assert [s.interval for s in got.segments] == [s.interval for s in rec.segments]
        # BSSIDs are read in any form ingest accepts and stored canonical
        other_form = tmp_path / "dashed.csv"
        other_form.write_text(path.read_text().replace("02:00:00:00:00:0", "02-00-00-00-00-0"))
        assert read_apdb_csv(other_form).records.keys() == db.records.keys()


class TestRecordLookup:
    def test_relocated_position_at(self):
        rec = ApRecord(
            bssid="x",
            ap_class=ApClass.RELOCATED,
            n_sightings=20,
            segments=[
                ApSegment(pos=_offset(0, 0), interval=TimeInterval(0, 100)),
                ApSegment(pos=_offset(1000, 0), interval=TimeInterval(200, 300)),
            ],
        )
        assert rec.position_at(50) == _offset(0, 0)
        assert rec.position_at(250) == _offset(1000, 0)
        assert rec.position_at(150) is None
        assert label_at(rec, 50) != label_at(rec, 250)

    def test_router_table_places_as_position_at(self, tmp_path):
        """``RouterTable.place`` equals ``ApRecord.position_at``, and
        ``RouterTable.labels`` the record ``label_at``, at every probe time of
        every router: a relocated router's first listed segment holding the
        time wins, also when its segments overlap or are listed out of time
        order."""
        seg = lambda lat, start, end: {"lat": lat, "lon": 12.5, "start_ms": start, "end_ms": end}
        rows = {
            "static": ("static", "55.7", "12.5", ""),
            "static_unplaced": ("static", "", "", ""),
            "mobile": ("mobile", "", "", ""),
            "insufficient": ("insufficient", "", "", ""),
            "three": ("relocated", "", "", [seg(55.71, 0, 100), seg(55.72, 200, 300),
                                              seg(55.73, 400, 500)]),
            "overlapping": ("relocated", "", "", [seg(55.74, 0, 300), seg(55.75, 200, 500)]),
            "unordered": ("relocated", "", "", [seg(55.76, 400, 500), seg(55.77, 0, 100),
                                                seg(55.78, 300, 600)]),
        }
        mac = {name: f"02:00:00:00:00:{i:02x}" for i, name in enumerate(rows, 1)}
        path = tmp_path / "apdb.csv"
        lines = ["bssid,class,lat,lon,n_sightings,segments_json,contributors_count"]
        for name, (cls, lat, lon, segs) in rows.items():
            cell = json.dumps(segs).replace('"', '""') if segs else ""
            lines.append(f'{mac[name]},{cls},{lat},{lon},9,"{cell}",1')
        path.write_text("\n".join(lines) + "\n")
        db = read_apdb_csv(path)

        # an absent router first, the rest out of BSSID order
        bssids = ["02:00:00:00:00:ff"] + sorted(mac.values(), reverse=True)
        table = db.router_table(bssids)
        bounds = [t for s in (0, 100, 200, 300, 400, 500, 600) for t in (s - 1, s, s + 1)]
        probes = bounds + [50, 150, 250, 350, 450, 550, 10_000]
        router = np.repeat(np.arange(len(bssids)), len(probes))
        ts = np.tile(np.array(probes, dtype=np.int64), len(bssids))
        lat, lon = table.place(router, ts)
        for i, t, got_lat, got_lon in zip(router.tolist(), ts.tolist(), lat.tolist(), lon.tolist()):
            rec = db.get(bssids[i])
            want = rec.position_at(t) if rec else None
            if want is None:
                assert math.isnan(got_lat) and math.isnan(got_lon), (bssids[i], t)
            else:
                assert (got_lat, got_lon) == (want.lat_deg, want.lon_deg), (bssids[i], t)
        labels = table.labels(router, ts, bssids)
        for i, t, got in zip(router.tolist(), ts.tolist(), labels):
            rec = db.get(bssids[i])
            # only a router that places the time labels it; an unplaced
            # static record still names itself, but never places a bin
            want = label_at(rec, t) if rec and rec.position_at(t) is not None else None
            assert got == want, (bssids[i], t)
        placed = {b for b, p in zip(bssids, table.placed.tolist()) if p}
        assert placed == {mac[name] for name in ("static", "three", "overlapping", "unordered")}
        one = lambda name, t: (np.array([bssids.index(mac[name])]), np.array([t]))
        at = lambda name, t: table.place(*one(name, t))[0][0]
        assert at("overlapping", 250) == 55.74 and at("unordered", 450) == 55.76
        label = lambda name, t: table.labels(*one(name, t), bssids)[0]
        assert label("overlapping", 250) == f"{mac['overlapping']}#0"
        assert [label("unordered", t) for t in (450, 50, 550)] == [f"{mac['unordered']}#{i}" for i in range(3)]
        assert label("static", 50) == mac["static"] and label("static_unplaced", 50) is None

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeInterval(10, 5)
        assert TimeInterval(0, 10).overlaps(TimeInterval(10, 20))
        assert not TimeInterval(0, 9).overlaps(TimeInterval(10, 20))


def test_named_ssid_recall_on_synthetic_fixture():
    """Forty labeled hotspots, most moving between two sites, a few parked."""
    rng = np.random.default_rng(8)
    obs = []
    labeled = [f"0a:00:00:00:01:{i:02x}" for i in range(40)]
    moving = 36
    for i, bssid in enumerate(labeled):
        if i < moving:
            pts = [_offset(rng.normal(0, 10), rng.normal(0, 10)) for _ in range(6)]
            pts += [_offset(1500 + rng.normal(0, 10), rng.normal(0, 10)) for _ in range(6)]
            order = rng.permutation(12)
            obs.extend(
                PairedObservation(bssid, pts[j], int(t) * 1000, "u")
                for t, j in enumerate(order)
            )
        else:
            pts = [_offset(5000 + i * 300 + rng.normal(0, 8), rng.normal(0, 8)) for _ in range(8)]
            obs.extend(_obs(bssid, pts))
    db = build_database(*pair_columns(obs))
    classes = [db.get(bssid).ap_class for bssid in labeled]
    assert ApClass.INSUFFICIENT not in classes
    assert classes.count(ApClass.MOBILE) / len(classes) >= 0.90
