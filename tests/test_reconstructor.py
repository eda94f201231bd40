import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import assert_timelines_equal, ingest_traces, records_to_arrays, timeline_from_records
from wifimob.ap_locator import (
    ApClass,
    ApDatabase,
    ApRecord,
    ApSegment,
    TimeInterval,
    haversine_m,
)
from wifimob.experiments import prepare_experiment_data
from wifimob.reconstructor import (
    build_timeline,
    read_timeline_csv,
    resolve_scan,
    write_timeline_csv,
)
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays, write_dataset
from wifimob.trace_model import (
    ApSighting,
    GeoPoint,
    TraceError,
    WifiScan,
    ingest_arrays,
)

M_PER_DEG_LAT = 111194.92664455873


def _offset(east_m=0.0, north_m=0.0):
    return GeoPoint(
        55.7 + north_m / M_PER_DEG_LAT,
        12.5 + east_m / (M_PER_DEG_LAT * math.cos(math.radians(55.7))),
    )


def _static(bssid, pos):
    return ApRecord(bssid=bssid, ap_class=ApClass.STATIC, n_sightings=9, pos=pos)


def _scan(bssids, ts=0, user="u"):
    return WifiScan(user=user, ts=ts, sightings=[ApSighting(b) for b in bssids])


def _timeline(scans, db):
    """build_timeline on hand-built record scans, as columns in the given order."""
    return build_timeline(records_to_arrays(scans=scans), db)


def _pos(tl, b):
    """The position estimate of resolved bin ``b``."""
    i = tl.bins.tolist().index(b)
    return GeoPoint(float(tl.lat[i]), float(tl.lon[i]))


def test_single_known_ap_pins_position():
    db = ApDatabase(records={"a": _static("a", _offset(10, 10))})
    est = resolve_scan(_scan(["a"]), db)
    assert est.pos == _offset(10, 10)
    assert est.support == ["a"]


def test_unknown_aps_resolve_to_nothing():
    db = ApDatabase(records={})
    assert resolve_scan(_scan(["a", "b"]), db) is None
    assert resolve_scan(_scan([]), db) is None


def test_mobile_and_insufficient_records_do_not_resolve():
    db = ApDatabase(
        records={
            "a": ApRecord(bssid="a", ap_class=ApClass.MOBILE, n_sightings=9),
            "b": ApRecord(bssid="b", ap_class=ApClass.INSUFFICIENT, n_sightings=2),
        }
    )
    assert resolve_scan(_scan(["a", "b"]), db) is None


def test_four_corner_aps_resolve_to_center():
    db = ApDatabase(
        records={
            "a": _static("a", _offset(0, 0)),
            "b": _static("b", _offset(100, 0)),
            "c": _static("c", _offset(0, 100)),
            "d": _static("d", _offset(100, 100)),
        }
    )
    est = resolve_scan(_scan(["a", "b", "c", "d"]), db)
    assert haversine_m(est.pos, _offset(50, 50)) < 0.5
    assert est.support == ["a", "b", "c", "d"]


def test_relocated_resolves_only_inside_segment():
    rec = ApRecord(
        bssid="a",
        ap_class=ApClass.RELOCATED,
        n_sightings=20,
        segments=[
            ApSegment(pos=_offset(0, 0), interval=TimeInterval(0, 1000)),
            ApSegment(pos=_offset(500, 0), interval=TimeInterval(5000, 9000)),
        ],
    )
    db = ApDatabase(records={"a": rec})
    assert resolve_scan(_scan(["a"], ts=500), db).pos == _offset(0, 0)
    assert resolve_scan(_scan(["a"], ts=7000), db).pos == _offset(500, 0)
    assert resolve_scan(_scan(["a"], ts=3000), db) is None


def test_multi_ap_estimate_stays_in_hull():
    rng = np.random.default_rng(2)
    for _ in range(20):
        positions = [_offset(rng.uniform(0, 400), rng.uniform(0, 400)) for _ in range(4)]
        db = ApDatabase(records={f"b{i}": _static(f"b{i}", p) for i, p in enumerate(positions)})
        est = resolve_scan(_scan(sorted(db.records)), db)
        lats = [p.lat_deg for p in positions]
        lons = [p.lon_deg for p in positions]
        assert min(lats) - 1e-9 <= est.pos.lat_deg <= max(lats) + 1e-9
        assert min(lons) - 1e-9 <= est.pos.lon_deg <= max(lons) + 1e-9


def test_timeline_empty():
    assert _timeline([], ApDatabase(records={})) == {}


def test_timeline_first_scan_in_bin_wins():
    db = ApDatabase(
        records={"a": _static("a", _offset(0, 0)), "b": _static("b", _offset(800, 0))}
    )
    scans = [
        _scan([], ts=0),
        _scan(["a"], ts=60_000),
        _scan(["b"], ts=500_000),  # same bin, later: ignored
        _scan(["b"], ts=700_000),  # next bin
    ]
    timelines = _timeline(scans, db)
    tl = timelines["u"]
    assert tl.bins_with_data.tolist() == [0, 1]
    assert _pos(tl, 0) == _offset(0, 0)
    assert tl.ts[0] == 60_000
    assert _pos(tl, 1) == _offset(800, 0)


def test_single_resolvable_scan_fills_one_bin():
    db = ApDatabase(records={"a": _static("a", _offset(0, 0))})
    timelines = _timeline([_scan(["a"], ts=0)], db)
    tl = timelines["u"]
    assert tl.bins.tolist() == [0]
    assert tl.bins_with_data.tolist() == [0]


def test_shrinking_database_never_adds_estimates():
    rng = np.random.default_rng(3)
    records = {f"b{i}": _static(f"b{i}", _offset(i * 120, 0)) for i in range(6)}
    scans = []
    for k in range(200):
        visible = [f"b{i}" for i in range(6) if rng.random() < 0.3]
        scans.append(_scan(visible, ts=k * 180_000))
    full_db = ApDatabase(records=records)
    small_db = ApDatabase(records={k: v for k, v in records.items() if k < "b3"})
    full = _timeline(scans, full_db)["u"]
    small = _timeline(scans, small_db)["u"]
    assert set(small.bins) <= set(full.bins)


def test_timeline_csv_roundtrip(tmp_path):
    db = ApDatabase(records={"a": _static("a", _offset(0, 0))})
    scans = [_scan([], ts=0), _scan(["a"], ts=120_000), _scan([], ts=700_000)]
    timelines = _timeline(scans, db)
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timelines, path)
    loaded = read_timeline_csv(path)
    assert loaded["u"].bins_with_data.tolist() == [0, 1]
    assert loaded["u"].bins.tolist() == [0]
    assert loaded["u"].ts.tolist() == [120_000]
    assert timelines["u"].first_support.tolist() == [0] and loaded["u"].first_support.tolist() == [-1]
    assert haversine_m(_pos(loaded["u"], 0), _offset(0, 0)) < 1e-6


def test_two_day_single_user_reconstruction_accuracy():
    """With the full quality-filtered database, nearly every WiFi-bearing bin
    lands within 150 m of the true position."""
    spec = WorldSpec(seed=21, n_users=1, n_days=2, colocated_fraction=0.0)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    # the single user needs company for pairing evidence: their own
    data = prepare_experiment_data(arrays)
    db = data.full_database()
    timelines = build_timeline(arrays, db)
    tl = timelines[gt.user_ids[0]]
    assert tl.bins.size, "nothing reconstructed"
    errors = []
    for ts, a, b in zip(tl.ts.tolist(), tl.lat.tolist(), tl.lon.tolist()):
        lat, lon = gt.position_at(0, np.array([ts]))
        errors.append(haversine_m(GeoPoint(a, b), GeoPoint(float(lat[0]), float(lon[0]))))
    frac_close = np.mean([e <= 150 for e in errors])
    coverage = len(tl.bins) / len(tl.bins_with_data)
    assert frac_close >= 0.95
    assert coverage > 0.5


def test_timeline_rejects_out_of_order_scans():
    db = ApDatabase(records={"a": _static("a", _offset(0, 0))})
    scans = [_scan(["a"], ts=700_000), _scan(["a"], ts=0, user="v"), _scan([], ts=0)]
    # the columns refuse such rows when they are built
    with pytest.raises(TraceError, match="scans of user u after those of user v"):
        _timeline(scans, db)
    with pytest.raises(TraceError, match="scans of user u out of time order: 0 after 700000"):
        _timeline([scans[0], scans[2], scans[1]], db)
    with pytest.raises(TraceError, match="out of time order"):
        timeline_from_records(scans, db, ["a"])
    # equal timestamps are fine; interleaved users are fine for the record
    # oracle, and the columns take the same rows in (user, ts) order
    for rows in (
        [_scan([], ts=5), _scan([], ts=1, user="v"), _scan(["a"], ts=5)],
        [_scan(["a"], ts=5), _scan(["a"], ts=1, user="v"), _scan(["a"], ts=5)],
    ):
        with pytest.raises(TraceError, match="scans of user u after those of user v"):
            _timeline(rows, db)
        in_order = sorted(rows, key=lambda s: s.user)  # stable: ties keep their order
        assert_timelines_equal(_timeline(in_order, db), timeline_from_records(rows, db, ["a"]))


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_columnar_timeline_matches_records_on_hand_built_routers(tmp_path):
    gps, wifi = tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl"
    gps.write_text("")
    db = ApDatabase(
        records={
            "02:00:00:00:00:01": _static("02:00:00:00:00:01", _offset(0, 0)),
            "02:00:00:00:00:02": _static("02:00:00:00:00:02", _offset(300, 0)),
            "02:00:00:00:00:03": _static("02:00:00:00:00:03", _offset(0, 300)),
            # a static record without a position never resolves
            "02:00:00:00:00:04": ApRecord(
                bssid="02:00:00:00:00:04", ap_class=ApClass.STATIC, n_sightings=9
            ),
            "02:00:00:00:00:05": ApRecord(
                bssid="02:00:00:00:00:05",
                ap_class=ApClass.RELOCATED,
                n_sightings=20,
                segments=[
                    ApSegment(pos=_offset(900, 0), interval=TimeInterval(0, 1_000_000)),
                    ApSegment(pos=_offset(0, 900), interval=TimeInterval(2_000_000, 3_000_000)),
                ],
            ),
            "02:00:00:00:00:06": ApRecord(
                bssid="02:00:00:00:00:06", ap_class=ApClass.MOBILE, n_sightings=9
            ),
        }
    )
    b = lambda i: {"bssid": f"02:00:00:00:00:0{i}"}
    _write_jsonl(
        wifi,
        [
            {"user": "u", "ts_ms": 0, "aps": [b(4), b(6)]},  # nothing usable
            {"user": "u", "ts_ms": 60_000, "aps": [b(5)]},  # relocated, first segment
            {"user": "u", "ts_ms": 120_000, "aps": [b(1)]},  # same bin: ignored
            {"user": "u", "ts_ms": 1_500_000, "aps": [b(5), b(4)]},  # between segments
            {"user": "u", "ts_ms": 2_500_000, "aps": [b(3), b(5), b(2), b(1)]},
            {"user": "u", "ts_ms": 3_000_000, "aps": [b(5)]},  # segment end, inclusive
            {"user": "v", "ts_ms": 0, "aps": [b(2), b(3)]},
            {"user": "v", "ts_ms": 0, "aps": []},
            {"user": "v", "ts_ms": 600_000, "aps": [b(7)]},  # not in the database
        ],
    )
    arrays = ingest_arrays(gps, wifi)[0]
    columnar = build_timeline(arrays, db)
    records = timeline_from_records(ingest_traces(gps, wifi).scans, db, arrays.bssids)
    assert_timelines_equal(columnar, records)
    u = columnar["u"]
    assert u.bins_with_data.tolist() == [0, 2, 4, 5] and u.bins.tolist() == [0, 4, 5]
    assert _pos(u, 0) == _offset(900, 0) and u.ts[0] == 60_000
    assert u.support_count[1] == 4 and _pos(u, 5) == _offset(0, 900)
    assert columnar["v"].bins_with_data.tolist() == [0, 1] and columnar["v"].bins.tolist() == [0]

    # hand-built columns may list a BSSID twice in one scan, which counts
    # twice, and may index the routers out of BSSID order
    bssid = lambda i: f"02:00:00:00:00:0{i}"
    scans = [
        _scan([bssid(i) for i in ids], ts=ts, user="w")
        for ts, ids in (
            (0, [5, 5]),  # the relocated router twice, at its first segment's start
            (1_000_000, [5]),  # at that segment's end
            (2_000_000, [5, 3, 5, 1]),  # the second segment's start, mixed with static
            (2_400_000, [2, 5, 4]),
        )
    ]
    arrays = records_to_arrays(scans=scans)
    n = len(arrays.bssids)
    reversed_table = replace(
        arrays,
        bssids=arrays.bssids[::-1],
        scan_ap=(n - 1 - arrays.scan_ap).astype(np.int32),
    )
    for cols in (arrays, reversed_table):
        records = timeline_from_records(scans, db, cols.bssids)
        assert_timelines_equal(build_timeline(cols, db), records)
        w = records["w"]
        assert [cols.bssids[i] for i in w.first_support] == [bssid(5), bssid(5), bssid(1), bssid(2)]
    assert w.bins.tolist() == [0, 1, 3, 4]
    assert w.support_count.tolist() == [2, 1, 4, 2]
    assert w.first_support.tolist() == [0, 0, 4, 3]  # indices into the reversed table
    assert _pos(w, 0) == _pos(w, 1) == _offset(900, 0)


def test_columnar_timeline_matches_records_on_small_world(small_world, tmp_path):
    _, gt, arrays, traces = small_world
    db = prepare_experiment_data(arrays).full_database()
    assert_timelines_equal(
        build_timeline(arrays, db), timeline_from_records(traces.scans, db, arrays.bssids)
    )
    write_dataset(gt, arrays, tmp_path)
    loaded = ingest_arrays(tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl")[0]
    assert_timelines_equal(
        build_timeline(loaded, db), timeline_from_records(traces.scans, db, loaded.bssids)
    )
