import numpy as np
import pytest

from oracles import records_to_arrays
from wifimob.ap_locator import haversine_m_arrays
from wifimob.coverage_metrics import DAY_MS
from wifimob.synthgen import (
    WorldSpec,
    generate_world,
    mobile_ssid_names,
    simulate_sensor_arrays,
    write_dataset,
)


def test_same_seed_identical_traces():
    spec = WorldSpec(seed=13, n_users=3, n_days=2)
    a1 = simulate_sensor_arrays(generate_world(spec), spec)
    a2 = simulate_sensor_arrays(generate_world(spec), spec)
    assert np.array_equal(a1.scan_ts, a2.scan_ts)
    assert np.array_equal(a1.scan_ap, a2.scan_ap)
    assert np.array_equal(a1.fix_lat, a2.fix_lat)
    assert a1.bssids == a2.bssids


def test_different_seed_differs():
    s1 = WorldSpec(seed=13, n_users=3, n_days=2)
    s2 = WorldSpec(seed=14, n_users=3, n_days=2)
    a1 = simulate_sensor_arrays(generate_world(s1), s1)
    a2 = simulate_sensor_arrays(generate_world(s2), s2)
    assert not (
        a1.scan_ts.shape == a2.scan_ts.shape and np.array_equal(a1.scan_ts, a2.scan_ts)
    )


def test_zero_density_rejected():
    n = 4
    spec = WorldSpec(seed=0, n_users=2, n_days=1, density_cells=n,
                     density_weights=tuple(tuple(0.0 for _ in range(n)) for _ in range(n)))
    with pytest.raises(ValueError):
        generate_world(spec)


def test_bad_fraction_rejected():
    with pytest.raises(ValueError):
        WorldSpec(colocated_fraction=1.5).validate()
    with pytest.raises(ValueError):
        WorldSpec(n_users=0).validate()


def test_no_colocation_means_no_shared_anchors():
    spec = WorldSpec(seed=5, n_users=6, n_days=1, colocated_fraction=0.0)
    gt = generate_world(spec)
    assert gt.campus_anchor is None
    seen: set[int] = set()
    for anchors in gt.anchors_pre:
        mine = {anchors.home, anchors.work, *anchors.minors}
        assert not (mine & seen)
        seen |= mine


def test_sighting_soundness_against_truth():
    """Every emitted static sighting is within the visibility radius of the
    device's true position at that instant; mobile sightings are within
    radius of the transmitter's owner."""
    spec = WorldSpec(seed=6, n_users=4, n_days=2)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    vis = spec.visibility_radius_m
    ap_lat, ap_lon = {}, {}
    for i in range(gt.n_static):
        p = gt.ap_position(i)
        ap_lat[i], ap_lon[i] = p.lat_deg, p.lon_deg
    owner_of = {m.ap_id: m.owner for m in gt.mobile_aps}

    off = arrays.scan_off
    checked = 0
    for k in range(0, arrays.n_scans, 7):
        ids = arrays.scan_ap[off[k] : off[k + 1]]
        if ids.size == 0:
            continue
        u = int(arrays.scan_user[k])
        ts = np.array([arrays.scan_ts[k]])
        lat_u, lon_u = gt.position_at(u, ts)
        for ap in ids:
            ap = int(ap)
            if ap < gt.n_static:
                d = haversine_m_arrays(lat_u, lon_u, ap_lat[ap], ap_lon[ap])
            else:
                lat_o, lon_o = gt.position_at(owner_of[ap], ts)
                d = haversine_m_arrays(lat_u, lon_u, lat_o, lon_o)
            assert float(d[0]) <= vis + 1e-6
            checked += 1
    assert checked > 1000


def test_desert_world_has_only_empty_scans():
    spec = WorldSpec(
        seed=3,
        n_users=2,
        n_days=1,
        ap_per_anchor_min=0,
        ap_anchor_base=0.0,
        ap_anchor_density_scale=0.0,
        campus_extra_aps=0,
        background_aps_per_km2=0.0,
        mobile_ap_fraction=0.0,
    )
    gt = generate_world(spec)
    assert gt.n_static == 0
    arrays = simulate_sensor_arrays(gt, spec)
    assert arrays.scan_ap.size == 0
    assert arrays.nonempty_scan_fraction() == 0.0


def test_lone_ap_stay_scans_contain_exactly_it():
    """A user parked next to a single access point sees that point in every
    scan the radio keeps."""
    spec = WorldSpec(
        seed=9,
        n_users=1,
        n_days=1,
        colocated_fraction=0.0,
        background_aps_per_km2=0.0,
        ap_per_anchor_min=1,
        ap_anchor_base=0.0,
        ap_anchor_density_scale=0.0,
        campus_extra_aps=0,
        mobile_ap_fraction=0.0,
        scan_dropout=0.0,
        anchor_sep_m=400.0,
    )
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    seg = gt.segments[0]
    home = gt.anchors_pre[0].home
    home_aps = {
        i for i in range(gt.n_static) if int(gt.ap_anchor[i]) == home
    }
    assert len(home_aps) == 1
    # scans inside home stays list exactly the home access point
    off = arrays.scan_off
    checked = 0
    for k in range(arrays.n_scans):
        ts = int(arrays.scan_ts[k])
        idx = int(np.searchsorted(seg.t1, ts, side="right"))
        if seg.kind[idx] == 0 and int(seg.anchor[idx]) == home:
            ids = set(int(a) for a in arrays.scan_ap[off[k] : off[k + 1]])
            assert ids == home_aps
            checked += 1
    assert checked > 100


def test_routine_change_moves_time_mass():
    spec = WorldSpec(seed=11, n_users=6, n_days=30, routine_change_day=10)
    gt = generate_world(spec)
    for u in range(spec.n_users):
        pre = gt.stay_seconds_by_anchor(u, 0, 10 * DAY_MS)
        post = gt.stay_seconds_by_anchor(u, 10 * DAY_MS, 30 * DAY_MS)
        pre_anchors = {a for a in pre if a >= 0}
        new_mass = sum(s for a, s in post.items() if a >= 0 and a not in pre_anchors)
        assert new_mass / sum(post.values()) >= 0.5


def test_mobile_ssids_labeled():
    spec = WorldSpec(seed=2, n_users=6, n_days=1)
    gt = generate_world(spec)
    labels = gt.mobile_ssid_labels()
    assert len(labels) == len(gt.mobile_aps)
    assert set(labels.values()) <= mobile_ssid_names()


def test_record_view_matches_arrays(small_world):
    _, _, arrays, traces = small_world
    assert len(traces.scans) == arrays.n_scans
    assert len(traces.fixes) == arrays.fix_ts.size
    k = arrays.n_scans // 2
    scan = traces.scans[k]
    off = arrays.scan_off
    ids = [arrays.bssids[i] for i in arrays.scan_ap[off[k] : off[k + 1]]]
    assert [s.bssid for s in scan.sightings] == ids
    assert scan.ts == int(arrays.scan_ts[k])
    assert scan.user == arrays.user_ids[arrays.scan_user[k]]


def test_records_to_arrays_inverts_the_record_view(small_world):
    _, _, arrays, traces = small_world
    back = records_to_arrays(traces.fixes, traces.scans)
    assert back.user_ids == arrays.user_ids
    for name in ("fix_user", "fix_ts", "fix_lat", "fix_lon", "fix_acc", "scan_user", "scan_ts", "scan_off"):
        assert np.array_equal(getattr(back, name), getattr(arrays, name)), name
    assert [back.bssids[i] for i in back.scan_ap] == [arrays.bssids[i] for i in arrays.scan_ap]


def test_write_dataset_outputs(tmp_path, small_world):
    _, gt, arrays, _ = small_world
    counts = write_dataset(gt, arrays, tmp_path)
    for name in ("gps.jsonl", "wifi.jsonl", "truth_aps.csv", "truth_positions.csv", "world.json"):
        assert (tmp_path / name).exists()
    truth_lines = (tmp_path / "truth_aps.csv").read_text().splitlines()
    assert len(truth_lines) == 1 + counts["static_aps"] + counts["mobile_aps"]


def test_default_world_calibration(default_world):
    """Emission statistics the generator is tuned to: most scans hear
    something, and busier districts mean more routers per scan."""
    from wifimob.synthgen import density_count_r2

    _, gt, arrays = default_world
    assert 2500 <= gt.n_static <= 3700
    nonempty = arrays.nonempty_scan_fraction()
    assert 0.85 <= nonempty <= 0.95
    r2 = density_count_r2(arrays)
    assert 0.35 <= r2 <= 0.65
