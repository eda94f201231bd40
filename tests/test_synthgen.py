import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import (
    brute_radius_query,
    haversine_m_arrays,
    hotspot_sightings_loop,
    place_separated_loop,
    records_to_arrays,
)
from wifimob import synthgen
from wifimob.coverage_metrics import DAY_MS
from wifimob.synthgen import (
    MOBILE_HOTSPOT_SSIDS,
    MOBILE_TRANSIT_SSIDS,
    WorldSpec,
    _CityGrid,
    _PointIndex,
    _place_separated,
    _rng,
    _user_ids,
    generate_world,
    simulate_sensor_arrays,
    write_dataset,
)
from wifimob.pairing import PairingConfig, pair_arrays
from wifimob.trace_model import SensorArrays, ingest_arrays, user_bounds


def test_user_ids_sort_as_strings():
    """Ingest sorts its user table as strings, so generated ids must sort
    that way too; worlds of up to 1 000 users keep their three-digit ids."""
    for n_users in (1, 10, 999, 1000, 1001, 10_001):
        ids = _user_ids(n_users)
        assert ids == sorted(set(ids)) and len(ids) == n_users
    assert _user_ids(1000) == [f"u{i:03d}" for i in range(1000)]
    assert _user_ids(1001)[-2:] == ["u0999", "u1000"]
    assert generate_world(WorldSpec(seed=1, n_users=3, n_days=1)).user_ids == ["u000", "u001", "u002"]


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


def test_scan_schedule_and_dropout_continue_each_users_stream():
    """Stream (seed, 4, u) draws user u's scan schedule first and the dropout
    of each of its scans next: the generator reads both in one pass over the
    stream, so redrawing them here gives its scan times and its empty scans."""
    spec = WorldSpec(seed=5, n_users=3, n_days=2, scan_dropout=0.3)
    arrays = simulate_sensor_arrays(generate_world(spec), spec)
    bounds = user_bounds(arrays.scan_user, spec.n_users)
    counts = arrays.scan_counts()
    span_ms = spec.n_days * DAY_MS
    period_ms = spec.wifi_scan_period_s * 1000.0
    for u in range(spec.n_users):
        rng = _rng(spec.seed, 4, u)
        gaps = rng.uniform(0.75, 1.25, size=int(span_ms / (period_ms * 0.75)) + 2) * period_ms
        ts = np.cumsum(gaps)
        ts = ts[ts < span_ms].astype(np.int64)
        dropped = rng.random(ts.size) < spec.scan_dropout
        lo, hi = bounds[u], bounds[u + 1]
        assert np.array_equal(arrays.scan_ts[lo:hi], ts)
        assert dropped.any() and (counts[lo:hi][dropped] == 0).all()
        assert (counts[lo:hi][~dropped] > 0).mean() > 0.5


def test_generator_allocates_each_column_once():
    """The generator allocates each scan column once at its final size: its
    traced peak stays within 1.6x the bytes of its result, and no column is
    a view holding a larger buffer alive."""
    spec = WorldSpec(seed=7, n_users=30, n_days=2)
    gt = generate_world(spec)
    tracemalloc.start()
    try:
        arrays = simulate_sensor_arrays(gt, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [getattr(arrays, f.name) for f in fields(arrays)]
    columns = [c for c in columns if isinstance(c, np.ndarray)]
    assert len(columns) == 9
    assert all(c.base is None for c in columns)
    assert peak <= 1.6 * sum(c.nbytes for c in columns)


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


@pytest.mark.parametrize(
    "bad, field",
    [
        (dict(density_cells=0), "density_cells"),
        (dict(density_cells=3, density_weights=(1.0,) * 8), "density_weights"),
        (dict(density_cells=2, density_weights=((1.0, 2.0), (3.0,))), "density_weights"),
        (dict(minor_anchors_range=(4, 2)), "minor_anchors_range"),
        (dict(minor_anchors_range=(-1, 2)), "minor_anchors_range"),
        (dict(excursion_stops=(5, 3)), "excursion_stops"),
        (dict(excursion_stops=(3,)), "excursion_stops"),
        (dict(hotspot_session_h=(2.5, 0.8)), "hotspot_session_h"),
        # zero here would divide by zero inside the generator
        (dict(stay_min_h=0.0), "stay_min_h"),
        (dict(stay_pareto_alpha=0.0), "stay_pareto_alpha"),
        (dict(bus_speed_mps=0.0), "bus_speed_mps"),
        # out of range or not finite
        (dict(stay_min_h=7.0, stay_max_h=6.0), "stay_min_h"),
        (dict(walk_speed_mps=-1.4), "walk_speed_mps"),
        (dict(p_errand=2.0), "p_errand"),
        (dict(minor_visit_probs=(1.5, -0.2)), "minor_visit_probs"),
        (dict(hotspot_day_session_prob=1.5), "hotspot_day_session_prob"),
        (dict(hotspot_evening_session_prob=-0.1), "hotspot_evening_session_prob"),
        (dict(anchor_sep_m=-250.0), "anchor_sep_m"),
        (dict(venues_per_user=-20.0), "venues_per_user"),
        (dict(visibility_radius_m=float("nan")), "visibility_radius_m"),
        (dict(stay_max_h=float("inf")), "stay_max_h"),
        (dict(hotspot_session_h=(0.8, float("nan"))), "hotspot_session_h"),
        (dict(ap_anchor_density_scale=float("-inf")), "ap_anchor_density_scale"),
        (dict(ap_per_anchor_min=-1), "ap_per_anchor_min"),
        (dict(gps_noise_m=-10.0), "gps_noise_m"),
        (dict(ap_density_noise_sigma=-0.5), "ap_density_noise_sigma"),
        (dict(routine_change_day=-1), "routine_change_day"),
        (dict(seed=-1), "seed"),
        (dict(density_cells=2, density_weights=(1.0, float("nan"), 1.0, 1.0)), "density_weights"),
        (dict(density_cells=2, density_weights=(1.0, -1.0, 1.0, 1.0)), "density_weights"),
        (dict(density_cells=2, density_weights=(0.0,) * 4), "density_weights"),
    ],
)
def test_bad_spec_names_its_field(bad, field):
    spec = WorldSpec(**{"seed": 0, "n_users": 2, "n_days": 1, **bad})
    with pytest.raises(ValueError, match=field):
        spec.validate()
    with pytest.raises(ValueError, match=field):
        generate_world(spec)


def test_edge_specs_stay_valid():
    WorldSpec(density_cells=1, density_weights=(1.0,)).validate()
    WorldSpec(density_cells=2, density_weights=(1.0, 2.0, 3.0, 4.0)).validate()
    WorldSpec(minor_anchors_range=(0, 0), excursion_stops=(3, 3), hotspot_session_h=(1.0, 1.0)).validate()
    # every bound that validate draws, taken at its edge, builds a world
    edges = [
        dict(stay_min_h=6.0, stay_max_h=6.0, stay_pareto_alpha=1e-3),
        dict(p_errand=0.0, p_excursion=1.0, minor_visit_probs=(1.0, 0.0)),
        dict(hotspot_day_session_prob=1.0, hotspot_evening_session_prob=0.0, scan_dropout=1.0),
        dict(anchor_sep_m=0.0, venues_per_user=0.0, ap_anchor_radius_m=0.0, gps_noise_m=0.0),
        dict(ap_per_anchor_min=0, ap_anchor_base=0.0, ap_anchor_density_scale=0.0, campus_extra_aps=0),
        dict(background_aps_per_km2=0.0, ap_density_noise_sigma=0.0, walk_max_m=0.0, routine_change_day=0),
        dict(density_cells=2, density_weights=(0.0, 0.0, 0.0, 1.0), minor_visit_probs=()),
    ]
    for edge in edges:
        spec = WorldSpec(seed=0, n_users=3, n_days=1, **edge)
        simulate_sensor_arrays(generate_world(spec), spec)


def _assert_query_matches_brute(index, x, y, qx, qy, r):
    offsets, ids = index.query(qx, qy)
    assert offsets.shape == (qx.size + 1,) and offsets[0] == 0
    assert offsets[-1] == ids.size
    expected = brute_radius_query(x, y, qx, qy, r)
    for k, want in enumerate(expected):
        assert np.array_equal(ids[offsets[k] : offsets[k + 1]], want), k
    return offsets, ids


def test_point_index_matches_brute_force_on_random_points():
    rng = np.random.default_rng(3)
    r = 100.0
    x = rng.uniform(-1500.0, 1500.0, 3000)
    y = rng.uniform(-1500.0, 1500.0, 3000)
    index = _PointIndex(x, y, r)
    qx = rng.uniform(-1700.0, 1700.0, 2000)
    qy = rng.uniform(-1700.0, 1700.0, 2000)
    offsets, _ = _assert_query_matches_brute(index, x, y, qx, qy, r)
    assert np.diff(offsets).max() >= 5


def test_point_index_edge_cases():
    r = 100.0
    # points on cell corners, negative coordinates, duplicates and a lone
    # far-away point; queries exactly r away along axes and on a 60-80-100
    # triangle, and far outside every cell
    x = np.array([0.0, 100.0, -100.0, 0.0, 60.0, -60.0, 60.0, 60.0, -300.0, -300.0, 5000.0])
    y = np.array([0.0, 0.0, 0.0, -100.0, 80.0, -80.0, 80.0, 80.0, -200.0, -200.0, -5000.0])
    index = _PointIndex(x, y, r)
    qx = np.array([0.0, 0.0, 0.0, -300.0, -400.0, 1e6, -1e6, 5000.0, 200.0, -199.0])
    qy = np.array([0.0, 0.0, 100.0, -200.0, -200.0, 1e6, 0.0, -4900.0, 0.0, 0.0])
    offsets, ids = _assert_query_matches_brute(index, x, y, qx, qy, r)
    row = lambda k: list(ids[offsets[k] : offsets[k + 1]])
    # distance exactly r counts as visible
    assert row(0) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert row(8) == [1]
    assert row(4) == [8, 9]
    assert row(5) == [] and row(6) == []
    assert row(7) == [10]


def test_point_index_without_queries_or_points():
    index = _PointIndex(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 100.0)
    offsets, ids = index.query(np.empty(0), np.empty(0))
    assert list(offsets) == [0] and ids.size == 0
    empty = _PointIndex(np.empty(0), np.empty(0), 100.0)
    offsets, ids = empty.query(np.array([0.0, 50.0]), np.array([0.0, -50.0]))
    assert list(offsets) == [0, 0, 0] and ids.size == 0


def _state(rng):
    return repr(rng.bit_generator.state)


# zero-weight cells first, last and between weighted ones
_GAPPY = dict(density_cells=3, density_weights=(0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.5, 3.0, 0.0))


@pytest.mark.parametrize(
    "extent_km, count, sep_m, power, n_taken, grid_kw",
    [
        pytest.param(8.0, 120, 250.0, 0.35, 0, {}, id="8.0-120-250.0-0.35-0"),
        pytest.param(8.0, 40, 250.0, 4.0, 30, {}, id="8.0-40-250.0-4.0-30"),
        # crowded: the rejection budget runs out, so placements relax to
        # sep/2 and then accept overlap
        pytest.param(1.0, 60, 250.0, 0.22, 5, {}, id="1.0-60-250.0-0.22-5"),
        # a cell with no mass is never drawn
        pytest.param(2.0, 80, 100.0, 0.35, 4, _GAPPY, id="zero-weight-cells"),
        pytest.param(1.0, 30, 120.0, 1.0, 3, dict(density_cells=1), id="one-cell"),
        # no separation: every first candidate is taken
        pytest.param(1.0, 50, 0.0, 0.35, 6, {}, id="sep-0"),
        # nothing to place: no draw at all
        pytest.param(8.0, 0, 250.0, 0.35, 7, {}, id="count-0"),
    ],
)
def test_place_separated_matches_the_loop_draw_for_draw(
    extent_km, count, sep_m, power, n_taken, grid_kw
):
    grid = _CityGrid(WorldSpec(extent_km=extent_km, **grid_kw))
    seed_rng = np.random.default_rng(11)
    taken = [tuple(map(float, p)) for p in seed_rng.uniform(-400.0, 400.0, (n_taken, 2))]
    fast_rng, loop_rng = _rng(5, 0), _rng(5, 0)
    grown = _place_separated(fast_rng, grid, count, sep_m, np.array(taken).reshape(-1, 2), power)
    want = place_separated_loop(loop_rng, grid, count, sep_m, list(taken), power)
    assert grown.shape == (n_taken + count, 2)
    assert np.array_equal(grown[:n_taken], np.array(taken).reshape(-1, 2))
    assert [tuple(map(float, p)) for p in grown[n_taken:]] == want
    assert _state(fast_rng) == _state(loop_rng)
    if count == 0:
        assert _state(fast_rng) == _state(_rng(5, 0))
    if sep_m == 0:
        # one cell draw and two coordinates per point, none rejected
        fresh = _rng(5, 0)
        fresh.random(3 * count)
        assert _state(fast_rng) == _state(fresh)
    if grid_kw.get("density_weights"):
        assert (grid.weight_at_xy(grown[n_taken:, 0], grown[n_taken:, 1]) > 0).all()
    if extent_km == 1.0 and sep_m == 250.0:
        # each placed point's distance to the nearest point placed before it
        nearest = np.array(
            [np.hypot(*(grown[:k] - grown[k]).T).min() for k in range(max(n_taken, 1), len(grown))]
        )
        assert ((nearest >= sep_m / 2) & (nearest < sep_m)).any()  # relaxed to sep/2
        assert (nearest < sep_m / 2).any()  # overlap accepted


def test_place_separated_raises_where_choice_raised():
    # zero-weight cells raised to a negative power leave no valid cell draw
    spec = WorldSpec(
        n_users=2, n_days=1, density_cells=2, density_weights=(0.0, 1.0, 1.0, 1.0),
        errand_density_power=-1.0,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="cell probabilities"):
            _place_separated(_rng(5, 0), _CityGrid(spec), 1, 250.0, np.empty((0, 2)), -1.0)
        with pytest.raises(ValueError, match="cell probabilities"):
            generate_world(spec)


def _loop_placement(rng, grid, count, sep_m, taken, power=1.0):
    """``_place_separated`` answered by the one-point-at-a-time oracle."""
    taken_xy = [tuple(map(float, p)) for p in taken]
    place_separated_loop(rng, grid, count, sep_m, taken_xy, power)
    return np.array(taken_xy, dtype=np.float64).reshape(-1, 2)


@pytest.mark.parametrize(
    "spec",
    [
        WorldSpec(seed=3, n_users=5, n_days=2),
        # a small city: placements relax and overlap; an odd separation
        WorldSpec(seed=8, n_users=6, n_days=1, extent_km=1.5, anchor_sep_m=333.3),
    ],
    ids=["default", "crowded"],
)
def test_world_is_the_same_with_the_loop_placement(monkeypatch, spec):
    """The whole world, sensor log included, is equal to the one built with
    the oracle's placement: every draw, accept and reject matches."""
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    monkeypatch.setattr(synthgen, "_place_separated", _loop_placement)
    loop_gt = generate_world(spec)
    loop_arrays = simulate_sensor_arrays(loop_gt, spec)
    for name in ("anchor_x", "anchor_y", "venue_x", "venue_y", "ap_x", "ap_y", "ap_anchor"):
        assert np.array_equal(getattr(gt, name), getattr(loop_gt, name)), name
    for f in fields(arrays):
        a, b = getattr(arrays, f.name), getattr(loop_arrays, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name


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
    for i, p in enumerate(gt.static_positions().values()):
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


def test_every_scan_lists_exactly_the_static_routers_in_range():
    """Every non-empty scan lists its ids ascending, and its static ids are
    exactly the static routers within the visibility radius of the device's
    planar position, on a world whose scans also carry bus and hotspot
    sightings."""
    spec = WorldSpec(seed=6, n_users=5, n_days=2, extent_km=5.0)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    vis2 = spec.visibility_radius_m * spec.visibility_radius_m
    kinds = {m.ap_id: m.kind for m in gt.mobile_aps}
    mobile_seen = np.unique(arrays.scan_ap[arrays.scan_ap >= gt.n_static])
    assert {kinds[int(a)] for a in mobile_seen} == {"bus", "hotspot"}

    counts = arrays.scan_counts()
    # every scan lists its ids strictly ascending
    starts_row = np.zeros(arrays.scan_ap.size, dtype=bool)
    starts_row[arrays.scan_off[:-1][counts > 0]] = True
    assert (np.diff(arrays.scan_ap)[~starts_row[1:]] > 0).all()

    checked = 0
    for u in range(spec.n_users):
        rows = np.nonzero((arrays.scan_user == u) & (counts > 0))[0]
        sx, sy = gt.segments[u].position_xy(arrays.scan_ts[rows])
        for chunk in np.array_split(np.arange(rows.size), max(1, rows.size // 1000)):
            dx = gt.ap_x[None, :] - sx[chunk, None]
            dy = gt.ap_y[None, :] - sy[chunk, None]
            want = dx * dx + dy * dy <= vis2
            # the chunk's sightings, each tagged with its row in the chunk
            n = counts[rows[chunk]]
            at = np.repeat(arrays.scan_off[rows[chunk]] - (np.cumsum(n) - n), n) + np.arange(n.sum())
            ap = arrays.scan_ap[at]
            row = np.repeat(np.arange(chunk.size), n)
            got = np.zeros_like(want)
            got[row[ap < gt.n_static], ap[ap < gt.n_static]] = True
            assert np.array_equal(got, want)
            checked += chunk.size
    assert checked > 0.85 * arrays.n_scans


SPARSE_MOBILE_WORLD = WorldSpec(
    seed=6,
    n_users=8,
    n_days=3,
    ap_per_anchor_min=0,
    ap_anchor_base=0.0,
    ap_anchor_density_scale=0.0,
    campus_extra_aps=0,
    background_aps_per_km2=0.5,
    mobile_ap_fraction=1.0,
)
# most users share places, and one in twenty routers is mobile
HOTSPOT_WORLD = WorldSpec(
    seed=11, n_users=20, n_days=10, colocated_fraction=0.9, mobile_ap_fraction=0.05
)


@pytest.mark.parametrize(
    "spec",
    [WorldSpec(seed=6, n_users=5, n_days=2, extent_km=5.0), SPARSE_MOBILE_WORLD, HOTSPOT_WORLD],
    ids=["seed6", "sparse", "hotspot_dense"],
)
def test_bus_and_hotspot_rows_follow_their_rules(spec):
    """A bus router is listed by its rider exactly while aboard, and a
    hotspot only by another user staying at its owner's anchor at that
    instant. In the sparse world most rows hold no static id, so the mobile
    ids of many rows go in at one flat position and must keep row order."""
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    counts = arrays.scan_counts()
    scan_of = np.repeat(np.arange(arrays.n_scans), counts)
    viewer = arrays.scan_user[scan_of]
    ts = arrays.scan_ts[scan_of]

    def segment_at(u, t):
        seg = gt.segments[u]
        i = np.clip(np.searchsorted(seg.t1, t, side="right"), 0, len(seg.t0) - 1)
        return seg, i

    buses = [m for m in gt.mobile_aps if m.kind == "bus"]
    assert buses
    for m in buses:
        hit = arrays.scan_ap == m.ap_id
        # (a) only its rider lists it, and only on bus segments
        assert (viewer[hit] == m.owner).all()
        seg, i = segment_at(m.owner, ts[hit])
        assert ((seg.kind[i] == 1) & seg.is_bus[i]).all()
        # (b) every non-empty scan of the rider aboard lists it
        rows = np.nonzero((arrays.scan_user == m.owner) & (counts > 0))[0]
        seg, i = segment_at(m.owner, arrays.scan_ts[rows])
        aboard = rows[(seg.kind[i] == 1) & seg.is_bus[i]]
        assert aboard.size > 0
        assert np.array_equal(np.unique(scan_of[hit]), aboard)

    # (c) hotspot rows, exactly: every non-empty scan lists the hotspots of
    # the other users tethering at the viewer's anchor, and no other
    hotspot_ids = [m.ap_id for m in gt.mobile_aps if m.kind == "hotspot"]
    hit = np.isin(arrays.scan_ap, hotspot_ids)
    listed = sorted(zip(scan_of[hit].tolist(), arrays.scan_ap[hit].tolist()))
    assert listed
    assert listed == hotspot_sightings_loop(gt, arrays)


def test_desert_world_has_only_empty_scans():
    """No router in range, or no scan kept (an empty batched query): every
    scan row is empty."""
    desert = WorldSpec(
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
    silent = WorldSpec(seed=3, n_users=2, n_days=1, scan_dropout=1.0)
    for spec in (desert, silent):
        gt = generate_world(spec)
        assert (gt.n_static == 0) == (spec is desert)
        arrays = simulate_sensor_arrays(gt, spec)
        assert arrays.n_scans > 0
        assert arrays.scan_ap.size == 0
        assert not arrays.scan_off.any()
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
    labels = {gt.bssid(m.ap_id): m.ssid for m in gt.mobile_aps}
    assert len(labels) == len(gt.mobile_aps)
    assert set(labels.values()) <= set(MOBILE_HOTSPOT_SSIDS) | set(MOBILE_TRANSIT_SSIDS)


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


def test_file_route_equals_the_in_memory_route(tmp_path):
    """Writing a log and ingesting it again gives back every column with its
    dtype, so both routes pair alike, even at a threshold equal to the
    generated accuracy (7.3 is not a float32 value)."""
    spec = WorldSpec(seed=3, n_users=2, n_days=2, gps_noise_m=7.3)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt)
    write_dataset(gt, arrays, tmp_path)
    back, _ = ingest_arrays(tmp_path / "gps.jsonl", tmp_path / "wifi.jsonl")
    assert back.user_ids == arrays.user_ids
    for f in fields(SensorArrays):
        if f.name not in ("user_ids", "bssids", "scan_ap"):
            got, want = getattr(back, f.name), getattr(arrays, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
    assert back.scan_ap.dtype == arrays.scan_ap.dtype
    assert [back.bssids[i] for i in back.scan_ap] == [arrays.bssids[i] for i in arrays.scan_ap]
    cfg = PairingConfig(max_accuracy_m=7.3)
    assert pair_arrays(back, cfg).count() == pair_arrays(arrays, cfg).count() > 0


def test_wifi_log_carries_the_ssid_of_mobile_routers_only(tmp_path, small_world):
    _, gt, arrays, _ = small_world
    write_dataset(gt, arrays, tmp_path)
    ssid_of = {gt.bssid(m.ap_id): m.ssid for m in gt.mobile_aps}
    mobile_seen = 0
    with (tmp_path / "wifi.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            for ap in json.loads(line)["aps"]:
                if ap["bssid"] in ssid_of:
                    assert ap["ssid"] == ssid_of[ap["bssid"]]
                    mobile_seen += 1
                else:
                    assert "ssid" not in ap
    assert mobile_seen > 0


@pytest.mark.parametrize("field", ["wifi_scan_period_s", "gps_period_s"])
@pytest.mark.parametrize("period", [0.01, 5e-324])
def test_sensor_period_too_short_for_the_span_names_its_field(field, period):
    # validate only: simulating this world would draw 3.5e8 gaps per user
    # at 0.01 s, and more than a float can count at the smallest subnormal
    with pytest.raises(ValueError, match=f"^{field} is too short"):
        WorldSpec(**{field: period}).validate()


def test_long_worlds_at_short_sensor_periods_stay_valid():
    WorldSpec().validate()
    WorldSpec(n_days=200, wifi_scan_period_s=60.0).validate()
    for period in (16.0, 1.0):
        WorldSpec(n_days=180, wifi_scan_period_s=period, gps_period_s=period).validate()


def test_sensor_draw_bound_admits_its_own_value(monkeypatch):
    spec = WorldSpec(n_users=2, n_days=1)
    scans, fixes = synthgen._sensor_draws(spec)
    assert (scans, fixes) == (DAY_MS // 12_000 + 2, DAY_MS // 600_000 + 1)
    monkeypatch.setattr(synthgen, "_MAX_DRAWS_PER_USER", scans)
    spec.validate()
    monkeypatch.setattr(synthgen, "_MAX_DRAWS_PER_USER", scans - 1)
    with pytest.raises(ValueError, match="^wifi_scan_period_s"):
        spec.validate()
    spec = WorldSpec(n_users=2, n_days=1, gps_period_s=10.0)
    monkeypatch.setattr(synthgen, "_MAX_DRAWS_PER_USER", scans)
    with pytest.raises(ValueError, match="^gps_period_s"):
        spec.validate()


def test_simulate_refuses_a_spec_other_than_the_worlds(default_world):
    """A second spec would bypass the bound that generate_world validated:
    at 0.01 s the default world's scan schedules would take 2.8 GB per user.
    The call names the differing fields before it allocates anything."""
    _, gt, _ = default_world
    fast = replace(gt.spec, wifi_scan_period_s=0.01)
    with pytest.raises(ValueError, match="wifi_scan_period_s"):
        fast.validate()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"differs from the world's in wifi_scan_period_s$"):
            simulate_sensor_arrays(gt, fast)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(ValueError, match="in seed, gps_period_s$"):
        simulate_sensor_arrays(gt, replace(gt.spec, seed=8, gps_period_s=10.0))


def test_simulate_without_a_spec_uses_the_worlds():
    spec = WorldSpec(seed=3, n_users=2, n_days=1)
    gt = generate_world(spec)
    a1, a2 = simulate_sensor_arrays(gt), simulate_sensor_arrays(gt, gt.spec)
    for f in fields(a1):
        x, y = getattr(a1, f.name), getattr(a2, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_default_world_calibration(default_world):
    """Emission statistics the generator is tuned to: most scans hear
    something, and busier districts mean more routers per scan."""
    from wifimob.synthgen import density_count_r2

    _, gt, arrays = default_world
    assert 2500 <= gt.n_static <= 3700
    nonempty = arrays.nonempty_scan_fraction()
    assert 0.85 <= nonempty <= 0.95
    r2 = density_count_r2(gt, arrays)
    assert 0.35 <= r2 <= 0.65
