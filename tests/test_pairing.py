import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import arrays_to_traceset, pair_records, prepare_from_traces, records_to_arrays
from wifimob.experiments import prepare_experiment_data
from wifimob.pairing import PairingConfig, pair_arrays, pair_observations, pair_time_indices
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays
from wifimob.trace_model import ApSighting, GeoPoint, GpsFix, TraceError, TraceSet, WifiScan

AP1 = ApSighting("02:00:00:00:00:01")
AP2 = ApSighting("02:00:00:00:00:02")


def _columns(fixes, scans):
    """Hand-built records in canonical order, as columns."""
    traces = TraceSet.from_records(fixes, scans)
    return records_to_arrays(traces.fixes, traces.scans)


def _traces(fix_ts, scan_specs, user="u"):
    fixes = [GpsFix(user=user, ts=t, pos=GeoPoint(55.0, 12.0)) for t in fix_ts]
    scans = [WifiScan(user=user, ts=t, sightings=list(s)) for t, s in scan_specs]
    return _columns(fixes, scans)


def test_nearest_scan_wins():
    traces = _traces([1000], [(400, [AP1]), (1700, [AP2])])
    obs = pair_observations(traces)
    assert [o.bssid for o in obs] == [AP1.bssid]
    assert obs[0].ts == 1000  # carries the fix timestamp


def test_outside_window_no_pair():
    traces = _traces([1000], [(2500, [AP1])])
    assert pair_observations(traces) == []


def test_window_boundary_inclusive():
    traces = _traces([1000], [(2000, [AP1])])
    obs = pair_observations(traces)
    assert len(obs) == 1


def test_equidistant_tie_prefers_earlier_scan():
    traces = _traces([1000], [(600, [AP1]), (1400, [AP2])])
    obs = pair_observations(traces)
    assert [o.bssid for o in obs] == [AP1.bssid]


def test_one_scan_may_serve_multiple_fixes():
    traces = _traces([900, 1100], [(1000, [AP1])])
    obs = pair_observations(traces)
    assert len(obs) == 2
    assert {o.ts for o in obs} == {900, 1100}


def test_accuracy_filter_off_by_default():
    fixes = [GpsFix(user="u", ts=1000, pos=GeoPoint(55.0, 12.0), accuracy_m=500.0)]
    scans = [WifiScan(user="u", ts=1000, sightings=[AP1])]
    traces = _columns(fixes, scans)
    assert len(pair_observations(traces)) == 1
    strict = PairingConfig(max_accuracy_m=50.0)
    assert pair_observations(traces, strict) == []


def test_out_of_order_scans_fail_loudly():
    """A user's unsorted scans are refused when the columns are built, so
    pairing never silently misses the scan nearest in time."""
    fixes = [GpsFix(user="u", ts=0, pos=GeoPoint(55.0, 12.0))]
    scans = [WifiScan(user="u", ts=2000, sightings=[]), WifiScan(user="u", ts=0, sightings=[AP1])]
    with pytest.raises(TraceError, match="scans of user u out of time order: 0 after 2000"):
        records_to_arrays(fixes, scans)


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        PairingConfig(window_ms=0)


def test_cross_user_scans_never_pair():
    fixes = [GpsFix(user="a", ts=1000, pos=GeoPoint(55.0, 12.0))]
    scans = [WifiScan(user="b", ts=1000, sightings=[AP1])]
    assert pair_observations(_columns(fixes, scans)) == []


@given(
    st.lists(st.integers(0, 100_000), min_size=1, max_size=30),
    st.lists(st.integers(0, 100_000), min_size=1, max_size=30),
    st.integers(1, 5000),
)
@settings(max_examples=200, deadline=None)
def test_pair_time_indices_matches_naive(fix_ts, scan_ts, window):
    fix_arr = np.array(sorted(fix_ts), dtype=np.int64)
    scan_arr = np.array(sorted(scan_ts), dtype=np.int64)
    chosen = pair_time_indices(fix_arr, scan_arr, window)
    for ft, idx in zip(fix_arr, chosen):
        gaps = np.abs(scan_arr - ft)
        best = gaps.min()
        if best > window:
            assert idx == -1
        else:
            assert gaps[idx] == best
            # ties resolve to the earlier scan
            first_best = int(np.nonzero(gaps == best)[0][0])
            assert scan_arr[idx] <= scan_arr[first_best]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_pair_within_window(data):
    fix_ts = data.draw(st.lists(st.integers(0, 50_000), min_size=1, max_size=10))
    scan_ts = data.draw(st.lists(st.integers(0, 50_000), min_size=1, max_size=10))
    window = data.draw(st.integers(1, 3000))
    scans = [(t, [AP1, AP2]) for t in scan_ts]
    traces = _traces(sorted(fix_ts), scans)
    obs = pair_observations(traces, PairingConfig(window_ms=window))
    scan_arr = np.array(sorted(scan_ts), dtype=np.int64)
    for o in obs:
        assert np.abs(scan_arr - o.ts).min() <= window
    # output count: two sightings per paired fix
    paired_fixes = {o.ts for o in obs}
    assert len(obs) == 2 * sum(1 for t in fix_ts if t in paired_fixes)


def test_columnar_pairing_applies_accuracy_filter():
    spec = WorldSpec(seed=7, n_users=2, n_days=2)
    arrays = simulate_sensor_arrays(generate_world(spec), spec)
    traces = arrays_to_traceset(arrays)
    # every synthetic fix reports gps_noise_m as its accuracy
    for max_acc in (spec.gps_noise_m / 2, spec.gps_noise_m, None):
        cfg = PairingConfig(max_accuracy_m=max_acc)
        columnar = pair_observations(arrays, cfg)
        assert columnar == pair_records(traces, cfg)
        assert bool(columnar) == (max_acc != spec.gps_noise_m / 2)
        assert (
            prepare_experiment_data(arrays, cfg).pairs.count()
            == prepare_from_traces(traces, cfg).pairs.count()
            == len(columnar)
        )


def test_missing_accuracy_passes_the_filter():
    arrays = simulate_sensor_arrays(generate_world(WorldSpec(seed=7, n_users=1, n_days=1)))
    # float32 0.1 is just above the float64 threshold 0.1, as on the record route
    odd = np.arange(arrays.fix_acc.size) % 2 == 1
    arrays.fix_acc = np.where(odd, np.nan, 0.1).astype(np.float32)
    strict = PairingConfig(max_accuracy_m=0.1)
    kept = pair_arrays(arrays, strict)
    assert kept.count() and set(kept.ts.tolist()) <= set(arrays.fix_ts[1::2].tolist())
    assert pair_observations(arrays, strict) == pair_records(arrays_to_traceset(arrays), strict)


def test_deterministic_output(small_world):
    _, _, arrays, _ = small_world
    a = pair_observations(arrays)
    b = pair_observations(arrays)
    assert a == b
    assert a == sorted(a, key=lambda o: (o.bssid, o.ts, o.user))


def test_paired_fix_fraction_tracks_rate_ratio(small_world):
    """The chance a fix finds a scan within the window is set by the scan
    period: a 2-window-wide slice of every scan interval."""
    spec, _, arrays, _ = small_world
    obs = pair_observations(arrays)
    paired_fixes = {(o.user, o.ts) for o in obs}
    n_fixes = arrays.fix_ts.size
    expected = min(1.0, 2 * 1000 / (spec.wifi_scan_period_s * 1000))
    observed = len(paired_fixes) / n_fixes
    # dropout makes some paired scans empty so they emit nothing
    assert observed == pytest.approx(expected * (1 - spec.scan_dropout), rel=0.15)


def test_fix_events_count_distinct_user_ts_rows(small_world):
    _, _, arrays, _ = small_world
    pairs = pair_arrays(arrays)
    events = sorted({(int(u), int(t)) for u, t in zip(pairs.user, pairs.ts)})
    ids, n = pairs.event_ids()
    assert n == pairs.n_events() == len(events) > 0
    assert [events[i] for i in ids] == list(zip(pairs.user.tolist(), pairs.ts.tolist()))
    empty = pair_arrays(arrays, PairingConfig(max_accuracy_m=-1.0))
    assert empty.count() == 0 and empty.n_events() == 0


def test_fix_event_ids_are_computed_once(small_world):
    _, _, arrays, _ = small_world
    pairs = pair_arrays(arrays)
    ids, n = pairs.event_ids()
    assert pairs.event_ids()[0] is ids and pairs.n_events() == n
    # a PairedEvents over a subset of the rows counts its own events
    half = type(pairs)(*(getattr(pairs, f)[::2] for f in ("ap", "user", "ts", "lat", "lon")))
    assert half.n_events() == len(set(zip(half.user.tolist(), half.ts.tolist()))) < n
