import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _lazy_greedy,
    arrays_to_traceset,
    coverage_via_record_pipeline,
    exhaustive_max_coverage,
    greedy_top_routers,
    prepare_from_traces,
    records_to_arrays,
    select_training_pairs,
    table_from_traces,
)
from wifimob.ap_locator import LocatorConfig
from wifimob.coverage_metrics import DAY_MS, DEFAULT_BIN_MS
from wifimob.experiments import (
    ExperimentConfig,
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    _NEVER,
    _check_key_range,
    _coverage_from_first_ts,
    _greedy_picks,
    _selection_mask,
    _table_from_arrays,
    prepare_experiment_data,
    run_experiment,
    stability_decline,
)
from wifimob.pairing import PairedObservation
from wifimob.reconstructor import build_timeline, timeline_coverage
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays
from wifimob.trace_model import (
    ApSighting,
    GeoPoint,
    GpsFix,
    SensorArrays,
    TraceError,
    WifiScan,
    user_bounds,
)

P = GeoPoint(55.7, 12.5)


def _obs(user, ts, bssid="02:00:00:00:00:01"):
    return PairedObservation(bssid=bssid, pos=P, ts=ts, user=user)


class TestSelectTrainingPairs:
    def test_keep_all(self):
        obs = [_obs("a", t) for t in range(10)]
        assert select_training_pairs(obs, RandomFraction(f=1.0, seed=0)) == obs

    def test_keep_none(self):
        obs = [_obs("a", t) for t in range(10)]
        assert select_training_pairs(obs, RandomFraction(f=0.0, seed=0)) == []

    def test_initial_period_cutoff(self):
        obs = [_obs("a", day * DAY_MS) for day in range(200)]
        picked = select_training_pairs(obs, InitialPeriod(days=7), dataset_start_ms=0)
        assert [o.ts // DAY_MS for o in picked] == list(range(7))

    def test_fix_events_travel_together(self):
        obs = []
        for t in range(50):
            obs.append(_obs("a", t * 1000, bssid="02:00:00:00:00:01"))
            obs.append(_obs("a", t * 1000, bssid="02:00:00:00:00:02"))
        picked = select_training_pairs(obs, RandomFraction(f=0.4, seed=3))
        by_event = {}
        for o in picked:
            by_event.setdefault(o.ts, set()).add(o.bssid)
        for bssids in by_event.values():
            assert len(bssids) == 2  # both observations of a kept fix survive

    def test_scenarios_filter_contributors(self):
        obs = [_obs("a", 1), _obs("b", 2)]
        personal = select_training_pairs(
            obs, RandomFraction(f=1.0, seed=0), viewer="a", scenario=Scenario.PERSONAL
        )
        assert {o.user for o in personal} == {"a"}
        others = select_training_pairs(
            obs,
            RandomFraction(f=1.0, seed=0),
            viewer="a",
            scenario=Scenario.GLOBAL_EXCLUDING_SELF,
        )
        assert {o.user for o in others} == {"b"}

    def test_viewer_required_for_personal(self):
        with pytest.raises(ValueError):
            select_training_pairs([], RandomFraction(f=1.0, seed=0), scenario=Scenario.PERSONAL)

    def test_top_routers_not_a_gps_strategy(self):
        with pytest.raises(ValueError):
            select_training_pairs([], TopRouters(k=3))


def _scan(user, bin_idx, bssids):
    return WifiScan(
        user=user,
        ts=bin_idx * 600_000,
        sightings=[ApSighting(b) for b in bssids],
    )


class TestGreedy:
    A, B, C = "02:00:00:00:00:0a", "02:00:00:00:00:0b", "02:00:00:00:00:0c"

    def test_k1_picks_most_covering(self):
        scans = [_scan("u", i, [self.A]) for i in range(5)]
        scans += [_scan("u", 10 + i, [self.B]) for i in range(3)]
        assert greedy_top_routers(scans, 1) == [self.A]

    def test_marginal_gain_example(self):
        # A covers bins 1-5, B 4-8, C 6-9: A first, then C (4 new > B's 3)
        scans = []
        for b in range(1, 6):
            scans.append(_scan("u", b, [self.A]))
        for b in range(4, 9):
            scans.append(_scan("u", b, [self.B]))
        for b in range(6, 10):
            scans.append(_scan("u", b, [self.C]))
        # merge sightings per bin
        merged = {}
        for s in scans:
            merged.setdefault(s.ts, []).extend(s.sightings)
        scans = [WifiScan(user="u", ts=ts, sightings=sl) for ts, sl in merged.items()]
        assert greedy_top_routers(scans, 2) == [self.A, self.C]
        best2 = exhaustive_max_coverage(
            {self.A: set(range(1, 6)), self.B: set(range(4, 9)), self.C: set(range(6, 10))}, 2
        )
        assert best2 == 9  # greedy also reaches 5 + 4

    def test_k_exceeding_routers_saturates(self):
        scans = [_scan("u", 0, [self.A, self.B])]
        assert set(greedy_top_routers(scans, 10)) == {self.A, self.B}

    def test_ties_break_lexicographically(self):
        scans = [_scan("u", 0, [self.B, self.A])]
        assert greedy_top_routers(scans, 1) == [self.A]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            greedy_top_routers([], 0)

    @pytest.mark.parametrize("trial", range(12))
    def test_greedy_bounds_against_enumeration(self, trial):
        rng = np.random.default_rng(400 + trial)
        n_routers = int(rng.integers(3, 16))
        sets = {}
        for r in range(n_routers):
            size = int(rng.integers(1, 9))
            sets[f"02:00:00:00:00:{r:02x}"] = set(
                int(b) for b in rng.integers(0, 25, size=size)
            )
        scans = []
        for bssid, bins in sets.items():
            for b in bins:
                scans.append(_scan("u", b, [bssid]))
        merged = {}
        for s in scans:
            merged.setdefault(s.ts, []).extend(s.sightings)
        scans = [WifiScan(user="u", ts=ts, sightings=sl) for ts, sl in merged.items()]

        chosen1 = greedy_top_routers(scans, 1)
        covered1 = len(sets[chosen1[0]])
        assert covered1 == exhaustive_max_coverage(sets, 1)

        for k in (2, 3):
            chosen = greedy_top_routers(scans, k)
            covered = len(set().union(*(sets[c] for c in chosen)))
            optimum = exhaustive_max_coverage(sets, k)
            assert covered >= (1 - 1 / math.e) * optimum


def _bin_sets(bins, aps):
    """AP id -> the bins holding it: the oracle's view of one user's rows."""
    sets = {}
    for b, a in zip(bins.tolist(), aps.tolist()):
        sets.setdefault(a, set()).add(b)
    return sets


def _rows(sets):
    """Presence rows of one user, sorted by (bin, ap) as the table holds them."""
    pairs = sorted((b, a) for a, bins in sets.items() for b in bins)
    bins = np.array([b for b, _ in pairs], dtype=np.int64)
    aps = np.array([a for _, a in pairs], dtype=np.int32)
    return bins, aps


class TestArrayGreedy:
    """``_greedy_picks`` picks what the heap-based lazy greedy picks, in order."""

    def test_every_user_of_default_world(self, default_data):
        t = default_data.table
        bounds = user_bounds(t.pres_user, t.n_users)
        selections = {k: default_data.top_router_selections(k) for k in (1, 5, 20)}
        for u in range(t.n_users):
            bins, aps = t.pres_bin[bounds[u] : bounds[u + 1]], t.pres_ap[bounds[u] : bounds[u + 1]]
            sets = _bin_sets(bins, aps)
            assert len(sets) > 20
            for k in (1, 5, 20, len(sets) + 3):
                want = _lazy_greedy(sets, k)
                assert _greedy_picks(bins, aps, t.n_aps, k).tolist() == want, (u, k)
                if k in selections:
                    assert selections[k][u].tolist() == sorted(want), (u, k)

    @pytest.mark.parametrize("trial", range(40))
    def test_random_small_instances(self, trial):
        # few bins and routers, so equal gains are common
        rng = np.random.default_rng(900 + trial)
        for _ in range(25):
            n_aps = int(rng.integers(1, 9))
            n_bins = int(rng.integers(1, 7))
            sets = {}
            for _ in range(int(rng.integers(0, 20))):
                sets.setdefault(int(rng.integers(0, n_aps)), set()).add(int(rng.integers(0, n_bins)))
            bins, aps = _rows(sets)
            for k in (1, 2, 3, n_aps + 2):
                assert _greedy_picks(bins, aps, n_aps, k).tolist() == _lazy_greedy(sets, k)

    def test_no_presence_rows(self):
        empty = _greedy_picks(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32), 4, 3)
        assert empty.tolist() == _lazy_greedy({}, 3) == []
        # user 1 scans but never sees a router
        arrays = _hand_built_arrays(
            [(0, 0, [0, 1]), (0, 600_000, [1]), (1, 0, []), (1, 600_000, [])], [0, 1], [0, 1]
        )
        data = prepare_experiment_data(arrays)
        assert [sel.tolist() for sel in data.top_router_selections(3)] == [[0, 1], []]

    def test_tie_goes_to_lower_router_id(self):
        # routers 1 and 3 each add two bins; 0 and 2 then tie in the padding
        sets = {3: {0, 1}, 1: {2, 3}, 2: {0}, 0: {3}}
        bins, aps = _rows(sets)
        assert _lazy_greedy(sets, 4) == [1, 3, 0, 2]
        assert _greedy_picks(bins, aps, 4, 4).tolist() == [1, 3, 0, 2]
        assert _greedy_picks(bins, aps, 4, 1).tolist() == [1]


class TestExperimentConfig:
    def test_unknown_known_rule_raises(self):
        with pytest.raises(ValueError, match="known_rule"):
            ExperimentConfig(known_rule="bogus")

    @pytest.mark.parametrize("bin_ms", [0, -600_000, 600_000.0, "600000", True])
    def test_bin_ms_must_be_a_positive_int(self, bin_ms):
        with pytest.raises(ValueError, match="bin_ms"):
            ExperimentConfig(bin_ms=bin_ms)

    def test_valid_fields_accepted(self):
        cfg = ExperimentConfig(bin_ms=1, known_rule="classified")
        assert (cfg.bin_ms, cfg.known_rule) == (1, "classified")


class TestEngine:
    def test_engines_agree_on_records_and_arrays(self, small_world):
        _, _, arrays, traces = small_world
        cfg = ExperimentConfig()
        data_a = prepare_experiment_data(arrays, cfg)
        data_r = prepare_from_traces(traces, cfg)
        for strategy in (RandomFraction(f=0.3, seed=5), TopRouters(k=5), InitialPeriod(days=2)):
            for scenario in Scenario:
                res_a = run_experiment(data_a, strategy, scenario, cfg)
                res_r = run_experiment(data_r, strategy, scenario, cfg)
                assert res_a.coverage.per_user_day == res_r.coverage.per_user_day

    def test_engine_matches_record_pipeline(self, small_world):
        """The columnar engine agrees with an independently built route:
        per-viewer naive databases plus binned timelines."""
        _, _, arrays, traces = small_world
        cfg = ExperimentConfig()
        data = prepare_experiment_data(arrays, cfg)
        for strategy in (RandomFraction(f=0.3, seed=5), TopRouters(k=4), InitialPeriod(days=2)):
            for scenario in Scenario:
                engine = run_experiment(data, strategy, scenario, cfg).coverage
                reference = coverage_via_record_pipeline(traces, strategy, scenario, cfg)
                assert engine.per_user_day == reference.per_user_day

    def test_classified_rule_matches_record_pipeline(self, small_world):
        """Per-viewer classified databases from record-level training subsets,
        resolved through record timelines, give the engine's coverage."""
        _, _, arrays, traces = small_world
        cfg = ExperimentConfig(known_rule="classified")
        data = prepare_experiment_data(arrays, cfg)
        for strategy in (InitialPeriod(days=2), RandomFraction(f=0.3, seed=5)):
            means = []
            for scenario in Scenario:
                engine = run_experiment(data, strategy, scenario, cfg)
                reference = coverage_via_record_pipeline(traces, strategy, scenario, cfg)
                assert engine.coverage.per_user_day == reference.per_user_day
                means.append(engine.summary["mean_coverage"])
            assert len(set(means)) > 1 and min(means) < max(means)

    def test_same_seed_identical_result(self, small_world):
        _, _, arrays, _ = small_world
        data = prepare_experiment_data(arrays)
        r1 = run_experiment(data, RandomFraction(f=0.2, seed=9), Scenario.GLOBAL)
        r2 = run_experiment(data, RandomFraction(f=0.2, seed=9), Scenario.GLOBAL)
        assert r1 == r2
        r3 = run_experiment(data, RandomFraction(f=0.2, seed=10), Scenario.GLOBAL)
        assert r3.coverage.per_user_day != r1.coverage.per_user_day

    def test_dominance_on_small_world(self, small_world):
        _, _, arrays, _ = small_world
        data = prepare_experiment_data(arrays)
        for strategy in (
            InitialPeriod(days=2),
            RandomFraction(f=0.15, seed=2),
            TopRouters(k=6),
        ):
            results = {s: run_experiment(data, strategy, s) for s in Scenario}
            g = results[Scenario.GLOBAL].coverage.per_user_day
            for other in (Scenario.PERSONAL, Scenario.GLOBAL_EXCLUDING_SELF):
                o = results[other].coverage.per_user_day
                assert set(o) == set(g)
                for key, cov in o.items():
                    assert g[key] >= cov

    def test_classified_rule_runs(self, small_world):
        """The quality filter can only shrink the known set, and a router is
        known no earlier than under ``any_sighting``: on every user-day,
        ``classified`` covers no more."""
        _, _, arrays, _ = small_world
        cfg = ExperimentConfig(known_rule="classified")
        data = prepare_experiment_data(arrays, cfg)
        for strategy in (InitialPeriod(days=2), RandomFraction(f=0.5, seed=1)):
            for scenario in Scenario:
                res = run_experiment(data, strategy, scenario, cfg).coverage.per_user_day
                loose = run_experiment(data, strategy, scenario).coverage.per_user_day
                assert set(res) == set(loose)
                for key, cov in res.items():
                    assert cov <= loose[key], (strategy, scenario, key)

    def test_classified_rule_classifies_with_the_prepared_locator(self, small_world):
        """Training databases are classified with the locator the data was
        prepared with, as the full database is, whatever the run config
        holds: prepared data has one locator."""
        _, _, arrays, _ = small_world
        strict = LocatorConfig(min_sightings=50)
        data = prepare_experiment_data(arrays, ExperimentConfig(locator=strict))
        census = data.full_database().census()
        assert census["static"] + census["relocated"] == 7
        cell = (RandomFraction(f=1.0), Scenario.GLOBAL)
        got = run_experiment(data, *cell, ExperimentConfig(known_rule="classified"))
        want = run_experiment(
            arrays, *cell, ExperimentConfig(known_rule="classified", locator=strict)
        )
        default = run_experiment(arrays, *cell, ExperimentConfig(known_rule="classified"))
        assert got.coverage.per_user_day == want.coverage.per_user_day
        assert got.coverage.per_user_day != default.coverage.per_user_day

    def test_histograms_bin_on_tenths(self, small_world):
        _, _, arrays, _ = small_world
        cfg = ExperimentConfig(histogram_days=(0, 2))
        data = prepare_experiment_data(arrays, cfg)
        res = run_experiment(data, RandomFraction(f=0.5, seed=1), Scenario.GLOBAL, cfg)
        assert set(res.histograms) == {0, 2}
        for counts in res.histograms.values():
            assert len(counts) == 10
            assert sum(counts) == len(res.coverage.day_values(0))


def test_stability_decline_requires_span():
    from wifimob.coverage_metrics import CoverageSeries
    from wifimob.experiments import ExperimentResult

    short = CoverageSeries()
    for day in range(30):
        short.add("u", day, 10, 5)
    result = ExperimentResult(
        strategy=InitialPeriod(days=7),
        scenario=Scenario.PERSONAL,
        coverage=short,
        histograms={},
        summary={},
    )
    assert stability_decline(result) is None

    long = CoverageSeries()
    for day in range(200):
        cov = 0.9 if day < 90 else 0.4
        long.add("u", day, 10, int(10 * cov))
    result_long = ExperimentResult(
        strategy=InitialPeriod(days=7),
        scenario=Scenario.PERSONAL,
        coverage=long,
        histograms={},
        summary={},
    )
    stats = stability_decline(result_long)
    assert stats.decline == pytest.approx(0.5, abs=1e-9)
    assert stats.histogram_day == 190
    assert sum(stats.histogram) == 1


def test_random_fraction_mask_matches_record_selection(small_world):
    """The i-th draw decides the i-th (user, ts) event, as on the record route."""
    _, _, arrays, _ = small_world
    data = prepare_experiment_data(arrays)
    records = data.paired_records()
    for strategy in (RandomFraction(f=0.3, seed=5), RandomFraction(f=0.05, seed=11)):
        sel, sequential = _selection_mask(data, strategy)
        assert not sequential
        users = np.array(data.table.user_ids)[data.pairs.user[sel]]
        kept = set(zip(users.tolist(), data.pairs.ts[sel].tolist()))
        assert kept == {(o.user, o.ts) for o in select_training_pairs(records, strategy)}


def test_coverage_counts_far_apart_days():
    """(user, day) counts stay apart at any day index: user a on day
    1 000 001 and user b on day 1 must not share a key."""
    ap = [ApSighting("02:00:00:00:00:01")]
    far = 1_000_001 * DAY_MS
    scans = [
        WifiScan(user="a", ts=far, sightings=ap),
        WifiScan(user="a", ts=far + 600_000, sightings=[]),
        WifiScan(user="a", ts=far + DAY_MS, sightings=ap),
        WifiScan(user="b", ts=DAY_MS, sightings=ap),
    ]
    fixes = [GpsFix(user=s.user, ts=s.ts, pos=P) for s in scans if s.sightings]
    data = prepare_experiment_data(records_to_arrays(fixes, scans))
    res = run_experiment(data, RandomFraction(f=1.0), Scenario.PERSONAL)
    assert res.coverage.per_user_day == {
        ("a", 1_000_001): 0.5,
        ("a", 1_000_002): 1.0,
        ("b", 1): 1.0,
    }


def test_relocated_guard_is_per_viewer():
    """One viewer's relocated verdict never clips another viewer's static
    knowledge: ``a`` sees X at two sites on days 0 and 1 (relocated for
    ``a``), ``b`` sees X at the first site on day 5 (static for ``b``)."""
    x = [ApSighting("02:00:00:00:00:0a")]
    far = GeoPoint(P.lat_deg, P.lon_deg + 0.02)  # about 1.3 km east
    visits = [("a", 0, P), ("a", 1, far), ("b", 5, P)]
    scans, fixes = [], []
    for user, day, pos in visits:
        for k in range(6):
            ts = day * DAY_MS + k * DEFAULT_BIN_MS
            scans.append(WifiScan(user=user, ts=ts, sightings=x))
            fixes.append(GpsFix(user=user, ts=ts, pos=pos))
    arrays = records_to_arrays(fixes, scans)
    cfg = ExperimentConfig(known_rule="classified")
    data = prepare_experiment_data(arrays, cfg)
    traces = arrays_to_traceset(arrays)
    strategy = InitialPeriod(days=30)
    for scenario in Scenario:
        engine = run_experiment(data, strategy, scenario, cfg).coverage
        reference = coverage_via_record_pipeline(traces, strategy, scenario, cfg)
        assert engine.per_user_day == reference.per_user_day, scenario
    personal = run_experiment(data, strategy, Scenario.PERSONAL, cfg).coverage
    assert personal.per_user_day == {("a", 0): 1.0, ("a", 1): 1.0, ("b", 5): 1.0}


_DEFECT_4B = (
    "defect 4(b): the relocated guard tests only a bin's latest sighting "
    "of the router against its segments; the timeline tests each scan"
)


def _seen_inside_and_after_a_segment():
    """``a`` sees X at two sites on days 0 and 1, so X is relocated, and once
    more, unpaired, a minute after the first segment's last fix: bin 5 of day
    0 holds a scan inside that segment and a later one outside every segment.
    The timeline places the bin from its first scan."""
    x = [ApSighting("02:00:00:00:00:0a")]
    far = GeoPoint(P.lat_deg, P.lon_deg + 0.02)  # about 1.3 km east
    scans, fixes = [], []
    for day, pos in ((0, P), (1, far)):
        for k in range(6):
            ts = day * DAY_MS + k * DEFAULT_BIN_MS
            scans.append(WifiScan(user="a", ts=ts, sightings=x))
            fixes.append(GpsFix(user="a", ts=ts, pos=pos))
    scans.insert(6, WifiScan(user="a", ts=5 * DEFAULT_BIN_MS + 60_000, sightings=x))
    return records_to_arrays(fixes, scans)


@pytest.mark.xfail(strict=True, reason=_DEFECT_4B)
def test_relocated_bin_seen_inside_and_after_a_segment():
    arrays = _seen_inside_and_after_a_segment()
    cfg = ExperimentConfig(known_rule="classified")
    data = prepare_experiment_data(arrays, cfg)
    table = data.full_database().router_table(data.table.bssids)
    assert table.seg_count.tolist() == [2]
    assert table.start.tolist() == [0, DAY_MS]
    assert table.end.tolist() == [5 * DEFAULT_BIN_MS, DAY_MS + 5 * DEFAULT_BIN_MS]
    traces = arrays_to_traceset(arrays)
    strategy = InitialPeriod(days=30)
    reference = coverage_via_record_pipeline(traces, strategy, Scenario.PERSONAL, cfg)
    assert reference.per_user_day == {("a", 0): 1.0, ("a", 1): 1.0}
    for scenario in Scenario:
        engine = run_experiment(data, strategy, scenario, cfg).coverage
        reference = coverage_via_record_pipeline(traces, strategy, scenario, cfg)
        assert engine.per_user_day == reference.per_user_day, scenario


def _assert_one_coverage(arrays, data):
    """The CLI's coverage (binned timelines under the full database) equals
    the engine's when every router that database places is known from time
    0, relocated ones inside their segments. Returns the shared series."""
    t = data.table
    db = data.full_database()
    table = db.router_table(t.bssids)
    viewer_first = np.broadcast_to(np.where(table.placed, 0, _NEVER), (t.n_users, t.n_aps))
    engine = _coverage_from_first_ts(data, viewer_first, [table] * t.n_users)
    timeline = timeline_coverage(build_timeline(arrays, db))
    assert timeline.per_user_day == engine.per_user_day
    return timeline.per_user_day


def test_one_coverage_definition_on_default_world(default_world, default_data):
    per_user_day = _assert_one_coverage(default_world[2], default_data)
    assert len(per_user_day) == 900


def test_one_coverage_definition_on_hand_built_static_routers():
    x, y = ApSighting("02:00:00:00:00:0a"), ApSighting("02:00:00:00:00:0b")
    scans, fixes = [], []
    for k in range(6):
        scans.append(WifiScan(user="a", ts=k * DEFAULT_BIN_MS, sightings=[x]))
        fixes.append(GpsFix(user="a", ts=k * DEFAULT_BIN_MS, pos=P))
    scans += [
        WifiScan(user="a", ts=6 * DEFAULT_BIN_MS, sightings=[y]),  # y is never placed
        WifiScan(user="a", ts=DAY_MS, sightings=[]),  # an empty scan is data too
        WifiScan(user="a", ts=DAY_MS + 60_000, sightings=[y, x]),
        WifiScan(user="b", ts=DAY_MS, sightings=[y]),
        WifiScan(user="b", ts=2 * DAY_MS, sightings=[x]),
    ]
    arrays = records_to_arrays(fixes, scans)
    data = prepare_experiment_data(arrays)
    table = data.full_database().router_table(data.table.bssids)
    assert (~np.isnan(table.lat)).tolist() == [True, False]
    assert _assert_one_coverage(arrays, data) == {
        ("a", 0): 6 / 7,
        ("a", 1): 1.0,
        ("b", 1): 0.0,
        ("b", 2): 1.0,
    }


@pytest.mark.xfail(strict=True, reason=_DEFECT_4B)
def test_one_coverage_definition_on_relocated_bin():
    arrays = _seen_inside_and_after_a_segment()
    _assert_one_coverage(arrays, prepare_experiment_data(arrays))


_TABLE_FIELDS = ("data_user", "data_bin", "pres_user", "pres_bin", "pres_last_ts")


def _assert_tables_equal(got, want):
    """Field by field, dtypes included. The columnar table may list BSSIDs
    that no scan holds, so AP ids are compared by the BSSID they name."""
    assert got.user_ids == want.user_ids
    assert got.bin_ms == want.bin_ms
    for name in _TABLE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.pres_ap.dtype == want.pres_ap.dtype
    assert [got.bssids[i] for i in got.pres_ap] == [want.bssids[i] for i in want.pres_ap]


def _oracle_table(arrays, bin_ms=DEFAULT_BIN_MS):
    return table_from_traces(arrays_to_traceset(arrays), bin_ms)


def _hand_built_arrays(scans, user_ids, bssids, fix_users=()):
    """SensorArrays from ``(user, ts, ap ids)`` scan rows, kept in the given order."""
    counts = [len(aps) for _, _, aps in scans]
    n_fix = len(fix_users)
    return SensorArrays(
        user_ids=user_ids,
        bssids=bssids,
        ssids=[None] * len(bssids),
        fix_user=np.array(fix_users, dtype=np.int32),
        fix_ts=np.arange(n_fix, dtype=np.int64),
        fix_lat=np.full(n_fix, 55.0),
        fix_lon=np.full(n_fix, 12.0),
        fix_acc=np.full(n_fix, np.nan),
        scan_user=np.array([u for u, _, _ in scans], dtype=np.int32),
        scan_ts=np.array([t for _, t, _ in scans], dtype=np.int64),
        scan_off=np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64),
        scan_ap=np.array([a for _, _, aps in scans for a in aps], dtype=np.int32),
    )


class TestScanTable:
    def test_matches_record_oracle_on_small_world(self, small_world):
        _, _, arrays, traces = small_world
        table = _table_from_arrays(arrays, DEFAULT_BIN_MS)
        assert table.pres_user.size > 0
        _assert_tables_equal(table, table_from_traces(traces, DEFAULT_BIN_MS))

    def test_matches_record_oracle_on_hand_built_arrays(self):
        bin_ms = 600_000
        interleaved = [
            (0, 700_000, [1, 0]),
            (1, 100, [2]),
            (0, 650_000, [0]),  # ap 0 again in bin 1, earlier
            (3, 5, []),  # dan's scans are all empty
            (1, 1_300_000, [0, 2]),
            (0, 10, [2]),  # rows out of time order
            (3, 900_000, []),
            (0, 1_199_999, [0]),  # ap 0 again in bin 1, latest
        ]
        user_ids = ["ann", "bob", "cat", "dan"]
        bssids = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"]
        # rows must come in (user, ts) order, fixes as well as scans
        with pytest.raises(TraceError, match="scans of user ann after those of user bob"):
            _hand_built_arrays(interleaved, user_ids, bssids, fix_users=[0, 2])
        scans = sorted(interleaved, key=lambda row: row[:2])
        with pytest.raises(TraceError, match="fixes of user ann after those of user cat"):
            _hand_built_arrays(scans, user_ids, bssids, fix_users=[2, 0])
        # cat has fixes but no scans
        arrays = _hand_built_arrays(scans, user_ids, bssids, fix_users=[0, 2])
        table = _table_from_arrays(arrays, bin_ms)
        oracle = _oracle_table(arrays, bin_ms)
        assert table.bssids == oracle.bssids
        _assert_tables_equal(table, oracle)
        assert np.array_equal(table.pres_ap, oracle.pres_ap)
        rows = list(zip(table.pres_user.tolist(), table.pres_bin.tolist(),
                        table.pres_ap.tolist(), table.pres_last_ts.tolist()))
        assert rows == [
            (0, 0, 2, 10),
            (0, 1, 0, 1_199_999),
            (0, 1, 1, 700_000),
            (1, 0, 2, 100),
            (1, 2, 0, 1_300_000),
            (1, 2, 2, 1_300_000),
        ]
        assert list(zip(table.data_user.tolist(), table.data_bin.tolist())) == [
            (0, 0), (0, 1), (1, 0), (1, 2), (3, 0), (3, 1),
        ]

    def test_empty_arrays(self):
        arrays = _hand_built_arrays([], [], [])
        table = _table_from_arrays(arrays, DEFAULT_BIN_MS)
        assert table.pres_user.size == 0 and table.data_user.size == 0
        _assert_tables_equal(table, _oracle_table(arrays))

    def test_bins_far_from_zero_do_not_wrap(self):
        """Absolute bin indices near 2**62 times the router count overflow
        int64; the key ranks each bin among the user's data bins instead."""
        scans = [(0, 2**62, [2, 0]), (0, 2**62 + 7, [1])]
        bssids = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"]
        arrays = _hand_built_arrays(scans, ["ann"], bssids)
        table = _table_from_arrays(arrays, 1)
        _assert_tables_equal(table, _oracle_table(arrays, 1))
        assert table.pres_bin.tolist() == [2**62, 2**62, 2**62 + 7]

    def test_key_range_check_raises_before_int64_wraps(self):
        side = 2**21  # side**3 == 2**63
        _check_key_range("ann", side, side, side - 1)
        _check_key_range("ann", 1, 2**62, 1)
        with pytest.raises(TraceError, match="presence keys of user ann would overflow int64"):
            _check_key_range("ann", side, side, side)
        with pytest.raises(TraceError, match="user bob"):
            _check_key_range("bob", 3, 2**40, 2**30)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_record_oracle_on_drawn_logs(self, data):
        n_users = data.draw(st.integers(0, 4), label="n_users")
        n_aps = data.draw(st.integers(0, 4), label="n_aps")
        bin_ms = data.draw(st.sampled_from([1, 7, 600_000]), label="bin_ms")
        # narrow ranges give tied timestamps and shared bins; wide ones reach 2**62
        ts = st.one_of(st.integers(0, 30), st.integers(2**62 - 30, 2**62), st.integers(0, 2**62))
        aps = st.lists(st.integers(0, n_aps - 1), unique=True, max_size=n_aps) if n_aps else st.just([])
        scans = []
        for u in range(n_users):
            rows = data.draw(st.lists(st.tuples(ts, aps), max_size=8), label=f"scans of {u}")
            scans += [(u, t, a) for t, a in sorted(rows, key=lambda row: row[0])]
        user_ids = [f"user{u}" for u in range(n_users)]
        bssids = [f"02:00:00:00:00:{i:02x}" for i in range(n_aps)]
        # every user has a fix, so users with no scans stay in the table
        arrays = _hand_built_arrays(scans, user_ids, bssids, fix_users=list(range(n_users)))
        _assert_tables_equal(_table_from_arrays(arrays, bin_ms), _oracle_table(arrays, bin_ms))

    def test_build_memory_scales_with_one_user(self):
        """Temporaries span one user's sightings, not the whole log: the
        traced peak stays within 3 int64 values per sighting. Expanding all
        sightings at once peaks near 9.5 per sighting."""
        spec = WorldSpec(seed=7, n_users=8, n_days=3)
        arrays = simulate_sensor_arrays(generate_world(spec), spec)
        n_sightings = int(arrays.scan_ap.size)
        tracemalloc.start()
        try:
            _table_from_arrays(arrays, DEFAULT_BIN_MS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n_sightings
