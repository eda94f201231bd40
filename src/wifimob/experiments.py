"""Training-data sampling strategies crossed with data-sharing scenarios.

Three ways of choosing which paired observations teach router positions:

* ``InitialPeriod(days)``  -- everything paired before a cutoff; routers
  become usable the moment they are first learned (sequential learning).
* ``RandomFraction(f)``    -- each paired GPS fix event kept with probability
  ``f``; the resulting knowledge applies to the whole period, before and
  after the sampled instants.
* ``TopRouters(k)``        -- no GPS at all: each user's k most useful
  routers by greedy user-timebin coverage, resolved against a full-data
  router database standing in for an external geolocation service.

Three sharing scenarios decide whose knowledge a user may consult: their own
(personal), everyone's (global), or everyone else's (global excluding self).

Coverage counting defaults to the simple reading of "known": a router
counts once any training observation places it (``any_sighting``).
The alternative ``classified`` rule runs the full quality-filtered
classifier per viewer; it is strictly slower and, because added evidence can
flip a router to mobile, it does not guarantee that more shared data never
hurts.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .ap_locator import (
    ApClass,
    ApDatabase,
    LocatorConfig,
    build_database,
    build_simple_database,
)
from .coverage_metrics import DAY_MS, DEFAULT_BIN_MS, CoverageSeries, coverage_histogram
from .pairing import (  # PairedEvents is re-exported from here
    PairedEvents,
    PairedObservation,
    PairingConfig,
    pair_arrays,
    pair_observations,
)
from .trace_model import BssidId, SensorArrays, TraceSet, UserId, WifiScan
from .synthgen import _rng

_NEVER = np.int64(np.iinfo(np.int64).max)


@dataclass(frozen=True, slots=True)
class InitialPeriod:
    days: int

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")

    def label(self) -> tuple[str, str]:
        return "initial", str(self.days)


@dataclass(frozen=True, slots=True)
class RandomFraction:
    f: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise ValueError("f must be in [0, 1]")

    def label(self) -> tuple[str, str]:
        return "random", repr(self.f)


@dataclass(frozen=True, slots=True)
class TopRouters:
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def label(self) -> tuple[str, str]:
        return "top", str(self.k)


SamplingStrategy = Union[InitialPeriod, RandomFraction, TopRouters]


class Scenario(Enum):
    GLOBAL = "global"
    PERSONAL = "personal"
    GLOBAL_EXCLUDING_SELF = "global_no_personal"


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    bin_ms: int = DEFAULT_BIN_MS
    histogram_days: tuple[int, ...] = (7, 80, 190)
    known_rule: str = "any_sighting"  # or "classified"
    locator: LocatorConfig = LocatorConfig()
    pairing: PairingConfig = PairingConfig()


def select_training_pairs(
    obs: Sequence[PairedObservation],
    strategy: SamplingStrategy,
    viewer: Optional[UserId] = None,
    scenario: Scenario = Scenario.GLOBAL,
    dataset_start_ms: Optional[int] = None,
) -> list[PairedObservation]:
    """Record-level training-subset selection.

    ``RandomFraction`` keeps or drops whole GPS fix events, so all
    observations from one paired fix travel together. ``TopRouters`` does not
    subsample GPS and is rejected here; its selection happens over scans.
    """
    if scenario is not Scenario.GLOBAL and viewer is None:
        raise ValueError(f"scenario {scenario.value} needs a viewer")

    if isinstance(strategy, InitialPeriod):
        if dataset_start_ms is None:
            dataset_start_ms = min((o.ts for o in obs), default=0)
        cutoff = dataset_start_ms + strategy.days * DAY_MS
        picked = [o for o in obs if o.ts < cutoff]
    elif isinstance(strategy, RandomFraction):
        events = sorted({(o.user, o.ts) for o in obs})
        rng = _rng(strategy.seed, 100)
        keep_mask = rng.random(len(events)) < strategy.f
        keep = {ev for ev, k in zip(events, keep_mask) if k}
        picked = [o for o in obs if (o.user, o.ts) in keep]
    else:
        raise ValueError("TopRouters selects routers from scans, not GPS training pairs")

    if scenario is Scenario.PERSONAL:
        picked = [o for o in picked if o.user == viewer]
    elif scenario is Scenario.GLOBAL_EXCLUDING_SELF:
        picked = [o for o in picked if o.user != viewer]
    return picked


def _lazy_greedy(sets: dict, k: int) -> list:
    """Greedy max-coverage with lazy marginal-gain re-evaluation.

    Keys are picked by descending marginal gain; ties go to the smaller key.
    Once every remaining key adds nothing, the rest follow in descending
    original-size order until k is reached, so asking for more routers than
    exist simply returns them all.
    """
    heap = [(-len(s), key) for key, s in sets.items() if len(s)]
    heapq.heapify(heap)
    covered: set = set()
    chosen: list = []
    while heap and len(chosen) < k:
        neg_gain, key = heapq.heappop(heap)
        gain = len(sets[key] - covered)
        if gain != -neg_gain:
            if gain > 0:
                heapq.heappush(heap, (-gain, key))
            continue
        if gain == 0:
            continue
        chosen.append(key)
        covered |= sets[key]
    if len(chosen) < k:
        picked = set(chosen)
        rest = sorted((key for key in sets if key not in picked), key=lambda key: (-len(sets[key]), key))
        chosen.extend(rest[: k - len(chosen)])
    return chosen


def greedy_top_routers(scans: Iterable[WifiScan], k: int) -> list[BssidId]:
    """Routers giving the largest greedy increase in covered user-timebins.

    Works for a single user's scans or a pooled cohort; only scan occurrence
    matters, never GPS. Output order is selection order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sets: dict[BssidId, set] = {}
    for scan in scans:
        bin_key = (scan.user, scan.ts // DEFAULT_BIN_MS)
        for s in scan.sightings:
            sets.setdefault(s.bssid, set()).add(bin_key)
    return _lazy_greedy(sets, k)


@dataclass(slots=True)
class ScanTable:
    """Distinct (user, bin, ap) presence triples plus the bins holding any data.

    ``pres_last_ts`` carries the latest sighting instant of the triple, which
    is what sequential learning compares against. Both tables are sorted by
    user, then bin (then ap), so each user's rows are contiguous.
    """

    user_ids: list[UserId]
    bssids: list[BssidId]
    bin_ms: int
    data_user: np.ndarray
    data_bin: np.ndarray
    pres_user: np.ndarray
    pres_bin: np.ndarray
    pres_ap: np.ndarray
    pres_last_ts: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_aps(self) -> int:
        return len(self.bssids)


@dataclass(slots=True)
class ExperimentData:
    """Pairing plus presence tables computed once and shared across grid cells."""

    table: ScanTable
    pairs: PairedEvents
    t0_ms: int
    locator: LocatorConfig = LocatorConfig()
    _full_db: Optional[ApDatabase] = None
    # per user: AP id -> the bins in which the user saw it
    _bin_sets: Optional[list[dict[int, set[int]]]] = None
    _top_by_k: dict[int, list[np.ndarray]] = field(default_factory=dict)

    def full_database(self) -> ApDatabase:
        """Classified database over all paired data; the external-lookup stand-in."""
        if self._full_db is None:
            self._full_db = build_database(
                self.paired_records(), self.locator, built_from="all paired observations"
            )
        return self._full_db

    def paired_records(self) -> list[PairedObservation]:
        return self.pairs.to_records(self.table.user_ids, self.table.bssids)

    def top_router_selections(self, k: int) -> list[np.ndarray]:
        """Per-user greedy top-k AP ids (ascending) over the user's own timebins."""
        selections = self._top_by_k.get(k)
        if selections is None:
            selections = self._top_by_k[k] = [
                np.array(sorted(_lazy_greedy(sets, k)), dtype=np.int64)
                for sets in self._user_bin_sets()
            ]
        return selections

    def _user_bin_sets(self) -> list[dict[int, set[int]]]:
        if self._bin_sets is None:
            t = self.table
            bounds = np.searchsorted(t.pres_user, np.arange(t.n_users + 1))
            self._bin_sets = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                # the user's rows, regrouped by AP
                order = np.argsort(t.pres_ap[lo:hi])
                bins = t.pres_bin[lo:hi][order].tolist()
                aps, starts = np.unique(t.pres_ap[lo:hi][order], return_index=True)
                ends = np.append(starts[1:], len(bins))
                self._bin_sets.append({
                    ap: set(bins[s:e])
                    for ap, s, e in zip(aps.tolist(), starts.tolist(), ends.tolist())
                })
        return self._bin_sets


def _table_from_arrays(arrays: SensorArrays, bin_ms: int) -> ScanTable:
    """Presence table built one user at a time.

    Only one user's sightings are expanded at once, so the temporaries
    scale with the largest user rather than with the whole log. Scan rows
    need not be grouped by user.
    """
    n_users, n_aps = len(arrays.user_ids), len(arrays.bssids)
    by_user = np.argsort(arrays.scan_user, kind="stable")
    bounds = np.searchsorted(arrays.scan_user[by_user], np.arange(n_users + 1))
    data_user, data_bin = [], []
    pres_user, pres_bin, pres_ap, pres_last_ts = [], [], [], []
    for u in range(n_users):
        scans = by_user[bounds[u] : bounds[u + 1]]
        bins = arrays.scan_ts[scans] // bin_ms
        uniq_bins = np.unique(bins)
        data_user.append(np.full(uniq_bins.size, u, dtype=np.int32))
        data_bin.append(uniq_bins)

        flat, lens = arrays.sighting_index(scans)
        if flat.size == 0:
            continue
        key = np.repeat(bins, lens) * n_aps + arrays.scan_ap[flat]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        pres_user.append(np.full(starts.size, u, dtype=np.int32))
        pres_bin.append(key[starts] // n_aps)
        pres_ap.append(key[starts] % n_aps)
        # the latest sighting instant within each (bin, ap) run
        ts = np.repeat(arrays.scan_ts[scans], lens)
        pres_last_ts.append(np.maximum.reduceat(ts[order], starts))

    return ScanTable(
        user_ids=list(arrays.user_ids),
        bssids=list(arrays.bssids),
        bin_ms=bin_ms,
        data_user=_concat(data_user, np.int32),
        data_bin=_concat(data_bin, np.int64),
        pres_user=_concat(pres_user, np.int32),
        pres_bin=_concat(pres_bin, np.int64),
        pres_ap=_concat(pres_ap, np.int32),
        pres_last_ts=_concat(pres_last_ts, np.int64),
    )


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype=dtype)


def _table_from_traces(traces: TraceSet, bin_ms: int) -> ScanTable:
    user_ids = traces.users()
    user_idx = {u: i for i, u in enumerate(user_ids)}
    bssids = sorted({s.bssid for scan in traces.scans for s in scan.sightings})
    ap_idx = {b: i for i, b in enumerate(bssids)}

    data_pairs = set()
    last_ts: dict[tuple[int, int, int], int] = {}
    for scan in traces.scans:
        u = user_idx[scan.user]
        b = scan.ts // bin_ms
        data_pairs.add((u, b))
        for s in scan.sightings:
            key = (u, b, ap_idx[s.bssid])
            prev = last_ts.get(key)
            if prev is None or scan.ts > prev:
                last_ts[key] = scan.ts

    data_sorted = sorted(data_pairs)
    pres_sorted = sorted(last_ts.items())
    return ScanTable(
        user_ids=user_ids,
        bssids=bssids,
        bin_ms=bin_ms,
        data_user=np.array([u for u, _ in data_sorted], dtype=np.int32),
        data_bin=np.array([b for _, b in data_sorted], dtype=np.int64),
        pres_user=np.array([k[0] for k, _ in pres_sorted], dtype=np.int32),
        pres_bin=np.array([k[1] for k, _ in pres_sorted], dtype=np.int64),
        pres_ap=np.array([k[2] for k, _ in pres_sorted], dtype=np.int32),
        pres_last_ts=np.array([t for _, t in pres_sorted], dtype=np.int64),
    )


def _pairs_from_records(
    obs: Sequence[PairedObservation], table: ScanTable
) -> PairedEvents:
    user_idx = {u: i for i, u in enumerate(table.user_ids)}
    ap_idx = {b: i for i, b in enumerate(table.bssids)}
    rows = [o for o in obs if o.bssid in ap_idx and o.user in user_idx]
    return PairedEvents(
        ap=np.array([ap_idx[o.bssid] for o in rows], dtype=np.int32),
        user=np.array([user_idx[o.user] for o in rows], dtype=np.int32),
        ts=np.array([o.ts for o in rows], dtype=np.int64),
        lat=np.array([o.pos.lat_deg for o in rows], dtype=np.float64),
        lon=np.array([o.pos.lon_deg for o in rows], dtype=np.float64),
    )


def prepare_experiment_data(
    source: Union[TraceSet, SensorArrays],
    cfg: ExperimentConfig = ExperimentConfig(),
) -> ExperimentData:
    if isinstance(source, SensorArrays):
        table = _table_from_arrays(source, cfg.bin_ms)
        pairs = pair_arrays(source, cfg.pairing)
        t0 = int(min(source.fix_ts.min() if source.fix_ts.size else 0,
                     source.scan_ts.min() if source.scan_ts.size else 0))
    else:
        table = _table_from_traces(source, cfg.bin_ms)
        pairs = _pairs_from_records(pair_observations(source, cfg.pairing), table)
        t0 = source.span_ms()[0]
    return ExperimentData(table=table, pairs=pairs, t0_ms=t0, locator=cfg.locator)


@dataclass(slots=True)
class ExperimentResult:
    strategy: SamplingStrategy
    scenario: Scenario
    coverage: CoverageSeries
    histograms: dict[int, list[int]]
    summary: dict[str, float]

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if not isinstance(other, ExperimentResult):
            return NotImplemented
        return (
            self.strategy == other.strategy
            and self.scenario == other.scenario
            and self.coverage.per_user_day == other.coverage.per_user_day
            and self.histograms == other.histograms
            and self.summary == other.summary
        )


def _first_ts_matrix(
    data: ExperimentData,
    sel_mask: np.ndarray,
    sequential: bool,
) -> np.ndarray:
    """(n_users, n_aps) first usable instant per contributor; _NEVER = absent."""
    n_users, n_aps = data.table.n_users, data.table.n_aps
    mat = np.full((n_users, n_aps), _NEVER, dtype=np.int64)
    p = data.pairs
    if sel_mask.any():
        u = p.user[sel_mask].astype(np.int64)
        a = p.ap[sel_mask].astype(np.int64)
        t = p.ts[sel_mask] if sequential else np.zeros(int(sel_mask.sum()), dtype=np.int64)
        np.minimum.at(mat, (u, a), t)
    return mat


def _viewer_first_ts(mat: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Per-viewer usable-from instants under a sharing scenario."""
    n_users = mat.shape[0]
    if scenario is Scenario.PERSONAL:
        return mat
    if scenario is Scenario.GLOBAL:
        g = mat.min(axis=0)
        return np.broadcast_to(g, mat.shape)
    # global excluding self: the minimum over all other contributors
    order = np.sort(mat, axis=0)
    first = order[0]
    second = order[1] if n_users > 1 else np.full_like(first, _NEVER)
    is_sole_first = mat == first[None, :]
    # a viewer who holds the unique minimum falls back to the runner-up
    out = np.where(is_sole_first & (np.sum(is_sole_first, axis=0) == 1), second[None, :], first[None, :])
    return out


def _coverage_from_first_ts(
    data: ExperimentData,
    viewer_first_ts: np.ndarray,
    relocated_guard: Optional[dict] = None,
) -> CoverageSeries:
    t = data.table
    known = viewer_first_ts[t.pres_user.astype(np.int64), t.pres_ap.astype(np.int64)] <= t.pres_last_ts
    if relocated_guard:
        for ap, intervals in relocated_guard.items():
            sel = t.pres_ap == ap
            if not sel.any():
                continue
            ok = np.zeros(int(sel.sum()), dtype=bool)
            ts_sel = t.pres_last_ts[sel]
            for start, end in intervals:
                ok |= (ts_sel >= start) & (ts_sel <= end)
            known[sel] &= ok

    bin_ms = t.bin_ms
    cov_user = t.pres_user[known].astype(np.int64)
    cov_bin = t.pres_bin[known]
    max_bin = int(max(t.data_bin.max() if t.data_bin.size else 0,
                      cov_bin.max() if cov_bin.size else 0)) + 1
    cov_pairs = np.unique(cov_user * max_bin + cov_bin)

    series = CoverageSeries()
    data_key = t.data_user.astype(np.int64) * max_bin + t.data_bin

    cov_day = ((cov_pairs % max_bin) * bin_ms) // DAY_MS
    cov_u = cov_pairs // max_bin
    data_day = (t.data_bin * bin_ms) // DAY_MS
    data_u = t.data_user.astype(np.int64)

    def _group_counts(users, days):
        if users.size == 0:
            return {}
        key = users * 1_000_000 + days
        uniq, counts = np.unique(key, return_counts=True)
        return {(int(k // 1_000_000), int(k % 1_000_000)): int(c) for k, c in zip(uniq, counts)}

    with_data = _group_counts(data_u, data_day)
    covered = _group_counts(cov_u, cov_day)
    for (u, day), n_data in sorted(with_data.items()):
        series.add(t.user_ids[u], day, n_data, covered.get((u, day), 0))
    return series


def _selection_mask(data: ExperimentData, strategy: SamplingStrategy) -> tuple[np.ndarray, bool]:
    """Strategy filter over paired observations; bool = sequential semantics."""
    p = data.pairs
    if isinstance(strategy, InitialPeriod):
        cutoff = data.t0_ms + strategy.days * DAY_MS
        return p.ts < cutoff, True
    if isinstance(strategy, RandomFraction):
        # the i-th draw decides the i-th event in (user, ts) order, as in
        # select_training_pairs
        event, n_events = p.event_ids()
        keep_mask = _rng(strategy.seed, 100).random(n_events) < strategy.f
        return keep_mask[event], False
    raise ValueError(f"no observation mask for strategy {strategy}")


def _resolvable_static_and_relocated(db: ApDatabase, table: ScanTable):
    """AP ids usable as beacons in the classified database, plus interval
    guards for the relocated ones."""
    static_ids = []
    relocated: dict[int, list[tuple[int, int]]] = {}
    ap_idx = {b: i for i, b in enumerate(table.bssids)}
    for bssid, rec in db.records.items():
        i = ap_idx.get(bssid)
        if i is None:
            continue
        if rec.ap_class is ApClass.STATIC:
            static_ids.append(i)
        elif rec.ap_class is ApClass.RELOCATED:
            static_ids.append(i)
            relocated[i] = [(s.interval.start, s.interval.end) for s in rec.segments]
    return np.array(sorted(static_ids), dtype=np.int64), relocated


def run_experiment(
    source: Union[TraceSet, SensorArrays, ExperimentData],
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> ExperimentResult:
    """Coverage series plus coverage histograms for one grid cell."""
    data = source if isinstance(source, ExperimentData) else prepare_experiment_data(source, cfg)
    t = data.table
    n_users, n_aps = t.n_users, t.n_aps
    relocated_guard: Optional[dict] = None

    if isinstance(strategy, TopRouters):
        db = data.full_database()
        resolvable, relocated_guard = _resolvable_static_and_relocated(db, t)
        res_mask = np.zeros(n_aps, dtype=bool)
        res_mask[resolvable] = True
        picked = np.zeros((n_users, n_aps), dtype=bool)
        for u, sel in enumerate(data.top_router_selections(strategy.k)):
            usable = sel[res_mask[sel]]
            picked[u, usable] = True
        mat = np.where(picked, np.int64(0), _NEVER)
        viewer_first = _viewer_first_ts(mat, scenario)
    elif cfg.known_rule == "any_sighting":
        sel_mask, sequential = _selection_mask(data, strategy)
        mat = _first_ts_matrix(data, sel_mask, sequential)
        viewer_first = _viewer_first_ts(mat, scenario)
    elif cfg.known_rule == "classified":
        viewer_first, relocated_guard = _classified_viewer_first(data, strategy, scenario, cfg)
    else:
        raise ValueError(f"unknown known_rule: {cfg.known_rule}")

    coverage = _coverage_from_first_ts(data, viewer_first, relocated_guard)

    histograms: dict[int, list[int]] = {}
    for day in cfg.histogram_days:
        values = coverage.day_values(day)
        if values:
            histograms[day] = coverage_histogram(values)

    means = coverage.daily_means()
    summary = {
        "mean_coverage": (sum(means.values()) / len(means)) if means else 0.0,
        "n_user_days": float(len(coverage.per_user_day)),
        "n_users": float(n_users),
    }
    return ExperimentResult(
        strategy=strategy,
        scenario=scenario,
        coverage=coverage,
        histograms=histograms,
        summary=summary,
    )


def _classified_viewer_first(
    data: ExperimentData,
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig,
):
    """Per-viewer knowledge under the quality-filtered classifier.

    Builds one database per viewer from their scenario-filtered training
    subset; intended for modest datasets.
    """
    t = data.table
    obs = data.paired_records()
    ap_idx = {b: i for i, b in enumerate(t.bssids)}
    mat = np.full((t.n_users, t.n_aps), _NEVER, dtype=np.int64)
    relocated: dict[int, list[tuple[int, int]]] = {}
    for u, viewer in enumerate(t.user_ids):
        subset = select_training_pairs(
            obs, strategy, viewer=viewer, scenario=scenario, dataset_start_ms=data.t0_ms
        )
        db = build_database(subset, cfg.locator)
        for bssid, rec in db.records.items():
            i = ap_idx.get(bssid)
            if i is None:
                continue
            if rec.ap_class is ApClass.STATIC:
                mat[u, i] = 0
            elif rec.ap_class is ApClass.RELOCATED:
                mat[u, i] = 0
                relocated.setdefault(i, []).extend(
                    (s.interval.start, s.interval.end) for s in rec.segments
                )
    return mat, (relocated or None)


@dataclass(slots=True)
class DeclineStats:
    early_day: int
    late_day: int
    early_mean: float
    late_mean: float
    histogram_day: int
    histogram: list[int]

    @property
    def decline(self) -> float:
        return self.early_mean - self.late_mean


def stability_decline(
    result: ExperimentResult,
    early_day: int = 60,
    late_day: int = 160,
    window_days: int = 5,
    histogram_day: int = 190,
) -> Optional[DeclineStats]:
    """Coverage drop between two anchor days, averaged over a small window
    of daily means to keep one noisy day from deciding the statistic."""
    means = result.coverage.daily_means()
    if not means or max(means) < late_day:
        return None

    def window_mean(center: int) -> Optional[float]:
        vals = [means[d] for d in range(center - window_days, center + window_days + 1) if d in means]
        return sum(vals) / len(vals) if vals else None

    early = window_mean(early_day)
    late = window_mean(late_day)
    if early is None or late is None:
        return None
    hist_day = histogram_day if histogram_day in means else max(means)
    return DeclineStats(
        early_day=early_day,
        late_day=late_day,
        early_mean=early,
        late_mean=late,
        histogram_day=hist_day,
        histogram=coverage_histogram(result.coverage.day_values(hist_day)),
    )


def write_experiment_grid_csv(results: Sequence[ExperimentResult], path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["strategy", "param", "scenario", "day", "mean_coverage", "n_users"])
        for res in results:
            name, param = res.strategy.label()
            means = res.coverage.daily_means()
            for day in sorted(means):
                n = len(res.coverage.day_values(day))
                writer.writerow([name, param, res.scenario.value, day, repr(means[day]), n])


def write_histograms_csv(results: Sequence[ExperimentResult], path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["strategy", "param", "scenario", "day", "bin_lo", "count"])
        for res in results:
            name, param = res.strategy.label()
            for day in sorted(res.histograms):
                for i, count in enumerate(res.histograms[day]):
                    writer.writerow(
                        [name, param, res.scenario.value, day, repr(i / 10), count]
                    )


def coverage_via_record_pipeline(
    traces: TraceSet,
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> CoverageSeries:
    """Slow reference route: per-viewer naive databases plus binned timelines.

    Exists so the columnar engine has an independently built twin to agree
    with on small worlds. Only the post-hoc strategies make sense here.
    """
    from .reconstructor import build_timeline

    if isinstance(strategy, InitialPeriod):
        raise ValueError("sequential learning is not expressible in this reference route")

    obs = pair_observations(traces, cfg.pairing)
    t0 = traces.span_ms()[0]
    series = CoverageSeries()
    scans_by_user: dict[UserId, list[WifiScan]] = {}
    for scan in traces.scans:
        scans_by_user.setdefault(scan.user, []).append(scan)

    for viewer in traces.users():
        if isinstance(strategy, TopRouters):
            full_db = build_database(obs, cfg.locator)
            if scenario is Scenario.PERSONAL:
                contributors = [viewer]
            elif scenario is Scenario.GLOBAL:
                contributors = traces.users()
            else:
                contributors = [u for u in traces.users() if u != viewer]
            known: set[BssidId] = set()
            for user in contributors:
                known.update(greedy_top_routers(scans_by_user.get(user, []), strategy.k))
            records = {
                b: r
                for b, r in full_db.records.items()
                if b in known and r.ap_class in (ApClass.STATIC, ApClass.RELOCATED)
            }
            db = ApDatabase(records=records)
        else:
            subset = select_training_pairs(
                obs, strategy, viewer=viewer, scenario=scenario, dataset_start_ms=t0
            )
            db = build_simple_database(subset)
        timelines = build_timeline(scans_by_user.get(viewer, []), db, bin_ms=cfg.bin_ms)
        tl = timelines.get(viewer)
        if tl is None:
            continue
        by_day_data: dict[int, int] = {}
        by_day_cov: dict[int, int] = {}
        for b in tl.bins_with_data:
            day = (b * cfg.bin_ms) // DAY_MS
            by_day_data[day] = by_day_data.get(day, 0) + 1
        for b in tl.bins:
            day = (b * cfg.bin_ms) // DAY_MS
            by_day_cov[day] = by_day_cov.get(day, 0) + 1
        for day, n_data in by_day_data.items():
            series.add(viewer, day, n_data, by_day_cov.get(day, 0))
    return series
