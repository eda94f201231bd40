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
classifier per viewer and counts only the routers that viewer's database
places; it is strictly slower and, because added evidence can flip a router
to mobile, it does not guarantee that more shared data never hurts.

Under both rules a router is known to a viewer from the first training
observation the viewer may use (from time 0 outside ``InitialPeriod``), so
``classified`` never covers more than ``any_sighting``. ``TopRouters`` knows
each pick from time 0 wherever the full database places it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .ap_locator import ApDatabase, LocatorConfig, RouterTable, build_database
from .coverage_metrics import DAY_MS, DEFAULT_BIN_MS, CoverageSeries, coverage_histogram
from .coverage_metrics import _run_starts
from .pairing import (  # PairedEvents is re-exported from here
    PairedEvents,
    PairedObservation,
    PairingConfig,
    pair_arrays,
)
from .svgplot import write_line_plot
from .trace_model import BssidId, SensorArrays, TraceError, UserId, _rng, user_bounds

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
    """What may differ between the grid cells of one prepared log."""

    histogram_days: tuple[int, ...] = (7, 80, 190)
    known_rule: str = "any_sighting"  # or "classified"

    def __post_init__(self) -> None:
        if self.known_rule not in ("any_sighting", "classified"):
            raise ValueError(f"unknown known_rule: {self.known_rule!r}")


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
class BinRuns:
    """The presence rows' (user, bin) runs, indexed once for every grid cell.

    Presence rows are sorted by (user, bin, ap), so each (user, bin) is a run
    of rows. ``slot`` places each run among the data (user, day) runs, in
    (user, day) order, whose users, days and data-bin counts follow.
    """

    flat: np.ndarray  # per presence row, user * n_aps + ap
    start: np.ndarray  # per run, its first presence row
    slot: np.ndarray  # per run, its (user, day) slot
    slot_user: list[UserId]
    slot_day: list[int]
    slot_bins: list[int]


def _bin_runs(t: ScanTable) -> BinRuns:
    flat = np.multiply(t.pres_user, t.n_aps, dtype=np.int64)
    flat += t.pres_ap
    start = _run_starts(t.pres_user, t.pres_bin)
    data_day = (t.data_bin * t.bin_ms) // DAY_MS
    first = _run_starts(t.data_user, data_day)
    slot_user, slot_day = t.data_user[first], data_day[first]
    # every run's (user, day) holds data: search it among its user's slots
    run_user, run_day = t.pres_user[start], (t.pres_bin[start] * t.bin_ms) // DAY_MS
    slot = np.empty(start.size, dtype=np.int64)
    by_slot, by_run = user_bounds(slot_user, t.n_users), user_bounds(run_user, t.n_users)
    for s0, s1, r0, r1 in zip(by_slot[:-1], by_slot[1:], by_run[:-1], by_run[1:]):
        slot[r0:r1] = s0 + np.searchsorted(slot_day[s0:s1], run_day[r0:r1])
    return BinRuns(
        flat=flat,
        start=start,
        slot=slot,
        slot_user=[t.user_ids[u] for u in slot_user.tolist()],
        slot_day=slot_day.tolist(),
        slot_bins=np.diff(first, append=data_day.size).tolist(),
    )


@dataclass(slots=True)
class ExperimentData:
    """Pairing, presence tables and their run index, computed once and
    shared across grid cells."""

    table: ScanTable
    pairs: PairedEvents
    t0_ms: int
    locator: LocatorConfig = LocatorConfig()
    runs: BinRuns = field(init=False, repr=False)
    _full_db: Optional[ApDatabase] = None
    _top_by_k: dict[int, list[np.ndarray]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.runs = _bin_runs(self.table)

    def full_database(self) -> ApDatabase:
        """Classified database over all paired data; the external-lookup stand-in."""
        if self._full_db is None:
            self._full_db = build_database(
                self.pairs, self.table.user_ids, self.table.bssids, self.locator
            )
        return self._full_db

    def paired_records(self) -> list[PairedObservation]:
        return self.pairs.to_records(self.table.user_ids, self.table.bssids)

    def top_router_selections(self, k: int) -> list[np.ndarray]:
        """Per-user greedy top-k AP ids (ascending) over the user's own timebins."""
        selections = self._top_by_k.get(k)
        if selections is None:
            t = self.table
            bounds = user_bounds(t.pres_user, t.n_users)
            selections = self._top_by_k[k] = [
                np.sort(_greedy_picks(t.pres_bin[lo:hi], t.pres_ap[lo:hi], t.n_aps, k))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        return selections


def _greedy_picks(bins: np.ndarray, aps: np.ndarray, n_aps: int, k: int) -> np.ndarray:
    """Greedy max-coverage of one user's timebins, AP ids in pick order.

    Rows are distinct (bin, ap) pairs sorted by (bin, ap), so each bin is a
    run of rows. A router's gain is the number of uncovered bins holding it;
    each pick takes the largest gain, the smallest id on ties, and takes the
    routers of the bins it newly covers off their gains. Once no router adds
    a bin, the user's other routers follow by (-bins held, id) until k.
    """
    held = np.bincount(aps, minlength=n_aps)
    gain = held.copy()
    new_bin = np.diff(bins, prepend=bins[:1] - 1) != 0
    run, starts = np.cumsum(new_bin) - 1, np.flatnonzero(new_bin)
    lens = np.diff(np.append(starts, bins.size))
    covered = np.zeros(starts.size, dtype=bool)
    picks: list[int] = []
    while len(picks) < k and gain.any():
        ap = int(np.argmax(gain))
        picks.append(ap)
        r = run[aps == ap]
        r = r[~covered[r]]
        covered[r] = True
        # the rows of the newly covered bins, gathered run by run
        n = lens[r]
        rows = np.repeat(starts[r] - np.cumsum(n) + n, n) + np.arange(n.sum())
        gain -= np.bincount(aps[rows], minlength=n_aps)
    held[picks] = 0
    rest = np.flatnonzero(held)
    rest = rest[np.argsort(-held[rest], kind="stable")]
    return np.concatenate([np.array(picks, dtype=np.int64), rest[: k - len(picks)]])


def _table_from_arrays(arrays: SensorArrays, bin_ms: int) -> ScanTable:
    """Presence table by one value sort of a packed key per user.

    A sighting's key is ``(r * n_aps + ap) * m + s``: ``r`` ranks its scan's
    bin among the user's data bins, ``s`` indexes the scan within its bin, and
    ``m`` is the scan count of the user's fullest bin. Keys are uint32 where
    the user's range ``n_bins * n_aps * m`` fits in 2**32, int64 otherwise.
    Sorted, runs of ``key // m`` are the (bin, ap) pairs; scans are in time
    order, so a run's last key holds its latest scan. Keys are range-checked,
    never wrapped.
    """
    n_users, n_aps = len(arrays.user_ids), len(arrays.bssids)
    bounds = user_bounds(arrays.scan_user, n_users)
    data_bin = []
    pres_user, pres_bin, pres_ap, pres_last_ts = [], [], [], []
    for u in range(n_users):
        lo, hi = bounds[u], bounds[u + 1]
        scan_ts = arrays.scan_ts[lo:hi]
        bins = scan_ts // bin_ms
        new_bin = np.diff(bins, prepend=bins[:1] - 1) != 0
        data_bin.append(bins[new_bin])
        off = arrays.scan_off[lo : hi + 1]
        if off[0] == off[-1]:
            continue
        first = np.flatnonzero(new_bin)  # each bin's first scan
        m = int(np.diff(first, append=hi - lo).max())
        n_bins = first.size
        _check_key_range(arrays.user_ids[u], n_bins, n_aps, m)
        dtype = np.uint32 if n_bins * n_aps * m <= 2**32 else np.int64
        # r counts bin starts up to the scan; no sighting-long array outlives u
        r = np.cumsum(new_bin) - 1
        per_scan = r * (n_aps * m) + np.arange(hi - lo) - first[r]
        key = np.multiply(arrays.scan_ap[off[0] : off[-1]], m, dtype=dtype, casting="unsafe")
        key += np.repeat(per_scan.astype(dtype), np.diff(off))
        key.sort()
        pair = key // m
        ends = np.flatnonzero(np.append(pair[1:] != pair[:-1], True))
        key, pair = key[ends], pair[ends]
        r = pair // n_aps
        pres_user.append(np.full(ends.size, u, dtype=np.int32))
        pres_bin.append(data_bin[-1][r])
        pres_ap.append(pair % n_aps)
        pres_last_ts.append(scan_ts[first[r] + key % m])
    return ScanTable(
        user_ids=list(arrays.user_ids),
        bssids=list(arrays.bssids),
        bin_ms=bin_ms,
        data_user=np.repeat(np.arange(n_users, dtype=np.int32), [b.size for b in data_bin]),
        data_bin=_concat(data_bin, np.int64),
        pres_user=_concat(pres_user, np.int32),
        pres_bin=_concat(pres_bin, np.int64),
        pres_ap=_concat(pres_ap, np.int32),
        pres_last_ts=_concat(pres_last_ts, np.int64),
    )


def _check_key_range(user: UserId, n_bins: int, n_aps: int, m: int) -> None:
    """Raise unless every presence key ``(r * n_aps + ap) * m + s``, at most
    ``n_bins * n_aps * m - 1`` with ``m`` the scans of the user's fullest
    bin, fits in int64."""
    if n_bins * n_aps * m >= 2**63:
        raise TraceError(
            f"presence keys of user {user} would overflow int64: "
            f"{n_bins} data bins x {n_aps} routers x {m} scans in the fullest bin"
        )


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype=dtype)


def prepare_experiment_data(
    arrays: SensorArrays,
    pairing: PairingConfig = PairingConfig(),
    locator: LocatorConfig = LocatorConfig(),
) -> ExperimentData:
    table = _table_from_arrays(arrays, DEFAULT_BIN_MS)
    pairs = pair_arrays(arrays, pairing)
    t0 = int(min(arrays.fix_ts.min() if arrays.fix_ts.size else 0,
                 arrays.scan_ts.min() if arrays.scan_ts.size else 0))
    return ExperimentData(table=table, pairs=pairs, t0_ms=t0, locator=locator)


def paper_grid(
    data: ExperimentData, n_days: int, seed: int
) -> list[tuple[SamplingStrategy, Scenario]]:
    """The paper's 18 (strategy, scenario) cells, strategies outer: initial
    periods of 7 and 28 days, random fractions of ``f_daily`` and 4 f_daily
    drawn with ``seed``, and each user's top 5 and 20 routers. ``f_daily``
    keeps one paired fix event per user-day on average, the paper's "one GPS
    observation per day per person". Both rates are capped at 1.0, which
    keeps every event, and are 1.0 on a log with no paired event, so a world
    with sparse GPS gets all 18 cells too."""
    n_events = data.pairs.n_events()
    f_daily = data.table.n_users * n_days / n_events if n_events else 1.0
    strategies = [
        InitialPeriod(days=7),
        InitialPeriod(days=28),
        RandomFraction(f=min(f_daily, 1.0), seed=seed),
        RandomFraction(f=min(4 * f_daily, 1.0), seed=seed),
        TopRouters(k=5),
        TopRouters(k=20),
    ]
    return [(strategy, scenario) for strategy in strategies for scenario in Scenario]


@dataclass(slots=True)
class ExperimentResult:
    strategy: SamplingStrategy
    scenario: Scenario
    coverage: CoverageSeries
    histograms: dict[int, list[int]]
    summary: dict[str, float]


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
    if scenario is Scenario.PERSONAL or n_users == 0:
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
    tables: Optional[list[RouterTable]] = None,
) -> CoverageSeries:
    """``tables`` holds one router table per viewer: a relocated router is
    known to that viewer only inside one of its segments there."""
    t, runs = data.table, data.runs
    # one flat gather; ravel copies GLOBAL's broadcast row into a full matrix
    known = viewer_first_ts.ravel()[runs.flat] <= t.pres_last_ts
    if tables:
        bounds = user_bounds(t.pres_user, t.n_users)
        for table, lo, hi in zip(tables, bounds[:-1], bounds[1:]):
            if table.seg_count.any():
                rows = lo + np.flatnonzero((table.seg_count > 0)[t.pres_ap[lo:hi]])
                known[rows] &= ~np.isnan(table.place(t.pres_ap[rows], t.pres_last_ts[rows])[0])

    # a (user, bin) run is covered when any of its rows is known
    covered = np.logical_or.reduceat(known, runs.start)
    n_covered = np.bincount(runs.slot[covered], minlength=len(runs.slot_user)).tolist()
    series = CoverageSeries()
    for cell in zip(runs.slot_user, runs.slot_day, runs.slot_bins, n_covered):
        series.add(*cell)
    return series


def _selection_mask(data: ExperimentData, strategy: SamplingStrategy) -> tuple[np.ndarray, bool]:
    """Strategy filter over paired observations; bool = sequential semantics."""
    p = data.pairs
    if isinstance(strategy, InitialPeriod):
        cutoff = data.t0_ms + strategy.days * DAY_MS
        return p.ts < cutoff, True
    if isinstance(strategy, RandomFraction):
        # the i-th draw decides the i-th event in (user, ts) order
        event, n_events = p.event_ids()
        keep_mask = _rng(strategy.seed, 100).random(n_events) < strategy.f
        return keep_mask[event], False
    raise ValueError(f"no observation mask for strategy {strategy}")


def run_experiment(
    data: ExperimentData,
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> ExperimentResult:
    """Coverage series plus coverage histograms for one grid cell."""
    t = data.table
    n_users, n_aps = t.n_users, t.n_aps
    tables: Optional[list[RouterTable]] = None

    if isinstance(strategy, TopRouters):
        tables = [data.full_database().router_table(t.bssids)] * n_users
        mat = np.full((n_users, n_aps), _NEVER, dtype=np.int64)
        for u, sel in enumerate(data.top_router_selections(strategy.k)):
            mat[u, sel] = 0
    else:
        sel_mask, sequential = _selection_mask(data, strategy)
        mat = _first_ts_matrix(data, sel_mask, sequential)
        if cfg.known_rule == "classified":
            tables = _classified_tables(data, sel_mask, scenario)
    viewer_first = _viewer_first_ts(mat, scenario)
    if tables:
        # a router is known to a viewer only where the viewer's table places it
        placed = np.array([table.placed for table in tables])
        viewer_first = np.where(placed, viewer_first, _NEVER)

    coverage = _coverage_from_first_ts(data, viewer_first, tables)

    histograms: dict[int, list[int]] = {}
    for day in cfg.histogram_days:
        values = coverage.day_values(day)
        if values:
            histograms[day] = coverage_histogram(values)

    means = coverage.daily_means()
    summary = {
        "mean_coverage": (sum(means.values()) / len(means)) if means else 0.0,
    }
    return ExperimentResult(
        strategy=strategy,
        scenario=scenario,
        coverage=coverage,
        histograms=histograms,
        summary=summary,
    )


def _classified_tables(
    data: ExperimentData, sel_mask: np.ndarray, scenario: Scenario
) -> list[RouterTable]:
    """One router table per viewer under the quality-filtered classifier.

    Each is classified with ``data.locator``, the locator of the full
    database, from the viewer's scenario-filtered training subset (one
    shared under GLOBAL); intended for modest datasets.
    """
    t = data.table
    if scenario is Scenario.GLOBAL:
        return [_training_database(data, sel_mask).router_table(t.bssids)] * t.n_users
    tables = []
    for u in range(t.n_users):
        own = data.pairs.user == u
        keep = sel_mask & (own if scenario is Scenario.PERSONAL else ~own)
        tables.append(_training_database(data, keep).router_table(t.bssids))
    return tables


def _training_database(data: ExperimentData, mask: np.ndarray) -> ApDatabase:
    """Classified database over the masked paired observations."""
    p = data.pairs
    subset = PairedEvents(
        ap=p.ap[mask], user=p.user[mask], ts=p.ts[mask], lat=p.lat[mask], lon=p.lon[mask]
    )
    return build_database(subset, data.table.user_ids, data.table.bssids, data.locator)


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


# stability_decline: the two anchor days, the half-width of the window of
# daily means about each, and the day whose coverage it histograms
DECLINE_EARLY_DAY = 60
DECLINE_LATE_DAY = 160
DECLINE_WINDOW_DAYS = 5
DECLINE_HISTOGRAM_DAY = 190


def stability_decline(result: ExperimentResult) -> Optional[DeclineStats]:
    """Coverage drop between two anchor days, averaged over a small window
    of daily means to keep one noisy day from deciding the statistic."""
    means = result.coverage.daily_means()
    if not means or max(means) < DECLINE_LATE_DAY:
        return None

    def window_mean(center: int) -> Optional[float]:
        days = range(center - DECLINE_WINDOW_DAYS, center + DECLINE_WINDOW_DAYS + 1)
        vals = [means[d] for d in days if d in means]
        return sum(vals) / len(vals) if vals else None

    early = window_mean(DECLINE_EARLY_DAY)
    late = window_mean(DECLINE_LATE_DAY)
    if early is None or late is None:
        return None
    hist_day = DECLINE_HISTOGRAM_DAY if DECLINE_HISTOGRAM_DAY in means else max(means)
    return DeclineStats(
        early_day=DECLINE_EARLY_DAY,
        late_day=DECLINE_LATE_DAY,
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


def write_coverage_plots(results: Sequence[ExperimentResult], out_dir) -> None:
    """One coverage-vs-day SVG per strategy, a line per scenario."""
    by_cell: dict[tuple[str, str], dict] = {}
    for res in results:
        series = by_cell.setdefault(res.strategy.label(), {})
        series[res.scenario.value] = sorted(res.coverage.daily_means().items())
    for (name, param), series in sorted(by_cell.items()):
        write_line_plot(
            Path(out_dir) / f"coverage_{name}_{param.replace('.', 'p')}.svg",
            series,
            title=f"{name}({param})",
            x_label="day",
            y_label="mean coverage",
            y_range=(0.0, 1.0),
        )
