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
from .coverage_metrics import _day_runs, _run_starts
from .pairing import (  # PairedEvents is re-exported from here
    PairedEvents,
    PairedObservation,
    PairingConfig,
    pair_arrays,
)
from .svgplot import write_line_plot
from .trace_model import BssidId, SensorArrays, TraceError, UserId, user_bounds
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

    def __post_init__(self) -> None:
        if self.known_rule not in ("any_sighting", "classified"):
            raise ValueError(f"unknown known_rule: {self.known_rule!r}")
        if not isinstance(self.bin_ms, int) or isinstance(self.bin_ms, bool) or self.bin_ms < 1:
            raise ValueError(f"bin_ms must be an int >= 1, got {self.bin_ms!r}")


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
    _top_by_k: dict[int, list[np.ndarray]] = field(default_factory=dict)

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
    """Presence table by one value sort of a packed int64 key per user.

    A sighting's key is ``(r * n_aps + ap) * n + s``: ``r`` ranks its scan's
    bin among the user's data bins, ``s`` indexes the user's ``n`` scans. Sorted,
    runs of ``key // n`` are the (bin, ap) pairs; scans are in time order, so a
    run's last key holds its latest scan. Keys are range-checked, never wrapped.
    """
    n_users, n_aps = len(arrays.user_ids), len(arrays.bssids)
    bounds = user_bounds(arrays.scan_user, n_users)
    data_bin = []
    pres_user, pres_bin, pres_ap, pres_last_ts = [], [], [], []
    for u in range(n_users):
        lo, hi = bounds[u], bounds[u + 1]
        n, scan_ts = int(hi - lo), arrays.scan_ts[lo:hi]
        bins = scan_ts // bin_ms
        new_bin = np.diff(bins, prepend=bins[:1] - 1) != 0
        data_bin.append(bins[new_bin])
        off = arrays.scan_off[lo : hi + 1]
        if off[0] == off[-1]:
            continue
        _check_key_range(arrays.user_ids[u], data_bin[-1].size, n_aps, n)
        # r counts bin starts up to the scan; no sighting-long array outlives u
        key = np.multiply(arrays.scan_ap[off[0] : off[-1]], n, dtype=np.int64)
        key += np.repeat((np.cumsum(new_bin) - 1) * (n_aps * n) + np.arange(n), np.diff(off))
        key.sort()
        pair = key // n
        ends = np.flatnonzero(np.append(pair[1:] != pair[:-1], True))
        key, pair = key[ends], pair[ends]
        pres_user.append(np.full(ends.size, u, dtype=np.int32))
        pres_bin.append(data_bin[-1][pair // n_aps])
        pres_ap.append(pair % n_aps)
        pres_last_ts.append(scan_ts[key % n])
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


def _check_key_range(user: UserId, n_bins: int, n_aps: int, n_scans: int) -> None:
    """Raise unless every presence key ``(r * n_aps + ap) * n_scans + s``,
    at most ``n_bins * n_aps * n_scans - 1``, fits in int64."""
    if n_bins * n_aps * n_scans >= 2**63:
        raise TraceError(
            f"presence keys of user {user} would overflow int64: "
            f"{n_bins} data bins x {n_aps} routers x {n_scans} scans"
        )


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype=dtype)


def prepare_experiment_data(
    arrays: SensorArrays, cfg: ExperimentConfig = ExperimentConfig()
) -> ExperimentData:
    table = _table_from_arrays(arrays, cfg.bin_ms)
    pairs = pair_arrays(arrays, cfg.pairing)
    t0 = int(min(arrays.fix_ts.min() if arrays.fix_ts.size else 0,
                 arrays.scan_ts.min() if arrays.scan_ts.size else 0))
    return ExperimentData(table=table, pairs=pairs, t0_ms=t0, locator=cfg.locator)


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
    tables: Optional[list[RouterTable]] = None,
) -> CoverageSeries:
    """``tables`` holds one router table per viewer: a relocated router is
    known to that viewer only inside one of its segments there."""
    t = data.table
    # one flat gather; ravel copies GLOBAL's broadcast row into a full matrix
    flat = np.multiply(t.pres_user, t.n_aps, dtype=np.int64)
    flat += t.pres_ap
    known = viewer_first_ts.ravel()[flat] <= t.pres_last_ts
    if tables:
        bounds = user_bounds(t.pres_user, t.n_users)
        for table, lo, hi in zip(tables, bounds[:-1], bounds[1:]):
            if table.seg_count.any():
                rows = lo + np.flatnonzero((table.seg_count > 0)[t.pres_ap[lo:hi]])
                known[rows] &= ~np.isnan(table.place(t.pres_ap[rows], t.pres_last_ts[rows])[0])

    # presence rows are sorted by (user, bin, ap), so the covered (user, bin)
    # pairs and both day counts come out as runs in (user, day) order
    cov_user, cov_bin = t.pres_user[known], t.pres_bin[known]
    first = _run_starts(cov_user, cov_bin)
    cov_u, cov_day, cov_n = _day_runs(cov_user[first], cov_bin[first], t.bin_ms)
    covered = dict(zip(zip(cov_u, cov_day), cov_n))
    series = CoverageSeries()
    for u, day, n_data in zip(*_day_runs(t.data_user, t.data_bin, t.bin_ms)):
        series.add(t.user_ids[u], day, n_data, covered.get((u, day), 0))
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
    source: Union[SensorArrays, ExperimentData],
    strategy: SamplingStrategy,
    scenario: Scenario,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> ExperimentResult:
    """Coverage series plus coverage histograms for one grid cell.

    Prepared data keeps the bin width, pairing and locator it was prepared
    with; ``cfg`` gives them only when ``source`` is a log.
    """
    data = source if isinstance(source, ExperimentData) else prepare_experiment_data(source, cfg)
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
