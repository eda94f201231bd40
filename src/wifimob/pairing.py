"""Binding GPS fixes to their nearest-in-time WiFi scan.

For every fix, the scan of the same user minimizing the absolute time gap is
selected, provided the gap is at most ``window_ms`` (boundaries inclusive;
equidistant candidates resolve to the earlier scan). Every sighting in the
selected scan then yields one paired observation carrying the fix position.

A scan may serve several fixes when fixes arrive closer together than the
window; that only duplicates consistent evidence.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .trace_model import BssidId, GeoPoint, SensorArrays, TimestampMs, UserId, user_bounds


@dataclass(frozen=True, slots=True)
class PairingConfig:
    window_ms: int = 1000
    # Fixes with worse reported accuracy than this are skipped; off by default.
    max_accuracy_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")


@dataclass(slots=True)
class PairedObservation:
    bssid: BssidId
    pos: GeoPoint
    ts: TimestampMs
    user: UserId


@dataclass(slots=True)
class PairedEvents:
    """Paired observations in columnar form; users/aps are table indices."""

    ap: np.ndarray  # int32
    user: np.ndarray  # int32
    ts: np.ndarray  # int64
    lat: np.ndarray
    lon: np.ndarray
    # event_ids(), computed on its first call
    _events: Optional[tuple[np.ndarray, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def count(self) -> int:
        return int(self.ap.size)

    def event_ids(self) -> tuple[np.ndarray, int]:
        """Each row's fix event as an index into the distinct ``(user, ts)``
        pairs in ascending order, plus the number of events. Computed once;
        every call returns the same arrays."""
        if self._events is None:
            order = np.lexsort((self.ts, self.user))
            user, ts = self.user[order], self.ts[order]
            new = np.ones(order.size, dtype=bool)
            new[1:] = (user[1:] != user[:-1]) | (ts[1:] != ts[:-1])
            ids = np.empty(order.size, dtype=np.int64)
            ids[order] = np.cumsum(new) - 1
            self._events = ids, int(np.count_nonzero(new))
        return self._events

    def n_events(self) -> int:
        """Distinct paired GPS fix events, i.e. distinct ``(user, ts)`` rows."""
        return self.event_ids()[1]

    def sorted_rows(
        self, user_ids: list[UserId], bssids: list[BssidId]
    ) -> tuple[list, list, list, list, list]:
        """(bssid, user, ts, lat, lon) lists sorted by (bssid, ts, user); the
        sort is stable, so tied rows keep their column order."""
        order = np.lexsort(
            (_string_rank(user_ids)[self.user], self.ts, _string_rank(bssids)[self.ap])
        )
        return (
            [bssids[a] for a in self.ap[order].tolist()],
            [user_ids[u] for u in self.user[order].tolist()],
            self.ts[order].tolist(),
            self.lat[order].tolist(),
            self.lon[order].tolist(),
        )

    def to_records(
        self, user_ids: list[UserId], bssids: list[BssidId]
    ) -> list[PairedObservation]:
        """Record form, in :meth:`sorted_rows` order."""
        return [
            PairedObservation(bssid=b, pos=GeoPoint(la, lo), ts=t, user=u)
            for b, u, t, la, lo in zip(*self.sorted_rows(user_ids, bssids))
        ]


def _string_rank(names: list[str]) -> np.ndarray:
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def pair_time_indices(
    fix_ts: np.ndarray, scan_ts: np.ndarray, window_ms: int
) -> np.ndarray:
    """For each fix timestamp, index of its chosen scan or -1.

    Both arrays must be sorted ascending. The chosen scan minimizes |dt|
    within the closed window; ties go to the earlier scan.
    """
    n_fix = fix_ts.shape[0]
    if n_fix == 0 or scan_ts.shape[0] == 0:
        return np.full(n_fix, -1, dtype=np.int64)

    right = np.searchsorted(scan_ts, fix_ts, side="left")
    left = right - 1

    n_scan = scan_ts.shape[0]
    left_ok = left >= 0
    right_ok = right < n_scan
    big = np.int64(np.iinfo(np.int64).max)
    left_dt = np.where(left_ok, fix_ts - scan_ts[np.clip(left, 0, n_scan - 1)], big)
    right_dt = np.where(right_ok, scan_ts[np.clip(right, 0, n_scan - 1)] - fix_ts, big)

    # <= keeps the earlier scan on exact ties
    take_left = left_dt <= right_dt
    chosen = np.where(take_left, left, right)
    best_dt = np.where(take_left, left_dt, right_dt)
    chosen = np.where(best_dt <= window_ms, chosen, -1)
    return chosen.astype(np.int64)


def pair_arrays(arrays: SensorArrays, cfg: PairingConfig = PairingConfig()) -> PairedEvents:
    """Columnar pairing: one event per sighting in each fix's chosen scan.

    Each user's fixes and scans are a slice in time order, as
    :class:`SensorArrays` guarantees. Fixes whose accuracy exceeds
    ``cfg.max_accuracy_m`` are skipped; a NaN accuracy (not reported) is kept.
    Rows come in log order: user by user, fix by fix, and each scan's
    sightings in scan order.
    """
    n_users = len(arrays.user_ids)
    fix_bounds = user_bounds(arrays.fix_user, n_users)
    scan_bounds = user_bounds(arrays.scan_user, n_users)
    # each fix's chosen scan as a row of the whole log, or -1
    chosen = np.full(arrays.fix_ts.size, -1, dtype=np.int64)
    for u in range(n_users):
        fsel = np.arange(fix_bounds[u], fix_bounds[u + 1])
        if cfg.max_accuracy_m is not None:
            # compare in float64, the precision of the Python float threshold
            acc = arrays.fix_acc[fsel].astype(np.float64)
            fsel = fsel[~(acc > cfg.max_accuracy_m)]
        s_lo, s_hi = scan_bounds[u], scan_bounds[u + 1]
        if fsel.size == 0 or s_lo == s_hi:
            continue
        scan = pair_time_indices(arrays.fix_ts[fsel], arrays.scan_ts[s_lo:s_hi], cfg.window_ms)
        chosen[fsel] = np.where(scan >= 0, s_lo + scan, -1)

    fix_i = np.flatnonzero(chosen >= 0)
    flat_idx, lens = arrays.sighting_index(chosen[fix_i])
    return PairedEvents(
        ap=arrays.scan_ap[flat_idx].astype(np.int32, copy=False),
        user=np.repeat(arrays.fix_user[fix_i], lens).astype(np.int32, copy=False),
        ts=np.repeat(arrays.fix_ts[fix_i], lens),
        lat=np.repeat(arrays.fix_lat[fix_i], lens),
        lon=np.repeat(arrays.fix_lon[fix_i], lens),
    )


def pair_observations(
    arrays: SensorArrays, cfg: PairingConfig = PairingConfig()
) -> list[PairedObservation]:
    """Paired observations of a whole log in record form.

    Output is sorted by (bssid, ts, user); the same input always produces
    the same list.
    """
    return pair_arrays(arrays, cfg).to_records(arrays.user_ids, arrays.bssids)


def write_pairs_csv(
    pairs: PairedEvents, user_ids: list[UserId], bssids: list[BssidId], path
) -> None:
    """Debugging dump, one row per paired observation, in
    :meth:`PairedEvents.sorted_rows` order."""
    bssid, user, ts, lat, lon = pairs.sorted_rows(user_ids, bssids)
    with Path(path).open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["bssid", "lat", "lon", "ts_ms", "user"])
        writer.writerows(zip(bssid, map(repr, lat), map(repr, lon), ts, user))
