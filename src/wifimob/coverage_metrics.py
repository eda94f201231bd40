"""Time-coverage and location-entropy metrics.

Time coverage for a user-day is the fraction of ten-minute bins containing
any WiFi data (even an empty scan) in which at least one known router was
sighted. User-days without WiFi data are excluded from population averages,
so gaps in collection cannot deflate the metric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .trace_model import UserId

DAY_MS = 86_400_000
DEFAULT_BIN_MS = 600_000
HIST_BIN_WIDTH = 0.1


class CoverageContractError(ValueError):
    """Covered-bin count exceeding the bins-with-data count."""


def time_coverage(bins_with_data: int, bins_covered: int) -> Optional[float]:
    """Covered fraction for one user-day; None when there is no WiFi data."""
    if bins_covered < 0 or bins_with_data < 0:
        raise CoverageContractError("negative bin count")
    if bins_covered > bins_with_data:
        raise CoverageContractError(
            f"covered bins ({bins_covered}) exceed bins with data ({bins_with_data})"
        )
    if bins_with_data == 0:
        return None
    return bins_covered / bins_with_data


@dataclass(slots=True)
class CoverageSeries:
    """Per-(user, day) coverage fractions plus day-level aggregates."""

    per_user_day: dict[tuple[UserId, int], float] = field(default_factory=dict)

    def add(self, user: UserId, day: int, bins_with_data: int, bins_covered: int) -> None:
        cov = time_coverage(bins_with_data, bins_covered)
        if cov is not None:
            self.per_user_day[(user, day)] = cov

    def day_values(self, day: int) -> list[float]:
        return [v for (u, d), v in sorted(self.per_user_day.items()) if d == day]

    def daily_means(self) -> dict[int, float]:
        """Mean over each day's users, summed in the order they were added."""
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for (_, day), cov in self.per_user_day.items():
            sums[day] = sums.get(day, 0.0) + cov
            counts[day] = counts.get(day, 0) + 1
        return {day: sums[day] / counts[day] for day in sums}


def _run_starts(user: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Where each run of equal (user, key) neighbours starts."""
    new = np.ones(user.size, dtype=bool)
    new[1:] = (user[1:] != user[:-1]) | (key[1:] != key[:-1])
    return np.flatnonzero(new)


def _day_runs(user: np.ndarray, bin_idx: np.ndarray, bin_ms: int) -> tuple[list, list, list]:
    """(user, day, row count) of each (user, day) run of rows sorted by (user, bin)."""
    day = (bin_idx * bin_ms) // DAY_MS
    starts = _run_starts(user, day)
    counts = np.diff(np.append(starts, user.size))
    return user[starts].tolist(), day[starts].tolist(), counts.tolist()


def entropy_bits(labels: Sequence[Hashable]) -> Optional[float]:
    """Shannon entropy, base 2, of the empirical label distribution.

    ``labels`` is one location label per time bin; bins without a resolved
    location must already be excluded. Returns None for an empty sequence.
    """
    counts = Counter(labels)
    total = sum(counts.values())
    if total == 0:
        return None
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log2(p)
    return h


def coverage_histogram(values: Iterable[float]) -> list[int]:
    """Histogram of coverage fractions over [0, 1] in bins of
    ``HIST_BIN_WIDTH``; the top edge is inclusive."""
    n_bins = round(1.0 / HIST_BIN_WIDTH)
    counts = [0] * n_bins
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"coverage fraction out of range: {v}")
        idx = min(int(v / HIST_BIN_WIDTH), n_bins - 1)
        counts[idx] += 1
    return counts
