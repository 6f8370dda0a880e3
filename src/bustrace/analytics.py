"""Temporal assessment of bus service from detected itineraries.

Availability is measured per stop as the number of passages inside a
sliding W-minute window shifted by one minute across the service span
(05:00 to 23:00 by default). Series feed category aggregates, daily
averages, boxplot outlier detection, and pairwise Pearson correlations
restricted to periods of the day.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from datetime import date
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detection import DetectedItinerary, round_to_second
from .model import BusStop, StopType

log = logging.getLogger(__name__)

DEFAULT_SPAN_MINUTES = (300, 1380)  # 05:00 .. 23:00
DEFAULT_WINDOW_MINUTES = 10
SYNC_WINDOW_SET = (10, 15, 20, 25, 30, 35, 40, 45)


@dataclass(frozen=True)
class Period:
    name: str
    start_minute: int
    end_minute: int


DEFAULT_PERIODS = (
    Period("morning", 360, 540),  # 06:00-09:00
    Period("midday", 660, 840),  # 11:00-14:00
    Period("evening", 1020, 1200),  # 17:00-20:00
)


@dataclass
class AvailabilitySeries:
    """Per-minute sliding-window passage counts for one stop or cluster."""

    key: str
    window_minutes: int
    counts: np.ndarray
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES
    day: date | None = None

    @property
    def start_minutes(self) -> np.ndarray:
        return np.arange(self.span[0], self.span[1] - self.window_minutes + 1)


@dataclass(frozen=True)
class PassageTable:
    """Timed stop passages of detected trips, one row per (trip, position).

    The columns are those of ``detected_itineraries.csv``, in file order,
    each a numpy array of the same length. ``trip`` numbers the trips of
    one (line, direction, vehicle, day) group from 1; ``time_s`` holds
    seconds of day rounded to whole seconds as the file writes them, and
    ``observed`` is False for an interpolated time. A table built from the
    trips in memory equals the one read back from that file.
    """

    line_code: np.ndarray
    direction: np.ndarray
    vehicle_id: np.ndarray
    day: np.ndarray
    trip: np.ndarray
    position: np.ndarray
    stop_id: np.ndarray
    time_s: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        dtypes = {"day": "datetime64[D]", "trip": np.int64, "position": np.int64,
                  "time_s": np.int64, "observed": bool}
        for f in fields(self):
            column = np.asarray(getattr(self, f.name), dtype=dtypes.get(f.name, str))
            object.__setattr__(self, f.name, column)
        if len({getattr(self, f.name).shape for f in fields(self)}) > 1:
            raise ValueError("passage columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.time_s)

    @classmethod
    def from_itineraries(cls, itineraries: Iterable[DetectedItinerary]) -> "PassageTable":
        trips = list(itineraries)
        if not trips:
            return cls(*[()] * len(fields(cls)))
        numbers: dict[tuple, int] = {}
        trip = []
        for det in trips:
            key = (det.line_code, det.direction, det.vehicle_id, det.day)
            numbers[key] = numbers.get(key, 0) + 1
            trip.append(numbers[key])
        sizes = [len(det.stop_ids) for det in trips]
        line_code, direction, vehicle_id, day = (
            np.repeat([getattr(det, name) for det in trips], sizes)
            for name in ("line_code", "direction", "vehicle_id", "day")
        )
        position = np.arange(sum(sizes)) + 1 - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return cls(
            line_code,
            direction,
            vehicle_id,
            day,
            np.repeat(trip, sizes),
            position,
            np.concatenate([det.stop_ids for det in trips]),
            round_to_second(np.concatenate([det.time_s for det in trips])),
            np.concatenate([det.observed for det in trips]),
        )

    def select(self, mask: np.ndarray) -> "PassageTable":
        return PassageTable(*(getattr(self, f.name)[mask] for f in fields(self)))

    def times_by_stop(self) -> dict[str, np.ndarray]:
        return group_times(self.stop_id, self.time_s)


def group_times(keys: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
    """Ascending times per distinct key, in key order.

    The one passage index: stops, merged terminals and vehicles are all
    grouped here.
    """
    order = np.lexsort((times, keys))
    unique, starts = np.unique(keys[order], return_index=True)
    return dict(zip(unique.tolist(), np.split(times[order], starts[1:])))


def merge_terminals(
    passages: PassageTable, stops: Mapping[str, BusStop]
) -> tuple[dict[str, np.ndarray], dict[str, StopType]]:
    """Fold all stops of one terminal (same name) into a single pseudo-stop.

    Returns the ascending passage times per key plus a category map for
    every key. Non-terminal stops pass through unchanged.
    """
    stop_ids, rows = np.unique(passages.stop_id, return_inverse=True)
    keys: list[str] = []
    categories: dict[str, StopType] = {}
    for stop_id in stop_ids.tolist():
        stop = stops.get(stop_id)
        if stop is not None and stop.stop_type is StopType.TERMINAL:
            key = f"terminal:{stop.name}"
        else:
            key = stop_id
        keys.append(key)
        categories[key] = stop.stop_type if stop is not None else StopType.STREET_STOP
    return group_times(np.array(keys, dtype=str)[rows], passages.time_s), categories


def moving_window_counts(
    times: Sequence[float],
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
) -> np.ndarray:
    """Count passages in each half-open window [m, m + W) of the span.

    ``times`` are seconds of day; one count per window start minute from
    span[0] through span[1] - W inclusive.
    """
    if window_minutes < 1:
        raise ValueError("window must be at least one minute")
    start, end = span
    starts_s = np.arange(start, end - window_minutes + 1) * 60
    sorted_times = np.sort(np.asarray(times, dtype=float))
    lo = np.searchsorted(sorted_times, starts_s, side="left")
    hi = np.searchsorted(sorted_times, starts_s + window_minutes * 60, side="left")
    return (hi - lo).astype(np.int64)


def build_availability(
    times: Mapping[str, np.ndarray],
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
    day: date | None = None,
) -> dict[str, AvailabilitySeries]:
    """One series per key of the passage times by key."""
    return {
        key: AvailabilitySeries(
            key=key,
            window_minutes=window_minutes,
            counts=moving_window_counts(key_times, window_minutes, span),
            span=span,
            day=day,
        )
        for key, key_times in times.items()
    }


def aggregate_by_category(
    series: Mapping[str, AvailabilitySeries], categories: Mapping[str, StopType]
) -> dict[StopType, np.ndarray]:
    """Element-wise mean series per stop category; empty categories omitted."""
    shapes = {(s.window_minutes, s.span) for s in series.values()}
    if len(shapes) > 1:
        raise ValueError("all series must share window size and span")
    grouped: dict[StopType, list[np.ndarray]] = {}
    for key, s in series.items():
        grouped.setdefault(categories[key], []).append(s.counts)
    means: dict[StopType, np.ndarray] = {}
    for category in StopType:
        vectors = grouped.get(category)
        if not vectors:
            log.warning("category %s has no stops with passages; omitted", category.value)
            continue
        means[category] = np.mean(np.stack(vectors), axis=0)
    return means


def daily_average(series: AvailabilitySeries) -> float:
    """Mean window count over the whole span."""
    return float(np.mean(series.counts))


def find_outlier_stops(
    averages: Mapping[str, float],
    categories: Mapping[str, StopType],
    min_category_size: int = 4,
) -> set[str]:
    """Upper boxplot outliers (value > Q3 + 1.5 IQR) per category.

    Quantiles use linear interpolation. Terminals never appear in the
    result; they are physically integrated already. Categories with fewer
    than ``min_category_size`` stops are skipped with a warning.
    """
    by_category: dict[StopType, list[str]] = {}
    for key in averages:
        by_category.setdefault(categories[key], []).append(key)

    outliers: set[str] = set()
    for category, keys in by_category.items():
        if len(keys) < min_category_size:
            log.warning(
                "category %s has only %d stops; outlier rule skipped",
                category.value,
                len(keys),
            )
            continue
        values = np.array([averages[k] for k in keys])
        q1, q3 = np.quantile(values, [0.25, 0.75], method="linear")
        fence = q3 + 1.5 * (q3 - q1)
        for key, value in zip(keys, values):
            if value > fence:
                outliers.add(key)

    return {k for k in outliers if categories[k] is not StopType.TERMINAL}


# ── Correlation ─────────────────────────────────────────────────────────


def restrict_to_period(series: AvailabilitySeries, period: Period | None) -> np.ndarray:
    """Counts of the windows whose start minute lies inside the period."""
    if period is None:
        return series.counts
    starts = series.start_minutes
    mask = (starts >= period.start_minute) & (starts < period.end_minute)
    return series.counts[mask]


def pearson_matrix(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Sample Pearson r of every pair of equal-length rows.

    NaN marks a pair where either row has no variance or fewer than two
    values; the diagonal is 1. Each row is centred once, and each pair
    takes the same floating-point steps as a lone pair would, so an entry
    does not depend on the other rows.
    """
    xs = [np.asarray(row, dtype=float) for row in rows]
    shapes = sorted({x.shape for x in xs})
    if len(shapes) > 1:
        raise ValueError(f"series length mismatch: {shapes[0]} vs {shapes[-1]}")
    n = len(xs)
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    if n < 2 or xs[0].size < 2:
        return values
    centred = [x - x.mean() for x in xs]
    spread = [float(np.dot(c, c)) for c in centred]
    for i in range(n):
        for j in range(i + 1, n):
            if spread[i] != 0.0 and spread[j] != 0.0:
                r = np.dot(centred[i], centred[j]) / np.sqrt(spread[i] * spread[j])
                values[i, j] = values[j, i] = r
    return values


def pearson(a: Sequence[float], b: Sequence[float]) -> float | None:
    """Sample Pearson coefficient, or None when either input has no variance."""
    r = pearson_matrix([a, b])[0, 1]
    return None if np.isnan(r) else float(r)


def pearson_p_value(r: float, n: int) -> float:
    """Two-sided p-value for a sample Pearson r via the t transform.

    With ν = n - 2 and t = r √(ν / (1 - r²)), the p-value is 1 - A(t|ν),
    A being the Student t probability of |T| < |t|. For integer ν, A has a
    closed form in θ = atan(|t| / √ν), for which sin θ = |r|
    (Abramowitz & Stegun 26.7.3 for odd ν, 26.7.4 for even ν).
    """
    if n < 3:
        return float("nan")
    if abs(r) >= 1.0:
        return 0.0
    nu = n - 2
    sin, cos2 = abs(r), 1.0 - r * r
    term = total = 1.0
    for k in range(2, nu - 1, 2):
        term *= cos2 * (k / (k + 1) if nu % 2 else (k - 1) / k)
        total += term
    if nu % 2:
        tail = sin * math.sqrt(cos2) * total if nu > 1 else 0.0
        inside = 2.0 / math.pi * (math.asin(sin) + tail)
    else:
        inside = sin * total
    return max(0.0, 1.0 - inside)


@dataclass
class CorrelationMatrix:
    """Symmetric r-value matrix; NaN marks undefined pairs, diagonal is 1."""

    keys: list[str]
    values: np.ndarray
    period: str | None = None

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.keys.index(a), self.keys.index(b)])


def correlation_matrix(
    series: Mapping[str, AvailabilitySeries],
    keys: Sequence[str] | None = None,
    period: Period | None = None,
) -> CorrelationMatrix:
    ordered = list(keys) if keys is not None else sorted(series)
    values = pearson_matrix([restrict_to_period(series[k], period) for k in ordered])
    return CorrelationMatrix(keys=ordered, values=values, period=period.name if period else None)


def cluster_sync_profile(
    member_keys: Sequence[str],
    times: Mapping[str, np.ndarray],
    periods: Sequence[Period] = DEFAULT_PERIODS,
    windows: Sequence[int] = SYNC_WINDOW_SET,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
) -> dict[tuple[str, int], float | None]:
    """Mean pairwise correlation of member-stop series per (period, window).

    ``times`` maps stop ids to their passage times. Pairs whose correlation
    is undefined are left out of the mean; a cell with no defined pair at
    all is None. Requires at least two members with passage data.
    """
    members = [k for k in member_keys if k in times]
    if len(members) < 2:
        raise ValueError("synchronization profile needs at least 2 member stops with passages")

    pairs = np.triu_indices(len(members), 1)
    profile: dict[tuple[str, int], float | None] = {}
    for window in windows:
        series = build_availability({k: times[k] for k in members}, window, span)
        for period in periods:
            rs = pearson_matrix([restrict_to_period(series[k], period) for k in members])[pairs]
            rs = rs[~np.isnan(rs)]
            profile[(period.name, window)] = float(np.mean(rs)) if rs.size else None
    return profile


def mean_sync_across_clusters(
    profiles: Sequence[Mapping[tuple[str, int], float | None]],
) -> dict[tuple[str, int], float | None]:
    """Average defined profile cells over clusters."""
    combined: dict[tuple[str, int], float | None] = {}
    cells = {cell for profile in profiles for cell in profile}
    for cell in sorted(cells):
        values = [p[cell] for p in profiles if p.get(cell) is not None]
        combined[cell] = float(np.mean(values)) if values else None
    return combined
