"""Temporal assessment of bus service from detected itineraries.

Passages arrive as a :class:`PassageTable`, one row per (trip, position),
built by detection or read back from its CSV. Availability is measured per
stop as the number of passages inside a sliding W-minute window shifted by
one minute across the service span (05:00 to 23:00 by default). Each
window size gives one count matrix, a row per stop and a column per window
start minute. A category's series is the mean of its stops' rows, and a
stop's daily average the mean of its row, which feeds boxplot outlier
detection. A period of the day is a mask over the columns, inside which
rows are correlated pairwise (Pearson).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import DEFAULT_SPAN_MINUTES, DEFAULT_WINDOW_MINUTES, BusStop, Period, StopType

log = logging.getLogger(__name__)

MIN_CATEGORY_SIZE = 4  # smallest stop category the outlier rule applies to


# The columns of a passage table, those of ``detected_itineraries.csv`` in
# file order, and for each id column the field holding its sorted ids.
PASSAGE_COLUMNS = (
    "line_code", "direction", "vehicle_id", "day", "trip", "position", "stop_id", "time_s", "observed",
)
ID_NAMES = {
    "line_code": "line_codes", "direction": "directions", "vehicle_id": "vehicle_ids", "stop_id": "stop_ids",
}


def encode_ids(values) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of ``values`` and each value's int32 code into them."""
    ids, codes = np.unique(np.asarray(values, dtype=str), return_inverse=True)
    return ids, codes.reshape(-1).astype(np.int32)


@dataclass(frozen=True, eq=False)
class PassageTable:
    """Timed stop passages of detected trips, one row per (trip, position).

    The columns are those of ``detected_itineraries.csv``, in file order,
    each a numpy array of the same length. ``line_code``, ``direction``,
    ``vehicle_id`` and ``stop_id`` are int32 codes into the sorted distinct
    ids ``line_codes``, ``directions``, ``vehicle_ids`` and ``stop_ids``, so
    code order is id order; :meth:`column` gives the ids themselves.
    ``trip`` numbers the trips of one (line, direction, vehicle, day) group
    from 1; ``time_s`` holds seconds of day rounded to whole seconds as the
    file writes them, and ``observed`` is False for an interpolated time.
    The table :func:`~bustrace.detection.passage_table` builds from the
    detection outcomes in memory equals the one read back from that file.
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
    line_codes: np.ndarray
    directions: np.ndarray
    vehicle_ids: np.ndarray
    stop_ids: np.ndarray

    def __post_init__(self):
        dtypes = {"day": "datetime64[D]", "trip": np.int64, "position": np.int64,
                  "time_s": np.int64, "observed": bool, **dict.fromkeys(ID_NAMES, np.int32)}
        for f in fields(self):
            column = np.asarray(getattr(self, f.name), dtype=dtypes.get(f.name, str))
            object.__setattr__(self, f.name, column)
        if len({getattr(self, name).shape for name in PASSAGE_COLUMNS}) > 1:
            raise ValueError("passage columns must have equal lengths")
        for name, ids_name in ID_NAMES.items():
            codes, ids = getattr(self, name), getattr(self, ids_name)
            if np.any(ids[1:] <= ids[:-1]):
                raise ValueError(f"{ids_name} must be sorted and distinct")
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(ids):
                raise ValueError(f"{name} codes must index {ids_name}")

    def __len__(self) -> int:
        return len(self.time_s)

    @classmethod
    def from_columns(cls, **columns) -> "PassageTable":
        """A table of the nine columns, the id columns given as ids."""
        coded = {}
        for name, ids_name in ID_NAMES.items():
            coded[ids_name], coded[name] = encode_ids(columns.pop(name))
        return cls(**columns, **coded)

    def column(self, name: str) -> np.ndarray:
        """The values of one of the nine columns, ids for an id column."""
        values = getattr(self, name)
        return getattr(self, ID_NAMES[name])[values] if name in ID_NAMES else values

    def at_stops(self, stop_ids: Sequence[str]) -> np.ndarray:
        """Whether each row passes one of ``stop_ids``; an id without passages selects no row."""
        return np.isin(self.stop_ids, np.asarray(stop_ids, dtype=str))[self.stop_id]


def terminal_key(stop: BusStop) -> str:
    """The key of the pseudo-stop :func:`merge_terminals` folds a terminal's stops into."""
    return f"terminal:{stop.name}"


class KeyFacts(NamedTuple):
    """What the analyze stage states of one key besides its passages."""

    name: str
    lat: float
    lon: float
    category: StopType


def merge_terminals(
    passages: PassageTable, stops: Mapping[str, BusStop]
) -> tuple[np.ndarray, np.ndarray, dict[str, KeyFacts]]:
    """Fold all stops of one terminal (same name) into a single pseudo-stop.

    Returns the sorted distinct keys of the passed stops, each row's int32
    code into them, and the :class:`KeyFacts` of every key. Non-terminal
    stops are their own keys. A terminal key lies at the mean position of
    all its terminal's stops in ``stops``, passed or not; a stop missing
    from ``stops`` is named by its id, has no position and is a street stop.
    A passed stop that is its own key and whose id is a terminal's key
    raises ValueError: its passages would be counted as the terminal's.
    """
    terminals: dict[str, list[BusStop]] = {}
    for stop in stops.values():
        if stop.stop_type is StopType.TERMINAL:
            terminals.setdefault(terminal_key(stop), []).append(stop)
    present = np.unique(passages.stop_id)
    keys: list[str] = []
    facts: dict[str, KeyFacts] = {}
    for stop_id in passages.stop_ids[present].tolist():
        stop = stops.get(stop_id)
        if stop is None:
            key, fact = stop_id, KeyFacts(stop_id, math.nan, math.nan, StopType.STREET_STOP)
        elif stop.stop_type is StopType.TERMINAL:
            key = terminal_key(stop)
            lat = float(np.mean([member.lat for member in terminals[key]]))
            lon = float(np.mean([member.lon for member in terminals[key]]))
            fact = KeyFacts(stop.name, lat, lon, stop.stop_type)
        else:
            key, fact = stop_id, KeyFacts(stop.name, stop.lat, stop.lon, stop.stop_type)
        if key in terminals and fact.category is not StopType.TERMINAL:
            raise ValueError(f"stop {stop_id} has the key of terminal {terminals[key][0].name!r}")
        keys.append(key)
        facts[key] = fact
    key_ids, key_codes = encode_ids(keys)
    key_of_stop = np.zeros(len(passages.stop_ids), dtype=np.int32)
    key_of_stop[present] = key_codes
    return key_ids, key_of_stop[passages.stop_id], facts


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
    codes: np.ndarray,
    times: np.ndarray,
    n_keys: int,
    windows: Sequence[int],
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
) -> dict[int, np.ndarray]:
    """Passages per key in each window [m, m + W) of the span, for every W.

    Passage i belongs to key ``codes[i]`` (0 to ``n_keys`` - 1) and lies at
    ``times[i]`` seconds of day. Gives, per window size W, an int64 array
    of one row per key and one column per start minute m from span[0]
    through span[1] - W, as :func:`moving_window_counts` counts each key.
    All are differences of one cumulative per-minute histogram: a time t
    lies in [m * 60, (m + W) * 60) exactly when its minute t // 60 lies in
    [m, m + W).
    """
    if any(w < 1 for w in windows):
        raise ValueError("window must be at least one minute")
    start, end = span
    minutes = np.floor_divide(np.asarray(times), 60)
    inside = (minutes >= start) & (minutes < end)  # False for NaN
    width = end - start
    bins = np.asarray(codes, dtype=np.int64)[inside] * width + (minutes[inside] - start).astype(np.int64)
    cumulative = np.zeros((n_keys, width + 1), dtype=np.int64)
    per_minute = np.bincount(bins, minlength=n_keys * width).reshape(n_keys, width)
    np.cumsum(per_minute, axis=1, out=cumulative[:, 1:])
    return {w: cumulative[:, w:] - cumulative[:, :-w] for w in windows}


def aggregate_by_category(counts: np.ndarray, categories: Sequence[StopType]) -> dict[StopType, np.ndarray]:
    """Mean of the count rows of each category, ``categories`` giving each row's; empty categories omitted."""
    means: dict[StopType, np.ndarray] = {}
    for category in StopType:
        rows = [i for i, row_category in enumerate(categories) if row_category is category]
        if not rows:
            log.warning("category %s has no stops with passages; omitted", category.value)
            continue
        means[category] = np.mean(counts[rows], axis=0)
    return means


def find_outlier_stops(
    averages: Mapping[str, float],
    categories: Mapping[str, StopType],
) -> set[str]:
    """Upper boxplot outliers (value > Q3 + 1.5 IQR) per category.

    Quantiles use linear interpolation. Terminal keys are left out before
    any fence is computed; they are physically integrated already.
    Categories with fewer than ``MIN_CATEGORY_SIZE`` stops are skipped
    with a warning.
    """
    by_category: dict[StopType, list[str]] = {}
    for key in averages:
        if categories[key] is not StopType.TERMINAL:
            by_category.setdefault(categories[key], []).append(key)

    outliers: set[str] = set()
    for category, keys in by_category.items():
        if len(keys) < MIN_CATEGORY_SIZE:
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

    return outliers


# ── Correlation ─────────────────────────────────────────────────────────


def restrict_to_period(counts: np.ndarray, span: tuple[int, int], period: Period | None) -> np.ndarray:
    """The columns of ``counts`` (a row or a matrix) whose window start minute, span[0] + column, lies in the period."""
    if period is None:
        return counts
    starts = span[0] + np.arange(counts.shape[-1])
    return counts[..., (starts >= period.start_minute) & (starts < period.end_minute)]


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


def correlation_matrix(counts: np.ndarray, span: tuple[int, int], period: Period | None) -> np.ndarray:
    """The :func:`pearson_matrix` of the count rows, restricted to the period's windows."""
    return pearson_matrix(restrict_to_period(counts, span, period))


def cluster_sync_profile(matrices: Mapping[tuple[Period, int], np.ndarray]) -> dict[tuple[str, int], float | None]:
    """Mean pairwise correlation of member stops per (period name, window).

    ``matrices`` maps each (period, window) cell to the
    :func:`correlation_matrix` of the members' counts. Pairs whose
    correlation is undefined are left out of the mean; a cell with no
    defined pair at all is None. Requires at least two members.
    """
    profile: dict[tuple[str, int], float | None] = {}
    for (period, window), values in matrices.items():
        if len(values) < 2:
            raise ValueError("synchronization profile needs at least 2 member stops with passages")
        rs = values[np.triu_indices(len(values), 1)]
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
