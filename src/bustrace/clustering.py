"""Greedy clustering of bus stops into virtual terminals.

Candidates (high-availability stops) are stop ids ordered by descending
average bus count; each one anchors a cluster of every stop within the
walking radius. Clustered candidates leave the candidate list, while
non-candidate stops may appear in several clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import analytics
from .analytics import PassageTable, pearson, pearson_p_value
from .geo import nearest_stops
from .model import DEFAULT_CLUSTER_RADIUS_M, DEFAULT_SPAN_MINUTES, DEFAULT_WINDOW_MINUTES, BusStop, Cluster, Period


def build_candidates(outlier_stops: Sequence[str] | set[str], averages: Mapping[str, float]) -> list[str]:
    """The centroid candidates' stop ids by descending average, ties by stop id."""
    missing = [s for s in outlier_stops if s not in averages]
    if missing:
        raise ValueError(f"no daily average for candidate stops: {sorted(missing)}")
    return sorted(set(outlier_stops), key=lambda stop_id: (-float(averages[stop_id]), stop_id))


def cluster_stops(
    candidates: Sequence[str],
    stops: Mapping[str, BusStop],
    radius_m: float = DEFAULT_CLUSTER_RADIUS_M,
) -> list[Cluster]:
    """Run the greedy clustering loop over an ordered list of candidate stop ids.

    Pops the head candidate as centroid, gathers all stops within
    ``radius_m`` (inclusive) as members, then removes clustered candidates
    from the list and repeats until none remain.
    """
    unknown = [stop_id for stop_id in candidates if stop_id not in stops]
    if unknown:
        raise ValueError(f"candidate stops missing from stop table: {unknown}")

    queue = list(candidates)
    clusters: list[Cluster] = []
    while queue:
        centroid = queue[0]
        within = nearest_stops(stops[centroid].point, stops, radius_m)
        members = frozenset(stop_id for stop_id, _ in within) | {centroid}
        clusters.append(
            Cluster(cluster_id=centroid, centroid_stop_id=centroid, members=members)
        )
        queue = [stop_id for stop_id in queue[1:] if stop_id not in members]
    return clusters


# ── Cluster statistics ──────────────────────────────────────────────────


@dataclass(frozen=True)
class ClusterScatter:
    """Cross-cluster association between bus volume and line diversity."""

    r: float | None
    p_value: float | None
    n_clusters: int


def distinct_vehicle_counts(
    passages: PassageTable, rows: np.ndarray, window_minutes: int, span: tuple[int, int]
) -> np.ndarray:
    """Distinct buses with a passage among ``rows`` per sliding window: buses available, not passages."""
    vehicles, vehicle = np.unique(passages.vehicle_id[rows], return_inverse=True)
    counts = analytics.build_availability(vehicle, passages.time_s[rows], len(vehicles), [window_minutes], span)
    return np.count_nonzero(counts[window_minutes], axis=0).astype(np.int64)


Cell = tuple[Period | None, int]  # a period (None: the whole span) at a window size in minutes


def cluster_stats(
    clusters: Sequence[Cluster],
    passages: PassageTable,
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
    cells: Sequence[Cell] = (),
) -> tuple[list[Cluster], ClusterScatter, list[tuple[list[str], dict[Cell, np.ndarray]]]]:
    """Fill per-cluster averages and line sets; correlate them across clusters.

    Also gives, per cluster, its members with passages in id order and the
    :func:`~bustrace.analytics.correlation_matrix` of their window counts at
    each distinct cell, or ``([], {})`` when fewer than two members have
    passages. Days are pooled: every passage counts at its time of day.
    """
    cells = list(dict.fromkeys(cells))
    windows = sorted({w for _, w in cells})
    enriched: list[Cluster] = []
    correlations: list[tuple[list[str], dict[Cell, np.ndarray]]] = []
    for cluster in clusters:
        rows = passages.at_stops(cluster.member_list)
        counts = distinct_vehicle_counts(passages, rows, window_minutes, span)
        lines = frozenset(passages.line_codes[np.unique(passages.line_code[rows])].tolist())
        enriched.append(replace(cluster, avg_buses=float(np.mean(counts)), lines_served=lines))
        present, member = np.unique(passages.stop_id[rows], return_inverse=True)
        if len(present) < 2:
            correlations.append(([], {}))
            continue
        by_member = analytics.build_availability(member, passages.time_s[rows], len(present), windows, span)
        matrices = {(period, w): analytics.correlation_matrix(by_member[w], span, period) for period, w in cells}
        correlations.append((passages.stop_ids[present].tolist(), matrices))

    if len(enriched) < 2:
        scatter = ClusterScatter(r=None, p_value=None, n_clusters=len(enriched))
    else:
        avgs = [c.avg_buses for c in enriched]
        line_counts = [float(len(c.lines_served)) for c in enriched]
        r = pearson(avgs, line_counts)
        scatter = ClusterScatter(
            r=r,
            p_value=pearson_p_value(r, len(enriched)) if r is not None else None,
            n_clusters=len(enriched),
        )
    return enriched, scatter, correlations
