"""Greedy clustering of bus stops into virtual terminals.

Candidates (high-availability stops) are consumed in descending order of
average bus count; each one anchors a cluster of every stop within the
walking radius. Clustered candidates leave the candidate list, while
non-candidate stops may appear in several clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .analytics import (
    DEFAULT_SPAN_MINUTES,
    DEFAULT_WINDOW_MINUTES,
    PassageTable,
    group_times,
    moving_window_counts,
    pearson,
    pearson_p_value,
)
from .geo import haversine_matrix
from .model import BusStop

DEFAULT_CLUSTER_RADIUS_M = 600.0


class Candidate(NamedTuple):
    stop_id: str
    avg_buses: float


def build_candidates(
    outlier_stops: Sequence[str] | set[str], averages: Mapping[str, float]
) -> list[Candidate]:
    """Order centroid candidates by descending average, ties by stop id."""
    missing = [s for s in outlier_stops if s not in averages]
    if missing:
        raise ValueError(f"no daily average for candidate stops: {sorted(missing)}")
    return sorted(
        (Candidate(stop_id, float(averages[stop_id])) for stop_id in set(outlier_stops)),
        key=lambda c: (-c.avg_buses, c.stop_id),
    )


@dataclass(frozen=True)
class Cluster:
    """A virtual terminal: centroid stop plus every stop within the radius."""

    cluster_id: str
    centroid_stop_id: str
    members: frozenset[str]
    lines_served: frozenset[str] = frozenset()
    avg_buses: float = 0.0

    @property
    def member_list(self) -> list[str]:
        return sorted(self.members)


def cluster_stops(
    candidates: Sequence[Candidate],
    stops: Mapping[str, BusStop],
    radius_m: float = DEFAULT_CLUSTER_RADIUS_M,
) -> list[Cluster]:
    """Run the greedy clustering loop over an ordered candidate list.

    Pops the head candidate as centroid, gathers all stops within
    ``radius_m`` (inclusive) as members, then removes clustered candidates
    from the list and repeats until none remain.
    """
    unknown = [c.stop_id for c in candidates if c.stop_id not in stops]
    if unknown:
        raise ValueError(f"candidate stops missing from stop table: {unknown}")

    stop_ids = sorted(stops)
    lats = np.array([stops[s].lat for s in stop_ids])
    lons = np.array([stops[s].lon for s in stop_ids])

    queue = list(candidates)
    clusters: list[Cluster] = []
    while queue:
        centroid = queue[0].stop_id
        center = stops[centroid]
        dists = haversine_matrix(np.array([center.lat]), np.array([center.lon]), lats, lons)[0]
        members = frozenset(
            stop_id for stop_id, d in zip(stop_ids, dists) if d <= radius_m
        ) | {centroid}
        clusters.append(
            Cluster(cluster_id=centroid, centroid_stop_id=centroid, members=members)
        )
        queue = [c for c in queue[1:] if c.stop_id not in members]
    return clusters


# ── Cluster statistics ──────────────────────────────────────────────────


@dataclass(frozen=True)
class ClusterScatter:
    """Cross-cluster association between bus volume and line diversity."""

    r: float | None
    p_value: float | None
    n_clusters: int


def cluster_availability_counts(
    members: Sequence[str],
    passages: PassageTable,
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
) -> np.ndarray:
    """Distinct buses observed at any member stop per sliding window.

    A vehicle touching several member stops inside one window counts once,
    so the cluster series reflects buses available rather than raw passage
    volume.
    """
    counts = moving_window_counts((), window_minutes, span)
    rows = np.isin(passages.stop_id, list(members))
    for times in group_times(passages.vehicle_id[rows], passages.time_s[rows]).values():
        counts += moving_window_counts(times, window_minutes, span) > 0
    return counts


def cluster_stats(
    clusters: Sequence[Cluster],
    passages: PassageTable,
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    span: tuple[int, int] = DEFAULT_SPAN_MINUTES,
) -> tuple[list[Cluster], ClusterScatter]:
    """Fill per-cluster averages and line sets; correlate them across clusters."""
    enriched: list[Cluster] = []
    for cluster in clusters:
        counts = cluster_availability_counts(
            cluster.member_list, passages, window_minutes, span
        )
        rows = np.isin(passages.stop_id, cluster.member_list)
        lines = frozenset(passages.line_code[rows].tolist())
        enriched.append(
            replace(cluster, avg_buses=float(np.mean(counts)), lines_served=lines)
        )

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
    return enriched, scatter
