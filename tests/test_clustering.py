import numpy as np
import pytest

from bustrace.analytics import PassageTable
from bustrace.clustering import (
    Candidate,
    build_candidates,
    cluster_availability_counts,
    cluster_stats,
    cluster_stops,
)
from bustrace.geo import GeoPoint, haversine_distance, offset_point
from bustrace.model import BusStop, StopType

ORIGIN = GeoPoint(-25.45, -49.30)


def _stop(stop_id, east, north):
    p = offset_point(ORIGIN, east, north)
    return BusStop(stop_id=stop_id, name=stop_id, stop_type=StopType.STREET_STOP, lat=p.lat, lon=p.lon)


def _field(coords):
    return {stop_id: _stop(stop_id, e, n) for stop_id, (e, n) in coords.items()}


# ── build_candidates ────────────────────────────────────────────────────


def test_candidates_singleton():
    assert build_candidates(["A"], {"A": 4.0}) == [Candidate("A", 4.0)]


def test_candidates_tie_breaks_by_stop_id():
    got = build_candidates(["B", "A"], {"A": 4.0, "B": 4.0})
    assert got == [Candidate("A", 4.0), Candidate("B", 4.0)]


def test_candidates_sorted_against_oracle():
    rng = np.random.default_rng(0)
    averages = {f"S{i}": float(rng.integers(0, 5)) for i in range(10)}
    got = build_candidates(list(averages), averages)
    expected = sorted(
        (Candidate(k, v) for k, v in averages.items()), key=lambda c: (-c.avg_buses, c.stop_id)
    )
    assert got == expected


def test_candidates_missing_average_rejected():
    with pytest.raises(ValueError, match="no daily average"):
        build_candidates(["A", "B"], {"A": 1.0})


def test_candidates_empty():
    assert build_candidates([], {}) == []


# ── cluster_stops ───────────────────────────────────────────────────────


def test_single_candidate_no_neighbors():
    stops = _field({"A": (0, 0), "B": (2000, 0)})
    clusters = cluster_stops([Candidate("A", 1.0)], stops)
    assert len(clusters) == 1
    assert clusters[0].centroid_stop_id == "A"
    assert clusters[0].members == {"A"}


def test_boundary_distance_is_inclusive():
    stops = _field({"A": (0, 0), "B": (600, 0)})
    d = haversine_distance(stops["A"], stops["B"])
    assert d == pytest.approx(600.0, abs=0.01)
    clusters = cluster_stops([Candidate("A", 1.0)], stops, radius_m=d)
    assert clusters[0].members == {"A", "B"}


def test_collinear_candidates_share_middle_stop():
    # A, B, C spaced 500 m apart; all three are candidates ordered A, B, C.
    stops = _field({"A": (0, 0), "B": (500, 0), "C": (1000, 0)})
    candidates = [Candidate("A", 3.0), Candidate("B", 2.0), Candidate("C", 1.0)]
    clusters = cluster_stops(candidates, stops)
    # A consumes B (within 600 m); C is 1000 m away and seeds its own
    # cluster, which re-includes B because membership scans all stops.
    assert [(c.centroid_stop_id, c.members) for c in clusters] == [
        ("A", frozenset({"A", "B"})),
        ("C", frozenset({"B", "C"})),
    ]


def _literal_greedy(candidates, stops, radius):
    """Direct transliteration of the greedy pseudocode, kept independent."""
    remaining = list(candidates)
    clusters = []
    while remaining:
        centroid = remaining[0].stop_id
        cluster = {centroid}
        for stop_id in stops:
            if haversine_distance(stops[centroid], stops[stop_id]) <= radius:
                cluster.add(stop_id)
        clusters.append((centroid, frozenset(cluster)))
        remaining = [c for c in remaining if c.stop_id not in cluster]
    return clusters


def test_random_instances_match_literal_stepthrough():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        stops = {
            f"S{i}": _stop(f"S{i}", float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)))
            for i in range(n)
        }
        chosen = [f"S{i}" for i in range(n) if rng.random() < 0.4] or ["S0"]
        averages = {s: float(rng.integers(0, 10)) for s in chosen}
        candidates = build_candidates(chosen, averages)
        got = cluster_stops(candidates, stops)
        expected = _literal_greedy(candidates, stops, 600.0)
        assert [(c.centroid_stop_id, c.members) for c in got] == expected

        # invariants: member radius, candidate consumption partition,
        # greedy priority
        for c in got:
            for member in c.members:
                assert haversine_distance(stops[c.centroid_stop_id], stops[member]) <= 600.0
        remaining = {c.stop_id for c in candidates}
        for c in got:
            consumed = c.members & remaining
            assert c.centroid_stop_id in consumed
            remaining -= consumed
        assert not remaining
        assert got[0].centroid_stop_id == candidates[0].stop_id


def test_clustering_deterministic():
    rng = np.random.default_rng(9)
    stops = {
        f"S{i}": _stop(f"S{i}", float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
        for i in range(20)
    }
    averages = {s: 1.0 for s in stops}
    candidates = build_candidates(list(stops), averages)
    first = cluster_stops(candidates, stops)
    second = cluster_stops(candidates, stops)
    assert first == second


def test_unknown_candidate_rejected():
    stops = _field({"A": (0, 0), "B": (100, 0)})
    with pytest.raises(ValueError, match="missing from stop table"):
        cluster_stops([Candidate("Z", 1.0)], stops)


# ── cluster_stats ───────────────────────────────────────────────────────


def _passages(rows):
    """Passage table of (stop_id, time_s, vehicle_id, line_code) rows; one trip per row."""
    return PassageTable(
        line_code=[r[3] for r in rows],
        direction=["A"] * len(rows),
        vehicle_id=[r[2] for r in rows],
        day=["2022-11-07"] * len(rows),
        trip=range(1, len(rows) + 1),
        position=[1] * len(rows),
        stop_id=[r[0] for r in rows],
        time_s=[r[1] for r in rows],
        observed=[True] * len(rows),
    )


def test_stats_empty_cluster_zeroes():
    stops = _field({"A": (0, 0)})
    clusters = cluster_stops([Candidate("A", 1.0)], stops)
    enriched, scatter = cluster_stats(clusters, _passages([]))
    assert enriched[0].avg_buses == 0.0
    assert enriched[0].lines_served == frozenset()
    assert scatter.r is None and scatter.p_value is None
    assert scatter.n_clusters == 1


def test_stats_distinct_vehicles_counted_once_per_window():
    # one bus touches both member stops 60 s apart: one bus per window,
    # not two passages
    stops = _field({"A": (0, 0), "B": (300, 0)})
    clusters = cluster_stops([Candidate("A", 1.0)], stops)
    passages = _passages([("A", 36000, "BUS1", "L1"), ("B", 36060, "BUS1", "L1")])
    counts = cluster_availability_counts(clusters[0].member_list, passages)
    assert counts.max() == 1
    per_stop_sum = (
        cluster_availability_counts(["A"], passages)
        + cluster_availability_counts(["B"], passages)
    )
    assert per_stop_sum.max() == 2


def test_stats_scatter_matches_closed_form():
    coords = {f"C{i}": (i * 5000.0, 0.0) for i in range(5)}
    stops = _field(coords)
    clusters = cluster_stops([Candidate(f"C{i}", 5.0 - i) for i in range(5)], stops)
    rows = []
    for i in range(5):
        for line in range(i + 1):  # cluster i sees i+1 lines
            for k in range(4 * (i + 1)):
                rows.append((f"C{i}", 30000 + 900 * k + 37 * line, f"V{line}-{k}", f"L{line}"))
    enriched, scatter = cluster_stats(clusters, _passages(rows))

    xs = np.array([c.avg_buses for c in enriched])
    ys = np.array([len(c.lines_served) for c in enriched])
    expected = float(
        ((xs - xs.mean()) * (ys - ys.mean())).sum()
        / np.sqrt(((xs - xs.mean()) ** 2).sum() * ((ys - ys.mean()) ** 2).sum())
    )
    assert scatter.r == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= scatter.p_value <= 1.0
    assert [len(c.lines_served) for c in enriched] == [1, 2, 3, 4, 5]
