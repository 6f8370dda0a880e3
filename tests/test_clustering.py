import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace import pipeline
from bustrace.analytics import PassageTable
from bustrace.clustering import (
    Cluster,
    build_candidates,
    cluster_stats,
    cluster_stops,
    distinct_vehicle_counts,
)
from bustrace.geo import GeoPoint, haversine_distance, offset_point
from bustrace.model import DEFAULT_SPAN_MINUTES, DEFAULT_WINDOW_MINUTES, BusStop, Dataset, StopType

ORIGIN = GeoPoint(-25.45, -49.30)


def _stop(stop_id, east, north):
    p = offset_point(ORIGIN, east, north)
    return BusStop(stop_id=stop_id, name=stop_id, stop_type=StopType.STREET_STOP, lat=p.lat, lon=p.lon)


def _field(coords):
    return {stop_id: _stop(stop_id, e, n) for stop_id, (e, n) in coords.items()}


# ── build_candidates ────────────────────────────────────────────────────


def test_candidates_singleton():
    assert build_candidates(["A"], {"A": 4.0}) == ["A"]


def test_candidates_tie_breaks_by_stop_id():
    got = build_candidates(["B", "A"], {"A": 4.0, "B": 4.0})
    assert got == ["A", "B"]


def test_candidates_sorted_against_oracle():
    rng = np.random.default_rng(0)
    averages = {f"S{i}": float(rng.integers(0, 5)) for i in range(10)}
    got = build_candidates(list(averages), averages)
    expected = sorted(averages, key=lambda stop_id: (-averages[stop_id], stop_id))
    assert got == expected


def test_candidates_missing_average_rejected():
    with pytest.raises(ValueError, match="no daily average"):
        build_candidates(["A", "B"], {"A": 1.0})


def test_candidates_empty():
    assert build_candidates([], {}) == []


# ── cluster_stops ───────────────────────────────────────────────────────


def test_single_candidate_no_neighbors():
    stops = _field({"A": (0, 0), "B": (2000, 0)})
    clusters = cluster_stops(["A"], stops)
    assert len(clusters) == 1
    assert clusters[0].centroid_stop_id == "A"
    assert clusters[0].members == {"A"}


def test_boundary_distance_is_inclusive():
    stops = _field({"A": (0, 0), "B": (600, 0)})
    d = haversine_distance(stops["A"], stops["B"])
    assert d == pytest.approx(600.0, abs=0.01)
    clusters = cluster_stops(["A"], stops, radius_m=d)
    assert clusters[0].members == {"A", "B"}


def test_collinear_candidates_share_middle_stop():
    # A, B, C spaced 500 m apart; all three are candidates ordered A, B, C.
    stops = _field({"A": (0, 0), "B": (500, 0), "C": (1000, 0)})
    candidates = ["A", "B", "C"]
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
        centroid = remaining[0]
        cluster = {centroid}
        for stop_id in stops:
            if haversine_distance(stops[centroid], stops[stop_id]) <= radius:
                cluster.add(stop_id)
        clusters.append((centroid, frozenset(cluster)))
        remaining = [stop_id for stop_id in remaining if stop_id not in cluster]
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
        remaining = set(candidates)
        for c in got:
            consumed = c.members & remaining
            assert c.centroid_stop_id in consumed
            remaining -= consumed
        assert not remaining
        assert got[0].centroid_stop_id == candidates[0]


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
        cluster_stops(["Z"], stops)


# ── cluster_stats ───────────────────────────────────────────────────────


def _passages(rows):
    """Passage table of (stop_id, time_s, vehicle_id, line_code) rows; one trip per row."""
    return PassageTable.from_columns(
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
    clusters = cluster_stops(["A"], stops)
    enriched, scatter, _ = cluster_stats(clusters, _passages([]))
    assert enriched[0].avg_buses == 0.0
    assert enriched[0].lines_served == frozenset()
    assert scatter.r is None and scatter.p_value is None
    assert scatter.n_clusters == 1


def test_cluster_stage_writes_no_pair_of_a_cluster_with_one_member_seen(tmp_path):
    # U joins A's cluster but no bus passes it: the cluster has no pair of stops to correlate
    stops = _field({"A": (0, 0), "U": (200, 0)})
    passages = _passages([("A", 6 * 3600 + 600 * i, f"V{i % 2}", "L") for i in range(6)])
    analyzed = pipeline.DailyAverages({"A": 2.0}, frozenset({"A"}))
    pipeline.run_cluster(tmp_path, Dataset(stops=stops), pipeline.PipelineConfig(), passages, analyzed)
    assert (tmp_path / pipeline.CLUSTERS_FILE).read_text(encoding="utf-8").splitlines()[2:] == ["A,A,2,0,1,0.056022,A;U,L"]
    for name in ("cluster_stop_correlations.csv", "sync_profiles.csv", "sync_summary.csv"):
        assert (tmp_path / name).read_text(encoding="utf-8") == ",".join(pipeline.ARTIFACTS[name].header) + "\n"


def test_stats_distinct_vehicles_counted_once_per_window():
    # one bus touches both member stops 60 s apart: one bus per window,
    # not two passages
    stops = _field({"A": (0, 0), "B": (300, 0)})
    clusters = cluster_stops(["A"], stops)
    passages = _passages([("A", 36000, "BUS1", "L1"), ("B", 36060, "BUS1", "L1")])
    window, span = DEFAULT_WINDOW_MINUTES, DEFAULT_SPAN_MINUTES
    counts = distinct_vehicle_counts(passages, passages.at_stops(clusters[0].member_list), window, span)
    assert counts.max() == 1
    per_stop_sum = (
        distinct_vehicle_counts(passages, passages.at_stops(["A"]), window, span)
        + distinct_vehicle_counts(passages, passages.at_stops(["B"]), window, span)
    )
    assert per_stop_sum.max() == 2


@st.composite
def _pooled_days(draw):
    """Passages of a few vehicles at a few stops over three days, and member stops."""
    start = draw(st.integers(300, 1300))
    span = (start, start + draw(st.integers(1, 40)))
    lo, hi = (span[0] - 2) * 60, (span[1] + 2) * 60
    time = st.integers(lo // 60, hi // 60).map(lambda m: m * 60) | st.integers(lo, hi)
    rows = draw(st.lists(
        st.tuples(st.sampled_from("ABCD"), time, st.sampled_from(["V1", "V2", "V3"]),
                  st.sampled_from(["2022-11-07", "2022-11-08", "2022-11-09"])),
        max_size=30,
    ))
    members = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=3, unique=True))
    window = draw(st.integers(1, span[1] - span[0]))
    return rows, members, window, span


@given(_pooled_days())
@settings(max_examples=300, deadline=None)
def test_distinct_vehicle_counts_equal_a_brute_force_set_count(case):
    rows, members, window, span = case
    passages = PassageTable.from_columns(
        line_code=["L1"] * len(rows),
        direction=["A"] * len(rows),
        vehicle_id=[r[2] for r in rows],
        day=[r[3] for r in rows],
        trip=range(1, len(rows) + 1),
        position=[1] * len(rows),
        stop_id=[r[0] for r in rows],
        time_s=[r[1] for r in rows],
        observed=[True] * len(rows),
    )
    expected = [
        len({vehicle for stop, t, vehicle, _day in rows
             if stop in members and m * 60 <= t < (m + window) * 60})
        for m in range(span[0], span[1] - window + 1)
    ]
    counts = distinct_vehicle_counts(passages, passages.at_stops(members), window, span)
    assert counts.tolist() == expected
    cluster = Cluster(cluster_id="C", centroid_stop_id=members[0], members=frozenset(members))
    [enriched], _, _ = cluster_stats([cluster], passages, window, span)
    assert enriched.avg_buses == float(np.mean(expected))
    assert enriched.lines_served == ({"L1"} if any(r[0] in members for r in rows) else set())


def test_stats_scatter_matches_closed_form():
    coords = {f"C{i}": (i * 5000.0, 0.0) for i in range(5)}
    stops = _field(coords)
    clusters = cluster_stops([f"C{i}" for i in range(5)], stops)
    rows = []
    for i in range(5):
        for line in range(i + 1):  # cluster i sees i+1 lines
            for k in range(4 * (i + 1)):
                rows.append((f"C{i}", 30000 + 900 * k + 37 * line, f"V{line}-{k}", f"L{line}"))
    enriched, scatter, _ = cluster_stats(clusters, _passages(rows))

    xs = np.array([c.avg_buses for c in enriched])
    ys = np.array([len(c.lines_served) for c in enriched])
    expected = float(
        ((xs - xs.mean()) * (ys - ys.mean())).sum()
        / np.sqrt(((xs - xs.mean()) ** 2).sum() * ((ys - ys.mean()) ** 2).sum())
    )
    assert scatter.r == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= scatter.p_value <= 1.0
    assert [len(c.lines_served) for c in enriched] == [1, 2, 3, 4, 5]
