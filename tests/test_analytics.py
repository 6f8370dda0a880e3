import logging
import tempfile
from dataclasses import fields
from datetime import date
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace.analytics import (
    DEFAULT_PERIODS,
    AvailabilitySeries,
    PassageTable,
    aggregate_by_category,
    build_availability,
    cluster_sync_profile,
    correlation_matrix,
    daily_average,
    find_outlier_stops,
    mean_sync_across_clusters,
    merge_terminals,
    moving_window_counts,
    pearson,
    pearson_p_value,
    restrict_to_period,
)
from bustrace import pipeline
from bustrace.detection import DetectedItinerary, parse_time_of_day, round_to_second, tag_report
from bustrace.model import BusStop, StopType

SPAN = (300, 1380)


def _series(counts, key="S1", window=10):
    return AvailabilitySeries(key=key, window_minutes=window, counts=np.asarray(counts), span=SPAN)


def _brute_force_counts(times, window_minutes, span=SPAN):
    start, end = span
    counts = []
    for minute in range(start, end - window_minutes + 1):
        lo, hi = minute * 60, (minute + window_minutes) * 60
        counts.append(sum(1 for t in times if lo <= t < hi))
    return np.array(counts)


# ── moving_window_counts ────────────────────────────────────────────────


def test_window_counts_empty():
    counts = moving_window_counts([], 10)
    assert counts.shape == (18 * 60 - 10 + 1,)
    assert not counts.any()


def test_window_counts_single_passage_hits_exact_minutes():
    counts = moving_window_counts([parse_time_of_day("06:00:30")], 10)
    starts = np.arange(300, 1380 - 10 + 1)
    hot = starts[counts == 1]
    assert hot[0] == parse_time_of_day("05:51:00") // 60
    assert hot[-1] == parse_time_of_day("06:00:00") // 60
    assert len(hot) == 10
    assert counts.sum() == 10


def test_window_counts_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        times = sorted(rng.uniform(300 * 60, 1380 * 60, size=50))
        w = int(rng.integers(1, 45))
        got = moving_window_counts(times, w)
        assert np.array_equal(got, _brute_force_counts(times, w))


def test_window_counts_vector_length_contract():
    for w in (1, 10, 45):
        assert moving_window_counts([], w).shape == (18 * 60 - w + 1,)


@given(
    times=st.lists(st.floats(min_value=18000, max_value=82800, allow_nan=False), max_size=40),
    w_small=st.integers(min_value=1, max_value=20),
    extra=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60)
def test_windows_nest(times, w_small, extra):
    w_big = w_small + extra
    small = moving_window_counts(times, w_small)
    big = moving_window_counts(times, w_big)
    assert np.all(big >= small[: len(big)])


def test_window_requires_positive_width():
    with pytest.raises(ValueError):
        moving_window_counts([], 0)


# ── aggregation ─────────────────────────────────────────────────────────


def _cat(mapping):
    return {k: v for k, v in mapping.items()}


def test_aggregate_single_stop_category():
    series = {"A": _series([1, 2, 3])}
    means = aggregate_by_category(series, _cat({"A": StopType.TERMINAL}))
    assert np.array_equal(means[StopType.TERMINAL], [1, 2, 3])


def test_aggregate_two_constant_series():
    series = {"A": _series([2, 2]), "B": _series([4, 4], key="B")}
    cats = _cat({"A": StopType.STREET_STOP, "B": StopType.STREET_STOP})
    means = aggregate_by_category(series, cats)
    assert np.array_equal(means[StopType.STREET_STOP], [3.0, 3.0])


def test_aggregate_five_stop_hand_oracle():
    vectors = {f"S{i}": [i, 2 * i, i * i] for i in range(5)}
    series = {k: _series(v, key=k) for k, v in vectors.items()}
    cats = _cat({k: StopType.TUBE_STATION for k in vectors})
    means = aggregate_by_category(series, cats)
    expected = [sum(v[j] for v in vectors.values()) / 5 for j in range(3)]
    assert np.allclose(means[StopType.TUBE_STATION], expected)


def test_aggregate_commutes_with_reordering():
    series = {"A": _series([1, 5]), "B": _series([3, 1], key="B"), "C": _series([2, 0], key="C")}
    cats = _cat({k: StopType.STREET_STOP for k in series})
    forward = aggregate_by_category(series, cats)
    backward = aggregate_by_category(dict(reversed(series.items())), cats)
    assert np.array_equal(forward[StopType.STREET_STOP], backward[StopType.STREET_STOP])


def test_aggregate_warns_on_empty_category(caplog):
    series = {"A": _series([1, 1])}
    with caplog.at_level(logging.WARNING):
        means = aggregate_by_category(series, _cat({"A": StopType.STREET_STOP}))
    assert StopType.TERMINAL not in means
    assert any("TERMINAL" in r.message for r in caplog.records)


def test_aggregate_rejects_mixed_windows():
    series = {"A": _series([1]), "B": _series([1], key="B", window=20)}
    with pytest.raises(ValueError, match="share"):
        aggregate_by_category(series, _cat({"A": StopType.STREET_STOP, "B": StopType.STREET_STOP}))


def test_daily_average_cases():
    assert daily_average(_series([7, 7, 7])) == 7.0
    assert daily_average(_series([0, 0])) == 0.0
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 20, size=100)
    assert daily_average(_series(counts)) == pytest.approx(float(np.mean(counts)), abs=1e-12)


# ── outliers ────────────────────────────────────────────────────────────


def test_outliers_all_equal_none():
    averages = {f"S{i}": 3.0 for i in range(6)}
    cats = {k: StopType.STREET_STOP for k in averages}
    assert find_outlier_stops(averages, cats) == set()


def test_outliers_quartile_rule():
    averages = {"S0": 1.0, "S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 10.0}
    cats = {k: StopType.STREET_STOP for k in averages}
    # type-7 quartiles of [1,1,1,1,10]: q1=1, q3=1, fence=1, so only 10 exceeds
    assert find_outlier_stops(averages, cats) == {"S4"}


def test_outliers_terminals_excluded():
    averages = {f"S{i}": 1.0 for i in range(5)} | {"T": 50.0, "T2": 1.0, "T3": 1.0, "T4": 1.0}
    cats = {k: StopType.STREET_STOP for k in averages}
    for k in ("T", "T2", "T3", "T4"):
        cats[k] = StopType.TERMINAL
    assert find_outlier_stops(averages, cats) == set()


def test_outliers_small_category_skipped(caplog):
    averages = {"S0": 1.0, "S1": 100.0}
    cats = {k: StopType.TUBE_STATION for k in averages}
    with caplog.at_level(logging.WARNING):
        got = find_outlier_stops(averages, cats)
    assert got == set()
    assert any("skipped" in r.message for r in caplog.records)


# ── pearson ─────────────────────────────────────────────────────────────


def test_pearson_self_correlation():
    x = [1.0, 2.0, 4.0, 8.0]
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_pearson_anti_correlation():
    x = [1.0, 2.0, 4.0, 8.0]
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_closed_form_six_points():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0]
    n = 6
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    expected = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    assert pearson(x, y) == pytest.approx(expected, abs=1e-12)


def test_pearson_zero_variance_is_none():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None


def test_pearson_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_p_value_significance():
    # strongly correlated long series -> tiny p; 3 points of noise -> large p
    x = list(range(50))
    y = [v * 2.0 + (v % 3) for v in x]
    r = pearson(x, y)
    assert pearson_p_value(r, 50) < 1e-6
    assert pearson_p_value(0.2, 5) > 0.5


def test_pearson_p_value_closed_form_two_degrees_of_freedom():
    # with df = 2 the t distribution has the closed-form tail
    # P(|T| > t) = 1 - t / sqrt(2 + t^2)
    for r in (-0.9, -0.3, 0.05, 0.5, 0.97):
        t = abs(r) * np.sqrt(2.0 / (1.0 - r * r))
        assert pearson_p_value(r, 4) == pytest.approx(1.0 - t / np.sqrt(2.0 + t * t), rel=1e-12)


def test_pearson_p_value_equals_scipy_stdtr():
    from scipy.special import stdtr

    edges = [-1 + 1e-9, -1 + 1e-6, 0.0, 1 - 1e-6, 1 - 1e-9]
    grid = np.concatenate((np.linspace(-0.999, 0.999, 81), edges))
    for n in range(3, 201):
        for r in grid.tolist():
            t = r * np.sqrt((n - 2) / (1.0 - r * r))
            expected = float(2.0 * stdtr(n - 2, -abs(t)))
            assert abs(pearson_p_value(r, n) - expected) <= 1e-12, (r, n)
    # With one degree of freedom, stdtr loses digits near t = 0 (it returns
    # 1.0 for |t| = 1e-9, where the two-sided p is 1 - 6.4e-10); check tiny
    # r against that case's closed form 1 - 2/π atan(|t|) instead.
    for r in (-1e-6, -1e-9, 1e-9, 1e-6):
        t = abs(r) / np.sqrt(1.0 - r * r)
        assert pearson_p_value(r, 3) == pytest.approx(1.0 - 2.0 / np.pi * np.arctan(t), abs=1e-15)


def test_correlation_matrix_contracts():
    rng = np.random.default_rng(2)
    series = {
        "A": _series(rng.integers(0, 5, size=1071)),
        "B": _series(rng.integers(0, 5, size=1071), key="B"),
        "C": _series(np.zeros(1071, dtype=int), key="C"),  # no variance
    }
    matrix = correlation_matrix(series)
    assert matrix.keys == ["A", "B", "C"]
    assert np.array_equal(np.diag(matrix.values), np.ones(3))
    assert np.allclose(matrix.values, matrix.values.T, equal_nan=True)
    assert np.isnan(matrix.entry("A", "C"))
    assert -1.0 <= matrix.entry("A", "B") <= 1.0


def test_restrict_to_period_bounds():
    series = _series(np.arange(1071))
    morning = next(p for p in DEFAULT_PERIODS if p.name == "morning")
    got = restrict_to_period(series, morning)
    assert len(got) == 180
    assert got[0] == morning.start_minute - 300
    assert restrict_to_period(series, None) is series.counts


# ── synchronization profiles ────────────────────────────────────────────


_trip_times = st.lists(
    st.integers(0, 4 * 86_000).map(lambda q: q / 4)  # quarter seconds: exact .5 ties
    | st.floats(0, 86_000, allow_nan=False),
    min_size=2,
    max_size=12,
    unique=True,
).map(sorted)


_COLUMNS = [f.name for f in fields(PassageTable)]


def _group(det: DetectedItinerary) -> tuple:
    return (det.line_code, det.direction, det.vehicle_id, det.day)


@given(st.lists(_trip_times, min_size=1, max_size=4))
@settings(max_examples=200)
def test_passage_table_from_trips_rounds_like_the_detection_csv(trips):
    detections = [
        DetectedItinerary(
            line_code=f"L{i % 2}",
            vehicle_id=f"V{i % 2}",
            direction="A",
            stop_ids=tuple(f"S{j}" for j in range(len(times))),
            time_s=np.array(times),
            observed=np.array([j % 2 == 0 or j == len(times) - 1 for j in range(len(times))]),
            day=date(2022, 11, 7 + i % 2),
        )
        for i, times in enumerate(trips)
    ]
    table = PassageTable.from_itineraries(detections)
    trips_seen: dict[tuple, int] = {}
    rows = []
    for det in detections:
        trip = trips_seen[_group(det)] = trips_seen.get(_group(det), 0) + 1
        entries = zip(det.stop_ids, det.time_s.tolist(), det.observed.tolist())
        for position, (stop_id, t, observed) in enumerate(entries, start=1):
            rows.append((det.line_code, det.direction, det.vehicle_id, det.day, trip,
                         position, stop_id, round_to_second(t), observed))
    assert list(zip(*(getattr(table, name).tolist() for name in _COLUMNS))) == rows


def _to_odd_second(t: float) -> int:
    """Whole seconds of t; an exact .5 goes to the odd neighbour."""
    whole, frac = divmod(Fraction(t), 1)
    return int(whole) + int(frac > Fraction(1, 2) or (frac == Fraction(1, 2) and whole % 2 == 0))


_ids = st.text(alphabet='#,"9A ', min_size=1, max_size=4)


@st.composite
def _accepted_trip(draw) -> DetectedItinerary:
    """A trip of one of a few (line, direction, vehicle, day) groups, some entries interpolated."""
    times = draw(_trip_times)
    interior = draw(st.lists(st.booleans(), min_size=len(times) - 2, max_size=len(times) - 2))
    return DetectedItinerary(
        line_code=draw(st.sampled_from(["#829", "8,29", '8"29'])),
        vehicle_id=draw(st.sampled_from(["#BA020", 'BA"021'])),
        direction=draw(st.sampled_from(["A", "B,"])),
        stop_ids=tuple(draw(st.lists(_ids, min_size=len(times), max_size=len(times)))),
        time_s=np.array(times),
        observed=np.array([True, *interior, True]),
        day=draw(st.sampled_from([date(2022, 11, 7), date(2022, 11, 8)])),
    )


@given(st.lists(_accepted_trip(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_passage_table_round_trips_through_the_detection_csv(detections):
    table = PassageTable.from_itineraries(detections)
    with tempfile.TemporaryDirectory() as tmp:
        pipeline.write_detection_artifacts(Path(tmp), table, tag_report([], {}))
        back = pipeline.read_detection_rows(Path(tmp), "analyze")
    for name in _COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(table, name)), name

    by_group: dict[tuple, list[int]] = {}
    for index, det in enumerate(detections):
        by_group.setdefault(_group(det), []).append(index)
    trip_of = {index: trip for indices in by_group.values()
               for trip, index in enumerate(indices, start=1)}
    sizes = [len(det.stop_ids) for det in detections]
    assert table.trip.tolist() == [trip_of[i] for i, size in enumerate(sizes) for _ in range(size)]
    assert table.time_s.tolist() == [_to_odd_second(t) for det in detections for t in det.time_s.tolist()]
    assert table.observed.tolist() == [o for det in detections for o in det.observed.tolist()]


def _passages(times_by_stop, vehicle="V1", line="L1"):
    """Passage table of the given times per stop, to whole seconds; one trip per passage."""
    rows = [(stop, round(t)) for stop, times in times_by_stop.items() for t in times]
    return PassageTable(
        line_code=[line] * len(rows),
        direction=["A"] * len(rows),
        vehicle_id=[vehicle] * len(rows),
        day=["2022-11-07"] * len(rows),
        trip=range(1, len(rows) + 1),
        position=[1] * len(rows),
        stop_id=[stop for stop, _ in rows],
        time_s=[t for _, t in rows],
        observed=[True] * len(rows),
    )


def test_sync_profile_two_members_equals_pair():
    rng = np.random.default_rng(4)
    passages = _passages(
        {
            "A": rng.uniform(300 * 60, 1380 * 60, 120),
            "B": rng.uniform(300 * 60, 1380 * 60, 120),
        }
    ).times_by_stop()
    profile = cluster_sync_profile(["A", "B"], passages, periods=DEFAULT_PERIODS, windows=(10,))
    for period in DEFAULT_PERIODS:
        series = build_availability(passages, 10)
        a = restrict_to_period(series["A"], period)
        b = restrict_to_period(series["B"], period)
        expected = pearson(a, b)
        got = profile[(period.name, 10)]
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


def test_sync_profile_identical_members_is_one():
    times = np.linspace(300 * 60, 1380 * 60, 200)
    passages = _passages({"A": times, "B": times}).times_by_stop()
    profile = cluster_sync_profile(["A", "B"], passages, windows=(10, 20))
    for value in profile.values():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_sync_profile_three_members_matches_pair_enumeration():
    rng = np.random.default_rng(5)
    passages = _passages(
        {k: rng.uniform(300 * 60, 1380 * 60, 150) for k in ("A", "B", "C")}
    ).times_by_stop()
    profile = cluster_sync_profile(["A", "B", "C"], passages, windows=(15,))
    series = build_availability(passages, 15)
    for period in DEFAULT_PERIODS:
        rs = []
        for x, y in (("A", "B"), ("A", "C"), ("B", "C")):
            r = pearson(
                restrict_to_period(series[x], period), restrict_to_period(series[y], period)
            )
            if r is not None:
                rs.append(r)
        expected = float(np.mean(rs)) if rs else None
        assert profile[(period.name, 15)] == pytest.approx(expected, abs=1e-12)


def test_sync_profile_requires_two_members():
    with pytest.raises(ValueError, match="at least 2"):
        cluster_sync_profile(["A"], _passages({"A": [30000]}).times_by_stop())


def test_mean_sync_across_clusters_skips_undefined():
    combined = mean_sync_across_clusters(
        [{("morning", 10): 0.5}, {("morning", 10): None}, {("morning", 10): 0.7}]
    )
    assert combined[("morning", 10)] == pytest.approx(0.6)


# ── terminal merging ────────────────────────────────────────────────────


def test_merge_terminals_folds_same_name():
    stops = {
        "T1": BusStop("T1", "Terminal X", StopType.TERMINAL, -25.4, -49.3),
        "T2": BusStop("T2", "Terminal X", StopType.TERMINAL, -25.4001, -49.3),
        "S1": BusStop("S1", "Rua A", StopType.STREET_STOP, -25.41, -49.31),
    }
    passages = _passages({"T1": [30000], "T2": [31000], "S1": [32000]})
    merged, categories = merge_terminals(passages, stops)
    assert sorted(merged) == ["S1", "terminal:Terminal X"]
    assert merged["terminal:Terminal X"].tolist() == [30000.0, 31000.0]
    assert categories["terminal:Terminal X"] is StopType.TERMINAL
    assert categories["S1"] is StopType.STREET_STOP
