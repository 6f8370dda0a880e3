import logging
import math
import tempfile
from datetime import date
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace.analytics import (
    PASSAGE_COLUMNS,
    KeyFacts,
    PassageTable,
    aggregate_by_category,
    build_availability,
    cluster_sync_profile,
    correlation_matrix,
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
from bustrace.model import DEFAULT_PERIODS, BusStop, StopType

SPAN = (300, 1380)


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


def _minute_times(span_minutes):
    """Seconds of day around and outside a span, many of them on a minute boundary."""
    lo, hi = (span_minutes[0] - 3) * 60, (span_minutes[1] + 3) * 60
    return st.integers(lo // 60, hi // 60).map(lambda m: m * 60) | st.integers(lo, hi) | st.floats(lo, hi)


@st.composite
def _coded_times(draw):
    start = draw(st.integers(0, 1400))
    span = (start, start + draw(st.integers(1, 60)))
    n_keys = draw(st.integers(1, 8))
    # passages in drawn order: neither codes nor times sorted
    passages = draw(st.lists(st.tuples(st.integers(0, n_keys - 1), _minute_times(span)), max_size=12 * n_keys))
    windows = draw(st.lists(st.integers(1, span[1] - span[0] + 2), min_size=1, max_size=5))
    codes = np.array([code for code, _ in passages], dtype=np.int32)
    return codes, np.array([t for _, t in passages]), n_keys, windows, span


@given(_coded_times())
@settings(max_examples=300, deadline=None)
def test_build_availability_counts_every_window_like_moving_window_counts(case):
    codes, times, n_keys, windows, span = case
    counts = build_availability(codes, times, n_keys, windows, span)
    assert sorted(counts) == sorted(set(windows))
    for window, matrix in counts.items():
        # a row per key code; a column per start minute
        assert matrix.shape == (n_keys, len(np.arange(span[0], span[1] - window + 1)))
        for key, row in enumerate(matrix):
            expected = moving_window_counts(times[codes == key], window, span)
            assert row.dtype == expected.dtype
            assert np.array_equal(row, expected), (key, window)


def test_build_availability_of_no_keys():
    counts = build_availability(np.zeros(0, dtype=np.int32), np.zeros(0), 0, (10, 15))
    assert {w: m.shape for w, m in counts.items()} == {10: (0, 1071), 15: (0, 1066)}
    with pytest.raises(ValueError):
        build_availability(np.zeros(1, dtype=np.int32), np.array([30000]), 1, (0,))


# ── aggregation ─────────────────────────────────────────────────────────


def test_aggregate_single_stop_category():
    means = aggregate_by_category(np.array([[1, 2, 3]]), [StopType.TERMINAL])
    assert np.array_equal(means[StopType.TERMINAL], [1, 2, 3])


def test_aggregate_two_constant_series():
    means = aggregate_by_category(np.array([[2, 2], [4, 4]]), [StopType.STREET_STOP] * 2)
    assert np.array_equal(means[StopType.STREET_STOP], [3.0, 3.0])


def test_aggregate_five_stop_hand_oracle():
    vectors = [[i, 2 * i, i * i] for i in range(5)]
    means = aggregate_by_category(np.array(vectors), [StopType.TUBE_STATION] * 5)
    expected = [sum(v[j] for v in vectors) / 5 for j in range(3)]
    assert np.allclose(means[StopType.TUBE_STATION], expected)


def test_aggregate_commutes_with_reordering():
    counts = np.array([[1, 5], [3, 1], [2, 0]])
    cats = [StopType.STREET_STOP] * 3
    forward = aggregate_by_category(counts, cats)
    backward = aggregate_by_category(counts[::-1], cats[::-1])
    assert np.array_equal(forward[StopType.STREET_STOP], backward[StopType.STREET_STOP])


def test_aggregate_warns_on_empty_category(caplog):
    with caplog.at_level(logging.WARNING):
        means = aggregate_by_category(np.array([[1, 1]]), [StopType.STREET_STOP])
    assert StopType.TERMINAL not in means
    assert any("TERMINAL" in r.message for r in caplog.records)


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


def test_outliers_compute_no_fence_for_terminals(caplog):
    averages = {f"S{i}": 1.0 for i in range(5)} | {"terminal:X": 50.0}
    cats = {k: StopType.STREET_STOP for k in averages} | {"terminal:X": StopType.TERMINAL}
    with caplog.at_level(logging.WARNING):
        assert find_outlier_stops(averages, cats) == set()
    assert not caplog.records  # no "category TERMINAL has only 1 stops" warning


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
    counts = np.stack([
        rng.integers(0, 5, size=1071),
        rng.integers(0, 5, size=1071),
        np.zeros(1071, dtype=int),  # no variance
    ])
    matrix = correlation_matrix(counts, SPAN, None)
    assert matrix.shape == (3, 3)
    assert np.array_equal(np.diag(matrix), np.ones(3))
    assert np.allclose(matrix, matrix.T, equal_nan=True)
    assert np.isnan(matrix[0, 2])
    assert -1.0 <= matrix[0, 1] <= 1.0


def test_restrict_to_period_bounds():
    counts = np.arange(1071)
    morning = next(p for p in DEFAULT_PERIODS if p.name == "morning")
    got = restrict_to_period(counts, SPAN, morning)
    assert len(got) == 180
    assert got[0] == morning.start_minute - 300
    assert restrict_to_period(counts, SPAN, None) is counts
    # a matrix keeps its rows and loses the same columns
    assert np.array_equal(restrict_to_period(np.stack([counts, -counts]), SPAN, morning), [got, -got])


# ── synchronization profiles ────────────────────────────────────────────


_trip_times = st.lists(
    st.integers(0, 4 * 86_000).map(lambda q: q / 4)  # quarter seconds: exact .5 ties
    | st.floats(0, 86_000, allow_nan=False),
    min_size=2,
    max_size=12,
    unique=True,
).map(sorted)


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
    assert list(zip(*(table.column(name).tolist() for name in PASSAGE_COLUMNS))) == rows


def _to_odd_second(t: float) -> int:
    """Whole seconds of t; an exact .5 goes to the odd neighbour."""
    whole, frac = divmod(Fraction(t), 1)
    return int(whole) + int(frac > Fraction(1, 2) or (frac == Fraction(1, 2) and whole % 2 == 0))


_ids = st.text(alphabet="#9A Ô", min_size=1, max_size=4)


@st.composite
def _accepted_trip(draw) -> DetectedItinerary:
    """A trip of one of a few (line, direction, vehicle, day) groups, some entries interpolated."""
    times = draw(_trip_times)
    interior = draw(st.lists(st.booleans(), min_size=len(times) - 2, max_size=len(times) - 2))
    return DetectedItinerary(
        line_code=draw(st.sampled_from(["#829", "829", "Ônibus 829"])),
        vehicle_id=draw(st.sampled_from(["#BA020", "BA021"])),
        direction=draw(st.sampled_from(["A", "Bé"])),
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
    for name in PASSAGE_COLUMNS:
        assert np.array_equal(back.column(name), table.column(name)), name
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


def _small_detection_csv(directory: Path, quoted: bool) -> list[str]:
    """Write a three-row detection CSV; with ``quoted``, one line code holds a quote."""
    table = PassageTable.from_columns(
        line_code=['L"1' if quoted else "L1", "L1", "L2"],
        direction=["A", "A", "B"],
        vehicle_id=["V1", "V1", "V2"],
        day=["2022-11-07"] * 3,
        trip=[1, 1, 1],
        position=[1, 2, 1],
        stop_id=["S1", "S2", "S1"],
        time_s=[18000, 18060, 90000],
        observed=[True, False, True],
    )
    pipeline.write_detection_artifacts(directory, table, tag_report([], {}))
    return (directory / pipeline.DETECTED_FILE).read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("quoted", [False, True])
def test_detection_csv_reader_reads_hours_past_midnight(tmp_path, quoted):
    if quoted:  # the writer quotes no cell, so it refuses an id that would need it
        with pytest.raises(ValueError, match="^line_code 'L\"1' contains '\"': detected_itineraries.csv "):
            _small_detection_csv(tmp_path, quoted)
        assert not (tmp_path / pipeline.DETECTED_FILE).exists()
        return
    lines = _small_detection_csv(tmp_path, quoted)
    assert lines[3].endswith(",S1,25:00:00,OBSERVED")
    lines[3] = lines[3].replace("25:00:00", "100:00:01")
    (tmp_path / pipeline.DETECTED_FILE).write_text("\n".join(lines), encoding="utf-8")  # no last newline
    table = pipeline.read_detection_rows(tmp_path, "analyze")
    assert table.time_s.tolist() == [18000, 18060, 360001]
    assert table.observed.tolist() == [True, False, True]
    assert table.column("line_code").tolist() == ["L1", "L1", "L2"]


@pytest.mark.parametrize("cell", ['"L1"', '"L,1"', '"L""1"'])
def test_detection_csv_reader_refuses_a_quoted_cell(tmp_path, cell):
    lines = _small_detection_csv(tmp_path, False)
    lines[2] = cell + lines[2][len("L1"):]
    (tmp_path / pipeline.DETECTED_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^detected_itineraries.csv data row 2[: ]"):
        pipeline.read_detection_rows(tmp_path, "analyze")


@pytest.mark.parametrize("match_bytes", [1, 40, 1 << 16])
def test_detection_csv_reader_matches_blocks_of_rows(tmp_path, monkeypatch, match_bytes):
    monkeypatch.setattr(pipeline, "_MATCH_BYTES", match_bytes)
    lines = _small_detection_csv(tmp_path, False)
    assert pipeline.read_detection_rows(tmp_path, "analyze").time_s.tolist() == [18000, 18060, 90000]
    lines[3] = lines[3].replace("OBSERVED", "OBSERVED;")
    (tmp_path / pipeline.DETECTED_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^detected_itineraries.csv data row 3: provenance 'OBSERVED;' "):
        pipeline.read_detection_rows(tmp_path, "analyze")


@pytest.mark.parametrize(
    "column, cell",
    [("time", "05:75:00"), ("time", " 5:1:2"), ("time", "7:00:00"), ("time", "05:00:5"), ("time", "0a:00:00"),
     ("time", "1234567890:00:00"), ("provenance", "OBSERVD"), ("trip", "+1"), ("trip", "1e3"),
     ("position", "0x1"), ("position", "1234567890123456789"), ("day", "2022-11-07T00"), ("day", "2022-W45-1")],
)
def test_detection_csv_reader_refuses_bad_cells_alike_on_both_paths(tmp_path, column, cell):
    # The grammar takes a data row ended by its newline and a last row
    # without one on two paths; the bad row is first the one, then the other.
    messages = set()
    for last in (False, True):
        lines = _small_detection_csv(tmp_path, False)
        cells = lines[2].split(",")
        cells[pipeline.DETECTION_HEADER.index(column)] = cell
        lines[2] = ",".join(cells)
        text = "\n".join(lines[:3]) if last else "\n".join(lines) + "\n"
        (tmp_path / pipeline.DETECTED_FILE).write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            pipeline.read_detection_rows(tmp_path, "analyze")
        messages.add(str(caught.value))
    assert messages == {f"detected_itineraries.csv data row 2: {column} {cell!r} is not "
                        + {"time": "a time HH:MM:SS", "provenance": "OBSERVED or INTERPOLATED",
                           "trip": "a decimal integer", "position": "a decimal integer",
                           "day": "a date YYYY-MM-DD"}[column]}


def _passages(times_by_stop, vehicle="V1", line="L1"):
    """Passage table of the given times per stop, to whole seconds; one trip per passage."""
    rows = [(stop, round(t)) for stop, times in times_by_stop.items() for t in times]
    return PassageTable.from_columns(
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


def _counts(passages, windows):
    """Per window size, the count matrix of the table's stops, a row per stop id."""
    return build_availability(passages.stop_id, passages.time_s, len(passages.stop_ids), windows)


def _profile(passages, windows):
    counts = _counts(passages, windows)
    return cluster_sync_profile(
        {(period, w): correlation_matrix(counts[w], SPAN, period) for period in DEFAULT_PERIODS for w in windows}
    )


def test_sync_profile_two_members_equals_pair():
    rng = np.random.default_rng(4)
    passages = _passages(
        {
            "A": rng.uniform(300 * 60, 1380 * 60, 120),
            "B": rng.uniform(300 * 60, 1380 * 60, 120),
        }
    )
    profile = _profile(passages, (10,))
    for period in DEFAULT_PERIODS:
        a, b = restrict_to_period(_counts(passages, [10])[10], SPAN, period)
        expected = pearson(a, b)
        got = profile[(period.name, 10)]
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


def test_sync_profile_identical_members_is_one():
    times = np.linspace(300 * 60, 1380 * 60, 200)
    passages = _passages({"A": times, "B": times})
    profile = _profile(passages, (10, 20))
    for value in profile.values():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_sync_profile_three_members_matches_pair_enumeration():
    rng = np.random.default_rng(5)
    passages = _passages(
        {k: rng.uniform(300 * 60, 1380 * 60, 150) for k in ("A", "B", "C")}
    )
    profile = _profile(passages, (15,))
    series = dict(zip(passages.stop_ids.tolist(), _counts(passages, [15])[15]))
    for period in DEFAULT_PERIODS:
        rs = []
        for x, y in (("A", "B"), ("A", "C"), ("B", "C")):
            r = pearson(
                restrict_to_period(series[x], SPAN, period), restrict_to_period(series[y], SPAN, period)
            )
            if r is not None:
                rs.append(r)
        expected = float(np.mean(rs)) if rs else None
        assert profile[(period.name, 15)] == pytest.approx(expected, abs=1e-12)


def test_sync_profile_requires_two_members():
    with pytest.raises(ValueError, match="at least 2"):
        _profile(_passages({"A": [30000]}), (10,))


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
    keys, key_code, facts = merge_terminals(passages, stops)
    assert keys.tolist() == ["S1", "terminal:Terminal X"]
    assert passages.time_s[keys[key_code] == "terminal:Terminal X"].tolist() == [30000.0, 31000.0]
    assert facts["terminal:Terminal X"].category is StopType.TERMINAL
    assert facts["S1"].category is StopType.STREET_STOP


def test_merge_terminals_states_each_keys_facts():
    stops = {
        "T1": BusStop("T1", "Terminal X", StopType.TERMINAL, -25.4, -49.3),
        "S1": BusStop("S1", "Rua A", StopType.TUBE_STATION, -25.41, -49.31),
        "T2": BusStop("T2", "Terminal X", StopType.TERMINAL, -25.4002, -49.3004),
        "T3": BusStop("T3", "Terminal X", StopType.TERMINAL, -25.4007, -49.3011),
    }
    passages = _passages({"T1": [30000], "S1": [31000], "Z9": [32000]})
    facts = merge_terminals(passages, stops)[2]
    # a terminal lies at the mean of all its stops, T2 and T3 without passages too
    terminal = facts["terminal:Terminal X"]
    assert terminal == KeyFacts("Terminal X", float(np.mean([-25.4, -25.4002, -25.4007])),
                                float(np.mean([-49.3, -49.3004, -49.3011])), StopType.TERMINAL)
    assert facts["S1"] == KeyFacts("Rua A", -25.41, -49.31, StopType.TUBE_STATION)
    unknown = facts["Z9"]
    assert (unknown.name, unknown.category) == ("Z9", StopType.STREET_STOP)
    assert math.isnan(unknown.lat) and math.isnan(unknown.lon)
    assert sorted(facts) == ["S1", "Z9", "terminal:Terminal X"]
