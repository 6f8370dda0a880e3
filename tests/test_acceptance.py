"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria with pinned runtimes assert them; the bulk-throughput target is a
soft regression guard that warns instead of failing.
"""

import math
import time
import warnings
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from bustrace.analytics import correlation_matrix, moving_window_counts, pearson
from bustrace.clustering import Candidate, build_candidates, cluster_stops
from bustrace.detection import (
    detect,
    detect_group,
    evaluate_interpolation_error,
    format_time_of_day,
    segment_trips,
    tag_report,
)
from bustrace.geo import haversine_distance
from bustrace.matching import Marks, match_fixes
from bustrace.model import DEFAULT_SPAN_MINUTES, ItineraryDef, LineCategory
from bustrace.routing import (
    add_cluster_transfers,
    build_graph,
    evaluate_od,
    evaluate_trip,
    yen_k_shortest,
)
from bustrace.synthetic import (
    generate_od_pairs,
    line829_dataset,
    straight_line_dataset,
    two_corridor_network,
    two_corridor_od_pairs,
)

from conftest import CASE_RESULT, dropped_marks, run_detection_simple, trip_entries
from test_analytics import _brute_force_counts
from test_clustering import _literal_greedy, _stop as make_stop
from test_routing import _adj, _enumerate_simple_paths


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")


# ── 1. case-study exactness ─────────────────────────────────────────────


def test_criterion_01_case_study_exactness():
    with criterion(1, "case-study exactness"):
        dataset = line829_dataset(include_failures=True)
        itinerary = dataset.itineraries[0]
        fixes = next(iter(dataset.fixes.values()))

        started = time.perf_counter()
        marks = match_fixes(fixes, [itinerary], dataset.stops)[0]
        segmentation = segment_trips(marks, itinerary)
        assert len(segmentation.segments) == 1
        segment = segmentation.segments[0]
        result = detect(itinerary, segment, day=date(2022, 11, 7))
        elapsed = time.perf_counter() - started

        assert result.accepted
        rows = [
            (position, stop_id, format_time_of_day(t), provenance.value)
            for position, stop_id, t, provenance in trip_entries(result.itinerary)
        ]
        assert rows == CASE_RESULT  # 11 positions, exact times
        dropped = [
            (stop_id, format_time_of_day(t))
            for stop_id, t in dropped_marks(itinerary, segment, result)
        ]
        assert dropped == [("829010", "06:14:08")]  # spurious mark absent from output
        assert elapsed < 1.0


# ── 2. interpolation oracle on uniform motion ───────────────────────────


def test_criterion_02_interpolation_zero_error_uniform_motion():
    with criterion(2, "interpolation exact on uniform motion"):
        started = time.perf_counter()
        dataset = straight_line_dataset(n_stops=30, n_trips=10, jitter=0.0)
        detections = run_detection_simple(dataset)
        assert all(d.is_fully_observed() for d in detections)
        for w in range(2, 9):
            samples = evaluate_interpolation_error(detections, w=w, samples=100, seed=w)
            assert len(samples) == 100 * (w - 1)
            assert all(s.err_seconds == 0.0 for s in samples)
        assert time.perf_counter() - started < 5.0


# ── 3. error growth with gap width ──────────────────────────────────────


def test_criterion_03_error_median_grows_with_gap_width():
    with criterion(3, "error medians non-decreasing in w"):
        dataset = straight_line_dataset(n_stops=30, n_trips=10, jitter=0.4, seed=42)
        detections = run_detection_simple(dataset)
        medians = []
        for w in range(2, 9):
            samples = evaluate_interpolation_error(detections, w=w, samples=100, seed=7)
            medians.append(float(np.median([s.err_seconds for s in samples])))
        assert all(b >= a for a, b in zip(medians, medians[1:])), medians
        # absolute error magnitudes are dataset-specific and not asserted


# ── 4. tag report equals an independent tally ───────────────────────────


def _trip_marks(itinerary, start, deleted=(), injected=0, drop_first=False, drop_last=False):
    """Build one trip's (position, time_s, distance_m) marks, sorted by time."""
    n = len(itinerary)
    marks = []
    for position in range(1, n + 1):
        if position in deleted:
            continue
        if drop_first and position == 1:
            continue
        if drop_last and position == n:
            continue
        marks.append((position, start + 60 * position, 5.0))
    for j in range(injected):
        # duplicate an early stop late in the trip: always out of order;
        # each stray sits alone, like a real region-of-uncertainty hit
        dup = 1 + j
        marks.append((dup + 1, start + 60 * (n - 2 - 2 * j) + 10, 80.0))
    marks.sort(key=lambda m: m[1])
    return marks


def test_criterion_04_tag_report_matches_independent_tally():
    with criterion(4, "tag report equals independent tally"):
        lines = {
            "L1": (LineCategory.ALIMENTADOR, 12),
            "L2": (LineCategory.EXPRESSO, 10),
            "L3": (LineCategory.TRONCAL, 8),
        }
        # plan: (line, vehicle, trip slot, deleted positions, injected, drop_first, drop_last)
        plan = [
            ("L1", "V1", 0, {3, 4}, 0, False, False),
            ("L1", "V1", 1, set(), 1, False, False),
            ("L1", "V1", 2, set(), 0, False, False),
            ("L1", "V2", 0, {5}, 0, False, False),
            ("L1", "V2", 1, set(), 0, False, False),
            ("L1", "V2", 2, set(), 0, False, True),
            ("L2", "V3", 0, set(), 2, False, False),
            ("L2", "V3", 1, set(), 0, False, False),
            ("L2", "V4", 0, {2, 3, 4}, 0, False, False),
            ("L3", "V5", 0, set(), 0, True, False),
            ("L3", "V5", 1, set(), 0, False, False),
        ]
        itineraries = {
            code: ItineraryDef(
                line_code=code,
                direction="A",
                stops=tuple((i + 1, f"{code}-{i:02d}") for i in range(n)),
            )
            for code, (_cat, n) in lines.items()
        }

        # independent tally, from the construction plan alone
        tally = {
            cat.value: dict(total=0, valid=0, ooo=0, missing=0, rej_seg=0, rej_marks=0,
                            disc_seg=0, disc_marks=0)
            for cat, _ in lines.values()
        }
        streams: dict[tuple[str, str], list] = {}
        for line, vehicle, slot, deleted, injected, drop_first, drop_last in plan:
            cat = lines[line][0].value
            marks = _trip_marks(itineraries[line], 21600 + slot * 1200,
                                deleted, injected, drop_first, drop_last)
            streams.setdefault((line, vehicle), []).extend(marks)
            tally[cat]["total"] += len(marks)
            if drop_first or drop_last:
                tally[cat]["rej_seg"] += 1
                tally[cat]["rej_marks"] += len(marks)
            else:
                tally[cat]["valid"] += len(marks)
                tally[cat]["ooo"] += injected
                tally[cat]["missing"] += len(deleted)

        # one stray mark after two idle hours: a discarded segment
        stray = (4, 21600 + 3 * 1200 + 7200, 5.0)  # at stop L1-03
        streams[("L1", "V2")].append(stray)
        tally["ALIMENTADOR"]["total"] += 1
        tally["ALIMENTADOR"]["disc_seg"] += 1
        tally["ALIMENTADOR"]["disc_marks"] += 1

        outcomes = [
            detect_group(
                Marks(*zip(*sorted(rows, key=lambda m: m[1]))), itineraries[line],
                vehicle_id=vehicle, day=date(2022, 11, 7),
            )
            for (line, vehicle), rows in sorted(streams.items())
        ]
        report = tag_report(outcomes, {code: cat for code, (cat, _n) in lines.items()})

        for cat_value, expected in tally.items():
            row = report.rows[cat_value]
            assert row.total_marks == expected["total"]
            assert row.valid_tags == expected["valid"]
            assert row.out_of_order == expected["ooo"]
            assert row.missing == expected["missing"]
            assert row.rejected_segments == expected["rej_seg"]
            assert row.rejected_marks == expected["rej_marks"]
            assert row.discarded_segments == expected["disc_seg"]
            assert row.discarded_marks == expected["disc_marks"]
            assert row.valid_pct == 100.0 * expected["valid"] / expected["total"]
        assert report.total.total_marks == sum(v["total"] for v in tally.values())
        # the published full-database percentages are context only, not asserted


# ── 5. moving-window oracle ─────────────────────────────────────────────


def test_criterion_05_moving_window_equals_brute_force():
    with criterion(5, "moving window equals brute force"):
        started = time.perf_counter()
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(0, 80))
            times = sorted(rng.uniform(250 * 60, 1400 * 60, size=n))
            w = int(rng.integers(1, 46))
            got = moving_window_counts(times, w)
            assert np.array_equal(got, _brute_force_counts(times, w))
        assert time.perf_counter() - started < 5.0


# ── 6. correlation correctness ──────────────────────────────────────────


def test_criterion_06_pearson_and_matrix_contracts():
    with criterion(6, "pearson correctness and matrix contracts"):
        x = [2.0, 4.0, 5.0, 4.0, 7.0, 9.0]
        y = [1.0, 3.0, 4.0, 4.0, 6.0, 9.0]
        n = len(x)
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx = sum(a * a for a in x)
        syy = sum(b * b for b in y)
        closed_form = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        assert pearson(x, y) == pytest.approx(closed_form, abs=1e-12)

        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 6, size=1071), rng.integers(0, 6, size=1071)
        flat = np.zeros(1071, dtype=int)
        matrix = correlation_matrix(np.stack([a, b, flat]), DEFAULT_SPAN_MINUTES, None)
        assert np.array_equal(np.diag(matrix), np.ones(3))
        assert np.allclose(matrix, matrix.T, equal_nan=True)
        assert np.isnan(matrix[0, 2]) and np.isnan(matrix[1, 2])
        assert pearson(flat, a) is None  # flagged, not 0


# ── 7. clustering oracle ────────────────────────────────────────────────


def test_criterion_07_clustering_matches_literal_stepthrough():
    with criterion(7, "clustering equals literal greedy step-through"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            stops = {
                f"S{i}": make_stop(f"S{i}", float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)))
                for i in range(n)
            }
            chosen = [s for s in stops if rng.random() < 0.5] or [next(iter(stops))]
            averages = {s: float(rng.integers(0, 12)) for s in chosen}
            candidates = build_candidates(chosen, averages)
            got = cluster_stops(candidates, stops)
            assert [(c.centroid_stop_id, c.members) for c in got] == _literal_greedy(
                candidates, stops, 600.0
            )
            for c in got:
                for member in c.members:
                    assert haversine_distance(stops[c.centroid_stop_id], stops[member]) <= 600.0
            remaining = {c.stop_id for c in candidates}
            for c in got:
                consumed = c.members & remaining
                assert c.centroid_stop_id in consumed
                remaining -= consumed
            assert not remaining
        # the published network-wide cluster counts need the full dataset
        # and are not asserted


# ── 8. Yen correctness ──────────────────────────────────────────────────


def test_criterion_08_yen_equals_exhaustive_enumeration():
    with criterion(8, "Yen equals exhaustive enumeration"):
        started = time.perf_counter()
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 11))
            edges = [
                (str(i), str(j), float(rng.uniform(0.25, 10.0)))
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.35
            ]
            adjacency = _adj(edges)
            source, target = ("n", "0"), ("n", str(n - 1))
            adjacency.setdefault(source, [])
            adjacency.setdefault(target, [])
            expected = _enumerate_simple_paths(adjacency, source, target)[:30]
            got = yen_k_shortest(adjacency, source, target, 30)
            assert got == expected
            first = yen_k_shortest(adjacency, source, target, 1)
            assert first == expected[:1]
        assert time.perf_counter() - started < 10.0


# ── 9. superset dominance over the OD suite ─────────────────────────────


def test_criterion_09_clustered_distance_never_exceeds_base():
    with criterion(9, "clustered min distance <= base for 1000 pairs"):
        stops, itineraries, bridges = two_corridor_network()
        g_base = build_graph(itineraries, stops)
        clusters = cluster_stops(
            [Candidate(b, 3.0 - i) for i, b in enumerate(bridges)], stops
        )
        g_clustered = add_cluster_transfers(g_base, clusters)

        pairs = two_corridor_od_pairs(600, seed=21) + generate_od_pairs(stops, 400, seed=22)
        assert len(pairs) == 1000
        violations = 0
        for pair in pairs:
            base = evaluate_trip(g_base, pair, k=1)
            clustered = evaluate_trip(g_clustered, pair, k=1)
            if base.feasible:
                assert clustered.feasible  # superset cannot lose feasibility
                if clustered.distance_m > base.distance_m:
                    violations += 1
        assert violations == 0


# ── 10. directional integration benefit ─────────────────────────────────


def test_criterion_10_clusters_cut_distance_and_add_transfers():
    with criterion(10, "clusters cut distance >=30% with more transfers"):
        stops, itineraries, bridges = two_corridor_network()
        g_base = build_graph(itineraries, stops)
        clusters = cluster_stops(
            [Candidate(b, 3.0 - i) for i, b in enumerate(bridges)], stops
        )
        g_clustered = add_cluster_transfers(g_base, clusters)
        pairs = two_corridor_od_pairs(40, seed=13)
        evaluation = evaluate_od(pairs, g_base, g_clustered, k=30)
        base = evaluation.summaries["base"]
        clustered = evaluation.summaries["clustered"]
        assert base.feasible == clustered.feasible == 40
        reduction = 1.0 - clustered.mean_distance_m / base.mean_distance_m
        assert reduction >= 0.30
        assert clustered.mean_transfers > base.mean_transfers
        # the published city-scale magnitudes are not claimed, only the pattern


# ── 11. throughput guard (soft) ─────────────────────────────────────────


def test_criterion_11_bulk_throughput_soft_target():
    with criterion(11, "1M fixes matched and detected (soft 30s target)"):
        dataset = straight_line_dataset(n_stops=60, n_trips=5620, jitter=0.0, trip_headway_s=3)
        total = sum(len(v) for v in dataset.fixes.values())
        assert total >= 1_000_000

        itinerary = dataset.itineraries[0]
        started = time.perf_counter()
        detected = 0
        for key in sorted(dataset.fixes):
            marks = match_fixes(dataset.fixes[key], [itinerary], dataset.stops)[0]
            segmentation = segment_trips(marks, itinerary)
            for segment in segmentation.segments:
                detected += detect(itinerary, segment).accepted
        elapsed = time.perf_counter() - started

        assert detected == 5620
        print(f"  throughput: {total} fixes in {elapsed:.1f}s ({total / elapsed / 1e6:.2f}M fixes/s)")
        if elapsed >= 30.0:
            warnings.warn(
                f"bulk matching+detection took {elapsed:.1f}s for {total} fixes "
                "(soft 30s target exceeded)",
                stacklevel=1,
            )
