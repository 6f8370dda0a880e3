import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace.detection import format_time_of_day
from bustrace.geo import GeoPoint, haversine_distance, haversine_matrix, offset_point
from bustrace.matching import match_fixes
from bustrace.model import BusStop, FixTrack, ItineraryDef, StopType

from conftest import CASE_MARKS
from stopmark_reference import StopMark


def _stop(stop_id, lat, lon):
    return BusStop(stop_id=stop_id, name=stop_id, stop_type=StopType.STREET_STOP, lat=lat, lon=lon)


def _rows(itinerary, marks):
    """(stop_id, position, time_s, distance_m) of each mark, in order."""
    return [
        (itinerary.stop_ids[position - 1], position, time_s, distance_m)
        for position, time_s, distance_m in zip(
            marks.position.tolist(), marks.time_s.tolist(), marks.distance_m.tolist()
        )
    ]


def _track(*fixes, vehicle="V1"):
    """A track of (lat, lon, time_s) fixes."""
    return FixTrack(
        vehicle,
        [lat for lat, _, _ in fixes],
        [lon for _, lon, _ in fixes],
        [t for _, _, t in fixes],
    )


# ── haversine ───────────────────────────────────────────────────────────


def test_haversine_identity():
    p = GeoPoint(-25.4, -49.3)
    assert haversine_distance(p, p) == 0.0


def test_haversine_one_degree_of_equator():
    # Closed-form arc length for one degree along the equator.
    expected = 6_371_000 * math.pi / 180
    got = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert got == pytest.approx(expected, abs=1e-3)


def test_haversine_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = GeoPoint(float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
        b = GeoPoint(float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
        assert haversine_distance(a, b) == haversine_distance(b, a)


# ── match_fixes ─────────────────────────────────────────────────────────


def _line(stops):
    return ItineraryDef(
        line_code="L1",
        direction="A",
        stops=tuple((i + 1, s.stop_id) for i, s in enumerate(stops)),
    )


def test_fix_exactly_at_stop():
    origin = GeoPoint(-25.4, -49.3)
    away = offset_point(origin, 1000, 0)
    stops = [_stop("A", origin.lat, origin.lon), _stop("B", away.lat, away.lon)]
    iti = _line(stops)
    lookup = {s.stop_id: s for s in stops}
    marks = match_fixes(_track((origin.lat, origin.lon, 100)), iti, lookup)
    assert len(marks) == 1
    stop_id, _, time_s, distance_m = _rows(iti, marks)[0]
    assert stop_id == "A"
    assert distance_m == 0.0
    assert time_s == 100


def test_empty_fixes_empty_marks():
    origin = GeoPoint(-25.4, -49.3)
    stops = [_stop("A", origin.lat, origin.lon), _stop("B", origin.lat, origin.lon + 0.01)]
    assert len(match_fixes(_track(), _line(stops), {s.stop_id: s for s in stops})) == 0


def test_unresolvable_stop_raises():
    origin = GeoPoint(-25.4, -49.3)
    stops = [_stop("A", origin.lat, origin.lon), _stop("B", origin.lat, origin.lon + 0.01)]
    with pytest.raises(ValueError, match="not resolvable"):
        match_fixes(_track((origin.lat, origin.lon, 0)), _line(stops), {"A": stops[0]})


def test_unsorted_fixes_rejected():
    origin = GeoPoint(-25.4, -49.3)
    stops = [_stop("A", origin.lat, origin.lon), _stop("B", origin.lat, origin.lon + 0.01)]
    fixes = _track((origin.lat, origin.lon, 100), (origin.lat, origin.lon, 50))
    with pytest.raises(ValueError, match="sorted"):
        match_fixes(fixes, _line(stops), {s.stop_id: s for s in stops})


def test_nearest_label_matches_bruteforce_scan():
    rng = np.random.default_rng(7)
    origin = GeoPoint(-25.4, -49.3)
    stops = []
    for i in range(10):
        p = offset_point(origin, float(rng.uniform(0, 5000)), float(rng.uniform(0, 5000)))
        stops.append(_stop(f"S{i}", p.lat, p.lon))
    iti = _line(stops)
    lookup = {s.stop_id: s for s in stops}

    for t in range(100):
        p = offset_point(origin, float(rng.uniform(-500, 5500)), float(rng.uniform(-500, 5500)))
        # Exhaustive oracle: scan stops in itinerary order, first minimum wins.
        best_stop, best_d = None, float("inf")
        for s in stops:
            d = haversine_distance(p, s)
            if d < best_d:
                best_stop, best_d = s.stop_id, d
        marks = match_fixes(_track((p.lat, p.lon, t)), iti, lookup, acceptance_radius_m=float("inf"))
        assert len(marks) == 1
        stop_id, _, _, distance_m = _rows(iti, marks)[0]
        assert stop_id == best_stop
        assert distance_m == pytest.approx(best_d)


def test_run_collapse_takes_earliest_minimum():
    origin = GeoPoint(-25.4, -49.3)
    stop_a = _stop("A", origin.lat, origin.lon)
    far = offset_point(origin, 5000, 0)
    stop_b = _stop("B", far.lat, far.lon)
    iti = _line([stop_a, stop_b])
    lookup = {"A": stop_a, "B": stop_b}
    offsets = [50.0, 10.0, 10.0, 40.0]  # two fixes tie at the run minimum
    fixes = []
    for t, north in enumerate(offsets):
        p = offset_point(origin, 0, north)
        fixes.append((p.lat, p.lon, t * 20))
    marks = match_fixes(_track(*fixes), iti, lookup)
    assert len(marks) == 1
    assert marks.time_s[0] == 20  # earliest fix at the minimum distance
    assert marks.distance_m[0] == pytest.approx(10.0, abs=1e-6)


def test_runs_beyond_acceptance_radius_yield_no_mark():
    origin = GeoPoint(-25.4, -49.3)
    stop_a = _stop("A", origin.lat, origin.lon)
    far = offset_point(origin, 5000, 0)
    stop_b = _stop("B", far.lat, far.lon)
    iti = _line([stop_a, stop_b])
    p = offset_point(origin, 0, 150)
    marks = match_fixes(_track((p.lat, p.lon, 0)), iti, {"A": stop_a, "B": stop_b})
    assert len(marks) == 0


def test_case_study_marks(case_dataset):
    iti = case_dataset.itineraries[0]
    (key, fixes), = case_dataset.fixes.items()
    marks = match_fixes(fixes, iti, case_dataset.stops)
    got = [(stop_id, format_time_of_day(t), pos) for stop_id, pos, t, _ in _rows(iti, marks)]
    assert got == CASE_MARKS
    assert all(d <= 100.0 for d in marks.distance_m.tolist())
    # the region-of-uncertainty mark is a near miss, not a stop visit
    assert marks.distance_m[1] == pytest.approx(90.0, abs=0.5)
    assert key[0] == fixes.vehicle_id == "BA020"  # the vehicle is the group's key


def test_case_study_full_trajectory_marks(case_dataset_full):
    iti = case_dataset_full.itineraries[0]
    fixes = next(iter(case_dataset_full.fixes.values()))
    marks = match_fixes(fixes, iti, case_dataset_full.stops)
    got = [(stop_id, format_time_of_day(t)) for stop_id, _, t, _ in _rows(iti, marks)]
    assert got == [
        ("829001", "06:04:51"),
        ("829010", "06:14:08"),
        ("829002", "06:14:36"),
        ("829003", "06:15:40"),
        ("829004", "06:16:43"),
        ("829005", "06:18:00"),
        ("829006", "06:19:30"),
        ("829007", "06:21:06"),
        ("829008", "06:26:45"),
        ("829009", "06:28:30"),
        ("829010", "06:29:06"),
        ("829001", "06:31:41"),
    ]


def _reference_match(track, itinerary, stops, acceptance_radius_m=100.0):
    """The per-run loop match_fixes ran before its runs were reduced in bulk.

    Returns each mark with the index of the fix it was stamped at.
    """
    if not len(track):
        return []
    first_position = {}
    for position, stop_id in enumerate(itinerary.stop_ids, start=1):
        first_position.setdefault(stop_id, position)
    stop_order = list(first_position)
    stop_lats = np.array([stops[s].lat for s in stop_order])
    stop_lons = np.array([stops[s].lon for s in stop_order])
    n = len(track)
    dists = haversine_matrix(track.lat, track.lon, stop_lats, stop_lons)
    labels = np.argmin(dists, axis=1)
    nearest_m = dists[np.arange(n), labels]

    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(labels) != 0) + 1))
    run_ends = np.concatenate((run_starts[1:], [n]))
    marks = []
    for run_start, run_end in zip(run_starts, run_ends):
        best = run_start + int(np.argmin(nearest_m[run_start:run_end]))
        if nearest_m[best] > acceptance_radius_m:
            continue
        stop_id = stop_order[labels[run_start]]
        marks.append(
            (
                StopMark(
                    stop_id=stop_id,
                    seq_hint=first_position[stop_id],
                    time_s=int(track.time_s[best]),
                    distance_m=float(nearest_m[best]),
                    vehicle_id=track.vehicle_id,
                ),
                best,
            )
        )
    return marks


# Grid cells of 0.0005 degrees about the equator: points mirrored in
# longitude lie exactly as far from a stop on lon 0, and fixes repeat
# points, so runs and stops both hold exact distance ties.
_cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _tie_heavy_cases(draw):
    cells = draw(st.lists(_cell, min_size=2, max_size=6))
    stops = {f"S{i}": _stop(f"S{i}", la * 5e-4, lo * 5e-4) for i, (la, lo) in enumerate(cells)}
    order = draw(st.lists(st.sampled_from(sorted(stops)), min_size=2, max_size=8))
    iti = ItineraryDef(line_code="L1", direction="A", stops=tuple(enumerate(order, start=1)))
    fixes = draw(st.lists(_cell, max_size=60))
    times = sorted(draw(st.lists(st.integers(0, 600), min_size=len(fixes), max_size=len(fixes))))
    track = _track(*((la * 5e-4, lo * 5e-4, t) for (la, lo), t in zip(fixes, times)))
    radius = draw(st.sampled_from([0.0, 60.0, 100.0, 200.0, float("inf")]))
    return track, iti, stops, radius


@given(_tie_heavy_cases())
@settings(max_examples=300, deadline=None)
def test_marks_equal_per_run_reference(case):
    track, iti, stops, radius = case
    marks = match_fixes(track, iti, stops, radius)
    expected = _reference_match(track, iti, stops, radius)
    assert _rows(iti, marks) == [
        (m.stop_id, m.seq_hint, m.time_s, m.distance_m) for m, _ in expected
    ]
    # Marks come in time order, and equal times keep fix order: no sort is needed.
    times = marks.time_s.tolist()
    fix_indices = [best for _, best in expected]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert all(
        fa < fb
        for a, b, fa, fb in zip(times, times[1:], fix_indices, fix_indices[1:])
        if a == b
    )
