from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace.detection import (
    GroupOutcome,
    Provenance,
    detect,
    evaluate_interpolation_error,
    format_time_of_day,
    interpolate_gap,
    parse_time_of_day,
    round_to_second,
    segment_trips,
    tag_report,
)
from bustrace.matching import Marks, match_fixes
from bustrace.model import ItineraryDef, LineCategory
from bustrace.synthetic import straight_line_dataset

import stopmark_reference as ref
from conftest import (
    CASE_RESULT,
    CASE_TRUE_TIMES,
    dropped_marks,
    mark_list,
    marks_at,
    run_detection_simple,
    trip_entries,
)


def _iti(stop_ids, circular=False):
    return ItineraryDef(
        line_code="L1",
        direction="A",
        stops=tuple((i + 1, s) for i, s in enumerate(stop_ids)),
        circular=circular,
    )


# ── interpolate_gap ─────────────────────────────────────────────────────


def test_interpolation_single_missing_stop_first_case():
    got = interpolate_gap(parse_time_of_day("06:14:36"), parse_time_of_day("06:16:43"), 2)
    assert got == [22539.5]
    assert format_time_of_day(got[0]) == "06:15:39"


def test_interpolation_single_missing_stop_second_case():
    got = interpolate_gap(parse_time_of_day("06:16:43"), parse_time_of_day("06:19:30"), 2)
    assert got == [22686.5]
    assert format_time_of_day(got[0]) == "06:18:07"


def test_interpolation_single_missing_stop_third_case():
    got = interpolate_gap(parse_time_of_day("06:21:06"), parse_time_of_day("06:28:30"), 2)
    assert got == [23088.0]
    assert format_time_of_day(got[0]) == "06:24:48"


def test_interpolation_uniform_split():
    assert interpolate_gap(0, 100, 4) == [25.0, 50.0, 75.0]


def test_interpolation_rejects_nonpositive_delta():
    with pytest.raises(ValueError, match="anchors out of order"):
        interpolate_gap(100, 100, 2)
    with pytest.raises(ValueError, match="anchors out of order"):
        interpolate_gap(100, 50, 2)


def test_interpolation_rejects_width_below_two():
    with pytest.raises(ValueError, match="at least 2"):
        interpolate_gap(0, 100, 1)


@given(
    t0=st.floats(min_value=0, max_value=80_000, allow_nan=False),
    delta=st.floats(min_value=1e-3, max_value=5_000, allow_nan=False),
    w=st.integers(min_value=2, max_value=10),
    shift=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
)
@settings(max_examples=100)
def test_interpolation_translation_invariance(t0, delta, w, shift):
    base = interpolate_gap(t0, t0 + delta, w)
    moved = interpolate_gap(t0 + shift, t0 + delta + shift, w)
    for a, b in zip(base, moved):
        assert b - shift == pytest.approx(a, abs=1e-6)


@given(
    t0=st.floats(min_value=0, max_value=80_000, allow_nan=False),
    delta=st.floats(min_value=1e-3, max_value=5_000, allow_nan=False),
    w=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=100)
def test_interpolation_strictly_inside_and_increasing(t0, delta, w):
    got = interpolate_gap(t0, t0 + delta, w)
    assert len(got) == w - 1
    assert all(t0 < v < t0 + delta for v in got)
    assert all(b > a for a, b in zip(got, got[1:]))


# ── time rendering ──────────────────────────────────────────────────────


def test_rendering_rounds_fractions():
    assert round_to_second(22539.4) == 22539
    assert round_to_second(22539.6) == 22540
    # exact half-second ties resolve to the odd second
    assert round_to_second(22539.5) == 22539
    assert round_to_second(22686.5) == 22687
    values = np.array([22539.4, 22539.6, 22539.5, 22686.5])
    assert round_to_second(values).tolist() == [22539, 22540, 22539, 22687]


def test_format_parse_invert_on_whole_seconds():
    for text in ("00:00:00", "06:04:51", "23:59:59"):
        assert format_time_of_day(parse_time_of_day(text)) == text


# ── detect ──────────────────────────────────────────────────────────────


def test_case_study_reconstruction(case_dataset):
    iti = case_dataset.itineraries[0]
    fixes = next(iter(case_dataset.fixes.values()))
    marks = match_fixes(fixes, iti, case_dataset.stops)
    segmentation = segment_trips(marks, iti)
    assert len(segmentation.segments) == 1
    assert not segmentation.discarded

    segment = segmentation.segments[0]
    result = detect(iti, segment, day=date(2022, 11, 7))
    assert result.accepted
    entries = trip_entries(result.itinerary)
    got = [(pos, stop, format_time_of_day(t), prov.value) for pos, stop, t, prov in entries]
    assert got == CASE_RESULT

    # the out-of-sequence mark is the only one removed
    assert [(s, format_time_of_day(t)) for s, t in dropped_marks(iti, segment, result)] == [
        ("829010", "06:14:08")
    ]

    times = [t for _, _, t, _ in entries]
    assert all(b > a for a, b in zip(times, times[1:]))
    mark_times = set(marks.time_s.tolist())
    observed = [t for _, _, t, prov in entries if prov is Provenance.OBSERVED]
    assert all(t in mark_times for t in observed)


def test_detect_complete_marks_no_interpolation():
    iti = _iti(["A", "B", "C"])
    segment = marks_at(iti, ("A", 10), ("B", 20), ("C", 30))
    result = detect(iti, segment)
    assert result.accepted
    assert result.itinerary.is_fully_observed()
    assert result.itinerary.time_s.tolist() == [10.0, 20.0, 30.0]
    assert result.dropped == ()


def test_detect_interior_marks_only_rejected():
    iti = _iti([f"S{i}" for i in range(1, 12)])
    segment = marks_at(iti, *((f"S{i}", i * 60) for i in range(2, 10)))
    result = detect(iti, segment)
    assert not result.accepted
    assert result.rejection == "no mark for first stop"


def test_detect_missing_last_anchor_rejected():
    iti = _iti(["A", "B", "C"])
    result = detect(iti, marks_at(iti, ("A", 10), ("B", 20)))
    assert not result.accepted
    assert result.rejection == "no mark for last stop"


def test_detect_monotone_rule_drops_backward_marks():
    iti = _iti(["A", "B", "C"])
    # the stray C mark arrives before B's time and must not serve position 3
    segment = marks_at(iti, ("A", 10), ("C", 15), ("B", 20), ("C", 30))
    result = detect(iti, segment)
    assert result.accepted
    assert result.itinerary.time_s.tolist() == [10.0, 20.0, 30.0]
    assert dropped_marks(iti, segment, result) == [("C", 15)]


def test_detect_circular_terminal_serves_first_and_last_position():
    iti = _iti(["T", "B", "T"], circular=True)
    segment = marks_at(iti, ("T", 10), ("B", 20), ("T", 30))
    result = detect(iti, segment)
    assert result.accepted
    assert [e[0] for e in trip_entries(result.itinerary)] == [1, 2, 3]
    assert result.itinerary.time_s.tolist() == [10.0, 20.0, 30.0]


# ── segment_trips ───────────────────────────────────────────────────────


def test_segment_single_pass(case_dataset):
    iti = case_dataset.itineraries[0]
    fixes = next(iter(case_dataset.fixes.values()))
    marks = match_fixes(fixes, iti, case_dataset.stops)
    segmentation = segment_trips(marks, iti)
    assert len(segmentation.segments) == 1
    assert len(segmentation.segments[0]) == len(marks)


def test_segment_two_passes_split_on_wrap():
    iti = _iti(["A", "B", "C", "D"])
    one_pass = [("A", 0), ("B", 60), ("C", 120), ("D", 180)]
    second = [(stop_id, t + 300) for stop_id, t in one_pass]
    segmentation = segment_trips(marks_at(iti, *one_pass, *second), iti)
    assert len(segmentation.segments) == 2
    assert segmentation.segments[1].time_s.tolist() == [300, 360, 420, 480]


def test_segment_circular_boundary_mark_shared():
    iti = _iti(["T", "B", "C", "D", "E", "T"], circular=True)
    loop = ["T", "B", "C", "D", "E"]
    passes = [(s, 60 * i) for i, s in enumerate(loop)]
    passes += [(s, 300 + 60 * i) for i, s in enumerate(loop)]
    passes.append(("T", 600))
    segmentation = segment_trips(marks_at(iti, *passes), iti)
    assert len(segmentation.segments) == 2
    # the 300 s terminal passage closes the first loop and opens the second
    assert segmentation.segments[0].time_s.tolist() == [0, 60, 120, 180, 240, 300]
    assert segmentation.segments[1].time_s.tolist() == [300, 360, 420, 480, 540, 600]
    results = [detect(iti, s) for s in segmentation.segments]
    assert all(r.accepted for r in results)


def test_segment_stray_mark_after_idle_gap_discarded():
    iti = _iti(["A", "B", "C"])
    marks = marks_at(
        iti,
        ("A", 0),
        ("B", 60),
        ("C", 120),
        ("B", 120 + 7200),  # two hours of silence, then one stray mark
    )
    segmentation = segment_trips(marks, iti)
    assert len(segmentation.segments) == 1
    assert len(segmentation.discarded) == 1
    assert segmentation.discarded_marks == 1


def test_segment_isolated_jump_does_not_split():
    iti = _iti([f"S{i}" for i in range(1, 12)])
    marks = marks_at(
        iti,
        ("S1", 0),
        ("S10", 30),  # region-of-uncertainty style stray
        ("S2", 60),
        ("S3", 120),
        ("S11", 200),
    )
    segmentation = segment_trips(marks, iti)
    assert len(segmentation.segments) == 1


def test_segment_confirmed_jump_advances():
    iti = _iti([f"S{i}" for i in range(1, 12)])
    # genuine dropout: positions 3..8 unseen, then 9 and 10 confirm progress
    marks = marks_at(iti, ("S1", 0), ("S2", 60), ("S9", 600), ("S10", 660), ("S11", 720))
    segmentation = segment_trips(marks, iti)
    assert len(segmentation.segments) == 1
    result = detect(iti, segmentation.segments[0])
    assert result.accepted
    assert result.itinerary.interpolated_count == 6


def test_segment_unknown_stop_rejected():
    iti = _iti(["A", "B"])
    for position in (0, 3):
        with pytest.raises(ValueError, match="outside the itinerary"):
            segment_trips(Marks([1, position], [0, 60], [0.0, 0.0]), iti)


# ── detector invariants over random mark streams ────────────────────────


@st.composite
def _random_itinerary_and_marks(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    circular = draw(st.booleans())
    stop_ids = [f"S{i}" for i in range(n)]
    if circular:
        stop_ids[-1] = stop_ids[0]
    itinerary = ItineraryDef(
        line_code="L1",
        direction="A",
        stops=tuple((i + 1, s) for i, s in enumerate(stop_ids)),
        circular=circular,
    )
    n_marks = draw(st.integers(min_value=0, max_value=25))
    gaps = draw(st.lists(st.integers(0, 400), min_size=n_marks, max_size=n_marks))
    picks = draw(
        st.lists(st.integers(0, len(set(stop_ids)) - 1), min_size=n_marks, max_size=n_marks)
    )
    distinct = sorted(set(stop_ids))
    stop_times = []
    t = 0
    for gap, pick in zip(gaps, picks):
        t += gap
        stop_times.append((distinct[pick], t))
    return itinerary, marks_at(itinerary, *stop_times)


@given(_random_itinerary_and_marks())
@settings(max_examples=200)
def test_detect_invariants_on_random_segments(data):
    itinerary, marks = data
    result = detect(itinerary, marks)
    assert result == detect(itinerary, marks)  # deterministic
    assert len(result.dropped) <= len(marks)
    if result.accepted:
        entries = trip_entries(result.itinerary)
        assert [e[0] for e in entries] == list(range(1, len(itinerary) + 1))
        times = [e[2] for e in entries]
        assert all(b > a for a, b in zip(times, times[1:]))
        mark_times = set(marks.time_s.tolist())
        observed = [t for _, _, t, prov in entries if prov is Provenance.OBSERVED]
        assert all(t in mark_times for t in observed)
        # accepted and dropped marks partition the segment
        assert len(observed) + len(result.dropped) == len(marks)
    else:
        assert result.rejection in {
            "no mark for first stop",
            "no mark for last stop",
            "fewer than 2 observed marks",
        }


@given(_random_itinerary_and_marks())
@settings(max_examples=200)
def test_segmentation_conserves_marks(data):
    itinerary, marks = data
    segmentation = segment_trips(marks, itinerary)
    total = sum(len(s) for s in segmentation.segments) - sum(segmentation.borrowed)
    total += segmentation.discarded_marks
    assert total == len(marks)
    for segment, borrowed in zip(segmentation.segments, segmentation.borrowed):
        assert 0 <= borrowed <= 1
        times = segment.time_s.tolist()
        assert times == sorted(times)


# ── columnar code against the StopMark reference ────────────────────────


@st.composite
def _vehicle_days(draw):
    """An itinerary and the time-sorted marks of a vehicle serving it.

    Itineraries are circular or not and may serve a stop at several
    positions. The vehicle runs passes over the itinerary (back to back
    round a loop, so one terminal passage ends a loop and starts the next;
    forward or reversed on a line), losing some passages, waiting 0 s
    (equal times) up to an idle gap between them, plus stray marks at
    random stops and times.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    circular = draw(st.booleans())
    stop_ids = [f"S{i}" for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):  # a stop served twice
        stop_ids[draw(st.integers(2, n - 1))] = stop_ids[draw(st.integers(1, n - 2))]
    if circular:
        stop_ids[-1] = stop_ids[0]
    itinerary = _iti(stop_ids, circular=circular)

    positions = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if circular:
            positions += range(1, n)
        else:
            one_pass = list(range(1, n + 1))
            positions += one_pass[::-1] if draw(st.booleans()) else one_pass
    if circular:
        positions.append(n)
    gaps = st.sampled_from([0, 0, 30, 60, 60, 120, 300, 900, 1799, 1800, 1801, 4000])
    stop_times = []
    t = 0
    for position in positions:
        t += draw(gaps)
        if draw(st.integers(0, 9)) < 9:  # about one passage in ten is lost
            stop_times.append((stop_ids[position - 1], t))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        stray = draw(st.sampled_from(stop_ids))
        stop_times.append((stray, draw(st.integers(min_value=0, max_value=t + 60))))
    stop_times.sort(key=lambda m: m[1])  # stable: equal times keep their order
    return itinerary, stop_times


def _reference_marks(itinerary, stop_times):
    return [
        ref.StopMark(stop_id, itinerary.stop_ids.index(stop_id) + 1, t, 0.0, "V1")
        for stop_id, t in stop_times
    ]


def _reference_outcome(result):
    """What the reference's detection result says, in comparable terms."""
    trip = None
    if result.accepted:
        trip = [(e.time_s, e.provenance) for e in result.itinerary.entries]
    dropped = [(m.stop_id, m.time_s) for m in result.dropped_marks]
    return result.rejection, trip, dropped, result.segment_size, result.borrowed_marks


def _outcome_of(itinerary, segment, result):
    trip = None
    if result.accepted:
        trip = [(t, prov) for _, _, t, prov in trip_entries(result.itinerary)]
        assert result.itinerary.stop_ids == itinerary.stop_ids
    dropped = dropped_marks(itinerary, segment, result)
    return result.rejection, trip, dropped, result.segment_size, result.borrowed_marks


@given(_vehicle_days())
@settings(max_examples=300, deadline=None)
def test_columnar_detection_equals_stopmark_reference(case):
    itinerary, stop_times = case
    marks = marks_at(itinerary, *stop_times)
    expected = ref.segment_trips(_reference_marks(itinerary, stop_times), itinerary)
    got = segment_trips(marks, itinerary)

    assert got.borrowed == expected.borrowed
    assert [mark_list(itinerary, s) for s in got.segments] == [
        [(m.stop_id, m.time_s) for m in s] for s in expected.segments
    ]
    assert [mark_list(itinerary, s) for s in got.discarded] == [
        [(m.stop_id, m.time_s) for m in s] for s in expected.discarded
    ]
    assert got.discarded_marks == expected.discarded_marks

    pairs = list(zip(got.segments, got.borrowed, expected.segments))
    pairs.append((marks, 0, _reference_marks(itinerary, stop_times)))  # the unsegmented day
    for segment, borrowed, ref_segment in pairs:
        result = detect(itinerary, segment, borrowed_marks=borrowed, vehicle_id="V1")
        ref_result = ref.detect(itinerary, ref_segment, borrowed_marks=borrowed)
        assert _outcome_of(itinerary, segment, result) == _reference_outcome(ref_result)
        if result.accepted:
            assert result.itinerary.vehicle_id == ref_result.itinerary.vehicle_id


# ── evaluate_interpolation_error ────────────────────────────────────────


def test_case_study_errors_match_oracle_run(case_dataset, case_dataset_full):
    """Deleting the outage stops reproduces |true - estimated| against the
    engine's own fully observed run."""
    degraded = run_detection_simple(case_dataset)[0]
    oracle = run_detection_simple(case_dataset_full)[0]
    assert oracle.is_fully_observed()

    true_by_position = {pos: t for pos, _, t, _ in trip_entries(oracle)}
    for position, expected_text in CASE_TRUE_TIMES.items():
        assert format_time_of_day(true_by_position[position]) == expected_text

    errors = {
        pos: abs(true_by_position[pos] - t)
        for pos, _, t, prov in trip_entries(degraded)
        if prov is Provenance.INTERPOLATED
    }
    assert errors == {3: 0.5, 5: 6.5, 8: 117.0}


def _detections(jitter, seed=0, n_trips=6, n_stops=20):
    dataset = straight_line_dataset(n_stops=n_stops, n_trips=n_trips, jitter=jitter, seed=seed)
    return run_detection_simple(dataset)


def test_error_protocol_zero_on_uniform_motion():
    detections = _detections(jitter=0.0)
    samples = evaluate_interpolation_error(detections, w=3, samples=50, seed=1)
    assert len(samples) == 100  # w - 1 errors per sample
    assert all(s.err_seconds == 0.0 for s in samples)


def test_error_protocol_deterministic_under_seed():
    detections = _detections(jitter=0.3, seed=5)
    a = evaluate_interpolation_error(detections, w=4, samples=30, seed=9)
    b = evaluate_interpolation_error(detections, w=4, samples=30, seed=9)
    assert a == b


def test_error_protocol_shortfall_reported():
    detections = _detections(jitter=0.0, n_trips=1, n_stops=10)
    with pytest.raises(ValueError, match="only 7 eligible"):
        evaluate_interpolation_error(detections, w=3, samples=100)


def test_error_protocol_rejects_interpolated_input(case_dataset):
    degraded = run_detection_simple(case_dataset)
    with pytest.raises(ValueError, match="interpolated"):
        evaluate_interpolation_error(degraded, w=2, samples=1)


# ── tag_report ──────────────────────────────────────────────────────────

CATEGORIES = {"L1": LineCategory.ALIMENTADOR, "L2": LineCategory.EXPRESSO}


def _outcome(line, stop_times, iti, **kwargs):
    marks = marks_at(iti, *stop_times)
    segmentation = segment_trips(marks, iti)
    results = [
        detect(iti, s, borrowed_marks=b)
        for s, b in zip(segmentation.segments, segmentation.borrowed)
    ]
    return GroupOutcome(
        line_code=line,
        direction="A",
        vehicle_id="V1",
        day=date(2022, 11, 7),
        total_marks=len(marks),
        results=results,
        discarded_segments=len(segmentation.discarded),
        discarded_marks=segmentation.discarded_marks,
        **kwargs,
    )


def test_tag_report_all_clean():
    iti = _iti(["A", "B", "C"])
    marks = [("A", 0), ("B", 60), ("C", 120)]
    report = tag_report([_outcome("L1", marks, iti)], CATEGORIES)
    row = report.rows["ALIMENTADOR"]
    assert row.valid_pct == 100.0
    assert row.out_of_order == 0
    assert row.missing == 0
    assert report.total.valid_tags == 3


def test_tag_report_counts_injected_spurious_mark():
    iti = _iti(["A", "B", "C"])
    marks = [("A", 0), ("C", 30), ("B", 60), ("C", 120)]
    report = tag_report([_outcome("L1", marks, iti)], CATEGORIES)
    row = report.rows["ALIMENTADOR"]
    assert row.out_of_order == 1
    assert row.valid_tags == 4  # the dropped mark still belongs to a valid trip
    assert row.valid_pct == 100.0


def test_tag_report_counts_missing_stops():
    iti = _iti(["A", "B", "C", "D"])
    marks = [("A", 0), ("C", 60), ("D", 120)]
    report = tag_report([_outcome("L1", marks, iti)], CATEGORIES)
    row = report.rows["ALIMENTADOR"]
    assert row.missing == 1
    assert row.valid_tags == 3


def test_tag_report_chained_circular_passes_stay_at_100_pct():
    # the shared terminal passage closes one loop and opens the next; it
    # must be tallied once, or valid_pct would exceed 100
    iti = _iti(["T", "B", "C", "D", "E", "T"], circular=True)
    loop = ["T", "B", "C", "D", "E"]
    marks = [(s, 60 * i) for i, s in enumerate(loop)]
    marks += [(s, 300 + 60 * i) for i, s in enumerate(loop)]
    marks.append(("T", 600))
    report = tag_report([_outcome("L1", marks, iti)], CATEGORIES)
    row = report.rows["ALIMENTADOR"]
    assert row.total_marks == 11
    assert row.valid_tags == 11
    assert row.valid_pct == 100.0


def test_tag_report_rejected_marks_stay_in_denominator():
    iti = _iti(["A", "B", "C"])
    good = [("A", 0), ("B", 60), ("C", 120)]
    bad = [("A", 7200), ("B", 7260)]  # no final anchor
    report = tag_report(
        [_outcome("L1", good, iti), _outcome("L2", bad, iti)], CATEGORIES
    )
    assert report.rows["EXPRESSO"].valid_tags == 0
    assert report.rows["EXPRESSO"].rejected_segments == 1
    assert report.rows["EXPRESSO"].rejected_marks == 2
    assert report.total.total_marks == 5
    assert report.total.valid_pct == pytest.approx(100.0 * 3 / 5)
