from __future__ import annotations

import pytest

from bustrace.detection import Provenance, detect, segment_trips
from bustrace.matching import Marks, match_fixes
from bustrace.model import Dataset, ItineraryDef
from bustrace.synthetic import line829_dataset

# The nine passage marks of the degraded circular-line trip, in time order:
# (stop_id, time, smallest itinerary position). The second row is the
# out-of-sequence mark picked up where the outbound road passes stop 829010.
CASE_MARKS = [
    ("829001", "06:04:51", 1),
    ("829010", "06:14:08", 10),
    ("829002", "06:14:36", 2),
    ("829004", "06:16:43", 4),
    ("829006", "06:19:30", 6),
    ("829007", "06:21:06", 7),
    ("829009", "06:28:30", 9),
    ("829010", "06:29:06", 10),
    ("829001", "06:31:41", 1),
]

# The expected reconstruction: all eleven positions with rendered times.
CASE_RESULT = [
    (1, "829001", "06:04:51", "OBSERVED"),
    (2, "829002", "06:14:36", "OBSERVED"),
    (3, "829003", "06:15:39", "INTERPOLATED"),
    (4, "829004", "06:16:43", "OBSERVED"),
    (5, "829005", "06:18:07", "INTERPOLATED"),
    (6, "829006", "06:19:30", "OBSERVED"),
    (7, "829007", "06:21:06", "OBSERVED"),
    (8, "829008", "06:24:48", "INTERPOLATED"),
    (9, "829009", "06:28:30", "OBSERVED"),
    (10, "829010", "06:29:06", "OBSERVED"),
    (11, "829001", "06:31:41", "OBSERVED"),
]

# True passage times of the three stops hidden by the GPS outages.
CASE_TRUE_TIMES = {3: "06:15:40", 5: "06:18:00", 8: "06:26:45"}


@pytest.fixture(scope="session")
def case_dataset() -> Dataset:
    return line829_dataset(include_failures=True)


@pytest.fixture(scope="session")
def case_dataset_full() -> Dataset:
    return line829_dataset(include_failures=False)


def run_detection_simple(dataset: Dataset):
    """Match, segment, and detect every group; return accepted itineraries."""
    detections = []
    for key in sorted(dataset.fixes):
        vehicle, line_code, day = key
        for itinerary in sorted(dataset.itineraries_for(line_code), key=lambda i: i.direction):
            marks = match_fixes(dataset.fixes[key], itinerary, dataset.stops)
            segmentation = segment_trips(marks, itinerary)
            for segment in segmentation.segments:
                result = detect(itinerary, segment, day=day, vehicle_id=vehicle)
                if result.accepted:
                    detections.append(result.itinerary)
    return detections


def marks_at(itinerary: ItineraryDef, *stop_times: tuple[str, int]) -> Marks:
    """Marks at (stop_id, time_s) pairs, each at its stop's first itinerary position."""
    positions = [itinerary.stop_ids.index(stop_id) + 1 for stop_id, _ in stop_times]
    return Marks(positions, [t for _, t in stop_times], [0.0] * len(stop_times))


def mark_list(itinerary: ItineraryDef, marks: Marks) -> list[tuple[str, int]]:
    """(stop_id, time_s) of each mark, in order."""
    return [
        (itinerary.stop_ids[position - 1], time_s)
        for position, time_s in zip(marks.position.tolist(), marks.time_s.tolist())
    ]


def trip_entries(trip) -> list[tuple[int, str, float, Provenance]]:
    """(position, stop_id, time_s, provenance) for every position of a detected trip."""
    return [
        (position, stop_id, time_s, Provenance.OBSERVED if observed else Provenance.INTERPOLATED)
        for position, (stop_id, time_s, observed) in enumerate(
            zip(trip.stop_ids, trip.time_s.tolist(), trip.observed.tolist()), start=1
        )
    ]


def dropped_marks(itinerary: ItineraryDef, segment: Marks, result) -> list[tuple[str, int]]:
    """(stop_id, time_s) of each mark the detector dropped from ``segment``."""
    return mark_list(itinerary, segment[list(result.dropped)])
