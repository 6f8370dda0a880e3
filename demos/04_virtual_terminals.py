"""
Virtual terminals: clustering hub stops and checking synchronization
====================================================================

Two parallel lines run 240 m apart; a crossing shuttle serves one stop of
each, so that pair of stops sees far more buses than its neighbors. The
availability outliers seed the greedy clustering, and the resulting
cluster is checked for synchronization: do buses actually co-occur there
within a rider's waiting window?
"""

from datetime import date

from bustrace import (
    PassageTable,
    build_candidates,
    cluster_stats,
    cluster_stops,
    cluster_sync_profile,
    daily_average,
    detect,
    find_outlier_stops,
    match_fixes,
    segment_trips,
)
from bustrace.analytics import SYNC_WINDOW_SET, build_availability
from bustrace.geo import GeoPoint, offset_point
from bustrace.model import BusLine, BusStop, Dataset, FixTrack, ItineraryDef, LineCategory, StopType

ORIGIN = GeoPoint(-25.46, -49.28)
DAY = date(2022, 11, 7)


def street_stop(stop_id, east, north):
    p = offset_point(ORIGIN, east, north)
    return BusStop(stop_id, stop_id, StopType.STREET_STOP, p.lat, p.lon)


dataset = Dataset()
for i in range(8):
    dataset.stops[f"A-{i:02d}"] = street_stop(f"A-{i:02d}", i * 700.0, 0.0)
    dataset.stops[f"B-{i:02d}"] = street_stop(f"B-{i:02d}", i * 700.0, 240.0)
dataset.stops["C-00"] = street_stop("C-00", 2100.0, -900.0)
dataset.stops["C-01"] = street_stop("C-01", 2100.0, 1100.0)

routes = {
    "A": [f"A-{i:02d}" for i in range(8)],
    "B": [f"B-{i:02d}" for i in range(8)],
    "C": ["C-00", "A-03", "B-03", "C-01"],  # the shuttle crosses both lines
}
for code, stop_ids in routes.items():
    dataset.lines[code] = BusLine(code, f"line {code}", LineCategory.CONVENCIONAL)
    dataset.itineraries.append(
        ItineraryDef(code, "NORTH", tuple((i + 1, s) for i, s in enumerate(stop_ids)))
    )

# Touch-style GPS: one fix exactly at each stop, 60 s apart, one vehicle
# per trip. Peak hours run twice the off-peak frequency, and departures
# drift a couple of minutes around the timetable.
import numpy as np

rng = np.random.default_rng(0)
headways = {"A": 720, "B": 900, "C": 600}
peaks = ((6 * 3600, 9 * 3600), (17 * 3600, 20 * 3600))
for code, stop_ids in routes.items():
    trip = 0
    start = 6 * 3600
    while start < 21 * 3600:
        vehicle = f"{code}{trip:03d}"
        depart = start + int(rng.integers(-120, 121))
        stops = [dataset.stops[stop_id] for stop_id in stop_ids]
        dataset.fixes[(vehicle, code, DAY)] = FixTrack(
            vehicle,
            [stop.lat for stop in stops],
            [stop.lon for stop in stops],
            [depart + 60 * i for i in range(len(stops))],
        )
        in_peak = any(a <= start < b for a, b in peaks)
        start += headways[code] // 2 if in_peak else headways[code]
        trip += 1

detections = []
for (vehicle, line_code, day), track in sorted(dataset.fixes.items()):
    for itinerary in dataset.itineraries_for(line_code):
        marks = match_fixes(track, itinerary, dataset.stops)
        for segment in segment_trips(marks, itinerary).segments:
            result = detect(itinerary, segment, day=day, vehicle_id=vehicle)
            if result.accepted:
                detections.append(result.itinerary)
print(f"{len(detections)} trips reconstructed")

passages = PassageTable.from_itineraries(detections)
times = passages.times_by_stop()
series = build_availability(times, window_minutes=10)
averages = {key: daily_average(s) for key, s in series.items()}
categories = {key: StopType.STREET_STOP for key in averages}
outliers = find_outlier_stops(averages, categories)
print(f"availability outliers: {sorted(outliers)}")

candidates = build_candidates(outliers, averages)
clusters = cluster_stops(candidates, dataset.stops)
enriched, scatter = cluster_stats(clusters, passages)
for cluster in enriched:
    print(
        f"\ncluster {cluster.cluster_id}: members={cluster.member_list} "
        f"lines={sorted(cluster.lines_served)} avg_buses={cluster.avg_buses:.2f}"
    )

profile = cluster_sync_profile(enriched[0].member_list, times, windows=SYNC_WINDOW_SET)
print("\nmean pairwise correlation inside the cluster:")
print("window:  " + "  ".join(f"{w:>5d}" for w in SYNC_WINDOW_SET))
for period in ("morning", "midday", "evening"):
    cells = [profile[(period, w)] for w in SYNC_WINDOW_SET]
    rendered = "  ".join("  n/a" if c is None else f"{c:5.2f}" for c in cells)
    print(f"{period:>8s} {rendered}")
