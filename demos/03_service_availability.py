"""
Sliding-window service availability
===================================

For every stop, count the buses passing inside a 10-minute window shifted
one minute at a time across the service day. Aggregating the series by
stop category and averaging over the day surfaces the stops that behave
like informal hubs.
"""

import numpy as np

from bustrace import (
    PassageTable,
    aggregate_by_category,
    daily_average,
    detect,
    find_outlier_stops,
    match_fixes,
    merge_terminals,
    segment_trips,
)
from bustrace.analytics import build_availability
from bustrace.model import Dataset, LineCategory, StopType
from bustrace.synthetic import straight_line_dataset

# Three independent lines with different stop types and service levels.
parts = [
    straight_line_dataset(
        n_stops=12, n_trips=40, line_code="A10", trip_headway_s=1500,
        category=LineCategory.CONVENCIONAL, stop_type=StopType.STREET_STOP, seed=1,
    ),
    straight_line_dataset(
        n_stops=8, n_trips=25, line_code="B20", trip_headway_s=2400,
        category=LineCategory.EXPRESSO, stop_type=StopType.TUBE_STATION, seed=2,
    ),
    straight_line_dataset(
        n_stops=6, n_trips=60, line_code="C30", trip_headway_s=1000,
        category=LineCategory.ALIMENTADOR, stop_type=StopType.STREET_STOP, seed=3,
    ),
]
dataset = Dataset()
for part in parts:
    dataset.lines |= part.lines
    dataset.stops |= part.stops
    dataset.itineraries += part.itineraries
    dataset.fixes |= part.fixes

detections = []
for (vehicle, line_code, day), fixes in sorted(dataset.fixes.items()):
    for itinerary in dataset.itineraries_for(line_code):
        marks = match_fixes(fixes, itinerary, dataset.stops)
        for segment in segment_trips(marks, itinerary).segments:
            result = detect(itinerary, segment, day=day, vehicle_id=vehicle)
            if result.accepted:
                detections.append(result.itinerary)
print(f"{len(detections)} trips reconstructed across {len(dataset.lines)} lines")

passages = PassageTable.from_itineraries(detections)
merged, categories = merge_terminals(passages, dataset.stops)
series = build_availability(merged, window_minutes=10)

print("\nmean buses per 10-minute window, by category (selected hours):")
means = aggregate_by_category(series, categories)
starts = next(iter(series.values())).start_minutes
for category, mean in means.items():
    picks = [np.argmin(np.abs(starts - h * 60)) for h in (6, 9, 12, 17, 21)]
    summary = "  ".join(f"{starts[i] // 60:02d}h={mean[i]:4.2f}" for i in picks)
    print(f"  {category.value:12s} {summary}")

averages = {key: daily_average(s) for key, s in series.items()}
top = sorted(averages, key=averages.get, reverse=True)[:3]
print("\nbusiest stops by daily average:")
for key in top:
    print(f"  {key}: {averages[key]:.2f} buses per window")

# With three disjoint lines no stop stands out enough to clear the boxplot
# fence; hubs only emerge where lines converge (next demo).
outliers = find_outlier_stops(averages, categories)
print(f"upper outliers (candidate hubs): {sorted(outliers) or 'none'}")
