"""
Sliding-window service availability
===================================

For every stop, count the buses passing inside a 10-minute window shifted
one minute at a time across the service day. Aggregating the series by
stop category and averaging over the day surfaces the stops that behave
like informal hubs.
"""

import numpy as np

from bustrace.analytics import aggregate_by_category, build_availability, find_outlier_stops, merge_terminals
from bustrace.detection import passage_table
from bustrace.model import DEFAULT_SPAN_MINUTES, Dataset, LineCategory, StopType
from bustrace.pipeline import PipelineConfig, run_detection
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

outcomes = run_detection(dataset, PipelineConfig())
print(f"{sum(len(outcome.trips) for outcome in outcomes)} trips reconstructed across {len(dataset.lines)} lines")

passages = passage_table(outcomes)
keys, key_code, facts = merge_terminals(passages, dataset.stops)
categories = {key: fact.category for key, fact in facts.items()}
keys = keys.tolist()
# a row per key, a column per start minute
counts = build_availability(key_code, passages.time_s, len(keys), [10])[10]

print("\nmean buses per 10-minute window, by category (selected hours):")
means = aggregate_by_category(counts, [categories[key] for key in keys])
starts = DEFAULT_SPAN_MINUTES[0] + np.arange(counts.shape[1])
for category, mean in means.items():
    picks = [np.argmin(np.abs(starts - h * 60)) for h in (6, 9, 12, 17, 21)]
    summary = "  ".join(f"{starts[i] // 60:02d}h={mean[i]:4.2f}" for i in picks)
    print(f"  {category.value:12s} {summary}")

averages = dict(zip(keys, counts.mean(axis=1).tolist()))
top = sorted(averages, key=averages.get, reverse=True)[:3]
print("\nbusiest stops by daily average:")
for key in top:
    print(f"  {key}: {averages[key]:.2f} buses per window")

# With three disjoint lines no stop stands out enough to clear the boxplot
# fence; hubs only emerge where lines converge (next demo).
outliers = find_outlier_stops(averages, categories)
print(f"upper outliers (candidate hubs): {sorted(outliers) or 'none'}")
