"""
Reconstructing a timed itinerary from a degraded GPS log
========================================================

A circular ten-stop feeder line, one vehicle, one round trip. The GPS log
has three outage windows (so three stops are never seen) and the road
between the terminal and the second stop passes 90 m from the tenth stop,
which plants an out-of-sequence mark. This walks the full chain: nearest
stop matching, trip segmentation, and detection with gap interpolation.
"""

from bustrace.detection import detect, format_time_of_day, segment_trips
from bustrace.matching import match_fixes
from bustrace.synthetic import line829_dataset

dataset = line829_dataset(include_failures=True)
itinerary = dataset.itineraries[0]
fixes = next(iter(dataset.fixes.values()))
print(f"line {itinerary.line_code}, {len(itinerary)} positions, {len(fixes)} GPS fixes\n")

# Step 1: label each fix with its nearest stop and collapse runs into
# passage marks, in time order. A mark names its stop by the stop's first
# itinerary position.
marks = match_fixes(fixes, [itinerary], dataset.stops)[0]


def stop_name(position):
    return dataset.stops[itinerary.stop_ids[position - 1]].name


print("passage marks from map matching:")
print(f"{'stop':44s} {'time':>8s} {'seq':>4s} {'dist':>7s}")
for position, time_s, distance_m in zip(
    marks.position.tolist(), marks.time_s.tolist(), marks.distance_m.tolist()
):
    print(f"{stop_name(position):44s} {format_time_of_day(time_s):>8s} {position:>4d} {distance_m:6.1f}m")

# The 06:14:08 mark is wrong: the bus was between stops 1 and 2, merely
# passing near stop 10. Detection has to remove it.

# Step 2: split the day into trips and walk the itinerary.
segmentation = segment_trips(marks, itinerary)
print(f"\nsegments: {len(segmentation.segments)}, discarded: {len(segmentation.discarded)}")

segment = segmentation.segments[0]
result = detect(itinerary, segment)
assert result.accepted
trip = result.itinerary
print("\nreconstructed itinerary:")
print(f"{'pos':>4s} {'stop':44s} {'time':>8s}  provenance")
for position, (time_s, observed) in enumerate(zip(trip.time_s, trip.observed), start=1):
    provenance = "OBSERVED" if observed else "INTERPOLATED"
    print(f"{position:>4d} {stop_name(position):44s} {format_time_of_day(time_s):>8s}  {provenance}")

print("\ndropped as out of sequence:")
for index in result.dropped:
    print(f"  {stop_name(segment.position[index])} @ {format_time_of_day(segment.time_s[index])}")
