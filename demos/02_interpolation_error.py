"""
How far off is gap interpolation?
=================================

Deleting known stop passages and re-estimating them measures the error a
real GPS outage would introduce. Under uniform motion the midpoint rule is
exact; once segment speeds vary, the error grows with the number of
consecutive missing stops.
"""

import numpy as np

from bustrace import evaluate_interpolation_error
from bustrace.synthetic import straight_line_dataset
from bustrace import detect, match_fixes, segment_trips


def reconstruct_all(dataset):
    detections = []
    for key in sorted(dataset.fixes):
        itinerary = dataset.itineraries[0]
        marks = match_fixes(dataset.fixes[key], itinerary, dataset.stops)
        for segment in segment_trips(marks, itinerary).segments:
            result = detect(itinerary, segment, vehicle_id=key[0])
            if result.accepted:
                detections.append(result.itinerary)
    return detections


for jitter, label in ((0.0, "constant speed"), (0.35, "speed jitter +/-35%")):
    dataset = straight_line_dataset(n_stops=30, n_trips=10, jitter=jitter, seed=42)
    detections = reconstruct_all(dataset)
    print(f"\n{label}: {len(detections)} fully observed trips")
    print(f"{'w':>3s} {'median':>8s} {'q3':>8s} {'max':>8s}   (seconds of error per deleted stop)")
    for w in range(2, 9):
        samples = evaluate_interpolation_error(detections, w=w, samples=100, seed=7)
        errs = np.array([s.err_seconds for s in samples])
        print(f"{w:>3d} {np.median(errs):8.1f} {np.quantile(errs, 0.75):8.1f} {errs.max():8.1f}")
