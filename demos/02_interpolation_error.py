"""
How far off is gap interpolation?
=================================

Deleting known stop passages and re-estimating them measures the error a
real GPS outage would introduce. Under uniform motion the midpoint rule is
exact; once segment speeds vary, the error grows with the number of
consecutive missing stops.
"""

import numpy as np

from bustrace.detection import evaluate_interpolation_error
from bustrace.pipeline import PipelineConfig, run_detection
from bustrace.synthetic import straight_line_dataset

for jitter, label in ((0.0, "constant speed"), (0.35, "speed jitter +/-35%")):
    dataset = straight_line_dataset(n_stops=30, n_trips=10, jitter=jitter, seed=42)
    detections = [trip for outcome in run_detection(dataset, PipelineConfig()) for trip in outcome.trips]
    print(f"\n{label}: {len(detections)} fully observed trips")
    print(f"{'w':>3s} {'median':>8s} {'q3':>8s} {'max':>8s}   (seconds of error per deleted stop)")
    for w in range(2, 9):
        errs = evaluate_interpolation_error(detections, w=w, samples=100, seed=7)
        print(f"{w:>3d} {np.median(errs):8.1f} {np.quantile(errs, 0.75):8.1f} {errs.max():8.1f}")
