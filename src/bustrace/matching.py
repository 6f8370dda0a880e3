"""Nearest-stop map matching of a GPS fix track against one itinerary.

Every fix is labeled with its nearest itinerary stop by Haversine distance.
Consecutive fixes sharing a label form a run; a run whose closest approach
is within the acceptance radius yields exactly one passage mark, stamped at
the run's minimum-distance fix (earliest such fix on ties).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import haversine_matrix
from .model import BusStop, FixTrack, ItineraryDef

DEFAULT_ACCEPTANCE_RADIUS_M = 100.0

# Fix-to-stop distance rows are computed in chunks to bound memory on
# large trajectories.
_CHUNK = 131_072


@dataclass(frozen=True, slots=True)
class StopMark:
    """A map-matched passage event at one stop."""

    stop_id: str
    seq_hint: int  # smallest itinerary position served by this stop
    time_s: int
    distance_m: float
    vehicle_id: str


def match_fixes(
    track: FixTrack,
    itinerary: ItineraryDef,
    stops: dict[str, BusStop],
    acceptance_radius_m: float = DEFAULT_ACCEPTANCE_RADIUS_M,
) -> list[StopMark]:
    """Produce passage marks for a time-ordered fix track against one itinerary.

    Ties between equidistant stops break toward the smaller itinerary
    position. Returns marks in fix-time order.
    """
    n = len(track)
    if n == 0:
        return []

    # Distinct stops in first-appearance order, so argmin tie-breaking
    # lands on the smaller itinerary position.
    first_position: dict[str, int] = {}
    for position, stop_id in enumerate(itinerary.stop_ids, start=1):
        first_position.setdefault(stop_id, position)
    stop_order = list(first_position)
    try:
        stop_objs = [stops[stop_id] for stop_id in stop_order]
    except KeyError as exc:
        raise ValueError(f"itinerary stop not resolvable: {exc.args[0]}") from None

    stop_lats = np.array([s.lat for s in stop_objs])
    stop_lons = np.array([s.lon for s in stop_objs])
    if np.any(np.diff(track.time_s) < 0):
        raise ValueError("fixes must be sorted ascending by time")

    labels = np.empty(n, dtype=np.int64)
    nearest_m = np.empty(n, dtype=float)
    for start in range(0, n, _CHUNK):
        end = min(start + _CHUNK, n)
        dists = haversine_matrix(track.lat[start:end], track.lon[start:end], stop_lats, stop_lons)
        chunk_labels = np.argmin(dists, axis=1)
        labels[start:end] = chunk_labels
        nearest_m[start:end] = dists[np.arange(end - start), chunk_labels]

    # Each run's closest fix: the run minimum, then the first index holding it.
    run_starts = np.concatenate(([0], np.flatnonzero(np.diff(labels) != 0) + 1))
    run_min = np.minimum.reduceat(nearest_m, run_starts)
    at_min = nearest_m == np.repeat(run_min, np.diff(run_starts, append=n))
    best = np.minimum.reduceat(np.where(at_min, np.arange(n), n), run_starts)
    kept = run_min <= acceptance_radius_m
    best = best[kept]

    marks: list[StopMark] = []
    for label, time_s, distance_m in zip(
        labels[run_starts[kept]].tolist(),
        track.time_s[best].tolist(),
        nearest_m[best].tolist(),
    ):
        stop_id = stop_order[label]
        marks.append(
            StopMark(
                stop_id=stop_id,
                seq_hint=first_position[stop_id],
                time_s=time_s,
                distance_m=distance_m,
                vehicle_id=track.vehicle_id,
            )
        )
    return marks


def sequence_marks(marks: list[StopMark]) -> list[StopMark]:
    """Stable ascending sort of marks by passage time."""
    return sorted(marks, key=lambda m: m.time_s)
