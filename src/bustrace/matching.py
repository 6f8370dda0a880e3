"""Nearest-stop map matching of a GPS fix track against one itinerary.

Every fix is labeled with its nearest itinerary stop by Haversine distance.
Consecutive fixes sharing a label form a run; a run whose closest approach
is within the acceptance radius yields exactly one passage mark, stamped at
the run's minimum-distance fix (earliest such fix on ties). The marks of
one track come back as the columns of one :class:`Marks`, in fix order,
which is also time order.
"""

from __future__ import annotations

import numpy as np

from .geo import haversine_matrix
from .model import BusStop, FixTrack, ItineraryDef

DEFAULT_ACCEPTANCE_RADIUS_M = 100.0

# Fix-to-stop distance rows are computed in chunks to bound memory on
# large trajectories.
_CHUNK = 131_072


class Marks:
    """The passage marks of one fix track against one itinerary.

    Parallel columns: ``position``, the smallest itinerary position served
    by the mark's stop (int64, 1-based); ``time_s``, integer seconds of the
    service day (int64); ``distance_m``, the fix-to-stop distance
    (float64). ``len()`` is the number of marks; indexing with a slice or
    an index array returns the selected marks.
    """

    __slots__ = ("position", "time_s", "distance_m")

    def __init__(self, position, time_s, distance_m):
        self.position = np.asarray(position, dtype=np.int64)
        self.time_s = np.asarray(time_s, dtype=np.int64)
        self.distance_m = np.asarray(distance_m, dtype=np.float64)
        if not len(self.position) == len(self.time_s) == len(self.distance_m):
            raise ValueError("mark columns differ in length")

    def __len__(self) -> int:
        return len(self.time_s)

    def __getitem__(self, index) -> "Marks":
        return Marks(self.position[index], self.time_s[index], self.distance_m[index])


def match_fixes(
    track: FixTrack,
    itinerary: ItineraryDef,
    stops: dict[str, BusStop],
    acceptance_radius_m: float = DEFAULT_ACCEPTANCE_RADIUS_M,
) -> Marks:
    """Produce passage marks for a time-ordered fix track against one itinerary.

    Ties between equidistant stops break toward the smaller itinerary
    position. Returns marks in fix order: runs follow one another and each
    mark's fix lies inside its run, so times never decrease and equal
    times keep fix order.
    """
    n = len(track)
    if n == 0:
        return Marks((), (), ())

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

    first_positions = np.array(list(first_position.values()))  # in stop_order
    return Marks(first_positions[labels[run_starts[kept]]], track.time_s[best], nearest_m[best])
