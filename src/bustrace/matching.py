"""Nearest-stop map matching of a GPS fix track against the itineraries of its line.

One Haversine distance matrix is built per track, over the sorted union of
the stops of the line's itineraries; each itinerary reads its own columns
of it. Against one itinerary, every fix is labeled with its nearest
itinerary stop. Consecutive fixes sharing a label form a run; a run whose
closest approach is within the acceptance radius yields exactly one
passage mark, stamped at the run's minimum-distance fix (earliest such fix
on ties). The marks of one track against one itinerary come back as the
columns of one :class:`Marks`, in fix order, which is also time order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geo import haversine_matrix
from .model import DEFAULT_ACCEPTANCE_RADIUS_M, BusStop, FixTrack, ItineraryDef

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

    @classmethod
    def _of(cls, position: np.ndarray, time_s: np.ndarray, distance_m: np.ndarray) -> "Marks":
        """Marks over columns already of the right dtypes and of equal length."""
        marks = cls.__new__(cls)
        marks.position, marks.time_s, marks.distance_m = position, time_s, distance_m
        return marks

    def __len__(self) -> int:
        return len(self.time_s)

    def __getitem__(self, index) -> "Marks":
        return Marks._of(self.position[index], self.time_s[index], self.distance_m[index])


def match_fixes(
    track: FixTrack,
    itineraries: Sequence[ItineraryDef],
    stops: dict[str, BusStop],
    acceptance_radius_m: float = DEFAULT_ACCEPTANCE_RADIUS_M,
) -> list[Marks]:
    """Produce passage marks for a time-ordered fix track against each itinerary.

    Returns one :class:`Marks` per itinerary, in the order given. Ties
    between equidistant stops break toward the smaller itinerary position.
    Marks come in fix order: runs follow one another and each mark's fix
    lies inside its run, so times never decrease and equal times keep fix
    order.
    """
    n = len(track)
    if n == 0:
        return [Marks((), (), ()) for _ in itineraries]

    stop_ids = sorted({stop_id for itinerary in itineraries for stop_id in itinerary.stop_ids})
    try:
        stop_objs = [stops[stop_id] for stop_id in stop_ids]
    except KeyError as exc:
        raise ValueError(f"itinerary stop not resolvable: {exc.args[0]}") from None
    stop_lats = np.array([s.lat for s in stop_objs])
    stop_lons = np.array([s.lon for s in stop_objs])
    if np.any(np.diff(track.time_s) < 0):
        raise ValueError("fixes must be sorted ascending by time")

    # Per itinerary, its distinct stops in first-appearance order, so argmin
    # tie-breaking lands on the smaller itinerary position, and their columns.
    column = {stop_id: index for index, stop_id in enumerate(stop_ids)}
    first_positions = [np.unique(itinerary.first_positions) for itinerary in itineraries]
    columns = [
        np.array([column[itinerary.stop_ids[p - 1]] for p in firsts.tolist()])
        for itinerary, firsts in zip(itineraries, first_positions)
    ]

    labels = np.empty((len(itineraries), n), dtype=np.int64)
    nearest_m = np.empty((len(itineraries), n), dtype=float)
    for start in range(0, n, _CHUNK):
        end = min(start + _CHUNK, n)
        all_dists = haversine_matrix(track.lat[start:end], track.lon[start:end], stop_lats, stop_lons)
        rows = np.arange(end - start)
        for i, cols in enumerate(columns):
            dists = all_dists[:, cols]
            chunk_labels = np.argmin(dists, axis=1)
            labels[i, start:end] = chunk_labels
            nearest_m[i, start:end] = dists[rows, chunk_labels]

    marks = []
    for firsts, label, nearest in zip(first_positions, labels, nearest_m):
        # Each run's closest fix: the run minimum, then the first index holding it.
        run_starts = np.concatenate(([0], np.flatnonzero(np.diff(label) != 0) + 1))
        run_min = np.minimum.reduceat(nearest, run_starts)
        at_min = nearest == np.repeat(run_min, np.diff(run_starts, append=n))
        best = np.minimum.reduceat(np.where(at_min, np.arange(n), n), run_starts)
        kept = run_min <= acceptance_radius_m
        best = best[kept]
        marks.append(Marks(firsts[label[run_starts[kept]]], track.time_s[best], nearest[best]))
    return marks
