"""Spherical distance helpers shared across the pipeline.

All distances in the engine are great-circle (Haversine) distances on a
sphere of radius 6,371,000 m, between decimal-degree coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from .model import BusStop

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_OD_SEARCH_RADIUS_M = 600.0


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in meters between decimal-degree points, elementwise.

    The coordinates are numbers or arrays, broadcast against each other.
    """
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    return EARTH_RADIUS_M * 2 * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def haversine_distance(a, b) -> float:
    """Great-circle distance in meters between two points with lat/lon attributes."""
    return float(haversine(a.lat, a.lon, b.lat, b.lon))


def haversine_matrix(
    lats_a: np.ndarray, lons_a: np.ndarray, lats_b: np.ndarray, lons_b: np.ndarray
) -> np.ndarray:
    """Pairwise distance matrix in meters, shape (len(a), len(b))."""
    return haversine(lats_a[:, None], lons_a[:, None], lats_b[None, :], lons_b[None, :])


def nearest_stops(
    point: GeoPoint,
    stops: Mapping[str, BusStop],
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> list[tuple[str, float]]:
    """All stops within the radius, ascending by distance (ties by stop id)."""
    stop_ids = sorted(stops)
    if not stop_ids:
        return []
    lats = np.array([stops[s].lat for s in stop_ids])
    lons = np.array([stops[s].lon for s in stop_ids])
    dists = haversine_matrix(np.array([point.lat]), np.array([point.lon]), lats, lons)[0]
    found = [(stop_id, float(d)) for stop_id, d in zip(stop_ids, dists) if d <= radius_m]
    found.sort(key=lambda item: (item[1], item[0]))
    return found


def offset_point(origin: GeoPoint, east_m: float, north_m: float) -> GeoPoint:
    """Shift a point by local meter offsets (small-displacement approximation).

    Used to jitter OD endpoints (:func:`~bustrace.routing.generate_od_pairs`)
    and by the synthetic fixture builders; accurate to well under a meter
    for the few-kilometer extents they generate.
    """
    dlat = north_m / 111_194.9266  # meters per degree of latitude on this sphere
    dlon = east_m / (111_194.9266 * math.cos(math.radians(origin.lat)))
    return GeoPoint(origin.lat + dlat, origin.lon + dlon)
