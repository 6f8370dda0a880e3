"""Spherical distance helpers shared across the pipeline.

All distances in the engine are great-circle (Haversine) distances on a
sphere of radius 6,371,000 m, between decimal-degree coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


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


def haversine_distance(a, b) -> float:
    """Great-circle distance in meters between two points with lat/lon attributes."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.asin(min(1.0, math.sqrt(h)))


def haversine_matrix(
    lats_a: np.ndarray, lons_a: np.ndarray, lats_b: np.ndarray, lons_b: np.ndarray
) -> np.ndarray:
    """Pairwise distance matrix in meters, shape (len(a), len(b))."""
    lat1 = np.radians(lats_a)[:, None]
    lon1 = np.radians(lons_a)[:, None]
    lat2 = np.radians(lats_b)[None, :]
    lon2 = np.radians(lons_b)[None, :]
    h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    return EARTH_RADIUS_M * 2 * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def offset_point(origin: GeoPoint, east_m: float, north_m: float) -> GeoPoint:
    """Shift a point by local meter offsets (small-displacement approximation).

    Used by the synthetic fixture builders; accurate to well under a meter
    for the few-kilometer extents they generate.
    """
    dlat = north_m / 111_194.9266  # meters per degree of latitude on this sphere
    dlon = east_m / (111_194.9266 * math.cos(math.radians(origin.lat)))
    return GeoPoint(origin.lat + dlat, origin.lon + dlon)
