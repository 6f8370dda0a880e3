"""Canonical data model: lines, stops, itineraries, GPS fix tracks, datasets."""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .geo import GeoPoint


class LineCategory(enum.Enum):
    """Service category of a bus line."""

    ALIMENTADOR = "ALIMENTADOR"
    CONVENCIONAL = "CONVENCIONAL"
    EXPRESSO = "EXPRESSO"
    JARDINEIRA = "JARDINEIRA"
    LIGEIRAO = "LIGEIRAO"
    LINHA_DIRETA = "LINHA_DIRETA"
    MADRUGUEIRO = "MADRUGUEIRO"
    TRONCAL = "TRONCAL"


class StopType(enum.Enum):
    TERMINAL = "TERMINAL"
    STREET_STOP = "STREET_STOP"
    TUBE_STATION = "TUBE_STATION"


def _normalize_token(value: str) -> str:
    """Uppercase, strip accents, and map separators to underscores."""
    decomposed = unicodedata.normalize("NFKD", value.strip())
    ascii_only = "".join(c for c in decomposed if not unicodedata.combining(c))
    return ascii_only.upper().replace(" ", "_").replace("-", "_")


def parse_category(value: str) -> LineCategory:
    """Normalize a category string (accent/case-insensitive) to the enum."""
    token = _normalize_token(value)
    try:
        return LineCategory(token)
    except ValueError:
        raise ValueError(f"unknown line category: {value!r}") from None


def parse_stop_type(value: str) -> StopType:
    token = _normalize_token(value)
    try:
        return StopType(token)
    except ValueError:
        raise ValueError(f"unknown stop type: {value!r}") from None


@dataclass(frozen=True)
class BusLine:
    code: str
    name: str
    category: LineCategory
    color: str = ""

    def __post_init__(self):
        if not self.code:
            raise ValueError("bus line code must be non-empty")


@dataclass(frozen=True)
class BusStop:
    stop_id: str
    name: str
    stop_type: StopType
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"stop {self.stop_id}: latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"stop {self.stop_id}: longitude out of range: {self.lon}")

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


@dataclass(frozen=True)
class ItineraryDef:
    """Ordered stop sequence of one line/direction.

    ``stops`` is a tuple of (seq, stop_id) with strictly increasing seq.
    Circular itineraries repeat the first stop_id in the final position,
    occupying two distinct positions.
    """

    line_code: str
    direction: str
    stops: tuple[tuple[int, str], ...]
    circular: bool = False

    def __post_init__(self):
        if len(self.stops) < 2:
            raise ValueError(
                f"itinerary {self.line_code}/{self.direction}: needs at least 2 stops, "
                f"got {len(self.stops)}"
            )
        seqs = [seq for seq, _ in self.stops]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise ValueError(
                f"itinerary {self.line_code}/{self.direction}: seq values must be strictly increasing"
            )
        if any(seq <= 0 for seq in seqs):
            raise ValueError(f"itinerary {self.line_code}/{self.direction}: seq values must be positive")
        if self.circular and self.stops[0][1] != self.stops[-1][1]:
            raise ValueError(
                f"itinerary {self.line_code}/{self.direction}: circular flag requires "
                "first and last stop to coincide"
            )

    @property
    def stop_ids(self) -> tuple[str, ...]:
        """Stop ids by itinerary position (1-based positions map to index + 1)."""
        return tuple(stop_id for _, stop_id in self.stops)

    def __len__(self) -> int:
        return len(self.stops)


class FixTrack:
    """The time-sorted GPS fixes of one (vehicle, line, service day) group.

    Parallel columns: ``lat``/``lon`` in decimal degrees (float64) and
    ``time_s``, integer seconds of the service day (int64). ``len()`` is
    the number of fixes. Arrays of the right dtype are kept as given, so a
    track can be a zero-copy slice of a parsed table.
    """

    __slots__ = ("vehicle_id", "lat", "lon", "time_s")

    def __init__(self, vehicle_id: str, lat, lon, time_s):
        self.vehicle_id = vehicle_id
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.time_s = np.asarray(time_s, dtype=np.int64)
        if not len(self.lat) == len(self.lon) == len(self.time_s):
            raise ValueError(f"fix track {vehicle_id}: lat, lon and time_s differ in length")

    def __len__(self) -> int:
        return len(self.time_s)


FixGroupKey = tuple[str, str, date]  # (vehicle_id, line_code, service day)


@dataclass
class Dataset:
    """Immutable-after-assembly container for one ingested data drop."""

    lines: dict[str, BusLine] = field(default_factory=dict)
    stops: dict[str, BusStop] = field(default_factory=dict)
    itineraries: list[ItineraryDef] = field(default_factory=list)
    fixes: dict[FixGroupKey, FixTrack] = field(default_factory=dict)

    def itineraries_for(self, line_code: str) -> list[ItineraryDef]:
        return [iti for iti in self.itineraries if iti.line_code == line_code]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    subject: str
    detail: str


def validate_dataset(dataset: Dataset) -> list[ValidationIssue]:
    """Report referential problems without modifying the dataset.

    Checks: itinerary stops that resolve to no BusStop, lines with no
    itinerary, and fix groups whose line cannot be matched to any itinerary.
    """
    issues: list[ValidationIssue] = []
    lines_with_iti = {iti.line_code for iti in dataset.itineraries}

    for iti in dataset.itineraries:
        for _, stop_id in iti.stops:
            if stop_id not in dataset.stops:
                issues.append(
                    ValidationIssue(
                        "dangling_stop",
                        f"{iti.line_code}/{iti.direction}",
                        f"itinerary references unknown stop {stop_id}",
                    )
                )
        if iti.line_code not in dataset.lines:
            issues.append(
                ValidationIssue(
                    "unknown_line",
                    f"{iti.line_code}/{iti.direction}",
                    "itinerary references a line absent from the lines table",
                )
            )

    for line in dataset.lines.values():
        if line.code not in lines_with_iti:
            issues.append(
                ValidationIssue("line_without_itinerary", line.code, "line has no itinerary")
            )

    for (vehicle_id, line_code, day), group in dataset.fixes.items():
        if line_code not in lines_with_iti:
            issues.append(
                ValidationIssue(
                    "unresolvable_line",
                    f"{vehicle_id}/{line_code}/{day.isoformat()}",
                    f"{len(group)} fixes reference a line with no itinerary",
                )
            )

    return issues
