"""Parsers and writers for the newline-delimited record files.

Each input file carries one JSON object per line (UTF-8):

* lines file      — {"code", "name", "category", "color"}
* line-points file — {"stop_id", "name", "stop_type", "lat", "lon",
                      "line_code", "direction", "seq"}
* fixes file      — {"vehicle_id", "line_code", "lat", "lon",
                      "dthr": "dd/MM/yyyy HH:mm:ss"}

Parsers raise :class:`RecordError` with the offending line number on the
first malformed record. Writers emit the same schema so that
``parse(write(parse(x)))`` reproduces ``parse(x)`` exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from datetime import date, datetime
from typing import IO, Iterable, Iterator

from .model import (
    BusLine,
    BusStop,
    Dataset,
    FixGroupKey,
    GpsFix,
    ItineraryDef,
    parse_category,
    parse_stop_type,
)

TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"

# Stops referenced twice must agree in position to within this tolerance.
COORD_CONFLICT_M = 1.0


class RecordError(ValueError):
    """A malformed input record, annotated with its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _iter_records(stream: Iterable[str]) -> Iterator[tuple[int, dict]]:
    for line_no, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecordError(line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(record, dict):
            raise RecordError(line_no, "record must be a JSON object")
        yield line_no, record


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise RecordError(line_no, f"missing field {key!r}")
    return record[key]


def parse_lines(stream: Iterable[str]) -> list[BusLine]:
    """Parse the lines file into BusLine objects (categories normalized)."""
    lines: list[BusLine] = []
    seen: set[str] = set()
    for line_no, record in _iter_records(stream):
        code = str(_require(record, "code", line_no))
        if code in seen:
            raise RecordError(line_no, f"duplicate line code {code!r}")
        seen.add(code)
        try:
            category = parse_category(str(_require(record, "category", line_no)))
        except ValueError as exc:
            raise RecordError(line_no, str(exc)) from None
        try:
            lines.append(
                BusLine(
                    code=code,
                    name=str(_require(record, "name", line_no)),
                    category=category,
                    color=str(record.get("color", "")),
                )
            )
        except ValueError as exc:
            raise RecordError(line_no, str(exc)) from None
    return lines


def parse_line_points(stream: Iterable[str]) -> tuple[list[BusStop], list[ItineraryDef]]:
    """Parse the line-points file into deduplicated stops and itineraries.

    Stops are deduplicated by stop_id; a stop re-appearing more than one
    meter away from its first coordinates is an error. Itineraries are
    assembled per (line_code, direction), ordered by seq, and flagged
    circular when first and last stop coincide.
    """
    from .geo import haversine_distance

    stops: dict[str, BusStop] = {}
    sequences: dict[tuple[str, str], dict[int, str]] = defaultdict(dict)

    for line_no, record in _iter_records(stream):
        stop_id = str(_require(record, "stop_id", line_no))
        try:
            stop = BusStop(
                stop_id=stop_id,
                name=str(_require(record, "name", line_no)),
                stop_type=parse_stop_type(str(_require(record, "stop_type", line_no))),
                lat=float(_require(record, "lat", line_no)),
                lon=float(_require(record, "lon", line_no)),
            )
        except (TypeError, ValueError) as exc:
            raise RecordError(line_no, str(exc)) from None

        known = stops.get(stop_id)
        if known is None:
            stops[stop_id] = stop
        elif haversine_distance(known, stop) > COORD_CONFLICT_M:
            raise RecordError(
                line_no,
                f"stop {stop_id} re-declared {haversine_distance(known, stop):.1f} m away "
                "from its first coordinates",
            )

        line_code = str(_require(record, "line_code", line_no))
        direction = str(_require(record, "direction", line_no))
        try:
            seq = int(_require(record, "seq", line_no))
        except (TypeError, ValueError):
            raise RecordError(line_no, f"seq is not an integer: {record.get('seq')!r}") from None
        sequence = sequences[(line_code, direction)]
        if seq in sequence:
            raise RecordError(
                line_no, f"duplicate seq {seq} for itinerary {line_code}/{direction}"
            )
        sequence[seq] = stop_id

    itineraries: list[ItineraryDef] = []
    for (line_code, direction), sequence in sequences.items():
        ordered = tuple(sorted(sequence.items()))
        stop_ids = [stop_id for _, stop_id in ordered]
        itineraries.append(
            ItineraryDef(
                line_code=line_code,
                direction=direction,
                stops=ordered,
                circular=len(stop_ids) >= 2 and stop_ids[0] == stop_ids[-1],
            )
        )
    return list(stops.values()), itineraries


def parse_timestamp(value: str) -> tuple[date, int]:
    """Split a "dd/MM/yyyy HH:mm:ss" timestamp into (service day, seconds of day)."""
    moment = datetime.strptime(value, TIMESTAMP_FORMAT)
    return moment.date(), moment.hour * 3600 + moment.minute * 60 + moment.second


def format_timestamp(day: date, time_s: int) -> str:
    h, rem = divmod(time_s, 3600)
    m, s = divmod(rem, 60)
    return f"{day.day:02d}/{day.month:02d}/{day.year:04d} {h:02d}:{m:02d}:{s:02d}"


def parse_vehicle_fixes(stream: Iterable[str]) -> list[GpsFix]:
    """Parse the fixes file into GpsFix objects.

    The result is ordered by (vehicle, line, day, time); exact duplicates
    (same vehicle, timestamp, and coordinates) are collapsed to one fix.
    """
    fixes: list[GpsFix] = []
    seen: set[tuple] = set()
    for line_no, record in _iter_records(stream):
        raw_ts = str(_require(record, "dthr", line_no))
        try:
            day, time_s = parse_timestamp(raw_ts)
        except ValueError:
            raise RecordError(line_no, f"unparseable timestamp: {raw_ts!r}") from None
        try:
            fix = GpsFix(
                vehicle_id=str(_require(record, "vehicle_id", line_no)),
                line_code=str(_require(record, "line_code", line_no)),
                lat=float(_require(record, "lat", line_no)),
                lon=float(_require(record, "lon", line_no)),
                day=day,
                time_s=time_s,
            )
        except (TypeError, ValueError) as exc:
            raise RecordError(line_no, str(exc)) from None
        key = (fix.vehicle_id, fix.day, fix.time_s, fix.lat, fix.lon, fix.line_code)
        if key in seen:
            continue
        seen.add(key)
        fixes.append(fix)
    fixes.sort(key=lambda f: (f.vehicle_id, f.line_code, f.day, f.time_s))
    return fixes


def group_fixes(fixes: Iterable[GpsFix]) -> dict[FixGroupKey, list[GpsFix]]:
    """Group fixes by (vehicle, line, service day), each group time-sorted."""
    groups: dict[FixGroupKey, list[GpsFix]] = defaultdict(list)
    for fix in fixes:
        groups[(fix.vehicle_id, fix.line_code, fix.day)].append(fix)
    for group in groups.values():
        group.sort(key=lambda f: f.time_s)
    return dict(groups)


def load_dataset(lines_path, points_path, fixes_path) -> Dataset:
    """Assemble a Dataset from the three record files.

    A ``fixes_path`` of None leaves the dataset without fixes.
    """
    with open(lines_path, encoding="utf-8") as f:
        lines = parse_lines(f)
    with open(points_path, encoding="utf-8") as f:
        stops, itineraries = parse_line_points(f)
    fixes = []
    if fixes_path is not None:
        with open(fixes_path, encoding="utf-8") as f:
            fixes = parse_vehicle_fixes(f)
    return Dataset(
        lines={line.code: line for line in lines},
        stops={stop.stop_id: stop for stop in stops},
        itineraries=itineraries,
        fixes=group_fixes(fixes),
    )


def write_lines(lines: Iterable[BusLine], stream: IO[str]) -> None:
    for line in lines:
        stream.write(
            json.dumps(
                {
                    "code": line.code,
                    "name": line.name,
                    "category": line.category.value,
                    "color": line.color,
                },
                ensure_ascii=False,
            )
            + "\n"
        )


def write_line_points(
    stops: Iterable[BusStop], itineraries: Iterable[ItineraryDef], stream: IO[str]
) -> None:
    lookup = {stop.stop_id: stop for stop in stops}
    for iti in itineraries:
        for seq, stop_id in iti.stops:
            stop = lookup[stop_id]
            stream.write(
                json.dumps(
                    {
                        "stop_id": stop.stop_id,
                        "name": stop.name,
                        "stop_type": stop.stop_type.value,
                        "lat": stop.lat,
                        "lon": stop.lon,
                        "line_code": iti.line_code,
                        "direction": iti.direction,
                        "seq": seq,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def write_vehicle_fixes(fixes: Iterable[GpsFix], stream: IO[str]) -> None:
    for fix in fixes:
        stream.write(
            json.dumps(
                {
                    "vehicle_id": fix.vehicle_id,
                    "line_code": fix.line_code,
                    "lat": fix.lat,
                    "lon": fix.lon,
                    "dthr": format_timestamp(fix.day, fix.time_s),
                },
                ensure_ascii=False,
            )
            + "\n"
        )
