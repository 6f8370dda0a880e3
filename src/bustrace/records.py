"""Parsers and writers for the newline-delimited record files.

Each input file carries one JSON object per line (UTF-8):

* lines file      — {"code", "name", "category", "color"}
* line-points file — {"stop_id", "name", "stop_type", "lat", "lon",
                      "line_code", "direction", "seq"}
* fixes file      — {"vehicle_id", "line_code", "lat", "lon",
                      "dthr": "dd/MM/yyyy HH:mm:ss"}

Parsers raise :class:`RecordError` with the offending line number on the
first malformed record; :func:`load_dataset` adds the file name. Writers
emit the same schema so that ``parse(write(parse(x)))`` reproduces
``parse(x)`` exactly.

GPS fixes stay columnar from ingest through matching: the parser's loop
only decodes JSON and appends to typed arrays (ids interned to codes,
timestamps memoised per distinct text), range checks, deduplication and
sorting run in bulk on a :class:`FixTable`, and :func:`group_fixes` cuts
it into zero-copy :class:`~bustrace.model.FixTrack` slices.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .model import (
    BusLine,
    BusStop,
    Dataset,
    FixGroupKey,
    FixTrack,
    ItineraryDef,
    parse_category,
    parse_stop_type,
)

TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"

# Stops referenced twice must agree in position to within this tolerance.
COORD_CONFLICT_M = 1.0


class RecordError(ValueError):
    """A malformed input record, annotated with its 1-based line number
    and, once known, the name of its file."""

    def __init__(self, line_no: int, message: str, file_name: str | None = None):
        where = f"{file_name} line {line_no}" if file_name else f"line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.file_name = file_name


def _decode(line_no: int, raw: str) -> dict | None:
    """The JSON object on one line, or None for a blank line."""
    text = raw.strip()
    if not text:
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError(line_no, f"invalid JSON: {exc.msg}") from None
    if not isinstance(record, dict):
        raise RecordError(line_no, "record must be a JSON object")
    return record


def _iter_records(stream: Iterable[str]) -> Iterator[tuple[int, dict]]:
    for line_no, raw in enumerate(stream, start=1):
        record = _decode(line_no, raw)
        if record is not None:
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
        except RecordError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
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


# The fixed-width dd/MM/yyyy HH:mm:ss form; any other text goes to strptime.
_CANONICAL_TIMESTAMP = re.compile(r"(\d\d/\d\d/\d{4}) (\d\d):(\d\d):(\d\d)", re.ASCII)


class _Codes(dict):
    """Interns ids to dense int codes, keyed by ``str(value)``.

    ``by_name`` maps each id to its code, in code order. Only str keys are
    cached, because 1, 1.0 and True hash alike but print differently.
    """

    def __init__(self):
        super().__init__()
        self.by_name: dict[str, int] = {}

    def __missing__(self, value) -> int:
        code = self.by_name.setdefault(str(value), len(self.by_name))
        if type(value) is str:
            self[value] = code
        return code


class _Stamps(dict):
    """Memoised timestamp text → ``day code * 86400 + seconds of day``.

    ``day_codes`` maps each service day to its code, in code order.
    Canonical text is sliced, its date checked once per distinct date; any
    other text goes through :func:`parse_timestamp`. Raises ValueError for
    text that :func:`parse_timestamp` rejects and TypeError for a non-string.
    """

    def __init__(self):
        super().__init__()
        self.day_codes: dict[date, int] = {}
        self._date_texts: dict[str, int | None] = {}

    def _day_code(self, day: date) -> int:
        return self.day_codes.setdefault(day, len(self.day_codes))

    def _canonical(self, text: str) -> int | None:
        match = _CANONICAL_TIMESTAMP.fullmatch(text)
        if match is None:
            return None
        date_text, h, m, s = match.group(1, 2, 3, 4)
        h, m, s = int(h), int(m), int(s)
        if h > 23 or m > 59 or s > 59:
            return None
        if date_text not in self._date_texts:
            try:
                day = date(int(date_text[6:]), int(date_text[3:5]), int(date_text[:2]))
            except ValueError:
                self._date_texts[date_text] = None
            else:
                self._date_texts[date_text] = self._day_code(day)
        code = self._date_texts[date_text]
        return None if code is None else code * 86_400 + h * 3600 + m * 60 + s

    def __missing__(self, text: str) -> int:
        if type(text) is not str:
            raise TypeError("timestamp is not a string")
        stamp = self._canonical(text)
        if stamp is None:
            day, time_s = parse_timestamp(text)
            stamp = self._day_code(day) * 86_400 + time_s
        self[text] = stamp
        return stamp


def _coordinate(record: dict, key: str, line_no: int) -> float:
    value = _require(record, key, line_no)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RecordError(line_no, str(exc)) from None


def _fix_row(line_no: int, raw: str, stamps: _Stamps, vehicles: _Codes, lines: _Codes):
    """One fixes-file line checked field by field, in the order errors are reported.

    Returns (stamp, vehicle code, line code, lat, lon), or None for a blank
    line. Coordinate ranges are left to :func:`_check_ranges`.
    """
    record = _decode(line_no, raw)
    if record is None:
        return None
    raw_ts = str(_require(record, "dthr", line_no))
    try:
        stamp = stamps[raw_ts]
    except ValueError:
        raise RecordError(line_no, f"unparseable timestamp: {raw_ts!r}") from None
    vehicle = vehicles[str(_require(record, "vehicle_id", line_no))]
    line = lines[str(_require(record, "line_code", line_no))]
    lat = _coordinate(record, "lat", line_no)
    lon = _coordinate(record, "lon", line_no)
    return stamp, vehicle, line, lat, lon


def _check_ranges(
    lat: np.ndarray, lon: np.ndarray, time_s: np.ndarray, vehicle: np.ndarray, names: list[str]
) -> tuple[int, str] | None:
    """The first row with a coordinate or time out of range, and its message.

    NaN fails every range. Within a row, latitude is reported before
    longitude before time.
    """
    bad_lat = ~((lat >= -90.0) & (lat <= 90.0))
    bad_lon = ~((lon >= -180.0) & (lon <= 180.0))
    bad_time = (time_s < 0) | (time_s >= 86_400)
    bad = np.flatnonzero(bad_lat | bad_lon | bad_time)
    if not len(bad):
        return None
    row = int(bad[0])
    who = f"fix {names[vehicle[row]]}"
    if bad_lat[row]:
        return row, f"{who}: latitude out of range: {float(lat[row])}"
    if bad_lon[row]:
        return row, f"{who}: longitude out of range: {float(lon[row])}"
    return row, f"{who}: time outside service day: {int(time_s[row])}"


def _ranks(names: list) -> np.ndarray:
    """Code → position of its name in sorted order."""
    ranks = np.empty(len(names), dtype=np.int32)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names), dtype=np.int32)
    return ranks


@dataclass(frozen=True, eq=False)
class FixTable:
    """Parsed GPS fixes as parallel columns, sorted by (vehicle, line, day, time).

    ``vehicle``, ``line`` and ``day`` are int32 codes into the sorted
    ``vehicle_ids``, ``line_codes`` and ``days``, so code order is value
    order. ``time_s`` is int64 seconds of the service day; ``lat`` and
    ``lon`` are float64 degrees. ``len()`` is the number of fixes.
    """

    vehicle_ids: list[str]
    line_codes: list[str]
    days: list[date]
    vehicle: np.ndarray
    line: np.ndarray
    day: np.ndarray
    time_s: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.time_s)


def parse_vehicle_fixes(stream: Iterable[str]) -> FixTable:
    """Parse the fixes file into a :class:`FixTable`.

    Exact duplicates (same vehicle, line, timestamp, and coordinates, with
    0.0 equal to -0.0) are collapsed to their first occurrence. Fixes with
    equal (vehicle, line, day, time) keep their input order. On malformed
    input the :class:`RecordError` names the first bad line of the file.
    """
    stamps, vehicles, lines = _Stamps(), _Codes(), _Codes()
    col_stamp, col_vehicle, col_line = array("q"), array("i"), array("i")
    col_lat, col_lon, col_line_no = array("d"), array("d"), array("q")
    loads = json.loads
    error = None
    for line_no, raw in enumerate(stream, start=1):
        try:
            record = loads(raw)
            stamp = stamps[record["dthr"]]
            vehicle = vehicles[record["vehicle_id"]]
            line = lines[record["line_code"]]
            lat = float(record["lat"])
            lon = float(record["lon"])
        except (KeyError, TypeError, ValueError, OverflowError):
            # blank or malformed, or a value the fast path cannot take
            try:
                row = _fix_row(line_no, raw, stamps, vehicles, lines)
            except RecordError as exc:
                error = exc  # raised unless an earlier line fails a range check
                break
            if row is None:
                continue
            stamp, vehicle, line, lat, lon = row
        col_stamp.append(stamp)
        col_vehicle.append(vehicle)
        col_line.append(line)
        col_lat.append(lat)
        col_lon.append(lon)
        col_line_no.append(line_no)

    lat = np.array(col_lat, dtype=np.float64)
    lon = np.array(col_lon, dtype=np.float64)
    day, time_s = np.divmod(np.array(col_stamp, dtype=np.int64), 86_400)
    vehicle = np.array(col_vehicle, dtype=np.int32)
    bad = _check_ranges(lat, lon, time_s, vehicle, list(vehicles.by_name))
    if bad is not None:
        row, message = bad
        raise RecordError(col_line_no[row], message)
    if error is not None:
        raise error

    vehicle = _ranks(list(vehicles.by_name))[vehicle]
    line = _ranks(list(lines.by_name))[np.array(col_line, dtype=np.int32)]
    day = _ranks(list(stamps.day_codes))[day]
    # 0.0 + 0.0 and -0.0 + 0.0 are both 0.0: the two zeros are one key
    order = np.lexsort((lon + 0.0, lat + 0.0, time_s, day, line, vehicle))
    repeat = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in (vehicle, line, day, time_s, lat, lon):
        sorted_key = key[order]
        repeat &= sorted_key[1:] == sorted_key[:-1]
    keep = np.ones(len(order), dtype=bool)
    keep[order[1:][repeat]] = False  # a stable sort puts the first occurrence first
    rows = np.flatnonzero(keep)
    rows = rows[np.lexsort((time_s[rows], day[rows], line[rows], vehicle[rows]))]
    return FixTable(
        vehicle_ids=sorted(vehicles.by_name),
        line_codes=sorted(lines.by_name),
        days=sorted(stamps.day_codes),
        vehicle=vehicle[rows],
        line=line[rows],
        day=day[rows],
        time_s=time_s[rows],
        lat=lat[rows],
        lon=lon[rows],
    )


def group_fixes(table: FixTable) -> dict[FixGroupKey, FixTrack]:
    """Split a table into one time-sorted track per (vehicle, line, service day).

    The tracks' columns are zero-copy slices of the table's.
    """
    n = len(table)
    change = (np.diff(table.vehicle) != 0) | (np.diff(table.line) != 0) | (np.diff(table.day) != 0)
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), n] if n else [0]
    groups: dict[FixGroupKey, FixTrack] = {}
    for start, end in zip(bounds, bounds[1:]):
        vehicle_id = table.vehicle_ids[table.vehicle[start]]
        key = (vehicle_id, table.line_codes[table.line[start]], table.days[table.day[start]])
        groups[key] = FixTrack(
            vehicle_id, table.lat[start:end], table.lon[start:end], table.time_s[start:end]
        )
    return groups


def _parse_file(path, parse):
    """Run ``parse`` over a record file; a RecordError then names the file.

    A leading UTF-8 byte order mark is skipped.
    """
    with open(path, encoding="utf-8-sig") as f:
        try:
            return parse(f)
        except RecordError as exc:
            raise RecordError(exc.line_no, exc.message, Path(path).name) from None


def load_dataset(lines_path, points_path, fixes_path) -> Dataset:
    """Assemble a Dataset from the three record files.

    A ``fixes_path`` of None leaves the dataset without fixes.
    """
    lines = _parse_file(lines_path, parse_lines)
    stops, itineraries = _parse_file(points_path, parse_line_points)
    fixes = {}
    if fixes_path is not None:
        fixes = group_fixes(_parse_file(fixes_path, parse_vehicle_fixes))
    return Dataset(
        lines={line.code: line for line in lines},
        stops={stop.stop_id: stop for stop in stops},
        itineraries=itineraries,
        fixes=fixes,
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


def write_vehicle_fixes(groups: Mapping[FixGroupKey, FixTrack], stream: IO[str]) -> None:
    """Write every fix of every group, group by group, in track order."""
    for (vehicle_id, line_code, day), track in groups.items():
        for lat, lon, time_s in zip(track.lat.tolist(), track.lon.tolist(), track.time_s.tolist()):
            stream.write(
                json.dumps(
                    {
                        "vehicle_id": vehicle_id,
                        "line_code": line_code,
                        "lat": lat,
                        "lon": lon,
                        "dthr": format_timestamp(day, time_s),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
