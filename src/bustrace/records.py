"""Parsers and writers for the newline-delimited record files.

Each input file carries one JSON object per line (UTF-8):

* lines file      — {"code", "name", "category", "color"}
* line-points file — {"stop_id", "name", "stop_type", "lat", "lon",
                      "line_code", "direction", "seq"}
* fixes file      — {"vehicle_id", "line_code", "lat", "lon",
                      "dthr": "dd/MM/yyyy HH:mm:ss"}

No id (``code``, ``stop_id``, ``line_code``, ``direction``, ``vehicle_id``)
may hold ``,``, ``;``, ``"``, CR or LF (:func:`id_fault`). Parsers raise
:class:`RecordError` with the offending line number on the first malformed
record; :func:`load_dataset` adds the file name. Writers emit the same
schema so that ``parse(write(parse(x)))`` reproduces ``parse(x)`` exactly.

GPS fixes stay columnar from ingest through matching. The fixes parser
reads its file in blocks of whole lines. A block whose every line has the
exact shape :func:`write_vehicle_fixes` writes is decoded in bulk: one
regular expression splits it into fields, ids are interned to codes, and
timestamps are decoded as digit arrays with each distinct date checked
once. Any other block (a blank line, other spacing or key order, an int
coordinate, an escaped string, an impossible time) goes line by line: its
timestamps in the digit layout are decoded together first, and then each
line's ``json.loads`` object is read once, field by field, in the order
its errors are reported. Both check each fix's ids and coordinate ranges
as they decode it (:func:`_fix_fault`), so the first bad line of the file
is the first one refused, and append to typed arrays; sorting and
deduplication then run in bulk on a :class:`FixTable`, and
:func:`group_fixes` cuts it into zero-copy :class:`~bustrace.model.FixTrack`
slices. The fixes are sorted once,
stably, on (vehicle, line, day, time); exact duplicates are sought only
among fixes tied on those four keys.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime
from functools import partial
from itertools import compress
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

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

# Joins the ids of one CSV cell: a cluster's members or lines, an OD path's stops.
STOP_ID_SEPARATOR = ";"

# No id (line code, direction, stop id, vehicle id) may hold one of these:
# the separator above and the characters a CSV field is quoted for (RFC
# 4180), so that every artifact writes its ids as they are.
ID_FORBIDDEN = STOP_ID_SEPARATOR + ',"\r\n'
_FORBIDDEN = re.compile(f"[{re.escape(ID_FORBIDDEN)}]")


def id_fault(field: str, value: str) -> str | None:
    """Why ``value`` cannot be the id ``field`` holds, or None when it can."""
    found = _FORBIDDEN.search(value)
    return None if found is None else f"{field} {value!r} contains {found.group()!r}"


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
    except RecursionError:
        raise RecordError(line_no, "invalid JSON: nested too deeply") from None
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


def _require_id(record: dict, key: str, line_no: int) -> str:
    value = str(_require(record, key, line_no))
    fault = id_fault(key, value)
    if fault is not None:
        raise RecordError(line_no, fault)
    return value


def parse_lines(stream: Iterable[str]) -> list[BusLine]:
    """Parse the lines file into BusLine objects (categories normalized)."""
    lines: list[BusLine] = []
    seen: set[str] = set()
    for line_no, record in _iter_records(stream):
        code = _require_id(record, "code", line_no)
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
    meter away from its first coordinates, or with another name or stop
    type, is an error. Itineraries are assembled per (line_code,
    direction), ordered by seq, and flagged circular when first and last
    stop coincide; an itinerary that :class:`ItineraryDef` refuses is
    reported at its first record's line.
    """
    from .geo import haversine_distance

    stops: dict[str, BusStop] = {}
    sequences: dict[tuple[str, str], dict[int, str]] = defaultdict(dict)
    first_lines: dict[tuple[str, str], int] = {}

    for line_no, record in _iter_records(stream):
        stop_id = _require_id(record, "stop_id", line_no)
        try:
            stop = BusStop(
                stop_id=stop_id,
                name=str(_require(record, "name", line_no)),
                stop_type=parse_stop_type(str(_require(record, "stop_type", line_no))),
                lat=_coordinate(record, "lat", line_no),
                lon=_coordinate(record, "lon", line_no),
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
        elif (stop.name, stop.stop_type) != (known.name, known.stop_type):
            raise RecordError(
                line_no,
                f"stop {stop_id} re-declared as {stop.stop_type.value} {stop.name!r}, "
                f"first declared as {known.stop_type.value} {known.name!r}",
            )

        line_code = _require_id(record, "line_code", line_no)
        direction = _require_id(record, "direction", line_no)
        seq = _require(record, "seq", line_no)
        try:
            if isinstance(seq, bool) or isinstance(seq, float) and not seq.is_integer():
                raise ValueError  # int() would truncate it, or read true as 1
            seq = int(seq)
        except (TypeError, ValueError):
            raise RecordError(line_no, f"seq is not an integer: {record.get('seq')!r}") from None
        first_lines.setdefault((line_code, direction), line_no)
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
        try:
            itineraries.append(
                ItineraryDef(
                    line_code=line_code,
                    direction=direction,
                    stops=ordered,
                    circular=len(stop_ids) >= 2 and stop_ids[0] == stop_ids[-1],
                )
            )
        except ValueError as exc:
            raise RecordError(first_lines[(line_code, direction)], str(exc)) from None
    return list(stops.values()), itineraries


def parse_timestamp(value: str) -> tuple[date, int]:
    """Split a "dd/MM/yyyy HH:mm:ss" timestamp into (service day, seconds of day)."""
    moment = datetime.strptime(value, TIMESTAMP_FORMAT)
    return moment.date(), moment.hour * 3600 + moment.minute * 60 + moment.second


def format_timestamp(day: date, time_s: int) -> str:
    h, rem = divmod(time_s, 3600)
    m, s = divmod(rem, 60)
    return f"{day.day:02d}/{day.month:02d}/{day.year:04d} {h:02d}:{m:02d}:{s:02d}"


class _Codes(dict):
    """Interns id strings to dense int codes: iterating it gives the ids in code order."""

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        return code


class _Stamps(dict):
    """Memoised timestamp text → ``day ordinal * 86400 + seconds of day``.

    A miss goes through :func:`parse_timestamp`, which raises ValueError
    for text it rejects.
    """

    def learn(self, texts: Iterable[str]) -> None:
        """Decode at once those new ``texts`` in the layout :func:`_canonical_stamps` takes."""
        texts = [text for text in set(texts) if text not in self and _LAYOUT.fullmatch(text)]
        if texts:
            stamp, ok = _canonical_stamps(texts)
            self.update(zip(compress(texts, ok), stamp[ok].tolist()))

    def __missing__(self, text: str) -> int:
        day, time_s = parse_timestamp(text)
        stamp = self[text] = day.toordinal() * 86_400 + time_s
        return stamp


# The dd/MM/yyyy HH:mm:ss digit layout of the timestamps the writer emits.
_LAYOUT = re.compile(r"[0-9]{2}/[0-9]{2}/[0-9]{4} [0-9]{2}:[0-9]{2}:[0-9]{2}")


def _canonical_stamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Stamps of texts laid out as ``dd/MM/yyyy HH:mm:ss`` in ASCII digits,
    and whether each is valid.

    A text is invalid when it names an hour above 23, a minute or second
    above 59, or a date that does not exist, all of which
    :func:`parse_timestamp` rejects; its stamp is then meaningless. Each
    distinct date is checked once.
    """
    raw = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8).reshape(len(texts), 19)
    digits = raw.astype(np.int64) - ord("0")
    pairs = digits[:, :-1] * 10 + digits[:, 1:]  # the two-digit number at each position
    hour, minute, second = pairs[:, 11], pairs[:, 14], pairs[:, 17]
    ymd = (pairs[:, 6] * 100 + pairs[:, 8]) * 10_000 + pairs[:, 3] * 100 + pairs[:, 0]
    distinct, inverse = np.unique(ymd, return_inverse=True)
    ordinals = np.zeros(len(distinct), dtype=np.int64)
    for i, v in enumerate(distinct.tolist()):
        try:
            ordinals[i] = date(v // 10_000, v // 100 % 100, v % 100).toordinal()
        except ValueError:
            pass  # its ordinal stays 0, which no day has
    day = ordinals[inverse]
    ok = (day > 0) & (hour <= 23) & (minute <= 59) & (second <= 59)
    return day * 86_400 + hour * 3600 + minute * 60 + second, ok


def _coordinate(record: dict, key: str, line_no: int) -> float:
    """The coordinate ``key`` of a line-points or fixes record; never a boolean, which float() reads as 1.0 or 0.0."""
    value = _require(record, key, line_no)
    if isinstance(value, bool):
        raise RecordError(line_no, f"{key} is not a number: {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RecordError(line_no, str(exc)) from None


def _fix_fault(vehicle_id: str, line_code: str, lat: float, lon: float) -> str | None:
    """Why a fix whose fields have parsed is refused, or None when it is kept.

    The vehicle id is checked before the line code (:func:`id_fault`), then
    the latitude and the longitude; NaN is out of either range.
    """
    fault = id_fault("vehicle_id", vehicle_id) or id_fault("line_code", line_code)
    if fault is None and not -90.0 <= lat <= 90.0:
        fault = f"fix {vehicle_id}: latitude out of range: {lat}"
    if fault is None and not -180.0 <= lon <= 180.0:
        fault = f"fix {vehicle_id}: longitude out of range: {lon}"
    return fault


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


# The fixes file is read this many characters at a time; each block is
# cut at its last newline, so it holds whole lines and no file is held whole.
_BLOCK_CHARS = 1 << 18

# A string with no escape and no control character: its text is its value.
_STRING = r'"([^"\\\x00-\x1f]*)"'
# A JSON number with a fraction or an exponent: float() of its text is what
# json.loads gives. A bare -0 (an int 0 to json.loads) or an int does not match.
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
# A string in the layout _canonical_stamps decodes.
_TIMESTAMP = '"(' + _LAYOUT.pattern + ')"'
# A fix exactly as write_vehicle_fixes writes it, one per line.
_CANONICAL_FIX = re.compile(
    r'^\{"vehicle_id": ' + _STRING + r', "line_code": ' + _STRING
    + r', "lat": ' + _FLOAT + r', "lon": ' + _FLOAT
    + r', "dthr": ' + _TIMESTAMP + r"\}$",
    re.M,
)


class _FixColumns:
    """Parsed fixes in file order. Each block checks its fixes by
    :func:`_fix_fault` as it decodes them, so once a block is added every
    id interned belongs to a fix that passed: only a fix with a new id or a
    coordinate out of range needs the check."""

    def __init__(self):
        self.stamps, self.vehicles, self.lines = _Stamps(), _Codes(), _Codes()
        self.stamp, self.vehicle, self.line = array("q"), array("i"), array("i")
        self.lat, self.lon = array("d"), array("d")

    def add_block(self, first_line_no: int, count: int, text: str) -> None:
        """Append the fixes of ``text``, ``count`` whole lines from ``first_line_no`` on.

        A block of canonical lines only is decoded in bulk; any other goes
        line by line, its timestamps in the canonical layout decoded in bulk
        first. Raises :class:`RecordError` at its first bad line.
        """
        if not self._add_canonical(first_line_no, count, text):
            self._add_lines(first_line_no, text.removesuffix("\n").split("\n"))

    def _add_canonical(self, first_line_no: int, count: int, text: str) -> bool:
        if not _CANONICAL_FIX.match(text):
            return False  # without scanning a block of some other spelling to its end
        rows = _CANONICAL_FIX.findall(text)
        if len(rows) != count:
            return False
        vehicle_ids, line_codes, lats, lons, dthrs = zip(*rows)
        stamp, ok = _canonical_stamps(dthrs)
        if not ok.all():
            return False
        known = len(self.vehicles), len(self.lines)
        vehicle = np.fromiter(map(self.vehicles.__getitem__, vehicle_ids), np.int32, count)
        line = np.fromiter(map(self.lines.__getitem__, line_codes), np.int32, count)
        lat = np.fromiter(map(float, lats), np.float64, count)
        lon = np.fromiter(map(float, lons), np.float64, count)
        # Only a row out of range, or the first row of an id new in this
        # block, can fail _fix_fault: the ids known before have passed it.
        suspect = ~((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0))
        for codes, known_codes in zip((vehicle, line), known):
            distinct, first = np.unique(codes, return_index=True)
            suspect[first[distinct >= known_codes]] = True
        for row in np.flatnonzero(suspect).tolist():
            fault = _fix_fault(vehicle_ids[row], line_codes[row], float(lat[row]), float(lon[row]))
            if fault is not None:
                raise RecordError(first_line_no + row, fault)
        columns = (self.stamp, self.vehicle, self.line, self.lat, self.lon)
        for column, values in zip(columns, (stamp, vehicle, line, lat, lon)):
            column.frombytes(values.tobytes())
        return True

    def _add_lines(self, first_line_no: int, raw_lines: list[str]) -> None:
        stamps, vehicles, lines = self.stamps, self.vehicles, self.lines
        decoded = []
        for raw in raw_lines:
            try:
                decoded.append(json.loads(raw))
            except (ValueError, RecursionError):
                decoded.append(None)  # _decode reports it below, in line order
        stamps.learn(str(record["dthr"]) for record in decoded if isinstance(record, dict) and "dthr" in record)
        for line_no, (raw, record) in enumerate(zip(raw_lines, decoded), start=first_line_no):
            if not isinstance(record, dict):
                record = _decode(line_no, raw)  # None when blank; else it raises, unless JSON takes the stripped line
                if record is None:
                    continue
            raw_ts = str(_require(record, "dthr", line_no))
            try:
                stamp = stamps[raw_ts]
            except ValueError:
                raise RecordError(line_no, f"unparseable timestamp: {raw_ts!r}") from None
            vehicle_id = str(_require(record, "vehicle_id", line_no))
            line_code = str(_require(record, "line_code", line_no))
            lat = _coordinate(record, "lat", line_no)
            lon = _coordinate(record, "lon", line_no)
            if (
                vehicle_id not in vehicles or line_code not in lines
                or not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0)
            ):
                fault = _fix_fault(vehicle_id, line_code, lat, lon)
                if fault is not None:
                    raise RecordError(line_no, fault)
            self.stamp.append(stamp)
            self.vehicle.append(vehicles[vehicle_id])
            self.line.append(lines[line_code])
            self.lat.append(lat)
            self.lon.append(lon)


def _blocks(stream: IO[str]) -> Iterator[tuple[int, int, str]]:
    """(line number of its first line, number of lines, text) of each block
    of ``stream``, which is read ``_BLOCK_CHARS`` characters at a time.

    Every block but the last ends with a newline; the last one does when
    the stream does.
    """
    line_no, rest = 1, ""
    for chunk in iter(partial(stream.read, _BLOCK_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if not cut:
            rest += chunk
            continue
        text, rest = rest + chunk[:cut], chunk[cut:]
        count = text.count("\n")
        yield line_no, count, text
        line_no += count
    if rest:
        yield line_no, 1, rest  # one line: rest holds no newline


def parse_vehicle_fixes(stream: IO[str]) -> FixTable:
    """Parse the fixes file, a text stream, into a :class:`FixTable`.

    The text is read in blocks of whole lines, a line ending at each
    newline character. A block whose every line is a fix exactly as
    :func:`write_vehicle_fixes` writes it (keys in its order and spacing,
    strings without escapes, coordinates with a fraction or an exponent,
    a valid ``dd/MM/yyyy HH:mm:ss`` time) is decoded in bulk by one regular
    expression; any other block goes line by line through ``json.loads``,
    its timestamps in that digit layout decoded together and any other
    spelling through :func:`parse_timestamp`. Both give the same values
    and, on malformed input, the same :class:`RecordError` naming the
    first bad line of the file.

    Exact duplicates (same vehicle, line, timestamp, and coordinates, with
    0.0 equal to -0.0) are collapsed to their first occurrence. Fixes with
    equal (vehicle, line, day, time) keep their input order.
    """
    fixes = _FixColumns()
    for line_no, count, text in _blocks(stream):
        fixes.add_block(line_no, count, text)

    lat = np.array(fixes.lat, dtype=np.float64)
    lon = np.array(fixes.lon, dtype=np.float64)
    day, time_s = np.divmod(np.array(fixes.stamp, dtype=np.int64), 86_400)
    vehicle = _ranks(list(fixes.vehicles))[np.array(fixes.vehicle, dtype=np.int32)]
    line = _ranks(list(fixes.lines))[np.array(fixes.line, dtype=np.int32)]
    ordinals, day = np.unique(day, return_inverse=True)
    day = day.astype(np.int32)
    # a stable sort: fixes with equal keys keep their input order
    rows = np.lexsort((time_s, day, line, vehicle))
    tied = _equal_neighbours(rows, (vehicle, line, day, time_s))
    in_tie = np.zeros(len(rows), dtype=bool)
    in_tie[1:] |= tied
    in_tie[:-1] |= tied
    # Only fixes tied on those keys can be exact duplicates; sort just them
    # once more, stably, with the coordinates. 0.0 + 0.0 and -0.0 + 0.0 are
    # both 0.0: the two zeros are one key.
    tie_rows = rows[in_tie]
    tie_rows = tie_rows[np.lexsort((
        lon[tie_rows] + 0.0, lat[tie_rows] + 0.0,
        time_s[tie_rows], day[tie_rows], line[tie_rows], vehicle[tie_rows],
    ))]
    repeat = _equal_neighbours(tie_rows, (vehicle, line, day, time_s, lat, lon))
    keep = np.ones(len(rows), dtype=bool)
    keep[tie_rows[1:][repeat]] = False  # a stable sort puts the first occurrence first
    rows = rows[keep[rows]]
    return FixTable(
        vehicle_ids=sorted(fixes.vehicles),
        line_codes=sorted(fixes.lines),
        days=[date.fromordinal(o) for o in ordinals.tolist()],
        vehicle=vehicle[rows],
        line=line[rows],
        day=day[rows],
        time_s=time_s[rows],
        lat=lat[rows],
        lon=lon[rows],
    )


def _equal_neighbours(rows: np.ndarray, keys: Iterable[np.ndarray]) -> np.ndarray:
    """Per pair of neighbours in ``rows``, whether they agree on every key."""
    equal = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for key in keys:
        sorted_key = key[rows]
        equal &= sorted_key[1:] == sorted_key[:-1]
    return equal


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
