"""Synthetic datasets: the circular case-study line, parametric straight
lines for calibration experiments, and a two-corridor routing network with
its origin-destination pairs. The route stage's seeded OD pair generator,
:func:`~bustrace.routing.generate_od_pairs`, is importable from here too.

All geometry is laid out in a local east/north meter frame and projected
onto the sphere, so Haversine distances match the design dimensions to
well under a meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .detection import parse_time_of_day
from .geo import GeoPoint, offset_point
from .model import (
    BusLine,
    BusStop,
    Dataset,
    FixTrack,
    ItineraryDef,
    LineCategory,
    StopType,
)
from .routing import ODPair, generate_od_pairs  # noqa: F401  (tests and the bench import it from here)

DEFAULT_CADENCE_S = 20

_CURITIBA = GeoPoint(-25.4430, -49.3390)


@dataclass(frozen=True)
class Waypoint:
    time_s: int
    east_m: float
    north_m: float


def _trajectory_fixes(
    waypoints: list[Waypoint],
    vehicle_id: str,
    origin: GeoPoint = _CURITIBA,
    cadence_s: int = DEFAULT_CADENCE_S,
) -> FixTrack:
    """Sample a piecewise-linear trajectory at every waypoint plus a fixed
    cadence grid, in time order."""
    times = {wp.time_s for wp in waypoints}
    times.update(range(waypoints[0].time_s, waypoints[-1].time_s + 1, cadence_s))

    lats, lons, kept = [], [], []
    for t in sorted(times):
        for a, b in zip(waypoints, waypoints[1:]):
            if a.time_s <= t <= b.time_s:
                frac = 0.0 if b.time_s == a.time_s else (t - a.time_s) / (b.time_s - a.time_s)
                east = a.east_m + frac * (b.east_m - a.east_m)
                north = a.north_m + frac * (b.north_m - a.north_m)
                point = offset_point(origin, east, north)
                lats.append(point.lat)
                lons.append(point.lon)
                kept.append(t)
                break
    return FixTrack(vehicle_id, lats, lons, kept)


# ── Circular case-study line (code 829) ─────────────────────────────────

LINE829_CODE = "829"
LINE829_VEHICLE = "BA020"
LINE829_DAY = date(2022, 11, 7)
LINE829_DIRECTION = "CIRCULAR"

# (stop_id, name, type, east_m, north_m); the terminal also closes the loop.
_LINE829_STOPS = [
    ("829001", "Terminal Campo Comprido", StopType.TERMINAL, 0.0, 0.0),
    ("829002", "R. Angelo Nebosne, 75", StopType.STREET_STOP, 900.0, 0.0),
    ("829003", "R. Prof. Pedro Viriato Parigot de Souza, 4716", StopType.STREET_STOP, 1500.0, 0.0),
    ("829004", "R. Prof. Pedro Viriato Parigot de Souza, 5136", StopType.STREET_STOP, 2100.0, 0.0),
    ("829005", "R. Casemiro Augusto Rodacki, 233", StopType.STREET_STOP, 2700.0, 0.0),
    ("829006", "R. Carlos Müller, 331", StopType.STREET_STOP, 3300.0, 0.0),
    ("829007", "R. Carlos Müller, 871", StopType.STREET_STOP, 3300.0, 700.0),
    ("829008", "R. Eduardo Sprada, 5273", StopType.STREET_STOP, 2400.0, 700.0),
    ("829009", "R. Dep. Heitor Alencar Furtado, 5181", StopType.STREET_STOP, 1300.0, 450.0),
    ("829010", "R. Dep. Heitor Alencar Furtado, 4900", StopType.STREET_STOP, 400.0, 90.0),
]

# Passage times of the round trip. The road from the terminal to the second
# stop passes 90 m from stop 829010, which produces the out-of-sequence
# mark at 06:14:08.
_LINE829_WAYPOINTS = [
    ("06:04:51", 0.0, 0.0),
    ("06:13:35", 0.0, 0.0),  # dwell at the terminal before departing
    ("06:14:08", 400.0, 0.0),  # closest approach to stop 829010
    ("06:14:36", 900.0, 0.0),
    ("06:15:40", 1500.0, 0.0),
    ("06:16:43", 2100.0, 0.0),
    ("06:18:00", 2700.0, 0.0),
    ("06:19:30", 3300.0, 0.0),
    ("06:21:06", 3300.0, 700.0),
    ("06:26:45", 2400.0, 700.0),  # slow approach segment, heavy traffic
    ("06:28:30", 1300.0, 450.0),
    ("06:29:06", 400.0, 90.0),
    ("06:31:41", 0.0, 0.0),
]

# GPS outage intervals [start, end): they hide the true passages at the
# third, fifth, and eighth stops.
LINE829_FAILURE_WINDOWS = [
    ("06:15:00", "06:16:00"),
    ("06:17:00", "06:19:00"),
    ("06:26:00", "06:28:00"),
]


def line829_dataset(include_failures: bool = True) -> Dataset:
    """The circular ten-stop fixture with one vehicle's round trip.

    With ``include_failures`` the GPS log drops every fix inside the three
    outage windows, so map matching cannot see stops 3, 5, and 8 and the
    detector has to interpolate them. Without failures the trip is fully
    observed (useful as ground truth for error measurements).
    """
    stops = {
        stop_id: BusStop(
            stop_id=stop_id,
            name=name,
            stop_type=stop_type,
            lat=offset_point(_CURITIBA, east, north).lat,
            lon=offset_point(_CURITIBA, east, north).lon,
        )
        for stop_id, name, stop_type, east, north in _LINE829_STOPS
    }
    positions = [(seq, _LINE829_STOPS[seq - 1][0]) for seq in range(1, 11)]
    positions.append((11, _LINE829_STOPS[0][0]))
    itinerary = ItineraryDef(
        line_code=LINE829_CODE,
        direction=LINE829_DIRECTION,
        stops=tuple(positions),
        circular=True,
    )

    waypoints = [Waypoint(parse_time_of_day(t), e, n) for t, e, n in _LINE829_WAYPOINTS]
    track = _trajectory_fixes(waypoints, LINE829_VEHICLE)
    if include_failures:
        windows = [
            (parse_time_of_day(a), parse_time_of_day(b)) for a, b in LINE829_FAILURE_WINDOWS
        ]
        seen = [not any(a <= t < b for a, b in windows) for t in track.time_s]
        track = FixTrack(track.vehicle_id, track.lat[seen], track.lon[seen], track.time_s[seen])

    line = BusLine(
        code=LINE829_CODE,
        name="UNIVERSIDADE POSITIVO",
        category=LineCategory.ALIMENTADOR,
        color="LARANJA",
    )
    return Dataset(
        lines={line.code: line},
        stops=stops,
        itineraries=[itinerary],
        fixes={(LINE829_VEHICLE, LINE829_CODE, LINE829_DAY): track},
    )


# ── Parametric straight lines ───────────────────────────────────────────


def straight_line_dataset(
    n_stops: int = 30,
    spacing_m: float = 500.0,
    segment_s: int = 50,
    n_trips: int = 10,
    jitter: float = 0.0,
    seed: int = 0,
    line_code: str = "T01",
    category: LineCategory = LineCategory.CONVENCIONAL,
    day: date = date(2022, 11, 7),
    first_departure: str = "06:00:00",
    trip_headway_s: int = 3600,
    cadence_s: int = DEFAULT_CADENCE_S,
    stop_type: StopType = StopType.STREET_STOP,
) -> Dataset:
    """A one-direction line with evenly spaced stops and one vehicle per trip.

    With ``jitter`` zero the vehicle moves at constant speed, so every stop
    passage falls exactly on a uniform time grid. A positive jitter scales
    each segment's duration by 1 + U(-jitter, jitter), rounded to whole
    seconds, which is what makes midpoint interpolation miss.
    """
    rng = np.random.default_rng(seed)
    stops = {}
    for i in range(n_stops):
        stop_id = f"{line_code}-{i:03d}"
        point = offset_point(_CURITIBA, i * spacing_m, 0.0)
        stops[stop_id] = BusStop(
            stop_id=stop_id,
            name=f"Stop {i} of {line_code}",
            stop_type=stop_type,
            lat=point.lat,
            lon=point.lon,
        )
    stop_ids = sorted(stops)
    itinerary = ItineraryDef(
        line_code=line_code,
        direction="EAST",
        stops=tuple((i + 1, stop_ids[i]) for i in range(n_stops)),
        circular=False,
    )

    fixes: dict = {}
    start = parse_time_of_day(first_departure)
    for trip in range(n_trips):
        t = start + trip * trip_headway_s
        waypoints = [Waypoint(t, 0.0, 0.0)]
        for i in range(1, n_stops):
            duration = segment_s
            if jitter > 0:
                duration = max(2, int(round(segment_s * (1.0 + rng.uniform(-jitter, jitter)))))
            t += duration
            waypoints.append(Waypoint(t, i * spacing_m, 0.0))
        vehicle = f"V{trip:04d}"
        fixes[(vehicle, line_code, day)] = _trajectory_fixes(waypoints, vehicle, cadence_s=cadence_s)

    line = BusLine(code=line_code, name=f"Synthetic {line_code}", category=category)
    return Dataset(
        lines={line.code: line}, stops=stops, itineraries=[itinerary], fixes=fixes
    )


# ── Two-corridor routing network ────────────────────────────────────────


def two_corridor_network():
    """Stops, itineraries, and bridge candidates for the integration fixture.

    Four short east-west lines (S1..S4) cover a direct corridor but never
    share a stop; their end points sit 300 m apart, inside walking range.
    A detour line (L0) is the only way between corridor ends without
    clusters: it shares one stop with S1 and one with S4 and loops 8 km
    south. Clustering the bridge stops links the corridor end to end.

    Returns (stops, itineraries, bridge_candidate_ids).
    """
    stops: dict[str, BusStop] = {}
    itineraries: list[ItineraryDef] = []

    def add_stop(stop_id: str, east: float, north: float):
        point = offset_point(_CURITIBA, east, north)
        stops[stop_id] = BusStop(
            stop_id=stop_id,
            name=stop_id,
            stop_type=StopType.STREET_STOP,
            lat=point.lat,
            lon=point.lon,
        )

    def add_line(line_code: str, stop_ids: list[str]):
        itineraries.append(
            ItineraryDef(
                line_code=line_code,
                direction="EAST",
                stops=tuple((i + 1, s) for i, s in enumerate(stop_ids)),
            )
        )
        itineraries.append(
            ItineraryDef(
                line_code=line_code,
                direction="WEST",
                stops=tuple((i + 1, s) for i, s in enumerate(reversed(stop_ids))),
            )
        )

    corridor_lines = []
    for k in range(4):
        base_x = k * 4300.0
        ids = []
        for i in range(6):
            stop_id = f"S{k + 1}-{i:02d}"
            add_stop(stop_id, base_x + i * 800.0, 0.0)
            ids.append(stop_id)
        corridor_lines.append(ids)
        add_line(f"S{k + 1}", ids)

    # Detour line: boards the corridor at S1-02 and S4-03, dips 8 km south.
    add_stop("L0-01", 1600.0, -8000.0)
    add_stop("L0-02", 8450.0, -8000.0)
    add_stop("L0-03", 15300.0, -8000.0)
    add_line("L0", ["S1-02", "L0-01", "L0-02", "L0-03", "S4-03"])

    bridge_candidates = [corridor_lines[k][-1] for k in range(3)]  # S1-05, S2-05, S3-05
    return stops, itineraries, bridge_candidates


def two_corridor_od_pairs(count: int, seed: int = 0) -> list[ODPair]:
    """OD pairs from the west half of S1 to the east half of S4."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        origin = offset_point(
            _CURITIBA, rng.uniform(800.0, 3200.0), rng.uniform(-200.0, 200.0)
        )
        destination = offset_point(
            _CURITIBA, rng.uniform(13700.0, 16900.0), rng.uniform(-200.0, 200.0)
        )
        pairs.append(ODPair(origin=origin, destination=destination))
    return pairs
