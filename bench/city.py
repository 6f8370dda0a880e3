"""Seeded street-grid city: static network, GPS fixes and true stop passages.

The city is a GRID x GRID lattice of stops, SPACING metres apart. Every row
and every column carries one bidirectional line (CONVENCIONAL); three trunk
lines (EXPRESSO) re-run two rows and one column at 360 s instead of 1200 s
headway, so their stops stand out as availability outliers and seed
clusters. Two L-shaped feeder lines (ALIMENTADOR) close their loop on a
diagonal street whose last stop sits 90 m from the feeder's own first
street, so every feeder trip picks up an out-of-sequence mark there.

Vehicles shuttle back and forth on their line for the whole service
window. A fix is sampled every CADENCE_S seconds (a few metres of noise
between stops) plus one exact fix at the stop's coordinates at every
arrival, so the true passage time of a stop is the arrival instant.

Defects written into the fixes file:
* exact duplicate fixes;
* file order by timestamp, so vehicles interleave;
* GPS outages that hide one to three interior stops of a trip;
* outages at a terminal, which remove the end anchor of the two trips that
  share that terminal visit;
* the feeders' near-stop road (above).
Outages are placed on grid and trunk lines only: a hidden passage on a
feeder would sit beside a stray mark, which is the method's documented
region of uncertainty, not a fault.

`write_workload` writes the three NDJSON files and `truth.json`, the
sidecar listing every generated trip's true passage times and which of them
a fix observed; `write_config` writes the CLI's configuration.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GRID = 13
SPACING = 400.0
CADENCE_S = 30
NOISE_M = 6.0
HIDE_RADIUS_M = 170.0  # no fix survives this close to a hidden stop
LAT0, LON0 = -25.4430, -49.3390
M_PER_DEG = 111_194.9266
SERVICE_DAY = "2024-03-12"
DTHR_DAY = "12/03/2024"

HEADWAY_S = 1200
TRUNK_HEADWAY_S = 360
TRUNK_ROWS = (3, 9)
TRUNK_COLS = (6,)


@dataclass(frozen=True)
class Profile:
    """What one workload generates and how the CLI is configured for it."""

    start_s: int  # service window, seconds of the day
    end_s: int
    od_pairs: int


PROFILES = {
    "city_day": Profile(5 * 3600, 23 * 3600, od_pairs=2),
    "od_grid": Profile(6 * 3600, 8 * 3600, od_pairs=20),
}
GAP_SHARE = 0.25  # trips with an interior outage
ANCHOR_LOSS_SHARE = 0.03  # terminal visits lost to an outage
DUPLICATE_SHARE = 0.01  # fixes written twice
K_PATHS = 30  # the paper's setting
# The route stage samples its OD pairs from the config seed. It stays fixed so
# that every run routes the same pairs: pair lengths, and with them the
# K-shortest-path work, would otherwise swing the timings from seed to seed.
OD_SEED = 7
CLUSTER_RADIUS_M = 600.0  # the paper's walking radius
RERUN_RADIUS_M = 450.0  # radius_rerun's what-if radius


def to_latlon(east: float, north: float) -> tuple[float, float]:
    lat = LAT0 + north / M_PER_DEG
    lon = LON0 + east / (M_PER_DEG * math.cos(math.radians(LAT0)))
    return lat, lon


@dataclass
class Stop:
    stop_id: str
    name: str
    stop_type: str
    east: float
    north: float


@dataclass
class Line:
    code: str
    name: str
    category: str
    directions: dict[str, list[str]]  # direction -> stop ids in order
    headway_s: int
    hide_ok: bool = True  # outages may be placed on this line


@dataclass
class Network:
    stops: dict[str, Stop] = field(default_factory=dict)
    lines: list[Line] = field(default_factory=list)


def grid_id(row: int, col: int) -> str:
    return f"G{row:02d}{col:02d}"


def build_network() -> Network:
    net = Network()
    last = GRID - 1
    trunk_stops = {grid_id(r, c) for r in TRUNK_ROWS for c in range(GRID)}
    trunk_stops |= {grid_id(r, c) for c in TRUNK_COLS for r in range(GRID)}
    for row in range(GRID):
        for col in range(GRID):
            sid = grid_id(row, col)
            corner = row in (0, last) and col in (0, last)
            trunk_end = sid in trunk_stops and (row in (0, last) or col in (0, last))
            if corner or trunk_end:
                kind, name = "TERMINAL", f"Terminal {sid}"
            elif row == 1:
                kind, name = "TUBE_STATION", f"Tube {sid}"
            else:
                kind, name = "STREET_STOP", f"Street {row} x {col}"
            net.stops[sid] = Stop(sid, name, kind, col * SPACING, row * SPACING)

    def bidirectional(code, name, category, forward, labels, headway, hide_ok=True):
        net.lines.append(
            Line(code, name, category, {labels[0]: forward, labels[1]: forward[::-1]}, headway, hide_ok)
        )

    for row in range(GRID):
        ids = [grid_id(row, c) for c in range(GRID)]
        bidirectional(f"R{row:02d}", f"Row {row}", "CONVENCIONAL", ids, ("EAST", "WEST"), HEADWAY_S)
    for col in range(GRID):
        ids = [grid_id(r, col) for r in range(GRID)]
        bidirectional(f"C{col:02d}", f"Column {col}", "CONVENCIONAL", ids, ("NORTH", "SOUTH"), HEADWAY_S)
    for row in TRUNK_ROWS:
        ids = [grid_id(row, c) for c in range(GRID)]
        bidirectional(f"X{row:02d}", f"Trunk row {row}", "EXPRESSO", ids, ("EAST", "WEST"), TRUNK_HEADWAY_S)
    for col in TRUNK_COLS:
        ids = [grid_id(r, col) for r in range(GRID)]
        bidirectional(f"Y{col:02d}", f"Trunk column {col}", "EXPRESSO", ids, ("NORTH", "SOUTH"), TRUNK_HEADWAY_S)

    # Feeders: east along one street, north, west, then a diagonal back to
    # a last stop 90 m from the first street (an out-of-sequence mark on
    # every outbound trip, and on every return trip near its end).
    shape = [(0, 0), (400, 0), (800, 0), (1200, 0), (1200, 400), (800, 400), (600, 90)]
    for index, (base_e, base_n) in enumerate(((2 * SPACING, 4 * SPACING + 200), (7 * SPACING, 7 * SPACING + 200))):
        code = f"F{index + 1}"
        ids = []
        for k, (de, dn) in enumerate(shape, start=1):
            sid = f"{code}S{k}"
            net.stops[sid] = Stop(sid, f"Feeder {code} stop {k}", "STREET_STOP", base_e + de, base_n + dn)
            ids.append(sid)
        bidirectional(code, f"Feeder {index + 1}", "ALIMENTADOR", ids, ("OUT", "BACK"), HEADWAY_S, hide_ok=False)
    return net


# ── Vehicle simulation ──────────────────────────────────────────────────


@dataclass
class Visit:
    stop_id: str
    arrive: int
    depart: int
    hidden: bool = False


@dataclass
class Trip:
    direction: str
    visits: list[int]  # indices into the vehicle's visit list


def simulate_vehicle(rng: random.Random, net: Network, line: Line, first_direction: int, start: int, end: int):
    """Visits and trips of one vehicle shuttling on its line until `end`."""
    directions = list(line.directions)
    visits: list[Visit] = []
    trips: list[Trip] = []
    k = first_direction
    t = start
    first = line.directions[directions[k]][0]
    visits.append(Visit(first, t, t + rng.randint(30, 120)))
    while True:
        direction = directions[k % 2]
        stop_ids = line.directions[direction]
        # plan the trip before committing to it, so every trip ends in time
        plan = []
        t = visits[-1].depart
        for a, b in zip(stop_ids, stop_ids[1:]):
            sa, sb = net.stops[a], net.stops[b]
            dist = math.hypot(sb.east - sa.east, sb.north - sa.north)
            t += max(1, round(dist / rng.uniform(6.0, 10.0)))
            dwell = rng.randint(120, 360) if b == stop_ids[-1] else rng.randint(0, 30)
            plan.append(Visit(b, t, t + dwell))
            t += dwell
        if plan[-1].arrive >= end:
            break
        trips.append(Trip(direction, [len(visits) - 1 + i for i in range(len(stop_ids))]))
        visits.extend(plan)
        k += 1
    return visits, trips


def sample_fixes(rng: random.Random, net: Network, visits: list[Visit], phase: int):
    """(time, east, north, exact) fixes of one vehicle, before any outage."""
    fixes = []
    ticks = range(visits[0].arrive + phase, visits[-1].depart + 1, CADENCE_S)
    tick_iter = iter(ticks)
    tick = next(tick_iter, None)
    for index, visit in enumerate(visits):
        stop = net.stops[visit.stop_id]
        fixes.append((visit.arrive, stop.east, stop.north, index))
        while tick is not None and tick <= visit.depart:
            if tick > visit.arrive:
                fixes.append((tick, stop.east, stop.north, index))
            tick = next(tick_iter, None)
        if index + 1 == len(visits):
            break
        nxt = visits[index + 1]
        target = net.stops[nxt.stop_id]
        while tick is not None and tick < nxt.arrive:
            frac = (tick - visit.depart) / (nxt.arrive - visit.depart)
            east = stop.east + frac * (target.east - stop.east) + rng.uniform(-NOISE_M, NOISE_M)
            north = stop.north + frac * (target.north - stop.north) + rng.uniform(-NOISE_M, NOISE_M)
            fixes.append((tick, east, north, None))
            tick = next(tick_iter, None)
    return fixes


def hide_visits(rng: random.Random, visits: list[Visit], trips: list[Trip], line: Line):
    if not line.hide_ok:
        return
    for trip in trips:
        if rng.random() < GAP_SHARE:
            inner = trip.visits[1:-1]
            width = rng.randint(1, 3)
            first = rng.randint(1, len(inner) - width - 1)  # keep both neighbours visible
            for index in inner[first : first + width]:
                visits[index].hidden = True
    terminal_visits = {trip.visits[0] for trip in trips} | {trip.visits[-1] for trip in trips}
    for index in sorted(terminal_visits):
        if rng.random() < ANCHOR_LOSS_SHARE:
            visits[index].hidden = True


def drop_hidden(net: Network, visits: list[Visit], fixes):
    """Remove every fix near a hidden stop while the vehicle is around it."""
    windows = []
    for index, visit in enumerate(visits):
        if visit.hidden:
            lo = visits[index - 1].depart if index > 0 else visit.arrive
            hi = visits[index + 1].arrive if index + 1 < len(visits) else visit.depart
            stop = net.stops[visit.stop_id]
            windows.append((lo, hi, stop.east, stop.north))
    if not windows:
        return fixes
    kept = []
    for fix in fixes:
        t, east, north, _ = fix
        if any(lo <= t <= hi and math.hypot(east - se, north - sn) < HIDE_RADIUS_M for lo, hi, se, sn in windows):
            continue
        kept.append(fix)
    return kept


def _fmt_dthr(t: int) -> str:
    h, rem = divmod(t, 3600)
    m, s = divmod(rem, 60)
    return f"{DTHR_DAY} {h:02d}:{m:02d}:{s:02d}"


def write_workload(workload: str, seed: int, out: Path) -> dict:
    """Generate the inputs of `workload` for `seed` into `out`; return its summary."""
    profile = PROFILES[workload]
    rng = random.Random(f"{workload}:{seed}")
    net = build_network()
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "lines.ndjson", "w", encoding="utf-8") as f:
        for line in net.lines:
            f.write(json.dumps({"code": line.code, "name": line.name, "category": line.category, "color": ""}) + "\n")
    with open(out / "line_points.ndjson", "w", encoding="utf-8") as f:
        for line in net.lines:
            for direction, stop_ids in line.directions.items():
                for seq, sid in enumerate(stop_ids, start=1):
                    stop = net.stops[sid]
                    lat, lon = to_latlon(stop.east, stop.north)
                    record = {
                        "stop_id": sid, "name": stop.name, "stop_type": stop.stop_type,
                        "lat": lat, "lon": lon, "line_code": line.code,
                        "direction": direction, "seq": seq,
                    }
                    f.write(json.dumps(record) + "\n")

    rows = []  # (time, order key, text)
    truth_trips = []
    counts = {"vehicles": 0, "trips": 0, "hidden_interior": 0, "hidden_terminal": 0, "fixes_unique": 0}
    latlon = {sid: to_latlon(s.east, s.north) for sid, s in net.stops.items()}
    for line in net.lines:
        round_trip = 2 * (GRID * 60 + 300)  # about 60 s per stop plus a layover, each way
        n_vehicles = max(1, math.ceil(round_trip / line.headway_s))
        for v in range(n_vehicles):
            vehicle = f"{line.code}-{v:02d}"
            start = profile.start_s + (v // 2) * line.headway_s + rng.randint(0, 60)
            visits, trips = simulate_vehicle(rng, net, line, v % 2, start, profile.end_s)
            if not trips:
                continue
            visits = visits[: trips[-1].visits[-1] + 1]
            hide_visits(rng, visits, trips, line)
            fixes = drop_hidden(net, visits, sample_fixes(rng, net, visits, rng.randrange(CADENCE_S)))
            counts["vehicles"] += 1
            counts["trips"] += len(trips)
            terminal = {t.visits[0] for t in trips} | {t.visits[-1] for t in trips}
            counts["hidden_terminal"] += sum(visits[i].hidden for i in terminal)
            counts["hidden_interior"] += sum(v_.hidden for i, v_ in enumerate(visits) if i not in terminal)
            for t, east, north, index in fixes:
                if index is not None:
                    lat, lon = latlon[visits[index].stop_id]
                else:
                    lat, lon = to_latlon(east, north)
                text = (
                    f'{{"vehicle_id": "{vehicle}", "line_code": "{line.code}", '
                    f'"lat": {lat!r}, "lon": {lon!r}, "dthr": "{_fmt_dthr(t)}"}}\n'
                )
                rows.append((t, rng.random(), text))
                if rng.random() < DUPLICATE_SHARE:
                    rows.append((t, rng.random(), text))
            counts["fixes_unique"] += len(fixes)
            for trip in trips:
                tv = [visits[i] for i in trip.visits]
                truth_trips.append(
                    {
                        "line": line.code, "direction": trip.direction, "vehicle": vehicle,
                        "day": SERVICE_DAY,
                        "stops": [x.stop_id for x in tv],
                        "times": [x.arrive for x in tv],
                        "observed": [not x.hidden for x in tv],
                    }
                )
    rows.sort()
    with open(out / "fixes.ndjson", "w", encoding="utf-8") as f:
        f.writelines(text for _, _, text in rows)
    counts["fixes_written"] = len(rows)
    counts["lines"] = len(net.lines)
    counts["stops"] = len(net.stops)

    summary = {"workload": workload, "seed": seed, "counts": counts}
    with open(out / "truth.json", "w", encoding="utf-8") as f:
        json.dump({**summary, "trips": truth_trips}, f)
    return summary


def write_config(inputs: Path, path: Path, profile: Profile, cluster_radius_m: float) -> None:
    config = {
        "lines_file": str(inputs / "lines.ndjson"),
        "line_points_file": str(inputs / "line_points.ndjson"),
        "fixes_file": str(inputs / "fixes.ndjson"),
        "cluster_radius_m": cluster_radius_m,
        "k_paths": K_PATHS,
        "od_pairs": profile.od_pairs,
        "od_jitter_m": 400.0,
        "od_search_radius_m": 600.0,
        "seed": OD_SEED,
        "jobs": 1,
    }
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
