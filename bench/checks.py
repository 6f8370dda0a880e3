"""Output checks computed apart from the program.

Every check takes the artifact directory (plus the generator's inputs and
ground truth where it needs them) and returns a list of error strings;
an empty list means the check passed. The checks recompute what they
compare against from the inputs, with the benchmark's own code: ground
truth from the generator, brute-force window counts, its own Haversine,
scipy.sparse.csgraph shortest paths and networkx's simple-path ranking.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

EARTH_RADIUS_M = 6_371_000.0
SPAN_MINUTES = (300, 1380)  # the program's default analysis span, 05:00..23:00
WINDOW_MINUTES = 10
MAX_ERRORS = 5


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def seconds(hhmmss: str) -> int:
    h, m, s = hhmmss.split(":")
    return int(h) * 3600 + int(m) * 60 + int(s)


def hhmmss(t: int) -> str:
    return f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}"


class Network:
    """Stops and itineraries read back from the generated NDJSON inputs."""

    def __init__(self, inputs: Path):
        self.stops: dict[str, dict] = {}
        sequences: dict[tuple[str, str], list[tuple[int, str]]] = defaultdict(list)
        with open(inputs / "line_points.ndjson", encoding="utf-8") as f:
            for raw in f:
                rec = json.loads(raw)
                self.stops.setdefault(rec["stop_id"], rec)
                sequences[(rec["line_code"], rec["direction"])].append((rec["seq"], rec["stop_id"]))
        self.itineraries = {key: [sid for _, sid in sorted(seq)] for key, seq in sequences.items()}

    def distance(self, a: str, b: str) -> float:
        sa, sb = self.stops[a], self.stops[b]
        return haversine_m(sa["lat"], sa["lon"], sb["lat"], sb["lon"])

    def availability_key(self, stop_id: str) -> str:
        stop = self.stops.get(stop_id)
        if stop is not None and stop["stop_type"] == "TERMINAL":
            return f"terminal:{stop['name']}"
        return stop_id

    def category(self, key: str) -> str:
        if key.startswith("terminal:"):
            return "TERMINAL"
        return self.stops[key]["stop_type"] if key in self.stops else "STREET_STOP"


def _cap(errors: list[str]) -> list[str]:
    if len(errors) > MAX_ERRORS:
        return errors[:MAX_ERRORS] + [f"... and {len(errors) - MAX_ERRORS} more"]
    return errors


# ── Detection against the generator's ground truth ──────────────────────


def detected_trips(out: Path) -> dict[tuple, list[dict]]:
    trips: dict[tuple, list[dict]] = defaultdict(list)
    for row in read_csv(out / "detected_itineraries.csv"):
        key = (row["line_code"], row["direction"], row["vehicle_id"], row["day"], int(row["trip"]))
        trips[key].append(row)
    for rows in trips.values():
        rows.sort(key=lambda r: int(r["position"]))
    return trips


def truth_index(truth: dict) -> dict[tuple, dict]:
    """Generated trips whose two end stops were observed, by signature."""
    index = {}
    for trip in truth["trips"]:
        if trip["observed"][0] and trip["observed"][-1]:
            sig = (trip["line"], trip["direction"], trip["vehicle"], trip["day"], trip["times"][0], trip["times"][-1])
            index[sig] = trip
    return index


def _signature(key: tuple, rows: list[dict]) -> tuple:
    """(line, direction, vehicle, day, first time, last time) of a detected trip."""
    return (*key[:4], seconds(rows[0]["time"]), seconds(rows[-1]["time"]))


def check_accepted_trips(out: Path, truth: dict) -> list[str]:
    """Every accepted trip is a generated trip whose two end stops were observed, once.

    The converse, that every such generated trip is accepted, does not
    hold at this version: on a vehicle that shuttles back and forth, a trip
    with a hidden interior stop is rejected (see the benchmark README), so
    it is counted by `trip_recall`; `check_complete_trips` checks the part
    that holds.
    """
    expected = truth_index(truth)
    found: dict[tuple, tuple] = {}
    errors = []
    for key, rows in detected_trips(out).items():
        sig = _signature(key, rows)
        if sig in found:
            errors.append(f"trip {key} duplicates {found[sig]}")
        elif sig not in expected:
            errors.append(f"accepted trip {key} matches no generated trip with both ends observed")
        found[sig] = key
    return _cap(errors)


def check_complete_trips(out: Path, truth: dict) -> list[str]:
    """Every generated trip whose stops were all observed is accepted."""
    found = {_signature(key, rows) for key, rows in detected_trips(out).items()}
    errors = [
        f"fully observed trip {sig} was not accepted"
        for sig, trip in sorted(truth_index(truth).items())
        if all(trip["observed"]) and sig not in found
    ]
    return _cap(errors)


def trip_recall(out: Path, truth: dict) -> tuple[int, int]:
    """(accepted, generated) trips among those whose two end stops were observed."""
    expected = truth_index(truth)
    found = {_signature(key, rows) for key, rows in detected_trips(out).items()}
    return len(found & set(expected)), len(expected)


def check_observed_times(out: Path, truth: dict) -> list[str]:
    """Every OBSERVED time is the true passage time, and every true passage is observed."""
    expected = truth_index(truth)
    errors = []
    for key, rows in detected_trips(out).items():
        trip = expected.get(_signature(key, rows))
        if trip is None:
            continue  # reported by check_accepted_trips
        if [r["stop_id"] for r in rows] != trip["stops"]:
            errors.append(f"trip {key}: stop sequence differs from the itinerary")
            continue
        for row, t, seen in zip(rows, trip["times"], trip["observed"]):
            if row["provenance"] == "OBSERVED" and row["time"] != hhmmss(t):
                errors.append(f"trip {key} position {row['position']}: observed {row['time']}, true {hhmmss(t)}")
            elif seen and row["provenance"] != "OBSERVED":
                errors.append(f"trip {key} position {row['position']}: observed passage reported as {row['provenance']}")
    return _cap(errors)


def check_interpolated_times(out: Path, network: Network) -> list[str]:
    """Positions are complete, times non-decreasing, interpolations inside their anchors."""
    errors = []
    for key, rows in detected_trips(out).items():
        stops = network.itineraries.get((key[0], key[1]))
        positions = [int(r["position"]) for r in rows]
        if stops is None or positions != list(range(1, len(stops) + 1)):
            errors.append(f"trip {key}: positions {positions[:3]}... do not cover its itinerary")
            continue
        times = [seconds(r["time"]) for r in rows]
        if any(b < a for a, b in zip(times, times[1:])):
            errors.append(f"trip {key}: times decrease")
        kinds = [r["provenance"] for r in rows]
        if kinds[0] != "OBSERVED" or kinds[-1] != "OBSERVED":
            errors.append(f"trip {key}: an end position is not OBSERVED")
            continue
        anchor = 0
        for i, kind in enumerate(kinds):
            if kind == "OBSERVED":
                anchor = i
            elif kind == "INTERPOLATED":
                nxt = next(j for j in range(i + 1, len(kinds)) if kinds[j] == "OBSERVED")
                if not times[anchor] < times[i] < times[nxt]:
                    errors.append(f"trip {key} position {i + 1}: {rows[i]['time']} outside its anchors")
            else:
                errors.append(f"trip {key} position {i + 1}: unknown provenance {kind!r}")
    return _cap(errors)


# ── Availability, daily averages and outliers ───────────────────────────


def window_counts(out: Path, network: Network) -> dict[str, list[int]]:
    """Brute-force sliding-window passage counts per availability key (one day)."""
    times: dict[tuple[str, str], list[int]] = defaultdict(list)
    for row in read_csv(out / "detected_itineraries.csv"):
        times[(row["day"], network.availability_key(row["stop_id"]))].append(seconds(row["time"]))
    starts = range(SPAN_MINUTES[0], SPAN_MINUTES[1] - WINDOW_MINUTES + 1)
    days = sorted({day for day, _ in times})
    if len(days) != 1:
        raise ValueError(f"the benchmark generates one service day, found {days}")
    counts = {}
    for (_, key), ts in times.items():
        ts.sort()
        counts[key] = [
            bisect.bisect_left(ts, (m + WINDOW_MINUTES) * 60) - bisect.bisect_left(ts, m * 60) for m in starts
        ]
    return counts


def daily_averages(counts: dict[str, list[int]]) -> dict[str, float]:
    return {key: sum(c) / len(c) for key, c in counts.items()}


def check_availability(out: Path, network: Network) -> list[str]:
    """Daily averages and category series equal a brute-force recount of the detections."""
    counts = window_counts(out, network)
    averages = daily_averages(counts)
    errors = []
    rows = {r["key"]: r for r in read_csv(out / "stop_daily_averages.csv")}
    if set(rows) != set(averages):
        errors.append(f"daily-average keys differ: {sorted(set(rows) ^ set(averages))[:5]}")
    for key in sorted(set(rows) & set(averages)):
        if abs(float(rows[key]["daily_avg_buses"]) - averages[key]) > 1e-6:
            errors.append(f"{key}: daily average {rows[key]['daily_avg_buses']}, recount {averages[key]:.6f}")
        if rows[key]["category"] != network.category(key):
            errors.append(f"{key}: category {rows[key]['category']}, expected {network.category(key)}")

    by_category: dict[str, list[list[int]]] = defaultdict(list)
    for key, c in counts.items():
        by_category[network.category(key)].append(c)
    series: dict[tuple[str, int], float] = {}
    for row in read_csv(out / "availability_by_category.csv"):
        series[(row["category"], int(row["start_minute"]))] = float(row["mean_count"])
    starts = range(SPAN_MINUTES[0], SPAN_MINUTES[1] - WINDOW_MINUTES + 1)
    expected = {
        (category, m): sum(v[i] for v in vectors) / len(vectors)
        for category, vectors in by_category.items()
        for i, m in enumerate(starts)
    }
    if set(series) != set(expected):
        errors.append("availability rows do not cover every category and window start")
    for cell in sorted(set(series) & set(expected)):
        if abs(series[cell] - expected[cell]) > 1e-6:
            errors.append(f"availability {cell}: {series[cell]}, recount {expected[cell]:.6f}")
    return _cap(errors)


def check_outliers(out: Path, network: Network) -> list[str]:
    """Outlier flags follow Q3 + 1.5 IQR per category (terminals never flagged)."""
    averages = daily_averages(window_counts(out, network))
    by_category: dict[str, list[str]] = defaultdict(list)
    for key in averages:
        by_category[network.category(key)].append(key)
    expected = set()
    for category, keys in by_category.items():
        if len(keys) < 4 or category == "TERMINAL":
            continue
        q1, _, q3 = statistics.quantiles([averages[k] for k in keys], n=4, method="inclusive")
        fence = q3 + 1.5 * (q3 - q1)
        expected |= {k for k in keys if averages[k] > fence}
    flagged = {r["key"] for r in read_csv(out / "stop_daily_averages.csv") if r["outlier"] == "1"}
    errors = [f"{k}: flagged but under the fence" for k in sorted(flagged - expected)]
    errors += [f"{k}: above the fence but not flagged" for k in sorted(expected - flagged)]
    return _cap(errors)


# ── Clusters ────────────────────────────────────────────────────────────


def read_clusters(out: Path) -> list[tuple[str, set[str]]]:
    return [
        (r["centroid_stop_id"], set(r["members"].split(";")) if r["members"] else set())
        for r in read_csv(out / "clusters.csv")
    ]


def check_clusters(out: Path, network: Network, radius_m: float) -> list[str]:
    """Members are exactly the stops within the radius; greedy covers every outlier stop."""
    errors = []
    clusters = read_clusters(out)
    averages = {r["key"]: float(r["daily_avg_buses"]) for r in read_csv(out / "stop_daily_averages.csv")}
    outliers = {
        r["key"] for r in read_csv(out / "stop_daily_averages.csv") if r["outlier"] == "1" and r["key"] in network.stops
    }
    covered: set[str] = set()
    previous = None
    for centroid, members in clusters:
        expected = {s for s in network.stops if network.distance(centroid, s) <= radius_m}
        if members != expected:
            errors.append(
                f"cluster {centroid}: missing {sorted(expected - members)[:3]}, extra {sorted(members - expected)[:3]}"
            )
        if centroid not in outliers:
            errors.append(f"cluster {centroid}: centroid is not an outlier stop")
        if centroid in covered:
            errors.append(f"cluster {centroid}: centroid already covered by an earlier cluster")
        rank = (-averages.get(centroid, 0.0), centroid)
        if previous is not None and rank < previous:
            errors.append(f"cluster {centroid}: centroids not in descending order of daily average")
        previous = rank
        covered |= members
    for stop in sorted(outliers - covered):
        errors.append(f"outlier stop {stop} is in no cluster")
    return _cap(errors)


# ── Routing ─────────────────────────────────────────────────────────────


def od_pairs(network: Network, config: dict):
    """The OD pairs the route stage samples: its own seeded generator on the input stops."""
    from types import SimpleNamespace

    from bustrace.synthetic import generate_od_pairs

    stops = {sid: SimpleNamespace(lat=s["lat"], lon=s["lon"]) for sid, s in network.stops.items()}
    return generate_od_pairs(stops, config["od_pairs"], seed=config["seed"], jitter_m=config.get("od_jitter_m", 400.0))


def _access(network: Network, point, radius_m: float) -> dict[str, float]:
    found = {}
    for sid, s in network.stops.items():
        d = haversine_m(point.lat, point.lon, s["lat"], s["lon"])
        if d <= radius_m:
            found[sid] = d
    return found


def shortest_distances(network: Network, clusters, pairs, radius_m: float) -> list[float]:
    """Stop-to-stop graph (ride hops, cluster walks, access legs) solved with csgraph."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    index = {sid: i for i, sid in enumerate(sorted(network.stops))}
    n = len(index)
    edges: dict[tuple[int, int], float] = {}

    def add(a: int, b: int, w: float):
        if w < edges.get((a, b), math.inf):
            edges[(a, b)] = w

    for stops in network.itineraries.values():
        for a, b in zip(stops, stops[1:]):
            add(index[a], index[b], network.distance(a, b))
    for _, members in clusters:
        for a in members:
            for b in members:
                if a != b:
                    add(index[a], index[b], network.distance(a, b))
    origin, dest = n, n + 1
    result = []
    for pair in pairs:
        local = dict(edges)
        for sid, d in _access(network, pair.origin, radius_m).items():
            local[(origin, index[sid])] = d
        for sid, d in _access(network, pair.destination, radius_m).items():
            local[(index[sid], dest)] = d
        keys = list(local)
        matrix = coo_matrix(
            ([local[k] for k in keys], ([k[0] for k in keys], [k[1] for k in keys])), shape=(n + 2, n + 2)
        ).tocsr()
        dist = dijkstra(matrix, directed=True, indices=origin)
        result.append(float(dist[dest]) if np.isfinite(dist[dest]) else math.inf)
    return result


def check_routes(out: Path, network: Network, config: dict) -> list[str]:
    """Each selected distance is the true shortest; clustered never beats base from above."""
    pairs = od_pairs(network, config)
    radius = config.get("od_search_radius_m", 600.0)
    results = {(int(r["pair_id"]), r["network"]): r for r in read_csv(out / "od_results.csv")}
    errors = []
    if len(results) != 2 * len(pairs):
        errors.append(f"od_results has {len(results)} rows for {len(pairs)} pairs")
    for label, clusters in (("base", []), ("clustered", read_clusters(out))):
        for pair_id, best in enumerate(shortest_distances(network, clusters, pairs, radius)):
            row = results.get((pair_id, label))
            if row is None:
                continue
            if math.isinf(best):
                if row["feasible"] != "0":
                    errors.append(f"pair {pair_id} {label}: reported feasible, no path exists")
            elif row["feasible"] != "1":
                errors.append(f"pair {pair_id} {label}: reported infeasible, shortest is {best:.3f} m")
            elif abs(float(row["distance_m"]) - best) > 1e-3:
                errors.append(f"pair {pair_id} {label}: distance {row['distance_m']}, shortest {best:.6f}")
    for pair_id in range(len(pairs)):
        base, clustered = results.get((pair_id, "base")), results.get((pair_id, "clustered"))
        if base and clustered and base["feasible"] == "1":
            if clustered["feasible"] != "1" or float(clustered["distance_m"]) > float(base["distance_m"]) + 1e-6:
                errors.append(f"pair {pair_id}: clustered trip longer than base")
    return _cap(errors)


def transit_graph(network: Network, clusters, pair, radius_m: float):
    """The program's node graph (stop and riding nodes) as a networkx DiGraph."""
    import networkx as nx

    g = nx.DiGraph()
    for (line, direction), stops in network.itineraries.items():
        for sid in stops:
            ride = ("ride", line, direction, sid)
            g.add_edge(("stop", sid), ride, weight=0.0)
            g.add_edge(ride, ("stop", sid), weight=0.0)
        for a, b in zip(stops, stops[1:]):
            g.add_edge(("ride", line, direction, a), ("ride", line, direction, b), weight=network.distance(a, b))
    for _, members in clusters:
        for a in members:
            for b in members:
                if a != b:
                    g.add_edge(("stop", a), ("stop", b), weight=network.distance(a, b))
    for sid, d in _access(network, pair.origin, radius_m).items():
        g.add_edge(("od", "origin"), ("stop", sid), weight=d)
    for sid, d in _access(network, pair.destination, radius_m).items():
        g.add_edge(("stop", sid), ("od", "destination"), weight=d)
    return g


def check_ranked_paths(out: Path, network: Network, config: dict, sample: list[int]) -> list[str]:
    """Ranked path weights equal the first K of networkx.shortest_simple_paths."""
    import networkx as nx

    pairs = od_pairs(network, config)
    radius = config.get("od_search_radius_m", 600.0)
    k = config["k_paths"]
    ranked: dict[tuple[int, str], list[float]] = defaultdict(list)
    for r in read_csv(out / "od_paths.csv"):
        ranked[(int(r["pair_id"]), r["network"])].append((int(r["rank"]), float(r["distance_m"])))
    errors = []
    for label, clusters in (("base", []), ("clustered", read_clusters(out))):
        for pair_id in sample:
            g = transit_graph(network, clusters, pairs[pair_id], radius)
            expected = []
            if g.has_node(("od", "origin")) and g.has_node(("od", "destination")):
                try:
                    for path in nx.shortest_simple_paths(g, ("od", "origin"), ("od", "destination"), weight="weight"):
                        expected.append(sum(g[a][b]["weight"] for a, b in zip(path, path[1:])))
                        if len(expected) == k:
                            break
                except nx.NetworkXNoPath:
                    pass
            got = [w for _, w in sorted(ranked.get((pair_id, label), []))]
            if len(got) != len(expected) or any(abs(a - b) > 1e-4 for a, b in zip(got, expected)):
                errors.append(f"pair {pair_id} {label}: ranked weights {got[:3]}... expected {expected[:3]}...")
    return _cap(errors)


# ── Determinism ─────────────────────────────────────────────────────────


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


def check_identical(first: dict[str, str], out: Path) -> list[str]:
    """A repeated run of the same inputs writes byte-identical artifacts."""
    now = digests(out)
    return _cap([f"{name} differs between runs" for name in sorted(set(first) | set(now)) if first.get(name) != now.get(name)])
