"""Transit graph construction and K-shortest-path trip evaluation.

One indexed graph serves from build to search: its nodes are numbered in
sorted order, and each node id maps to its successors' ids and each step's
weight, and back. It keeps one node per stop, one node per (line,
direction, stop) riding state and the origin/destination pair, built once
per network; the clustered graph adds walks to a copy of the base graph's
maps. A step's kind follows from its endpoints: stop → ride boards and
ride → stop alights, both 0 m; ride → ride rides between consecutive
itinerary stops, weighted by their Haversine distance; stop → stop walks
between two members of one cluster, weighted by the walk; and a step from
the origin or to the destination is access to a stop within the search
radius. All weights are meters and non-negative, so trip distance
minimization runs on Dijkstra inside Yen's loopless K-shortest-path
scheme. Each spur search is two passes: an A* search, guided by every
node's distance to the destination, finds the spur path's weight, and the
Dijkstra, bounded at that weight, returns the path. An OD trip is its
ranked paths: a list of (weight, node path) pairs, lightest first, empty
when the trip is infeasible. A network's summary numbers are read off each
feasible trip's lightest path, whose transfers are its changes of line
between consecutive ride steps.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .geo import DEFAULT_OD_SEARCH_RADIUS_M, GeoPoint, haversine, haversine_matrix, nearest_stops, offset_point
from .model import DEFAULT_K, DEFAULT_OD_JITTER_M, BusStop, Cluster, ItineraryDef

Node = tuple[str, ...]
# A trip's (weight, node path) pairs, lightest first
RankedPaths = list[tuple[float, list[Node]]]

ORIGIN: Node = ("od", "origin")
DESTINATION: Node = ("od", "destination")


def stop_node(stop_id: str) -> Node:
    return ("stop", stop_id)


def ride_node(line_code: str, direction: str, stop_id: str) -> Node:
    return ("ride", line_code, direction, stop_id)


@dataclass(frozen=True)
class TransitGraph:
    """The integer-indexed graph that the shortest-path searches run on.

    Node ids follow sorted Node order, so ``(dist, id)`` heap ties pop in
    the order ``(dist, node)`` ties would, and id paths compare as node
    paths do. ``out[a]`` maps each successor of ``a`` to the step's weight
    in meters; ``into`` is ``out`` reversed. A network's graph indexes the
    ORIGIN/DESTINATION pair and every stop node, so :meth:`with_access`
    can attach any trip's endpoints.
    """

    nodes: list[Node]
    ids: dict[Node, int]
    out: list[dict[int, float]]
    into: list[dict[int, float]]
    stops: dict[str, BusStop]

    @classmethod
    def build(
        cls,
        adjacency: Mapping[Node, Mapping[Node, float]],
        extra: Iterable[Node] = (),
        stops: Mapping[str, BusStop] | None = None,
    ) -> "TransitGraph":
        """Index every node of the adjacency (keys and successors) plus ``extra``."""
        nodes = set(adjacency)
        nodes.update(extra)
        for successors in adjacency.values():
            nodes.update(successors)
        ordered = sorted(nodes)
        ids = {node: i for i, node in enumerate(ordered)}
        out: list[dict[int, float]] = [{} for _ in ordered]
        into: list[dict[int, float]] = [{} for _ in ordered]
        for node, successors in adjacency.items():
            a = ids[node]
            for target, w in successors.items():
                b = ids[target]
                out[a][b] = into[b][a] = w
        return cls(ordered, ids, out, into, dict(stops or {}))

    @property
    def adjacency(self) -> dict[Node, dict[Node, float]]:
        """Each node with at least one step, in or out, mapped to its successors' weights.

        Built on each read; editing it leaves the graph as it is.
        """
        nodes = self.nodes
        return {
            node: {nodes[b]: w for b, w in out.items()}
            for node, out, into in zip(nodes, self.out, self.into)
            if out or into
        }

    def with_access(
        self, origin_stops: Sequence[tuple[str, float]], dest_stops: Sequence[tuple[str, float]]
    ) -> "TransitGraph":
        """A view whose ORIGIN and DESTINATION carry one trip's access edges.

        ORIGIN links to each origin stop in the given order, and each
        destination stop gains an edge to DESTINATION after its own edges.
        Only the touched nodes' maps are copied; the rest are shared.
        """
        out, into = list(self.out), list(self.into)
        origin, destination = self.ids[ORIGIN], self.ids[DESTINATION]
        for end, stops in ((origin, origin_stops), (destination, dest_stops)):
            out[end], into[end] = {}, {}
            for stop_id, dist in stops:
                stop = self.ids[stop_node(stop_id)]
                a, b = (end, stop) if end == origin else (stop, end)
                out[a], into[b] = dict(out[a]), dict(into[b])
                out[a][b] = into[b][a] = dist
        return replace(self, out=out, into=into)


def build_graph(
    itineraries: Sequence[ItineraryDef], stops: Mapping[str, BusStop]
) -> TransitGraph:
    """Index the board, alight and ride steps of a set of itineraries; a ride
    step that itineraries repeat keeps its lighter weight."""
    steps: dict[Node, dict[Node, float]] = {}
    for iti in sorted(itineraries, key=lambda i: (i.line_code, i.direction)):
        stop_ids = iti.stop_ids
        for stop_id in stop_ids:
            if stop_id not in stops:
                raise ValueError(
                    f"itinerary {iti.line_code}/{iti.direction} references unknown stop {stop_id}"
                )
        for stop_id in stop_ids:
            rn = ride_node(iti.line_code, iti.direction, stop_id)
            steps.setdefault(stop_node(stop_id), {})[rn] = 0.0
            steps.setdefault(rn, {})[stop_node(stop_id)] = 0.0
        lats = np.array([stops[stop_id].lat for stop_id in stop_ids])
        lons = np.array([stops[stop_id].lon for stop_id in stop_ids])
        lengths = haversine(lats[:-1], lons[:-1], lats[1:], lons[1:]).tolist()
        for a, b, length in zip(stop_ids, stop_ids[1:], lengths):
            if length <= 0.0:
                raise ValueError(
                    f"itinerary {iti.line_code}/{iti.direction}: consecutive stops "
                    f"{a} and {b} coincide"
                )
            successors = steps.setdefault(ride_node(iti.line_code, iti.direction, a), {})
            ride = ride_node(iti.line_code, iti.direction, b)
            successors[ride] = min(length, successors.get(ride, _INF))
    return TransitGraph.build(steps, [ORIGIN, DESTINATION, *map(stop_node, stops)], stops)


def add_cluster_transfers(graph: TransitGraph, clusters: Sequence[Cluster]) -> TransitGraph:
    """Return a copy of the graph with walk steps between cluster members.

    Every unordered member pair gains a walk each way, weighted by the walk
    distance; a step added twice keeps the lighter weight, so re-application
    is a no-op.
    """
    out, into = [dict(m) for m in graph.out], [dict(m) for m in graph.into]
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        members = cluster.member_list
        for member in members:
            if member not in graph.stops:
                raise ValueError(f"cluster {cluster.cluster_id} references unknown stop {member}")
        ids = [graph.ids[stop_node(m)] for m in members]
        lats = np.array([graph.stops[m].lat for m in members])
        lons = np.array([graph.stops[m].lon for m in members])
        walks = haversine_matrix(lats, lons, lats, lons).tolist()
        for i, a in enumerate(ids):
            for b, walk in zip(ids[i + 1 :], walks[i][i + 1 :]):
                for s, t in ((a, b), (b, a)):
                    if walk < out[s].get(t, _INF):
                        out[s][t] = into[t][s] = walk
    return replace(graph, out=out, into=into)


# ── Shortest paths ──────────────────────────────────────────────────────

_INF = float("inf")
# Search limit when no bound applies: nodes that cannot reach the target
# (reverse distance inf) still fail ``label + inf <= _NO_LIMIT``.
_NO_LIMIT = sys.float_info.max
# Relative float slack of the search bounds. A label plus a reverse distance
# and a canonical path weight sum the same edges in different orders;
# their rounding differs by far less than this share of a path's weight.
_BOUND_SLACK = 1e-9


def _above(weight: float) -> float:
    """A search limit that no path of this weight, summed in any order, exceeds."""
    return weight + _BOUND_SLACK * (1.0 + weight)


def _distances_to(graph: TransitGraph, target: int) -> list[float]:
    """Shortest distance from every node to the target (inf if none)."""
    into = graph.into
    dist = [_INF] * len(graph.nodes)
    dist[target] = 0.0
    heap = [(0.0, target)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for prev, w in into[node].items():
            candidate = d + w
            if candidate < dist[prev]:
                dist[prev] = candidate
                heapq.heappush(heap, (candidate, prev))
    return dist


def _shortest_path(
    out: list[dict[int, float]],
    to_target: list[float],
    source: int,
    target: int,
    blocked: bytearray,
    source_out: Mapping[int, float],
    limit: float,
) -> list[int] | None:
    """Dijkstra from source to target; the node path, or None.

    ``blocked`` marks the banned nodes and is used, and filled, as the
    done set. ``source_out`` is ``out[source]`` less the banned edges,
    which all leave the spur node. A label is dropped when it plus the
    node's distance to the target exceeds ``limit``: nodes on every path
    within the limit keep the labels, parents and pop order of an
    unbounded search, so the path found is the same.
    """
    best = {source: 0.0}
    parent: dict[int, int] = {}
    heap = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if blocked[node]:
            continue
        blocked[node] = 1
        if node == target:
            break
        for nxt, w in (source_out if node == source else out[node]).items():
            if blocked[nxt]:
                continue
            candidate = dist + w
            if candidate < best.get(nxt, _INF) and candidate + to_target[nxt] <= limit:
                best[nxt] = candidate
                parent[nxt] = node
                heapq.heappush(heap, (candidate, nxt))
    else:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _spur_weight(
    out: list[dict[int, float]],
    to_target: list[float],
    source: int,
    target: int,
    blocked: bytearray,
    source_out: Mapping[int, float],
    limit: float,
) -> float | None:
    """A* from source to target under the bans of :func:`_shortest_path`;
    the weight of a shortest path, or None when no path fits ``limit``.

    ``to_target`` is a consistent heuristic, up to rounding. Stale heap
    entries are skipped by label rather than by a done set, so a node whose
    label a rounding difference lowers after its first pop is expanded
    again. ``blocked`` is only read.
    """
    best = {source: 0.0}
    heap = [(to_target[source], 0.0, source)]
    while heap:
        _, dist, node = heapq.heappop(heap)
        if node == target:
            return dist
        if dist > best[node]:
            continue
        for nxt, w in (source_out if node == source else out[node]).items():
            if blocked[nxt]:
                continue
            candidate = dist + w
            estimate = candidate + to_target[nxt]
            if candidate < best.get(nxt, _INF) and estimate <= limit:
                best[nxt] = candidate
                heapq.heappush(heap, (estimate, candidate, nxt))
    return None


def _prefix_weights(out: list[dict[int, float]], path: Sequence[int]) -> list[float]:
    """Canonical left-to-right weight sums of each prefix of a node path."""
    sums = [0.0]
    for a, b in zip(path, path[1:]):
        sums.append(sums[-1] + out[a][b])
    return sums


def _yen(graph: TransitGraph, source: int, target: int, k: int) -> list[tuple[float, list[int]]]:
    """Yen's K loopless shortest paths over node ids, unsorted ties included.

    Lawler's partition. S(R, N) is the set of simple paths that start with
    the root R and whose node after R is not in N; every candidate is the
    lightest path of one such set, the first path that of S([source], {}).
    Accepting A from S(A[:d+1], N_A), d being the index at which A left its
    parent, splits that set less A into A's spur sets: S(A[:d+1], N_A |
    {A[d+1]}) and S(A[:i+1], {A[i+1]}) for d < i < len(A) - 1. By
    induction all spur sets are disjoint, so the accepted paths sharing
    A[:d+1] go on to exactly N_A | {A[d+1]}, none but A shares a longer
    root, and no spur returns a path already accepted or a candidate. A
    spur pruned by a bound drops its set whole.

    Bounded spurs: once the candidates hold R = k - len(accepted) paths, a
    candidate heavier than the R-th lightest, W, can never be accepted, so
    each spur search drops labels that cannot end within W.

    Spurs bounded by their own weight: :func:`_spur_weight` first finds the
    spur's weight under the same bans and limit, and the Dijkstra then runs
    bounded just above it, which returns the path an unbounded search
    would. A spur with no path within the limit skips the Dijkstra. Both
    passes read one map of the spur's allowed successors.
    """
    n = len(graph.nodes)
    out = graph.out
    to_target = _distances_to(graph, target)
    if to_target[source] == _INF:
        return []
    # the reverse search has already found the first path's weight
    first = _shortest_path(out, to_target, source, target, bytearray(n), out[source], _above(to_target[source]))
    accepted = [(_prefix_weights(out, first)[-1], first)]
    deviations = [0]
    candidates: list[tuple[float, list[int], int]] = []

    while len(accepted) < k:
        _, base_path = accepted[-1]
        deviation = deviations[-1]
        room = k - len(accepted)
        # negated weights of the `room` lightest candidates (a max-heap)
        lightest = [-w for w, _, _ in heapq.nsmallest(room, candidates)]
        heapq.heapify(lightest)
        prefix = _prefix_weights(out, base_path)
        banned = bytearray(n)
        for node in base_path[:deviation]:
            banned[node] = 1
        root = base_path[: deviation + 1]
        banned_next = {path[deviation + 1] for _, path in accepted if path[: deviation + 1] == root}
        for spur_idx in range(deviation, len(base_path) - 1):
            spur = base_path[spur_idx]
            blocked = bytearray(banned)  # the root's nodes before the spur
            banned[spur] = 1
            if spur_idx > deviation:
                banned_next = {base_path[spur_idx + 1]}
            limit = _NO_LIMIT
            if len(lightest) >= room:
                bound = -lightest[0]
                limit = _above(bound) - prefix[spur_idx]
            spur_out = {nxt: w for nxt, w in out[spur].items() if nxt not in banned_next}
            spur_weight = _spur_weight(out, to_target, spur, target, blocked, spur_out, limit)
            if spur_weight is None:
                continue
            limit = min(limit, _above(spur_weight))
            spur_path = _shortest_path(out, to_target, spur, target, blocked, spur_out, limit)
            if spur_path is None:
                raise RuntimeError(f"spur search from node {spur} lost a path of weight {spur_weight}")
            candidate = base_path[:spur_idx] + spur_path
            w = _prefix_weights(out, candidate)[-1]
            heapq.heappush(candidates, (w, candidate, spur_idx))
            heapq.heappush(lightest, -w)
            if len(lightest) > room:
                heapq.heappop(lightest)
        if not candidates:
            break
        w, path, spur_idx = heapq.heappop(candidates)
        accepted.append((w, path))
        deviations.append(spur_idx)
    return accepted


def yen_k_shortest(
    graph: TransitGraph | Mapping[Node, Mapping[Node, float]],
    source: Node,
    target: Node,
    k: int = DEFAULT_K,
) -> RankedPaths:
    """Up to k loopless paths in ascending (weight, path) order.

    The graph is a :class:`TransitGraph` or an adjacency mapping; a node that is only a
    successor is still a node. The first path equals the plain shortest
    path; fewer than k paths come back when the graph runs out of simple
    paths. Weights are recomputed as left-to-right sums of the steps'
    weights, so equal paths always compare equal.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if source == target:
        raise ValueError("source and target must differ")
    if not isinstance(graph, TransitGraph):
        graph = TransitGraph.build(graph)
    if source not in graph.ids or target not in graph.ids:
        return []
    found = _yen(graph, graph.ids[source], graph.ids[target], k)
    found.sort(key=lambda item: (item[0], item[1]))
    return [(w, [graph.nodes[i] for i in path]) for w, path in found]


# ── OD evaluation ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class ODPair:
    origin: GeoPoint
    destination: GeoPoint


def generate_od_pairs(
    stops: Mapping[str, BusStop], count: int, seed: int = 0, jitter_m: float = DEFAULT_OD_JITTER_M
) -> list[ODPair]:
    """Seeded OD pairs with endpoint density proportional to stop density.

    Each endpoint is a uniformly chosen stop plus a uniform east/north
    offset of at most ``jitter_m``.
    """
    rng = np.random.default_rng(seed)
    stop_list = [stops[s] for s in sorted(stops)]
    if not stop_list:
        raise ValueError("cannot sample OD pairs without stops")

    def sample() -> GeoPoint:
        stop = stop_list[int(rng.integers(len(stop_list)))]
        return offset_point(
            GeoPoint(stop.lat, stop.lon),
            float(rng.uniform(-jitter_m, jitter_m)),
            float(rng.uniform(-jitter_m, jitter_m)),
        )

    return [ODPair(origin=sample(), destination=sample()) for _ in range(count)]


def stop_sequence(path: Sequence[Node]) -> list[str]:
    """The stop ids a path visits, a stop repeated back to back listed once."""
    seen: list[str] = []
    for node in path:
        if node[0] == "stop" and (not seen or seen[-1] != node[1]):
            seen.append(node[1])
    return seen


def count_transfers(path: Sequence[Node]) -> int:
    """Changes of line between a path's consecutive ride steps.

    A ride step joins two ``("ride", line, direction, stop)`` nodes of
    one line; boarding, alighting, walks and access never count.
    """
    lines = [a[1] for a, b in zip(path, path[1:]) if a[0] == b[0] == "ride"]
    return sum(x != y for x, y in zip(lines, lines[1:]))


def evaluate_trip(
    graph: TransitGraph,
    pair: ODPair,
    k: int = DEFAULT_K,
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> RankedPaths:
    """Route one OD pair: its up to k ranked paths, lightest first.

    The list is empty when the trip is infeasible: either end has no stop
    within ``radius_m``, or no path joins them.
    """
    origin_stops = nearest_stops(pair.origin, graph.stops, radius_m)
    dest_stops = nearest_stops(pair.destination, graph.stops, radius_m)
    if not origin_stops or not dest_stops:
        return []
    return yen_k_shortest(graph.with_access(origin_stops, dest_stops), ORIGIN, DESTINATION, k)


def evaluate_od(
    pairs: Sequence[ODPair],
    g_base: TransitGraph,
    g_clustered: TransitGraph,
    k: int = DEFAULT_K,
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> dict[str, list[RankedPaths]]:
    """Every pair's ranked paths on the base and the clustered network.

    Each network maps to one list in pair order, so index i is pair i on
    both. The clustered graph's steps are a superset of the base graph's,
    so per-pair minimum distances can only shrink.
    """
    return {
        network: [evaluate_trip(graph, pair, k, radius_m) for pair in pairs]
        for network, graph in (("base", g_base), ("clustered", g_clustered))
    }


class NetworkSummary(NamedTuple):
    """One network's trip numbers, in the order of ``od_summary.csv``'s columns after ``network``."""

    feasible: int
    infeasible: int
    mean_distance_m: float
    q1_distance_m: float
    median_distance_m: float
    q3_distance_m: float
    mean_transfers: float


def summarize(trips: Sequence[RankedPaths]) -> NetworkSummary:
    """Count the feasible trips and read the distance and transfer numbers off their lightest paths.

    Infeasible trips are counted and left out of the numbers, which are
    NaN when no trip is feasible. The quartiles interpolate linearly.
    """
    best = [paths[0] for paths in trips if paths]
    if not best:
        return NetworkSummary(0, len(trips), *[float("nan")] * 5)
    distances = np.array([weight for weight, _ in best])
    q1, q2, q3 = np.quantile(distances, [0.25, 0.5, 0.75], method="linear").tolist()
    mean_transfers = float(np.mean([count_transfers(path) for _, path in best]))
    return NetworkSummary(len(best), len(trips) - len(best), float(np.mean(distances)), q1, q2, q3, mean_transfers)
