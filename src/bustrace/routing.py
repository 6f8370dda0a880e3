"""Transit graph construction and K-shortest-path trip evaluation.

The graph keeps one node per stop and one node per (line, direction, stop)
riding state. Boarding and alighting edges between them carry zero length;
ride edges carry the Haversine distance of consecutive itinerary stops.
Cluster transfer edges connect member stop nodes directly, weighted by the
walk between them, and origin/destination access edges attach trip
endpoints to every stop within the search radius. All weights are meters
and non-negative, so trip distance minimization runs on Dijkstra inside
Yen's loopless K-shortest-path scheme.
"""

from __future__ import annotations

import enum
import heapq
import sys
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .clustering import Cluster
from .geo import GeoPoint, haversine_distance, haversine_matrix
from .model import BusStop, ItineraryDef

DEFAULT_K = 30
DEFAULT_OD_SEARCH_RADIUS_M = 600.0

Node = tuple[str, ...]

ORIGIN: Node = ("od", "origin")
DESTINATION: Node = ("od", "destination")


class EdgeKind(enum.Enum):
    RIDE = "RIDE"
    BOARD = "BOARD"
    ALIGHT = "ALIGHT"
    TRANSFER = "TRANSFER"
    ACCESS = "ACCESS"


@dataclass(frozen=True)
class Edge:
    target: Node
    weight_m: float
    kind: EdgeKind
    line_code: str = ""


def stop_node(stop_id: str) -> Node:
    return ("stop", stop_id)


def ride_node(line_code: str, direction: str, stop_id: str) -> Node:
    return ("ride", line_code, direction, stop_id)


@dataclass
class TransitGraph:
    """Node adjacency of a network; add edges through :meth:`add_edge`."""

    adjacency: dict[Node, list[Edge]] = field(default_factory=dict)
    stops: dict[str, BusStop] = field(default_factory=dict)
    transfer_pairs: set[tuple[str, str]] = field(default_factory=set)
    _index: "GraphIndex | None" = field(default=None, init=False, repr=False, compare=False)

    def add_edge(self, source: Node, edge: Edge) -> None:
        self.adjacency.setdefault(source, []).append(edge)
        self.adjacency.setdefault(edge.target, [])
        self._index = None

    def index(self) -> "GraphIndex":
        """The graph's integer index, built once and dropped by :meth:`add_edge`.

        Every stop node and the ORIGIN/DESTINATION pair are indexed, so
        :meth:`GraphIndex.with_access` can attach any trip's endpoints.
        """
        if self._index is None:
            extra = [ORIGIN, DESTINATION, *(stop_node(s) for s in self.stops)]
            self._index = GraphIndex.build(self.adjacency, extra)
        return self._index

    def edge_between(self, source: Node, target: Node) -> Edge:
        for edge in self.adjacency.get(source, ()):
            if edge.target == target:
                return edge
        raise KeyError(f"no edge {source} -> {target}")

    def copy(self) -> "TransitGraph":
        return TransitGraph(
            adjacency={node: list(edges) for node, edges in self.adjacency.items()},
            stops=dict(self.stops),
            transfer_pairs=set(self.transfer_pairs),
        )


def build_graph(
    itineraries: Sequence[ItineraryDef], stops: Mapping[str, BusStop]
) -> TransitGraph:
    """Assemble ride/board/alight edges for a set of itineraries."""
    graph = TransitGraph(stops=dict(stops))
    for iti in sorted(itineraries, key=lambda i: (i.line_code, i.direction)):
        stop_ids = iti.stop_ids
        for stop_id in stop_ids:
            if stop_id not in stops:
                raise ValueError(
                    f"itinerary {iti.line_code}/{iti.direction} references unknown stop {stop_id}"
                )
        seen: set[str] = set()
        for stop_id in stop_ids:
            if stop_id in seen:
                continue
            seen.add(stop_id)
            rn = ride_node(iti.line_code, iti.direction, stop_id)
            graph.add_edge(stop_node(stop_id), Edge(rn, 0.0, EdgeKind.BOARD, iti.line_code))
            graph.add_edge(rn, Edge(stop_node(stop_id), 0.0, EdgeKind.ALIGHT, iti.line_code))
        for a, b in zip(stop_ids, stop_ids[1:]):
            length = haversine_distance(stops[a], stops[b])
            if length <= 0.0:
                raise ValueError(
                    f"itinerary {iti.line_code}/{iti.direction}: consecutive stops "
                    f"{a} and {b} coincide"
                )
            graph.add_edge(
                ride_node(iti.line_code, iti.direction, a),
                Edge(ride_node(iti.line_code, iti.direction, b), length, EdgeKind.RIDE, iti.line_code),
            )
    return graph


def add_cluster_transfers(graph: TransitGraph, clusters: Sequence[Cluster]) -> TransitGraph:
    """Return a copy of the graph with walk edges between cluster members.

    Every unordered member pair gains a bidirectional transfer edge
    weighted by the walk distance; pairs already linked are skipped, so
    re-application is a no-op.
    """
    result = graph.copy()
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        members = [m for m in cluster.member_list if m in result.stops]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pair = (a, b) if a < b else (b, a)
                if pair in result.transfer_pairs:
                    continue
                result.transfer_pairs.add(pair)
                walk = haversine_distance(result.stops[a], result.stops[b])
                result.add_edge(stop_node(a), Edge(stop_node(b), walk, EdgeKind.TRANSFER))
                result.add_edge(stop_node(b), Edge(stop_node(a), walk, EdgeKind.TRANSFER))
    return result


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


# ── Shortest paths ──────────────────────────────────────────────────────

_INF = float("inf")
# Search limit when no bound applies: nodes that cannot reach the target
# (reverse distance inf) still fail ``label + inf <= _NO_LIMIT``.
_NO_LIMIT = sys.float_info.max
# Relative float slack of the spur bound. A label plus a reverse distance
# and a canonical path weight sum the same edges in different orders;
# their rounding differs by far less than this share of a path's weight.
_BOUND_SLACK = 1e-9


class GraphIndex:
    """Integer-indexed adjacency for the shortest-path searches.

    Node ids follow sorted Node order, so ``(dist, id)`` heap ties pop in
    the order ``(dist, node)`` ties would, and id paths compare as node
    paths do. ``out[a]`` maps each successor of ``a`` to its lightest
    parallel edge, which is all a Dijkstra relaxation over the parallel
    edges keeps; ``weight[a]`` maps it to the first such edge in
    adjacency order, whose weight the canonical path sum uses; ``into``
    is ``out`` reversed.
    """

    __slots__ = ("nodes", "ids", "out", "weight", "into")

    def __init__(self, nodes, ids, out, weight, into):
        self.nodes: list[Node] = nodes
        self.ids: dict[Node, int] = ids
        self.out: list[dict[int, float]] = out
        self.weight: list[dict[int, float]] = weight
        self.into: list[dict[int, float]] = into

    @classmethod
    def build(
        cls, adjacency: Mapping[Node, list[Edge]], extra: Iterable[Node] = ()
    ) -> "GraphIndex":
        """Index every node of the adjacency (keys and targets) plus ``extra``."""
        nodes = set(adjacency)
        nodes.update(extra)
        for edges in adjacency.values():
            nodes.update(edge.target for edge in edges)
        ordered = sorted(nodes)
        index = cls(
            ordered,
            {node: i for i, node in enumerate(ordered)},
            [{} for _ in ordered],
            [{} for _ in ordered],
            [{} for _ in ordered],
        )
        ids = index.ids
        for node, edges in adjacency.items():
            a = ids[node]
            for edge in edges:
                index._link(a, ids[edge.target], edge.weight_m)
        return index

    def _link(self, a: int, b: int, w: float) -> None:
        self.weight[a].setdefault(b, w)
        if w < self.out[a].get(b, _INF):
            self.out[a][b] = w
            self.into[b][a] = w

    def with_access(
        self, origin_stops: Sequence[tuple[str, float]], dest_stops: Sequence[tuple[str, float]]
    ) -> "GraphIndex":
        """A view whose ORIGIN and DESTINATION carry one trip's access edges.

        ORIGIN links to each origin stop in the given order, and each
        destination stop gains an edge to DESTINATION after its own edges.
        Only the touched nodes' maps are copied; the rest are shared.
        """
        view = GraphIndex(self.nodes, self.ids, list(self.out), list(self.weight), list(self.into))
        origin, destination = self.ids[ORIGIN], self.ids[DESTINATION]
        for node in (origin, destination):
            view.out[node], view.weight[node] = {}, {}
        view.into[destination] = {}
        origin_ids = [self.ids[stop_node(s)] for s, _ in origin_stops]
        dest_ids = [self.ids[stop_node(s)] for s, _ in dest_stops]
        for node in origin_ids:
            view.into[node] = dict(view.into[node])
        for node in dest_ids:
            view.out[node], view.weight[node] = dict(view.out[node]), dict(view.weight[node])
        for node, (_, dist) in zip(origin_ids, origin_stops):
            view._link(origin, node, dist)
        for node, (_, dist) in zip(dest_ids, dest_stops):
            view._link(node, destination, dist)
        return view


def _distances_to(index: GraphIndex, target: int) -> list[float]:
    """Shortest distance from every node to the target (inf if none)."""
    into = index.into
    dist = [_INF] * len(index.nodes)
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
    banned_next: Collection[int],
    limit: float,
) -> list[int] | None:
    """Dijkstra from source to target; the node path, or None.

    ``blocked`` marks the banned nodes and is used, and filled, as the
    done set. Edges from the source to ``banned_next`` are skipped; every
    banned edge of a spur search leaves the spur node. A label is dropped
    when it plus the node's distance to the target exceeds ``limit``:
    nodes on every path within the limit keep the labels, parents and
    pop order of an unbounded search, so the path found is the same.
    """
    best = {source: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    blocked[source] = 1
    for nxt, w in out[source].items():
        if blocked[nxt] or nxt in banned_next:
            continue
        candidate = 0.0 + w
        if candidate < best.get(nxt, _INF) and candidate + to_target[nxt] <= limit:
            best[nxt] = candidate
            parent[nxt] = source
            heapq.heappush(heap, (candidate, nxt))
    while heap:
        dist, node = heapq.heappop(heap)
        if blocked[node]:
            continue
        blocked[node] = 1
        if node == target:
            break
        for nxt, w in out[node].items():
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


def _prefix_weights(weight: list[dict[int, float]], path: Sequence[int]) -> list[float]:
    """Canonical left-to-right weight sums of each prefix of a node path."""
    sums = [0.0]
    for a, b in zip(path, path[1:]):
        sums.append(sums[-1] + weight[a][b])
    return sums


def _yen(index: GraphIndex, source: int, target: int, k: int) -> list[tuple[float, list[int]]]:
    """Yen's K loopless shortest paths over node ids, unsorted ties included.

    Lawler's rule: a path is spurred only from the index at which it left
    its parent path. Below that index the root, the banned nodes and the
    banned edges repeat an earlier search (the parent's edge there is
    already banned), whose path is already a candidate.

    Bounded spurs: once the candidates hold R = k - len(accepted) paths, a
    candidate heavier than the R-th lightest, W, can never be accepted, so
    each spur search drops labels that cannot end within W.
    """
    n = len(index.nodes)
    out, weight = index.out, index.weight
    to_target = _distances_to(index, target)
    if to_target[source] == _INF:
        return []
    first = _shortest_path(out, to_target, source, target, bytearray(n), (), _NO_LIMIT)
    accepted = [(_prefix_weights(weight, first)[-1], first)]
    deviations = [0]
    seen_paths = {tuple(first)}
    candidates: list[tuple[float, tuple[int, ...], int]] = []

    while len(accepted) < k:
        _, base_path = accepted[-1]
        deviation = deviations[-1]
        room = k - len(accepted)
        # negated weights of the `room` lightest candidates (a max-heap)
        lightest = [-w for w, _, _ in heapq.nsmallest(room, candidates)]
        heapq.heapify(lightest)
        prefix = _prefix_weights(weight, base_path)
        banned = bytearray(n)
        for node in base_path[:deviation]:
            banned[node] = 1
        sharing = [path for _, path in accepted if path[:deviation] == base_path[:deviation]]
        for spur_idx in range(deviation, len(base_path) - 1):
            spur = base_path[spur_idx]
            blocked = bytearray(banned)  # the root's nodes before the spur
            banned[spur] = 1
            sharing = [p for p in sharing if len(p) > spur_idx + 1 and p[spur_idx] == spur]
            limit = _NO_LIMIT
            if len(lightest) >= room:
                bound = -lightest[0]
                limit = bound - prefix[spur_idx] + _BOUND_SLACK * (1.0 + bound)
            if to_target[spur] > limit:
                continue
            banned_next = {p[spur_idx + 1] for p in sharing}
            spur_path = _shortest_path(out, to_target, spur, target, blocked, banned_next, limit)
            if spur_path is None:
                continue
            candidate = tuple(base_path[:spur_idx]) + tuple(spur_path)
            if candidate in seen_paths:
                continue
            seen_paths.add(candidate)
            w = prefix[spur_idx]
            for a, b in zip(spur_path, spur_path[1:]):
                w += weight[a][b]
            heapq.heappush(candidates, (w, candidate, spur_idx))
            heapq.heappush(lightest, -w)
            if len(lightest) > room:
                heapq.heappop(lightest)
        if not candidates:
            break
        w, path, spur_idx = heapq.heappop(candidates)
        accepted.append((w, list(path)))
        deviations.append(spur_idx)
    return accepted


def yen_k_shortest(
    graph: TransitGraph | GraphIndex | Mapping[Node, list[Edge]],
    source: Node,
    target: Node,
    k: int = DEFAULT_K,
) -> list[tuple[float, list[Node]]]:
    """Up to k loopless paths in ascending (weight, path) order.

    The first path equals the plain shortest path; fewer than k paths come
    back when the graph runs out of simple paths. Weights are recomputed
    as left-to-right sums of the first edge between consecutive nodes, so
    equal paths always compare equal.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if source == target:
        raise ValueError("source and target must differ")
    if not isinstance(graph, GraphIndex):
        adjacency = graph.adjacency if isinstance(graph, TransitGraph) else graph
        if source not in adjacency or target not in adjacency:
            return []
        graph = graph.index() if isinstance(graph, TransitGraph) else GraphIndex.build(adjacency)
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


@dataclass
class TripResult:
    feasible: bool
    distance_m: float = float("nan")
    transfers: int = 0
    path: list[Node] = field(default_factory=list)
    alternatives: list[tuple[float, list[Node]]] = field(default_factory=list)

    def stop_sequence(self) -> list[str]:
        seen: list[str] = []
        for node in self.path:
            if node[0] == "stop" and (not seen or seen[-1] != node[1]):
                seen.append(node[1])
        return seen


def count_transfers(adjacency: Mapping[Node, list[Edge]], path: Sequence[Node]) -> int:
    """Line changes along a path's ride segments; access/walks never count."""
    lines: list[str] = []
    for a, b in zip(path, path[1:]):
        for edge in adjacency[a]:
            if edge.target == b:
                if edge.kind is EdgeKind.RIDE and (not lines or lines[-1] != edge.line_code):
                    lines.append(edge.line_code)
                break
    return max(0, len(lines) - 1)


def evaluate_trip(
    graph: TransitGraph,
    pair: ODPair,
    k: int = DEFAULT_K,
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> TripResult:
    """Route one OD pair: K-shortest paths, minimum-distance trip selected."""
    origin_stops = nearest_stops(pair.origin, graph.stops, radius_m)
    dest_stops = nearest_stops(pair.destination, graph.stops, radius_m)
    if not origin_stops or not dest_stops:
        return TripResult(feasible=False)
    paths = yen_k_shortest(
        graph.index().with_access(origin_stops, dest_stops), ORIGIN, DESTINATION, k
    )
    if not paths:
        return TripResult(feasible=False)
    weight, path = paths[0]
    return TripResult(
        feasible=True,
        distance_m=weight,
        # the first and last edges are access walks, which never count
        transfers=count_transfers(graph.adjacency, path[1:-1]),
        path=path,
        alternatives=paths,
    )


@dataclass
class NetworkSummary:
    network: str
    feasible: int = 0
    infeasible: int = 0
    mean_distance_m: float = float("nan")
    quartiles_m: tuple[float, float, float] = (float("nan"),) * 3
    mean_transfers: float = float("nan")


@dataclass
class ODEvaluation:
    results: dict[str, list[TripResult]]
    summaries: dict[str, NetworkSummary]


def evaluate_od(
    pairs: Sequence[ODPair],
    g_base: TransitGraph,
    g_clustered: TransitGraph,
    k: int = DEFAULT_K,
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> ODEvaluation:
    """Evaluate every pair on both networks and summarize the distributions.

    Infeasible pairs are excluded from the means and counted. The clustered
    graph's edges are a superset of the base graph's, so per-pair minimum
    distances can only shrink.
    """
    results: dict[str, list[TripResult]] = {"base": [], "clustered": []}
    for pair in pairs:
        results["base"].append(evaluate_trip(g_base, pair, k, radius_m))
        results["clustered"].append(evaluate_trip(g_clustered, pair, k, radius_m))

    summaries: dict[str, NetworkSummary] = {}
    for network, trips in results.items():
        feasible = [t for t in trips if t.feasible]
        summary = NetworkSummary(
            network=network,
            feasible=len(feasible),
            infeasible=len(trips) - len(feasible),
        )
        if feasible:
            distances = np.array([t.distance_m for t in feasible])
            summary.mean_distance_m = float(np.mean(distances))
            q1, q2, q3 = np.quantile(distances, [0.25, 0.5, 0.75], method="linear")
            summary.quartiles_m = (float(q1), float(q2), float(q3))
            summary.mean_transfers = float(np.mean([t.transfers for t in feasible]))
        summaries[network] = summary
    return ODEvaluation(results=results, summaries=summaries)
