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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    adjacency: dict[Node, list[Edge]] = field(default_factory=dict)
    stops: dict[str, BusStop] = field(default_factory=dict)
    transfer_pairs: set[tuple[str, str]] = field(default_factory=set)

    def add_edge(self, source: Node, edge: Edge) -> None:
        self.adjacency.setdefault(source, []).append(edge)
        self.adjacency.setdefault(edge.target, [])

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


def _dijkstra(
    adjacency: Mapping[Node, list[Edge]],
    source: Node,
    target: Node,
    banned_nodes: frozenset[Node] = frozenset(),
    banned_edges: frozenset[tuple[Node, Node]] = frozenset(),
) -> tuple[float, list[Node]] | None:
    if source not in adjacency or target not in adjacency:
        return None
    best: dict[Node, float] = {source: 0.0}
    parent: dict[Node, Node] = {}
    done: set[Node] = set()
    heap: list[tuple[float, Node]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            break
        for edge in adjacency.get(node, ()):
            nxt = edge.target
            if nxt in banned_nodes or (node, nxt) in banned_edges or nxt in done:
                continue
            candidate = dist + edge.weight_m
            if candidate < best.get(nxt, float("inf")):
                best[nxt] = candidate
                parent[nxt] = node
                heapq.heappush(heap, (candidate, nxt))
    if target not in done:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return best[target], path


def _path_weight(adjacency: Mapping[Node, list[Edge]], path: Sequence[Node]) -> float:
    """Canonical left-to-right weight sum of a node path."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        for edge in adjacency[a]:
            if edge.target == b:
                total += edge.weight_m
                break
        else:
            raise KeyError(f"no edge {a} -> {b}")
    return total


def yen_k_shortest(
    graph: TransitGraph | Mapping[Node, list[Edge]],
    source: Node,
    target: Node,
    k: int = DEFAULT_K,
) -> list[tuple[float, list[Node]]]:
    """Up to k loopless paths in ascending (weight, path) order.

    The first path equals the plain shortest path; fewer than k paths come
    back when the graph runs out of simple paths. Weights are recomputed
    as left-to-right edge sums so equal paths always compare equal.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    adjacency = graph.adjacency if isinstance(graph, TransitGraph) else graph
    if source == target:
        raise ValueError("source and target must differ")

    first = _dijkstra(adjacency, source, target)
    if first is None:
        return []
    accepted: list[tuple[float, list[Node]]] = [(_path_weight(adjacency, first[1]), first[1])]
    seen_paths: set[tuple[Node, ...]] = {tuple(first[1])}
    candidates: list[tuple[float, tuple[Node, ...]]] = []

    while len(accepted) < k:
        _, base_path = accepted[-1]
        for spur_idx in range(len(base_path) - 1):
            spur = base_path[spur_idx]
            root = base_path[: spur_idx + 1]
            banned_edges = set()
            for _, path in accepted:
                if path[: spur_idx + 1] == root and len(path) > spur_idx + 1:
                    banned_edges.add((path[spur_idx], path[spur_idx + 1]))
            banned_nodes = frozenset(root[:-1])
            spur_result = _dijkstra(
                adjacency, spur, target, banned_nodes, frozenset(banned_edges)
            )
            if spur_result is None:
                continue
            candidate = tuple(root[:-1]) + tuple(spur_result[1])
            if candidate in seen_paths:
                continue
            seen_paths.add(candidate)
            weight = _path_weight(adjacency, candidate)
            heapq.heappush(candidates, (weight, candidate))
        if not candidates:
            break
        weight, path = heapq.heappop(candidates)
        accepted.append((weight, list(path)))

    accepted.sort(key=lambda item: (item[0], item[1]))
    return accepted


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


def _with_access(
    graph: TransitGraph,
    pair: ODPair,
    radius_m: float,
) -> dict[Node, list[Edge]] | None:
    origin_stops = nearest_stops(pair.origin, graph.stops, radius_m)
    dest_stops = nearest_stops(pair.destination, graph.stops, radius_m)
    if not origin_stops or not dest_stops:
        return None
    overlay: dict[Node, list[Edge]] = dict(graph.adjacency)
    overlay[ORIGIN] = [
        Edge(stop_node(stop_id), dist, EdgeKind.ACCESS) for stop_id, dist in origin_stops
    ]
    overlay[DESTINATION] = []
    for stop_id, dist in dest_stops:
        node = stop_node(stop_id)
        overlay[node] = list(overlay.get(node, ())) + [
            Edge(DESTINATION, dist, EdgeKind.ACCESS)
        ]
    return overlay


def evaluate_trip(
    graph: TransitGraph,
    pair: ODPair,
    k: int = DEFAULT_K,
    radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M,
) -> TripResult:
    """Route one OD pair: K-shortest paths, minimum-distance trip selected."""
    overlay = _with_access(graph, pair, radius_m)
    if overlay is None:
        return TripResult(feasible=False)
    paths = yen_k_shortest(overlay, ORIGIN, DESTINATION, k)
    if not paths:
        return TripResult(feasible=False)
    weight, path = paths[0]
    return TripResult(
        feasible=True,
        distance_m=weight,
        transfers=count_transfers(overlay, path),
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
