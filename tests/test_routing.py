import heapq

import numpy as np
import pytest

from bustrace.clustering import Candidate, Cluster, cluster_stops
from bustrace.geo import GeoPoint, haversine_distance, offset_point
from bustrace.model import BusStop, ItineraryDef, StopType
from bustrace.routing import (
    DESTINATION,
    ORIGIN,
    Edge,
    EdgeKind,
    ODPair,
    add_cluster_transfers,
    build_graph,
    evaluate_od,
    evaluate_trip,
    nearest_stops,
    ride_node,
    stop_node,
    yen_k_shortest,
)
from bustrace.synthetic import two_corridor_network, two_corridor_od_pairs

ORIGIN_POINT = GeoPoint(-25.45, -49.30)


def _stop(stop_id, east, north):
    p = offset_point(ORIGIN_POINT, east, north)
    return BusStop(stop_id=stop_id, name=stop_id, stop_type=StopType.STREET_STOP, lat=p.lat, lon=p.lon)


def _iti(line, stop_ids, direction="A"):
    return ItineraryDef(
        line_code=line,
        direction=direction,
        stops=tuple((i + 1, s) for i, s in enumerate(stop_ids)),
    )


# ── build_graph ─────────────────────────────────────────────────────────


def test_three_stop_line_structure():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 500, 0), _stop("C", 1000, 0)]}
    g = build_graph([_iti("L1", ["A", "B", "C"])], stops)

    ride_edges = [
        e for edges in g.adjacency.values() for e in edges if e.kind is EdgeKind.RIDE
    ]
    assert len(ride_edges) == 2
    stop_nodes = [n for n in g.adjacency if n[0] == "stop"]
    assert sorted(n[1] for n in stop_nodes) == ["A", "B", "C"]
    for sid in "ABC":
        board = [e for e in g.adjacency[stop_node(sid)] if e.kind is EdgeKind.BOARD]
        assert len(board) == 1
        assert board[0].weight_m == 0.0
        alight = [e for e in g.adjacency[ride_node("L1", "A", sid)] if e.kind is EdgeKind.ALIGHT]
        assert len(alight) == 1


def test_ride_weights_match_haversine_oracle():
    rng = np.random.default_rng(1)
    coords = {f"S{i}": (float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000))) for i in range(6)}
    stops = {k: _stop(k, e, n) for k, (e, n) in coords.items()}
    order = sorted(stops)
    g = build_graph([_iti("L1", order)], stops)
    for a, b in zip(order, order[1:]):
        edge = g.edge_between(ride_node("L1", "A", a), ride_node("L1", "A", b))
        expected = haversine_distance(stops[a], stops[b])
        assert edge.weight_m == pytest.approx(expected, rel=1e-9)


def test_two_lines_transfer_only_through_shared_stop():
    stops = {
        s.stop_id: s
        for s in [
            _stop("A", 0, 0),
            _stop("X", 1000, 0),
            _stop("B", 2000, 0),
            _stop("C", 1000, 1000),
            _stop("D", 1000, -1000),
        ]
    }
    g = build_graph([_iti("L1", ["A", "X", "B"]), _iti("L2", ["C", "X", "D"])], stops)
    # the stop node of X links to both lines' ride nodes
    boards = [e.target for e in g.adjacency[stop_node("X")] if e.kind is EdgeKind.BOARD]
    assert set(boards) == {ride_node("L1", "A", "X"), ride_node("L2", "A", "X")}
    # no direct ride edge between lines
    for edges in g.adjacency.values():
        for e in edges:
            if e.kind is EdgeKind.RIDE:
                assert e.line_code in {"L1", "L2"}


def test_unknown_stop_in_itinerary_rejected():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0)]}
    with pytest.raises(ValueError, match="unknown stop"):
        build_graph([_iti("L1", ["A", "Z"])], stops)


def test_coincident_consecutive_stops_rejected():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0)]}
    stops["B"] = BusStop("B", "B", StopType.STREET_STOP, stops["A"].lat, stops["A"].lon)
    with pytest.raises(ValueError, match="coincide"):
        build_graph([_iti("L1", ["A", "B"])], stops)


# ── add_cluster_transfers ───────────────────────────────────────────────


def _cluster(members, centroid=None):
    return Cluster(
        cluster_id=centroid or sorted(members)[0],
        centroid_stop_id=centroid or sorted(members)[0],
        members=frozenset(members),
    )


def test_empty_cluster_set_leaves_graph_unchanged():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 500, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    g2 = add_cluster_transfers(g, [])
    assert g2.adjacency == g.adjacency
    assert g2.adjacency is not g.adjacency  # original untouched


def test_two_member_cluster_adds_bidirectional_pair():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 400, 0), _stop("C", 4000, 0)]}
    g = build_graph([_iti("L1", ["A", "C"]), _iti("L2", ["B", "C"])], stops)
    g2 = add_cluster_transfers(g, [_cluster({"A", "B"})])
    ab = g2.edge_between(stop_node("A"), stop_node("B"))
    ba = g2.edge_between(stop_node("B"), stop_node("A"))
    assert ab.kind is EdgeKind.TRANSFER and ba.kind is EdgeKind.TRANSFER
    assert ab.weight_m == pytest.approx(haversine_distance(stops["A"], stops["B"]), rel=1e-9)
    with pytest.raises(KeyError):
        g.edge_between(stop_node("A"), stop_node("B"))  # base graph untouched


def test_k_member_cluster_pair_count():
    members = {f"S{i}" for i in range(5)}
    stops = {m: _stop(m, 100.0 * i, 0) for i, m in enumerate(sorted(members))}
    stops["far"] = _stop("far", 50000, 0)
    g = build_graph([_iti("L1", [*sorted(members), "far"])], stops)
    g2 = add_cluster_transfers(g, [_cluster(members)])
    transfers = [
        e for edges in g2.adjacency.values() for e in edges if e.kind is EdgeKind.TRANSFER
    ]
    assert len(transfers) == 2 * (5 * 4 // 2)


def test_transfer_addition_idempotent():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 400, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    once = add_cluster_transfers(g, [_cluster({"A", "B"})])
    twice = add_cluster_transfers(once, [_cluster({"A", "B"})])
    assert twice.adjacency == once.adjacency


# ── nearest_stops ───────────────────────────────────────────────────────


def test_nearest_stop_atop():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 500, 0)]}
    got = nearest_stops(GeoPoint(stops["A"].lat, stops["A"].lon), stops)
    assert got[0] == ("A", 0.0)
    assert [s for s, _ in got] == ["A", "B"]


def test_nearest_stops_empty_beyond_radius():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0)]}
    point = offset_point(ORIGIN_POINT, 2000, 0)
    assert nearest_stops(point, stops) == []


def test_nearest_stops_match_exhaustive_scan():
    rng = np.random.default_rng(2)
    stops = {
        f"S{i}": _stop(f"S{i}", float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
        for i in range(20)
    }
    for _ in range(20):
        p = offset_point(ORIGIN_POINT, float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
        got = nearest_stops(p, stops, radius_m=600.0)
        expected = sorted(
            (
                (s, haversine_distance(p, stop))
                for s, stop in stops.items()
                if haversine_distance(p, stop) <= 600.0
            ),
            key=lambda item: (item[1], item[0]),
        )
        assert [s for s, _ in got] == [s for s, _ in expected]
        for (_, d_got), (_, d_exp) in zip(got, expected):
            assert d_got == pytest.approx(d_exp, rel=1e-12)


# ── yen_k_shortest ──────────────────────────────────────────────────────


def _adj(edges):
    adjacency = {}
    for a, b, w in edges:
        adjacency.setdefault(("n", a), []).append(Edge(("n", b), float(w), EdgeKind.RIDE, "x"))
        adjacency.setdefault(("n", b), [])
    return adjacency


def _enumerate_simple_paths(adjacency, source, target):
    found = []
    visited = {source}

    def walk(node, path, weight):
        if node == target:
            found.append((weight, list(path)))
            return
        for edge in adjacency.get(node, ()):
            if edge.target in visited:
                continue
            visited.add(edge.target)
            path.append(edge.target)
            walk(edge.target, path, weight + edge.weight_m)
            path.pop()
            visited.discard(edge.target)

    walk(source, [source], 0.0)
    canonical = []
    for _, path in found:
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += next(e.weight_m for e in adjacency[a] if e.target == b)
        canonical.append((total, path))
    canonical.sort(key=lambda item: (item[0], item[1]))
    return canonical


def test_yen_k1_equals_shortest_path():
    adjacency = _adj([("s", "a", 1), ("a", "t", 1), ("s", "t", 5), ("s", "b", 2), ("b", "t", 2)])
    got = yen_k_shortest(adjacency, ("n", "s"), ("n", "t"), 1)
    assert len(got) == 1
    assert got[0] == (2.0, [("n", "s"), ("n", "a"), ("n", "t")])


def test_yen_five_node_fixture_all_paths():
    edges = [
        ("s", "a", 1.0),
        ("s", "b", 2.5),
        ("a", "b", 1.0),
        ("a", "t", 4.0),
        ("b", "t", 2.0),
        ("s", "c", 3.0),
        ("c", "t", 3.0),
    ]
    adjacency = _adj(edges)
    expected = _enumerate_simple_paths(adjacency, ("n", "s"), ("n", "t"))
    assert len(expected) == 4
    got = yen_k_shortest(adjacency, ("n", "s"), ("n", "t"), 30)
    assert got == expected
    assert [w for w, _ in got] == [4.0, 4.5, 5.0, 6.0]


def test_yen_disconnected_target_empty():
    adjacency = _adj([("s", "a", 1)])
    adjacency[("n", "t")] = []
    assert yen_k_shortest(adjacency, ("n", "s"), ("n", "t"), 5) == []


def test_yen_paths_are_loopless_sorted_unique():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        edges = [
            (str(i), str(j), float(rng.uniform(0.5, 9)))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.4
        ]
        adjacency = _adj(edges)
        adjacency.setdefault(("n", "0"), [])
        adjacency.setdefault(("n", str(n - 1)), [])
        got = yen_k_shortest(adjacency, ("n", "0"), ("n", str(n - 1)), 30)
        weights = [w for w, _ in got]
        assert weights == sorted(weights)
        paths = [tuple(p) for _, p in got]
        assert len(paths) == len(set(paths))
        for path in paths:
            assert len(path) == len(set(path))


# ── exactness against the plain Yen scheme (tie-heavy) ─────────────────
#
# The routing module runs Yen on integer node ids with Lawler's spur rule
# and bounded spur searches. The reference below is the straightforward
# scheme on tuple nodes: every spur index of every accepted path, unbounded
# Dijkstra with (dist, node) heap ties. Both must return the same weights
# and the same paths, ties included.


def _reference_dijkstra(adjacency, source, target, banned_nodes, banned_edges):
    if source not in adjacency or target not in adjacency:
        return None
    best = {source: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, source)]
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
    return path


def _reference_weight(adjacency, path):
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += next(e.weight_m for e in adjacency[a] if e.target == b)
    return total


def _reference_yen(adjacency, source, target, k):
    first = _reference_dijkstra(adjacency, source, target, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [(_reference_weight(adjacency, first), first)]
    seen = {tuple(first)}
    candidates = []
    while len(accepted) < k:
        base = accepted[-1][1]
        for i in range(len(base) - 1):
            root = base[: i + 1]
            banned_edges = {
                (p[i], p[i + 1]) for _, p in accepted if p[: i + 1] == root and len(p) > i + 1
            }
            spur = _reference_dijkstra(
                adjacency, base[i], target, frozenset(root[:-1]), frozenset(banned_edges)
            )
            if spur is None:
                continue
            candidate = tuple(root[:-1]) + tuple(spur)
            if candidate not in seen:
                seen.add(candidate)
                heapq.heappush(candidates, (_reference_weight(adjacency, candidate), candidate))
        if not candidates:
            break
        weight, path = heapq.heappop(candidates)
        accepted.append((weight, list(path)))
    accepted.sort(key=lambda item: (item[0], item[1]))
    return accepted


def _tie_heavy_adjacency(rng):
    """Integer and zero weights; some edges doubled by an equal-weight parallel line."""
    n = int(rng.integers(4, 9))
    adjacency = {("n", str(i)): [] for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.45:
                w = float(rng.integers(0, 4))
                lines = ("x", "y") if rng.random() < 0.2 else ("x",)
                for line in lines:
                    adjacency[("n", str(i))].append(Edge(("n", str(j)), w, EdgeKind.RIDE, line))
    return adjacency, ("n", "0"), ("n", str(n - 1))


@pytest.mark.parametrize("k", [1, 3, 30])
def test_yen_equals_reference_on_tie_heavy_graphs(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(150):
        adjacency, source, target = _tie_heavy_adjacency(rng)
        got = yen_k_shortest(adjacency, source, target, k)
        assert got == _reference_yen(adjacency, source, target, k)
        # parallel lines repeat a node path in the enumeration; Yen ranks node paths
        unique = sorted({(w, tuple(p)) for w, p in _enumerate_simple_paths(adjacency, source, target)})
        assert [w for w, _ in got] == [w for w, _ in unique[:k]]


def _access_overlay(graph, pair, radius_m):
    """The graph's adjacency plus one trip's access edges, destination edges last."""
    overlay = dict(graph.adjacency)
    overlay[ORIGIN] = [
        Edge(stop_node(s), d, EdgeKind.ACCESS) for s, d in nearest_stops(pair.origin, graph.stops, radius_m)
    ]
    overlay[DESTINATION] = []
    for s, d in nearest_stops(pair.destination, graph.stops, radius_m):
        overlay[stop_node(s)] = overlay.get(stop_node(s), []) + [Edge(DESTINATION, d, EdgeKind.ACCESS)]
    return overlay


def _street_grid(size, spacing_m=300.0):
    """Row and column lines both ways on a size x size grid of stops."""
    stops = {
        f"g{r}{c}": _stop(f"g{r}{c}", c * spacing_m, r * spacing_m)
        for r in range(size)
        for c in range(size)
    }
    itineraries = []
    for i in range(size):
        row = [f"g{i}{c}" for c in range(size)]
        col = [f"g{r}{i}" for r in range(size)]
        for line, ids in ((f"R{i}", row), (f"C{i}", col)):
            itineraries.append(_iti(line, ids, "A"))
            itineraries.append(_iti(line, ids[::-1], "B"))
    return stops, itineraries


def test_evaluate_trip_equals_reference_with_parallel_lines():
    stops, itineraries = _street_grid(4)
    row = [f"g1{c}" for c in range(4)]
    itineraries += [_iti("T", row, "A"), _iti("T", row[::-1], "B")]  # a trunk over row 1
    g = build_graph(itineraries, stops)
    gc = add_cluster_transfers(g, [_cluster({"g11", "g12", "g21"})])
    rng = np.random.default_rng(9)
    for _ in range(6):
        a, b = (
            offset_point(ORIGIN_POINT, float(rng.uniform(0, 900)), float(rng.uniform(0, 900)))
            for _ in range(2)
        )
        pair = ODPair(a, b)
        for graph in (g, gc):
            for k in (1, 3, 30):
                trip = evaluate_trip(graph, pair, k=k, radius_m=350.0)
                expected = _reference_yen(_access_overlay(graph, pair, 350.0), ORIGIN, DESTINATION, k)
                assert trip.alternatives == expected
                assert trip.feasible == bool(expected)


def test_street_grid_ranking_equals_networkx():
    nx = pytest.importorskip("networkx")
    stops, itineraries = _street_grid(9)
    row = [f"g4{c}" for c in range(9)]
    itineraries += [_iti("T", row, "A"), _iti("T", row[::-1], "B")]  # a trunk sharing row 4's stops
    g = add_cluster_transfers(build_graph(itineraries, stops), [_cluster({"g33", "g34", "g43"})])
    pair = ODPair(
        offset_point(ORIGIN_POINT, 250.0, 180.0), offset_point(ORIGIN_POINT, 2150.0, 2300.0)
    )
    trip = evaluate_trip(g, pair, k=30)
    assert len(trip.alternatives) == 30

    digraph = nx.DiGraph()
    for source, edges in _access_overlay(g, pair, 600.0).items():
        for edge in edges:
            digraph.add_edge(source, edge.target, weight=edge.weight_m)
    expected = []
    for path in nx.shortest_simple_paths(digraph, ORIGIN, DESTINATION, weight="weight"):
        expected.append(sum(digraph[a][b]["weight"] for a, b in zip(path, path[1:])))
        if len(expected) == 30:
            break
    assert [w for w, _ in trip.alternatives] == pytest.approx(expected, abs=1e-6)
    assert trip.path == evaluate_trip(g, pair, k=1).path


# ── evaluate_trip / evaluate_od ─────────────────────────────────────────


def test_trip_same_stop_origin_destination_zero_distance():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 5000, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    point = GeoPoint(stops["A"].lat, stops["A"].lon)
    trip = evaluate_trip(g, ODPair(point, point), k=5)
    assert trip.feasible
    assert trip.distance_m == 0.0
    assert trip.transfers == 0
    assert trip.stop_sequence() == ["A"]


def test_trip_infeasible_when_no_stop_in_radius():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 5000, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    far = offset_point(ORIGIN_POINT, 20000, 0)
    trip = evaluate_trip(g, ODPair(far, GeoPoint(stops["A"].lat, stops["A"].lon)), k=5)
    assert not trip.feasible


def test_trip_distance_is_minimum_of_sorted_alternatives():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    pair = two_corridor_od_pairs(1, seed=5)[0]
    trip = evaluate_trip(g, pair, k=3)
    assert trip.feasible
    assert trip.alternatives[0][0] == trip.distance_m
    weights = [w for w, _ in trip.alternatives]
    assert weights == sorted(weights)


def test_transfer_counting_ignores_walks_and_access():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    clusters = cluster_stops([Candidate(b, 3.0 - i) for i, b in enumerate(bridges)], stops)
    gc = add_cluster_transfers(g, clusters)
    pair = two_corridor_od_pairs(1, seed=11)[0]
    trip = evaluate_trip(gc, pair, k=5)
    assert trip.feasible
    # corridor chain S1 -> S2 -> S3 -> S4: three line changes
    assert trip.transfers == 3


def test_evaluate_od_superset_dominance_sample():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    clusters = cluster_stops([Candidate(b, 3.0 - i) for i, b in enumerate(bridges)], stops)
    gc = add_cluster_transfers(g, clusters)
    pairs = two_corridor_od_pairs(40, seed=8)
    evaluation = evaluate_od(pairs, g, gc, k=1)
    for base, clustered in zip(evaluation.results["base"], evaluation.results["clustered"]):
        assert base.feasible and clustered.feasible
        assert clustered.distance_m <= base.distance_m + 1e-9
    assert evaluation.summaries["base"].feasible == 40
