import heapq
import math

import networkx as nx
import numpy as np
import pytest

from bustrace.clustering import Cluster, cluster_stops
from bustrace.geo import GeoPoint, haversine_distance, offset_point
from bustrace.model import BusStop, ItineraryDef, StopType
from bustrace.pipeline import ARTIFACTS
from bustrace.routing import (
    DESTINATION,
    ORIGIN,
    NetworkSummary,
    ODPair,
    TransitGraph,
    add_cluster_transfers,
    build_graph,
    count_transfers,
    evaluate_od,
    evaluate_trip,
    nearest_stops,
    ride_node,
    stop_node,
    stop_sequence,
    summarize,
    yen_k_shortest,
)
from bustrace.routing import _NO_LIMIT, _above, _distances_to, _prefix_weights, _shortest_path, _spur_weight
from bustrace.synthetic import line829_dataset, two_corridor_network, two_corridor_od_pairs

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

    ride_steps = [(a, b) for a, successors in g.adjacency.items() for b in successors if a[0] == b[0] == "ride"]
    assert len(ride_steps) == 2
    stop_nodes = [n for n in g.adjacency if n[0] == "stop"]
    assert sorted(n[1] for n in stop_nodes) == ["A", "B", "C"]
    for sid in "ABC":
        board = [w for b, w in g.adjacency[stop_node(sid)].items() if b[0] == "ride"]
        assert len(board) == 1
        assert board[0] == 0.0
        alight = [b for b in g.adjacency[ride_node("L1", "A", sid)] if b[0] == "stop"]
        assert len(alight) == 1


def test_ride_weights_match_haversine_oracle():
    rng = np.random.default_rng(1)
    coords = {f"S{i}": (float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000))) for i in range(6)}
    stops = {k: _stop(k, e, n) for k, (e, n) in coords.items()}
    order = sorted(stops)
    g = build_graph([_iti("L1", order)], stops)
    for a, b in zip(order, order[1:]):
        weight = g.adjacency[ride_node("L1", "A", a)][ride_node("L1", "A", b)]
        expected = haversine_distance(stops[a], stops[b])
        assert weight == pytest.approx(expected, rel=1e-9)


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
    boards = [b for b in g.adjacency[stop_node("X")] if b[0] == "ride"]
    assert set(boards) == {ride_node("L1", "A", "X"), ride_node("L2", "A", "X")}
    # no direct ride step between lines
    for a, successors in g.adjacency.items():
        for b in successors:
            if a[0] == b[0] == "ride":
                assert a[1] == b[1] and a[1] in {"L1", "L2"}


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
    assert not any(a is b for a, b in zip(g2.out + g2.into, g.out + g.into))  # original untouched


def test_two_member_cluster_adds_bidirectional_pair():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 400, 0), _stop("C", 4000, 0)]}
    g = build_graph([_iti("L1", ["A", "C"]), _iti("L2", ["B", "C"])], stops)
    g2 = add_cluster_transfers(g, [_cluster({"A", "B"})])
    ab = g2.adjacency[stop_node("A")][stop_node("B")]
    assert g2.adjacency[stop_node("B")][stop_node("A")] == ab
    assert ab == pytest.approx(haversine_distance(stops["A"], stops["B"]), rel=1e-9)
    assert stop_node("B") not in g.adjacency[stop_node("A")]  # base graph untouched


def test_k_member_cluster_pair_count():
    members = {f"S{i}" for i in range(5)}
    stops = {m: _stop(m, 100.0 * i, 0) for i, m in enumerate(sorted(members))}
    stops["far"] = _stop("far", 50000, 0)
    g = build_graph([_iti("L1", [*sorted(members), "far"])], stops)
    g2 = add_cluster_transfers(g, [_cluster(members)])
    transfers = [(a, b) for a, successors in g2.adjacency.items() for b in successors if a[0] == b[0] == "stop"]
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
        adjacency.setdefault(("n", a), {})[("n", b)] = float(w)
        adjacency.setdefault(("n", b), {})
    return adjacency


def _enumerate_simple_paths(adjacency, source, target):
    found = []
    visited = {source}

    def walk(node, path, weight):
        if node == target:
            found.append((weight, list(path)))
            return
        for nxt, w in adjacency.get(node, {}).items():
            if nxt in visited:
                continue
            visited.add(nxt)
            path.append(nxt)
            walk(nxt, path, weight + w)
            path.pop()
            visited.discard(nxt)

    walk(source, [source], 0.0)
    found.sort(key=lambda item: (item[0], item[1]))
    return found


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
    adjacency[("n", "t")] = {}
    assert yen_k_shortest(adjacency, ("n", "s"), ("n", "t"), 5) == []


def test_yen_reaches_a_node_that_is_only_an_edge_target():
    adjacency = {("n", "s"): {("n", "t"): 1.0}}
    assert yen_k_shortest(adjacency, ("n", "s"), ("n", "t"), 5) == [(1.0, [("n", "s"), ("n", "t")])]


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
        adjacency.setdefault(("n", "0"), {})
        adjacency.setdefault(("n", str(n - 1)), {})
        got = yen_k_shortest(adjacency, ("n", "0"), ("n", str(n - 1)), 30)
        weights = [w for w, _ in got]
        assert weights == sorted(weights)
        paths = [tuple(p) for _, p in got]
        assert len(paths) == len(set(paths))
        for path in paths:
            assert len(path) == len(set(path))


# ── exactness against the plain Yen scheme (tie-heavy) ─────────────────
#
# The routing module runs Yen on integer node ids with Lawler's partition
# and bounded spur searches, and keeps no set of paths seen. The reference
# below is the straightforward scheme on tuple nodes: every spur index of
# every accepted path, the next hops of every accepted path sharing the
# root banned, a set of paths seen, unbounded Dijkstra with (dist, node)
# heap ties. Both must return the same weights and the same paths, ties
# included.


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
        for nxt, w in adjacency.get(node, {}).items():
            if nxt in banned_nodes or (node, nxt) in banned_edges or nxt in done:
                continue
            candidate = dist + w
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
        total += adjacency[a][b]
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


def _tie_heavy_adjacency(rng, nodes=(4, 8)):
    """Integer and zero weights on ``nodes[0]`` to ``nodes[1]`` nodes."""
    n = int(rng.integers(nodes[0], nodes[1] + 1))
    adjacency = {("n", str(i)): {} for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.45:
                adjacency[("n", str(i))][("n", str(j))] = float(rng.integers(0, 4))
    return adjacency, ("n", "0"), ("n", str(n - 1))


@pytest.mark.parametrize("k", [1, 3, 30, 80])
def test_yen_equals_reference_on_tie_heavy_graphs(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(150):
        adjacency, source, target = _tie_heavy_adjacency(rng)
        got = yen_k_shortest(adjacency, source, target, k)
        assert got == _reference_yen(adjacency, source, target, k)
        unique = _enumerate_simple_paths(adjacency, source, target)
        assert [w for w, _ in got] == [w for w, _ in unique[:k]]
    # larger graphs, where accepted paths share long roots and the partition runs deep
    for _ in range(15):
        adjacency, source, target = _tie_heavy_adjacency(rng, nodes=(8, 13))
        assert yen_k_shortest(adjacency, source, target, k) == _reference_yen(adjacency, source, target, k)


def _float_tie_adjacency(rng):
    """Weights whose sums tie only up to rounding: 0.1 + 0.2 != 0.3."""
    adjacency, source, target = _tie_heavy_adjacency(rng)
    weights = (0.0, 0.1, 0.2, 0.3, 0.6, 0.7)
    for successors in adjacency.values():
        for nxt in successors:
            successors[nxt] = weights[int(rng.integers(0, len(weights)))]
    return adjacency, source, target


@pytest.mark.parametrize("k", [1, 3, 30, 80])
def test_yen_equals_reference_on_float_tie_graphs(k):
    rng = np.random.default_rng(70 + k)
    for _ in range(150):
        adjacency, source, target = _float_tie_adjacency(rng)
        got = yen_k_shortest(adjacency, source, target, k)
        assert got == _reference_yen(adjacency, source, target, k)


def test_spur_weight_bounds_the_same_spur_path():
    """A* under a spur search's bans finds the weight of the path Dijkstra
    returns, and Dijkstra bounded just above that weight returns it again."""
    rng = np.random.default_rng(16)
    found = 0
    for trial in range(600):
        make = (_tie_heavy_adjacency, _float_tie_adjacency)[trial % 2]
        graph = TransitGraph.build(make(rng)[0])
        n = len(graph.nodes)
        source, target = (int(i) for i in rng.choice(n, size=2, replace=False))
        to_target = _distances_to(graph, target)
        blocked = bytearray(int(i not in (source, target) and rng.random() < 0.2) for i in range(n))
        banned_next = {nxt for nxt in graph.out[source] if rng.random() < 0.4}
        source_out = {nxt: w for nxt, w in graph.out[source].items() if nxt not in banned_next}

        def search(find, limit):
            return find(graph.out, to_target, source, target, bytearray(blocked), source_out, limit)

        path = search(_shortest_path, _NO_LIMIT)
        weight = search(_spur_weight, _NO_LIMIT)
        assert (weight is None) == (path is None)
        if path is None:
            continue
        found += 1
        path_weight = _prefix_weights(graph.out, path)[-1]
        assert abs(weight - path_weight) <= _above(path_weight) - path_weight
        assert search(_shortest_path, _above(weight)) == path
        # under a tighter limit both searches still agree on whether a path fits
        for limit in (weight, 0.5 * weight, float(rng.uniform(0.0, 2.0 * weight + 1.0))):
            assert (search(_spur_weight, limit) is None) == (search(_shortest_path, limit) is None)
    assert found > 200


def _access_overlay(graph, pair, radius_m):
    """The graph's adjacency plus one trip's access edges, destination edges last."""
    overlay = dict(graph.adjacency)
    overlay[ORIGIN] = {stop_node(s): d for s, d in nearest_stops(pair.origin, graph.stops, radius_m)}
    overlay[DESTINATION] = {}
    for s, d in nearest_stops(pair.destination, graph.stops, radius_m):
        overlay[stop_node(s)] = {**overlay.get(stop_node(s), {}), DESTINATION: d}
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
                assert trip == expected


def test_street_grid_ranking_equals_networkx():
    stops, itineraries = _street_grid(9)
    row = [f"g4{c}" for c in range(9)]
    itineraries += [_iti("T", row, "A"), _iti("T", row[::-1], "B")]  # a trunk sharing row 4's stops
    g = add_cluster_transfers(build_graph(itineraries, stops), [_cluster({"g33", "g34", "g43"})])
    pair = ODPair(
        offset_point(ORIGIN_POINT, 250.0, 180.0), offset_point(ORIGIN_POINT, 2150.0, 2300.0)
    )
    trip = evaluate_trip(g, pair, k=30)
    assert len(trip) == 30

    digraph = nx.DiGraph()
    for source, successors in _access_overlay(g, pair, 600.0).items():
        for target, w in successors.items():
            digraph.add_edge(source, target, weight=w)
    expected = []
    for path in nx.shortest_simple_paths(digraph, ORIGIN, DESTINATION, weight="weight"):
        expected.append(sum(digraph[a][b]["weight"] for a, b in zip(path, path[1:])))
        if len(expected) == 30:
            break
    assert [w for w, _ in trip] == pytest.approx(expected, abs=1e-6)
    assert trip[0][1] == evaluate_trip(g, pair, k=1)[0][1]


# ── evaluate_trip / evaluate_od ─────────────────────────────────────────


def test_trip_same_stop_origin_destination_zero_distance():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 5000, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    point = GeoPoint(stops["A"].lat, stops["A"].lon)
    trip = evaluate_trip(g, ODPair(point, point), k=5)
    assert trip
    distance_m, path = trip[0]
    assert distance_m == 0.0
    assert count_transfers(path) == 0
    assert stop_sequence(path) == ["A"]


def test_trip_infeasible_when_no_stop_in_radius():
    stops = {s.stop_id: s for s in [_stop("A", 0, 0), _stop("B", 5000, 0)]}
    g = build_graph([_iti("L1", ["A", "B"])], stops)
    far = offset_point(ORIGIN_POINT, 20000, 0)
    trip = evaluate_trip(g, ODPair(far, GeoPoint(stops["A"].lat, stops["A"].lon)), k=5)
    assert trip == []


def test_trip_distance_is_minimum_of_sorted_alternatives():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    pair = two_corridor_od_pairs(1, seed=5)[0]
    trip = evaluate_trip(g, pair, k=3)
    assert trip
    assert summarize([trip]).mean_distance_m == trip[0][0]
    weights = [w for w, _ in trip]
    assert weights == sorted(weights)


def test_transfer_counting_ignores_walks_and_access():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    clusters = cluster_stops(bridges, stops)
    gc = add_cluster_transfers(g, clusters)
    pair = two_corridor_od_pairs(1, seed=11)[0]
    trip = evaluate_trip(gc, pair, k=5)
    assert trip
    # corridor chain S1 -> S2 -> S3 -> S4: three line changes
    assert summarize([trip]).mean_transfers == 3


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: cluster walks chain stop to stop and may start or end a trip"
)
def test_a_cluster_walk_joins_two_rides():
    # A, B and C lie on a street 500 m apart; L1 goes round by P and Q, 800 m north
    street = [_stop("A", 0, 0), _stop("B", 500, 0), _stop("C", 1000, 0)]
    stops = {s.stop_id: s for s in [*street, _stop("P", 0, 800), _stop("Q", 1000, 800)]}
    g = build_graph([_iti("L1", ["A", "P", "Q", "C"])], stops)
    g = add_cluster_transfers(g, [_cluster({"A", "B"}), _cluster({"B", "C"})])
    pair = ODPair(GeoPoint(stops["A"].lat, stops["A"].lon), GeoPoint(stops["C"].lat, stops["C"].lon))
    trip = evaluate_trip(g, pair, k=3, radius_m=100)
    assert trip
    for _, path in trip:
        # step i is a walk when it joins two stop nodes; steps 0 and len - 2 are access
        walks = [i for i, (a, b) in enumerate(zip(path, path[1:])) if a[0] == b[0] == "stop"]
        assert not any(j == i + 1 for i, j in zip(walks, walks[1:])), path
        assert 1 not in walks and len(path) - 3 not in walks, path


def test_evaluate_od_superset_dominance_sample():
    stops, itineraries, bridges = two_corridor_network()
    g = build_graph(itineraries, stops)
    clusters = cluster_stops(bridges, stops)
    gc = add_cluster_transfers(g, clusters)
    pairs = two_corridor_od_pairs(40, seed=8)
    trips = evaluate_od(pairs, g, gc, k=1)
    for base, clustered in zip(trips["base"], trips["clustered"]):
        assert base and clustered
        assert clustered[0][0] <= base[0][0] + 1e-9
    assert summarize(trips["base"]).feasible == 40


def test_summary_fields_are_the_summary_file_columns_and_read_nan_without_a_feasible_trip():
    assert list(NetworkSummary._fields) == ARTIFACTS["od_summary.csv"].header[1:]
    summary = summarize([[], []])
    assert summary[:2] == (0, 2)
    assert all(math.isnan(value) for value in summary[2:])


# ── what the search may assume of the program's graphs ─────────────────


def _grid_network():
    """A 4 x 4 street grid, a trunk over row 1, a loop line that rides g00-g01 twice, two clusters."""
    stops, itineraries = _street_grid(4)
    row = [f"g1{c}" for c in range(4)]
    itineraries += [_iti("T", row, "A"), _iti("T", row[::-1], "B")]
    itineraries.append(_iti("Q", ["g00", "g01", "g11", "g10", "g00", "g01", "g02"]))
    # the clusters share the pair g12-g21, which gains one walk each way
    return stops, itineraries, [_cluster({"g11", "g12", "g21"}), _cluster({"g12", "g21", "g22"})]


def _program_networks():
    """(name, stops, itineraries, clusters) of the fixtures the routing tests use."""
    yield "street_grid", *_grid_network()
    stops, itineraries, bridges = two_corridor_network()
    yield "two_corridor", stops, itineraries, cluster_stops(bridges, stops)
    dataset = line829_dataset()
    yield "line829", dataset.stops, dataset.itineraries, [_cluster(sorted(dataset.stops)[:3])]


@pytest.mark.parametrize("name, stops, itineraries, clusters", list(_program_networks()))
def test_every_step_of_program_graphs_boards_alights_rides_or_walks(name, stops, itineraries, clusters):
    """Boards and alights at one stop (0 m), rides between consecutive stops
    of one itinerary, and walks between members of one cluster, in the
    clustered graph only; a step repeated in an itinerary is one step."""
    steps = {}
    for iti in itineraries:
        line = (iti.line_code, iti.direction)
        for s in iti.stop_ids:
            steps[stop_node(s), ride_node(*line, s)] = steps[ride_node(*line, s), stop_node(s)] = 0.0
        for a, b in zip(iti.stop_ids, iti.stop_ids[1:]):
            steps[ride_node(*line, a), ride_node(*line, b)] = haversine_distance(stops[a], stops[b])
    walks = {
        (stop_node(a), stop_node(b)): haversine_distance(stops[a], stops[b])
        for cluster in clusters
        for a in cluster.members
        for b in cluster.members
        if a != b
    }
    assert walks
    g = build_graph(itineraries, stops)
    for graph, expected in ((g, steps), (add_cluster_transfers(g, clusters), steps | walks)):
        got = {(a, b): w for a, successors in graph.adjacency.items() for b, w in successors.items()}
        assert got.keys() == expected.keys()
        for step, w in got.items():
            assert w == pytest.approx(expected[step], rel=1e-9), step


@pytest.mark.parametrize("name, stops, itineraries, clusters", list(_program_networks()))
def test_program_graphs_index_one_node_set_and_list_only_nodes_with_a_step(name, stops, itineraries, clusters):
    """The base and clustered graphs number the same nodes, the OD pair and
    every stop included. Adjacency lists only the nodes with a step: no OD
    node, no stop that neither an itinerary nor a walk reaches, and a stop
    that only a walk reaches in the clustered graph alone."""
    served = sorted({s for iti in itineraries for s in iti.stop_ids})
    near = stops[served[0]]
    walker = offset_point(GeoPoint(near.lat, near.lon), 50.0, 0.0)
    stops = {
        **stops,
        "idle": _stop("idle", 90000, 90000),
        "walker": BusStop("walker", "walker", StopType.STREET_STOP, walker.lat, walker.lon),
    }
    clusters = [*clusters, _cluster({served[0], "walker"}, centroid="walker")]
    g = build_graph(itineraries, stops)
    gc = add_cluster_transfers(g, clusters)
    assert gc.nodes == g.nodes == sorted(g.nodes)
    assert {ORIGIN, DESTINATION, stop_node("idle"), stop_node("walker")} <= set(g.nodes)
    ridden = {ride_node(iti.line_code, iti.direction, s) for iti in itineraries for s in iti.stop_ids}
    ridden.update(map(stop_node, served))
    walked = {stop_node(m) for cluster in clusters for m in cluster.members}
    assert set(g.adjacency) == ridden
    assert set(gc.adjacency) == ridden | walked


@pytest.mark.parametrize("name, stops, itineraries, clusters", list(_program_networks()))
def test_access_edges_of_program_networks_reach_distinct_stops(name, stops, itineraries, clusters):
    rng = np.random.default_rng(5)
    for stop in list(stops.values())[:10]:
        point = offset_point(GeoPoint(stop.lat, stop.lon), *rng.uniform(-300, 300, 2))
        found = [s for s, _ in nearest_stops(point, stops, 2000.0)]
        assert found and len(found) == len(set(found))  # one access edge per stop


def test_count_transfers_counts_each_change_of_line():
    path = [
        ORIGIN, stop_node("a"), ride_node("L1", "A", "a"), ride_node("L1", "A", "b"),
        stop_node("b"), ride_node("L2", "A", "b"), ride_node("L2", "A", "c"), stop_node("c"),
        stop_node("d"), ride_node("L1", "B", "d"), ride_node("L1", "B", "e"), stop_node("e"), DESTINATION,
    ]  # L1, L2, a walk c-d, then L1 again
    assert count_transfers(path) == 2
    assert count_transfers(path[:5]) == 0
    assert count_transfers([ORIGIN, stop_node("a"), DESTINATION]) == 0
